//! Artifact round-trip suite: every layer type × every protection scheme
//! serializes and reloads **bit-identically**, and malformed artifacts fail
//! with typed errors, never panics.

use fitact::{apply_protection, ActivationProfiler, ProtectionScheme};
use fitact_io::{IoError, ModelArtifact};
use fitact_nn::layers::{
    ActivationLayer, BatchNorm2d, Bottleneck, Conv2d, Dropout, Flatten, GlobalAvgPool, Linear,
    MaxPool2d, Sequential,
};
use fitact_nn::{Mode, Network};
use fitact_tensor::{init, NativeParam, Precision, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A network exercising Conv2d, BatchNorm2d, ActivationLayer, MaxPool2d,
/// Dropout, Flatten and Linear.
fn cnn() -> Network {
    let mut rng = StdRng::seed_from_u64(5);
    Network::new(
        "cnn",
        Sequential::new()
            .with(Box::new(Conv2d::new(3, 8, 3, 1, 1, &mut rng)))
            .with(Box::new(BatchNorm2d::new(8)))
            .with(Box::new(ActivationLayer::relu("conv1", &[8, 8, 8])))
            .with(Box::new(MaxPool2d::new(2, 2)))
            .with(Box::new(Dropout::new(0.25, 11).unwrap()))
            .with(Box::new(Flatten::new()))
            .with(Box::new(Linear::new(8 * 4 * 4, 16, &mut rng)))
            .with(Box::new(ActivationLayer::relu("fc1", &[16])))
            .with(Box::new(Linear::new(16, 4, &mut rng))),
    )
}

/// A network exercising both Bottleneck variants (identity and projection
/// shortcut), GlobalAvgPool and nested Sequential containers.
fn resnet_ish() -> Network {
    let mut rng = StdRng::seed_from_u64(6);
    let trunk = Sequential::new()
        .with(Box::new(Conv2d::new(3, 8, 3, 1, 1, &mut rng)))
        .with(Box::new(ActivationLayer::relu("stem", &[8, 6, 6])));
    Network::new(
        "resnet-ish",
        Sequential::new()
            .with(Box::new(trunk))
            .with(Box::new(
                Bottleneck::new(8, 2, 1, (6, 6), "b0", &mut rng).unwrap(),
            ))
            .with(Box::new(
                Bottleneck::new(8, 4, 2, (6, 6), "b1", &mut rng).unwrap(),
            ))
            .with(Box::new(GlobalAvgPool::new()))
            .with(Box::new(Linear::new(16, 3, &mut rng))),
    )
}

fn eval_input(net: &str) -> Tensor {
    let mut rng = StdRng::seed_from_u64(99);
    match net {
        "cnn" => init::uniform(&[4, 3, 8, 8], -1.0, 1.0, &mut rng),
        _ => init::uniform(&[4, 3, 6, 6], -1.0, 1.0, &mut rng),
    }
}

fn assert_bit_identical(original: &mut Network, reloaded: &mut Network, x: &Tensor, what: &str) {
    let want = original.forward(x, Mode::Eval).unwrap();
    let got = reloaded.forward(x, Mode::Eval).unwrap();
    assert_eq!(want.dims(), got.dims(), "{what}: output shape");
    for (i, (a, b)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: output element {i} differs: {a} vs {b}"
        );
    }
}

const ALL_SCHEMES: [ProtectionScheme; 6] = [
    ProtectionScheme::Unprotected,
    ProtectionScheme::Ranger,
    ProtectionScheme::ClipAct,
    ProtectionScheme::ClipActPerChannel,
    ProtectionScheme::FitAct { slope: 8.0 },
    ProtectionScheme::FitActNaive,
];

/// Every layer type × every protection scheme: capture → bytes → decode →
/// instantiate reproduces eval-mode forward passes bit-identically, with the
/// protection state intact.
#[test]
fn every_layer_and_scheme_round_trips_bit_identically() {
    for (name, base) in [("cnn", cnn()), ("resnet-ish", resnet_ish())] {
        let mut base = base;
        let x = eval_input(name);
        let calib = eval_input(name);
        let profile = ActivationProfiler::new(2)
            .unwrap()
            .profile(&mut base, &calib)
            .unwrap();
        for scheme in ALL_SCHEMES {
            let mut protected = base.clone();
            apply_protection(&mut protected, &profile, scheme).unwrap();
            let artifact =
                ModelArtifact::capture_protected(&protected, Some(&profile), Some(scheme)).unwrap();
            let decoded = ModelArtifact::from_bytes(&artifact.to_bytes()).unwrap();
            assert_eq!(decoded, artifact, "{name}/{scheme}: binary round trip");
            assert_eq!(decoded.scheme, Some(scheme));
            assert_eq!(decoded.profile.as_ref(), Some(&profile));
            let mut reloaded = decoded.instantiate().unwrap();
            // Parameters (including per-neuron λ bounds) are bit-equal.
            for (a, b) in protected.params().iter().zip(reloaded.params()) {
                assert_eq!(a.data(), b.data(), "{name}/{scheme}: param values");
                assert_eq!(
                    a.trainable(),
                    b.trainable(),
                    "{name}/{scheme}: trainable flag of `{}`",
                    a.name()
                );
            }
            // Activation slots carry the same implementations.
            let names: Vec<String> = reloaded
                .activation_slots()
                .iter()
                .map(|s| s.activation().name().to_owned())
                .collect();
            let want_names: Vec<String> = protected
                .activation_slots()
                .iter()
                .map(|s| s.activation().name().to_owned())
                .collect();
            assert_eq!(names, want_names, "{name}/{scheme}: activations");
            assert_bit_identical(
                &mut protected,
                &mut reloaded,
                &x,
                &format!("{name}/{scheme}"),
            );
        }
    }
}

/// Quantized parameters (the campaign arithmetic grid) round-trip bit-exactly
/// too — the artifact stores raw f32 bit patterns.
#[test]
fn quantized_networks_round_trip_bit_identically() {
    let mut net = cnn();
    fitact_faults::quantize_network(&mut net);
    let artifact = ModelArtifact::capture(&net).unwrap();
    let mut reloaded = ModelArtifact::from_bytes(&artifact.to_bytes())
        .unwrap()
        .instantiate()
        .unwrap();
    assert_bit_identical(&mut net, &mut reloaded, &eval_input("cnn"), "quantized cnn");
}

/// Truncating a valid artifact at any byte boundary yields a typed error.
#[test]
fn truncation_yields_typed_errors_everywhere() {
    let bytes = ModelArtifact::capture(&resnet_ish()).unwrap().to_bytes();
    for cut in 0..bytes.len() {
        match ModelArtifact::from_bytes(&bytes[..cut]) {
            Err(IoError::Truncated { .. }) | Err(IoError::BadMagic) => {}
            other => panic!("cut at {cut}: expected a typed truncation error, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_and_unsupported_version_are_typed() {
    let bytes = ModelArtifact::capture(&cnn()).unwrap().to_bytes();
    let mut bad_magic = bytes.clone();
    bad_magic[3] = b'X';
    assert!(matches!(
        ModelArtifact::from_bytes(&bad_magic),
        Err(IoError::BadMagic)
    ));
    let mut future = bytes;
    future[8..12].copy_from_slice(&9u32.to_le_bytes());
    assert!(matches!(
        ModelArtifact::from_bytes(&future),
        Err(IoError::UnsupportedVersion(9))
    ));
}

/// A legacy v1 file (inline parameter values), written by the v1 encoder
/// before it was removed, still decodes to the same artifact.
#[test]
fn v1_downgrade_encoding_still_decodes() {
    let mut base = cnn();
    let calib = eval_input("cnn");
    let profile = ActivationProfiler::new(2)
        .unwrap()
        .profile(&mut base, &calib)
        .unwrap();
    let scheme = ProtectionScheme::FitAct { slope: 8.0 };
    apply_protection(&mut base, &profile, scheme).unwrap();
    let artifact = ModelArtifact::capture_protected(&base, Some(&profile), Some(scheme)).unwrap();
    let v1 = include_bytes!("fixtures/cnn_fitact_v1.fitact");
    assert_eq!(&v1[8..12], &1u32.to_le_bytes(), "a v1 file");
    assert_eq!(ModelArtifact::from_bytes(v1).unwrap(), artifact);
    assert_eq!(
        ModelArtifact::from_bytes(&artifact.to_bytes()).unwrap(),
        artifact
    );
}

/// An artifact whose spec was tampered with (layer shape no longer matches
/// the parameter list) is rejected with a mismatch error, not a panic.
#[test]
fn tampered_topology_is_a_mismatch() {
    let mut artifact = ModelArtifact::capture(&cnn()).unwrap();
    if let fitact_nn::LayerSpec::Conv2d { out_channels, .. } = &mut artifact.layers[0] {
        *out_channels += 1;
    } else {
        panic!("expected the conv layer first");
    }
    assert!(matches!(artifact.instantiate(), Err(IoError::Mismatch(_))));
}

/// Native parameter payloads (f16 words, int8 values/scales/zero-points)
/// of two networks are bit-for-bit equal, and f32 parameters bit-equal.
fn assert_native_bit_equal(a: &Network, b: &Network, what: &str) {
    for (pa, pb) in a.params().iter().zip(b.params()) {
        match (pa.native(), pb.native()) {
            (None, None) => assert_eq!(pa.data(), pb.data(), "{what}: f32 param `{}`", pa.name()),
            (Some(NativeParam::F16(x)), Some(NativeParam::F16(y))) => {
                assert_eq!(x.words(), y.words(), "{what}: f16 words of `{}`", pa.name());
            }
            (Some(NativeParam::Int8(x)), Some(NativeParam::Int8(y))) => {
                assert_eq!(x.q(), y.q(), "{what}: int8 values of `{}`", pa.name());
                let sx: Vec<u32> = x.scales().iter().map(|s| s.to_bits()).collect();
                let sy: Vec<u32> = y.scales().iter().map(|s| s.to_bits()).collect();
                assert_eq!(sx, sy, "{what}: int8 scales of `{}`", pa.name());
                assert_eq!(
                    x.zero_points(),
                    y.zero_points(),
                    "{what}: int8 zero points of `{}`",
                    pa.name()
                );
            }
            _ => panic!(
                "{what}: precision of `{}` differs between networks",
                pa.name()
            ),
        }
    }
}

/// Every layer type × every precision: a quantized network re-encodes
/// **bit-identically** — capture → bytes → decode → re-encode reproduces the
/// same bytes, the reloaded network carries the same native payloads, and
/// eval-mode forward passes match bit-for-bit.
#[test]
fn every_layer_and_precision_re_encodes_bit_identically() {
    for (name, base) in [("cnn", cnn()), ("resnet-ish", resnet_ish())] {
        let mut sizes = Vec::new();
        for precision in [Precision::F32, Precision::F16, Precision::Int8] {
            let mut net = base.clone();
            net.quantize_to(precision);
            assert_eq!(
                net.precision(),
                precision,
                "{name}: quantize_to took effect"
            );
            let artifact = ModelArtifact::capture(&net).unwrap();
            let want_version = if precision == Precision::F32 { 2 } else { 3 };
            assert_eq!(
                artifact.format_version(),
                want_version,
                "{name}/{precision}: version stamp"
            );
            let bytes = artifact.to_bytes();
            sizes.push(bytes.len());
            let decoded = ModelArtifact::from_bytes(&bytes).unwrap();
            assert_eq!(
                decoded, artifact,
                "{name}/{precision}: structural round trip"
            );
            assert_eq!(
                decoded.to_bytes(),
                bytes,
                "{name}/{precision}: re-encode is bit-identical"
            );
            let mut reloaded = decoded.instantiate().unwrap();
            assert_eq!(reloaded.precision(), precision);
            assert_native_bit_equal(&net, &reloaded, &format!("{name}/{precision}"));
            assert_bit_identical(
                &mut net,
                &mut reloaded,
                &eval_input(name),
                &format!("{name}/{precision}"),
            );
        }
        // Reduced-precision artifacts really are smaller on the wire.
        assert!(
            sizes[1] < sizes[0] && sizes[2] < sizes[1],
            "{name}: artifact bytes must shrink with precision, got {sizes:?}"
        );
    }
}

/// Truncating a v3 (native-precision) artifact at any byte boundary yields a
/// typed error, for both native encodings.
#[test]
fn native_truncation_yields_typed_errors_everywhere() {
    for precision in [Precision::F16, Precision::Int8] {
        let mut net = cnn();
        net.quantize_to(precision);
        let bytes = ModelArtifact::capture(&net).unwrap().to_bytes();
        for cut in 0..bytes.len() {
            match ModelArtifact::from_bytes(&bytes[..cut]) {
                Err(IoError::Truncated { .. }) | Err(IoError::BadMagic) => {}
                other => panic!(
                    "{precision}, cut at {cut}: expected a typed truncation error, got {other:?}"
                ),
            }
        }
    }
}

/// All-f32 artifacts still encode as format version 2 and the exact v2 byte
/// stream is pinned: old files decode unchanged, and new all-f32 files are
/// byte-identical to what the pre-v3 writer produced.
#[test]
fn all_f32_artifacts_keep_the_v2_encoding_byte_identical() {
    let bytes = ModelArtifact::capture(&cnn()).unwrap().to_bytes();
    assert_eq!(&bytes[8..12], &2u32.to_le_bytes(), "version stamp is 2");
    // FNV-1a over the deterministic (seeded) artifact pins the exact wire
    // bytes — any change to the v2 encoding, intended or not, fails here.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!(
        hash,
        PINNED_V2_FNV1A,
        "the all-f32 v2 wire format changed ({} bytes)",
        bytes.len()
    );
    let decoded = ModelArtifact::from_bytes(&bytes).unwrap();
    assert!(
        decoded.params.iter().all(|p| p.native.is_none()),
        "v2 decode must not invent native payloads"
    );
}

/// See [`all_f32_artifacts_keep_the_v2_encoding_byte_identical`].
const PINNED_V2_FNV1A: u64 = 5_815_570_999_583_705_985;

proptest! {
    /// Arbitrary bytes never panic the decoder: anything that is not a valid
    /// artifact fails with a typed error. The first 8 bytes are sometimes
    /// forced to the real magic so decoding gets past the header check.
    #[test]
    fn arbitrary_bytes_never_panic(seed in any::<u64>(), len in 0usize..256, with_magic in any::<bool>()) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        if with_magic && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(&fitact_io::MAGIC);
        }
        let _ = ModelArtifact::from_bytes(&bytes);
    }

    /// Flipping one byte of a valid artifact either still decodes (the flip
    /// hit a value, not structure) or fails with a typed error — never a
    /// panic, never an abort.
    #[test]
    fn single_byte_corruption_never_panics(offset in 0usize..4096, flip in 1u8..=255) {
        let mut bytes = ModelArtifact::capture(&cnn()).unwrap().to_bytes();
        let offset = offset % bytes.len();
        bytes[offset] ^= flip;
        let _ = ModelArtifact::from_bytes(&bytes);
    }
}
