//! The zero-copy loading contract: one read-only mapping serves every
//! network instantiated from a [`MappedArtifact`] (no per-worker parameter
//! copy), mutation is copy-on-write, v1 artifacts fall back to owned
//! buffers, and both paths stay bit-identical to the in-memory decode.

use fitact::{apply_protection, ActivationProfiler, ProtectionScheme};
use fitact_io::{IoError, MappedArtifact, ModelArtifact};
use fitact_nn::layers::{ActivationLayer, Conv2d, Flatten, Linear, MaxPool2d, Sequential};
use fitact_nn::{Mode, Network};
use fitact_tensor::{init, NativeParam, Precision, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn cnn() -> Network {
    let mut rng = StdRng::seed_from_u64(17);
    Network::new(
        "cnn",
        Sequential::new()
            .with(Box::new(Conv2d::new(3, 4, 3, 1, 1, &mut rng)))
            .with(Box::new(ActivationLayer::relu("conv1", &[4, 8, 8])))
            .with(Box::new(MaxPool2d::new(2, 2)))
            .with(Box::new(Flatten::new()))
            .with(Box::new(Linear::new(4 * 4 * 4, 6, &mut rng)))
            .with(Box::new(ActivationLayer::relu("fc1", &[6])))
            .with(Box::new(Linear::new(6, 3, &mut rng))),
    )
}

fn protected_artifact() -> ModelArtifact {
    let mut net = cnn();
    let mut rng = StdRng::seed_from_u64(18);
    let calib = init::uniform(&[4, 3, 8, 8], -1.0, 1.0, &mut rng);
    let profile = ActivationProfiler::new(2)
        .unwrap()
        .profile(&mut net, &calib)
        .unwrap();
    let scheme = ProtectionScheme::FitAct { slope: 8.0 };
    apply_protection(&mut net, &profile, scheme).unwrap();
    ModelArtifact::capture_protected(&net, Some(&profile), Some(scheme)).unwrap()
}

fn tmp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fitact_mapped_{label}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// On platforms with mmap support, all instantiations of a mapped v2
/// artifact alias the exact same parameter memory — the acceptance
/// criterion "no per-worker parameter copy", asserted by pointer equality.
#[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
#[test]
fn workers_share_one_parameter_mapping() {
    let dir = tmp_dir("share");
    let path = dir.join("model.fitact");
    let artifact = protected_artifact();
    artifact.save(&path).unwrap();

    let mapped = MappedArtifact::open(&path).unwrap();
    assert!(mapped.is_mapped(), "v2 artifact on unix must map");
    assert_eq!(mapped.name(), artifact.name);
    assert_eq!(mapped.num_parameters(), artifact.num_parameters());
    assert_eq!(mapped.scheme(), artifact.scheme);

    let worker_a = mapped.instantiate().unwrap();
    let worker_b = mapped.instantiate().unwrap();
    for (a, b) in worker_a.params().iter().zip(worker_b.params()) {
        assert!(
            a.data().is_shared(),
            "`{}` must borrow the mapping, not own a copy",
            a.name()
        );
        let pa = a.data().as_slice().as_ptr();
        let pb = b.data().as_slice().as_ptr();
        assert_eq!(
            pa,
            pb,
            "`{}` must alias the same mapped bytes in every worker",
            a.name()
        );
    }
    drop(worker_a);

    // The mapped network computes bit-identically to the owned decode.
    let mut owned = artifact.instantiate().unwrap();
    let mut shared = worker_b;
    let mut rng = StdRng::seed_from_u64(19);
    let x = init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
    assert_eq!(
        shared.forward(&x, Mode::Eval).unwrap(),
        owned.forward(&x, Mode::Eval).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Writing to a shared parameter materialises a private copy (CoW) — the
/// mapping itself, and therefore every other worker, never sees the write.
#[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
#[test]
fn mutation_is_copy_on_write_and_invisible_to_other_workers() {
    let dir = tmp_dir("cow");
    let path = dir.join("model.fitact");
    protected_artifact().save(&path).unwrap();
    let mapped = MappedArtifact::open(&path).unwrap();
    assert!(mapped.is_mapped());

    let mut victim = mapped.instantiate().unwrap();
    let observer = mapped.instantiate().unwrap();
    let before: Vec<f32> = observer.params()[0].data().as_slice().to_vec();

    let p = &mut victim.params_mut()[0];
    p.data_mut().as_mut_slice()[0] = f32::NAN; // a canary-style fault
    assert!(
        !p.data().is_shared(),
        "a written tensor must have detached from the mapping"
    );
    assert_eq!(
        observer.params()[0].data().as_slice(),
        before.as_slice(),
        "the fault must be private to the writer"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// v1 artifacts are not mappable and load through the owned-buffer
/// fallback, bit-identically.
#[test]
fn v1_artifacts_fall_back_to_owned_buffers() {
    let dir = tmp_dir("v1");
    let path = dir.join("model_v1.fitact");
    let artifact = protected_artifact();
    std::fs::write(&path, include_bytes!("fixtures/mapped_cnn_v1.fitact")).unwrap();

    let fallback = MappedArtifact::open(&path).unwrap();
    assert!(!fallback.is_mapped(), "v1 must take the owned path");
    assert_eq!(fallback.name(), artifact.name);
    assert_eq!(fallback.num_parameters(), artifact.num_parameters());

    let mut owned = artifact.instantiate().unwrap();
    let mut reloaded = fallback.instantiate().unwrap();
    let mut rng = StdRng::seed_from_u64(20);
    let x = init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
    assert_eq!(
        reloaded.forward(&x, Mode::Eval).unwrap(),
        owned.forward(&x, Mode::Eval).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupt or missing files fail with the same typed errors as the owned
/// loader — mapping must never turn corruption into a panic or a silent
/// fallback succeeding.
#[test]
fn corrupt_and_missing_files_are_typed_errors() {
    let dir = tmp_dir("corrupt");
    let path = dir.join("model.fitact");
    let mut bytes = protected_artifact().to_bytes();
    // Truncate mid-blob: both loaders must report Truncated.
    bytes.truncate(bytes.len() - 10);
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        MappedArtifact::open(&path),
        Err(IoError::Truncated { .. })
    ));
    assert!(matches!(
        ModelArtifact::load(&path),
        Err(IoError::Truncated { .. })
    ));
    assert!(matches!(
        MappedArtifact::open(dir.join("missing.fitact")),
        Err(IoError::Io(_))
    ));
    // An empty file is short input, not a crash.
    let empty = dir.join("empty.fitact");
    std::fs::write(&empty, []).unwrap();
    assert!(matches!(
        MappedArtifact::open(&empty),
        Err(IoError::Truncated { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// A v3 f16 artifact maps zero-copy: every instantiation borrows its f16
/// words from the one shared mapping (pointer-equal across workers), f32
/// side parameters (biases, λ bounds) stay shared too, and the mapped
/// network computes bit-identically to the owned decode.
#[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
#[test]
fn f16_workers_share_one_native_word_mapping() {
    let dir = tmp_dir("f16_share");
    let path = dir.join("model.fitact");
    let mut net = cnn();
    net.quantize_to(Precision::F16);
    let artifact = ModelArtifact::capture(&net).unwrap();
    artifact.save(&path).unwrap();

    let mapped = MappedArtifact::open(&path).unwrap();
    assert!(mapped.is_mapped(), "v3 artifact on unix must map");

    let worker_a = mapped.instantiate().unwrap();
    let worker_b = mapped.instantiate().unwrap();
    assert_eq!(worker_a.precision(), Precision::F16);
    let mut quantized = 0;
    for (a, b) in worker_a.params().iter().zip(worker_b.params()) {
        match (a.native(), b.native()) {
            (Some(NativeParam::F16(x)), Some(NativeParam::F16(y))) => {
                quantized += 1;
                assert!(
                    x.is_shared(),
                    "`{}` words must borrow the mapping, not own a copy",
                    a.name()
                );
                assert_eq!(
                    x.words().as_ptr(),
                    y.words().as_ptr(),
                    "`{}` must alias the same mapped words in every worker",
                    a.name()
                );
            }
            (None, None) => assert!(
                a.data().is_shared(),
                "f32 sidecar `{}` must stay mapped too",
                a.name()
            ),
            _ => panic!("`{}`: unexpected precision mix", a.name()),
        }
    }
    assert!(quantized >= 3, "the cnn has at least 3 matrix params");
    drop(worker_a);

    let mut owned = artifact.instantiate().unwrap();
    let mut shared = worker_b;
    let mut rng = StdRng::seed_from_u64(21);
    let x = init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
    assert_eq!(
        shared.forward(&x, Mode::Eval).unwrap(),
        owned.forward(&x, Mode::Eval).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Writing to mapped f16 words is copy-on-write: the writer detaches to a
/// private buffer and other workers never observe the flip — the invariant
/// a fault campaign over a mapped quantized model relies on.
#[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
#[test]
fn f16_word_mutation_is_copy_on_write() {
    let dir = tmp_dir("f16_cow");
    let path = dir.join("model.fitact");
    let mut net = cnn();
    net.quantize_to(Precision::F16);
    ModelArtifact::capture(&net).unwrap().save(&path).unwrap();
    let mapped = MappedArtifact::open(&path).unwrap();
    assert!(mapped.is_mapped());

    let mut victim = mapped.instantiate().unwrap();
    let observer = mapped.instantiate().unwrap();
    let observe = |net: &Network| -> Vec<u16> {
        match net.params()[0].native() {
            Some(NativeParam::F16(w)) => w.words().to_vec(),
            _ => panic!("conv weight must be f16"),
        }
    };
    let before = observe(&observer);

    match victim.params_mut()[0].native_mut() {
        Some(NativeParam::F16(w)) => {
            w.words_mut()[0] ^= 1 << 15; // a sign-bit fault
            assert!(
                !w.is_shared(),
                "a written param must detach from the mapping"
            );
        }
        _ => panic!("conv weight must be f16"),
    }
    assert_eq!(observe(&observer), before, "the fault must stay private");
    std::fs::remove_dir_all(&dir).ok();
}

/// Int8 blobs interleave values/scales/zero-points, so they decode owned —
/// but the artifact still maps, instantiates, and computes bit-identically
/// to the owned decode.
#[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
#[test]
fn int8_mapped_artifacts_instantiate_and_match_owned() {
    let dir = tmp_dir("int8");
    let path = dir.join("model.fitact");
    let mut net = cnn();
    net.quantize_to(Precision::Int8);
    let artifact = ModelArtifact::capture(&net).unwrap();
    artifact.save(&path).unwrap();

    let mapped = MappedArtifact::open(&path).unwrap();
    assert!(mapped.is_mapped(), "v3 int8 artifact on unix must map");
    assert_eq!(mapped.num_parameters(), artifact.num_parameters());

    let mut from_map = mapped.instantiate().unwrap();
    assert_eq!(from_map.precision(), Precision::Int8);
    let mut owned = artifact.instantiate().unwrap();
    let mut rng = StdRng::seed_from_u64(22);
    let x = init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
    assert_eq!(
        from_map.forward(&x, Mode::Eval).unwrap(),
        owned.forward(&x, Mode::Eval).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `Tensor::clone` of a shared tensor is an alias, not a copy — the cheap
/// clone the serving tier relies on when a worker hands tensors around.
#[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
#[test]
fn cloning_shared_tensors_aliases_the_mapping() {
    let dir = tmp_dir("clone");
    let path = dir.join("model.fitact");
    protected_artifact().save(&path).unwrap();
    let mapped = MappedArtifact::open(&path).unwrap();
    let net = mapped.instantiate().unwrap();
    let original: &Tensor = net.params()[0].data();
    let clone = original.clone();
    assert!(clone.is_shared());
    assert_eq!(clone.as_slice().as_ptr(), original.as_slice().as_ptr());
    std::fs::remove_dir_all(&dir).ok();
}
