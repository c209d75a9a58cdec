//! Pins the exact forward numerics of the CNN model zoo against committed
//! hashes.
//!
//! The other CNN suites compare one computation with another (batch
//! invariance, serial against distributed, saved against loaded), so a change
//! that moved every forward the same way would pass all of them. This suite
//! fills AlexNet and VGG16 at width 0.0626, and one stride-2 ResNet
//! `Bottleneck`, with SplitMix64 parameters and inputs, runs forwards at
//! batch 32 and batch 1 in both inference modes, and compares an FNV-1a hash
//! of the output bits with values recorded before the convolution lowering
//! was rewritten. `Mode::Eval` keeps backward state and `Mode::Infer` keeps
//! none; both must reproduce the same constants. The VGG16 is also protected by each hard-bounded scheme, and
//! the hash of its saved artifact is pinned with its logits.
//!
//! Nothing here calls libm: the Box–Muller initialisers and the synthetic
//! datasets do, so every parameter the model constructors draw is
//! overwritten, and inputs come from the same generator. The remaining
//! arithmetic is IEEE-754 `+`, `·`, `÷` and `sqrt`, which every host rounds
//! alike.

use fitact::{apply_protection, ActivationProfiler, ProtectionScheme};
use fitact_io::ModelArtifact;
use fitact_nn::layers::Bottleneck;
use fitact_nn::models::{alexnet, vgg16, ModelConfig};
use fitact_nn::{Layer, Mode, Parameter};
use fitact_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64, with uniform `f32`s built from its top 24 bits.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }

    fn tensor(&mut self, dims: &[usize], lo: f32, hi: f32) -> Tensor {
        let numel = dims.iter().product();
        let data = (0..numel).map(|_| self.uniform(lo, hi)).collect();
        Tensor::from_vec(data, dims).unwrap()
    }
}

/// Overwrites every parameter: He-uniform weights, small biases and BN
/// shifts, and BN scales, means and strictly positive variances near 1.
fn fill(params: Vec<&mut Parameter>, rng: &mut SplitMix64) {
    for p in params {
        let dims = p.dims();
        let (lo, hi) = match p.name() {
            "weight" => {
                let fan_in: usize = dims[1..].iter().product();
                let bound = (6.0 / fan_in as f32).sqrt();
                (-bound, bound)
            }
            "gamma" | "running_var" => (0.5, 1.5),
            _ => (-0.1, 0.1),
        };
        *p.data_mut() = rng.tensor(&dims, lo, hi);
    }
}

/// FNV-1a over the bits of every element.
fn hash_bits(t: &Tensor) -> u64 {
    t.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// FNV-1a over `bytes`, as [`hash_bits`] hashes an element's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hashes of `forward`'s outputs for the whole `input` and for its first
/// sample alone.
fn hashes(mut forward: impl FnMut(&Tensor) -> Tensor, input: &Tensor) -> (u64, u64) {
    let batch = forward(input);
    let sample_len = input.numel() / input.dims()[0];
    let mut dims = input.dims().to_vec();
    dims[0] = 1;
    let first = Tensor::from_vec(input.as_slice()[..sample_len].to_vec(), &dims).unwrap();
    let single = forward(&first);
    assert!(batch.is_finite() && single.is_finite());
    let values = batch.as_slice();
    assert!(values.iter().any(|&v| v != values[0]), "degenerate output");
    (hash_bits(&batch), hash_bits(&single))
}

fn tiny() -> ModelConfig {
    ModelConfig::new(10).with_width(0.0626).with_seed(3)
}

/// Every test runs in both modes.
const INFERENCE_MODES: [Mode; 2] = [Mode::Eval, Mode::Infer];

#[test]
fn alexnet_logits_match_the_recorded_bits() {
    let mut rng = SplitMix64(0xa1e7);
    let mut net = alexnet(&tiny()).unwrap();
    fill(net.params_mut(), &mut rng);
    let x = rng.tensor(&[32, 3, 32, 32], -1.0, 1.0);
    for mode in INFERENCE_MODES {
        let got = hashes(|x| net.forward(x, mode).unwrap(), &x);
        assert_eq!(
            got, ALEXNET,
            "alexnet {mode:?}: (batch 32, batch 1) = ({:#018x}, {:#018x})",
            got.0, got.1
        );
    }
}

#[test]
fn vgg16_logits_match_the_recorded_bits() {
    let mut rng = SplitMix64(0x7661);
    let mut net = vgg16(&tiny()).unwrap();
    fill(net.params_mut(), &mut rng);
    let x = rng.tensor(&[32, 3, 32, 32], -1.0, 1.0);
    for mode in INFERENCE_MODES {
        let got = hashes(|x| net.forward(x, mode).unwrap(), &x);
        assert_eq!(
            got, VGG16,
            "vgg16 {mode:?}: (batch 32, batch 1) = ({:#018x}, {:#018x})",
            got.0, got.1
        );
    }
}

#[test]
fn hard_bounded_schemes_match_the_recorded_bits() {
    // Calibrate on the first 8 inputs, then make the first convolution
    // weight fault-sized, so that every scheme both squashes (or truncates)
    // values above its bounds and passes values below them.
    let mut rng = SplitMix64(0x7661);
    let mut base = vgg16(&tiny()).unwrap();
    fill(base.params_mut(), &mut rng);
    let x = rng.tensor(&[32, 3, 32, 32], -1.0, 1.0);
    let calibration =
        Tensor::from_vec(x.as_slice()[..8 * 3 * 32 * 32].to_vec(), &[8, 3, 32, 32]).unwrap();
    let profile = ActivationProfiler::new(8)
        .unwrap()
        .profile(&mut base, &calibration)
        .unwrap();
    let first_weight = &mut base.params_mut()[0];
    assert_eq!(first_weight.name(), "weight");
    first_weight.data_mut().as_mut_slice()[0] = 4096.0;
    for (scheme, expected) in [
        (ProtectionScheme::ClipAct, CLIPACT),
        (ProtectionScheme::Ranger, RANGER),
        (ProtectionScheme::ClipActPerChannel, CLIPACT_PER_CHANNEL),
        (ProtectionScheme::FitActNaive, FITACT_NAIVE),
    ] {
        let mut net = base.clone();
        apply_protection(&mut net, &profile, scheme).unwrap();
        let artifact = ModelArtifact::capture_protected(&net, Some(&profile), Some(scheme))
            .unwrap()
            .to_bytes();
        for mode in INFERENCE_MODES {
            let (batch, single) = hashes(|x| net.forward(x, mode).unwrap(), &x);
            let got = (batch, single, fnv1a(&artifact));
            assert_eq!(
                got, expected,
                "{scheme} {mode:?}: (batch 32, batch 1, artifact) = ({:#018x}, {:#018x}, {:#018x})",
                got.0, got.1, got.2
            );
        }
    }
}

#[test]
fn strided_bottleneck_output_matches_the_recorded_bits() {
    // A downsampling block: its 3x3 and shortcut convolutions have stride 2
    // and take the per-row lowering, its 1x1 convolutions the shifted-plane
    // one.
    let mut rng = SplitMix64(0xb0771e);
    let mut block =
        Bottleneck::new(8, 4, 2, (8, 8), "block", &mut StdRng::seed_from_u64(0)).unwrap();
    fill(block.params_mut(), &mut rng);
    let x = rng.tensor(&[32, 8, 8, 8], -1.0, 1.0);
    for mode in INFERENCE_MODES {
        let got = hashes(|x| block.forward(x, mode).unwrap(), &x);
        assert_eq!(
            got, BOTTLENECK,
            "bottleneck {mode:?}: (batch 32, batch 1) = ({:#018x}, {:#018x})",
            got.0, got.1
        );
    }
}

// Recorded from the per-output-row im2col lowering, which every convolution
// used before the shifted-plane lowering; the two must agree bit for bit.
const ALEXNET: (u64, u64) = (0x6882_0617_be81_0349, 0x7f81_f40f_3613_bef9);
const VGG16: (u64, u64) = (0xad14_f502_bbac_56f2, 0x6f58_bb2f_1182_feda);
const BOTTLENECK: (u64, u64) = (0xc8bc_b802_90eb_6d10, 0xfbf4_38a3_bc26_8d10);

// Recorded from the four separate hard-bounded activation types (Clip-Act's
// GBReLU, Ranger, per-channel and per-neuron ReLUs), with the bounded-ReLU
// kernels they dispatched to, before they became one `BoundedRelu`.
const CLIPACT: (u64, u64, u64) = (
    0xd1e4_99ab_bfbe_e99c,
    0x8116_d11e_c53f_5fd8,
    0xe790_7bcd_0db2_523d,
);
const RANGER: (u64, u64, u64) = (
    0xb2dc_56ec_33a7_18ef,
    0x185d_cea8_07ff_d78d,
    0xbada_603f_fe4c_a65e,
);
const CLIPACT_PER_CHANNEL: (u64, u64, u64) = (
    0x592b_9169_6ad6_b4e4,
    0x74d9_29ad_6ac7_1939,
    0xf67b_6b4a_5a1a_c6f4,
);
const FITACT_NAIVE: (u64, u64, u64) = (
    0x2ced_745e_0332_cb1b,
    0xcaf1_7252_eae8_04ce,
    0xcd92_8244_d2e1_1695,
);
