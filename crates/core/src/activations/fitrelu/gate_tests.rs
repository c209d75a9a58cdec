//! The gate's numerical contract: σ within 2 ulp of an f64 sigmoid for
//! every f32 argument, exact saturation, `+0.0` for non-positive and
//! non-finite inputs, and one function behind the forward pass and
//! `eval_scalar`. The f64 reference calls the platform libm; the gate
//! itself does not.

use super::{gate, FitRelu};
use fitact_nn::Activation;
use fitact_tensor::Tensor;

/// Error of `value` against `reference` in units of the f32 spacing at
/// `reference` (a normal f32 magnitude).
fn ulps(value: f32, reference: f64) -> f64 {
    let exponent = ((reference.to_bits() >> 52) & 0x7ff) as i64 - 1023;
    let ulp = f64::from_bits(((exponent - 23 + 1023) as u64) << 52);
    (f64::from(value) - reference).abs() / ulp
}

/// `1 / (1 + e^t)` in f64. Below `|t| = 2^-24` the series `1/2 − t/4`
/// is exact to f64 rounding and saves the `exp` on most f32 arguments.
fn reference_sigma(t: f32) -> f64 {
    let t = f64::from(t);
    if t.abs() < 2f64.powi(-24) {
        0.5 - t / 4.0
    } else {
        1.0 / (1.0 + t.exp())
    }
}

/// σ against [`reference_sigma`] for every f32 argument `t` (every
/// 1021st in debug builds), split over the available cores. Returns the
/// largest error in ulps and its argument.
fn sweep_sigma() -> (f64, f32) {
    const CHUNK: u64 = 1 << 16;
    let stride: u64 = if cfg!(debug_assertions) { 1021 } else { 1 };
    let chunks = (1u64 << 32).div_ceil(CHUNK * stride);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || {
                    let mut worst = (0.0f64, 0.0f32);
                    let mut sigmas = vec![0.0f32; CHUNK as usize];
                    for chunk in (worker..chunks).step_by(threads as usize) {
                        let first = chunk * CHUNK * stride;
                        let arg = |i: usize| f32::from_bits((first + i as u64 * stride) as u32);
                        // x = t, λ = 0, k = 1 makes k(x − λ) = t exactly.
                        for (i, sigma) in sigmas.iter_mut().enumerate() {
                            *sigma = gate(arg(i), 0.0, 1.0).sigma;
                        }
                        for (i, &sigma) in sigmas.iter().enumerate() {
                            let t = arg(i);
                            if t.is_nan() {
                                continue;
                            }
                            if t < -20.0 {
                                // e^t < 2^-28: 1.0 is the correctly rounded σ.
                                assert_eq!(sigma, 1.0, "t={t}");
                                continue;
                            }
                            if t > 88.8 {
                                // e^t overflows f32.
                                assert_eq!(sigma, 0.0, "t={t}");
                                continue;
                            }
                            let reference = reference_sigma(t);
                            if reference < f64::from(f32::MIN_POSITIVE) {
                                assert!(sigma < f32::MIN_POSITIVE, "t={t}");
                                continue;
                            }
                            let error = ulps(sigma, reference);
                            if error > worst.0 {
                                worst = (error, t);
                            }
                        }
                    }
                    worst
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("sweep worker panicked"))
            .fold((0.0, 0.0), |a, b| if b.0 > a.0 { b } else { a })
    })
}

#[test]
fn sigma_is_within_two_ulp_of_an_f64_reference_for_every_argument() {
    let (worst, at) = sweep_sigma();
    eprintln!("max σ error {worst:.4} ulp at k(x − λ) = {at:e}");
    assert!(worst <= 2.0, "σ is {worst} ulp off at k(x − λ) = {at:e}");
}

#[test]
fn gate_saturates_exactly() {
    // e^{k(x−λ)} underflows: σ is exactly 1 and y is exactly x.
    for t in [
        -87.4f32,
        -103.9,
        -104.0,
        -1.0e4,
        f32::MIN,
        f32::NEG_INFINITY,
    ] {
        assert_eq!(gate(t, 0.0, 1.0).sigma, 1.0, "t={t}");
    }
    for x in [1.0e-30f32, 0.5, 2.0, 99.0] {
        assert_eq!(gate(x, 200.0, 1.0).y.to_bits(), x.to_bits(), "x={x}");
    }
    // e^{k(x−λ)} overflows (k(x − λ) > ln f32::MAX ≈ 88.7228): y is +0.0.
    let (lambda, k) = (2.0f32, 8.0f32);
    for x in [
        lambda + 88.73 / k,
        lambda + 104.0 / k,
        1.0e3,
        1.0e30,
        f32::MAX,
        f32::INFINITY,
    ] {
        let g = gate(x, lambda, k);
        assert_eq!(g.sigma, 0.0, "x={x}");
        assert_eq!(g.y.to_bits(), 0, "x={x}");
    }
}

#[test]
fn non_positive_nan_and_infinite_inputs_give_positive_zero() {
    let act = FitRelu::from_bounds(&[0.0, 2.0, 1.0e6], 8.0);
    let specials = [
        0.0f32,
        -0.0,
        -1.0e-45,
        -1.0,
        -1.0e30,
        f32::MIN,
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    for x in specials {
        for neuron in 0..3 {
            let y = act.eval_scalar(x, neuron);
            assert_eq!(y.to_bits(), 0, "x={x} neuron={neuron}: {y}");
        }
    }
}

#[test]
fn forward_equals_eval_scalar_bit_for_bit_on_every_element() {
    // 13 neurons: not a multiple of any vector width, so remainder lanes
    // run too. Inputs span the special values and every magnitude.
    let bounds: Vec<f32> = (0..13).map(|i| 0.25 * i as f32 + 0.5).collect();
    let mut act = FitRelu::from_bounds(&bounds, 8.0);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut values: Vec<f32> = (0..37 * 13)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            f32::from_bits((state >> 32) as u32)
        })
        .collect();
    let near_bound = (0..13 * 8).map(|i| bounds[i % 13] + (i as f32 - 52.0) / 64.0);
    values.splice(0..13 * 8, near_bound);
    values[..6].copy_from_slice(&[
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
    ]);
    let input = Tensor::from_vec(values, &[37, 13]).unwrap();
    let output = act.forward(&input).unwrap();
    for (i, (&x, &y)) in input.as_slice().iter().zip(output.as_slice()).enumerate() {
        assert_eq!(
            y.to_bits(),
            act.eval_scalar(x, i % 13).to_bits(),
            "element {i}: x={x}"
        );
    }
}
