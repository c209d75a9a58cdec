//! Eval-mode forward passes are **batch-invariant**: a sample's output is
//! bit-identical whether it is evaluated alone, inside any batch, or across
//! any batch split.
//!
//! This is the contract the `fitact_serve` micro-batching scheduler builds
//! on — coalescing concurrent requests into one forward pass must be a pure
//! throughput optimisation, never a numerics change. It holds because every
//! eval-mode layer is row-local: elementwise ops, per-sample pool lowering,
//! batch-norm running statistics, convolutions whose grouped products pick
//! their kernel per sample and match per-sample products bit for bit
//! (pinned at the kernel level by
//! `grouped_products_match_per_sample_products_bit_for_bit`) — and the one
//! batch-shaped matmul (`Linear`, `x·Wᵀ`) always takes the packed kernel
//! whose per-row arithmetic is independent of the row count (pinned by
//! `nt_rows_are_independent_of_row_count`, both in `fitact_tensor`).
//!
//! Train mode is deliberately *not* covered: batch-norm batch statistics
//! and dropout masks make training genuinely batch-shaped.

use fitact_nn::layers::{
    ActivationLayer, BatchNorm2d, Conv2d, Dropout, Flatten, GlobalAvgPool, Linear, MaxPool2d, Mode,
    Sequential,
};
use fitact_nn::network::copy_batch_into;
use fitact_nn::trace::{self, ViolationTrace};
use fitact_nn::Network;
use fitact_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An MLP whose hidden products are large enough to exercise the packed
/// matmul path at every batch size.
fn mlp() -> Network {
    let mut rng = StdRng::seed_from_u64(40);
    Network::new(
        "mlp",
        Sequential::new()
            .with(Box::new(Linear::new(96, 256, &mut rng)))
            .with(Box::new(ActivationLayer::relu("h1", &[256])))
            .with(Box::new(Dropout::new(0.3, 5).unwrap()))
            .with(Box::new(Linear::new(256, 64, &mut rng)))
            .with(Box::new(ActivationLayer::relu("h2", &[64])))
            .with(Box::new(Linear::new(64, 7, &mut rng))),
    )
}

/// A CNN touching every spatial layer type (conv, batch-norm, max-pool,
/// global-avg-pool, flatten) ahead of the linear head.
fn cnn() -> Network {
    let mut rng = StdRng::seed_from_u64(41);
    Network::new(
        "cnn",
        Sequential::new()
            .with(Box::new(Conv2d::new(3, 6, 3, 1, 1, &mut rng)))
            .with(Box::new(BatchNorm2d::new(6)))
            .with(Box::new(ActivationLayer::relu("c1", &[6, 12, 12])))
            .with(Box::new(MaxPool2d::new(2, 2)))
            .with(Box::new(Conv2d::new(6, 10, 3, 1, 1, &mut rng)))
            .with(Box::new(ActivationLayer::relu("c2", &[10, 6, 6])))
            .with(Box::new(GlobalAvgPool::new()))
            .with(Box::new(Flatten::new()))
            .with(Box::new(Linear::new(10, 5, &mut rng))),
    )
}

/// A CNN whose convolutions straddle the matmul kernel's direct/packed
/// threshold (2¹⁸ multiply-adds per sample): the first conv is above it
/// per sample (283 824), so every sample takes the packed kernel; the
/// second is just below it (260 172), so samples are grouped seven at a
/// time into one product that is itself far above the threshold — the
/// kernel must still be chosen per sample.
fn threshold_cnn() -> Network {
    let mut rng = StdRng::seed_from_u64(45);
    Network::new(
        "threshold-cnn",
        Sequential::new()
            .with(Box::new(Conv2d::new(3, 73, 3, 1, 1, &mut rng)))
            .with(Box::new(ActivationLayer::relu("c1", &[73, 12, 12])))
            .with(Box::new(MaxPool2d::new(2, 2)))
            .with(Box::new(Conv2d::new(73, 11, 3, 1, 1, &mut rng)))
            .with(Box::new(ActivationLayer::relu("c2", &[11, 6, 6])))
            .with(Box::new(GlobalAvgPool::new()))
            .with(Box::new(Flatten::new()))
            .with(Box::new(Linear::new(11, 5, &mut rng))),
    )
}

/// Forwards `inputs` in batches of `batch` and stacks the output rows.
fn forward_in_batches(net: &mut Network, inputs: &Tensor, batch: usize) -> Tensor {
    let n = inputs.dims()[0];
    let mut staging = Tensor::default();
    let mut rows: Vec<Tensor> = Vec::with_capacity(n);
    let mut start = 0;
    while start < n {
        let end = (start + batch).min(n);
        copy_batch_into(inputs, start, end, &mut staging).unwrap();
        let out = net.forward(&staging, Mode::Eval).unwrap();
        for i in 0..(end - start) {
            rows.push(out.index_axis0(i).unwrap());
        }
        start = end;
    }
    Tensor::stack(&rows).unwrap()
}

fn assert_batch_invariant(net: Network, inputs: Tensor) {
    // Every split must reproduce the full-batch rows bit-for-bit — single
    // samples, a prime-size split with a ragged tail, and near-halves.
    let n = inputs.dims()[0];
    assert_batch_splits_invariant(net, inputs, &[1, 3, n / 2, n]);
}

fn assert_batch_splits_invariant(mut net: Network, inputs: Tensor, batches: &[usize]) {
    let n = inputs.dims()[0];
    let full = net.forward(&inputs, Mode::Eval).unwrap();
    for &batch in batches {
        let split = forward_in_batches(&mut net, &inputs, batch);
        assert_eq!(
            split,
            full,
            "{}: batch={batch} must be bit-identical to the full batch of {n}",
            net.name()
        );
    }
}

#[test]
fn mlp_forward_is_batch_invariant() {
    let mut rng = StdRng::seed_from_u64(42);
    let inputs = init::uniform(&[13, 96], -1.0, 1.0, &mut rng);
    assert_batch_invariant(mlp(), inputs);
}

#[test]
fn cnn_forward_is_batch_invariant() {
    let mut rng = StdRng::seed_from_u64(43);
    let inputs = init::uniform(&[9, 3, 12, 12], -1.0, 1.0, &mut rng);
    assert_batch_invariant(cnn(), inputs);
}

/// Grouped convolution is batch-invariant across the kernel threshold:
/// splits of 1, 3, 7 (one full group of the second conv) and all 16
/// samples (groups of 7, 7 and a ragged 2) give the same bits.
#[test]
fn grouped_conv_forward_is_batch_invariant_across_the_kernel_threshold() {
    let mut rng = StdRng::seed_from_u64(46);
    let inputs = init::uniform(&[16, 3, 12, 12], -1.0, 1.0, &mut rng);
    assert_batch_splits_invariant(threshold_cnn(), inputs, &[1, 3, 7, 16]);
}

/// The same invariance, with violation tracing active: the trace is
/// observe-only, so a traced forward must be bit-identical to an untraced
/// one — on every layer mix, and while the trace itself still sees every
/// activation slot.
#[test]
fn violation_tracing_never_perturbs_outputs() {
    let mut rng = StdRng::seed_from_u64(44);
    for (mut net, inputs, slots) in [
        (mlp(), init::uniform(&[13, 96], -1.0, 1.0, &mut rng), 2),
        (
            cnn(),
            init::uniform(&[9, 3, 12, 12], -1.0, 1.0, &mut rng),
            2,
        ),
    ] {
        let untraced = net.forward(&inputs, Mode::Eval).unwrap();
        let mut violation_trace = ViolationTrace::new();
        let traced =
            trace::capture(&mut violation_trace, || net.forward(&inputs, Mode::Eval)).unwrap();
        assert_eq!(
            traced,
            untraced,
            "{}: tracing must be a pure observer",
            net.name()
        );
        // The trace really did observe the pass: one slot per activation
        // layer, every pre-activation element inspected, and — plain
        // unbounded ReLUs — zero violations.
        assert_eq!(violation_trace.slots().len(), slots, "{}", net.name());
        assert!(
            violation_trace.slots().iter().all(|s| s.elements > 0),
            "{}",
            net.name()
        );
        assert_eq!(violation_trace.total(), 0, "{}", net.name());
    }
}

// The protected-model variant of this invariance (FitAct wrappers are
// elementwise, so protection cannot reintroduce batch coupling) lives in
// the workspace suite `tests/serve_identity.rs` — the protection schemes
// come from the `fitact` core crate, which sits above this one.
