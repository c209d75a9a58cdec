//! Pins what a warm `Mode::Infer` forward allocates, and that it leaves no
//! backward state behind.
//!
//! A byte-counting global allocator measures one warm forward of a
//! VGG16-style stack (convolution, batch norm, FitReLU, max-pool, flatten,
//! linear, dropout). In `Mode::Infer` it may allocate only the tensors its
//! layers return, plus at most 64 bytes per layer for their shapes; a warm
//! `Mode::Eval` forward of the same stack, which keeps what `backward`
//! reads, must allocate more. After an `Infer` forward every layer's
//! `backward` must refuse with `BackwardBeforeForward`, also when an `Eval`
//! forward ran just before it.
//!
//! This file holds a single test on purpose: the allocation counter is global
//! and the default test harness runs tests concurrently.

use fitact::FitRelu;
use fitact_nn::layers::{
    ActivationLayer, BatchNorm2d, Conv2d, Dropout, Flatten, Linear, MaxPool2d, Sequential,
};
use fitact_nn::{Layer, Mode, NnError};
use fitact_tensor::matmul::serial_scope;
use fitact_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The fewest bytes allocated over ten runs of `f`. The counter is
/// process-global, so another harness thread can only add to a window;
/// the forwards measured here allocate the same bytes on every run.
fn fewest_bytes(mut f: impl FnMut()) -> usize {
    (0..10)
        .map(|_| {
            let before = BYTES.load(Ordering::SeqCst);
            f();
            BYTES.load(Ordering::SeqCst) - before
        })
        .min()
        .expect("ten windows")
}

fn fitrelu(label: &str, shape: &[usize]) -> Box<dyn Layer> {
    let neurons: usize = shape.iter().product();
    let bounds: Vec<f32> = (0..neurons).map(|i| 0.5 + (i % 7) as f32 * 0.25).collect();
    let act = FitRelu::from_bounds(&bounds, 8.0);
    Box::new(ActivationLayer::with_activation(
        label,
        shape,
        Box::new(act),
    ))
}

/// Two VGG blocks and a dropout classifier on 8×8 inputs.
fn vgg_style_stack() -> Sequential {
    let mut rng = StdRng::seed_from_u64(24);
    Sequential::new()
        .with(Box::new(Conv2d::new(3, 8, 3, 1, 1, &mut rng)))
        .with(Box::new(BatchNorm2d::new(8)))
        .with(fitrelu("features.2", &[8, 8, 8]))
        .with(Box::new(MaxPool2d::new(2, 2)))
        .with(Box::new(Conv2d::new(8, 16, 3, 1, 1, &mut rng)))
        .with(Box::new(BatchNorm2d::new(16)))
        .with(fitrelu("features.6", &[16, 4, 4]))
        .with(Box::new(MaxPool2d::new(2, 2)))
        .with(Box::new(Flatten::new()))
        .with(Box::new(Linear::new(64, 32, &mut rng)))
        .with(fitrelu("classifier.1", &[32]))
        .with(Box::new(Dropout::new(0.5, 1).unwrap()))
        .with(Box::new(Linear::new(32, 10, &mut rng)))
}

#[test]
fn warm_infer_forward_allocates_only_its_outputs_and_keeps_no_backward_state() {
    let mut net = vgg_style_stack();
    let mut rng = StdRng::seed_from_u64(7);
    let x = init::uniform(&[8, 3, 8, 8], -1.0, 1.0, &mut rng);
    // Training steps move the running statistics off the identity.
    for _ in 0..3 {
        net.forward(&x, Mode::Train).unwrap();
    }
    serial_scope(|| {
        // What the layers return, one output tensor each.
        let mut outputs: Vec<Tensor> = Vec::new();
        for layer in net.layers_mut() {
            let input = outputs.last().unwrap_or(&x);
            let out = layer.forward(input, Mode::Infer).unwrap();
            outputs.push(out);
        }
        let output_bytes: usize = outputs.iter().map(|t| t.numel() * 4).sum();
        let slack = 64 * net.len();

        let eval_bytes = fewest_bytes(|| {
            net.forward(&x, Mode::Eval).unwrap();
        });
        let infer_bytes = fewest_bytes(|| {
            net.forward(&x, Mode::Infer).unwrap();
        });
        println!(
            "warm forward: Infer {infer_bytes} B, Eval {eval_bytes} B, outputs {output_bytes} B"
        );
        assert!(
            infer_bytes <= output_bytes + slack,
            "a warm Infer forward allocated {infer_bytes} B; its outputs hold {output_bytes} B"
        );
        assert!(
            infer_bytes < eval_bytes,
            "Infer allocated {infer_bytes} B, Eval {eval_bytes} B"
        );

        // Infer drops what the Eval forward before it kept: each layer
        // refuses a gradient shaped like its own output.
        let eval = net.forward(&x, Mode::Eval).unwrap();
        let infer = net.forward(&x, Mode::Infer).unwrap();
        assert_eq!(infer, eval);
        for (layer, out) in net.layers_mut().iter_mut().zip(&outputs) {
            assert!(
                matches!(layer.backward(out), Err(NnError::BackwardBeforeForward(_))),
                "{} kept backward state",
                layer.name()
            );
        }
    });
}
