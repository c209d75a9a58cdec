//! Pins the zero-allocation contract of `Conv2d`, in f32 and with
//! f16-quantized weights, and across a stack of convolutions with different
//! geometries.
//!
//! A counting global allocator records every heap allocation; after a warm-up
//! batch has sized the layer's [`fitact_tensor::Workspace`], the per-thread
//! forward scratch and the output tensor, further `forward_into` calls must
//! allocate nothing at all, and `forward` exactly one output tensor per call.
//!
//! This file holds a single test on purpose: the allocation counter is global
//! and the default test harness runs tests concurrently.

use fitact_nn::layers::Conv2d;
use fitact_nn::{Layer, Mode};
use fitact_tensor::{init, F16Param, NativeParam, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let result = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, result)
}

/// The fewest allocations counted over up to ten windows of `f`, stopping at
/// the first clean one. The counter is process-global, so an allocation on
/// another harness thread during a window would falsely implicate `f`; a
/// genuinely allocating `f` could never produce a clean window.
fn fewest_allocations(mut f: impl FnMut()) -> usize {
    let mut best = usize::MAX;
    for _ in 0..10 {
        best = best.min(allocations(&mut f).0);
        if best == 0 {
            break;
        }
    }
    best
}

#[test]
fn conv2d_forward_is_allocation_free_after_the_first_batch() {
    let mut rng = StdRng::seed_from_u64(0);
    // Sized so the per-sample matmul stays below the kernel's parallel
    // threshold: thread spawning allocates by design.
    let mut conv = Conv2d::new(4, 8, 3, 1, 1, &mut rng);
    let x = init::uniform(&[2, 4, 8, 8], -1.0, 1.0, &mut rng);
    let mut out = Tensor::default();

    // Warm-up: sizes the workspace, the input cache, the matmul pack buffers
    // and the output tensor.
    conv.forward_into(&x, Mode::Train, &mut out).unwrap();
    let reference = out.clone();

    let best = fewest_allocations(|| {
        for _ in 0..5 {
            conv.forward_into(&x, Mode::Train, &mut out).unwrap();
        }
    });
    assert_eq!(
        best, 0,
        "Conv2d::forward_into must not allocate once the workspace is warm"
    );
    assert_eq!(
        out, reference,
        "allocation-free path must compute the same output"
    );

    // The trait-level `forward` returns a fresh tensor, so it is allowed the
    // output-tensor allocations (data buffer plus shape bookkeeping) and
    // nothing proportional to the work done.
    let mut best = usize::MAX;
    for _ in 0..10 {
        let (count, y) = allocations(|| conv.forward(&x, Mode::Train).unwrap());
        assert_eq!(y, reference);
        best = best.min(count);
        if best <= 4 {
            break;
        }
    }
    assert!(
        best <= 4,
        "Layer::forward should allocate only the output tensor, counted {best}"
    );

    // f16-quantized weights take the reduced-precision kernels, whose
    // transposed column and output staging must come from the same warm
    // scratch.
    let mut quantized = Conv2d::new(4, 8, 3, 1, 1, &mut rng);
    let weight = &mut quantized.params_mut()[0];
    let (values, dims) = (weight.data().as_slice().to_vec(), weight.dims());
    weight.set_native(NativeParam::F16(F16Param::from_f32(&values, &dims)));
    let mut out = Tensor::default();
    quantized.forward_into(&x, Mode::Eval, &mut out).unwrap();
    let reference = out.clone();
    let best = fewest_allocations(|| {
        for _ in 0..5 {
            quantized.forward_into(&x, Mode::Eval, &mut out).unwrap();
        }
    });
    assert_eq!(
        best, 0,
        "an f16 Conv2d::forward_into must not allocate once warm"
    );
    assert_eq!(out, reference);

    // A stack whose geometries alternate between the lowerings and group
    // sizes: an ungrouped 16x16 layer, grouped 4x4 and 2x2 layers on the
    // shifted-plane path and a stride-2 layer on the per-row path. They
    // share one per-thread scratch, so once every layer has run, that
    // scratch has its largest size and no call in any order may regrow it.
    let mut stack: Vec<(Conv2d, Tensor, Tensor)> =
        [(4, 8, 1, 16), (8, 16, 1, 4), (16, 16, 1, 2), (8, 8, 2, 16)]
            .into_iter()
            .map(|(in_ch, out_ch, stride, size)| {
                let conv = Conv2d::new(in_ch, out_ch, 3, stride, 1, &mut rng);
                let x = init::uniform(&[3, in_ch, size, size], -1.0, 1.0, &mut rng);
                (conv, x, Tensor::default())
            })
            .collect();
    for (conv, x, out) in &mut stack {
        conv.forward_into(x, Mode::Eval, out).unwrap();
    }
    let references: Vec<Tensor> = stack.iter().map(|(_, _, out)| out.clone()).collect();
    let best = fewest_allocations(|| {
        for _ in 0..3 {
            for (conv, x, out) in &mut stack {
                conv.forward_into(x, Mode::Eval, out).unwrap();
            }
        }
    });
    assert_eq!(
        best, 0,
        "a warm stack of convolutions with different geometries must not allocate"
    );
    for ((_, _, out), reference) in stack.iter().zip(&references) {
        assert_eq!(out, reference);
    }
}
