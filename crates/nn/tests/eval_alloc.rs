//! Pins the zero-allocation contract of `Network::evaluate` batch slicing.
//!
//! A counting global allocator records every heap allocation; once a first
//! call has sized the staging buffer, further `copy_batch_into` calls over
//! equal-shaped ranges must allocate nothing at all. (The full `evaluate`
//! loop also allocates the tensors its `Mode::Infer` layer forwards return;
//! `crates/core/tests/infer_alloc.rs` pins that those are all it allocates.
//! This test pins the batch slicing alone.)
//!
//! This file holds a single test on purpose: the allocation counter is global
//! and the default test harness runs tests concurrently.

use fitact_nn::copy_batch_into;
use fitact_tensor::{init, Tensor};
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

#[test]
fn batch_slicing_is_allocation_free_after_the_first_batch() {
    let mut rng = StdRng::seed_from_u64(0);
    let inputs = init::uniform(&[64, 3, 4, 4], -1.0, 1.0, &mut rng);
    let mut staging = Tensor::default();

    // Warm-up: sizes the staging buffer for 16-row batches.
    copy_batch_into(&inputs, 0, 16, &mut staging).unwrap();

    // The counter is process-global, so an allocation on another harness
    // thread during the window would falsely implicate the slicer; retry a
    // few windows and require that at least one is completely clean.
    let mut best = usize::MAX;
    for _ in 0..10 {
        let (count, ()) = allocations(|| {
            for start in [0usize, 16, 32, 48] {
                copy_batch_into(&inputs, start, start + 16, &mut staging).unwrap();
            }
        });
        best = best.min(count);
        if best == 0 {
            break;
        }
    }
    assert_eq!(
        best, 0,
        "copy_batch_into must not allocate once the staging buffer is warm"
    );
    assert_eq!(staging.dims(), &[16, 3, 4, 4]);
    assert_eq!(staging.as_slice(), &inputs.as_slice()[48 * 48..64 * 48]);
}
