//! Bounds the heap bytes `JsonValue::parse` allocates by a constant
//! multiple of its input length.
//!
//! `fitact serve` parses request bodies of up to 8 MiB and the campaign
//! coordinator parses 4 MiB result bodies, so the memory a body can make
//! the parser allocate must be bounded by the body's own size. A counting
//! global allocator sums the bytes of every allocation and reallocation
//! (freed memory is not subtracted, so this bounds the total the parse asks
//! for, not just its peak). The inputs are the shapes that allocate the most
//! per input byte — dense arrays of one-character values, empty containers,
//! one-character keys, maximal nesting — plus long and escaped strings, real
//! documents and documents that fail after most of their bytes.
//!
//! A `JsonValue` is 32 bytes, and a `Vec` makes room for four on its first
//! push, so each level of `[[…[0]…]]` nesting asks for 128 bytes for its two
//! brackets: 64 bytes per input byte, the costliest shape here (measured
//! 63.8; `[[0],[0],…]` reads 53 and `[0,0,…]` 42, where `Vec` growth
//! re-requests every earlier size). [`BYTES_PER_INPUT_BYTE`] leaves
//! headroom over that.
//!
//! This file holds a single test on purpose: the counter is process-global
//! and the default test harness runs tests concurrently.

use fitact_io::JsonValue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Heap bytes one parse may request per byte of input.
const BYTES_PER_INPUT_BYTE: usize = 96;
/// Fixed allowance per parse (error messages, the first small buffers).
const BYTES_PER_PARSE: usize = 4096;

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

/// `[item,item,…]` with `n` items.
fn array_of(item: &str, n: usize) -> String {
    format!("[{}]", vec![item; n].join(","))
}

#[test]
fn parse_allocates_a_bounded_multiple_of_its_input() {
    let n = 50_000;
    // Inside the outer array, the deepest nesting the parser accepts.
    let nested = format!("{}0{}", "[".repeat(127), "]".repeat(127));
    let inputs = vec![
        array_of("0", n),
        array_of("[]", n),
        array_of("{}", n),
        array_of("\"\"", n),
        array_of("\"a\"", n),
        array_of("true", n),
        array_of("[0]", n),
        array_of(&nested, 400),
        format!("{{{}}}", vec!["\"\":0"; n].join(",")),
        format!("{{{}}}", vec!["\"k\":[]"; n].join(",")),
        format!("\"{}\"", "a".repeat(1 << 20)),
        format!("\"{}\"", "\\n\\u00e9".repeat(n)),
        format!("\"{}\"", "é€".repeat(n)),
        include_str!("fixtures/campaign_report.json").to_owned(),
        r#"{"inputs": [[0.5, -1.25, 3e-2, 0], [1, 2, 3, 4e0]]}"#.to_owned(),
        // Rejected only at the last byte, after the values are built.
        format!("{}x", &array_of("0", n)[..2 * n]),
        format!("{}}}", array_of("{}", n)),
        "[".repeat(200_000),
    ];
    let mut worst = 0.0f64;
    for input in &inputs {
        // The counter is process-global: take the smallest of a few runs so
        // that an allocation on another harness thread cannot inflate it.
        let bytes = (0..3)
            .map(|_| {
                let before = BYTES.load(Ordering::SeqCst);
                let parsed = JsonValue::parse(input);
                let bytes = BYTES.load(Ordering::SeqCst) - before;
                drop(parsed);
                bytes
            })
            .min()
            .unwrap();
        let bound = BYTES_PER_INPUT_BYTE * input.len() + BYTES_PER_PARSE;
        assert!(
            bytes <= bound,
            "{bytes} bytes for a {}-byte input starting `{}`",
            input.len(),
            input.chars().take(24).collect::<String>()
        );
        worst = worst.max(bytes as f64 / input.len() as f64);
    }
    eprintln!("worst case: {worst:.1} heap bytes per input byte");
}
