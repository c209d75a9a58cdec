//! In-memory span recorder for the traced runs.
//!
//! A span is opened with [`enter`] and closed when its guard drops. Spans
//! nest per thread: the innermost open span is the parent of the next one.
//! Nothing is recorded unless the thread called [`start`], so the untraced
//! code path pays one thread-local lookup per span.
//!
//! Span names are `<layer>.<operation>`, where the layer is the workspace
//! crate whose public function the span times (`tensor`, `nn`, `core`,
//! `faults`, `io`, `serve`, `data`). Names starting with `bench.` mark the
//! benchmark's own loop structure and belong to no layer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the process-wide origin, so
/// spans from different threads share one clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Trial, request or step id (0 when the span has none).
    pub id: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span is attributed to, or `None` for `bench.` spans.
    pub fn layer(&self) -> Option<&'static str> {
        layer_of(self.name)
    }
}

pub fn layer_of(name: &'static str) -> Option<&'static str> {
    let layer = name.split('.').next().unwrap_or("");
    (layer != "bench").then_some(layer)
}

struct Buffer {
    spans: Vec<Span>,
    open: Vec<usize>,
    thread: u32,
}

thread_local! {
    static BUFFER: RefCell<Option<Buffer>> = const { RefCell::new(None) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Starts recording on the calling thread (discarding anything recorded
/// before). `thread` labels the spans in the written trace.
pub fn start(thread: u32) {
    origin();
    BUFFER.with(|b| {
        *b.borrow_mut() = Some(Buffer {
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            thread,
        })
    });
}

/// Stops recording on the calling thread and returns its closed spans.
pub fn take() -> Vec<Span> {
    BUFFER.with(|b| b.borrow_mut().take().map(|b| b.spans).unwrap_or_default())
}

/// Closes its span on drop.
#[must_use = "the span closes when the guard drops"]
pub struct Guard(Option<usize>);

/// Opens a span named `name` with id `id` on the calling thread.
pub fn enter(name: &'static str, id: u64) -> Guard {
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        let Some(buf) = b.as_mut() else {
            return Guard(None);
        };
        let index = buf.spans.len();
        let parent = buf.open.last().copied();
        let thread = buf.thread;
        buf.spans.push(Span {
            name,
            id,
            parent,
            start_ns: now_ns(),
            end_ns: 0,
            thread,
        });
        buf.open.push(index);
        Guard(Some(index))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        let end = now_ns();
        BUFFER.with(|b| {
            if let Some(buf) = b.borrow_mut().as_mut() {
                buf.spans[index].end_ns = end;
                buf.open.pop();
            }
        });
    }
}

/// Runs `f` inside a span.
pub fn timed<R>(name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    let _guard = enter(name, id);
    f()
}

/// Per-name totals of self time (a span's duration minus its children's).
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

impl SelfTime {
    /// Mean self time per span, in the given unit (1e3 → µs, 1e6 → ms).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / unit_ns
        }
    }
}

/// Per span, the time its direct children cover.
fn children_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.duration_ns();
        }
    }
    child_ns
}

/// Self-time table of one thread's spans, keyed by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (span, children) in spans.iter().zip(children_ns(spans)) {
        let entry = table.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(children);
    }
    table
}

/// Sum of layer-attributed self time over spans that lie inside
/// `[from_ns, to_ns]`.
pub fn layer_self_ns(spans: &[Span], from_ns: u64, to_ns: u64) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (span, children) in spans.iter().zip(children_ns(spans)) {
        if span.start_ns < from_ns || span.end_ns > to_ns {
            continue;
        }
        if let Some(layer) = span.layer() {
            *out.entry(layer).or_default() += span.duration_ns().saturating_sub(children);
        }
    }
    out
}

/// Appends another buffer's spans to `all`, re-basing their parent indices.
pub fn append(all: &mut Vec<Span>, more: &[Span]) {
    let offset = all.len();
    all.extend(more.iter().cloned().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Median wall times of untraced and traced passes of one loop.
#[derive(Debug, Clone, Copy)]
pub struct Passes {
    pub untraced_s: f64,
    pub traced_s: f64,
}

impl Passes {
    /// The tracing overhead: traced over untraced wall time, minus 1.
    pub fn overhead(&self) -> f64 {
        self.traced_s / self.untraced_s - 1.0
    }
}

/// Times `pass(traced)`, one run of a loop with spans recorded on the
/// calling thread when `traced`, `pairs` times each way in ABBA order
/// (untraced, traced, traced, untraced, …) after one discarded untraced
/// warm-up, so that neither side gains from running second. The last
/// traced pass's spans are appended to `all`.
pub fn compare(
    pairs: usize,
    all: &mut Vec<Span>,
    mut pass: impl FnMut(bool) -> Result<(), String>,
) -> Result<Passes, String> {
    pass(false)?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = Vec::new();
    for i in 0..2 * pairs {
        let on = matches!(i % 4, 1 | 2);
        if on {
            start(0);
        }
        let t0 = Instant::now();
        pass(on)?;
        let secs = t0.elapsed().as_secs_f64();
        if on {
            traced.push(secs);
            last = take();
        } else {
            untraced.push(secs);
        }
    }
    append(all, &last);
    Ok(Passes {
        untraced_s: crate::stats::median(&mut untraced),
        traced_s: crate::stats::median(&mut traced),
    })
}

/// The clock window from the first span's start to the last span's end.
pub fn extent(spans: &[Span]) -> (u64, u64) {
    let from = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let to = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    (from, to)
}

/// Nanoseconds since the span clock's origin (for loop boundaries).
pub fn clock_ns() -> u64 {
    now_ns()
}

/// Writes spans as JSON lines: name, thread, start/end ns, parent, id.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"i\":{i},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
            s.name, s.thread, s.start_ns, s.end_ns, s.id
        )?;
    }
    out.flush()
}
