//! Benchmark-side tracing: spans around each call into a layer's public
//! API, plus a counting allocator that attributes allocations to them.
//!
//! Spans are kept in memory per thread and written out when the run ends.
//! A span's layer is the part of its name before the first `.`
//! (`cascabel.compile` belongs to `cascabel`). With tracing off every
//! [`Spans::call`] is a plain call: no clock reads, no records.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    /// Allocation counting switch of this thread. Off for the whole of an
    /// untraced run, and switched on only around a traced pass.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocation calls made on this thread while counting was on.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls per thread while that thread's [`set_counting`] is on.
pub struct CountingAlloc;

#[inline]
fn bump() {
    // `try_with` never panics: the cells have no destructor, and a thread
    // being torn down simply goes uncounted.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// The counter touches only const-initialized thread-local `Cell`s, which
// never allocate, so counting cannot recurse into the allocator.
#[allow(unsafe_code)]
// SAFETY: every method forwards to `System` with its arguments unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's `layout` obligations pass straight to `System`.
    #[allow(unsafe_code)]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    // SAFETY: the caller's `layout` obligations pass straight to `System`.
    #[allow(unsafe_code)]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`.
    #[allow(unsafe_code)]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    // SAFETY: `ptr` came from `System`; the size obligations pass through.
    #[allow(unsafe_code)]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Switches allocation counting on or off for the calling thread.
pub fn set_counting(on: bool) {
    let _ = COUNTING.try_with(|c| c.set(on));
}

/// Allocation calls counted on the current thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
    /// Recorder (benchmark thread) the span was recorded on; set by
    /// [`concat`].
    pub thread: u32,
    /// Pass the span belongs to.
    pub pass: u32,
    /// Thread-local allocation calls made while the span was open.
    pub allocs: u64,
    /// Nanoseconds covered by direct children.
    pub child_ns: u64,
    /// Allocation calls made inside direct children.
    pub child_allocs: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Wall time not covered by child spans.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }

    /// Allocation calls not made inside child spans.
    pub fn self_allocs(&self) -> u64 {
        self.allocs.saturating_sub(self.child_allocs)
    }

    /// The layer this span's call belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span recorder.
pub struct Spans {
    on: bool,
    pass: u32,
    epoch: Instant,
    open: Vec<(usize, u64)>,
    /// Closed spans in start order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose timestamps count from `epoch`; records nothing
    /// until [`Spans::set_pass`] turns it on.
    pub fn new(epoch: Instant) -> Self {
        Spans {
            on: false,
            pass: 0,
            epoch,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts pass `pass`, recording spans only if `on`.
    pub fn set_pass(&mut self, pass: u32, on: bool) {
        debug_assert!(self.open.is_empty(), "pass changed inside a span");
        self.pass = pass;
        self.on = on;
    }

    /// Opens a span; pair with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().map(|&(i, _)| i);
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            thread: 0,
            pass: self.pass,
            allocs: 0,
            child_ns: 0,
            child_allocs: 0,
        });
        self.open.push((self.spans.len() - 1, thread_allocs()));
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let (i, allocs0) = self.open.pop().expect("end without begin");
        let span = &mut self.spans[i];
        span.end_ns = end_ns;
        span.allocs = thread_allocs() - allocs0;
        let (dur, allocs) = (span.dur_ns(), span.allocs);
        if let Some(p) = span.parent {
            self.spans[p].child_ns += dur;
            self.spans[p].child_allocs += allocs;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }
}

/// Joins the span lists of several recorders into one: each span gets its
/// recorder's index as `thread`, and its parent index is shifted to point
/// into the joined list.
pub fn concat<'a>(recorders: impl IntoIterator<Item = &'a [Span]>) -> Vec<Span> {
    let mut all = Vec::new();
    for (thread, spans) in recorders.into_iter().enumerate() {
        let base = all.len();
        all.extend(spans.iter().map(|s| Span {
            parent: s.parent.map(|p| base + p),
            thread: thread as u32,
            ..s.clone()
        }));
    }
    all
}

/// Writes spans as JSON lines (one object per span) to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"thread":{},"pass":{},"allocs":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.thread, s.pass, s.allocs
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut spans = Spans::new(Instant::now());
        spans.call("x.y", || 1);
        assert!(spans.spans.is_empty());
        spans.set_pass(3, true);
        spans.begin("bench.pass");
        spans.call("cascabel.compile", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.end();
        let [root, child] = &spans.spans[..] else {
            panic!("two spans expected")
        };
        assert_eq!(child.parent, Some(0));
        assert_eq!(child.pass, 3);
        assert_eq!(child.layer(), "cascabel");
        assert_eq!(root.child_ns, child.dur_ns());
        assert!(root.self_ns() < root.dur_ns());
    }

    fn recorded(epoch: Instant) -> Spans {
        let mut spans = Spans::new(epoch);
        spans.set_pass(1, true);
        spans.begin("bench.pass");
        spans.call("hetero-rt.run", || ());
        spans.call("hetero-rt.drop", || ());
        spans.end();
        spans
    }

    #[test]
    fn concat_points_parents_into_the_joined_list() {
        let epoch = Instant::now();
        let (a, b) = (recorded(epoch), recorded(epoch));
        let all = concat([a.spans.as_slice(), b.spans.as_slice()]);
        assert_eq!(all.len(), 6);
        let parents: Vec<Option<usize>> = all.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), None, Some(3), Some(3)]);
        let threads: Vec<u32> = all.iter().map(|s| s.thread).collect();
        assert_eq!(threads, [0, 0, 0, 1, 1, 1]);
        for (i, s) in all.iter().enumerate() {
            if let Some(p) = s.parent {
                assert_eq!(all[p].thread, s.thread, "span {i}");
                assert_eq!(all[p].name, "bench.pass");
            }
        }
    }
}
