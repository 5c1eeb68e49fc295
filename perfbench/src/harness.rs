//! The measurement loop shared by every workload: repeated set-up, timed
//! passes until the deadline, output checks outside the timed region, and
//! the alternation of untraced and traced passes in a traced run.

use crate::spans::{self, Span, Spans};
use std::time::{Duration, Instant};

/// Set-up samples taken before the first pass; one more is taken before
/// every pass, so `setup_s`, the fastest of them, is drawn from the whole
/// run as the pass times are.
const SETUP_FIRST_SAMPLES: usize = 5;
/// A set-up sample repeats the set-up until it covers at least this long
/// and reports the mean repetition, so a set-up of microseconds is not
/// measured at the clock's resolution.
const SETUP_SAMPLE_TIME: Duration = Duration::from_millis(2);

/// Command-line options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Measurement time after set-up.
    pub seconds: f64,
    /// Traced run: alternate untraced and traced passes.
    pub trace: bool,
}

/// One timed pass.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Graph tasks completed.
    pub ops: u64,
    /// Timed wall seconds (checks excluded).
    pub secs: f64,
}

impl Pass {
    /// Operations per second.
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

/// A named sample set reported in the run record.
#[derive(Debug, Clone)]
pub struct Stat {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Samples (one per pass, or a single value).
    pub samples: Vec<f64>,
}

/// Everything one workload run measured.
pub struct Run {
    /// Options the run was started with.
    pub opts: Options,
    /// Span recorder of the benchmark's main thread.
    pub spans: Spans,
    /// Span lists of other benchmark threads, one per recorder, merged
    /// after the threads end. Parent indices point into the same list.
    pub thread_spans: Vec<Vec<Span>>,
    /// Seconds of one set-up, per sample.
    pub setup_s: Vec<f64>,
    /// Set-up repetitions per sample.
    pub setup_reps: usize,
    /// Untraced passes.
    pub untraced: Vec<Pass>,
    /// Traced passes.
    pub traced: Vec<Pass>,
    /// Operations verified.
    pub attempted: u64,
    /// Operations that failed a check or returned an error.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Workload-specific metrics for the run record.
    pub stats: Vec<Stat>,
    /// Per-layer counters measured in traced passes (name, value, unit).
    pub layer_counts: Vec<(&'static str, f64, &'static str)>,
    epoch: Instant,
}

impl Run {
    /// A run with nothing measured yet.
    pub fn new(opts: Options) -> Self {
        let epoch = Instant::now();
        Run {
            opts,
            spans: Spans::new(epoch),
            thread_spans: Vec::new(),
            setup_s: Vec::new(),
            setup_reps: 0,
            untraced: Vec::new(),
            traced: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            stats: Vec::new(),
            layer_counts: Vec::new(),
            epoch,
        }
    }

    /// A run for one client thread of a multi-client workload: same
    /// options and span epoch, nothing measured yet. Fold it back in with
    /// [`Run::merge`].
    pub fn client(&self) -> Run {
        Run {
            spans: Spans::new(self.epoch),
            setup_reps: self.setup_reps,
            epoch: self.epoch,
            ..Run::new(self.opts)
        }
    }

    /// Folds a client's set-up samples, passes, verdicts and spans into
    /// this run.
    pub fn merge(&mut self, client: Run) {
        self.setup_s.extend(client.setup_s);
        self.untraced.extend(client.untraced);
        self.traced.extend(client.traced);
        self.attempted += client.attempted;
        self.failed += client.failed;
        let room = 16usize.saturating_sub(self.failures.len());
        self.failures.extend(client.failures.into_iter().take(room));
        self.thread_spans.push(client.spans.spans);
        self.thread_spans.extend(client.thread_spans);
    }

    /// Times `setup`, the program's own set-up, [`SETUP_FIRST_SAMPLES`]
    /// times, and returns one more result, made untimed.
    ///
    /// A sample repeats the set-up often enough to cover
    /// [`SETUP_SAMPLE_TIME`] and records the mean; the repetition count is
    /// found by doubling first.
    pub fn setup<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut reps = 1usize;
        loop {
            let t = Instant::now();
            for _ in 0..reps {
                drop(std::hint::black_box(setup()));
            }
            if t.elapsed() >= SETUP_SAMPLE_TIME || reps >= 1 << 20 {
                break;
            }
            reps *= 2;
        }
        self.setup_reps = reps;
        for _ in 0..SETUP_FIRST_SAMPLES {
            self.setup_sample(&mut setup);
        }
        setup()
    }

    /// Takes one set-up sample of [`Run::setup_reps`] repetitions, each
    /// result dropped before the next is made.
    ///
    /// Dropping inside the timed loop counts the drop, but keeps the heap
    /// the size of one set-up, so a set-up of nanoseconds repeated 2^20
    /// times is not timed together with the page faults of a growing heap.
    fn setup_sample<T>(&mut self, mut setup: impl FnMut() -> T) {
        let t = Instant::now();
        for _ in 0..self.setup_reps {
            drop(std::hint::black_box(setup()));
        }
        self.setup_s
            .push(t.elapsed().as_secs_f64() / self.setup_reps as f64);
    }

    /// Records one verified operation and whether its checks passed.
    pub fn verdict(&mut self, checks: Checks) {
        self.attempted += 1;
        if !checks.failures.is_empty() {
            self.failed += 1;
            for f in checks.failures {
                if self.failures.len() < 16 {
                    self.failures.push(f);
                }
            }
        }
    }

    /// Records the median of a per-layer counter sampled in traced passes.
    pub fn layer_count(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        self.layer_counts.push((name, median(samples), unit));
    }

    /// Adds a workload-specific stat to the run record.
    pub fn stat(&mut self, name: impl Into<String>, unit: &'static str, samples: Vec<f64>) {
        self.stats.push(Stat {
            name: name.into(),
            unit,
            samples,
        });
    }

    /// Drives passes until `seconds` have elapsed (at least one measured
    /// pass of each kind). `pass` runs pass number `i` and returns its
    /// timed result. Pass 0 warms caches and the allocator up: it is
    /// checked but not measured. In a traced run every even pass after it
    /// is traced: spans and allocation counting are on for it only.
    /// Before each pass, `setup` is sampled once more (see [`Run::setup`]).
    pub fn passes<S>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut pass: impl FnMut(&mut Run, u32) -> Pass,
    ) {
        let deadline = Instant::now() + Duration::from_secs_f64(self.opts.seconds);
        let mut i = 0u32;
        loop {
            self.setup_sample(&mut setup);
            let traced = self.opts.trace && i > 0 && i.is_multiple_of(2);
            self.spans.set_pass(i, traced);
            spans::set_counting(traced);
            let p = pass(self, i);
            spans::set_counting(false);
            self.spans.set_pass(i, false);
            match (i, traced) {
                (0, _) => {}
                (_, true) => self.traced.push(p),
                (_, false) => self.untraced.push(p),
            }
            i += 1;
            let enough = !self.untraced.is_empty() && (!self.opts.trace || !self.traced.is_empty());
            if enough && Instant::now() >= deadline {
                break;
            }
        }
    }
}

/// Replays a pass's trace against its task graph (`check_trace`) and
/// records the verdict as one more operation.
///
/// The replay is quadratic in tasks: about 20 s for `fig5_sim`'s two
/// 32,768-task traces and 12 s for `dgemm_profiled`'s on a 2-vCPU Xeon. So
/// only traced runs make it, once, on the first pass's trace and after the
/// measurement; untraced runs keep their time budget for passes.
pub fn replay_trace(
    run: &mut Run,
    label: &str,
    graph: &hetero_rt::graph::TaskGraph,
    trace: &hetero_trace::RunTrace,
) {
    let mut checks = Checks::default();
    let replay = pdl_analyze::check_trace(trace, graph);
    checks.expect(!replay.has_errors(), || {
        format!("{label}: check_trace: {}", replay.render())
    });
    run.verdict(checks);
}

/// Failed checks of one operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Messages of the checks that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records a failure described by `what` unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every check so far passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Times one pass: wall time from creation minus the time spent in
/// checks, which also run inside a `bench.check` span.
pub struct PassTimer {
    start: Instant,
    checking: Duration,
}

impl PassTimer {
    /// Starts the pass clock and opens the pass's root span.
    pub fn start(spans: &mut Spans) -> Self {
        spans.begin("bench.pass");
        PassTimer {
            start: Instant::now(),
            checking: Duration::ZERO,
        }
    }

    /// Runs `check` outside the timed region.
    pub fn untimed<T>(&mut self, spans: &mut Spans, check: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = spans.call("bench.check", check);
        self.checking += t.elapsed();
        out
    }

    /// Stops the clock, closes the root span and returns the pass.
    pub fn finish(self, spans: &mut Spans, ops: u64) -> Pass {
        let wall = self.start.elapsed();
        spans.end();
        Pass {
            ops,
            secs: (wall - self.checking).as_secs_f64(),
        }
    }
}

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics; `NaN` for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The smallest of `v`: the fastest of repeated identical work, which the
/// result line reports (see the crate's README, "Fastest, not median").
pub fn fastest(v: &[f64]) -> f64 {
    quantile(v, 0.0)
}

/// `SplitMix64`: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(fastest(&v), 1.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let u = Rng::new(1, 2).unit();
        assert!((-1.0..1.0).contains(&u));
    }
}
