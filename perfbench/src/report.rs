//! Turns a finished [`Run`] into the run record and the result line.

use crate::harness::{fastest, median, quantile, Run, Stat};
use crate::spans::{self, Span};
use hetero_trace::json::Json;
use std::collections::BTreeMap;

/// Layers, named after the crates whose public calls the spans wrap;
/// `bench` is the benchmark's own glue between those calls.
pub const LAYERS: [&str; 10] = [
    "pdl-xml",
    "core",
    "pdl-registry",
    "cascabel",
    "simhw",
    "hetero-rt",
    "kernels",
    "hetero-trace",
    "pdl-analyze",
    "bench",
];

/// Per-layer counters every traced run reports (0 where the workload
/// bypasses the layer).
pub const LAYER_COUNTS: [(&str, &str); 8] = [
    ("hetero-rt.bytes_to_devices", "B"),
    ("hetero-rt.bytes_to_host", "B"),
    ("hetero-rt.bytes_peer", "B"),
    ("hetero-rt.busy_fraction", "frac"),
    ("hetero-rt.steals", "count"),
    ("hetero-rt.steal_success_frac", "frac"),
    ("hetero-trace.events_per_task", "1/task"),
    ("hetero-trace.overwritten", "count"),
];

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn summary(unit: &str, samples: &[f64]) -> Json {
    Json::obj([
        ("unit", Json::str(unit)),
        ("min", Json::Num(fastest(samples))),
        ("p25", Json::Num(quantile(samples, 0.25))),
        ("median", Json::Num(median(samples))),
        ("p75", Json::Num(quantile(samples, 0.75))),
        ("p90", Json::Num(quantile(samples, 0.9))),
        ("samples", Json::Num(samples.len() as f64)),
    ])
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Machine and build provenance.
fn provenance() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    // Only a git work tree rooted at the current directory names the
    // commit under test; an enclosing repository would name another one.
    let cwd = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top = command_line("git", &["rev-parse", "--show-toplevel"]);
    let commit = if cwd.is_some_and(|d| std::path::Path::new(&top).canonicalize().ok() == Some(d)) {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_string()
    };
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("git_commit", Json::str(commit)),
    ])
}

/// Time and allocation totals of the traced passes, per layer and per call.
struct Traced {
    /// Every recorder's spans, parents remapped into this list.
    spans: Vec<Span>,
    /// Benchmark-thread nanoseconds of the traced passes, checks excluded.
    busy_ns: u64,
    /// Operations completed in traced passes.
    ops: f64,
}

impl Traced {
    fn new(run: &Run) -> Self {
        let spans = spans::concat(
            std::iter::once(run.spans.spans.as_slice())
                .chain(run.thread_spans.iter().map(Vec::as_slice)),
        );
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns())
            .sum();
        let checks: u64 = spans
            .iter()
            .filter(|s| s.name == "bench.check")
            .map(|s| s.dur_ns())
            .sum();
        Traced {
            spans,
            busy_ns: roots - checks,
            ops: run.traced.iter().map(|p| p.ops as f64).sum(),
        }
    }

    /// (self ns, self allocs) of `layer`, checks excluded.
    fn layer(&self, layer: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.layer() == layer && s.name != "bench.check")
            .fold((0, 0), |(ns, a), s| (ns + s.self_ns(), a + s.self_allocs()))
    }

    /// Wall seconds and self allocations of every call, by span name.
    fn calls(&self) -> BTreeMap<&'static str, (Vec<f64>, u64)> {
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.layer() != "bench") {
            let e = by_name.entry(s.name).or_default();
            e.0.push(s.dur_ns() as f64 * 1e-9);
            e.1 += s.self_allocs();
        }
        by_name
    }
}

/// Renders (run record line, result line) for a finished run, and writes
/// the spans of a traced run.
pub fn render(workload: &str, run: &Run) -> (String, String) {
    let untraced_rates: Vec<f64> = run.untraced.iter().map(|p| p.rate()).collect();
    let untraced_secs: Vec<f64> = run.untraced.iter().map(|p| p.secs).collect();
    let rss = peak_rss_mb();
    let error_frac = run.failed as f64 / run.attempted.max(1) as f64;

    let mut stats: Vec<Stat> = vec![
        Stat {
            name: "setup_s".into(),
            unit: "s",
            samples: run.setup_s.clone(),
        },
        Stat {
            name: "tasks_per_s".into(),
            unit: "1/s",
            samples: untraced_rates.clone(),
        },
        Stat {
            name: "pass_s".into(),
            unit: "s",
            samples: untraced_secs.clone(),
        },
    ];
    stats.extend(run.stats.iter().cloned());
    stats.push(Stat {
        name: "peak_rss_mb".into(),
        unit: "MB",
        samples: vec![rss],
    });
    stats.push(Stat {
        name: "error_frac".into(),
        unit: "frac",
        samples: vec![error_frac],
    });

    let mut result_metrics: Vec<(String, Json)> = Vec::new();
    let mut traced_record: Vec<(String, Json)> = Vec::new();
    if run.opts.trace {
        let t = Traced::new(run);
        let traced_secs: Vec<f64> = run.traced.iter().map(|p| p.secs).collect();
        let overhead = fastest(&traced_secs) / fastest(&untraced_secs) - 1.0;
        for layer in LAYERS {
            let (ns, allocs) = t.layer(layer);
            let frac = ns as f64 / t.busy_ns.max(1) as f64;
            result_metrics.push((format!("{layer}.self_frac"), metric(frac, "frac")));
            let per_task = allocs as f64 / t.ops.max(1.0);
            result_metrics.push((
                format!("{layer}.allocs_per_task"),
                metric(per_task, "1/task"),
            ));
            traced_record.push((format!("{layer}.self_s"), Json::Num(ns as f64 * 1e-9)));
        }
        for (name, unit) in LAYER_COUNTS {
            let value = run
                .layer_counts
                .iter()
                .find(|c| c.0 == name)
                .map_or(0.0, |c| c.1);
            result_metrics.push((name.to_string(), metric(value, unit)));
        }
        result_metrics.push((
            "bench.tracing_overhead_frac".into(),
            metric(overhead, "frac"),
        ));
        for (name, (secs, allocs)) in t.calls() {
            traced_record.push((format!("{name}_s"), summary("s", &secs)));
            let per_task = allocs as f64 / t.ops.max(1.0);
            traced_record.push((format!("{name}_allocs_per_task"), Json::Num(per_task)));
        }
        traced_record.push(("traced_pass_s".into(), summary("s", &traced_secs)));
        traced_record.push(("untraced_pass_s".into(), summary("s", &untraced_secs)));
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{workload}-seed{}.jsonl",
            run.opts.seed
        ));
        let written = match spans::write_jsonl(&path, &t.spans) {
            Ok(()) => path.display().to_string(),
            Err(e) => format!("not written: {e}"),
        };
        traced_record.push(("spans_file".into(), Json::str(written)));
    } else {
        result_metrics = vec![
            ("setup_s".into(), metric(fastest(&run.setup_s), "s")),
            // The fastest pass's rate: the highest.
            (
                "best_tasks_per_s".into(),
                metric(quantile(&untraced_rates, 1.0), "1/s"),
            ),
            (
                "best_pass_ms".into(),
                metric(fastest(&untraced_secs) * 1e3, "ms"),
            ),
            ("peak_rss_mb".into(), metric(rss, "MB")),
        ];
    }

    let record = Json::obj([(
        "perfbench",
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(run.opts.seed as f64)),
            ("seed_used", Json::Bool(workload != "fig5_sim")),
            ("seconds", Json::Num(run.opts.seconds)),
            ("trace", Json::Bool(run.opts.trace)),
            ("provenance", provenance()),
            (
                "samples",
                Json::obj([
                    ("setup", Json::Num(run.setup_s.len() as f64)),
                    ("setup_reps_per_sample", Json::Num(run.setup_reps as f64)),
                    ("untraced_passes", Json::Num(run.untraced.len() as f64)),
                    ("traced_passes", Json::Num(run.traced.len() as f64)),
                ]),
            ),
            (
                "metrics",
                Json::Obj(
                    stats
                        .iter()
                        .map(|s| (s.name.clone(), summary(s.unit, &s.samples)))
                        .collect(),
                ),
            ),
            ("traced", Json::Obj(traced_record)),
            ("attempted", Json::Num(run.attempted as f64)),
            ("failed", Json::Num(run.failed as f64)),
            (
                "failures",
                Json::Arr(run.failures.iter().map(Json::str).collect()),
            ),
        ]),
    )]);
    let result = Json::obj([
        ("correct", Json::Bool(run.failed == 0 && run.attempted > 0)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("metrics", Json::Obj(result_metrics)),
    ]);
    (record.to_string(), result.to_string())
}
