//! Critical-path profiler smoke test (CI gate).
//!
//! Runs a dependency-rich fork-join workload on the traced work-stealing
//! engine, round-trips the trace (with its dependency edges) through the
//! `hetero-trace` codec, profiles the parsed copy, and checks the
//! profiler's contract end to end:
//!
//! 1. the critical-path steps tile `[start_ns, makespan_ns]` contiguously
//!    — no gaps, no overlaps;
//! 2. blame sums to **exactly** the critical-path length (every
//!    nanosecond attributed);
//! 3. the chain is non-empty and ends at the last task to finish;
//! 4. the folded flamegraph stacks cover every group that ran work.
//!
//! Exits non-zero on any failure. Usage:
//! `cargo run -p bench --bin profile_smoke [--out DIR]`
//! With `--out`, writes `profile_smoke.folded` (flamegraph input) and
//! `BENCH_profile_smoke.json` (the profile document) into DIR — CI
//! uploads both as artifacts.

use bench::smoke::Smoke;
use hetero_rt::thread_engine::{from_graph, ThreadTask, ThreadedExecutor};
use hetero_trace::{codec, profile, TraceSink};
use std::process::ExitCode;

/// Tasks per fork stage.
const WIDTH: usize = 16;
/// Fork-join rounds — enough for queue-wait and steal gaps to appear.
const STAGES: usize = 24;
/// Worker threads.
const WORKERS: usize = 4;

fn main() -> ExitCode {
    let Some(mut smoke) = Smoke::from_args("profile_smoke") else {
        return ExitCode::FAILURE;
    };

    let graph = kernels::graphs::fork_join_graph(WIDTH, STAGES, None);
    let tasks: Vec<ThreadTask> = from_graph(&graph, |t| {
        let seed = t.id.0 as u64;
        Box::new(move || {
            std::hint::black_box((0..2_000).fold(seed, |a, b| a.wrapping_mul(31).wrapping_add(b)));
        })
    });
    let n_tasks = tasks.len();
    // The dependency edges the profiler needs, in the codec's
    // `(from, to)` orientation: task `to` depends on task `from`.
    let deps: Vec<(u32, u32)> = tasks
        .iter()
        .enumerate()
        .flat_map(|(i, t)| t.deps.iter().map(move |&d| (d as u32, i as u32)))
        .collect();

    let report = ThreadedExecutor::new(WORKERS)
        .with_trace(TraceSink::ring())
        .run(tasks)
        .expect("workload runs");
    let trace = report.trace.as_ref().expect("ring sink collects a trace");

    println!(
        "profile_smoke: {} tasks, {} dep edges, {} workers",
        n_tasks,
        deps.len(),
        report.workers
    );

    // Codec round-trip: profile what a consumer would parse from disk.
    let exported = codec::export(trace, &deps);
    let (parsed, parsed_deps) = match codec::parse(&exported) {
        Ok(p) => p,
        Err(e) => return smoke.abort(&format!("trace codec round-trip: {e}")),
    };
    smoke.check(
        parsed_deps == deps,
        "dependency edges survive the codec round-trip",
    );

    let p = match profile::critical_path(&parsed, &parsed_deps) {
        Ok(p) => p,
        Err(e) => return smoke.abort(&format!("critical_path: {e}")),
    };
    println!(
        "  critical path {} ns over {} steps, makespan {} ns",
        p.critical_path_ns(),
        p.steps.len(),
        p.makespan_ns
    );

    // 1. Steps tile the chain contiguously.
    let tiles = !p.steps.is_empty()
        && p.steps.first().map(|s| s.start) == Some(p.start_ns)
        && p.steps.last().map(|s| s.end) == Some(p.makespan_ns)
        && p.steps.windows(2).all(|w| w[0].end == w[1].start);
    smoke.check(tiles, "steps tile [start_ns, makespan_ns] contiguously");

    // 2. Blame sums to exactly the critical-path length (and shares to 1).
    let blamed: u64 = p.blame.iter().map(|b| b.ns).sum();
    smoke.check(
        blamed == p.critical_path_ns(),
        "blame sums to 100% of the critical path",
    );
    let share_sum: f64 = p.blame.iter().map(|b| b.share).sum();
    smoke.check((share_sum - 1.0).abs() < 1e-9, "blame shares sum to 1.0");

    // 3. The chain is non-empty and ends at the last span to finish.
    let chain = p.chain_tasks();
    smoke.check(!chain.is_empty(), "chain has at least one task");
    smoke.check(
        p.steps
            .last()
            .map(|s| s.category.starts_with("compute/") || s.category.starts_with("transfer/"))
            .unwrap_or(false),
        "chain ends on the span that set the makespan",
    );
    // A fork-join graph's chain must cross several stages: at least one
    // compute step per join barrier is impossible to skip.
    smoke.check(chain.len() >= 2, "fork-join chain spans multiple tasks");

    // 4. Folded stacks cover every group that ran work.
    let folded = profile::folded_stacks(&parsed);
    smoke.check(!folded.is_empty(), "folded stacks are non-empty");
    let folded_total: u64 = folded
        .lines()
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|w| w.parse::<u64>().ok())
        .sum();
    let busy_total: u64 = parsed.task_spans().iter().map(|s| s.end - s.start).sum();
    smoke.check(
        folded_total == busy_total,
        "folded stack weights sum to total busy time",
    );

    let json = profile::to_json(&p).to_pretty();
    smoke.write_artifacts(&[
        ("profile_smoke.folded", &folded),
        ("BENCH_profile_smoke.json", &json),
    ]);
    smoke.finish()
}
