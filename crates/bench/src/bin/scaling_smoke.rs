//! Million-task scaling smoke test (CI gate).
//!
//! Pushes both execution engines through a ≥1M-task fork-join graph and
//! verifies the scaling machinery end to end, time-capped so a pathological
//! slowdown fails loudly instead of hanging CI:
//!
//! 1. **threaded engine, batched path** — the graph is compiled once
//!    ([`ThreadedExecutor::compile_graph`]) and executed with per-task
//!    stats off; the aggregate worker counters must account for every
//!    task, and the run must finish inside the wall-clock cap;
//! 2. **sim engine, virtual time** — the same graph runs through the
//!    event-driven [`simulate_dynamic`] on the paper's testbed (one
//!    calendar-queue completion event per task), must schedule every
//!    task, and must also fit the cap;
//! 3. **A-series cleanliness** — the simulated run is bridged to a
//!    [`hetero_trace::RunTrace`] and fed to the pdl-analyze anomaly
//!    detectors; a million-event trace must come back structurally valid
//!    and free of A-series findings.
//!
//! Exits non-zero on any failure. Usage:
//! `cargo run --release -p bench --bin scaling_smoke [--out DIR] [--tasks N] [--cap-secs S]`
//! With `--out`, writes `BENCH_scaling_smoke.json` into DIR (CI uploads it
//! as an artifact; it is intentionally not committed to `bench-results/`,
//! where the gated numbers come from the `engine_scaling`/`sim_scaling`
//! benches instead).

use bench::smoke::Smoke;
use hetero_rt::prelude::*;
use hetero_trace::json::Json;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut min_tasks: usize = 1_000_000;
    let mut cap_secs: f64 = 120.0;
    let parsed = Smoke::from_args_with(
        "scaling_smoke",
        " [--tasks N] [--cap-secs S]",
        |flag, args| {
            match flag {
                "--tasks" => {
                    min_tasks = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--tasks takes a task count");
                }
                "--cap-secs" => {
                    cap_secs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--cap-secs takes seconds");
                }
                _ => return false,
            }
            true
        },
    );
    let Some(mut smoke) = parsed else {
        return ExitCode::FAILURE;
    };

    // Size the fork-join shape to reach at least `min_tasks` total tasks
    // (width forks + 1 join per stage).
    let width = 64usize;
    let stages = min_tasks.div_ceil(width + 1);
    let graph = kernels::graphs::fork_join_graph(width, stages, None);
    let tasks = graph.len();
    println!(
        "scaling_smoke: fork-join {width}x{stages} = {tasks} tasks, cap {cap_secs}s per engine"
    );
    smoke.check(tasks >= min_tasks, "graph reaches the requested task count");

    // 1. Threaded engine, batched submission, per-task stats off.
    let pool = ThreadedExecutor::new(8).with_task_stats(false);
    let t0 = Instant::now();
    let compiled = pool.compile_graph(&graph).expect("graph compiles");
    let compile_wall = t0.elapsed();
    let t0 = Instant::now();
    let report = pool
        .run_compiled(&compiled, |i| {
            let seed = i as u64;
            Box::new(move || {
                black_box(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            })
        })
        .expect("batched run succeeds");
    let thread_wall = t0.elapsed();
    let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
    println!(
        "  threaded: compile {compile_wall:?}, run {thread_wall:?} ({:.2}M tasks/s)",
        executed as f64 / thread_wall.as_secs_f64() / 1e6
    );
    smoke.check(executed == tasks, "worker counters account for every task");
    smoke.check(
        thread_wall.as_secs_f64() < cap_secs,
        "threaded engine fits the time cap",
    );

    // 2. Sim engine, virtual time, dynamic scheduling.
    let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
    let machine = simhw::machine::SimMachine::from_platform(&platform);
    let options = SimOptions {
        flush_outputs: false,
        ..SimOptions::default()
    };
    let t0 = Instant::now();
    let sim = simulate_dynamic(&graph, &machine, &mut EagerScheduler, &options)
        .expect("million-task sim runs");
    let sim_wall = t0.elapsed();
    println!(
        "  sim: {sim_wall:?} ({:.2}M completion events/s, makespan {:.3}s virtual)",
        tasks as f64 / sim_wall.as_secs_f64() / 1e6,
        sim.makespan.seconds()
    );
    smoke.check(sim.assignments.len() == tasks, "sim schedules every task");
    smoke.check(
        sim_wall.as_secs_f64() < cap_secs,
        "sim engine fits the time cap",
    );

    // 3. A-series cleanliness of the million-event virtual-time trace.
    let trace = sim_report_to_trace(&sim, &machine);
    smoke.check(
        trace.validate().is_ok(),
        "bridged trace passes structural validation",
    );
    let anomalies = pdl_analyze::check_trace_anomalies(&trace);
    if !anomalies.is_empty() {
        println!("{}", anomalies.render());
    }
    smoke.check(
        anomalies.is_empty(),
        "million-event trace is A-series clean",
    );

    let doc = Json::obj([
        (
            "schema",
            Json::Num(hetero_trace::summary::SCHEMA_VERSION as f64),
        ),
        ("kind", Json::str("scaling-smoke")),
        ("tasks", Json::Num(tasks as f64)),
        ("cap_secs", Json::Num(cap_secs)),
        (
            "threaded",
            Json::obj([
                ("compile_ns", Json::Num(compile_wall.as_nanos() as f64)),
                ("run_ns", Json::Num(thread_wall.as_nanos() as f64)),
            ]),
        ),
        (
            "sim",
            Json::obj([
                ("run_ns", Json::Num(sim_wall.as_nanos() as f64)),
                ("makespan_s", Json::Num(sim.makespan.seconds())),
            ]),
        ),
        ("failures", Json::Num(f64::from(smoke.failures()))),
    ]);
    smoke.write_artifacts(&[("BENCH_scaling_smoke.json", &doc.to_pretty())]);
    smoke.finish()
}
