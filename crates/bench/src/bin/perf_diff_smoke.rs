//! Differential-profiling smoke test (CI gate).
//!
//! Exercises the `hetero_trace::diff` attribution engine end to end on two
//! trace pairs:
//!
//! 1. **Committed fixture pair** (`examples/traces/perf_diff_*.trace.json`):
//!    the head run carries an injected transfer-layer regression. The gate
//!    checks that the category deltas sum *exactly* to the wall-clock
//!    delta, that the top regression is blamed on the `PCIe` link, and that
//!    the anomaly detector flags the head run with `A004` (saturated link)
//!    on the same subject.
//! 2. **Live simulation pair**: the Fig. 5 testbed simulated with healthy
//!    (32 GB/s) vs degraded (2 GB/s) `PCIe` bandwidth, bridged to traces.
//!    The gate checks the diff stays sum-exact on machine-generated traces
//!    and that the slowdown shows up as a positive wall-clock delta.
//!
//! Exits non-zero on any failure. Usage:
//! `cargo run -p bench --bin perf_diff_smoke [--out DIR]`
//! With `--out`, writes `BENCH_perf_diff.json` (the `pdl-perf-diff/1`
//! document for the fixture pair) into DIR — CI uploads it as an artifact.

use bench::ablations::testbed_with_pcie;
use hetero_rt::prelude::*;
use hetero_trace::anomaly::{detect, AnomalyConfig};
use hetero_trace::{codec, diff};
use simhw::machine::SimMachine;
use std::process::ExitCode;

fn check(ok: bool, what: &str, failures: &mut u32) {
    if ok {
        println!("  ok   {what}");
    } else {
        println!("  FAIL {what}");
        *failures += 1;
    }
}

fn load_fixture(name: &str) -> Result<(hetero_trace::RunTrace, Vec<(u32, u32)>), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/traces")
        .join(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    codec::parse(&text).map_err(|e| format!("{name}: {e}"))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut out_dir: Option<std::path::PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_dir = args.next().map(Into::into),
            other => {
                eprintln!("unknown argument {other:?}; usage: perf_diff_smoke [--out DIR]");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut failures = 0u32;

    // 1. Fixture pair with an injected transfer regression.
    let ((base, base_deps), (head, head_deps)) = match (
        load_fixture("perf_diff_base.trace.json"),
        load_fixture("perf_diff_regressed.trace.json"),
    ) {
        (Ok(b), Ok(h)) => (b, h),
        (b, h) => {
            for r in [b.err(), h.err()].into_iter().flatten() {
                println!("  FAIL load fixture: {r}");
            }
            return ExitCode::FAILURE;
        }
    };
    let d = match diff::perf_diff(&base, &base_deps, &head, &head_deps) {
        Ok(d) => d,
        Err(e) => {
            println!("  FAIL perf_diff on fixture pair: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perf_diff_smoke: fixture pair wall {} -> {} ns (delta {:+} ns)",
        d.base_wall_ns,
        d.head_wall_ns,
        d.delta_ns()
    );
    check(
        d.delta_ns() > 0,
        "injected regression slows the head run",
        &mut failures,
    );
    let category_sum: i64 = d.categories.iter().map(diff::CategoryDelta::delta_ns).sum();
    check(
        category_sum == d.delta_ns(),
        "category deltas sum exactly to the wall-clock delta",
        &mut failures,
    );
    let top = d.top_regression();
    check(
        top.map(|c| c.category.as_str()) == Some("transfer/PCIe:host-gpu0"),
        "top regression is blamed on transfer/PCIe:host-gpu0",
        &mut failures,
    );
    let anomalies = detect(&head, &AnomalyConfig::default());
    check(
        anomalies
            .iter()
            .any(|a| a.code == "A004" && a.subject == "PCIe:host-gpu0"),
        "head run raises A004 (saturated link) on PCIe:host-gpu0",
        &mut failures,
    );
    let base_anomalies = detect(&base, &AnomalyConfig::default());
    check(
        base_anomalies.is_empty(),
        "base run is anomaly-free",
        &mut failures,
    );

    // 2. Live simulation pair: healthy vs degraded PCIe on the Fig. 5
    //    testbed. Sim traces renumber tasks, so the diff runs without
    //    dependency edges — sum-exactness must hold regardless.
    let sim_trace = |pcie_gbs: f64| {
        let machine = SimMachine::from_platform(&testbed_with_pcie(pcie_gbs));
        let mut graph = TaskGraph::new();
        let k = graph
            .add_codelet(Codelet::new("k").with_variant(Variant::new("gpu").requiring("Cuda")));
        let handle = graph.register_data("A", 600e6);
        graph
            .submit(
                k,
                "produce",
                1e10,
                vec![DataAccess {
                    handle,
                    mode: AccessMode::Write,
                }],
                None,
            )
            .expect("the codelet and handle are registered above");
        graph
            .submit(
                k,
                "consume",
                1e10,
                vec![DataAccess {
                    handle,
                    mode: AccessMode::Read,
                }],
                None,
            )
            .expect("the codelet and handle are registered above");
        let report = simulate(
            &graph,
            &machine,
            &mut RoundRobinScheduler::default(),
            &SimOptions {
                pipeline: TransferPipeline::full(),
                ..Default::default()
            },
        )
        .expect("testbed simulation runs");
        sim_report_to_trace(&report, &machine)
    };
    let healthy = sim_trace(32.0);
    let degraded = sim_trace(2.0);
    match diff::perf_diff(&healthy, &[], &degraded, &[]) {
        Ok(live) => {
            println!(
                "  live sim pair wall {} -> {} ns (delta {:+} ns)",
                live.base_wall_ns,
                live.head_wall_ns,
                live.delta_ns()
            );
            check(
                live.delta_ns() > 0,
                "degrading PCIe 32 -> 2 GB/s slows the simulated run",
                &mut failures,
            );
            let live_sum: i64 = live
                .categories
                .iter()
                .map(diff::CategoryDelta::delta_ns)
                .sum();
            check(
                live_sum == live.delta_ns(),
                "live-pair category deltas stay sum-exact",
                &mut failures,
            );
            if let Some(top) = live.top_regression() {
                println!(
                    "  live top regression: {} ({:+} ns)",
                    top.category,
                    top.delta_ns()
                );
            }
        }
        Err(e) => check(
            false,
            &format!("perf_diff on live sim pair ({e})"),
            &mut failures,
        ),
    }

    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            println!("  FAIL create {dir:?}: {e}");
            failures += 1;
        } else {
            let path = dir.join("BENCH_perf_diff.json");
            match std::fs::write(&path, d.to_json().to_pretty()) {
                Ok(()) => println!("  ok   wrote {}", path.display()),
                Err(e) => check(
                    false,
                    &format!("write BENCH_perf_diff.json ({e})"),
                    &mut failures,
                ),
            }
        }
    }

    if failures == 0 {
        println!("perf_diff_smoke: all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("perf_diff_smoke: {failures} check(s) FAILED");
        ExitCode::FAILURE
    }
}
