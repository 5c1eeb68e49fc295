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
use bench::smoke::Smoke;
use hetero_rt::prelude::*;
use hetero_trace::anomaly::{detect, AnomalyConfig};
use hetero_trace::{codec, diff};
use simhw::machine::SimMachine;
use std::process::ExitCode;

fn load_fixture(name: &str) -> Result<(hetero_trace::RunTrace, Vec<(u32, u32)>), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/traces")
        .join(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    codec::parse(&text).map_err(|e| format!("{name}: {e}"))
}

fn main() -> ExitCode {
    let Some(mut smoke) = Smoke::from_args("perf_diff_smoke") else {
        return ExitCode::FAILURE;
    };

    // 1. Fixture pair with an injected transfer regression.
    let ((base, base_deps), (head, head_deps)) = match (
        load_fixture("perf_diff_base.trace.json"),
        load_fixture("perf_diff_regressed.trace.json"),
    ) {
        (Ok(b), Ok(h)) => (b, h),
        (b, h) => {
            for r in [b.err(), h.err()].into_iter().flatten() {
                smoke.check(false, &format!("load fixture: {r}"));
            }
            return smoke.finish();
        }
    };
    let d = match diff::perf_diff(&base, &base_deps, &head, &head_deps) {
        Ok(d) => d,
        Err(e) => return smoke.abort(&format!("perf_diff on fixture pair: {e}")),
    };
    println!(
        "perf_diff_smoke: fixture pair wall {} -> {} ns (delta {:+} ns)",
        d.base_wall_ns,
        d.head_wall_ns,
        d.delta_ns()
    );
    smoke.check(d.delta_ns() > 0, "injected regression slows the head run");
    let category_sum: i64 = d.categories.iter().map(diff::CategoryDelta::delta_ns).sum();
    smoke.check(
        category_sum == d.delta_ns(),
        "category deltas sum exactly to the wall-clock delta",
    );
    let top = d.top_regression();
    smoke.check(
        top.map(|c| c.category.as_str()) == Some("transfer/PCIe:host-gpu0"),
        "top regression is blamed on transfer/PCIe:host-gpu0",
    );
    let anomalies = detect(&head, &AnomalyConfig::default());
    smoke.check(
        anomalies
            .iter()
            .any(|a| a.code == "A004" && a.subject == "PCIe:host-gpu0"),
        "head run raises A004 (saturated link) on PCIe:host-gpu0",
    );
    let base_anomalies = detect(&base, &AnomalyConfig::default());
    smoke.check(base_anomalies.is_empty(), "base run is anomaly-free");

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
            smoke.check(
                live.delta_ns() > 0,
                "degrading PCIe 32 -> 2 GB/s slows the simulated run",
            );
            let live_sum: i64 = live
                .categories
                .iter()
                .map(diff::CategoryDelta::delta_ns)
                .sum();
            smoke.check(
                live_sum == live.delta_ns(),
                "live-pair category deltas stay sum-exact",
            );
            if let Some(top) = live.top_regression() {
                println!(
                    "  live top regression: {} ({:+} ns)",
                    top.category,
                    top.delta_ns()
                );
            }
        }
        Err(e) => smoke.check(false, &format!("perf_diff on live sim pair ({e})")),
    }

    smoke.write_artifacts(&[("BENCH_perf_diff.json", &d.to_json().to_pretty())]);
    smoke.finish()
}
