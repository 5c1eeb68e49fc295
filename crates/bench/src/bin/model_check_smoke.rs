//! Coherence model-check smoke test (CI gate).
//!
//! Runs the exhaustive state-space explorer over the bounded
//! platform-derived configurations (3 devices × 2 handles, `PCIe` and
//! `NVLink` topologies) and enforces three things:
//!
//! 1. **Invariants** — the full `max_pending = 2` interleaving space
//!    explores completely with zero violations of the five M-series
//!    invariants;
//! 2. **No drift** — reached-state and transition counts match the pinned
//!    numbers below exactly: any protocol change that alters the explored
//!    space must update the pins consciously, in this file, under review;
//! 3. **The gate works** — every named mutation (deliberately injected
//!    protocol bug) is caught, as its expected M-code, with a minimized
//!    counterexample that replays, no longer than the known minimum.
//!
//! Exits non-zero on any failure. Usage:
//! `cargo run -p bench --bin model_check_smoke [--out DIR]`
//! With `--out`, writes `BENCH_model_check.json` into DIR (CI uploads it
//! as an artifact).

use bench::smoke::Smoke;
use hetero_model::explore::{explore, replay_violates, Bounds};
use hetero_model::model::Mutation;
use hetero_trace::json::Json;
use pdl_analyze::{bounded_configs, check_configs, model_check_json};
use std::process::ExitCode;

/// Pinned exploration sizes of the full `max_pending = 2` space, per
/// config. These counts are exact and deterministic; a mismatch means the
/// protocol's reachable state space changed and the pins need a reviewed
/// update.
const PINNED: [(&str, usize, usize); 2] = [
    ("xeon-2gpu-pcie", 393_129, 4_997_190),
    ("xeon-2gpu-nvlink", 487_204, 6_131_232),
];

/// Known-minimal counterexample lengths per mutation: transfer-side bugs
/// surface on the first acquire, write-side bugs need acquire + finish.
const MINIMAL_TRACE: [(Mutation, usize); 5] = [
    (Mutation::SkipWriteInvalidate, 2),
    (Mutation::DropWriteUpdate, 2),
    (Mutation::VanishOnWrite, 2),
    (Mutation::UnderCharge, 1),
    (Mutation::MoveNotCopy, 1),
];

fn main() -> ExitCode {
    let Some(mut smoke) = Smoke::from_args("model_check_smoke") else {
        return ExitCode::FAILURE;
    };

    let configs = bounded_configs();
    let start = std::time::Instant::now();

    // 1 + 2. Full exploration, invariants + pinned counts.
    let full = Bounds {
        max_pending: 2,
        max_states: 4_000_000,
    };
    let (report, outcomes) = check_configs(&configs, &full, Mutation::None);
    smoke.check(
        report.is_empty(),
        "faithful protocol explores with zero violations",
    );
    if !report.is_empty() {
        println!("{}", report.render());
    }
    for o in &outcomes {
        let ex = &o.exploration;
        smoke.check(
            ex.complete,
            &format!("{}: bounded space fully enumerated", o.config),
        );
        match PINNED.iter().find(|(name, _, _)| *name == o.config) {
            None => smoke.check(false, &format!("{}: config has a pin", o.config)),
            Some((_, states, transitions)) => smoke.check(
                ex.states == *states && ex.transitions == *transitions,
                &format!(
                    "{}: {} states / {} transitions match pins ({states} / {transitions})",
                    o.config, ex.states, ex.transitions
                ),
            ),
        }
    }

    // 3. Gate validation: every injected bug is caught, correctly coded,
    // with a minimal, replayable counterexample. pending = 1 suffices:
    // all five bugs surface in sequential traces.
    let quick = Bounds {
        max_pending: 1,
        max_states: 1 << 21,
    };
    for (mutation, min_len) in MINIMAL_TRACE {
        for config in &configs {
            let model = config.model.clone().with_mutation(mutation);
            let ex = explore(&model, &quick);
            let caught = ex.violation.as_ref().is_some_and(|v| {
                v.invariant.code() == mutation.expected_code().unwrap()
                    && v.trace.len() <= min_len
                    && replay_violates(&model, &quick, &v.trace, v.invariant).is_some()
            });
            smoke.check(
                caught,
                &format!(
                    "{}: {} caught as {} with ≤{min_len}-action replayable trace",
                    config.name,
                    mutation.name(),
                    mutation.expected_code().unwrap()
                ),
            );
        }
    }

    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "model_check_smoke: {} check groups, {:.1}s",
        2 + MINIMAL_TRACE.len() * configs.len(),
        elapsed
    );

    let mut json = model_check_json(&outcomes, elapsed);
    if let Json::Obj(members) = &mut json {
        members.push(("failures".into(), Json::Num(f64::from(smoke.failures()))));
        members.push((
            "pins".into(),
            Json::Arr(
                PINNED
                    .iter()
                    .map(|(name, states, transitions)| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(*name)),
                            ("states".into(), Json::Num(*states as f64)),
                            ("transitions".into(), Json::Num(*transitions as f64)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    smoke.write_artifacts(&[("BENCH_model_check.json", &json.to_pretty())]);
    smoke.finish()
}
