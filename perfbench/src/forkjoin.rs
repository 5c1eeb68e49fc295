//! `forkjoin_million`: a million-task fork-join graph built, compiled,
//! executed on two workers and dropped, every pass.
//!
//! Task bodies carry real data flow. Fork `(s, i)` writes its seeded value
//! plus the previous stage's join result into its partial slot; join `s`
//! sums its stage's partials. The final join value has a closed form that
//! only a dependency-respecting execution reproduces, so the check proves
//! order without recording every task.

use crate::harness::{Checks, PassTimer, Rng, Run};
use hetero_rt::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Forks per stage.
pub const WIDTH: usize = 64;
/// Stages: 15,385 × 65 = 1,000,025 tasks.
pub const STAGES: usize = 15_385;
/// Worker threads.
pub const WORKERS: usize = 2;

/// Seeded inputs and the expected result.
pub struct Inputs {
    /// Value of fork `(s, i)` at `s * WIDTH + i`.
    pub values: Arc<Vec<u64>>,
    /// The last join's value under a correct execution.
    pub expected: u64,
}

/// The last join value: `J_s = Σ_i (v[s][i] + J_{s-1})`, wrapping, `J_-1 = 0`.
pub fn closed_form(values: &[u64], width: usize) -> u64 {
    values.chunks(width).fold(0u64, |prev, stage| {
        stage
            .iter()
            .fold(0u64, |acc, &v| acc.wrapping_add(v.wrapping_add(prev)))
    })
}

/// Generates the seeded fork values.
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let values: Vec<u64> = (0..WIDTH * STAGES).map(|_| rng.next_u64() >> 8).collect();
    let expected = closed_form(&values, WIDTH);
    Inputs {
        values: Arc::new(values),
        expected,
    }
}

/// Checks one pass's outputs.
pub fn check(checks: &mut Checks, result: u64, expected: u64, executed: usize, tasks: usize) {
    checks.expect(result == expected, || {
        format!("fork-join checksum {result:#x} != closed form {expected:#x}")
    });
    checks.expect(executed == tasks, || {
        format!("executed {executed} of {tasks} tasks")
    });
}

/// Task body for graph index `t`: fork or join of stage `t / (WIDTH + 1)`.
fn body(t: usize, values: &Arc<Vec<u64>>, slots: &Arc<Vec<AtomicU64>>) -> Box<dyn FnOnce() + Send> {
    let (values, slots) = (Arc::clone(values), Arc::clone(slots));
    let (s, i) = (t / (WIDTH + 1), t % (WIDTH + 1));
    // Slot layout per stage: WIDTH partials, then the join. The executor's
    // dependency hand-off orders these accesses, so relaxed atomics carry
    // only the values themselves.
    Box::new(move || {
        let base = s * (WIDTH + 1);
        if i < WIDTH {
            let prev = if s == 0 {
                0
            } else {
                slots[base - 1].load(Ordering::Relaxed)
            };
            slots[base + i].store(values[s * WIDTH + i].wrapping_add(prev), Ordering::Relaxed);
        } else {
            let sum = slots[base..base + WIDTH]
                .iter()
                .fold(0u64, |acc, p| acc.wrapping_add(p.load(Ordering::Relaxed)));
            slots[base + WIDTH].store(sum, Ordering::Relaxed);
        }
    })
}

/// Runs the workload.
pub fn run(run: &mut Run) {
    // The seeded inputs and their closed form are the benchmark's own
    // work; the program's set-up is the executor.
    let inputs = inputs(run.opts.seed);
    let set_up = || ThreadedExecutor::new(WORKERS).with_task_stats(false);
    let pool = run.setup(set_up);
    let tasks_total = (WIDTH + 1) * STAGES;
    let (mut busy, mut steals, mut steal_ok, mut idle_s) = (vec![], vec![], vec![], vec![]);
    run.passes(set_up, |run, _| {
        let slots: Arc<Vec<AtomicU64>> =
            Arc::new((0..tasks_total).map(|_| AtomicU64::new(0)).collect());
        let sp = &mut run.spans;
        let mut timer = PassTimer::start(sp);
        let graph = sp.call("kernels.fork_join_graph", || {
            kernels::graphs::fork_join_graph(WIDTH, STAGES, None)
        });
        let compiled = sp.call("hetero-rt.compile_graph", || pool.compile_graph(&graph));
        let report = sp.call("hetero-rt.run_compiled", || {
            compiled
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|c| pool.run_compiled(c, |t| body(t, &inputs.values, &slots)))
        });
        let mut checks = Checks::default();
        timer.untimed(sp, || match &report {
            Ok(r) => {
                let executed = r.worker_stats.iter().map(|w| w.executed).sum();
                let result = slots[tasks_total - 1].load(Ordering::Relaxed);
                check(&mut checks, result, inputs.expected, executed, graph.len());
                busy.push(r.busy_fraction());
                let (ok, failed) = (r.total_steals() as f64, r.total_failed_steals() as f64);
                steals.push(ok);
                steal_ok.push(if ok + failed > 0.0 {
                    ok / (ok + failed)
                } else {
                    0.0
                });
                let capacity = r.wall * u32::try_from(r.workers).unwrap_or(u32::MAX);
                idle_s.push(capacity.saturating_sub(r.total_busy()).as_secs_f64());
            }
            Err(e) => checks.expect(false, || format!("fork-join run failed: {e}")),
        });
        sp.call("hetero-rt.drop", || drop((graph, compiled, report)));
        sp.call("bench.drop", || drop(slots));
        let ok = checks.passed();
        run.verdict(checks);
        timer.finish(&mut run.spans, if ok { tasks_total as u64 } else { 0 })
    });
    run.stat("hetero-rt.idle_s", "s", idle_s);
    run.layer_count("hetero-rt.busy_fraction", &busy, "frac");
    run.layer_count("hetero-rt.steals", &steals, "count");
    run.layer_count("hetero-rt.steal_success_frac", &steal_ok, "frac");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_a_sequential_replay() {
        let values: Vec<u64> = (0..12).map(|v| v * 1000 + 7).collect();
        let mut prev = 0u64;
        for stage in values.chunks(4) {
            prev = stage.iter().map(|v| v + prev).sum();
        }
        assert_eq!(closed_form(&values, 4), prev);
    }

    #[test]
    fn one_corrupted_output_is_caught() {
        let mut ok = Checks::default();
        check(&mut ok, 42, 42, 10, 10);
        assert!(ok.passed());
        let mut bad_sum = Checks::default();
        check(&mut bad_sum, 43, 42, 10, 10);
        assert_eq!(bad_sum.failures.len(), 1);
        let mut lost_task = Checks::default();
        check(&mut lost_task, 42, 42, 9, 10);
        assert_eq!(lost_task.failures.len(), 1);
    }

    #[test]
    fn a_small_graph_runs_to_the_closed_form() {
        let values = Arc::new((0..WIDTH as u64 * 3).collect::<Vec<_>>());
        let graph = kernels::graphs::fork_join_graph(WIDTH, 3, None);
        let slots: Arc<Vec<AtomicU64>> =
            Arc::new((0..graph.len()).map(|_| AtomicU64::new(0)).collect());
        let pool = ThreadedExecutor::new(WORKERS).with_task_stats(false);
        let compiled = pool.compile_graph(&graph).unwrap();
        pool.run_compiled(&compiled, |t| body(t, &values, &slots))
            .unwrap();
        assert_eq!(
            slots[graph.len() - 1].load(Ordering::Relaxed),
            closed_form(&values, WIDTH)
        );
    }
}
