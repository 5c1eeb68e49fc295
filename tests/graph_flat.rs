//! Differential tests of the flat task graph against the map-based
//! derivation it replaced.
//!
//! [`Oracle`] is the original submission-order dependency derivation kept
//! as a reference: ordered maps keyed by handle for the last writer and the
//! readers since it, and one vector per task for dependencies and
//! dependents. Random programs — up to 200 tasks over 1–8 handles, every
//! access mode, handles repeated inside one task, long runs of readers —
//! must give the same graph either way.

use hetero_rt::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The map-based derivation (`StarPU` sequential consistency: RAW on the
/// last writer, WAW on the last writer, WAR on every reader since it).
#[derive(Default)]
struct Oracle {
    dependencies: Vec<Vec<TaskId>>,
    dependents: Vec<Vec<TaskId>>,
    flops: Vec<f64>,
    last_writer: BTreeMap<HandleId, TaskId>,
    readers_since_write: BTreeMap<HandleId, Vec<TaskId>>,
}

impl Oracle {
    fn submit(&mut self, accesses: &[DataAccess], flops: f64) {
        let id = TaskId(self.dependencies.len());
        let mut deps = Vec::new();
        for a in accesses {
            if a.mode.reads() {
                deps.extend(self.last_writer.get(&a.handle).copied());
            }
            if a.mode.writes() {
                deps.extend(self.last_writer.get(&a.handle).copied());
                if let Some(readers) = self.readers_since_write.get(&a.handle) {
                    deps.extend(readers.iter().copied());
                }
            }
        }
        deps.sort_unstable();
        deps.dedup();
        for a in accesses {
            if a.mode.writes() {
                self.last_writer.insert(a.handle, id);
                self.readers_since_write.insert(a.handle, Vec::new());
            } else if a.mode.reads() {
                self.readers_since_write
                    .entry(a.handle)
                    .or_default()
                    .push(id);
            }
        }
        self.dependents.push(Vec::new());
        for &d in &deps {
            self.dependents[d.0].push(id);
        }
        self.dependencies.push(deps);
        self.flops.push(flops);
    }

    fn sources(&self) -> Vec<TaskId> {
        (0..self.dependencies.len())
            .filter(|&t| self.dependencies[t].is_empty())
            .map(TaskId)
            .collect()
    }

    fn critical_path_flops(&self) -> f64 {
        let mut best = vec![0.0f64; self.flops.len()];
        for t in 0..self.flops.len() {
            let deps_max = self.dependencies[t]
                .iter()
                .map(|d| best[d.0])
                .fold(0.0f64, f64::max);
            best[t] = deps_max + self.flops[t];
        }
        best.into_iter().fold(0.0, f64::max)
    }
}

/// One generated task: `(handle, mode)` draws, a group draw and a cost.
type TaskDraw = (Vec<(usize, u8)>, u8, u32);

/// Modes skewed 6:1:1 towards reads, so handles see long reader runs
/// between writes.
fn mode(draw: u8) -> AccessMode {
    match draw {
        0..=5 => AccessMode::Read,
        6 => AccessMode::Write,
        _ => AccessMode::ReadWrite,
    }
}

fn group(draw: u8) -> Option<&'static str> {
    match draw {
        0 => Some("cpus"),
        1 => Some("gpus"),
        _ => None,
    }
}

fn label(t: usize) -> String {
    // Empty and multi-byte labels exercise the arena's offsets.
    match t % 3 {
        0 => String::new(),
        1 => format!("τ{t}"),
        _ => format!("task[{t}]"),
    }
}

/// Builds the program both ways.
fn build(handles: usize, program: &[TaskDraw]) -> (TaskGraph, Oracle, Vec<Vec<DataAccess>>) {
    let mut g = TaskGraph::new();
    let c = g.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
    let hs: Vec<HandleId> = (0..handles)
        .map(|i| g.register_data(format!("h{i}"), 8.0))
        .collect();
    let mut oracle = Oracle::default();
    let mut all = Vec::new();
    for (t, (draws, group_draw, cost)) in program.iter().enumerate() {
        let accesses: Vec<DataAccess> = draws
            .iter()
            .map(|&(h, m)| DataAccess {
                handle: hs[h % handles],
                mode: mode(m),
            })
            .collect();
        let flops = f64::from(*cost);
        let id = g
            .submit(c, label(t), flops, &accesses, group(*group_draw))
            .unwrap();
        assert_eq!(id, TaskId(t));
        oracle.submit(&accesses, flops);
        all.push(accesses);
    }
    (g, oracle, all)
}

fn assert_matches(handles: usize, program: &[TaskDraw]) {
    let (g, oracle, accesses) = build(handles, program);
    assert_eq!(g.len(), program.len());
    for t in (0..g.len()).map(TaskId) {
        assert_eq!(g.dependencies(t), &oracle.dependencies[t.0][..], "{t}");
        assert_eq!(g.dependents(t), &oracle.dependents[t.0][..], "{t}");
        assert_eq!(g.label(t), label(t.0));
        assert_eq!(g.accesses(t), &accesses[t.0][..]);
        assert_eq!(g.execution_group(t), group(program[t.0].1));
        assert_eq!(g.tasks[t.0].id, t);
    }
    assert_eq!(g.sources(), oracle.sources());
    assert_eq!(
        g.critical_path_flops().to_bits(),
        oracle.critical_path_flops().to_bits()
    );
    let compiled = ThreadedExecutor::new(1).compile_graph(&g).unwrap();
    let counts: Vec<usize> = oracle.dependencies.iter().map(Vec::len).collect();
    assert_eq!(compiled.dependency_counts(), &counts[..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_graph_matches_the_map_oracle(
        handles in 1usize..=8,
        program in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..8, 0u8..8), 0..5),
                0u8..4,
                0u32..1000,
            ),
            0..201,
        ),
    ) {
        assert_matches(handles, &program);
    }
}

#[test]
fn long_reader_runs_and_repeated_handles_match_the_oracle() {
    // 150 readers of handle 0, one writer that also reads it, then a task
    // naming handle 0 in all three modes, then readers again.
    let mut program: Vec<TaskDraw> = vec![(vec![(0, 0)], 2, 1); 150];
    program.push((vec![(0, 0), (0, 6)], 2, 1));
    program.push((vec![(0, 7), (0, 0), (0, 6), (1, 0)], 0, 1));
    program.extend(vec![(vec![(0, 0), (0, 0)], 1, 1); 40]);
    program.push((vec![(0, 6)], 2, 1));
    assert_matches(2, &program);
    let (g, _, _) = build(2, &program);
    assert_eq!(g.dependencies(TaskId(150)).len(), 150);
    assert_eq!(g.dependents(TaskId(151)).len(), 41);
}
