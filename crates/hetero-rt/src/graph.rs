//! Task graphs with implicit data-driven dependencies.
//!
//! Tasks are submitted in program order; the graph derives dependencies
//! from their data accesses exactly like `StarPU`'s sequential-consistency
//! mode: a task depends on the last writer of everything it reads (RAW) and
//! on all previous readers/writers of everything it writes (WAR/WAW).
//! "Explicit task outlining with parameter access-specifiers helps compilers
//! and runtime-systems to derive inter-task data-dependencies" (§IV-A).
//!
//! # Layout
//!
//! The graph is append-only and stored as struct-of-arrays, so building a
//! million-task graph costs a handful of amortized vector pushes per task
//! rather than several small heap objects:
//!
//! * **Dependencies** are one [`Csr`]: row `t` holds the tasks `t` waits
//!   for, sorted ascending and unique. Every edge points backwards in
//!   submission order, so submission order is a topological order and the
//!   graph is acyclic by construction.
//! * **Dependents** are the exact transpose of the dependency rows, built by
//!   one counting sort on first use ([`Csr::transpose`]) and discarded by the
//!   next `submit`. Executors share it without copying.
//! * **Accesses** are a second [`Csr`]; **labels** sit back to back in one
//!   string arena; **execution groups** are interned into a small table and
//!   tasks store the index. [`Task`] itself is a small `Copy` record.
//! * **Submission-time trackers** are indexed by the dense [`HandleId`]: the
//!   last writer of each handle, plus the readers since that write as a list
//!   threaded through one arena whose freed links are reused.

use crate::data::{DataRegistry, HandleId};
use crate::sim_engine::RtError;
use crate::task::{Codelet, DataAccess, Task, TaskId};
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};

/// Rows of `T` stored back to back (compressed sparse row): row `i` is
/// `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct Csr<T> {
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr {
            offsets: vec![0],
            items: Vec::new(),
        }
    }
}

impl<T: Copy> Csr<T> {
    /// An empty CSR with room for `rows` rows of `items` items in total.
    fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Csr {
            offsets,
            items: Vec::with_capacity(items),
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `i`.
    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Length of every row, in row order.
    pub(crate) fn row_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| w[1] - w[0])
    }

    /// Appends one row.
    fn push_row(&mut self, row: &[T]) {
        self.items.extend_from_slice(row);
        self.offsets.push(self.items.len());
    }
}

impl Csr<TaskId> {
    /// Appends `row` sorted ascending with duplicates removed; `row` is the
    /// caller's scratch buffer and is left holding the appended row.
    pub(crate) fn push_sorted_unique(&mut self, row: &mut Vec<TaskId>) {
        row.sort_unstable();
        row.dedup();
        self.push_row(row);
    }

    /// The transpose, by one counting sort: row `j` of the result lists
    /// every row `i` whose row contains `j`, ascending. Every item must be a
    /// valid row index.
    pub(crate) fn transpose(&self) -> Csr<TaskId> {
        let n = self.len();
        let mut offsets = vec![0usize; n + 1];
        for t in &self.items {
            offsets[t.0 + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Fill each output row at its start offset, advancing the offset as
        // a cursor; afterwards `offsets[j]` holds row j's end, so shifting
        // right by one restores the starts.
        let mut items = vec![TaskId(0); self.items.len()];
        for i in 0..n {
            for t in self.row(i) {
                items[offsets[t.0]] = TaskId(i);
                offsets[t.0] += 1;
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Csr { offsets, items }
    }
}

/// Strings stored back to back in one buffer: string `i` ends at `ends[i]`
/// and starts where string `i - 1` ends.
#[derive(Debug, Clone, Default)]
pub(crate) struct StrArena {
    text: String,
    ends: Vec<usize>,
}

impl StrArena {
    fn with_capacity(strings: usize) -> Self {
        StrArena {
            text: String::new(),
            ends: Vec::with_capacity(strings),
        }
    }

    pub(crate) fn push(&mut self, s: impl fmt::Display) {
        write!(self.text, "{s}").expect("formatting into a String never fails");
        self.ends.push(self.text.len());
    }

    /// Appends `s` without going through the formatter.
    pub(crate) fn push_str(&mut self, s: &str) {
        self.text.push_str(s);
        self.ends.push(self.text.len());
    }

    /// String `i`.
    pub(crate) fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }
}

/// Submission-time state of one data handle.
#[derive(Debug, Clone, Copy, Default)]
struct HandleState {
    last_writer: Option<TaskId>,
    /// Newest reader since the last write: head of a list in the reader
    /// arena.
    readers: Option<usize>,
}

/// One link of a handle's reader list.
#[derive(Debug, Clone, Copy)]
struct ReaderLink {
    task: TaskId,
    next: Option<usize>,
}

/// A complete submitted program: codelets, data and tasks with edges.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    /// Codelet table.
    pub codelets: Vec<Codelet>,
    /// Data registry (sizes + coherence state used at simulation time).
    pub data: DataRegistry,
    /// Tasks in submission order.
    pub tasks: Vec<Task>,
    /// Row `t` = tasks that must finish before `t` starts.
    dependencies: Csr<TaskId>,
    /// Transpose of `dependencies`, derived on first use.
    dependents: OnceLock<Arc<Csr<TaskId>>>,
    /// Row `t` = task `t`'s data accesses in parameter order.
    accesses: Csr<DataAccess>,
    labels: StrArena,
    /// Interned execution-group names; [`Task::group`] indexes this.
    groups: Vec<String>,
    /// Per-handle trackers, indexed by `HandleId`.
    handles: Vec<HandleState>,
    /// Arena of reader-list links; freed links are chained from
    /// `free_reader` and reused.
    readers: Vec<ReaderLink>,
    free_reader: Option<usize>,
    /// Dependency scratch reused by every `submit`.
    scratch: Vec<TaskId>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph pre-sized for `tasks` submissions: the per-task
    /// arrays are allocated once up front, so million-task submission loops
    /// never re-grow them.
    pub fn with_capacity(tasks: usize) -> Self {
        TaskGraph {
            tasks: Vec::with_capacity(tasks),
            dependencies: Csr::with_capacity(tasks, tasks),
            accesses: Csr::with_capacity(tasks, tasks),
            labels: StrArena::with_capacity(tasks),
            ..Self::default()
        }
    }

    /// Registers a codelet, returning its index for task submission.
    pub fn add_codelet(&mut self, codelet: Codelet) -> usize {
        self.codelets.push(codelet);
        self.codelets.len() - 1
    }

    /// Registers a datum.
    pub fn register_data(&mut self, label: impl Into<String>, size_bytes: f64) -> HandleId {
        self.data.register(label, size_bytes)
    }

    /// Submits a task; dependencies are derived from `accesses` against all
    /// previously submitted tasks.
    ///
    /// # Errors
    ///
    /// [`RtError::UnknownCodelet`] or [`RtError::UnknownHandle`] when
    /// `codelet` or an access names something this graph never registered;
    /// the graph is left unchanged.
    pub fn submit(
        &mut self,
        codelet: usize,
        label: impl fmt::Display,
        flops: f64,
        accesses: impl AsRef<[DataAccess]>,
        execution_group: Option<&str>,
    ) -> Result<TaskId, RtError> {
        self.submit_prioritized(codelet, label, flops, accesses, execution_group, 0)
    }

    /// [`submit`](Self::submit) with an explicit scheduling priority
    /// (higher = dispatched earlier by the online engine).
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_prioritized(
        &mut self,
        codelet: usize,
        label: impl fmt::Display,
        flops: f64,
        accesses: impl AsRef<[DataAccess]>,
        execution_group: Option<&str>,
        priority: i32,
    ) -> Result<TaskId, RtError> {
        let accesses = accesses.as_ref();
        if codelet >= self.codelets.len() {
            return Err(RtError::UnknownCodelet {
                codelet,
                codelets: self.codelets.len(),
            });
        }
        if let Some(a) = accesses.iter().find(|a| a.handle.0 >= self.data.len()) {
            return Err(RtError::UnknownHandle {
                handle: a.handle,
                handles: self.data.len(),
            });
        }
        if self.handles.len() < self.data.len() {
            self.handles.resize(self.data.len(), HandleState::default());
        }
        let id = TaskId(self.tasks.len());

        // Dependencies, against the trackers as they stood before this task.
        self.scratch.clear();
        for a in accesses {
            let state = self.handles[a.handle.0];
            if a.mode.reads() {
                // RAW: depend on the last writer.
                self.scratch.extend(state.last_writer);
            }
            if a.mode.writes() {
                // WAW: depend on the last writer; WAR: on readers since.
                self.scratch.extend(state.last_writer);
                let mut link = state.readers;
                while let Some(i) = link {
                    self.scratch.push(self.readers[i].task);
                    link = self.readers[i].next;
                }
            }
        }
        self.dependencies.push_sorted_unique(&mut self.scratch);

        // Update submission-time tracking.
        for a in accesses {
            let h = a.handle.0;
            if a.mode.writes() {
                self.release_readers(h);
                self.handles[h].last_writer = Some(id);
            } else if a.mode.reads() {
                self.push_reader(h, id);
            }
        }

        self.accesses.push_row(accesses);
        self.labels.push(label);
        let group = execution_group.map(|g| self.intern_group(g));
        self.tasks.push(Task {
            id,
            codelet,
            flops,
            group,
            priority,
        });
        self.dependents.take();
        Ok(id)
    }

    /// Prepends `task` to handle `h`'s reader list, reusing a freed link
    /// when one exists.
    fn push_reader(&mut self, h: usize, task: TaskId) {
        let link = ReaderLink {
            task,
            next: self.handles[h].readers,
        };
        let slot = match self.free_reader {
            Some(i) => {
                self.free_reader = self.readers[i].next;
                self.readers[i] = link;
                i
            }
            None => {
                self.readers.push(link);
                self.readers.len() - 1
            }
        };
        self.handles[h].readers = Some(slot);
    }

    /// Empties handle `h`'s reader list onto the free list.
    fn release_readers(&mut self, h: usize) {
        let Some(head) = self.handles[h].readers.take() else {
            return;
        };
        let mut tail = head;
        while let Some(next) = self.readers[tail].next {
            tail = next;
        }
        self.readers[tail].next = self.free_reader;
        self.free_reader = Some(head);
    }

    fn intern_group(&mut self, name: &str) -> usize {
        match self.groups.iter().position(|g| g == name) {
            Some(i) => i,
            None => {
                self.groups.push(name.to_owned());
                self.groups.len() - 1
            }
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Task `t`'s display label (`dgemm[2,3]`).
    pub fn label(&self, t: TaskId) -> &str {
        self.labels.get(t.0)
    }

    /// Task `t`'s data accesses, in parameter order.
    pub fn accesses(&self, t: TaskId) -> &[DataAccess] {
        self.accesses.row(t.0)
    }

    /// Task `t`'s device restriction: the logic group whose PUs may run it
    /// (the paper's *executiongroup*), if any.
    pub fn execution_group(&self, t: TaskId) -> Option<&str> {
        self.tasks[t.0].group.map(|g| self.groups[g].as_str())
    }

    /// The distinct execution-group names, in first-use order;
    /// [`Task::group`] indexes this table.
    pub fn groups(&self) -> &[String] {
        &self.groups
    }

    /// Tasks `t` must wait for, ascending and unique; all precede `t`.
    pub fn dependencies(&self, t: TaskId) -> &[TaskId] {
        self.dependencies.row(t.0)
    }

    /// Tasks waiting on `t`, ascending.
    pub fn dependents(&self, t: TaskId) -> &[TaskId] {
        self.dependents_csr().row(t.0)
    }

    /// The dependents of every task: the transpose of the dependency rows,
    /// derived once and shared until the next submission.
    pub(crate) fn dependents_csr(&self) -> &Arc<Csr<TaskId>> {
        self.dependents
            .get_or_init(|| Arc::new(self.dependencies.transpose()))
    }

    /// Number of dependencies of every task, in submission order.
    pub(crate) fn dependency_counts(&self) -> impl Iterator<Item = usize> + '_ {
        self.dependencies.row_lens()
    }

    /// All task labels.
    pub(crate) fn labels(&self) -> &StrArena {
        &self.labels
    }

    /// Tasks with no dependencies (sources).
    pub fn sources(&self) -> Vec<TaskId> {
        self.dependency_counts()
            .enumerate()
            .filter(|&(_, deps)| deps == 0)
            .map(|(t, _)| TaskId(t))
            .collect()
    }

    /// A topological order (submission order is always one, since edges only
    /// point backwards in submission time).
    pub fn topological_order(&self) -> Vec<TaskId> {
        (0..self.tasks.len()).map(TaskId).collect()
    }

    /// Total FLOPs over all tasks.
    pub fn total_flops(&self) -> f64 {
        self.tasks.iter().map(|t| t.flops).sum()
    }

    /// Critical-path FLOPs: the heaviest dependency chain. A lower bound on
    /// any schedule's compute span given infinite parallelism.
    pub fn critical_path_flops(&self) -> f64 {
        let mut best = vec![0.0f64; self.tasks.len()];
        for t in 0..self.tasks.len() {
            let deps_max = self
                .dependencies
                .row(t)
                .iter()
                .map(|d| best[d.0])
                .fold(0.0f64, f64::max);
            best[t] = deps_max + self.tasks[t].flops;
        }
        best.into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::AccessMode;
    use crate::task::Variant;

    fn graph_with_codelet() -> (TaskGraph, usize) {
        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
        (g, c)
    }

    fn acc(h: HandleId, mode: AccessMode) -> DataAccess {
        DataAccess { handle: h, mode }
    }

    #[test]
    fn raw_dependency() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        let t0 = g
            .submit(c, "w", 1.0, [acc(a, AccessMode::Write)], None)
            .unwrap();
        let t1 = g
            .submit(c, "r", 1.0, [acc(a, AccessMode::Read)], None)
            .unwrap();
        assert_eq!(g.dependencies(t1), &[t0]);
        assert_eq!(g.dependents(t0), &[t1]);
    }

    #[test]
    fn war_and_waw_dependencies() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        let w1 = g
            .submit(c, "w1", 1.0, [acc(a, AccessMode::Write)], None)
            .unwrap();
        let r1 = g
            .submit(c, "r1", 1.0, [acc(a, AccessMode::Read)], None)
            .unwrap();
        let r2 = g
            .submit(c, "r2", 1.0, [acc(a, AccessMode::Read)], None)
            .unwrap();
        let w2 = g
            .submit(c, "w2", 1.0, [acc(a, AccessMode::Write)], None)
            .unwrap();
        // w2 waits on the last writer (WAW) and all readers since (WAR).
        assert_eq!(g.dependencies(w2), &[w1, r1, r2]);
    }

    #[test]
    fn independent_reads_run_in_parallel() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        let r1 = g
            .submit(c, "r1", 1.0, [acc(a, AccessMode::Read)], None)
            .unwrap();
        let r2 = g
            .submit(c, "r2", 1.0, [acc(a, AccessMode::Read)], None)
            .unwrap();
        assert!(g.dependencies(r1).is_empty());
        assert!(g.dependencies(r2).is_empty());
        assert_eq!(g.sources(), vec![r1, r2]);
    }

    #[test]
    fn readwrite_chains_serialize() {
        let (mut g, c) = graph_with_codelet();
        let h = g.register_data("acc", 8.0);
        let rw = [acc(h, AccessMode::ReadWrite)];
        let t0 = g.submit(c, "t0", 1.0, rw, None).unwrap();
        let t1 = g.submit(c, "t1", 1.0, rw, None).unwrap();
        let t2 = g.submit(c, "t2", 1.0, rw, None).unwrap();
        assert_eq!(g.dependencies(t1), &[t0]);
        assert_eq!(g.dependencies(t2), &[t1]);
    }

    #[test]
    fn duplicate_deps_merged() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        let b = g.register_data("b", 8.0);
        let w = g
            .submit(
                c,
                "w",
                1.0,
                [acc(a, AccessMode::Write), acc(b, AccessMode::Write)],
                None,
            )
            .unwrap();
        let r = g
            .submit(
                c,
                "r",
                1.0,
                [acc(a, AccessMode::Read), acc(b, AccessMode::Read)],
                None,
            )
            .unwrap();
        assert_eq!(g.dependencies(r), &[w]); // one edge, not two
    }

    #[test]
    fn dgemm_tile_pattern() {
        // C[i][j] accumulated over k: tasks on the same C tile serialize,
        // different C tiles are independent.
        let (mut g, c) = graph_with_codelet();
        let c00 = g.register_data("C00", 8.0);
        let c01 = g.register_data("C01", 8.0);
        let a0 = g.register_data("A0", 8.0);
        let b0 = g.register_data("B0", 8.0);
        let reads = |h| acc(h, AccessMode::Read);
        let tile = |c_tile| [reads(a0), reads(b0), acc(c_tile, AccessMode::ReadWrite)];
        let t_00_k0 = g.submit(c, "c00k0", 1.0, tile(c00), None).unwrap();
        let t_00_k1 = g.submit(c, "c00k1", 1.0, tile(c00), None).unwrap();
        let t_01_k0 = g.submit(c, "c01k0", 1.0, tile(c01), None).unwrap();
        assert_eq!(g.dependencies(t_00_k1), &[t_00_k0]);
        assert!(g.dependencies(t_01_k0).is_empty());
    }

    #[test]
    fn critical_path_and_totals() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        let b = g.register_data("b", 8.0);
        // Chain on `a` of 3 × 10 flops; independent task on `b` of 5.
        for i in 0..3 {
            g.submit(
                c,
                format_args!("chain{i}"),
                10.0,
                [acc(a, AccessMode::ReadWrite)],
                None,
            )
            .unwrap();
        }
        g.submit(c, "solo", 5.0, [acc(b, AccessMode::Write)], None)
            .unwrap();
        assert_eq!(g.total_flops(), 35.0);
        assert_eq!(g.critical_path_flops(), 30.0);
    }

    #[test]
    fn bad_codelet_index_is_an_error() {
        let mut g = TaskGraph::new();
        let err = g.submit(0, "x", 1.0, [], None).unwrap_err();
        assert_eq!(
            err,
            RtError::UnknownCodelet {
                codelet: 0,
                codelets: 0
            }
        );
        assert!(g.is_empty());
    }

    #[test]
    fn unregistered_handle_is_an_error() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        let ghost = HandleId(a.0 + 1);
        let err = g
            .submit(
                c,
                "x",
                1.0,
                [acc(a, AccessMode::Read), acc(ghost, AccessMode::Write)],
                None,
            )
            .unwrap_err();
        assert_eq!(
            err,
            RtError::UnknownHandle {
                handle: ghost,
                handles: 1
            }
        );
        assert!(g.is_empty());
        // The rejected submission left no trace: the next task is t0 and
        // sees no writer of `a`.
        let t = g
            .submit(c, "w", 1.0, [acc(a, AccessMode::Write)], None)
            .unwrap();
        assert_eq!(t, TaskId(0));
        assert!(g.dependencies(t).is_empty());
    }

    #[test]
    fn labels_accesses_and_groups_are_per_task() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        let w = [acc(a, AccessMode::Write)];
        let t0 = g
            .submit(c, format!("t{}", 0), 1.0, w, Some("gpus"))
            .unwrap();
        let t1 = g.submit(c, "", 1.0, vec![], None).unwrap();
        let t2 = g.submit(c, "t2", 1.0, w, Some("gpus")).unwrap();
        assert_eq!([g.label(t0), g.label(t1), g.label(t2)], ["t0", "", "t2"]);
        assert_eq!(g.accesses(t0), &w);
        assert!(g.accesses(t1).is_empty());
        assert_eq!(g.execution_group(t0), Some("gpus"));
        assert_eq!(g.execution_group(t1), None);
        assert_eq!(g.groups(), ["gpus"]);
        assert_eq!(g.tasks[t2.0].group, Some(0));
    }

    #[test]
    fn dependents_follow_later_submissions() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        let t0 = g
            .submit(c, "w", 1.0, [acc(a, AccessMode::Write)], None)
            .unwrap();
        assert!(g.dependents(t0).is_empty());
        let t1 = g
            .submit(c, "r", 1.0, [acc(a, AccessMode::Read)], None)
            .unwrap();
        assert_eq!(g.dependents(t0), &[t1]);
    }

    #[test]
    fn freed_reader_links_are_reused() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        for _ in 0..100 {
            for _ in 0..4 {
                g.submit(c, "r", 1.0, [acc(a, AccessMode::Read)], None)
                    .unwrap();
            }
            g.submit(c, "w", 1.0, [acc(a, AccessMode::Write)], None)
                .unwrap();
        }
        assert_eq!(g.readers.len(), 4);
    }

    #[test]
    fn topological_order_is_submission_order() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        for i in 0..5 {
            g.submit(
                c,
                format_args!("t{i}"),
                1.0,
                [acc(a, AccessMode::ReadWrite)],
                None,
            )
            .unwrap();
        }
        let order = g.topological_order();
        for (pos, t) in order.iter().enumerate() {
            for d in g.dependencies(*t) {
                let dpos = order.iter().position(|x| x == d).unwrap();
                assert!(dpos < pos);
            }
        }
    }
}
