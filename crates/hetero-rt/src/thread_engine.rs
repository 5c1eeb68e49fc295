//! Real (non-simulated) task execution on a work-stealing thread pool.
//!
//! The simulated engine answers *how long would this run on that machine*;
//! this engine actually runs task closures, respecting the same dependency
//! semantics, so functional correctness of generated programs can be tested
//! end-to-end (the vecadd/DGEMM examples execute real kernels through it).
//!
//! # Execution model
//!
//! [`ThreadedExecutor`] is a **work-stealing** executor: every worker owns a
//! [`crossbeam::deque::Worker`] deque and pops it **LIFO** (a just-unblocked
//! dependent reuses the cache its parent warmed), while other workers steal
//! **FIFO** from the opposite end (the oldest task is the best candidate to
//! migrate — it has waited longest and tends to root the largest untouched
//! subtree). Dependency bookkeeping is lock-free: each task carries an
//! `AtomicUsize` of outstanding dependencies; the worker completing the last
//! one decrements it to zero and enqueues the dependent directly, so the
//! ready set never funnels through a shared queue.
//!
//! # Affinity
//!
//! Workers can be partitioned into **placement groups** — the thread-level
//! image of the PDL's logic groups (§III-B) that Cascabel's `execute`
//! annotations name as execution groups (§IV-A). A [`Placement`] is built
//! either by hand ([`Placement::with_group`]) or straight from a platform
//! description ([`Placement::from_logic_groups`], resolving `pdl-query`
//! group set-expressions). Tasks annotated with a group are seeded to and
//! woken on that group's workers; other groups steal them only when their
//! own group has run completely dry, so affinity is a strong preference,
//! never a deadlock risk.
//!
//! # One runtime form
//!
//! Every run executes a [`CompiledGraph`]: [`ThreadedExecutor::run`] lowers
//! its [`ThreadTask`]s into one, [`ThreadedExecutor::run_compiled`] takes
//! one from [`ThreadedExecutor::compile_graph`]. Both share one prologue,
//! epilogue and task-body call site. Dependencies must point to earlier
//! task indices, which makes every graph acyclic by construction.
//!
//! # Failure
//!
//! A task that panics fails the run: the first panic stops every worker
//! from claiming further tasks, the bodies that never ran are dropped and
//! the run returns [`ThreadEngineError::TaskPanicked`]. No dependent of the
//! panicked task runs, and the pool never hangs on it.
//!
//! # Baseline
//!
//! The seed single-queue engine is kept as [`SingleQueueExecutor`], the
//! baseline the `engine_scaling` bench measures against. It is not in the
//! crate prelude. It runs the same lowered [`CompiledGraph`] through the
//! same prologue and epilogue; only its worker loop, which feeds every
//! ready task through one shared channel, is its own.

use crate::graph::{Csr, StrArena, TaskGraph};
use crate::task::{Task, TaskId};
use crossbeam::channel;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use hetero_trace::telemetry::{self, AtomicHistogram, Counter, Gauge, LocalHistogram};
use hetero_trace::{
    EventKind, LaneLabel, Provenance, RunTrace, TaskInfo, TimeUnit, TraceClock, TraceMeta,
    TraceSink, WorkerTrace, WorkerTracer,
};
use parking_lot::Mutex;
use pdl_core::platform::Platform;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Duration as StdDuration;

/// One executable task.
pub struct ThreadTask {
    /// Display label.
    pub label: String,
    /// Indices of tasks that must complete first (all `<` this task's
    /// index).
    pub deps: Vec<usize>,
    /// Placement group this task prefers (a [`Placement`] group name);
    /// `None` runs anywhere. Ignored by executors built without a
    /// placement.
    pub group: Option<String>,
    /// The work itself.
    pub work: Box<dyn FnOnce() + Send>,
}

impl ThreadTask {
    /// A task with no dependencies.
    pub fn new(label: impl Into<String>, work: impl FnOnce() + Send + 'static) -> Self {
        ThreadTask {
            label: label.into(),
            deps: Vec::new(),
            group: None,
            work: Box::new(work),
        }
    }

    /// Adds dependencies, builder style.
    pub fn after(mut self, deps: impl IntoIterator<Item = usize>) -> Self {
        self.deps.extend(deps);
        self
    }

    /// Pins the task to a placement group, builder style.
    pub fn in_group(mut self, group: impl Into<String>) -> Self {
        self.group = Some(group.into());
        self
    }
}

/// Statistics of one executed task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskStats {
    /// The task's label.
    pub label: String,
    /// Worker thread (0-based) that ran it.
    pub worker: usize,
    /// Wall-clock execution time.
    pub duration: StdDuration,
}

/// Per-worker observability counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Placement-group index the worker belongs to.
    pub group: usize,
    /// Tasks this worker executed.
    pub executed: usize,
    /// Tasks obtained from anywhere other than the worker's own deque:
    /// group injectors, same-group siblings or cross-group sources.
    pub steals: usize,
    /// Steals from *outside* the worker's group (subset of `steals`);
    /// nonzero means some group ran dry and borrowed foreign work.
    pub cross_group_steals: usize,
    /// Full scans (own deque + injectors + every sibling) that found
    /// nothing and sent the worker to sleep.
    pub failed_steals: usize,
    /// Total wall-clock time spent inside task closures.
    pub busy: StdDuration,
}

/// Result of a pool run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Per-task stats. For [`ThreadedExecutor`] these are grouped by
    /// worker (each worker's slice in its own completion order — stats are
    /// collected worker-locally so the hot path shares no lock); for
    /// [`SingleQueueExecutor`] they are in global completion order.
    pub tasks: Vec<TaskStats>,
    /// End-to-end wall time.
    pub wall: StdDuration,
    /// Number of worker threads used.
    pub workers: usize,
    /// Per-worker counters (always `workers` entries).
    pub worker_stats: Vec<WorkerStats>,
    /// Placement-group names, indexed by [`WorkerStats::group`]. A single
    /// `"all"` pseudo-group when the executor ran without a placement.
    pub groups: Vec<String>,
    /// The drained event trace, when the executor was built with a
    /// recording [`TraceSink`]. Export with [`hetero_trace::chrome::export`]
    /// or [`hetero_trace::summary::export`].
    pub trace: Option<RunTrace>,
}

impl ExecReport {
    /// Total successful steals across workers.
    pub fn total_steals(&self) -> usize {
        self.worker_stats.iter().map(|w| w.steals).sum()
    }

    /// Total cross-group steals across workers.
    pub fn total_cross_group_steals(&self) -> usize {
        self.worker_stats.iter().map(|w| w.cross_group_steals).sum()
    }

    /// Total failed steal scans across workers.
    pub fn total_failed_steals(&self) -> usize {
        self.worker_stats.iter().map(|w| w.failed_steals).sum()
    }

    /// Total busy time across workers.
    pub fn total_busy(&self) -> StdDuration {
        self.worker_stats.iter().map(|w| w.busy).sum()
    }

    /// Fraction of the pool's total capacity (`wall × workers`) spent
    /// inside task closures. All durations share one monotonic clock
    /// origin, so this is exact, not a cross-origin estimate.
    pub fn busy_fraction(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers.max(1) as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.total_busy().as_secs_f64() / capacity).min(1.0)
        }
    }

    /// Busy time per placement group, indexed like [`ExecReport::groups`].
    pub fn busy_by_group(&self) -> Vec<StdDuration> {
        let mut busy = vec![StdDuration::ZERO; self.groups.len()];
        for w in &self.worker_stats {
            if let Some(slot) = busy.get_mut(w.group) {
                *slot += w.busy;
            }
        }
        busy
    }

    /// Per-group utilization: `(group name, busy / (wall × group
    /// workers))` — the thread-engine equivalent of the simulated engine's
    /// per-PU utilization, keyed by PDL logic group.
    pub fn utilization_by_group(&self) -> Vec<(String, f64)> {
        let wall = self.wall.as_secs_f64();
        let mut workers_per_group = vec![0usize; self.groups.len()];
        for w in &self.worker_stats {
            if let Some(slot) = workers_per_group.get_mut(w.group) {
                *slot += 1;
            }
        }
        self.groups
            .iter()
            .zip(self.busy_by_group())
            .zip(workers_per_group)
            .map(|((name, busy), workers)| {
                let capacity = wall * workers.max(1) as f64;
                let u = if capacity <= 0.0 {
                    0.0
                } else {
                    (busy.as_secs_f64() / capacity).min(1.0)
                };
                (name.clone(), u)
            })
            .collect()
    }
}

/// Errors the threaded executors report: a malformed task list, group
/// expression or placement, caught before anything runs, or a task that
/// panicked while running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadEngineError {
    /// A dependency index points at the task itself or a later task.
    ForwardDependency {
        /// The offending task index.
        task: usize,
        /// The bad dependency index.
        dep: usize,
    },
    /// A task names a placement group the executor's placement lacks.
    UnknownGroup {
        /// The offending task index.
        task: usize,
        /// The unknown group name.
        group: String,
    },
    /// A group set-expression failed to resolve against the platform.
    BadGroupExpr {
        /// The expression.
        expr: String,
        /// Resolver message.
        message: String,
    },
    /// A compiled graph was run on an executor whose placement differs
    /// from the one it was compiled against.
    PlacementMismatch {
        /// Group names the graph was compiled with.
        compiled: Vec<String>,
        /// Group names the executing pool defines.
        executor: Vec<String>,
    },
    /// A task's body panicked. The run stopped claiming tasks at the first
    /// panic; no dependent of the panicked task ran, and the bodies that
    /// never ran were dropped.
    TaskPanicked {
        /// The panicked task's index.
        task: usize,
        /// Its label.
        label: String,
        /// The panic message (`"non-string panic payload"` when the payload
        /// was neither a `&str` nor a `String`).
        message: String,
    },
}

impl std::fmt::Display for ThreadEngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadEngineError::ForwardDependency { task, dep } => write!(
                f,
                "task {task} depends on {dep}, but dependencies must reference earlier tasks"
            ),
            ThreadEngineError::UnknownGroup { task, group } => write!(
                f,
                "task {task} is pinned to group {group:?}, which the placement does not define"
            ),
            ThreadEngineError::BadGroupExpr { expr, message } => {
                write!(f, "cannot resolve group expression {expr:?}: {message}")
            }
            ThreadEngineError::PlacementMismatch { compiled, executor } => write!(
                f,
                "graph compiled for placement {compiled:?} cannot run on a pool with placement {executor:?}"
            ),
            ThreadEngineError::TaskPanicked {
                task,
                label,
                message,
            } => write!(f, "task {task} ({label:?}) panicked: {message}"),
        }
    }
}

impl std::error::Error for ThreadEngineError {}

/// One named worker subset of a [`Placement`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementGroup {
    /// Group name; tasks reference it via [`ThreadTask::in_group`].
    pub name: String,
    /// Number of worker threads dedicated to the group.
    pub workers: usize,
    /// PU ids backing each worker of the group, when the group was resolved
    /// from a platform description (`members[k]` labels worker `k` of the
    /// group in traces). Empty for hand-built groups.
    pub members: Vec<String>,
}

/// A partition of the thread pool into named worker groups — the engine's
/// image of PDL logic groups.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Placement {
    /// The groups, in worker-index order: group 0 owns workers
    /// `0..groups[0].workers`, group 1 the next range, and so on.
    pub groups: Vec<PlacementGroup>,
    /// Name of the platform descriptor the placement was resolved from
    /// (stamped into traces); `None` for hand-built placements.
    pub platform: Option<String>,
}

impl Placement {
    /// An empty placement.
    pub fn new() -> Self {
        Placement::default()
    }

    /// Adds a group with `workers` dedicated threads, builder style.
    pub fn with_group(mut self, name: impl Into<String>, workers: usize) -> Self {
        self.groups.push(PlacementGroup {
            name: name.into(),
            workers: workers.max(1),
            members: Vec::new(),
        });
        self
    }

    /// Builds a placement from PDL logic groups: each set-expression (plain
    /// group names, unions like `"gpus+cpus"`, pseudo-groups like
    /// `"@workers"` — the `pdl-query` group grammar) becomes one placement
    /// group with one worker per resolved processing unit.
    ///
    /// This is the `pdl-core → pdl-query → hetero-rt` wiring: logic-group
    /// attributes authored in a platform description flow directly into
    /// thread placement.
    pub fn from_logic_groups<S: AsRef<str>>(
        platform: &Platform,
        exprs: &[S],
    ) -> Result<Self, ThreadEngineError> {
        let mut placement = Placement::new();
        placement.platform = Some(platform.name.clone());
        for expr in exprs {
            let expr = expr.as_ref();
            let members = pdl_query::groups::resolve(platform, expr).map_err(|e| {
                ThreadEngineError::BadGroupExpr {
                    expr: expr.to_string(),
                    message: e.to_string(),
                }
            })?;
            let pu_ids: Vec<String> = members
                .iter()
                .map(|&idx| platform.pu(idx).id.as_str().to_string())
                .collect();
            placement.groups.push(PlacementGroup {
                name: expr.to_string(),
                workers: pu_ids.len().max(1),
                members: pu_ids,
            });
        }
        Ok(placement)
    }

    /// Total workers across all groups.
    pub fn total_workers(&self) -> usize {
        self.groups.iter().map(|g| g.workers).sum()
    }

    fn group_index(&self, name: &str) -> Option<usize> {
        self.groups.iter().position(|g| g.name == name)
    }
}

/// Builds [`ThreadTask`]s mirroring a [`TaskGraph`]'s dependency structure
/// and execution-group annotations; `work` supplies each task's closure.
///
/// This is the bridge from Cascabel-shaped graphs (whose tasks carry the
/// paper's execution groups) to real execution: submission order becomes
/// index order, graph edges become index dependencies, and each task's
/// `execution_group` becomes its placement group.
pub fn from_graph(
    graph: &TaskGraph,
    mut work: impl FnMut(&Task) -> Box<dyn FnOnce() + Send>,
) -> Vec<ThreadTask> {
    graph
        .tasks
        .iter()
        .map(|t| ThreadTask {
            label: graph.label(t.id).to_owned(),
            deps: graph.dependencies(t.id).iter().map(|d| d.0).collect(),
            group: graph.execution_group(t.id).map(str::to_owned),
            work: work(t),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The runtime form and the run path both executors share
// ---------------------------------------------------------------------------

/// A task body, claimable exactly once by whichever worker executes it.
type WorkSlot = Mutex<Option<Box<dyn FnOnce() + Send>>>;

/// A dependency graph in the form both executors run.
///
/// [`ThreadedExecutor::compile_graph`] builds one from a [`TaskGraph`] once
/// — the initial pending counts, the placement-resolved group of every
/// task and the seed list — and shares the graph's own dependents CSR, so
/// each [`ThreadedExecutor::run_compiled`] batch only instantiates fresh
/// atomic counters and work closures. This is the batched submission path:
/// for a graph executed many times (or a million-task graph where the
/// build cost is material), the per-run submit work drops to two
/// `memcpy`-shaped passes. Plain [`ThreadedExecutor::run`] and
/// [`SingleQueueExecutor::run`] lower their [`ThreadTask`]s into the same
/// form first.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    pending_init: Vec<usize>,
    dependents: Arc<Csr<TaskId>>,
    labels: StrArena,
    task_group: Vec<Option<usize>>,
    group_names: Vec<String>,
    /// Task indices with no dependencies, in submission order: the seed
    /// list.
    initially_ready: Vec<usize>,
}

impl CompiledGraph {
    fn new(
        pending_init: Vec<usize>,
        dependents: Arc<Csr<TaskId>>,
        labels: StrArena,
        task_group: Vec<Option<usize>>,
        group_names: Vec<String>,
    ) -> Self {
        let initially_ready = (0..pending_init.len())
            .filter(|&i| pending_init[i] == 0)
            .collect();
        CompiledGraph {
            pending_init,
            dependents,
            labels,
            task_group,
            group_names,
            initially_ready,
        }
    }

    /// Lowers [`ThreadTask`]s under `placement`: checks every dependency
    /// and group, then transposes the sorted, de-duplicated dependency rows
    /// as [`TaskGraph`] does. Returns the work slots and the label strings
    /// too; the report takes those over, as copying each label out of the
    /// arena measured ~15% of a 15.6k-task fork-join `run`.
    fn lower(
        tasks: Vec<ThreadTask>,
        placement: Option<&Placement>,
    ) -> Result<(Self, Vec<WorkSlot>, Vec<String>), ThreadEngineError> {
        let task_group = resolve_task_groups(placement, tasks.iter().map(|t| t.group.as_deref()))?;
        let mut dependencies = Csr::default();
        let mut arena = StrArena::default();
        let mut labels = Vec::with_capacity(tasks.len());
        let mut work = Vec::with_capacity(tasks.len());
        let mut scratch = Vec::new();
        for (i, t) in tasks.into_iter().enumerate() {
            if let Some(&dep) = t.deps.iter().find(|&&d| d >= i) {
                return Err(ThreadEngineError::ForwardDependency { task: i, dep });
            }
            scratch.clear();
            scratch.extend(t.deps.iter().map(|&d| TaskId(d)));
            dependencies.push_sorted_unique(&mut scratch);
            arena.push_str(&t.label);
            labels.push(t.label);
            work.push(Mutex::new(Some(t.work)));
        }
        let graph = CompiledGraph::new(
            dependencies.row_lens().collect(),
            Arc::new(dependencies.transpose()),
            arena,
            task_group,
            group_names(placement),
        );
        Ok((graph, work, labels))
    }

    /// Number of tasks in the compiled graph.
    pub fn len(&self) -> usize {
        self.pending_init.len()
    }

    /// Whether the compiled graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.pending_init.is_empty()
    }

    /// Dependency count of every task, by index: the pending counter each
    /// run starts from.
    pub fn dependency_counts(&self) -> &[usize] {
        &self.pending_init
    }
}

/// Group names under an optional placement (a single `"all"` pseudo-group
/// when there is none).
fn group_names(placement: Option<&Placement>) -> Vec<String> {
    match placement {
        None => vec!["all".to_string()],
        Some(p) => p.groups.iter().map(|g| g.name.clone()).collect(),
    }
}

/// Resolves each task's optional group name against the placement; without
/// one, every task runs anywhere.
fn resolve_task_groups<'g>(
    placement: Option<&Placement>,
    groups: impl Iterator<Item = Option<&'g str>>,
) -> Result<Vec<Option<usize>>, ThreadEngineError> {
    match placement {
        None => Ok(groups.map(|_| None).collect()),
        Some(p) => {
            groups
                .enumerate()
                .map(|(i, g)| match g {
                    None => Ok(None),
                    Some(name) => p.group_index(name).map(Some).ok_or_else(|| {
                        ThreadEngineError::UnknownGroup {
                            task: i,
                            group: name.to_string(),
                        }
                    }),
                })
                .collect()
        }
    }
}

/// Lane labels for `workers` threads under an optional placement: PU ids
/// where the placement knows them, `w<i>` otherwise, plus the logic-group
/// name of each worker's range.
fn lane_labels(workers: usize, placement: Option<&Placement>) -> Vec<LaneLabel> {
    match placement {
        None => (0..workers)
            .map(|w| LaneLabel {
                name: format!("w{w}"),
                group: None,
            })
            .collect(),
        Some(p) => {
            let mut lanes = Vec::with_capacity(workers);
            for g in &p.groups {
                for k in 0..g.workers {
                    lanes.push(LaneLabel {
                        name: g
                            .members
                            .get(k)
                            .cloned()
                            .unwrap_or_else(|| format!("w{}", lanes.len())),
                        group: Some(g.name.clone()),
                    });
                }
            }
            lanes.truncate(workers);
            while lanes.len() < workers {
                lanes.push(LaneLabel {
                    name: format!("w{}", lanes.len()),
                    group: None,
                });
            }
            lanes
        }
    }
}

/// Records phase `name` on the prelude lane around `f`.
fn phase<T>(
    prelude: &mut WorkerTracer,
    clock: &TraceClock,
    name: &str,
    f: impl FnOnce(&mut WorkerTracer) -> T,
) -> T {
    prelude.record(clock, EventKind::PhaseStart { name: name.into() });
    let out = f(prelude);
    prelude.record(clock, EventKind::PhaseEnd { name: name.into() });
    out
}

/// Starts a run: its one clock (every worker stamps events and measures
/// durations against the same monotonic origin) and the prelude lane, with
/// the `validate` phase (lowering or placement check, then instantiation)
/// open.
fn start_run(sink: &TraceSink) -> (TraceClock, WorkerTracer) {
    let clock = TraceClock::new();
    let mut prelude = sink.worker_tracer();
    prelude.record(
        &clock,
        EventKind::PhaseStart {
            name: "validate".into(),
        },
    );
    (clock, prelude)
}

/// One run's state over a [`CompiledGraph`]: fresh pending counters and
/// work slots plus the completion count every worker of either executor
/// shares.
struct RunState<'g> {
    graph: &'g CompiledGraph,
    clock: TraceClock,
    /// Submit latency: run start to the end of instantiation.
    submit_ns: u64,
    pending: Vec<AtomicUsize>,
    work: Vec<WorkSlot>,
    completed: AtomicUsize,
    /// Set by the first task body that panics: from then on no worker
    /// claims another task.
    abort: AtomicBool,
    /// The first panicking task and its panic message.
    panicked: Mutex<Option<(usize, String)>>,
}

impl RunState<'_> {
    /// Whether a task has panicked.
    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// Whether every task has completed or the run was aborted.
    fn done(&self) -> bool {
        self.aborted() || self.completed.load(Ordering::Acquire) >= self.graph.len()
    }

    /// Runs task `i`'s body, traced and timed on the run clock. A panic is
    /// caught here, the one place a body runs: it aborts the run, and
    /// `None` tells the caller to wake its sleeping workers and stop.
    fn run_body(&self, i: usize, tracer: &mut WorkerTracer) -> Option<StdDuration> {
        let job = self.work[i].lock().take().expect("task runs once");
        let t0 = self.clock.now();
        tracer.record_at(t0, EventKind::TaskStart { task: i as u32 });
        let result = std::panic::catch_unwind(AssertUnwindSafe(job));
        let t1 = self.clock.now();
        tracer.record_at(t1, EventKind::TaskEnd { task: i as u32 });
        if let Err(payload) = result {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            self.panicked.lock().get_or_insert((i, message));
            // Relaxed: the flag publishes no data (the panic record sits
            // behind its own lock), and a worker that reads it late only
            // claims one more task.
            self.abort.store(true, Ordering::Relaxed);
            return None;
        }
        Some(TraceClock::between(t0, t1))
    }

    /// Counts task `i` done: every dependent whose last dependency it was
    /// is traced and handed to `ready`. Returns whether `i` was the run's
    /// last task.
    fn complete(&self, i: usize, tracer: &mut WorkerTracer, mut ready: impl FnMut(usize)) -> bool {
        for &TaskId(dep) in self.graph.dependents.row(i) {
            if self.pending[dep].fetch_sub(1, Ordering::AcqRel) == 1 {
                tracer.record(&self.clock, EventKind::TaskReady { task: dep as u32 });
                ready(dep);
            }
        }
        self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.graph.len()
    }
}

/// What an execution core hands back to [`execute`].
struct CoreOutput {
    /// `(task, worker, duration)` rows; empty when task stats are off.
    records: Vec<(usize, usize, StdDuration)>,
    worker_stats: Vec<WorkerStats>,
    worker_traces: Vec<WorkerTrace>,
}

/// The run path both executors share: instantiates `graph` with fresh
/// counters and the slots `work` builds, hands it to the executor's `core`
/// (which seeds the ready tasks and drives the workers) and assembles the
/// report, with each executed task's label from `label`.
fn execute(
    (clock, mut prelude): (TraceClock, WorkerTracer),
    workers: usize,
    placement: Option<&Placement>,
    graph: &CompiledGraph,
    work: impl FnOnce() -> Vec<WorkSlot>,
    mut label: impl FnMut(usize) -> String,
    core: impl FnOnce(&RunState<'_>, &mut WorkerTracer) -> CoreOutput,
) -> Result<ExecReport, ThreadEngineError> {
    let n = graph.len();
    // PDL-labeled trace metadata, built only when events are kept.
    let meta = prelude.enabled().then(|| TraceMeta {
        platform: placement.and_then(|p| p.platform.clone()),
        lanes: lane_labels(workers, placement),
        tasks: (0..n)
            .map(|i| TaskInfo {
                label: graph.labels.get(i).to_owned(),
                category: "task".to_string(),
                group: graph.task_group[i].map(|g| graph.group_names[g].clone()),
            })
            .collect(),
        time_unit: TimeUnit::RealNanos,
    });
    let pending: Vec<AtomicUsize> = graph
        .pending_init
        .iter()
        .map(|&p| AtomicUsize::new(p))
        .collect();
    // The work slots are built after the counters: in the other order the
    // allocator's reuse of freed blocks measured ~8 MB (1.3%) more peak
    // RSS on the million-task fork-join.
    let work = work();
    prelude.record(
        &clock,
        EventKind::PhaseEnd {
            name: "validate".into(),
        },
    );
    let run = RunState {
        graph,
        clock,
        submit_ns: clock.now(),
        pending,
        work,
        completed: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
        panicked: Mutex::new(None),
    };
    if n == 0 {
        return Ok(ExecReport {
            tasks: Vec::new(),
            wall: StdDuration::from_nanos(clock.now()),
            workers,
            worker_stats: (0..workers)
                .map(|w| WorkerStats {
                    worker: w,
                    ..WorkerStats::default()
                })
                .collect(),
            groups: graph.group_names.clone(),
            trace: None,
        });
    }

    let out = core(&run, &mut prelude);
    let wall = StdDuration::from_nanos(clock.now());
    if let Some((task, message)) = run.panicked.into_inner() {
        // The bodies that never ran are dropped with `run`.
        return Err(ThreadEngineError::TaskPanicked {
            task,
            label: graph.labels.get(task).to_owned(),
            message,
        });
    }
    // Per-task stats are assembled outside the hot path: workers only
    // recorded (task index, worker, duration).
    let tasks = out
        .records
        .into_iter()
        .map(|(task, worker, duration)| TaskStats {
            label: label(task),
            worker,
            duration,
        })
        .collect();
    let trace = meta.map(|meta| RunTrace {
        meta,
        prelude: prelude
            .finish(workers)
            .map(|wt| wt.events)
            .unwrap_or_default(),
        workers: out.worker_traces,
    });
    Ok(ExecReport {
        tasks,
        wall,
        workers,
        worker_stats: out.worker_stats,
        groups: graph.group_names.clone(),
        trace,
    })
}

// ---------------------------------------------------------------------------
// Work-stealing executor
// ---------------------------------------------------------------------------

/// How long an idle worker sleeps between steal scans. Wake-ups are
/// event-driven (fork points and cross-group hand-offs notify sleepers), so
/// this is only the safety net bounding the cost of a missed notification
/// and the shutdown latency.
const PARK_TIMEOUT: StdDuration = StdDuration::from_millis(2);

/// A work-stealing, affinity-aware thread pool executing dependency graphs.
#[derive(Debug, Clone)]
pub struct ThreadedExecutor {
    workers: usize,
    placement: Option<Placement>,
    sink: TraceSink,
    telemetry: bool,
    task_stats: bool,
}

/// Always-on instrument handles for the executor, resolved once per run
/// from the process-wide [`telemetry::global`] registry and then used
/// lock-free by the workers.
#[derive(Debug)]
struct ExecutorTelemetry {
    tasks: Arc<Counter>,
    dequeues: Arc<Counter>,
    steals: Arc<Counter>,
    cross_group_steals: Arc<Counter>,
    failed_steals: Arc<Counter>,
    parks: Arc<Counter>,
    task_latency: Arc<AtomicHistogram>,
    /// Peak ready-queue depth any worker observed on its own deque
    /// (worker-local estimate; steals by siblings are reconciled at the
    /// next empty pop, so this is a high-water mark, not a live sample).
    queue_depth: Arc<Gauge>,
    /// Per-batch submit latency: one observation per `run`/`run_compiled`
    /// covering validation + runtime construction up to the first seed.
    submit_latency: Arc<AtomicHistogram>,
}

impl ExecutorTelemetry {
    fn handles() -> Self {
        let t = telemetry::global();
        ExecutorTelemetry {
            tasks: t.counter("executor_tasks_total"),
            dequeues: t.counter("executor_dequeues_total"),
            steals: t.counter("executor_steals_total"),
            cross_group_steals: t.counter("executor_cross_group_steals_total"),
            failed_steals: t.counter("executor_failed_steals_total"),
            parks: t.counter("executor_parks_total"),
            task_latency: t.histogram("executor_task_latency_ns"),
            queue_depth: t.gauge("executor_queue_depth_peak"),
            submit_latency: t.histogram("executor_submit_latency_ns"),
        }
    }
}

impl ThreadedExecutor {
    /// A pool with the given number of worker threads (min 1) and no
    /// placement groups: every task may run on every worker.
    pub fn new(workers: usize) -> Self {
        ThreadedExecutor {
            workers: workers.max(1),
            placement: None,
            sink: TraceSink::Null,
            telemetry: true,
            task_stats: true,
        }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(1);
        Self::new(n)
    }

    /// A pool partitioned according to `placement`: one dedicated worker
    /// range per group, `placement.total_workers()` threads overall.
    pub fn with_placement(placement: Placement) -> Self {
        let workers = placement.total_workers().max(1);
        ThreadedExecutor {
            workers,
            placement: (placement.total_workers() > 0).then_some(placement),
            sink: TraceSink::Null,
            telemetry: true,
            task_stats: true,
        }
    }

    /// Enables (or disables) event tracing, builder style. The default is
    /// [`TraceSink::Null`]: no events, no clock reads, no overhead. With a
    /// ring sink, [`ExecReport::trace`] carries the drained [`RunTrace`],
    /// every event labeled with the worker's PDL identity from the
    /// placement.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.sink = sink;
        self
    }

    /// Enables or disables always-on telemetry (default **on**). The
    /// instruments are sharded atomics fed from values the engine measures
    /// anyway (no extra clock reads, no locks on the hot path), so leaving
    /// this on costs a few relaxed atomic ops per task — the
    /// `telemetry_overhead` bench gates the delta. Off exists for that
    /// bench's baseline and for embedders that want a silent pool.
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Enables or disables per-task stats collection (default **on**).
    ///
    /// With stats off, [`ExecReport::tasks`] comes back empty and workers
    /// skip the per-task `(index, duration)` record — at a million tasks
    /// per run, that record (and the label clone it implies at assembly
    /// time) is the dominant fixed cost, so throughput benchmarks and
    /// embedders that only need the aggregate counters turn it off.
    /// Worker-level stats, traces and telemetry are unaffected.
    pub fn with_task_stats(mut self, enabled: bool) -> Self {
        self.task_stats = enabled;
        self
    }

    /// The configured placement, if any.
    pub fn placement(&self) -> Option<&Placement> {
        self.placement.as_ref()
    }

    /// Executes all tasks, returning per-task and per-worker stats: lowers
    /// them to a [`CompiledGraph`] and runs that.
    pub fn run(&self, tasks: Vec<ThreadTask>) -> Result<ExecReport, ThreadEngineError> {
        let start = start_run(&self.sink);
        let (graph, work, mut labels) = CompiledGraph::lower(tasks, self.placement.as_ref())?;
        execute(
            start,
            self.workers,
            self.placement.as_ref(),
            &graph,
            || work,
            |i| std::mem::take(&mut labels[i]),
            |run, prelude| self.run_inner(run, prelude),
        )
    }

    /// Compiles a [`TaskGraph`]'s structure for repeated execution with
    /// [`run_compiled`](Self::run_compiled): the dependents CSR, the
    /// initial pending counts, the placement-resolved group of every task
    /// and the initially-ready seed list are all built once here, so each
    /// subsequent run only instantiates fresh atomic counters and work
    /// closures.
    pub fn compile_graph(&self, graph: &TaskGraph) -> Result<CompiledGraph, ThreadEngineError> {
        let placement = self.placement.as_ref();
        let task_group = resolve_task_groups(
            placement,
            graph.tasks.iter().map(|t| graph.execution_group(t.id)),
        )?;
        Ok(CompiledGraph::new(
            graph.dependency_counts().collect(),
            Arc::clone(graph.dependents_csr()),
            graph.labels().clone(),
            task_group,
            group_names(placement),
        ))
    }

    /// Executes a graph compiled by [`compile_graph`](Self::compile_graph);
    /// `work` supplies each task's closure by task index.
    ///
    /// The executor must define the same placement groups the graph was
    /// compiled against (group indices are baked in at compile time);
    /// otherwise [`ThreadEngineError::PlacementMismatch`] is returned.
    pub fn run_compiled(
        &self,
        graph: &CompiledGraph,
        mut work: impl FnMut(usize) -> Box<dyn FnOnce() + Send>,
    ) -> Result<ExecReport, ThreadEngineError> {
        let start = start_run(&self.sink);
        let group_names = group_names(self.placement.as_ref());
        if group_names != graph.group_names {
            return Err(ThreadEngineError::PlacementMismatch {
                compiled: graph.group_names.clone(),
                executor: group_names,
            });
        }
        execute(
            start,
            self.workers,
            self.placement.as_ref(),
            graph,
            || {
                (0..graph.len())
                    .map(|i| Mutex::new(Some(work(i))))
                    .collect()
            },
            |i| graph.labels.get(i).to_owned(),
            |run, prelude| self.run_inner(run, prelude),
        )
    }

    /// The work-stealing execution core: seeds the graph's ready list,
    /// spawns the scoped worker pool, joins it and collects raw per-worker
    /// output.
    fn run_inner(&self, rt: &RunState<'_>, prelude: &mut WorkerTracer) -> CoreOutput {
        let clock = rt.clock;
        // Worker → group map: contiguous ranges in group order.
        let worker_group: Vec<usize> = match &self.placement {
            None => vec![0; self.workers],
            Some(p) => p
                .groups
                .iter()
                .enumerate()
                .flat_map(|(g, spec)| std::iter::repeat_n(g, spec.workers))
                .collect(),
        };
        let group_count = worker_group.iter().copied().max().unwrap_or(0) + 1;
        let mut group_workers: Vec<Vec<usize>> = vec![Vec::new(); group_count];
        for (w, &g) in worker_group.iter().enumerate() {
            group_workers[g].push(w);
        }

        // Deques, stealers, per-group injectors.
        let locals: Vec<Worker<usize>> = (0..self.workers).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<usize>> = locals
            .iter()
            .map(crossbeam::deque::Worker::stealer)
            .collect();
        let injectors: Vec<Injector<usize>> = (0..group_count).map(|_| Injector::new()).collect();

        // Seed initially-ready tasks round-robin across their group's
        // workers (or all workers when ungrouped), so there is no single
        // contended entry queue even at t=0.
        let mut rr = vec![0usize; group_count + 1];
        let mut seeded = vec![0usize; self.workers];
        phase(prelude, &clock, "seed", |prelude| {
            for &i in &rt.graph.initially_ready {
                prelude.record(&clock, EventKind::TaskReady { task: i as u32 });
                let w = match rt.graph.task_group[i] {
                    Some(g) => {
                        let targets = &group_workers[g];
                        let slot = rr[g];
                        rr[g] = (slot + 1) % targets.len();
                        targets[slot]
                    }
                    None => {
                        rr[group_count] = (rr[group_count] + 1) % self.workers;
                        rr[group_count]
                    }
                };
                locals[w].push(i);
                seeded[w] += 1;
            }
        });

        let scanned: Vec<AtomicBool> = (0..self.workers).map(|_| AtomicBool::new(false)).collect();
        let park = std::sync::Mutex::new(());
        let wake = Condvar::new();
        let tel = self.telemetry.then(ExecutorTelemetry::handles);
        if let Some(t) = &tel {
            t.submit_latency.observe(rt.submit_ns);
        }

        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(self.workers);
        let mut records: Vec<(usize, usize, StdDuration)> =
            Vec::with_capacity(if self.task_stats { rt.graph.len() } else { 0 });
        let mut worker_traces: Vec<WorkerTrace> = Vec::new();
        phase(prelude, &clock, "execute", |_| {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(self.workers);
                for (me, local) in locals.into_iter().enumerate() {
                    let ctx = WorkerCtx {
                        me,
                        my_group: worker_group[me],
                        local,
                        stealers: &stealers,
                        injectors: &injectors,
                        group_workers: &group_workers,
                        worker_group: &worker_group,
                        rt,
                        scanned: &scanned,
                        park: &park,
                        wake: &wake,
                        tracer: self.sink.worker_tracer(),
                        tel: tel.as_ref(),
                        collect: self.task_stats,
                        seeded: seeded[me],
                    };
                    handles.push(scope.spawn(move || ctx.run()));
                }
                for h in handles {
                    let (ws, recs, wt) = h.join().expect("worker panicked");
                    let worker = ws.worker;
                    worker_stats.push(ws);
                    records.extend(recs.into_iter().map(|(task, dt)| (task, worker, dt)));
                    worker_traces.extend(wt);
                }
            });
        });
        CoreOutput {
            records,
            worker_stats,
            worker_traces,
        }
    }
}

/// Everything one worker thread needs, borrowed from the run invocation.
struct WorkerCtx<'a> {
    me: usize,
    my_group: usize,
    local: Worker<usize>,
    stealers: &'a [Stealer<usize>],
    injectors: &'a [Injector<usize>],
    group_workers: &'a [Vec<usize>],
    worker_group: &'a [usize],
    rt: &'a RunState<'a>,
    /// Per worker: whether it has made its first claim. Other groups do
    /// not steal from a worker's deque before that, so a task seeded to
    /// its group is not taken away merely because its owner's thread
    /// started late; the owner's first claim always pops its own deque.
    scanned: &'a [AtomicBool],
    park: &'a std::sync::Mutex<()>,
    wake: &'a Condvar,
    tracer: WorkerTracer,
    tel: Option<&'a ExecutorTelemetry>,
    /// Whether to record per-task `(index, duration)` rows for
    /// `ExecReport::tasks` (off for large batched runs).
    collect: bool,
    /// Tasks seeded into this worker's deque before it started: the
    /// initial value of the local queue-depth estimate.
    seeded: usize,
}

/// Worker-local accumulation that the hot loop writes without touching any
/// shared atomics; flushed once at join time.
struct HotState {
    /// `(task, duration)` rows, only filled when stats collection is on.
    records: Vec<(usize, StdDuration)>,
    /// Task latencies pre-aggregated locally when stats collection is off
    /// (otherwise derived from `records` at flush).
    latencies: LocalHistogram,
    /// Estimate of this worker's own deque depth: seeded count, +1 per
    /// local push, -1 per local pop, reset on steal/inject (the deque was
    /// observed empty). Never reads the deque, so it costs nothing.
    depth: usize,
    depth_peak: usize,
}

/// Where a claimed task came from, for the steal counters and the trace's
/// steal-provenance events.
enum Source {
    Local,
    /// Popped from a group injector (affinity hand-off or seed surplus).
    Inject {
        cross: bool,
    },
    /// Stolen from another worker's deque.
    Steal {
        victim: usize,
        cross: bool,
    },
}

impl Source {
    fn provenance(&self) -> Provenance {
        match *self {
            Source::Local => Provenance::Local,
            Source::Inject { cross } => Provenance::Inject { cross_group: cross },
            Source::Steal { victim, cross } => Provenance::Steal {
                victim: victim as u32,
                cross_group: cross,
            },
        }
    }
}

impl WorkerCtx<'_> {
    fn run(mut self) -> (WorkerStats, Vec<(usize, StdDuration)>, Option<WorkerTrace>) {
        let mut out = WorkerStats {
            worker: self.me,
            group: self.my_group,
            ..WorkerStats::default()
        };
        let mut hot = HotState {
            records: Vec::new(),
            latencies: LocalHistogram::new(),
            depth: self.seeded,
            depth_peak: self.seeded,
        };
        let mut parks = 0u64;
        let mut tracer = std::mem::replace(&mut self.tracer, WorkerTracer::Null);
        loop {
            if self.rt.done() {
                break;
            }
            let claim = self.find_task();
            if !self.scanned[self.me].load(Ordering::Relaxed) {
                // Release pairs with the thieves' Acquire load: a thief that
                // sees the flag sees this first claim's pop as well.
                self.scanned[self.me].store(true, Ordering::Release);
            }
            match claim {
                Some((task, source)) => {
                    match source {
                        Source::Local => hot.depth = hot.depth.saturating_sub(1),
                        Source::Inject { cross } | Source::Steal { cross, .. } => {
                            // A steal/inject means our own deque was dry.
                            hot.depth = 0;
                            out.steals += 1;
                            if cross {
                                out.cross_group_steals += 1;
                            }
                        }
                    }
                    // Continuation chaining: when a completed task readies
                    // exactly one same-group dependent, run it directly —
                    // no deque round-trip, no wake.
                    let mut provenance = source.provenance();
                    let mut current = task;
                    loop {
                        tracer.record(
                            &self.rt.clock,
                            EventKind::TaskDequeued {
                                task: current as u32,
                                provenance,
                            },
                        );
                        let Some((dt, next)) = self.execute(current, &mut hot, &mut tracer) else {
                            break;
                        };
                        out.busy += dt;
                        out.executed += 1;
                        match next {
                            Some(nxt) if !self.rt.aborted() => {
                                current = nxt;
                                provenance = Provenance::Local;
                            }
                            _ => break,
                        }
                    }
                }
                None => {
                    out.failed_steals += 1;
                    let guard = self
                        .park
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if self.rt.done() {
                        break;
                    }
                    // Timed wait: a missed notification costs at most
                    // PARK_TIMEOUT, so no wake-up protocol bug can hang the
                    // pool.
                    tracer.record(&self.rt.clock, EventKind::Park);
                    parks += 1;
                    let _ = self
                        .wake
                        .wait_timeout(guard, PARK_TIMEOUT)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    tracer.record(&self.rt.clock, EventKind::Unpark);
                }
            }
        }
        // Telemetry flush: one batched add per counter per worker, and
        // the per-task latencies (already recorded for the worker's own
        // stats) pre-aggregated locally and merged with one atomic add
        // per bucket — the hot loop does **no** telemetry work at all,
        // and the flush itself cannot contend across workers.
        if let Some(t) = self.tel {
            t.tasks.add(out.executed as u64);
            t.dequeues.add(out.executed as u64);
            t.steals.add(out.steals as u64);
            t.cross_group_steals.add(out.cross_group_steals as u64);
            t.failed_steals.add(out.failed_steals as u64);
            t.parks.add(parks);
            if self.collect {
                let mut latencies = LocalHistogram::new();
                for &(_, dt) in &hot.records {
                    latencies.observe(dt.as_nanos() as u64);
                }
                t.task_latency.merge(&latencies);
            } else {
                t.task_latency.merge(&hot.latencies);
            }
            t.queue_depth.raise(hot.depth_peak as u64);
        }
        let trace = tracer.finish(self.me);
        (out, hot.records, trace)
    }

    /// Claims one ready task: own deque, then own group's injector and
    /// siblings, then — only when the whole group is dry — other groups.
    fn find_task(&self) -> Option<(usize, Source)> {
        if let Some(i) = self.local.pop() {
            return Some((i, Source::Local));
        }
        if let Some(i) = steal_one(&self.injectors[self.my_group]) {
            return Some((i, Source::Inject { cross: false }));
        }
        for &w in &self.group_workers[self.my_group] {
            if w == self.me {
                continue;
            }
            if let Some(i) = steal_from(&self.stealers[w]) {
                return Some((
                    i,
                    Source::Steal {
                        victim: w,
                        cross: false,
                    },
                ));
            }
        }
        // Group dry: scan foreign injectors, then foreign workers.
        for (g, injector) in self.injectors.iter().enumerate() {
            if g == self.my_group {
                continue;
            }
            if let Some(i) = steal_one(injector) {
                return Some((i, Source::Inject { cross: true }));
            }
        }
        for (w, stealer) in self.stealers.iter().enumerate() {
            if self.worker_group[w] == self.my_group || !self.scanned[w].load(Ordering::Acquire) {
                continue;
            }
            if let Some(i) = steal_from(stealer) {
                return Some((
                    i,
                    Source::Steal {
                        victim: w,
                        cross: true,
                    },
                ));
            }
        }
        None
    }

    /// Runs the task, records stats worker-locally, publishes newly-ready
    /// dependents. Returns the task's duration and, when one of the ready
    /// dependents belongs to this worker's group, that dependent as a
    /// continuation to run directly — skipping the deque entirely. `None`
    /// when the task panicked.
    fn execute(
        &self,
        i: usize,
        hot: &mut HotState,
        tracer: &mut WorkerTracer,
    ) -> Option<(StdDuration, Option<usize>)> {
        // Both the stat duration and the trace span come from the run's
        // shared clock, so per-worker busy time and the exported spans are
        // the same numbers.
        let Some(dt) = self.rt.run_body(i, tracer) else {
            self.wake.notify_all();
            return None;
        };
        if self.collect {
            hot.records.push((i, dt));
        } else if self.tel.is_some() {
            hot.latencies.observe(dt.as_nanos() as u64);
        }
        // Fused wakeups: the first runnable-here dependent becomes the
        // continuation, the rest go to the deque in one pass, and at most
        // one notify covers all cross-group hand-offs.
        let mut next: Option<usize> = None;
        let mut woke_other_group = false;
        let me_last = self.rt.complete(i, tracer, |dep| {
            match self.rt.graph.task_group[dep] {
                Some(g) if g != self.my_group => {
                    // Affinity routing: deliver to the task's group.
                    self.injectors[g].push(dep);
                    woke_other_group = true;
                }
                _ => {
                    if next.is_none() {
                        next = Some(dep);
                    } else {
                        self.local.push(dep);
                        hot.depth += 1;
                        hot.depth_peak = hot.depth_peak.max(hot.depth);
                    }
                }
            }
        });
        if me_last || woke_other_group {
            // Cross-group hand-offs are latency-sensitive (the target
            // group may be entirely asleep), so they get an eager wake.
            // Same-group surplus is left to the timed steal scans: waking
            // a sleeper per fork point costs a context switch per wake and
            // the sleepers re-scan within PARK_TIMEOUT anyway.
            self.wake.notify_all();
        }
        Some((dt, next))
    }
}

fn steal_one(injector: &Injector<usize>) -> Option<usize> {
    loop {
        match injector.steal() {
            Steal::Success(i) => return Some(i),
            Steal::Empty => return None,
            Steal::Retry => continue,
        }
    }
}

fn steal_from(stealer: &Stealer<usize>) -> Option<usize> {
    // Bounded retries: under contention the item will be found by a later
    // scan; spinning here would fight the owner for its own lock.
    for _ in 0..2 {
        match stealer.steal() {
            Steal::Success(i) => return Some(i),
            Steal::Empty => return None,
            Steal::Retry => continue,
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Seed single-queue executor (baseline)
// ---------------------------------------------------------------------------

/// The seed engine: a fixed-size pool where every ready task flows through
/// one shared MPMC channel. Kept as the measured baseline for the
/// work-stealing engine (`cargo bench --bench engine_scaling`); placement
/// groups are ignored. It lowers and reports exactly like
/// [`ThreadedExecutor::run`]; only its channel worker loop is its own.
#[derive(Debug, Clone)]
pub struct SingleQueueExecutor {
    workers: usize,
    sink: TraceSink,
}

impl SingleQueueExecutor {
    /// A pool with the given number of worker threads (min 1).
    pub fn new(workers: usize) -> Self {
        SingleQueueExecutor {
            workers: workers.max(1),
            sink: TraceSink::Null,
        }
    }

    /// Enables (or disables) event tracing for subsequent runs.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.sink = sink;
        self
    }

    /// Executes all tasks, returning per-task stats.
    pub fn run(&self, tasks: Vec<ThreadTask>) -> Result<ExecReport, ThreadEngineError> {
        let start = start_run(&self.sink);
        let (graph, work, mut labels) = CompiledGraph::lower(tasks, None)?;
        execute(
            start,
            self.workers,
            None,
            &graph,
            || work,
            |i| std::mem::take(&mut labels[i]),
            |run, prelude| self.channel_loop(run, prelude),
        )
    }

    /// The single-queue execution core.
    fn channel_loop(&self, rt: &RunState<'_>, prelude: &mut WorkerTracer) -> CoreOutput {
        // Queue protocol: task indices flow through the channel; SHUTDOWN
        // sentinels release blocked workers once all tasks completed (the
        // channel can never close on its own, since every blocked worker
        // holds a sender clone).
        const SHUTDOWN: usize = usize::MAX;
        let clock = rt.clock;
        let (tx, rx) = channel::unbounded::<usize>();
        phase(prelude, &clock, "seed", |prelude| {
            for &i in &rt.graph.initially_ready {
                prelude.record(&clock, EventKind::TaskReady { task: i as u32 });
                tx.send(i).expect("queue open");
            }
        });

        let records = Mutex::new(Vec::with_capacity(rt.graph.len()));
        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(self.workers);
        let mut worker_traces: Vec<WorkerTrace> = Vec::new();
        phase(prelude, &clock, "execute", |_| {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(self.workers);
                for worker in 0..self.workers {
                    let rx = rx.clone();
                    let tx = tx.clone();
                    let records = &records;
                    let mut tracer = self.sink.worker_tracer();
                    handles.push(scope.spawn(move || {
                        let mut out = WorkerStats {
                            worker,
                            ..WorkerStats::default()
                        };
                        while let Ok(i) = rx.recv() {
                            if i == SHUTDOWN || rt.aborted() {
                                break;
                            }
                            tracer.record(
                                &clock,
                                EventKind::TaskDequeued {
                                    task: i as u32,
                                    provenance: Provenance::Queue,
                                },
                            );
                            let finished = match rt.run_body(i, &mut tracer) {
                                Some(dt) => {
                                    out.executed += 1;
                                    out.busy += dt;
                                    records.lock().push((i, worker, dt));
                                    rt.complete(i, &mut tracer, |dep| {
                                        let _ = tx.send(dep);
                                    })
                                }
                                // A panic aborts the run.
                                None => true,
                            };
                            if finished {
                                // All done or aborted: wake every worker
                                // (including self on the next recv) with
                                // shutdown sentinels.
                                for _ in 0..self.workers {
                                    let _ = tx.send(SHUTDOWN);
                                }
                            }
                        }
                        (out, tracer.finish(worker))
                    }));
                }
                drop(tx);
                drop(rx);
                for h in handles {
                    let (ws, wt) = h.join().expect("worker panicked");
                    worker_stats.push(ws);
                    worker_traces.extend(wt);
                }
            });
        });
        CoreOutput {
            records: records.into_inner(),
            worker_stats,
            worker_traces,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn runs_all_tasks() {
        let counter = Arc::new(AtomicU64::new(0));
        let tasks: Vec<ThreadTask> = (0..50)
            .map(|i| {
                let c = counter.clone();
                ThreadTask::new(format!("t{i}"), move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let report = ThreadedExecutor::new(4).run(tasks).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        assert_eq!(report.tasks.len(), 50);
        assert_eq!(report.workers, 4);
        assert_eq!(report.worker_stats.len(), 4);
        let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
        assert_eq!(executed, 50);
    }

    #[test]
    fn dependencies_respected() {
        // Each task appends its index; deps force strict order 0,1,2,3.
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut tasks = Vec::new();
        for i in 0..4 {
            let log = log.clone();
            let mut t = ThreadTask::new(format!("t{i}"), move || {
                log.lock().push(i);
            });
            if i > 0 {
                t = t.after([i - 1]);
            }
            tasks.push(t);
        }
        ThreadedExecutor::new(4).run(tasks).unwrap();
        assert_eq!(*log.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn diamond_dependency() {
        //    0
        //   / \
        //  1   2
        //   \ /
        //    3
        let log = Arc::new(Mutex::new(Vec::new()));
        let push = |i: usize| {
            let log = log.clone();
            move || log.lock().push(i)
        };
        let tasks = vec![
            ThreadTask::new("a", push(0)),
            ThreadTask::new("b", push(1)).after([0]),
            ThreadTask::new("c", push(2)).after([0]),
            ThreadTask::new("d", push(3)).after([1, 2]),
        ];
        ThreadedExecutor::new(3).run(tasks).unwrap();
        let order = log.lock().clone();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], 0);
        assert_eq!(order[3], 3);
    }

    #[test]
    fn forward_dependency_rejected() {
        let tasks = vec![
            ThreadTask::new("a", || {}).after([1]), // forward!
            ThreadTask::new("b", || {}),
        ];
        let err = ThreadedExecutor::new(2).run(tasks).unwrap_err();
        assert_eq!(
            err,
            ThreadEngineError::ForwardDependency { task: 0, dep: 1 }
        );
    }

    #[test]
    fn self_dependency_rejected() {
        let tasks = vec![ThreadTask::new("a", || {}).after([0])];
        assert!(ThreadedExecutor::new(1).run(tasks).is_err());
    }

    #[test]
    fn empty_graph() {
        let report = ThreadedExecutor::new(2).run(Vec::new()).unwrap();
        assert!(report.tasks.is_empty());
        assert_eq!(report.worker_stats.len(), 2);
    }

    #[test]
    fn single_worker_still_completes_parallel_graph() {
        let counter = Arc::new(AtomicU64::new(0));
        let tasks: Vec<ThreadTask> = (0..20)
            .map(|i| {
                let c = counter.clone();
                ThreadTask::new(format!("t{i}"), move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        ThreadedExecutor::new(1).run(tasks).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn duplicate_deps_handled() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let push = |i: usize| {
            let log = log.clone();
            move || log.lock().push(i)
        };
        let tasks = vec![
            ThreadTask::new("a", push(0)),
            ThreadTask::new("b", push(1)).after([0, 0, 0]),
        ];
        ThreadedExecutor::new(2).run(tasks).unwrap();
        assert_eq!(*log.lock(), vec![0, 1]);
    }

    #[test]
    fn real_computation_through_pool() {
        // Two vector halves summed in parallel, then combined — the shape
        // of an offloaded vecadd.
        let a: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let partials = Arc::new(Mutex::new(vec![0.0f64; 2]));
        let total = Arc::new(Mutex::new(0.0f64));

        let mut tasks = Vec::new();
        for half in 0..2 {
            let a = a.clone();
            let partials = partials.clone();
            tasks.push(ThreadTask::new(format!("sum{half}"), move || {
                let range = if half == 0 { 0..500 } else { 500..1000 };
                let s: f64 = range.map(|i| a[i]).sum();
                partials.lock()[half] = s;
            }));
        }
        {
            let partials = partials.clone();
            let total = total.clone();
            tasks.push(
                ThreadTask::new("combine", move || {
                    *total.lock() = partials.lock().iter().sum();
                })
                .after([0, 1]),
            );
        }
        ThreadedExecutor::new(2).run(tasks).unwrap();
        assert_eq!(*total.lock(), 499500.0);
    }

    #[test]
    fn unknown_group_rejected() {
        let placement = Placement::new().with_group("gpus", 2);
        let tasks = vec![ThreadTask::new("t", || {}).in_group("tpus")];
        let err = ThreadedExecutor::with_placement(placement)
            .run(tasks)
            .unwrap_err();
        assert_eq!(
            err,
            ThreadEngineError::UnknownGroup {
                task: 0,
                group: "tpus".into()
            }
        );
    }

    #[test]
    fn groups_ignored_without_placement() {
        // An executor built with new() runs grouped tasks anywhere.
        let counter = Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        let tasks = vec![ThreadTask::new("t", move || {
            c.fetch_add(1, Ordering::Relaxed);
        })
        .in_group("gpus")];
        ThreadedExecutor::new(2).run(tasks).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn placement_pins_tasks_to_group_workers() {
        // Group "a" = workers 0..2, group "b" = workers 2..4. With both
        // groups continuously loaded, group-b tasks must not run on group-a
        // workers unless a cross-group steal happened — and then the
        // counters must say so.
        let placement = Placement::new().with_group("a", 2).with_group("b", 2);
        let mut tasks = Vec::new();
        for i in 0..40 {
            let g = if i % 2 == 0 { "a" } else { "b" };
            tasks.push(ThreadTask::new(format!("{g}{i}"), || {}).in_group(g));
        }
        let report = ThreadedExecutor::with_placement(placement)
            .run(tasks)
            .unwrap();
        assert_eq!(report.workers, 4);
        let cross = report.total_cross_group_steals();
        for t in &report.tasks {
            let expect_a = t.label.starts_with('a');
            let on_a = t.worker < 2;
            if expect_a != on_a {
                assert!(
                    cross > 0,
                    "{} ran on worker {} without any cross-group steal",
                    t.label,
                    t.worker
                );
            }
        }
    }

    #[test]
    fn from_logic_groups_builds_placement() {
        let mut b = Platform::builder("t");
        let m = b.master("cpu");
        let g0 = b.worker(m, "gpu0").unwrap();
        b.group(g0, "gpus");
        let g1 = b.worker(m, "gpu1").unwrap();
        b.group(g1, "gpus");
        let s = b.worker(m, "spe").unwrap();
        b.group(s, "slow");
        let p = b.build().unwrap();

        let placement = Placement::from_logic_groups(&p, &["gpus", "@workers-gpus"]).unwrap();
        assert_eq!(placement.groups.len(), 2);
        assert_eq!(placement.groups[0].workers, 2); // gpu0, gpu1
        assert_eq!(placement.groups[1].workers, 1); // spe
        assert_eq!(placement.total_workers(), 3);
        assert_eq!(placement.platform.as_deref(), Some("t"));
        assert_eq!(placement.groups[0].members, vec!["gpu0", "gpu1"]);
        assert_eq!(placement.groups[1].members, vec!["spe"]);

        assert!(Placement::from_logic_groups(&p, &["@bogus"]).is_err());
    }

    #[test]
    fn traced_run_validates_and_matches_report() {
        let tasks: Vec<ThreadTask> = (0..40)
            .map(|i| {
                let mut t = ThreadTask::new(format!("t{i}"), move || {
                    std::hint::black_box((0..200).sum::<u64>());
                });
                if i >= 8 {
                    t = t.after([i - 8]);
                }
                t
            })
            .collect();
        let report = ThreadedExecutor::new(4)
            .with_trace(hetero_trace::TraceSink::ring())
            .run(tasks)
            .unwrap();
        let trace = report.trace.as_ref().expect("trace collected");
        assert_eq!(trace.meta.lanes.len(), 4);
        assert_eq!(trace.meta.tasks.len(), 40);
        assert_eq!(trace.meta.time_unit, hetero_trace::TimeUnit::RealNanos);
        let stats = trace.validate().expect("invariants hold");
        assert_eq!(stats.tasks, 40);
        assert_eq!(stats.steals, report.total_steals() as u64);
        assert_eq!(
            stats.cross_group_steals,
            report.total_cross_group_steals() as u64
        );
        // Seed readies live in the prelude, dependency readies on worker
        // lanes; together every task became ready exactly once.
        assert_eq!(stats.readies, 40);

        // Null sink keeps the report trace-free.
        let tasks2: Vec<ThreadTask> = (0..4)
            .map(|i| ThreadTask::new(format!("t{i}"), || {}))
            .collect();
        let plain = ThreadedExecutor::new(2).run(tasks2).unwrap();
        assert!(plain.trace.is_none());
    }

    #[test]
    fn traced_single_queue_uses_queue_provenance() {
        let tasks: Vec<ThreadTask> = (0..12)
            .map(|i| ThreadTask::new(format!("t{i}"), || {}))
            .collect();
        let report = SingleQueueExecutor::new(3)
            .with_trace(hetero_trace::TraceSink::ring())
            .run(tasks)
            .unwrap();
        let trace = report.trace.as_ref().expect("trace collected");
        trace.validate().expect("invariants hold");
        for span in trace.task_spans() {
            assert_eq!(span.provenance, Some(Provenance::Queue));
        }
    }

    #[test]
    fn single_queue_baseline_agrees() {
        let counter = Arc::new(AtomicU64::new(0));
        let tasks: Vec<ThreadTask> = (0..30)
            .map(|i| {
                let c = counter.clone();
                let mut t = ThreadTask::new(format!("t{i}"), move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
                if i >= 10 {
                    t = t.after([i - 10]);
                }
                t
            })
            .collect();
        let report = SingleQueueExecutor::new(3).run(tasks).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 30);
        assert_eq!(report.tasks.len(), 30);
        assert_eq!(report.total_steals(), 0); // no steal concept
    }

    #[test]
    fn from_graph_mirrors_structure() {
        let mut g = TaskGraph::new();
        let c = g.add_codelet(
            crate::task::Codelet::new("k").with_variant(crate::task::Variant::new("x86")),
        );
        let h = g.register_data("d", 8.0);
        let acc = |mode| crate::task::DataAccess { handle: h, mode };
        g.submit(
            c,
            "w",
            1.0,
            vec![acc(crate::data::AccessMode::Write)],
            Some("gpus"),
        )
        .unwrap();
        g.submit(c, "r", 1.0, vec![acc(crate::data::AccessMode::Read)], None)
            .unwrap();

        let log = Arc::new(Mutex::new(Vec::new()));
        let tasks = from_graph(&g, |t| {
            let log = log.clone();
            let label = g.label(t.id).to_owned();
            Box::new(move || log.lock().push(label))
        });
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].group.as_deref(), Some("gpus"));
        assert_eq!(tasks[1].deps, vec![0]);
        ThreadedExecutor::new(2).run(tasks).unwrap();
        assert_eq!(*log.lock(), vec!["w".to_string(), "r".to_string()]);
    }

    /// Waits at most 10 s for `run`'s result on a spawned thread, so a run
    /// that hangs fails the test instead of blocking it.
    fn within_10s<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = tx.send(run());
        });
        let result = rx
            .recv_timeout(StdDuration::from_secs(10))
            .expect("the run returns within 10 s");
        runner.join().expect("the runner thread exits cleanly");
        result
    }

    #[test]
    fn panicking_task_fails_the_run_without_hanging() {
        for single_queue in [false, true] {
            let dependent_ran = Arc::new(AtomicBool::new(false));
            let ran = Arc::clone(&dependent_ran);
            let tasks = vec![
                ThreadTask::new("boom", || panic!("injected failure")),
                ThreadTask::new("dependent", move || ran.store(true, Ordering::SeqCst)).after([0]),
                ThreadTask::new("independent", || {}),
            ];
            let result = within_10s(move || {
                if single_queue {
                    SingleQueueExecutor::new(2).run(tasks)
                } else {
                    ThreadedExecutor::new(2).run(tasks)
                }
            });
            assert_eq!(
                result.unwrap_err(),
                ThreadEngineError::TaskPanicked {
                    task: 0,
                    label: "boom".into(),
                    message: "injected failure".into(),
                }
            );
            assert!(!dependent_ran.load(Ordering::SeqCst));
        }
    }

    #[test]
    fn panicking_compiled_task_fails_the_run() {
        let result = within_10s(|| {
            let pool = ThreadedExecutor::new(2);
            let compiled = pool.compile_graph(&diamond_graph()).unwrap();
            pool.run_compiled(&compiled, |i| {
                Box::new(move || {
                    if i == 1 {
                        panic!("task {i} failed");
                    }
                })
            })
        });
        assert_eq!(
            result.unwrap_err(),
            ThreadEngineError::TaskPanicked {
                task: 1,
                label: "l".into(),
                message: "task 1 failed".into(),
            }
        );
    }

    /// A chain-heavy diamond graph for the compiled-path tests.
    fn diamond_graph() -> TaskGraph {
        let mut g = TaskGraph::with_capacity(4);
        let c = g.add_codelet(
            crate::task::Codelet::new("k").with_variant(crate::task::Variant::new("x86")),
        );
        let h = g.register_data("d", 8.0);
        let a = g.register_data("a", 8.0);
        let b = g.register_data("b", 8.0);
        let acc = |h, mode| crate::task::DataAccess { handle: h, mode };
        use crate::data::AccessMode::{Read, Write};
        g.submit(c, "src", 1.0, vec![acc(h, Write)], None).unwrap();
        g.submit(c, "l", 1.0, vec![acc(h, Read), acc(a, Write)], None)
            .unwrap();
        g.submit(c, "r", 1.0, vec![acc(h, Read), acc(b, Write)], None)
            .unwrap();
        g.submit(c, "join", 1.0, vec![acc(a, Read), acc(b, Read)], None)
            .unwrap();
        g
    }

    #[test]
    fn compiled_graph_reruns_with_fresh_counters() {
        let g = diamond_graph();
        let pool = ThreadedExecutor::new(3);
        let compiled = pool.compile_graph(&g).unwrap();
        assert_eq!(compiled.len(), 4);
        // Two runs off the same compiled graph: each must execute all four
        // tasks in dependency order (src first, join last).
        for _ in 0..2 {
            let log = Arc::new(Mutex::new(Vec::new()));
            let report = pool
                .run_compiled(&compiled, |i| {
                    let log = log.clone();
                    Box::new(move || log.lock().push(i))
                })
                .unwrap();
            let order = log.lock().clone();
            assert_eq!(order.len(), 4);
            assert_eq!(order[0], 0);
            assert_eq!(order[3], 3);
            assert_eq!(report.tasks.len(), 4);
            assert!(report.tasks.iter().any(|t| t.label == "join"));
            let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
            assert_eq!(executed, 4);
        }
    }

    #[test]
    fn compiled_graph_rejects_mismatched_placement() {
        let g = diamond_graph();
        let compiled = ThreadedExecutor::with_placement(Placement::new().with_group("cpus", 2))
            .compile_graph(&g)
            .unwrap();
        let err = ThreadedExecutor::with_placement(Placement::new().with_group("gpus", 2))
            .run_compiled(&compiled, |_| Box::new(|| {}))
            .unwrap_err();
        assert!(matches!(err, ThreadEngineError::PlacementMismatch { .. }));
    }

    #[test]
    fn task_stats_off_still_counts_everything() {
        let counter = Arc::new(AtomicU64::new(0));
        let tasks: Vec<ThreadTask> = (0..40)
            .map(|i| {
                let c = counter.clone();
                let mut t = ThreadTask::new(format!("t{i}"), move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
                if i >= 8 {
                    t = t.after([i - 8]);
                }
                t
            })
            .collect();
        let report = ThreadedExecutor::new(4)
            .with_task_stats(false)
            .run(tasks)
            .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 40);
        // Per-task rows are skipped, but aggregate accounting is intact.
        assert!(report.tasks.is_empty());
        let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
        assert_eq!(executed, 40);
        assert!(report.wall > StdDuration::ZERO);
    }

    #[test]
    fn repeated_batches_run() {
        let pool = ThreadedExecutor::new(2);
        for batch in 0..3 {
            let counter = Arc::new(AtomicU64::new(0));
            let tasks: Vec<ThreadTask> = (0..16)
                .map(|i| {
                    let c = counter.clone();
                    let mut t = ThreadTask::new(format!("b{batch}t{i}"), move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                    if i > 0 {
                        t = t.after([i - 1]);
                    }
                    t
                })
                .collect();
            pool.run(tasks).unwrap();
            assert_eq!(counter.load(Ordering::Relaxed), 16);
        }
    }

    #[test]
    fn compiled_graph_respects_group_affinity() {
        let mut g = TaskGraph::with_capacity(8);
        let c = g.add_codelet(
            crate::task::Codelet::new("k").with_variant(crate::task::Variant::new("x86")),
        );
        for i in 0..8 {
            let group = if i % 2 == 0 { "cpus" } else { "gpus" };
            g.submit(c, format!("t{i}"), 1.0, vec![], Some(group))
                .unwrap();
        }
        let pool = ThreadedExecutor::with_placement(
            Placement::new().with_group("cpus", 2).with_group("gpus", 2),
        );
        let compiled = pool.compile_graph(&g).unwrap();
        let report = pool.run_compiled(&compiled, |_| Box::new(|| {})).unwrap();
        // cpus tasks run on workers 0-1 and gpus tasks on 2-3 — unless a
        // cross-group steal rebalanced them, which the counters must show.
        let cross = report.total_cross_group_steals();
        for t in &report.tasks {
            let idx: usize = t.label[1..].parse().unwrap();
            let on_home = if idx.is_multiple_of(2) {
                t.worker < 2
            } else {
                t.worker >= 2
            };
            if !on_home {
                assert!(
                    cross > 0,
                    "{} ran on worker {} without any cross-group steal",
                    t.label,
                    t.worker
                );
            }
        }
    }
}
