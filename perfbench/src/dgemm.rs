//! `dgemm_profiled`: Cascabel translates DGEMM for the CPU-only descriptor
//! (N = 512, tile 16: 32,768 tile tasks), the threaded executor runs the
//! real `dgemm_tile` bodies with its per-worker trace rings on, and the
//! drained trace goes through the critical-path profiler (`pdl profile`).

use crate::harness::{replay_trace, Checks, PassTimer, Rng, Run};
use cascabel::codegen::ProblemSpec;
use cascabel::driver::Cascabel;
use hetero_rt::prelude::*;
use kernels::dgemm::{dgemm_naive, dgemm_tile, Matrix};
use pdl_core::platform::Platform;
use std::sync::{Arc, Mutex};

/// Matrix dimension.
pub const N: usize = 512;
/// Tile size: (512 / 16)³ = 32,768 tasks.
pub const TILE: usize = 16;
/// Worker threads.
pub const WORKERS: usize = 2;
/// The CPU-only descriptor.
pub const DESCRIPTOR: &str = "examples/platforms/xeon_x5550_host.xml";

/// Seeded matrices cut into tiles, the reference product and the
/// translation inputs: the benchmark's own work, made once before set-up.
pub struct Inputs {
    /// Tiles of `A`, row-major by `(ti, tk)`.
    a: Arc<Vec<Matrix>>,
    /// Tiles of `B`, row-major by `(tk, tj)`.
    b: Arc<Vec<Matrix>>,
    reference: Matrix,
    descriptor: String,
    program: String,
    spec: ProblemSpec,
}

/// Generates the seeded inputs and the reference product.
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 2);
    let a = Matrix::from_fn(N, |_, _| rng.unit());
    let b = Matrix::from_fn(N, |_, _| rng.unit());
    let mut reference = Matrix::zeros(N);
    dgemm_naive(&a, &b, &mut reference);
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    };
    let mut spec = ProblemSpec::with_size("N", N);
    spec.tile = Some(TILE);
    Inputs {
        a: Arc::new(tiles_of(&a, TILE)),
        b: Arc::new(tiles_of(&b, TILE)),
        reference,
        descriptor: read(DESCRIPTOR),
        program: read(crate::fig5::PROGRAM),
        spec,
    }
}

/// Cuts `m` into `tile × tile` matrices, row-major by tile position.
pub fn tiles_of(m: &Matrix, tile: usize) -> Vec<Matrix> {
    let tiles = m.n / tile;
    (0..tiles * tiles)
        .map(|t| {
            let (r0, c0) = (t / tiles * tile, t % tiles * tile);
            Matrix::from_fn(tile, |i, j| m.data[(r0 + i) * m.n + c0 + j])
        })
        .collect()
}

/// Joins `tile × tile` matrices, row-major by tile position, into one.
pub fn assemble(tiles: &[Mutex<Matrix>], n: usize, tile: usize) -> Matrix {
    let per_row = n / tile;
    let mut m = Matrix::zeros(n);
    for (t, cell) in tiles.iter().enumerate() {
        let c = cell
            .lock()
            .expect("no task body panics while holding its tile");
        let (r0, c0) = (t / per_row * tile, t % per_row * tile);
        for i in 0..tile {
            m.data[(r0 + i) * n + c0..(r0 + i) * n + c0 + tile]
                .copy_from_slice(&c.data[i * tile..(i + 1) * tile]);
        }
    }
    m
}

/// Checks the product. Each tile task runs [`dgemm_tile`] on its own
/// tiles, which accumulates each element in the same `k` order as
/// [`dgemm_naive`], so the product must be bit-identical; a `k` chain run
/// out of order shows as a difference.
pub fn check(checks: &mut Checks, c: &Matrix, reference: &Matrix) {
    checks.expect(c == reference, || {
        let diff = c.max_abs_diff(reference);
        format!("C differs from dgemm_naive (max |diff| {diff:e})")
    });
}

/// Runs the workload.
pub fn run(run: &mut Run) {
    let inputs = inputs(run.opts.seed);
    // Four times the default ring: at 32,768 tasks the default capacity
    // overwrites events, and a lossy trace cannot be replayed.
    let sink = TraceSink::Ring {
        capacity: 4 * TraceSink::DEFAULT_CAPACITY,
    };
    // The program's set-up: parse and validate the descriptor, create the
    // executor.
    let set_up = || {
        let platform = pdl_xml::from_xml(&inputs.descriptor)
            .map_err(|e| e.to_string())
            .and_then(|p| {
                let issues = pdl_core::validate::check(&p);
                if issues.is_empty() {
                    Ok(p)
                } else {
                    Err(format!("{issues:?}"))
                }
            });
        let pool = ThreadedExecutor::new(WORKERS).with_trace(sink.clone());
        (platform, pool)
    };
    let (platform, pool) = run.setup(set_up);
    let platform: Platform = match platform {
        Ok(p) => p,
        Err(e) => {
            let mut checks = Checks::default();
            checks.expect(false, || format!("{DESCRIPTOR}: {e}"));
            run.verdict(checks);
            return;
        }
    };
    let tiles = N / TILE;
    let (mut events_per_task, mut overwritten) = (vec![], vec![]);
    let mut replay = None;
    let traced_run = run.opts.trace;
    run.passes(set_up, |run, i| {
        // One lock per C tile: tasks of different tiles never wait on each
        // other, and the graph orders the k chain of each tile.
        let c: Arc<Vec<Mutex<Matrix>>> = Arc::new(
            (0..tiles * tiles)
                .map(|_| Mutex::new(Matrix::zeros(TILE)))
                .collect(),
        );
        let sp = &mut run.spans;
        let mut timer = PassTimer::start(sp);
        let mut checks = Checks::default();
        let compiled = sp.call("cascabel.compile", || {
            Cascabel::new(platform.clone()).compile(&inputs.program, &inputs.spec)
        });
        let result = match compiled {
            Ok(r) => r,
            Err(e) => {
                checks.expect(false, || format!("translation: {e}"));
                run.verdict(checks);
                return timer.finish(&mut run.spans, 0);
            }
        };
        let graph = &result.output.graph;
        let tasks = sp.call("hetero-rt.from_graph", || {
            from_graph(graph, |t| {
                let (a, b, c) = (Arc::clone(&inputs.a), Arc::clone(&inputs.b), Arc::clone(&c));
                // Submission order of the tiled decomposition: (i, j, k), k innermost.
                let (ti, tj, tk) = (
                    t.id.0 / (tiles * tiles),
                    t.id.0 / tiles % tiles,
                    t.id.0 % tiles,
                );
                Box::new(move || {
                    let mut c = c[ti * tiles + tj]
                        .lock()
                        .expect("no task body panics while holding its tile");
                    dgemm_tile(
                        &a[ti * tiles + tk],
                        &b[tk * tiles + tj],
                        &mut c,
                        TILE,
                        0,
                        0,
                        0,
                    );
                })
            })
        });
        let mut report = match sp.call("hetero-rt.run", || pool.run(tasks)) {
            Ok(r) => r,
            Err(e) => {
                checks.expect(false, || format!("run: {e}"));
                run.verdict(checks);
                return timer.finish(&mut run.spans, graph.len() as u64);
            }
        };
        let trace = report.trace.take().expect("the executor traces into rings");
        let deps: Vec<(u32, u32)> = graph
            .tasks
            .iter()
            .flat_map(|t| {
                graph
                    .dependencies(t.id)
                    .iter()
                    .map(move |d| (d.0 as u32, t.id.0 as u32))
            })
            .collect();
        let profile = sp.call("hetero-trace.critical_path", || {
            hetero_trace::profile::critical_path(&trace, &deps)
        });
        timer.untimed(sp, || {
            check(&mut checks, &assemble(&c, N, TILE), &inputs.reference);
            checks.expect(profile.is_ok(), || {
                format!("critical_path: {:?}", profile.as_ref().err())
            });
            let events =
                trace.prelude.len() + trace.workers.iter().map(|w| w.events.len()).sum::<usize>();
            events_per_task.push(events as f64 / graph.len() as f64);
            overwritten.push(trace.workers.iter().map(|w| w.overwritten).sum::<u64>() as f64);
            if i == 0 && traced_run {
                replay = Some((graph.clone(), trace.clone()));
            }
        });
        let n = graph.len() as u64;
        sp.call("hetero-trace.drop", || drop((profile, trace)));
        sp.call("hetero-rt.drop", || drop(report));
        sp.call("cascabel.drop", || drop(result));
        sp.call("bench.drop", || drop((deps, c)));
        run.verdict(checks);
        timer.finish(&mut run.spans, n)
    });
    if let Some((graph, trace)) = replay {
        replay_trace(run, "dgemm", &graph, &trace);
    }
    run.layer_count("hetero-trace.events_per_task", &events_per_task, "1/task");
    run.layer_count("hetero-trace.overwritten", &overwritten, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_corrupted_output_is_caught() {
        let mut rng = Rng::new(1, 2);
        let a = Matrix::from_fn(8, |_, _| rng.unit());
        let b = Matrix::from_fn(8, |_, _| rng.unit());
        let mut reference = Matrix::zeros(8);
        dgemm_naive(&a, &b, &mut reference);
        let (at, bt) = (tiles_of(&a, 4), tiles_of(&b, 4));
        let c: Vec<Mutex<Matrix>> = (0..4).map(|_| Mutex::new(Matrix::zeros(4))).collect();
        for (ti, tj, tk) in (0..8).map(|x| (x / 4, x / 2 % 2, x % 2)) {
            let mut tile = c[ti * 2 + tj].lock().unwrap();
            dgemm_tile(&at[ti * 2 + tk], &bt[tk * 2 + tj], &mut tile, 4, 0, 0, 0);
        }
        let mut tiled = assemble(&c, 8, 4);
        let mut ok = Checks::default();
        check(&mut ok, &tiled, &reference);
        assert!(ok.passed(), "{:?}", ok.failures);
        tiled.data[13] += 1e-12;
        let mut bad = Checks::default();
        check(&mut bad, &tiled, &reference);
        assert_eq!(bad.failures.len(), 1);
    }

    #[test]
    fn tiles_round_trip() {
        let m = Matrix::from_fn(6, |i, j| (i * 6 + j) as f64);
        let tiles: Vec<Mutex<Matrix>> = tiles_of(&m, 3).into_iter().map(Mutex::new).collect();
        assert_eq!(assemble(&tiles, 6, 3), m);
    }
}
