//! `fig5_sim`: the paper's Figure 5 path at fine grain, for the CPU-only
//! and the GPU testbed descriptor in every pass.
//!
//! PDL XML text → parse → validate → registry publish → Cascabel
//! translation of the DGEMM input program (N = 8192, tile 256: 32,768
//! tasks) → simulated machine → list engine (HEFT) and online engine
//! (dmda, full transfer pipeline) → run-trace bridge → A-series anomaly
//! check → drop. There is no random input: the seed is unused.
//!
//! The virtual-time results are deterministic. Every pass must reproduce
//! [`GOLDEN`] bit for bit, so a simulator-only speed-up that changes a
//! schedule fails the run instead of reporting a gain.

use crate::harness::{replay_trace, Checks, PassTimer, Run};
use cascabel::codegen::ProblemSpec;
use cascabel::driver::Cascabel;
use hetero_rt::prelude::*;
use pdl_registry::Registry;
use simhw::machine::SimMachine;

/// The two descriptors, in pass order: (label, file).
pub const DESCRIPTORS: [(&str, &str); 2] = [
    ("cpu", "examples/platforms/xeon_x5550_host.xml"),
    ("gpu", "examples/platforms/xeon_2gpu_testbed.xml"),
];
/// The annotated DGEMM input program.
pub const PROGRAM: &str = "examples/programs/dgemm.c";
/// Matrix dimension.
pub const N: usize = 8192;
/// Tile size: (8192 / 256)³ = 32,768 tasks per descriptor.
pub const TILE: usize = 256;
/// Concurrent clients.
pub const CLIENTS: usize = 2;

/// The deterministic results of one pass, per descriptor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// HEFT virtual makespan, seconds.
    pub heft_makespan_s: f64,
    /// dmda virtual makespan, seconds.
    pub dmda_makespan_s: f64,
    /// dmda bytes moved host → devices.
    pub bytes_to_devices: f64,
    /// dmda bytes moved devices → host.
    pub bytes_to_host: f64,
    /// dmda bytes moved device ↔ device.
    pub bytes_peer: f64,
}

/// Expected [`Outcome`] per descriptor label, as `f64` bit patterns.
/// The model is unvalidated: the repository holds no hardware reference
/// for Figure 5, so these pin determinism, not accuracy.
pub const GOLDEN: [(&str, [u64; 5]); 2] = [
    // HEFT 14.352438750209533 s, dmda 14.38047085714354 s, no transfers.
    (
        "cpu",
        [0x402c_b472_da13_fc72, 0x402c_c2cd_1381_0672, 0, 0, 0],
    ),
    // HEFT 7.205623903942455 s, dmda 4.778160983678954 s,
    // 2,630,352,896 B to devices, 736,624,640 B to host, none peer.
    (
        "gpu",
        [
            0x401c_d28f_129a_d5b3,
            0x4013_1cd6_3b9f_b27b,
            0x41e3_9900_0000_0000,
            0x41c5_f400_0000_0000,
            0,
        ],
    ),
];

impl Outcome {
    fn bits(&self) -> [u64; 5] {
        [
            self.heft_makespan_s.to_bits(),
            self.dmda_makespan_s.to_bits(),
            self.bytes_to_devices.to_bits(),
            self.bytes_to_host.to_bits(),
            self.bytes_peer.to_bits(),
        ]
    }
}

/// Checks one descriptor's deterministic results against [`GOLDEN`].
pub fn check_golden(checks: &mut Checks, label: &str, outcome: &Outcome) {
    let expected = GOLDEN.iter().find(|(l, _)| *l == label).map(|(_, b)| *b);
    checks.expect(expected == Some(outcome.bits()), || {
        format!(
            "{label}: virtual-time results {outcome:?} = {:x?} differ from the pinned {expected:x?}",
            outcome.bits()
        )
    });
}

/// Inputs read once, before set-up.
pub struct Inputs {
    /// (label, XML text) per descriptor.
    pub descriptors: Vec<(&'static str, String)>,
    /// Annotated source.
    pub program: String,
    /// Problem size and tiling.
    pub spec: ProblemSpec,
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Reads the descriptors and the input program.
pub fn inputs() -> Inputs {
    let mut spec = ProblemSpec::with_size("N", N);
    spec.tile = Some(TILE);
    Inputs {
        descriptors: DESCRIPTORS.iter().map(|&(l, f)| (l, read(f))).collect(),
        program: read(PROGRAM),
        spec,
    }
}

/// The program's set-up: parses and validates each descriptor. Returns,
/// per descriptor, why its text does not give a valid platform, if it
/// does not.
pub fn setup(inputs: &Inputs) -> Vec<Option<String>> {
    inputs
        .descriptors
        .iter()
        .map(|(label, xml)| match pdl_xml::from_xml(xml) {
            Ok(p) => {
                let issues = pdl_core::validate::check(&p);
                (!issues.is_empty()).then(|| format!("{label}: {issues:?}"))
            }
            Err(e) => Some(format!("{label}: {e}")),
        })
        .collect()
}

/// What one client collected besides its passes.
#[derive(Default)]
struct ClientOut {
    makespans: Vec<(&'static str, Outcome)>,
    codegen_s: Vec<f64>,
    replays: Vec<(&'static str, TaskGraph, hetero_trace::RunTrace)>,
}

/// Runs the workload: [`CLIENTS`] threads, each running whole passes back
/// to back. A single client would measure only the vCPU it happens to run
/// on; two clients sample both, whose speeds drift independently on a
/// shared host, and the fastest pass comes from whichever was faster.
pub fn run(run: &mut Run) {
    let inputs = inputs();
    for invalid in run.setup(|| setup(&inputs)) {
        let mut checks = Checks::default();
        checks.expect(invalid.is_none(), || format!("set-up: {invalid:?}"));
        run.verdict(checks);
    }
    // Only traced runs replay a trace (see `replay_trace`), and one
    // client's first pass is enough.
    let replay_first = run.opts.trace;
    let clients: Vec<Run> = (0..CLIENTS).map(|_| run.client()).collect();
    let finished: Vec<(Run, ClientOut)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let inputs = &inputs;
                s.spawn(move || {
                    let out = drive(&mut client, inputs, replay_first && c == 0);
                    (client, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a fig5 client panicked"))
            .collect()
    });
    let mut all = ClientOut::default();
    for (client, out) in finished {
        run.merge(client);
        all.makespans.extend(out.makespans);
        all.codegen_s.extend(out.codegen_s);
        all.replays.extend(out.replays);
    }
    for (label, graph, trace) in &all.replays {
        replay_trace(run, label, graph, trace);
    }
    report(run, &all.makespans, all.codegen_s);
}

/// One client's passes.
fn drive(run: &mut Run, inputs: &Inputs, keep_replay: bool) -> ClientOut {
    let mut out = ClientOut::default();
    run.passes(
        || setup(inputs),
        |run, pass| {
            let sp = &mut run.spans;
            let mut timer = PassTimer::start(sp);
            let mut checks = Checks::default();
            let mut tasks = 0u64;
            for (label, xml) in &inputs.descriptors {
                let platform = match sp.call("pdl-xml.from_xml", || pdl_xml::from_xml(xml)) {
                    Ok(p) => p,
                    Err(e) => {
                        checks.expect(false, || format!("{label}: from_xml: {e}"));
                        continue;
                    }
                };
                let issues = sp.call("core.validate", || pdl_core::validate::check(&platform));
                let registry = Registry::new();
                let published = sp.call("pdl-registry.publish", || registry.publish(&platform));
                let snapshot = registry.snapshot();
                let cc = sp.call("cascabel.from_registry", || {
                    Cascabel::from_registry(&snapshot, &published.name, "latest")
                });
                let compiled = cc.map_err(|e| e.to_string()).and_then(|mut cc| {
                    let r = sp.call("cascabel.compile", || {
                        cc.compile(&inputs.program, &inputs.spec)
                    });
                    r.map(|r| (cc, r)).map_err(|e| e.to_string())
                });
                let (cc, result) = match compiled {
                    Ok(c) => c,
                    Err(e) => {
                        checks.expect(false, || format!("{label}: translation: {e}"));
                        continue;
                    }
                };
                let graph = &result.output.graph;
                tasks += graph.len() as u64;
                let machine = sp.call("simhw.from_platform", || {
                    SimMachine::from_platform(cc.platform())
                });
                let heft = sp.call("hetero-rt.simulate", || {
                    simulate(graph, &machine, &mut HeftScheduler, &SimOptions::default())
                });
                let dynamic = SimOptions {
                    pipeline: TransferPipeline::full(),
                    ..SimOptions::default()
                };
                let dmda = sp.call("hetero-rt.simulate_dynamic", || {
                    simulate_dynamic(graph, &machine, &mut DmdaScheduler, &dynamic)
                });
                let (heft, dmda) = match (heft, dmda) {
                    (Ok(h), Ok(d)) => (h, d),
                    (h, d) => {
                        checks.expect(false, || {
                            format!("{label}: simulation: {:?} {:?}", h.err(), d.err())
                        });
                        continue;
                    }
                };
                let trace = sp.call("hetero-trace.sim_report_to_trace", || {
                    sim_report_to_trace(&dmda, &machine)
                });
                let anomalies = sp.call("pdl-analyze.check_trace_anomalies", || {
                    pdl_analyze::check_trace_anomalies(&trace)
                });
                timer.untimed(sp, || {
                    let outcome = Outcome {
                        heft_makespan_s: heft.makespan.seconds(),
                        dmda_makespan_s: dmda.makespan.seconds(),
                        bytes_to_devices: dmda.bytes_to_devices,
                        bytes_to_host: dmda.bytes_to_host,
                        bytes_peer: dmda.bytes_peer,
                    };
                    check_pass(
                        &mut checks,
                        label,
                        &issues,
                        graph,
                        &heft,
                        &dmda,
                        &anomalies,
                        &outcome,
                    );
                    if pass == 0 && keep_replay {
                        out.replays.push((*label, graph.clone(), trace.clone()));
                    }
                    out.makespans.push((*label, outcome));
                    if let Some(p) = result.phases.iter().find(|p| p.name == "codegen") {
                        out.codegen_s.push(p.duration().as_secs_f64());
                    }
                });
                sp.call("pdl-analyze.drop", || drop(anomalies));
                sp.call("hetero-trace.drop", || drop(trace));
                sp.call("hetero-rt.drop", || drop((heft, dmda)));
                sp.call("simhw.drop", || drop(machine));
                sp.call("cascabel.drop", || drop((result, cc)));
                sp.call("pdl-registry.drop", || {
                    drop((snapshot, registry, published))
                });
                sp.call("core.drop", || drop((issues, platform)));
            }
            run.verdict(checks);
            timer.finish(&mut run.spans, tasks)
        },
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn check_pass(
    checks: &mut Checks,
    label: &str,
    issues: &[pdl_core::error::ValidationIssue],
    graph: &TaskGraph,
    heft: &SimReport,
    dmda: &SimReport,
    anomalies: &pdl_analyze::Report,
    outcome: &Outcome,
) {
    checks.expect(issues.is_empty(), || {
        format!("{label}: descriptor invalid: {issues:?}")
    });
    checks.expect(graph.len() == (N / TILE).pow(3), || {
        format!("{label}: translation gave {} tasks", graph.len())
    });
    for (engine, r) in [("heft", heft), ("dmda", dmda)] {
        checks.expect(r.assignments.len() == graph.len(), || {
            format!(
                "{label}: {engine} assigned {} of {} tasks",
                r.assignments.len(),
                graph.len()
            )
        });
    }
    checks.expect(anomalies.is_empty(), || {
        format!("{label}: A-series: {}", anomalies.render())
    });
    check_golden(checks, label, outcome);
}

fn report(run: &mut Run, outcomes: &[(&str, Outcome)], codegen_s: Vec<f64>) {
    let pick = |label: &str, f: fn(&Outcome) -> f64| -> Vec<f64> {
        outcomes
            .iter()
            .filter(|(l, _)| *l == label)
            .map(|(_, o)| f(o))
            .collect()
    };
    run.stat("sim_makespan_s", "s", pick("gpu", |o| o.heft_makespan_s));
    run.stat(
        "sim_makespan_cpu_s",
        "s",
        pick("cpu", |o| o.heft_makespan_s),
    );
    run.stat(
        "sim_makespan_dmda_s",
        "s",
        pick("gpu", |o| o.dmda_makespan_s),
    );
    run.stat(
        "sim_makespan_dmda_cpu_s",
        "s",
        pick("cpu", |o| o.dmda_makespan_s),
    );
    run.stat("cascabel.codegen_s", "s", codegen_s);
    let gpu = pick("gpu", |o| o.bytes_to_devices);
    let to_host = pick("gpu", |o| o.bytes_to_host);
    let peer = pick("gpu", |o| o.bytes_peer);
    run.layer_count("hetero-rt.bytes_to_devices", &gpu, "B");
    run.layer_count("hetero-rt.bytes_to_host", &to_host, "B");
    run.layer_count("hetero-rt.bytes_peer", &peer, "B");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden(label: &str) -> Outcome {
        let b = GOLDEN.iter().find(|(l, _)| *l == label).unwrap().1;
        Outcome {
            heft_makespan_s: f64::from_bits(b[0]),
            dmda_makespan_s: f64::from_bits(b[1]),
            bytes_to_devices: f64::from_bits(b[2]),
            bytes_to_host: f64::from_bits(b[3]),
            bytes_peer: f64::from_bits(b[4]),
        }
    }

    #[test]
    fn one_corrupted_output_is_caught() {
        let mut ok = Checks::default();
        check_golden(&mut ok, "gpu", &golden("gpu"));
        assert!(ok.passed());
        let mut shifted = golden("gpu");
        shifted.dmda_makespan_s = f64::from_bits(shifted.dmda_makespan_s.to_bits() + 1);
        let mut bad = Checks::default();
        check_golden(&mut bad, "gpu", &shifted);
        assert_eq!(bad.failures.len(), 1);
    }
}
