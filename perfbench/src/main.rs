//! End-to-end benchmark of the PDL → Cascabel → runtime path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig5_sim|forkjoin_million|dgemm_profiled> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! The line before it is the full run record: provenance, every metric's
//! minimum, median and other quantiles, and the failures. A traced run
//! also writes its spans to `perfbench/out/`. The exit code is non-zero
//! when any output check failed.

mod dgemm;
mod fig5;
mod forkjoin;
mod harness;
mod report;
mod spans;

use harness::{Options, Run};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: spans::CountingAlloc = spans::CountingAlloc;

/// A workload's runner.
type Runner = fn(&mut Run);

/// The workloads, by name.
const WORKLOADS: [(&str, Runner); 3] = [
    ("fig5_sim", fig5::run),
    ("forkjoin_million", forkjoin::run),
    ("dgemm_profiled", dgemm::run),
];

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(usize, Options), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|w| w.0 == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Options {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (index, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (name, runner) = WORKLOADS[index];
    let mut run = Run::new(opts);
    runner(&mut run);
    let (record, result) = report::render(name, &run);
    println!("{record}");
    println!("{result}");
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed their checks",
            run.failed, run.attempted
        );
        for f in &run.failures {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}
