//! The shared harness of the `*_smoke` CI gate binaries: `--out DIR`
//! parsing, the `ok`/`FAIL` check printer, artifact writes and the
//! pass/fail exit code.

use std::path::PathBuf;
use std::process::ExitCode;

/// One smoke run: its name, the optional artifact directory and the
/// number of failed checks so far.
#[derive(Debug)]
pub struct Smoke {
    name: &'static str,
    out_dir: Option<PathBuf>,
    failures: u32,
}

impl Smoke {
    /// Parses the command line of a smoke binary that takes only
    /// `--out DIR`. `None` (after printing the usage) on any other
    /// argument.
    pub fn from_args(name: &'static str) -> Option<Self> {
        Self::from_args_with(name, "", |_, _| false)
    }

    /// Parses `--out DIR` plus the binary's own flags: `extra(flag, args)`
    /// handles one flag, taking its value from `args`, and returns `false`
    /// for a flag it does not know. `usage` lists those flags for the
    /// error message.
    pub fn from_args_with(
        name: &'static str,
        usage: &str,
        mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> bool,
    ) -> Option<Self> {
        let mut args = std::env::args().skip(1);
        let mut out_dir = None;
        while let Some(a) = args.next() {
            if a == "--out" {
                out_dir = args.next().map(Into::into);
            } else if !extra(&a, &mut args) {
                eprintln!("unknown argument {a:?}; usage: {name} [--out DIR]{usage}");
                return None;
            }
        }
        Some(Smoke {
            name,
            out_dir,
            failures: 0,
        })
    }

    /// Prints one check's verdict and counts it when it failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            println!("  ok   {what}");
        } else {
            println!("  FAIL {what}");
            self.failures += 1;
        }
    }

    /// Failed checks so far.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Writes each `(file name, contents)` pair into the `--out`
    /// directory, creating it first; does nothing without `--out`. A
    /// failed write counts as a failed check.
    pub fn write_artifacts(&mut self, files: &[(&str, &str)]) {
        let Some(dir) = self.out_dir.clone() else {
            return;
        };
        if let Err(e) = std::fs::create_dir_all(&dir) {
            self.check(false, &format!("create {} ({e})", dir.display()));
            return;
        }
        for (name, text) in files {
            let path = dir.join(name);
            match std::fs::write(&path, text) {
                Ok(()) => println!("  ok   wrote {}", path.display()),
                Err(e) => self.check(false, &format!("write {} ({e})", path.display())),
            }
        }
    }

    /// Records a failure that ends the run early and returns
    /// [`finish`](Self::finish)'s exit code.
    pub fn abort(mut self, what: &str) -> ExitCode {
        self.check(false, what);
        self.finish()
    }

    /// Prints the verdict and returns the exit code: success only when
    /// every check passed.
    pub fn finish(self) -> ExitCode {
        if self.failures == 0 {
            println!("{}: all checks passed", self.name);
            ExitCode::SUCCESS
        } else {
            println!("{}: {} check(s) FAILED", self.name, self.failures);
            ExitCode::FAILURE
        }
    }
}
