//! The command line.
//!
//! ```text
//! bench [--workload <name>|all] [--seed n] [--seconds s] [--trace 0|1]
//!       [--repeat n] [--out set.json]
//! bench compare <a.json> <b.json>
//! ```

use crate::compare::{compare_sets, print_lines};
use crate::report;
use crate::run::{run, RunConfig};
use crate::spec::Spec;
use crate::workloads::NAMES;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  bench [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace <0|1>]
        [--repeat <n>] [--out <set.json>]
  bench compare <a.json> <b.json>

  --workload  kvs_serve, mlagg_serve, deploy_cold, churn_warm or all (default all)
  --seed      inputs are generated from it; run i of --repeat uses seed+i (default 1)
  --seconds   time box of one run of one workload (default 30)
  --trace     0: end-to-end metrics; 1: per-layer metrics from the traced run
  --repeat    runs per workload (default 1)
  --out       append every run to this set file, the input of `compare`

  More than one run (all workloads, or --repeat) starts each in a process of
  its own, so no run inherits another's peak memory.";

struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: u64,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: NAMES.iter().map(|n| n.to_string()).collect(),
        seed: 1,
        seconds: 30.0,
        traced: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |what: &str| format!("{flag} takes {what}, not `{value}`");
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" if NAMES.contains(&value.as_str()) => {
                options.workloads = vec![value.clone()];
            }
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => options.seed = value.parse().map_err(|_| number("a whole number"))?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| number("a number of seconds"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err(number("between 0 and 600 seconds"));
                }
            }
            "--trace" => {
                options.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(number("0 or 1")),
                }
            }
            "--repeat" => options.repeat = value.parse().map_err(|_| number("a whole number"))?,
            "--out" => options.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(options)
}

/// One run in this process.
fn run_one(workload: &str, seed: u64, options: &Options) -> Result<bool, String> {
    let meta = report::metadata();
    let result = run(RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: options.seconds,
        traced: options.traced,
    })?;
    report::print_rows(&result);
    let path = report::write_result(&result, &meta).map_err(|e| e.to_string())?;
    println!("# result file {}", path.display());
    if let Some(set) = &options.out {
        report::append_to_set(set, &result, &meta)?;
    }
    // the driver reads the last line of standard output
    println!("{}", report::driver_line(&result));
    Ok(result.correct)
}

/// One run in a child process of its own, as the driver starts them: peak
/// memory and allocator state of one run must not leak into the next.  The
/// child has ended when this returns.
fn run_in_child(workload: &str, seed: u64, options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe);
    child.args(["--workload", workload, "--seed", &seed.to_string()]);
    child.args(["--seconds", &options.seconds.to_string()]);
    child.args(["--trace", if options.traced { "1" } else { "0" }]);
    if let Some(set) = &options.out {
        child.arg("--out").arg(set);
    }
    let status = child.status().map_err(|e| format!("cannot start a run: {e}"))?;
    Ok(status.success())
}

fn run_all(options: &Options) -> Result<bool, String> {
    if let ([workload], 1) = (options.workloads.as_slice(), options.repeat) {
        return run_one(workload, options.seed, options);
    }
    let mut all_correct = true;
    for repeat in 0..options.repeat {
        for workload in &options.workloads {
            all_correct &= run_in_child(workload, options.seed + repeat, options)?;
        }
    }
    Ok(all_correct)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let spec = Spec::load()?;
    let lines = compare_sets(&spec, Path::new(a), Path::new(b))?;
    Ok(print_lines(&lines))
}

/// Run the command line; the exit code is non-zero when a check failed, a
/// metric regressed, or the arguments made no sense.
pub fn main(args: Vec<String>) -> ExitCode {
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare(a, b),
            _ => Err("compare takes two set files".to_string()),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse(&args).and_then(|options| run_all(&options)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
