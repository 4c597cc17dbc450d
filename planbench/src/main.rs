//! `planbench`: the planning benchmark.
//!
//! ```text
//! planbench --workload offline_full|serve_cold|serve_hot --seed N
//!           --seconds S --trace 0|1 --daemon PATH --work-dir DIR
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer ones; the last line of standard output is the result
//! as one JSON object. `--daemon` is the `xhybrid` binary the serve
//! workloads start; `--work-dir` holds their plan stores. The exit code
//! is non-zero when any output check failed.

mod daemon;
mod http;
mod layers;
mod loadgen;
mod metrics_page;
mod offline;
mod report;
mod serve;
mod sock;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Workload profile names of the paper's circuits, in metric order.
pub const CIRCUITS: [&str; 3] = ["ckt-a", "ckt-b", "ckt-c"];
/// Metric-name suffixes of the circuits.
pub const SUFFIXES: [&str; 3] = ["ckt_a", "ckt_b", "ckt_c"];

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a number"))
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed needs an unsigned integer".to_string())?,
        seconds: number("--seconds")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        daemon: PathBuf::from(value("--daemon")?),
        work_dir: PathBuf::from(value("--work-dir")?),
    })
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    eprintln!(
        "planbench: {} seed {} for {}s, trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    match (args.workload.as_str(), args.trace) {
        ("offline_full", false) => {
            offline::run(args, report);
            Ok(())
        }
        ("offline_full", true) => offline::run_traced(args, report),
        ("serve_cold", false) => serve::run(args, serve::COLD, report),
        ("serve_cold", true) => serve::run_traced(args, serve::COLD, report),
        ("serve_hot", false) => serve::run(args, serve::HOT, report),
        ("serve_hot", true) => serve::run_traced(args, serve::HOT, report),
        (other, _) => Err(format!("unknown workload `{other}`")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("planbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("planbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args, &mut report);
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if let Err(e) = outcome {
        eprintln!("planbench: {e}");
        return ExitCode::FAILURE;
    }
    if args.trace {
        report.put(
            "error_rate",
            report.failed as f64 / report.attempted.max(1) as f64,
            "ratio",
        );
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
