//! Outside-in benchmark of the affidavit library.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pair-large|snapshot|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed` into
//! `.bench_work/` and removed afterwards. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`). The exit code is 0 only when every operation's
//! output was correct. See `perfbench/README.md`.

mod env;
mod inputs;
mod json;
mod metrics;
mod pair_large;
mod replay;
mod serve_mixed;
mod snapshot;
mod stats;
mod trace;

use std::process::ExitCode;

use env::{Args, WorkDir};
use metrics::Run;

/// The workloads, by the name `--workload` takes.
const WORKLOADS: &[&str] = &["pair-large", "snapshot", "serve-mixed"];

fn run(args: &Args) -> Result<Run, String> {
    let work = WorkDir::create(&args.workload, args.seed)?;
    match args.workload.as_str() {
        "pair-large" => pair_large::run(args, work.path()),
        "snapshot" => snapshot::run(args, work.path()),
        "serve-mixed" => serve_mixed::run(args, work.path()),
        other => Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut result = match run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if result.tally.attempted == 0 {
        result.tally.fail("no operation completed".to_owned());
    }
    let context = json::obj(vec![
        ("workload", json::text(&args.workload)),
        ("seed", json::int(args.seed)),
        ("seconds", json::num(args.seconds)),
        ("trace", json::Value::Bool(args.trace)),
        ("machine", env::machine()),
        (
            "inputs",
            json::Value::Array(std::mem::take(&mut result.inputs)),
        ),
    ]);
    println!("# {}", json::render(&context));
    for line in result.notes.iter().chain(&result.log_lines(args.trace)) {
        println!("# {line}");
    }
    for failure in &result.tally.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }
    println!("{}", json::render(&result.result_json(args.trace)));
    if result.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
