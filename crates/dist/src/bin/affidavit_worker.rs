//! `affidavit-worker` — steal and execute jobs from a coordinator.
//!
//! ```text
//! affidavit-worker --connect HOST:PORT
//!                  [--worker-id NAME] [--poll-ms N] [--reconnect-attempts N]
//! ```
//!
//! The worker loops forever: claim the next pending job (one framed TCP
//! exchange with the coordinator's lease table), run the search, deliver
//! the result, repeat. It exits successfully once the coordinator
//! requests stop (any still-pending jobs belong to an aborting run or are
//! straggler retries, and are abandoned). Any number of workers —
//! spawned by `affidavit profile --workers N`, or started by hand against
//! the coordinator's `--listen` address — can serve one run; the
//! coordinator's output does not depend on how many there are.
//!
//! If the coordinator disappears mid-run, the worker probes for it with
//! exponential backoff for `--reconnect-attempts` rounds, resuming where
//! it left off when the coordinator returns. A coordinator that stays
//! gone terminates the worker with **exit code 3** (`1` is reserved for
//! usage and fatal errors), so a supervisor can distinguish "lost my
//! coordinator" from "misconfigured".

use std::process::ExitCode;
use std::time::Duration;

use affidavit_dist::{
    run_worker_with_reconnect, Broker, TcpClient, WorkerExit, BROKER_LOST_EXIT_CODE,
};

const USAGE: &str = "usage: affidavit-worker --connect HOST:PORT \
                     [--worker-id NAME] [--poll-ms N] [--reconnect-attempts N]";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("affidavit-worker: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    let mut connect: Option<String> = None;
    let mut worker_id = format!("pid-{}", std::process::id());
    let mut poll_ms: u64 = 10;
    let mut reconnect_attempts: usize = 6;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => connect = Some(it.next().ok_or(USAGE)?),
            "--worker-id" => worker_id = it.next().ok_or(USAGE)?,
            "--poll-ms" => {
                poll_ms = it
                    .next()
                    .ok_or(USAGE)?
                    .parse()
                    .map_err(|_| "--poll-ms expects milliseconds")?;
            }
            "--reconnect-attempts" => {
                reconnect_attempts = it
                    .next()
                    .ok_or(USAGE)?
                    .parse()
                    .map_err(|_| "--reconnect-attempts expects a count")?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let poll = Duration::from_millis(poll_ms.max(1));
    let client = TcpClient::new(connect.ok_or(USAGE)?);
    let probe = || client.ping();
    match run_worker_with_reconnect(
        &Broker::new(client.clone()),
        &probe,
        &worker_id,
        poll,
        reconnect_attempts,
    ) {
        WorkerExit::Completed(stats) => {
            eprintln!(
                "affidavit-worker {worker_id}: {} jobs processed ({} failed)",
                stats.processed, stats.failed
            );
            Ok(ExitCode::SUCCESS)
        }
        WorkerExit::BrokerLost { attempts, error } => {
            eprintln!(
                "affidavit-worker {worker_id}: broker lost ({error}); gave up \
                 after {attempts} reconnect attempts"
            );
            Ok(ExitCode::from(BROKER_LOST_EXIT_CODE))
        }
    }
}
