//! Command line of the TAQOS benchmark.
//!
//! ```text
//! taqos-benchmark --workload <name> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Prints a human-readable report and, as the last line of standard output,
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` (the default) is the timed run and prints the
//! end-to-end metrics; `--trace 1` is the traced run and prints the
//! per-layer metrics. See `README.md`.

use std::process::ExitCode;
use taqos_benchmark::metrics::Outcome;
use taqos_benchmark::run::{self, TimedReport, TracedReport};
use taqos_benchmark::workload::Workload;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds when `--seconds` is absent.
const DEFAULT_SECONDS: u64 = 30;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn print_metrics(outcome: &Outcome) {
    for (metric, value) in &outcome.metrics {
        println!("  {:<42} {:>18.6} {}", metric.name, value, metric.unit);
    }
}

fn print_timed(report: &TimedReport) {
    print_metrics(&report.outcome);
    let outcome = &report.outcome;
    println!(
        "  {:<42} {:>18.6} ratio ({} failed / {} attempted runs)",
        "run_failure_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("  setup_s is the fastest of {} set-ups", report.setups);
    println!(
        "  the rates sum each window's fastest time over {} timed repetitions; \
         over their mean time cycles_per_s is {:.0}",
        report.reps, report.mean_cycles_per_s
    );
    let rates: Vec<String> = report.rep_rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("  cycles_per_s of each repetition: {}", rates.join(" "));
    println!(
        "host (diagnostics, not folded into the metrics): runq_wait_ms={:.3} probe_ns={:.0}",
        report.host.runq_wait_ms, report.host.probe_ns
    );
}

fn print_traced(report: &TracedReport) {
    println!(
        "  {:<28} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for total in report.spans.totals() {
        println!(
            "  {:<28} {:>7} {:>12.3} {:>12.3}",
            total.name,
            total.count,
            total.total_s * 1e3,
            total.self_s * 1e3
        );
    }
    print_metrics(&report.outcome);
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("taqos-benchmark: {message}");
            eprintln!(
                "usage: taqos-benchmark --workload <name> [--seed N] [--seconds N] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} ({} run)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "timed" }
    );
    let outcome = if args.trace {
        let report = run::traced(args.workload, args.seed);
        print_traced(&report);
        report.outcome
    } else {
        let report = run::timed(args.workload, args.seed, args.seconds);
        print_timed(&report);
        report.outcome
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
