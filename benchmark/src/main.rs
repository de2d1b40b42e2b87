//! `ompc-perf`: the repository's performance ledger. One command measures
//! five workloads end to end with tracing off and checks every output; a
//! separate traced run times each layer of the runtime from outside. See
//! `README.md` beside this package for the workloads, the metrics, and how
//! the two relate.

mod aa;
mod cli;
mod layers;
mod runner;
mod spans;
mod stats;
mod workloads;

use cli::{Command, RunArgs};
use ompc_core::prelude::TelemetryLevel;
use ompc_json::Json;
use runner::Report;
use workloads::Sizing;

/// Samples a measured run must reach even when the time budget is spent
/// (the simulator's samples are several seconds each).
const MIN_SAMPLES: usize = 3;

/// Measure (or trace) in this process, print the table, and return each
/// report's result line under its name.
fn run_here(args: &RunArgs) -> Vec<(String, Json)> {
    match stats::pin_to_one_cpu() {
        Some(cpu) => eprintln!("[ompc-perf] pinned to CPU {cpu}"),
        None => eprintln!("[ompc-perf] could not pin to one CPU; timings will be noisier"),
    }
    stats::settle_allocator();
    let sizing = if args.smoke { Sizing::Smoke } else { Sizing::Full };
    let reports: Vec<Report> = if args.trace {
        vec![layers::traced_run(args.seed, sizing, &args.workloads)]
    } else {
        // A smoke run stops after its first block that reaches MIN_SAMPLES.
        let seconds = if args.smoke { 0.0 } else { args.seconds };
        let measure = |&name: &&'static str| {
            eprintln!("[ompc-perf] {name}: seed {}, {seconds} s ...", args.seed);
            let build = || workloads::build(name, args.seed, sizing, TelemetryLevel::Off);
            runner::measure(name, &build, seconds, MIN_SAMPLES)
        };
        args.workloads.iter().map(measure).collect()
    };
    println!("{:<18} {:<44} {:>16} {:<8} {:>3}", "workload", "metric", "value", "unit", "n");
    for report in &reports {
        for m in &report.metrics {
            println!(
                "{:<18} {:<44} {:>16.6} {:<8} {:>3}",
                report.workload, m.name, m.value, m.unit, m.n
            );
        }
        println!(
            "{:<18} operations: {} attempted, {} failed",
            report.workload, report.attempted, report.failed
        );
        for error in &report.errors {
            println!("{:<18} FAILED: {error}", report.workload);
        }
    }
    // Last on stdout: one result object per report, the form the
    // acceptance driver reads.
    for report in &reports {
        println!("{}", report.result_line());
    }
    reports.iter().map(|r| (r.workload.clone(), r.result_line())).collect()
}

/// Measure each workload in a process of its own, the way the acceptance
/// driver does: memory a workload leaves behind in the allocator would
/// otherwise show in the next one's `peak_rss_mib` and timings.
fn run_in_children(args: &RunArgs) -> Vec<(String, Json)> {
    let mut results = Vec::new();
    for &name in &args.workloads {
        match aa::run_in_child(name, args.seed, args.seconds, args.smoke) {
            Ok((stdout, result)) => {
                print!("{stdout}");
                results.push((name.to_string(), result));
            }
            Err(e) => {
                eprintln!("error: {name}: {e}");
                results.push((name.to_string(), Json::obj([("correct", Json::Bool(false))])));
            }
        }
    }
    results
}

fn report_document(args: &RunArgs, results: &[(String, Json)]) -> Json {
    let tool = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    Json::obj([
        ("seed", Json::u64(args.seed)),
        ("seconds", Json::num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("nproc", Json::usize(std::thread::available_parallelism().map_or(0, |n| n.get()))),
        ("rustc", Json::str(tool("rustc", &["--version"]))),
        ("git_rev", Json::str(tool("git", &["rev-parse", "HEAD"]))),
        ("results", Json::Obj(results.iter().cloned().collect())),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let ok = match command {
        Command::Run(args) => {
            let results = if args.workloads.len() > 1 && !args.trace {
                run_in_children(&args)
            } else {
                run_here(&args)
            };
            if let Some(path) = &args.out {
                let doc = report_document(&args, &results).to_string_pretty();
                if let Err(e) = std::fs::write(path, doc + "\n") {
                    eprintln!("error: cannot write {path}: {e}");
                    std::process::exit(2);
                }
            }
            results.iter().all(|(_, r)| r.get("correct").and_then(Json::as_bool) == Some(true))
        }
        Command::Aa(args) => aa::run(&args),
    };
    std::process::exit(if ok { 0 } else { 1 });
}
