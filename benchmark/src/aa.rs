//! `aa`: the same code measured as several sets of fresh processes, in
//! alternation, compared against the benchmark's own bounds. Two sets of
//! one run each is the quick check; `--runs 10` is the acceptance driver's
//! procedure (ten seeds per set, quartile spread and median drift).

use crate::cli::AaArgs;
use crate::layers::host_spin;
use crate::runner::END_TO_END;
use crate::stats::{iqr_share, median};
use crate::workloads::WORKLOADS;
use ompc_json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// One `run` of one workload in a process of its own, as the acceptance
/// driver starts it: everything it printed, and its result line parsed.
pub fn run_in_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["run", "--workload", workload, "--seed", &seed.to_string()]);
    command.args(["--seconds", &seconds.to_string()]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let result = Json::parse(line).map_err(|e| format!("{e}: {line}"))?;
    Ok((stdout, result))
}

/// The end-to-end metrics of a child's result line by name, or why there
/// are none.
fn metric_values(result: &Json) -> Result<BTreeMap<String, f64>, String> {
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("the run failed: {result}"));
    }
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err("the result line has no metrics".into());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric without a value")?;
            Ok((name.clone(), value))
        })
        .collect()
}

/// Run the comparison, print (and optionally write) the table, and return
/// whether every pair of sets agrees within the bounds.
pub fn run(args: &AaArgs) -> bool {
    // values[(workload, metric)][set] = one value per run
    let mut values: BTreeMap<(&str, &str), Vec<Vec<f64>>> = BTreeMap::new();
    let mut spins: Vec<Vec<f64>> = vec![Vec::new(); args.sets];
    let mut ok = true;
    for run in 0..args.runs {
        for (set, spin) in spins.iter_mut().enumerate() {
            spin.push(host_spin().0);
            for (workload, _) in WORKLOADS {
                eprintln!("[ompc-perf aa] run {} set {} {workload}", run + 1, set + 1);
                let child = run_in_child(workload, run as u64 + 1, args.seconds, args.smoke);
                match child.and_then(|(_, result)| metric_values(&result)) {
                    Ok(metrics) => {
                        for (metric, _, _) in END_TO_END {
                            let slot = values
                                .entry((workload, metric))
                                .or_insert_with(|| vec![Vec::new(); args.sets]);
                            slot[set].push(metrics.get(metric).copied().unwrap_or(f64::NAN));
                        }
                    }
                    Err(e) => {
                        eprintln!("[ompc-perf aa] {workload}: {e}");
                        ok = false;
                    }
                }
            }
        }
    }

    let mut table = String::new();
    let _ = writeln!(
        table,
        "| workload | metric | {} | drift | worst spread | bound | verdict |",
        (1..=args.sets).map(|s| format!("set {s} median")).collect::<Vec<_>>().join(" | ")
    );
    let _ = writeln!(table, "|---|---|{}---|---|---|---|", "---|".repeat(args.sets));
    for (workload, _) in WORKLOADS {
        for (metric, unit, bound) in END_TO_END {
            let Some(sets) = values.get(&(workload, metric)) else { continue };
            if sets.iter().any(|s| s.len() != args.runs || s.iter().any(|v| !v.is_finite())) {
                ok = false;
                continue;
            }
            let medians: Vec<f64> = sets.iter().map(|s| median(s)).collect();
            let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = medians.iter().copied().fold(0.0, f64::max);
            let drift = (hi - lo) / lo;
            // The driver exempts setup_s from the spread rule, not from drift.
            let spread =
                (args.runs >= 2).then(|| sets.iter().map(|s| iqr_share(s)).fold(0.0, f64::max));
            let within =
                drift <= bound && (metric == "setup_s" || spread.is_none_or(|s| s <= bound));
            ok &= within;
            let _ = writeln!(
                table,
                "| {workload} | {metric} ({unit}) | {} | {:.2} % | {} | {:.0} % | {} |",
                medians.iter().map(|m| format!("{m:.4}")).collect::<Vec<_>>().join(" | "),
                drift * 100.0,
                spread.map_or("-".to_string(), |s| format!("{:.2} %", s * 100.0)),
                bound * 100.0,
                if within { "ok" } else { "EXCEEDED" },
            );
        }
    }
    let _ = writeln!(
        table,
        "\nhost.spin_ns_per_iter per set (median of {} readings): {}",
        args.runs,
        spins.iter().map(|s| format!("{:.3}", median(s))).collect::<Vec<_>>().join(", ")
    );
    print!("{table}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &table) {
            eprintln!("error: cannot write {path}: {e}");
            return false;
        }
    }
    ok
}
