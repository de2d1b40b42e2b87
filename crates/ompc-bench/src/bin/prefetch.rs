//! The cross-region prefetch figure: the resident Awave survey with
//! per-shot observed-traces payloads, pipelined at varying prefetch
//! depths on the real cluster. Writes `results/prefetch.json`.
//!
//! Usage: `cargo run --release -p ompc-bench --bin prefetch [--smoke]`
//!
//! `--smoke` shrinks the survey for CI. The process fails only on
//! deterministic facts — a depth that changes the stacked image or plans
//! bytes above the no-duplication ceiling; the overlap win is the printed
//! `vs sync` column.

use ompc_bench::{render_table, rows_to_json_pretty, run_prefetch, PrefetchSurvey};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let survey = if smoke { PrefetchSurvey::smoke() } else { PrefetchSurvey::full() };
    let depths: &[usize] = &[0, 1, 2, 3];

    eprintln!(
        "# Cross-region prefetch: {} shots of a {}x{} survey, nt={}, {} MiB payload per shot",
        survey.shots,
        survey.nx,
        survey.nz,
        survey.nt,
        survey.payload_len * 8 / (1 << 20),
    );
    let rows = run_prefetch(survey, depths);

    let header = vec![
        "backend".to_string(),
        "depth".to_string(),
        "shots".to_string(),
        "bytes".to_string(),
        "seconds".to_string(),
        "vs sync".to_string(),
    ];
    let sync_seconds = |backend| {
        rows.iter()
            .find(|r| r.backend == backend && r.depth == 0)
            .map(|r| r.seconds)
            .unwrap_or(f64::NAN)
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.backend.name().to_string(),
                r.depth.to_string(),
                r.shots.to_string(),
                r.transfer_bytes.to_string(),
                format!("{:.4}", r.seconds),
                format!("{:.2}x", sync_seconds(r.backend) / r.seconds),
            ]
        })
        .collect();
    println!();
    print!("{}", render_table(&header, &table));
    println!(
        "\nDepth 0 distributes each shot's payload only once its region runs; depth ≥ 1 \
         streams queued payloads on the transfer pool while earlier shots compute. The \
         planned bytes stay under the no-duplication ceiling at every depth — a prefetch \
         never re-sends a resident copy."
    );

    std::fs::create_dir_all("results").ok();
    std::fs::write("results/prefetch.json", rows_to_json_pretty(&rows)).expect("write prefetch");
    eprintln!("wrote results/prefetch.json ({} rows)", rows.len());
}
