//! The collective data-movement figure: star vs binomial-tree distribution
//! of one shared read-only buffer to k readers, fanout sweep on the real
//! cluster. Writes `results/collectives.json`.
//!
//! Usage: `cargo run --release -p ompc-bench --bin collectives [--smoke]`
//!
//! `--smoke` shrinks the workload for CI and enforces the gate: at fanout
//! 8 the tree must at least halve the head-link bytes of the star run, or
//! the process exits non-zero. Wall time is the printed
//! `vs star` column.

use ompc_bench::{
    collectives_gate_failures, render_table, rows_to_json_pretty, run_collectives,
    CollectiveWorkload,
};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let workload = if smoke { CollectiveWorkload::smoke() } else { CollectiveWorkload::full() };
    let fanouts = workload.fanouts(smoke);

    eprintln!(
        "# Collective distribution: {} KiB shared payload, {} KiB frames, {} MiB/s \
         emulated links, fanouts {:?}",
        workload.payload_len * 8 / 1024,
        workload.chunk_kib,
        workload.link_mib_per_s,
        fanouts,
    );
    let rows = run_collectives(workload, &fanouts);

    let header = vec![
        "backend".to_string(),
        "fanout".to_string(),
        "mode".to_string(),
        "seconds".to_string(),
        "vs star".to_string(),
        "head KiB".to_string(),
        "total KiB".to_string(),
    ];
    let star_seconds = |row: &ompc_bench::CollectiveRow| {
        rows.iter()
            .find(|r| r.backend == row.backend && r.fanout == row.fanout && r.mode == "star")
            .map_or(f64::NAN, |r| r.seconds)
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.backend.name().to_string(),
                r.fanout.to_string(),
                r.mode.to_string(),
                format!("{:.4}", r.seconds),
                format!("{:.2}x", star_seconds(r) / r.seconds),
                format!("{}", r.head_bytes / 1024),
                format!("{}", r.total_bytes / 1024),
            ]
        })
        .collect();
    println!();
    print!("{}", render_table(&header, &table));
    println!(
        "\nThe star sources every copy from the head, so its link carries k full \
         payloads; the binomial tree drains the head after ceil(log2(k+1)) copies \
         and recipients relay the rest in pipelined frames. Byte columns are the \
         region's logged wire bytes for the shared buffer — exact, not modelled. \
         Results are byte-checked across modes."
    );

    std::fs::create_dir_all("results").ok();
    std::fs::write("results/collectives.json", rows_to_json_pretty(&rows))
        .expect("write collectives");
    eprintln!("wrote results/collectives.json ({} rows)", rows.len());

    if smoke {
        let failures = collectives_gate_failures(&rows);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("collectives gate: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("tree halves the fanout-8 head link — gate passed");
    }
}
