//! The multi-tenant admission figure: aggregate throughput of K client
//! surveys sharing one device as `max_concurrent_regions` sweeps from
//! strictly serial to fully overlapped. Writes `results/multitenant.json`.
//!
//! Usage: `cargo run --release -p ompc-bench --bin multitenant [--smoke]`
//!
//! `--smoke` shrinks the workload for CI. The process fails only if an
//! admission limit changes a tenant's results; the throughput win is the
//! printed `vs serial` column.

use ompc_bench::{render_table, rows_to_json_pretty, run_multitenant, MultitenantWorkload};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let workload = if smoke { MultitenantWorkload::smoke() } else { MultitenantWorkload::full() };
    let limits: &[usize] = &[1, 2, workload.clients];

    eprintln!(
        "# Multi-tenant admission: {} clients x {} regions, {} ms service time, {} workers",
        workload.clients, workload.regions_per_client, workload.service_ms, workload.workers,
    );
    let rows = run_multitenant(workload, limits);

    let header = vec![
        "limit".to_string(),
        "clients".to_string(),
        "regions".to_string(),
        "seconds".to_string(),
        "regions/s".to_string(),
        "vs serial".to_string(),
    ];
    let serial = rows.iter().find(|r| r.limit == 1).map(|r| r.regions_per_second);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.limit.to_string(),
                r.clients.to_string(),
                r.regions.to_string(),
                format!("{:.4}", r.seconds),
                format!("{:.1}", r.regions_per_second),
                format!("{:.2}x", r.regions_per_second / serial.unwrap_or(f64::NAN)),
            ]
        })
        .collect();
    println!();
    print!("{}", render_table(&header, &table));
    println!(
        "\nAt limit 1 the admission gate serializes the tenants FIFO; at limit >= 2 \
         overlapped tenants are planned around each other's in-flight load onto \
         distinct workers, so their service times overlap. Results are byte-checked \
         across limits — admission is a throughput knob, never a results knob."
    );

    std::fs::create_dir_all("results").ok();
    std::fs::write("results/multitenant.json", rows_to_json_pretty(&rows))
        .expect("write multitenant");
    eprintln!("wrote results/multitenant.json ({} rows)", rows.len());
}
