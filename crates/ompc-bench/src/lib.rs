//! # ompc-bench — the paper's figures and one feature figure
//!
//! One function per figure of the paper's evaluation (§6), all on the
//! simulated cluster:
//!
//! * [`run_scalability`] — Fig. 5: execution time vs. node count (2–64) for
//!   Trivial / Tree / Stencil-1D / FFT Task Bench graphs under OMPC,
//!   Charm++-like, StarPU-like, and synchronous-MPI execution.
//! * [`run_ccr`] — Fig. 6: execution time at 16 nodes while the
//!   computation-to-communication ratio sweeps over 0.5 / 1.0 / 2.0.
//! * [`run_overhead`] — Fig. 7(a): start-up / scheduling / shutdown
//!   overhead as a fraction of wall time while the per-task workload grows
//!   from 1K to 100M iterations.
//! * [`run_awave`] — Fig. 7(b): Awave weak-scaling speedup on Sigsbee-like
//!   and Marmousi-like surveys, one shot per worker node.
//! * [`run_ablation`] — the §7 design-choice studies: scheduler choice (on
//!   three Task Bench shapes where it shows), head-node in-flight limit,
//!   worker-to-worker forwarding, and NIC channel count.
//! * [`run_fault_overhead`] — the §3.1 resilience cost: makespan at 0, 1,
//!   and 2 injected worker failures vs. the failure-free run, with
//!   re-execution counts and heartbeat detection latency.
//!
//! Plus [`run_multitenant`], the only harness of a feature the perf ledger
//! (`benchmark/`) has no row for yet, on the real backend: concurrent
//! admission, K client surveys sharing one device while
//! `max_concurrent_regions` sweeps from strictly serial to fully overlapped.
//! Its exit code depends on deterministic facts only; wall times are
//! printed.
//!
//! Everything else about performance — dispatch cost per task, spawn and
//! shutdown, telemetry attribution, residency transfer counts — is a row of
//! the perf ledger, not a figure here.
//!
//! The crate's one binary prints the figures and writes each one's rows to
//! `results/<name>.json`. `cargo run --release -p ompc-bench` prints the
//! six deterministic [`FIGURES`] (`fig5`, `fig6`, `fig7a`, `fig7b`,
//! `ablation`, `fault`) in that order; `-- <name>...` prints only the named
//! ones, and `-- multitenant [--smoke]` the admission figure. Every
//! deterministic figure's text is pinned byte for byte by
//! `tests/figures_golden.rs`.

pub mod ablation;
pub mod fault;
pub mod figures;
pub mod multitenant;
pub mod report;
pub mod runtimes;

pub use ablation::{run_ablation, AblationRow};
pub use fault::{run_fault_overhead, FaultRow};
pub use figures::{
    run_awave, run_ccr, run_overhead, run_scalability, AwaveRow, CcrRow, OverheadRow,
    ScalabilityRow,
};
pub use multitenant::{run_multitenant, MultitenantRow, MultitenantWorkload};
pub use report::{Figure, JsonRow};
pub use runtimes::{run_all_runtimes, RuntimeKind, RuntimeMeasurement};

/// The deterministic figures, in the order the binary prints them.
pub const FIGURES: [&str; 6] = ["fig5", "fig6", "fig7a", "fig7b", "ablation", "fault"];

/// The deterministic figure called `name`, one of [`FIGURES`].
pub fn figure(name: &str) -> Option<Figure> {
    Some(match name {
        "fig5" => figures::fig5(),
        "fig6" => figures::fig6(),
        "fig7a" => figures::fig7a(),
        "fig7b" => figures::fig7b(),
        "ablation" => ablation::figure(),
        "fault" => fault::figure(),
        _ => return None,
    })
}
