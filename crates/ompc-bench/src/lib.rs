//! # ompc-bench — the paper's figures and three feature figures
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
//! * [`run_ablation`] — the §7 design-choice studies: scheduler choice,
//!   head-node in-flight limit, worker-to-worker forwarding, and NIC
//!   channel count.
//! * [`run_fault_overhead`] — the §3.1 resilience cost: makespan at 0, 1,
//!   and 2 injected worker failures vs. the failure-free run, with
//!   re-execution counts and heartbeat detection latency.
//!
//! Plus the only harness of three features the perf ledger (`benchmark/`)
//! has no row for yet, each on the real backends; their exit codes depend
//! on deterministic facts only, wall times are printed:
//!
//! * [`run_prefetch`] — cross-region prefetch: the resident Awave survey
//!   with per-shot observed-traces payloads at varying prefetch depths.
//! * [`run_multitenant`] — concurrent admission: K client surveys sharing
//!   one device while `max_concurrent_regions` sweeps from strictly serial
//!   to fully overlapped.
//! * [`run_collectives`] — collective data movement: star vs binomial-tree
//!   distribution of one shared buffer to k readers, with exact logged
//!   head-link and total wire bytes.
//!
//! Everything else about performance — dispatch cost per task, spawn and
//! shutdown, telemetry attribution, residency transfer counts — is a row of
//! the perf ledger, not a figure here.
//!
//! Each function returns plain records so the nine binaries can print the
//! rows and write them to `results/*.json`.

pub mod ablation;
pub mod collectives;
pub mod fault;
pub mod figures;
pub mod multitenant;
pub mod prefetch;
pub mod report;
pub mod runtimes;

pub use ablation::{run_ablation, AblationRow};
pub use collectives::{
    collectives_gate_failures, run_collectives, CollectiveRow, CollectiveWorkload,
};
pub use fault::{run_fault_overhead, FaultRow};
pub use figures::{
    run_awave, run_ccr, run_overhead, run_scalability, AwaveRow, CcrRow, OverheadRow,
    ScalabilityRow,
};
pub use multitenant::{run_multitenant, MultitenantRow, MultitenantWorkload};
pub use prefetch::{run_prefetch, PrefetchRow, PrefetchSurvey};
pub use report::{geometric_mean, render_table, rows_to_json_pretty, speedup_summary, JsonRow};
pub use runtimes::{run_all_runtimes, RuntimeKind, RuntimeMeasurement};
