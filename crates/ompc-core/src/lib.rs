//! # ompc-core — the OMPC runtime
//!
//! A Rust reproduction of the runtime described in *The OpenMP Cluster
//! Programming Model* (Yviquel et al., ICPP 2022): a task-parallel
//! programming model in which annotated regions of code are offloaded to
//! the nodes of a cluster, with an MPI-based event system, automatic data
//! management, and HEFT static scheduling hidden behind OpenMP-style task
//! dependences.
//!
//! The crate provides two execution modes over **one** execution core. The
//! [`runtime`] module owns the shared OMPC protocol — static scheduling
//! consumed through a single interface ([`runtime::RuntimePlan`]), the
//! pipelined bounded-window dispatch loop ([`runtime::RuntimeCore`]), and
//! data-manager-driven forwarding — parameterized over an
//! [`runtime::ExecutionBackend`]:
//!
//! * **Real mode** — [`cluster::ClusterDevice`] spawns one OS thread per
//!   worker node, communicates through the in-process MPI substrate
//!   (`ompc-mpi`), and executes real Rust kernels via
//!   [`runtime::MpiBackend`]. This is the mode the examples and integration
//!   tests use.
//! * **Simulated mode** — [`sim_runtime::simulate_ompc`] drives the same
//!   core over the deterministic virtual cluster of `ompc-sim` via
//!   [`runtime::SimBackend`], which is how the paper's 2–64-node
//!   experiments are regenerated on a small host.
//!
//! ## Module map (mirrors Fig. 2 and §4 of the paper)
//!
//! | Paper component | Module |
//! |---|---|
//! | OpenMP `target` front end (Listing 1) | [`region`], [`task`] |
//! | libomptarget agnostic layer + data maps | [`buffer`], [`data_manager`] |
//! | OMPC device plugin & event system (§4.2) | [`event`], [`protocol`], [`worker`] |
//! | HEFT task scheduler (§4.4) | `ompc-sched`, glued in [`model`], [`config`] |
//! | Unified execution core (§3.1 + §7 dispatch window) | [`runtime`] |
//! | Head-node orchestration (§3.1) | [`cluster`] (façade over [`runtime`]) |
//! | Fault tolerance (§3.1): injection / heartbeat detection / recovery | [`runtime::fault`], [`heartbeat`] |
//! | Virtual-cluster execution (§6 experiments) | [`sim_runtime`] (façade over [`runtime`]) |
//!
//! ## Quickstart
//!
//! ```
//! use ompc_core::prelude::*;
//!
//! let mut device = ClusterDevice::spawn(2);
//! let axpy = device.register_kernel_fn("axpy", 1e-6, |args| {
//!     let x = args.as_f64s(0);
//!     let mut y = args.as_f64s(1);
//!     for (yi, xi) in y.iter_mut().zip(&x) {
//!         *yi += 2.0 * xi;
//!     }
//!     args.set_f64s(1, &y);
//! });
//!
//! let mut region = device.target_region();
//! let x = region.map_to_f64s(&[1.0, 2.0]);
//! let y = region.map_to_f64s(&[10.0, 20.0]);
//! region.target(axpy, vec![Dependence::input(x), Dependence::inout(y)]);
//! region.map_from(y);
//! region.run().unwrap();
//! assert_eq!(device.buffer_f64s(y).unwrap(), vec![12.0, 24.0]);
//! device.shutdown();
//! ```

pub mod buffer;
pub mod cluster;
pub mod config;
pub mod data_manager;
pub mod event;
pub mod heartbeat;
pub mod kernel;
pub mod model;
pub mod protocol;
pub mod region;
pub mod runtime;
pub mod sim_runtime;
pub mod stats;
pub mod task;
pub mod types;
pub mod worker;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use crate::buffer::BufferRegistry;
    pub use crate::cluster::ClusterDevice;
    pub use crate::config::{BackendKind, OmpcConfig, OverheadModel, SchedulerKind};
    pub use crate::data_manager::{DataManager, TransferReason, TransferRecord};
    pub use crate::kernel::{FnKernel, Kernel, KernelArgs, KernelRegistry};
    pub use crate::model::WorkloadGraph;
    pub use crate::region::TargetRegion;
    pub use crate::runtime::{
        chrome_trace, clock_reads, critical_path, overhead_attribution, Attribution,
        ExecutionBackend, FailureRecord, FaultPlan, FaultTrigger, MpiBackend, ReplanEntry,
        ResidencyMap, RunRecord, RuntimeCore, RuntimePlan, SimBackend, Span, SpanPhase, TaskEvent,
        Telemetry, TelemetryLevel,
    };
    pub use crate::sim_runtime::{
        simulate_ompc, simulate_ompc_outcome, simulate_ompc_with_plan, OmpcSimOutcome,
        OmpcSimResult,
    };
    pub use crate::stats::{DeviceReport, RegionReport};
    pub use crate::task::{RegionGraph, TaskKind};
    pub use crate::types::{
        BufferId, Dependence, DependenceType, KernelId, MapType, NodeId, OmpcError, OmpcResult,
        TaskId,
    };
}

pub use prelude::*;
