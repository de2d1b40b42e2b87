//! # ompc — the OpenMP Cluster programming model in Rust
//!
//! This is the facade crate of the workspace: it re-exports the crates that
//! make up the reproduction of *The OpenMP Cluster Programming Model*
//! (Yviquel et al., ICPP 2022) so examples, integration tests, and
//! downstream users can depend on a single crate.
//!
//! * [`mpi`] — in-process MPI-like message passing (ranks, tags,
//!   communicators, point-to-point).
//! * [`sim`] — deterministic discrete-event cluster simulator.
//! * [`sched`] — HEFT and the baseline schedulers.
//! * [`runtime`] — the OMPC runtime itself: cluster device, target regions,
//!   event system, data manager, simulated runtime.
//! * [`taskbench`] — the Task Bench workload generator.
//! * [`baselines`] — the Charm++-like, StarPU-like, and synchronous-MPI
//!   runtime models used for comparison.
//! * [`awave`] — the RTM seismic-imaging application.
//!
//! ```
//! use ompc::prelude::*;
//!
//! let mut device = ClusterDevice::spawn(2);
//! let double = device.register_kernel_fn("double", 1e-6, |args| {
//!     let v: Vec<f64> = args.as_f64s(0).iter().map(|x| 2.0 * x).collect();
//!     args.set_f64s(0, &v);
//! });
//! let mut region = device.target_region();
//! let a = region.map_to_f64s(&[1.0, 2.0, 3.0]);
//! region.target(double, vec![Dependence::inout(a)]);
//! region.map_from(a);
//! region.run().unwrap();
//! assert_eq!(device.buffer_f64s(a).unwrap(), vec![2.0, 4.0, 6.0]);
//! device.shutdown();
//! ```

pub use ompc_awave as awave;
pub use ompc_baselines as baselines;
pub use ompc_core as runtime;
pub use ompc_mpi as mpi;
pub use ompc_sched as sched;
pub use ompc_sim as sim;
pub use ompc_taskbench as taskbench;

/// The most commonly used types across the workspace.
pub mod prelude {
    pub use ompc_core::prelude::*;
}
