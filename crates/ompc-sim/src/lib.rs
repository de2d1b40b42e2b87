//! # ompc-sim — a deterministic discrete-event cluster simulator
//!
//! The experiments in *The OpenMP Cluster Programming Model* (ICPP 2022) run
//! on up to 64 nodes of the Santos Dumont supercomputer (two 24-core CPUs
//! per node, InfiniBand interconnect). Reproducing the *shape* of those
//! experiments on a small host requires a virtual-time model of the cluster:
//! this crate provides it.
//!
//! The simulator is intentionally simple and fully deterministic:
//!
//! * **Virtual time** is kept in integer nanoseconds ([`SimTime`]).
//! * Each **node** owns a pool of cores; compute requests queue FIFO when
//!   all cores are busy.
//! * Each node owns a **NIC** with a configurable number of channels
//!   (modelling the MPICH Virtual Communication Interfaces the paper
//!   enables): a message occupies a channel for its serialization time
//!   (`bytes / bandwidth + per-message overhead`), then experiences the
//!   network latency, then arrives at the destination.
//! * A **simulation process** — the OMPC runtime model or one of the
//!   baseline runtime models — reacts to completions and issues new
//!   commands through a [`SimContext`].
//!
//! The same scheduler, data-manager, and protocol logic that runs on the
//! real threaded cluster (see `ompc-core`) drives the simulated cluster, so
//! simulated results reflect real decisions made by real code, with only
//! compute durations and byte-transfer times supplied by the model.

pub mod config;
pub mod engine;
pub mod resources;
pub mod stats;
pub mod time;

pub use config::{ClusterConfig, NetworkConfig, NodeConfig};
pub use engine::{Command, Completion, Engine, SimContext, SimProcess, Token};
pub use resources::{CorePool, NicChannels};
pub use stats::{NodeStats, SimStats};
pub use time::SimTime;
