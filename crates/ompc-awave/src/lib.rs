//! # ompc-awave — Reverse Time Migration seismic imaging
//!
//! Awave is the real-world application of the OMPC paper's evaluation
//! (§6.2, Fig. 7b): a Reverse Time Migration (RTM) code that images the
//! subsurface by numerically solving the 2-D acoustic wave equation with
//! finite differences, once per *shot* (seismic source position), and
//! correlating the forward-propagated source wavefield with the
//! backward-propagated receiver data. Shots are independent, so OMPC runs
//! one shot per worker node and the application weak-scales almost
//! linearly.
//!
//! The paper uses the Sigsbee and Marmousi velocity models. The original
//! datasets are licensed artifacts that cannot be redistributed, so this
//! crate generates *synthetic* models with the same character (documented
//! in the [`velocity`] module): a Sigsbee-like layered model with a
//! high-velocity salt body, and a Marmousi-like model with strong lateral
//! and vertical velocity variation.
//!
//! The crate provides:
//!
//! * [`VelocityModel`] — procedurally generated Sigsbee-like and
//!   Marmousi-like velocity grids;
//! * [`WaveField`] / [`propagate`] — an 8th-order-in-space,
//!   2nd-order-in-time acoustic finite-difference propagator with sponge
//!   boundaries, one ghost-bordered stencil for every cell (see [`wave`]);
//! * [`rtm_shot`] / [`migrate`] — single-shot RTM and multi-shot image
//!   stacking;
//! * [`workload`] — the abstract shot-per-node workload used to reproduce
//!   Fig. 7(b) on the simulated cluster, and helpers to run real shots on
//!   a [`ompc_core::cluster::ClusterDevice`] over whichever backend it was
//!   built with.

pub mod rtm;
pub mod velocity;
pub mod wave;
pub mod workload;

pub use rtm::{migrate, rtm_shot, RtmImage, RtmParams, Shot};
pub use velocity::{ModelKind, VelocityModel};
pub use wave::{propagate, ricker_wavelet, PropagationParams, WaveField};
pub use workload::{
    awave_workload, estimate_shot_cost, run_shots_on_cluster, run_shots_resident,
    run_shots_resident_traced, AwaveWorkloadConfig,
};
