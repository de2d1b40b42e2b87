//! Platform description used by the schedulers' cost estimates.

/// A homogeneous-or-heterogeneous set of processors connected by a uniform
/// interconnect, as seen by a static scheduler.
///
/// In OMPC a "processor" is a cluster node (the paper's abstraction: a core
/// in OpenMP corresponds to a node in OMPC); the communication parameters
/// describe the MPI path between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Relative speed of each processor; a task of cost `c` takes
    /// `c / speed[p]` seconds on processor `p`.
    pub speeds: Vec<f64>,
    /// Fixed per-message communication start-up cost in seconds.
    pub latency: f64,
    /// Interconnect bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl Platform {
    /// A homogeneous platform of `procs` unit-speed processors with the
    /// given interconnect parameters.
    pub fn homogeneous(procs: usize, latency: f64, bandwidth: f64) -> Self {
        assert!(procs > 0, "platform needs at least one processor");
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        Self { speeds: vec![1.0; procs], latency, bandwidth }
    }

    /// A homogeneous platform with an InfiniBand-like interconnect
    /// (2 µs latency, 12.5 GB/s), matching `ompc_sim::NetworkConfig::infiniband`.
    pub fn cluster(procs: usize) -> Self {
        Self::homogeneous(procs, 3e-6, 12.5e9)
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.speeds.len()
    }

    /// Execution time of a task of `cost` seconds on processor `proc`.
    pub fn compute_time(&self, cost: f64, proc: usize) -> f64 {
        cost / self.speeds[proc]
    }

    /// Average execution time of a task across all processors (the quantity
    /// HEFT uses for upward ranks).
    pub fn mean_compute_time(&self, cost: f64) -> f64 {
        let total: f64 = self.speeds.iter().map(|s| cost / s).sum();
        total / self.speeds.len() as f64
    }

    /// Communication time for `bytes` between two *different* processors;
    /// zero if `from == to`.
    pub fn comm_time(&self, bytes: u64, from: usize, to: usize) -> f64 {
        if from == to {
            0.0
        } else {
            self.remote_comm_time(bytes)
        }
    }

    /// Communication time for `bytes` over the interconnect, whichever two
    /// distinct processors it joins (the interconnect is uniform).
    pub fn remote_comm_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// Average communication time for `bytes` between two distinct
    /// processors (used by HEFT ranks, which are placement independent).
    pub fn mean_comm_time(&self, bytes: u64) -> f64 {
        if self.num_procs() <= 1 {
            0.0
        } else {
            self.remote_comm_time(bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_platform_times() {
        let p = Platform::homogeneous(4, 1e-6, 1e9);
        assert_eq!(p.num_procs(), 4);
        assert!((p.compute_time(2.0, 3) - 2.0).abs() < 1e-12);
        assert!((p.mean_compute_time(2.0) - 2.0).abs() < 1e-12);
        assert!((p.comm_time(1_000_000, 0, 1) - (1e-6 + 1e-3)).abs() < 1e-9);
        assert_eq!(p.comm_time(1_000_000, 2, 2), 0.0);
    }

    #[test]
    fn heterogeneous_speeds_scale_compute_time() {
        let p = Platform { speeds: vec![1.0, 2.0], latency: 0.0, bandwidth: 1e9 };
        assert!((p.compute_time(4.0, 0) - 4.0).abs() < 1e-12);
        assert!((p.compute_time(4.0, 1) - 2.0).abs() < 1e-12);
        assert!((p.mean_compute_time(4.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_proc_platform_never_communicates() {
        let p = Platform::homogeneous(1, 1e-6, 1e9);
        assert_eq!(p.mean_comm_time(1 << 30), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn empty_platform_rejected() {
        let _ = Platform::homogeneous(0, 0.0, 1.0);
    }
}
