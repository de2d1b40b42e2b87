//! Execution reports produced by the runtime, used to reproduce the
//! overhead characterization of Fig. 7(a).

use std::time::Duration;

/// Timing breakdown of one target-region execution on the real cluster
/// device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionReport {
    /// The region epoch the data manager assigned this execution (the
    /// tenant id under concurrent admission); `0` only for the default
    /// report of an empty region, which never entered the data manager.
    pub region: u64,
    /// Time spent building and statically scheduling the task graph.
    pub schedule_time: Duration,
    /// Time spent dispatching and executing the tasks (barrier to last
    /// completion).
    pub execution_time: Duration,
    /// Number of tasks executed.
    pub tasks_executed: usize,
    /// Number of target (kernel) tasks executed on worker nodes.
    pub target_tasks: usize,
    /// Highest number of simultaneously in-flight tasks the execution
    /// core's dispatch window reached (bounded by
    /// [`crate::config::OmpcConfig::max_inflight_tasks`]).
    pub peak_in_flight: usize,
    /// Number of data-movement events issued (submit, retrieve, exchange).
    pub data_events: usize,
    /// Total bytes moved between nodes (including head ↔ worker).
    pub bytes_moved: u64,
    /// Number of worker-node failures declared during the region (always 0
    /// without an injected [`crate::runtime::fault::FaultPlan`]).
    pub failures: usize,
    /// Number of distinct tasks executed more than once by fault recovery.
    pub reexecuted_tasks: usize,
}

impl RegionReport {
    /// Total wall time attributed to the region.
    pub fn total_time(&self) -> Duration {
        self.schedule_time + self.execution_time
    }

    /// Fraction of the total time spent in scheduling.
    pub fn schedule_fraction(&self) -> f64 {
        let total = self.total_time().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.schedule_time.as_secs_f64() / total
        }
    }
}

/// Lifetime timing of the whole cluster device (start-up and shutdown), the
/// remaining components of the Fig. 7(a) overhead breakdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceReport {
    /// Time from device creation to all worker event pools being ready.
    pub startup_time: Duration,
    /// Time from the shutdown request to all worker threads having joined.
    pub shutdown_time: Duration,
    /// Reports of every region executed on the device, in order.
    pub regions: Vec<RegionReport>,
}

impl DeviceReport {
    /// Total wall time spent in runtime overhead (start-up, shutdown and
    /// scheduling) across the device lifetime.
    pub fn overhead_time(&self) -> Duration {
        self.startup_time
            + self.shutdown_time
            + self.regions.iter().map(|r| r.schedule_time).sum::<Duration>()
    }

    /// Total bytes moved across every region.
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.bytes_moved).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_fraction_is_bounded() {
        let r = RegionReport {
            region: 1,
            schedule_time: Duration::from_millis(10),
            execution_time: Duration::from_millis(90),
            tasks_executed: 4,
            target_tasks: 2,
            peak_in_flight: 2,
            data_events: 3,
            bytes_moved: 1024,
            failures: 0,
            reexecuted_tasks: 0,
        };
        assert_eq!(r.total_time(), Duration::from_millis(100));
        assert!((r.schedule_fraction() - 0.1).abs() < 1e-9);
        let empty = RegionReport::default();
        assert_eq!(empty.schedule_fraction(), 0.0);
    }

    #[test]
    fn device_report_aggregates_regions() {
        let d = DeviceReport {
            startup_time: Duration::from_millis(5),
            shutdown_time: Duration::from_millis(3),
            regions: vec![
                RegionReport {
                    schedule_time: Duration::from_millis(1),
                    bytes_moved: 10,
                    ..Default::default()
                },
                RegionReport {
                    schedule_time: Duration::from_millis(2),
                    bytes_moved: 20,
                    ..Default::default()
                },
            ],
        };
        assert_eq!(d.overhead_time(), Duration::from_millis(11));
        assert_eq!(d.total_bytes(), 30);
    }
}
