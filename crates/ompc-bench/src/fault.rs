//! The fault-overhead experiment (paper §3.1): what node failures cost.
//!
//! The paper's resilience story is qualitative — ring heartbeats plus task
//! re-execution "under development" — so this experiment quantifies it in
//! the spirit of the §7 overhead studies: one Task Bench stencil workload
//! is executed with 0, 1, and 2 deterministically injected worker failures
//! ([`ompc_core::runtime::fault::FaultPlan`]), and each run reports its
//! makespan next to the failure-free baseline, the number of re-executed
//! and replanned tasks, and the heartbeat detection latency.

use crate::report::JsonRow;
use ompc_core::prelude::{simulate_ompc_outcome, FaultPlan, OmpcConfig, OverheadModel};
use ompc_json::Json;
use ompc_sim::ClusterConfig;
use ompc_taskbench::{generate_workload, DependencePattern, TaskBenchConfig};

/// One point of the fault-overhead figure: a run with N injected failures.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRow {
    /// Number of worker failures injected into the run.
    pub injected_failures: usize,
    /// Total virtual execution time in seconds.
    pub makespan_s: f64,
    /// Makespan increase over the failure-free run, in percent.
    pub overhead_pct: f64,
    /// Failures the heartbeat monitor actually declared.
    pub detected_failures: usize,
    /// Distinct tasks executed more than once by the recovery machinery.
    pub reexecuted_tasks: usize,
    /// Tasks reassigned during recovery (off the dead node on the fast
    /// path; possibly between survivors under a full replan).
    pub replanned_tasks: usize,
    /// Mean fault-clock latency (ms) from node death to declaration.
    pub mean_detection_ms: f64,
}

/// Run the fault-overhead experiment on a Santos-Dumont-like cluster of
/// `nodes` nodes (head included; at least 4 so two workers can die and
/// survivors remain): a `(2·nodes) × 32` Task Bench stencil with 0, 1, and
/// 2 injected worker failures. Set `replan` to recover with a full HEFT
/// re-schedule over the survivors instead of round-robin reassignment.
pub fn run_fault_overhead(nodes: usize, replan: bool) -> Vec<FaultRow> {
    assert!(nodes >= 4, "the two-failure scenario needs at least 3 workers");
    let tb = TaskBenchConfig::figure5(DependencePattern::Stencil1D, nodes);
    let workload = generate_workload(&tb);
    let cluster = ClusterConfig::santos_dumont(nodes);
    let overheads = OverheadModel::default();
    // Kill workers 1 and 2 early in their completion streams, so recovery
    // has real in-flight and completed work to deal with.
    let scenarios: [FaultPlan; 3] = [
        FaultPlan::none(),
        FaultPlan::none().fail_after_completions(1, 3),
        FaultPlan::none().fail_after_completions(1, 3).fail_after_completions(2, 8),
    ];
    let mut baseline_s = 0.0_f64;
    scenarios
        .iter()
        .enumerate()
        .map(|(injected, fault_plan)| {
            let config = OmpcConfig {
                fault_plan: fault_plan.clone(),
                replan_on_failure: replan,
                ..OmpcConfig::default()
            };
            let (result, record) =
                simulate_ompc_outcome(&workload, &cluster, &config, &overheads, None)
                    .into_result()
                    .expect("fault scenario must stay recoverable");
            let makespan_s = result.makespan.as_secs_f64();
            if injected == 0 {
                baseline_s = makespan_s;
            }
            let latencies = record.recovery_latencies();
            FaultRow {
                injected_failures: injected,
                makespan_s,
                overhead_pct: if baseline_s > 0.0 {
                    (makespan_s / baseline_s - 1.0) * 100.0
                } else {
                    0.0
                },
                detected_failures: record.failures.len(),
                reexecuted_tasks: record.reexecuted.len(),
                replanned_tasks: record.replanned.len(),
                mean_detection_ms: if latencies.is_empty() {
                    0.0
                } else {
                    latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
                },
            }
        })
        .collect()
}

impl JsonRow for FaultRow {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("injected_failures", Json::usize(self.injected_failures)),
            ("makespan_s", Json::num(self.makespan_s)),
            ("overhead_pct", Json::num(self.overhead_pct)),
            ("detected_failures", Json::usize(self.detected_failures)),
            ("reexecuted_tasks", Json::usize(self.reexecuted_tasks)),
            ("replanned_tasks", Json::usize(self.replanned_tasks)),
            ("mean_detection_ms", Json::num(self.mean_detection_ms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_cost_time_and_are_all_detected() {
        let rows = run_fault_overhead(5, false);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].detected_failures, 0);
        assert_eq!(rows[0].overhead_pct, 0.0);
        assert_eq!(rows[1].detected_failures, 1);
        assert_eq!(rows[2].detected_failures, 2);
        for row in &rows[1..] {
            assert_eq!(row.detected_failures, row.injected_failures);
            assert!(row.makespan_s > rows[0].makespan_s, "a failure must not be free");
            assert!(row.overhead_pct > 0.0);
            assert!(row.reexecuted_tasks > 0, "lost work must re-execute");
            assert!(row.replanned_tasks > 0, "dead-node tasks must move");
            assert!(row.mean_detection_ms > 0.0);
        }
        // More failures, more damage.
        assert!(rows[2].makespan_s >= rows[1].makespan_s);
    }

    #[test]
    fn replanned_recovery_detects_failures_too() {
        let rows = run_fault_overhead(5, true);
        assert_eq!(rows[1].detected_failures, 1);
        assert!(rows[1].replanned_tasks > 0);
    }
}
