//! Ablation studies of the OMPC design choices called out in DESIGN.md:
//! the scheduler, the head-node in-flight limit, worker-to-worker data
//! forwarding, and the number of NIC channels (virtual communication
//! interfaces).

use ompc_core::prelude::{simulate_ompc, OmpcConfig, OverheadModel, SchedulerKind};
use ompc_sim::ClusterConfig;
use ompc_taskbench::{generate_workload, DependencePattern, TaskBenchConfig};

/// One ablation measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Which study the row belongs to.
    pub study: String,
    /// The variant measured (e.g. "heft", "no-forwarding", "limit=4").
    pub variant: String,
    /// Execution time in seconds.
    pub seconds: f64,
}

fn measure(
    config: &OmpcConfig,
    overheads: &OverheadModel,
    cluster: &ClusterConfig,
    tb: &TaskBenchConfig,
) -> f64 {
    let workload = generate_workload(tb);
    simulate_ompc(&workload, cluster, config, overheads)
        .expect("valid cluster")
        .makespan
        .as_secs_f64()
}

/// Run every ablation on a communication-heavy 16-node stencil workload
/// (the regime where the design choices matter most).
pub fn run_ablation() -> Vec<AblationRow> {
    let nodes = 16;
    let cluster = ClusterConfig::santos_dumont(nodes);
    let tb = TaskBenchConfig::figure6(DependencePattern::Stencil1D, 1.0);
    let overheads = OverheadModel::default();
    let mut rows = Vec::new();

    // 1. Scheduler choice.
    for scheduler in [
        SchedulerKind::Heft,
        SchedulerKind::MinMin,
        SchedulerKind::RoundRobin,
        SchedulerKind::Eager,
    ] {
        let config = OmpcConfig { scheduler, ..OmpcConfig::default() };
        rows.push(AblationRow {
            study: "scheduler".to_string(),
            variant: scheduler.name().to_string(),
            seconds: measure(&config, &overheads, &cluster, &tb),
        });
    }

    // 2. Head-node in-flight window (the libomptarget blocked-thread bound,
    // now an explicit knob of the unified execution core).
    for limit in [4usize, 16, 48, 96] {
        let config = OmpcConfig { max_inflight_tasks: limit, ..OmpcConfig::default() };
        rows.push(AblationRow {
            study: "in-flight-limit".to_string(),
            variant: format!("limit={limit}"),
            seconds: measure(&config, &overheads, &cluster, &tb),
        });
    }
    {
        let serial = OverheadModel { serial_input_transfers: true, ..OverheadModel::default() };
        rows.push(AblationRow {
            study: "in-flight-limit".to_string(),
            variant: "legacy-serial-transfers".to_string(),
            seconds: measure(&OmpcConfig::default(), &serial, &cluster, &tb),
        });
        let config = OmpcConfig { max_inflight_tasks: usize::MAX, ..OmpcConfig::default() };
        rows.push(AblationRow {
            study: "in-flight-limit".to_string(),
            variant: "unlimited".to_string(),
            seconds: measure(&config, &overheads, &cluster, &tb),
        });
    }

    // 3. Worker-to-worker forwarding vs. staging through the head node.
    for forwarding in [true, false] {
        let model =
            OverheadModel { worker_to_worker_forwarding: forwarding, ..OverheadModel::default() };
        rows.push(AblationRow {
            study: "data-forwarding".to_string(),
            variant: if forwarding { "worker-to-worker" } else { "staged-via-head" }.to_string(),
            seconds: measure(&OmpcConfig::default(), &model, &cluster, &tb),
        });
    }

    // 4. NIC channels (MPICH virtual communication interfaces).
    for channels in [1usize, 4, 16, 64] {
        let mut cluster = cluster.clone();
        cluster.network.nic_channels = channels;
        rows.push(AblationRow {
            study: "nic-channels".to_string(),
            variant: format!("vci={channels}"),
            seconds: measure(&OmpcConfig::default(), &overheads, &cluster, &tb),
        });
    }
    rows
}

impl crate::report::JsonRow for AblationRow {
    fn to_json_value(&self) -> ompc_json::Json {
        use ompc_json::Json;
        Json::obj([
            ("study", Json::str(self.study.clone())),
            ("variant", Json::str(self.variant.clone())),
            ("seconds", Json::num(self.seconds)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn time_of(rows: &[AblationRow], study: &str, variant: &str) -> f64 {
        rows.iter()
            .find(|r| r.study == study && r.variant == variant)
            .unwrap_or_else(|| panic!("missing row {study}/{variant}"))
            .seconds
    }

    #[test]
    fn ablation_reproduces_the_papers_design_arguments() {
        let rows = run_ablation();
        assert!(rows.iter().all(|r| r.seconds > 0.0));

        // HEFT beats communication-oblivious round robin (paper §4.4).
        assert!(time_of(&rows, "scheduler", "heft") <= time_of(&rows, "scheduler", "round-robin"));
        // Worker-to-worker forwarding beats staging through the head node
        // (paper §4.3: "dramatically improving performance").
        assert!(
            time_of(&rows, "data-forwarding", "worker-to-worker")
                < time_of(&rows, "data-forwarding", "staged-via-head")
        );
        // A tiny in-flight limit throttles the cluster.
        assert!(
            time_of(&rows, "in-flight-limit", "limit=4")
                >= time_of(&rows, "in-flight-limit", "unlimited")
        );
        // One NIC channel is no faster than 64 (VCIs help or are neutral).
        assert!(
            time_of(&rows, "nic-channels", "vci=64") <= time_of(&rows, "nic-channels", "vci=1")
        );
    }
}
