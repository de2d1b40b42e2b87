//! Ablation studies of the OMPC design choices the paper discusses in §7:
//! the scheduler, the head-node in-flight limit, worker-to-worker data
//! forwarding, and the number of NIC channels (virtual communication
//! interfaces).
//!
//! The scheduler study runs on the Task Bench shapes where the choice
//! shows: fig. 6's FFT at CCR 0.5 on 16 nodes, and fig. 5's FFT at
//! 64 nodes and Stencil-1D at 32 nodes — the last one where HEFT loses. The
//! other three run fig. 6's Stencil-1D at CCR 1.0 on 16 nodes.

use crate::report::{render_table, Figure, JsonRow};
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

/// The scheduler study's shapes, each with its name as printed and its node
/// count.
fn scheduler_shapes() -> [(&'static str, TaskBenchConfig, usize); 3] {
    use DependencePattern::{Fft, Stencil1D};
    [
        ("fig. 6 fft, CCR 0.5, 16 nodes", TaskBenchConfig::figure6(Fft, 0.5), 16),
        ("fig. 5 fft, 64 nodes", TaskBenchConfig::figure5(Fft, 64), 64),
        ("fig. 5 stencil_1d, 32 nodes", TaskBenchConfig::figure5(Stencil1D, 32), 32),
    ]
}

/// Run every ablation: the scheduler on three Task Bench shapes where the
/// choice shows, the rest on a communication-heavy 16-node stencil (the
/// regime where those design choices matter most).
pub fn run_ablation() -> Vec<AblationRow> {
    let nodes = 16;
    let cluster = ClusterConfig::santos_dumont(nodes);
    let tb = TaskBenchConfig::figure6(DependencePattern::Stencil1D, 1.0);
    let overheads = OverheadModel::default();
    let mut rows = Vec::new();

    // 1. Scheduler choice.
    for (shape, tb, nodes) in scheduler_shapes() {
        let cluster = ClusterConfig::santos_dumont(nodes);
        for scheduler in [SchedulerKind::Heft, SchedulerKind::MinMin, SchedulerKind::RoundRobin] {
            let config = OmpcConfig { scheduler, ..OmpcConfig::default() };
            rows.push(AblationRow {
                study: format!("scheduler: {shape}"),
                variant: scheduler.name().to_string(),
                seconds: measure(&config, &overheads, &cluster, &tb),
            });
        }
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

/// The ablation figure as printed: one table per study, each variant's time
/// next to the study's best.
pub fn figure() -> Figure {
    let rows = run_ablation();
    let mut studies: Vec<&str> = rows.iter().map(|r| r.study.as_str()).collect();
    studies.dedup();
    let mut text = String::new();
    for study in studies {
        let study_rows: Vec<&AblationRow> = rows.iter().filter(|r| r.study == study).collect();
        let best = study_rows.iter().map(|r| r.seconds).fold(f64::INFINITY, f64::min);
        let table: Vec<Vec<String>> = study_rows
            .iter()
            .map(|r| {
                let vs_best = format!("{:.2}x", r.seconds / best);
                vec![r.variant.clone(), format!("{:.3}", r.seconds), vs_best]
            })
            .collect();
        text += &format!("\n## {study}\n");
        text += &render_table(&["variant", "time (s)", "vs best"], &table);
    }
    let title = "Ablation: OMPC design choices (schedulers on three Task Bench shapes, the rest \
                 on a communication-heavy 16-node stencil)";
    Figure::new(title, text, &rows)
}

impl JsonRow for AblationRow {
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

        // HEFT beats communication-oblivious round robin (paper §4.4) on
        // fig. 6's FFT at CCR 0.5.
        let fft = "scheduler: fig. 6 fft, CCR 0.5, 16 nodes";
        assert!(time_of(&rows, fft, "heft") < time_of(&rows, fft, "round-robin"));
        // Every scheduler shape tells at least two schedulers apart, as
        // printed: a study where all tie shows nothing.
        for (shape, _, _) in scheduler_shapes() {
            let study = format!("scheduler: {shape}");
            let mut times: Vec<String> = (rows.iter().filter(|r| r.study == study))
                .map(|r| format!("{:.3}", r.seconds))
                .collect();
            assert_eq!(times.len(), 3, "{study}: one row per scheduler");
            times.sort();
            times.dedup();
            assert!(times.len() >= 2, "{study}: every scheduler prints {times:?}");
        }
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
