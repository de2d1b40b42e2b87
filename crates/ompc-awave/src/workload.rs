//! Awave as an OMPC workload: the shot-per-node decomposition used in the
//! paper's Fig. 7(b), for both the simulated runtime (full-scale problem
//! sizes) and a real cluster device on either backend (reduced problem
//! sizes).

use crate::rtm::{rtm_shot, RtmImage, RtmParams, Shot};
use crate::velocity::VelocityModel;
use ompc_core::cluster::ClusterDevice;
use ompc_core::model::WorkloadGraph;
use ompc_core::runtime::RunRecord;
use ompc_core::types::{Dependence, OmpcResult};
use ompc_sched::TaskGraph;
use std::sync::Arc;

/// Description of a simulated Awave survey.
#[derive(Debug, Clone, PartialEq)]
pub struct AwaveWorkloadConfig {
    /// Number of shots (the paper assigns one per worker node).
    pub shots: usize,
    /// Compute cost of migrating one shot, in seconds.
    pub shot_cost_secs: f64,
    /// Size of one migrated image in bytes (sent back for stacking).
    pub image_bytes: u64,
    /// Cost of stacking one image into the final result, in seconds.
    pub stack_cost_secs: f64,
}

impl AwaveWorkloadConfig {
    /// A survey sized like the paper's experiments: `shots` shots whose
    /// per-shot cost comes from [`estimate_shot_cost`] for a
    /// Sigsbee-2A-sized grid, and images of `nx × nz` doubles.
    pub fn survey(shots: usize, nx: usize, nz: usize, nt: usize) -> Self {
        Self {
            shots,
            shot_cost_secs: estimate_shot_cost(nx, nz, nt),
            image_bytes: (nx * nz * 8) as u64,
            stack_cost_secs: (nx * nz) as f64 * 2e-9,
        }
    }
}

/// Estimate the compute cost (seconds) of migrating one shot on one node:
/// three propagations (observed data, forward field, adjoint field) of
/// `nt` steps over an `nx × nz` grid, at 60 floating-point operations per
/// grid point per step and an effective node throughput of 10 GFLOP/s.
///
/// Both numbers are one calibration constant (167 Mcell/s per
/// propagation), not a count: the propagator does 32 flops per cell-step
/// (25 for the Laplacian, 7 for the time update) and runs faster than
/// this on a vector build. The constant sets the simulated survey's task
/// costs and the HEFT hints of real shots, so it is left as it is until
/// the simulator is calibrated against measured spans.
pub fn estimate_shot_cost(nx: usize, nz: usize, nt: usize) -> f64 {
    let flops = 3.0 * nx as f64 * nz as f64 * nt as f64 * 60.0;
    flops / 10.0e9
}

/// Build the abstract workload for a survey: `shots` independent shot
/// tasks, each feeding its image into a final stacking task.
pub fn awave_workload(config: &AwaveWorkloadConfig) -> WorkloadGraph {
    let mut graph = TaskGraph::new();
    let mut output_bytes = Vec::with_capacity(config.shots + 1);
    for s in 0..config.shots {
        graph.add_task_full(config.shot_cost_secs, None, format!("shot{s}"));
        output_bytes.push(config.image_bytes);
    }
    let stack = graph.add_task_full(
        config.stack_cost_secs * config.shots as f64,
        None,
        "stack".to_string(),
    );
    output_bytes.push(config.image_bytes);
    for s in 0..config.shots {
        graph.add_edge(s, stack, config.image_bytes);
    }
    WorkloadGraph::new(graph, output_bytes)
}

/// Run a real survey on a cluster device: one target task per
/// shot (each migrating its shot with the real RTM kernel), followed by
/// host-side stacking of the returned images. Returns the stacked image,
/// which must equal the sequential [`crate::rtm::migrate`] result.
pub fn run_shots_on_cluster(
    device: &ClusterDevice,
    model: &VelocityModel,
    shots: &[Shot],
    params: &RtmParams,
) -> OmpcResult<RtmImage> {
    let model = Arc::new(model.clone());
    let params = Arc::new(params.clone());
    let cost = estimate_shot_cost(model.nx, model.nz, params.nt);
    let kernel = {
        let model = Arc::clone(&model);
        let params = Arc::clone(&params);
        device.register_kernel_fn("rtm-shot", cost, move |args| {
            let desc = args.as_u64s(0);
            let shot = Shot { source_x: desc[0] as usize, source_z: desc[1] as usize };
            let image = rtm_shot(&model, shot, &params);
            args.set_f64s(1, &image.values);
        })
    };

    let mut region = device.target_region();
    let mut image_buffers = Vec::with_capacity(shots.len());
    for shot in shots {
        let desc = region
            .map_to(ompc_mpi::typed::u64s_to_bytes(&[shot.source_x as u64, shot.source_z as u64]));
        let image = region.map_alloc(model.nx * model.nz * 8);
        region.target_with_cost(
            kernel,
            cost,
            vec![Dependence::input(desc), Dependence::output(image)],
            format!("shot@{}", shot.source_x),
        );
        region.map_from(image);
        image_buffers.push(image);
    }
    region.run()?;

    let mut stacked = RtmImage::zeros(model.nx, model.nz);
    for buffer in image_buffers {
        let values = device.buffer_f64s(buffer)?;
        stacked.stack(&RtmImage { nx: model.nx, nz: model.nz, values });
    }
    Ok(stacked)
}

/// Serialize a velocity model as the f64 payload of a mapped buffer:
/// `[nx, nz, h, values...]`.
fn model_to_f64s(model: &VelocityModel) -> Vec<f64> {
    let mut out = Vec::with_capacity(3 + model.values().len());
    out.push(model.nx as f64);
    out.push(model.nz as f64);
    out.push(model.h);
    out.extend_from_slice(model.values());
    out
}

/// Rebuild a velocity model from the payload written by [`model_to_f64s`].
fn model_from_f64s(values: &[f64]) -> VelocityModel {
    let (nx, nz, h) = (values[0] as usize, values[1] as usize, values[2]);
    VelocityModel::from_values(nx, nz, h, values[3..].to_vec())
}

/// The §6 iterative showcase of cross-region data residency: migrate a
/// survey as **one region per shot**, with the velocity model mapped once
/// as a device-resident buffer ([`ClusterDevice::enter_data`]) that every
/// shot region reads in place. The model reaches each worker at most once
/// across the whole survey — later regions generate no enter-data transfer
/// — where the per-region variant ([`run_shots_on_cluster`]) would pay the
/// distribution in every region that maps it. Returns the stacked image
/// (byte-identical to the sequential [`crate::rtm::migrate`] result) and
/// the number of times the model buffer crossed the network, which tests
/// and `ompc-bench` assert stays bounded by the worker count, independent
/// of the shot count.
pub fn run_shots_resident(
    device: &ClusterDevice,
    model: &VelocityModel,
    shots: &[Shot],
    params: &RtmParams,
) -> OmpcResult<(RtmImage, usize)> {
    let (image, transfers, _) = run_shots_resident_traced(device, model, shots, params)?;
    Ok((image, transfers))
}

/// [`run_shots_resident`] with the per-region [`RunRecord`]s kept: the
/// survey executes one region per shot, so the records — and the telemetry
/// spans inside them when the device runs at `TelemetryLevel::Spans` —
/// would otherwise be lost to the next region's run. The spans of all
/// records share one monotonic clock, so `ompc-bench` concatenates them
/// into a single survey-wide timeline.
pub fn run_shots_resident_traced(
    device: &ClusterDevice,
    model: &VelocityModel,
    shots: &[Shot],
    params: &RtmParams,
) -> OmpcResult<(RtmImage, usize, Vec<RunRecord>)> {
    let params = Arc::new(params.clone());
    let cost = estimate_shot_cost(model.nx, model.nz, params.nt);
    let kernel = {
        let params = Arc::clone(&params);
        device.register_kernel_fn("rtm-shot-resident", cost, move |args| {
            let model = model_from_f64s(&args.as_f64s(0));
            let desc = args.as_u64s(1);
            let shot = Shot { source_x: desc[0] as usize, source_z: desc[1] as usize };
            let image = rtm_shot(&model, shot, &params);
            args.set_f64s(2, &image.values);
        })
    };

    // Unstructured enter data: the model becomes a resident mapping, pulled
    // onto a worker the first time a shot region reads it there.
    let model_buffer = device.enter_data(ompc_mpi::typed::f64s_to_bytes(&model_to_f64s(model)));

    let (nx, nz) = (model.nx, model.nz);
    let mut stacked = RtmImage::zeros(nx, nz);
    let mut model_transfers = 0usize;
    let mut records = Vec::with_capacity(shots.len());
    for shot in shots {
        let mut region = device.target_region();
        let desc = region
            .map_to(ompc_mpi::typed::u64s_to_bytes(&[shot.source_x as u64, shot.source_z as u64]));
        let image = region.map_alloc(nx * nz * 8);
        region.target_with_cost(
            kernel,
            cost,
            vec![
                Dependence::input(model_buffer),
                Dependence::input(desc),
                Dependence::output(image),
            ],
            format!("shot@{}", shot.source_x),
        );
        region.map_from(image);
        // This region's own record: a device-wide "last record" may belong
        // to another client's region running on the same device.
        let (_, record) = region.run_recorded()?;
        model_transfers += record.buffer_transfers(model_buffer).len();
        records.push(record);
        let values = device.buffer_f64s(image)?;
        stacked.stack(&RtmImage { nx, nz, values });
    }
    // End the unstructured mapping: release the model's device copies.
    device.exit_data(model_buffer)?;
    Ok((stacked, model_transfers, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::velocity::ModelKind;
    use ompc_core::prelude::{simulate_ompc, OmpcConfig, OverheadModel};
    use ompc_sim::ClusterConfig;

    #[test]
    fn shot_cost_estimate_is_in_the_tens_of_seconds_for_survey_sizes() {
        // A Sigsbee-like production grid.
        let cost = estimate_shot_cost(3200, 1200, 8000);
        assert!(cost > 10.0 && cost < 2000.0, "unexpected shot cost {cost}");
        // Larger problems cost more.
        assert!(estimate_shot_cost(3200, 1200, 16000) > cost);
    }

    #[test]
    fn workload_has_one_task_per_shot_plus_stack() {
        let config = AwaveWorkloadConfig::survey(8, 400, 200, 1000);
        let w = awave_workload(&config);
        assert_eq!(w.len(), 9);
        assert_eq!(w.graph.sinks(), vec![8]);
        assert_eq!(w.graph.roots().len(), 8);
        assert_eq!(w.graph.predecessors(8).len(), 8);
        assert_eq!(w.total_edge_bytes(), 8 * config.image_bytes);
    }

    #[test]
    fn simulated_survey_weak_scales_nearly_linearly() {
        // One shot per worker node, as in the paper; doubling the workers
        // (and the shots) should keep the makespan nearly constant.
        let overheads = OverheadModel::default();
        let config = OmpcConfig::default();
        let run = |workers: usize| {
            let survey = AwaveWorkloadConfig::survey(workers, 800, 400, 2000);
            let w = awave_workload(&survey);
            simulate_ompc(&w, &ClusterConfig::santos_dumont(workers + 1), &config, &overheads)
                .unwrap()
                .makespan
                .as_secs_f64()
        };
        let t1 = run(1);
        let t8 = run(8);
        let t16 = run(16);
        let efficiency8 = t1 / t8;
        let efficiency16 = t1 / t16;
        assert!(efficiency8 > 0.85, "8-node weak-scaling efficiency {efficiency8}");
        assert!(efficiency16 > 0.80, "16-node weak-scaling efficiency {efficiency16}");
    }

    #[test]
    fn resident_cluster_run_matches_sequential_and_moves_the_model_once() {
        let model = VelocityModel::generate(ModelKind::SigsbeeLike, 32, 32, 20.0);
        let params = RtmParams { nt: 80, snapshot_every: 4, smoothing_passes: 2 };
        let shots = [
            Shot { source_x: 8, source_z: 2 },
            Shot { source_x: 16, source_z: 2 },
            Shot { source_x: 24, source_z: 2 },
        ];
        let sequential = crate::rtm::migrate(&model, &shots, &params);

        let mut device = ClusterDevice::spawn(2);
        let (clustered, model_transfers) =
            run_shots_resident(&device, &model, &shots, &params).unwrap();
        let workers = device.num_workers();
        device.shutdown();

        assert!(
            model_transfers >= 1 && model_transfers <= workers,
            "the resident model must cross the network at most once per worker \
             (moved {model_transfers} times for {workers} workers over {} regions)",
            shots.len()
        );
        assert_eq!(clustered.values.len(), sequential.values.len());
        for (a, b) in clustered.values.iter().zip(&sequential.values) {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "resident cluster image diverged from the sequential reference"
            );
        }
    }

    /// Two clients survey on one device at once: each client's records are
    /// its own regions', so no buffer appears in both clients' records, and
    /// each client counts only its own model's moves.
    #[test]
    fn concurrent_surveys_each_keep_their_own_records() {
        use ompc_core::types::BufferId;
        use std::collections::HashSet;
        let model = VelocityModel::generate(ModelKind::SigsbeeLike, 16, 16, 20.0);
        let params = RtmParams { nt: 24, snapshot_every: 4, smoothing_passes: 1 };
        let shots: Vec<Shot> = (2..14).map(|x| Shot { source_x: x, source_z: 2 }).collect();
        let mut device = ClusterDevice::spawn(2);
        let workers = device.num_workers();
        let surveys: Vec<(usize, Vec<RunRecord>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (device, model, shots, params) = (&device, &model, &shots, &params);
                    scope.spawn(move || {
                        let (_, moves, records) =
                            run_shots_resident_traced(device, model, shots, params).unwrap();
                        (moves, records)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        device.shutdown();
        let named: Vec<HashSet<BufferId>> = surveys
            .iter()
            .map(|(_, records)| {
                records.iter().flat_map(|r| &r.transfers).map(|t| t.buffer).collect()
            })
            .collect();
        assert!(named[0].is_disjoint(&named[1]), "a client's records name the other's buffers");
        for (moves, records) in &surveys {
            assert_eq!(records.len(), shots.len());
            assert!(
                (1..=workers).contains(moves),
                "model moved {moves} times on {workers} workers"
            );
        }
    }

    #[test]
    fn cluster_run_matches_sequential_migration() {
        let model = VelocityModel::generate(ModelKind::SigsbeeLike, 32, 32, 20.0);
        let params = RtmParams { nt: 80, snapshot_every: 4, smoothing_passes: 2 };
        let shots = [Shot { source_x: 10, source_z: 2 }, Shot { source_x: 22, source_z: 2 }];
        let sequential = crate::rtm::migrate(&model, &shots, &params);

        let mut device = ClusterDevice::spawn(2);
        let clustered = run_shots_on_cluster(&device, &model, &shots, &params).unwrap();
        device.shutdown();

        assert_eq!(clustered.values.len(), sequential.values.len());
        for (a, b) in clustered.values.iter().zip(&sequential.values) {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "cluster image diverged from the sequential reference"
            );
        }
    }
}
