//! The cross-region prefetch figure: transfer/compute overlap on the
//! resident Awave survey.
//!
//! The survey migrates one shot per region with the velocity model entered
//! once as a device-resident buffer — the PR-5 residency showcase — but
//! every shot additionally consumes a large per-shot observed-traces
//! payload. Under synchronous enter-data (`prefetch_depth = 0`) each
//! region's payload crosses the network while nothing computes; with
//! cross-region prefetch ([`ClusterDevice::run_pipeline`],
//! `prefetch_depth ≥ 1`) the payload of queued shots streams on the
//! transfer pool while earlier shots compute, hiding the distribution
//! behind the RTM kernels. The figure sweeps the prefetch depth on the real
//! cluster and reports wall time plus total planned transfer bytes —
//! bounded by the no-duplication ceiling at every depth (the
//! never-duplicate invariant made visible). The run panics if a depth
//! changes the stacked image or breaks the ceiling; wall times are
//! reported, never gated.

use crate::report::JsonRow;
use ompc_awave::{rtm_shot, ModelKind, RtmImage, RtmParams, Shot, VelocityModel};
use ompc_core::prelude::*;
use ompc_json::Json;
use std::sync::Arc;
use std::time::Instant;

/// Problem dimensions of the prefetch survey.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchSurvey {
    /// Grid width of the synthetic Sigsbee-like model.
    pub nx: usize,
    /// Grid depth.
    pub nz: usize,
    /// Time steps per propagation.
    pub nt: usize,
    /// Number of shots (one region each).
    pub shots: usize,
    /// Worker nodes.
    pub workers: usize,
    /// Observed-traces payload per shot, in doubles.
    pub payload_len: usize,
    /// Timed repetitions per cell; the fastest is reported.
    pub repeats: usize,
}

impl PrefetchSurvey {
    /// The CI-sized survey: small grid, chunky payloads, enough compute
    /// per shot that a hidden transfer is measurable above timer noise.
    pub fn smoke() -> Self {
        Self { nx: 32, nz: 32, nt: 160, shots: 6, workers: 2, payload_len: 1 << 22, repeats: 4 }
    }

    /// The full figure: a deeper propagation and larger payloads.
    pub fn full() -> Self {
        Self { nx: 48, nz: 48, nt: 240, shots: 8, workers: 2, payload_len: 1 << 22, repeats: 3 }
    }
}

/// One point of the prefetch figure.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchRow {
    /// Backend measured.
    pub backend: BackendKind,
    /// Prefetch depth (`0` = synchronous enter-data, no overlap).
    pub depth: usize,
    /// Shots migrated (= regions executed).
    pub shots: usize,
    /// Observed-traces payload per shot, in bytes.
    pub payload_bytes: u64,
    /// Total bytes planned across all regions. Bounded by the
    /// no-duplication ceiling at every depth: prefetch never re-sends a
    /// resident copy, though placement may legally shift totals (a
    /// prefetched replica pulls its consuming task to the data).
    pub transfer_bytes: u64,
    /// Wall time of the whole pipelined survey in seconds (best of the
    /// survey's repeat count).
    pub seconds: f64,
}

/// The per-shot observed-traces payload, deterministic in the shot index.
fn shot_payload(shot: usize, len: usize) -> Vec<f64> {
    (0..len).map(|i| ((i * 7 + shot * 13) % 100) as f64 * 1e-3).collect()
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

/// The no-duplication ceiling on planned bytes: every per-shot payload,
/// descriptor, and retrieved image crosses the network at most once, and
/// the resident model reaches each worker at most once. Placement shifts
/// (a prefetched replica legally pulls the consuming task to the node the
/// data already reached) may move totals *below* this bound, never above.
fn transfer_ceiling(survey: PrefetchSurvey) -> u64 {
    let image = (survey.nx * survey.nz * 8) as u64;
    let model = ((3 + survey.nx * survey.nz) * 8) as u64;
    survey.shots as u64 * ((survey.payload_len * 8) as u64 + 16 + image)
        + survey.workers as u64 * model
}

/// Run the survey once at one prefetch depth and return (stacked image,
/// total planned transfer bytes, wall seconds).
fn run_survey(backend: BackendKind, survey: PrefetchSurvey, depth: usize) -> (RtmImage, u64, f64) {
    let model = VelocityModel::generate(ModelKind::SigsbeeLike, survey.nx, survey.nz, 20.0);
    let params = Arc::new(RtmParams { nt: survey.nt, snapshot_every: 4, smoothing_passes: 2 });
    let shots: Vec<Shot> = (0..survey.shots)
        .map(|s| Shot { source_x: (s + 1) * survey.nx / (survey.shots + 1), source_z: 2 })
        .collect();

    // Two handler threads per worker: a prefetched payload must be
    // receivable while the shot kernel computes, or there is no overlap
    // for the figure to measure.
    let config = OmpcConfig {
        backend,
        prefetch_depth: depth,
        event_handler_threads: 2,
        ..OmpcConfig::small()
    };
    let mut device = ClusterDevice::with_config(survey.workers, config);
    let (nx, nz) = (model.nx, model.nz);
    let cost = ompc_awave::estimate_shot_cost(nx, nz, params.nt);
    let kernel = {
        let params = Arc::clone(&params);
        device.register_kernel_fn("rtm-shot-prefetch", cost, move |args| {
            let model_payload = args.as_f64s(0);
            let model = VelocityModel::from_values(
                model_payload[0] as usize,
                model_payload[1] as usize,
                model_payload[2],
                model_payload[3..].to_vec(),
            );
            let desc = args.as_u64s(1);
            let shot = Shot { source_x: desc[0] as usize, source_z: desc[1] as usize };
            let traces = args.as_f64s(2);
            let mut image = rtm_shot(&model, shot, &params);
            for (i, v) in image.values.iter_mut().enumerate() {
                *v += traces[i % traces.len()];
            }
            args.set_f64s(3, &image.values);
        })
    };

    let start = Instant::now();
    // The model is a device-resident mapping, entered once for the whole
    // survey — the PR-5 residency showcase this figure builds on.
    let model_bytes: Vec<u8> = model_to_f64s(&model).iter().flat_map(|v| v.to_le_bytes()).collect();
    let model_buffer = device.enter_data(model_bytes);
    let mut regions = Vec::with_capacity(shots.len());
    let mut images = Vec::with_capacity(shots.len());
    for (s, shot) in shots.iter().enumerate() {
        let mut region = device.target_region();
        let desc_bytes: Vec<u8> = [shot.source_x as u64, shot.source_z as u64]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let desc = region.map_to(desc_bytes);
        let trace_bytes: Vec<u8> =
            shot_payload(s, survey.payload_len).iter().flat_map(|v| v.to_le_bytes()).collect();
        let traces = region.map_to(trace_bytes);
        let image = region.map_alloc(nx * nz * 8);
        region.target_with_cost(
            kernel,
            cost,
            vec![
                Dependence::input(model_buffer),
                Dependence::input(desc),
                Dependence::input(traces),
                Dependence::output(image),
            ],
            format!("shot@{}", shot.source_x),
        );
        region.map_from(image);
        regions.push(region);
        images.push(image);
    }
    let reports = device.run_pipeline(regions).expect("prefetch survey pipeline");
    if std::env::var("PREFETCH_DEBUG").is_ok() {
        for (i, r) in reports.iter().enumerate() {
            eprintln!(
                "  {} depth={depth} region {i}: sched {:.1}ms exec {:.1}ms events {} bytes {}",
                backend.name(),
                r.schedule_time.as_secs_f64() * 1e3,
                r.execution_time.as_secs_f64() * 1e3,
                r.data_events,
                r.bytes_moved
            );
        }
    }
    let mut stacked = RtmImage::zeros(nx, nz);
    for image in images {
        let values = device.buffer_f64s(image).expect("shot image");
        stacked.stack(&RtmImage { nx, nz, values });
    }
    device.exit_data(model_buffer).expect("release the resident model");
    let seconds = start.elapsed().as_secs_f64();
    let transfer_bytes = reports.iter().map(|r| r.bytes_moved).sum();
    device.shutdown();
    (stacked, transfer_bytes, seconds)
}

/// The prefetch figure: the cluster at every depth, best-of-repeats
/// timing. Panics if any depth changes the stacked image — overlap is a
/// timing optimisation only — or pushes the planned bytes above the
/// no-duplication ceiling (every buffer moves at most once per
/// destination; a prefetch must never re-send a resident copy).
pub fn run_prefetch(survey: PrefetchSurvey, depths: &[usize]) -> Vec<PrefetchRow> {
    let ceiling = transfer_ceiling(survey);
    let mut rows = Vec::new();
    let backend = BackendKind::Mpi;
    let mut reference: Option<RtmImage> = None;
    for &depth in depths {
        let mut best = f64::INFINITY;
        let mut bytes = 0;
        for _ in 0..survey.repeats.max(1) {
            let (image, run_bytes, seconds) = run_survey(backend, survey, depth);
            assert!(
                run_bytes <= ceiling,
                "{}: depth {depth} planned {run_bytes} bytes, above the \
                 no-duplication ceiling {ceiling}",
                backend.name()
            );
            match &reference {
                None => reference = Some(image),
                Some(ref_image) => assert_eq!(
                    ref_image.values,
                    image.values,
                    "{}: depth {depth} changed the stacked image",
                    backend.name()
                ),
            }
            best = best.min(seconds);
            bytes = run_bytes;
        }
        rows.push(PrefetchRow {
            backend,
            depth,
            shots: survey.shots,
            payload_bytes: (survey.payload_len * 8) as u64,
            transfer_bytes: bytes,
            seconds: best,
        });
    }
    rows
}

impl JsonRow for PrefetchRow {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("backend", Json::str(self.backend.name())),
            ("depth", Json::usize(self.depth)),
            ("shots", Json::usize(self.shots)),
            ("payload_bytes", Json::u64(self.payload_bytes)),
            ("transfer_bytes", Json::u64(self.transfer_bytes)),
            ("seconds", Json::num(self.seconds)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_rows_cover_both_backends_and_keep_bytes_stable() {
        let survey = PrefetchSurvey {
            nx: 16,
            nz: 16,
            nt: 40,
            shots: 3,
            workers: 2,
            payload_len: 1 << 12,
            repeats: 1,
        };
        let rows = run_prefetch(survey, &[0, 1]);
        assert_eq!(rows.len(), 2);
        let ceiling = transfer_ceiling(survey);
        let backend = BackendKind::Mpi;
        let bytes: Vec<u64> =
            rows.iter().filter(|r| r.backend == backend).map(|r| r.transfer_bytes).collect();
        assert_eq!(bytes.len(), 2);
        for b in bytes {
            assert!(b > 0 && b <= ceiling, "{}: {b} vs ceiling {ceiling}", backend.name());
        }
    }
}
