//! Reverse Time Migration: single-shot imaging and multi-shot stacking.

use crate::velocity::VelocityModel;
use crate::wave::{propagate, PropagationParams, WaveField};

/// One seismic experiment: a source position whose echoes are recorded by
/// the surface receiver line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shot {
    /// Horizontal grid index of the source.
    pub source_x: usize,
    /// Depth grid index of the source.
    pub source_z: usize,
}

/// RTM parameters shared by every shot of a survey.
#[derive(Debug, Clone, PartialEq)]
pub struct RtmParams {
    /// Number of time steps per propagation.
    pub nt: usize,
    /// Snapshot decimation used for the imaging condition.
    pub snapshot_every: usize,
    /// Number of smoothing passes applied to the true model to obtain the
    /// migration velocity.
    pub smoothing_passes: usize,
}

impl Default for RtmParams {
    fn default() -> Self {
        Self { nt: 300, snapshot_every: 4, smoothing_passes: 6 }
    }
}

/// A migrated image on the model grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RtmImage {
    /// Grid width.
    pub nx: usize,
    /// Grid depth.
    pub nz: usize,
    /// Image values, row-major with `x` fastest.
    pub values: Vec<f64>,
}

impl RtmImage {
    /// A zero image.
    pub fn zeros(nx: usize, nz: usize) -> Self {
        Self { nx, nz, values: vec![0.0; nx * nz] }
    }

    /// Image value at `(ix, iz)`.
    pub fn at(&self, ix: usize, iz: usize) -> f64 {
        self.values[iz * self.nx + ix]
    }

    /// Accumulate another image (shot stacking).
    pub fn stack(&mut self, other: &RtmImage) {
        assert_eq!(self.values.len(), other.values.len(), "image sizes differ");
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += b;
        }
    }

    /// Root-mean-square amplitude of the image.
    pub fn rms(&self) -> f64 {
        (self.values.iter().map(|v| v * v).sum::<f64>() / self.values.len() as f64).sqrt()
    }

    /// Mean absolute amplitude of each depth row — reflectors show up as
    /// rows with elevated amplitude.
    pub fn depth_profile(&self) -> Vec<f64> {
        (0..self.nz)
            .map(|iz| (0..self.nx).map(|ix| self.at(ix, iz).abs()).sum::<f64>() / self.nx as f64)
            .collect()
    }
}

/// Migrate a single shot:
///
/// 1. model the "observed" receiver data by propagating the source through
///    the true velocity model;
/// 2. propagate the same source through the smoothed migration model,
///    storing snapshots of the down-going field;
/// 3. propagate the time-reversed observed data from the receiver line
///    through the migration model (the up-going / adjoint field);
/// 4. cross-correlate the two fields at matching times (the imaging
///    condition) and accumulate into the image.
pub fn rtm_shot(model: &VelocityModel, shot: Shot, params: &RtmParams) -> RtmImage {
    let migration_model = model.smoothed(params.smoothing_passes);
    let mut prop = PropagationParams::for_model(model, params.nt);
    prop.source = (shot.source_x, shot.source_z);
    prop.snapshot_every = 0;

    // 1. Observed data in the true model.
    let observed = propagate(model, &prop, |_, _| {});

    // 2. Source (forward) field in the migration model, with snapshots.
    let mut forward_prop = prop.clone();
    forward_prop.snapshot_every = params.snapshot_every;
    // Use the migration model's (possibly different) stable dt only if it
    // is stricter; both models share h so the true model's dt is already
    // safe because smoothing cannot increase the maximum velocity.
    let forward = propagate(&migration_model, &forward_prop, |_, _| {});

    // 3. Adjoint field: inject the time-reversed traces at the receiver
    //    line while propagating through the migration model.
    let mut adjoint_prop = prop.clone();
    adjoint_prop.wavelet = vec![0.0; params.nt];
    adjoint_prop.snapshot_every = params.snapshot_every;
    let nt = params.nt;
    let receiver_depth = prop.receiver_depth;
    let traces = observed.traces;
    let adjoint = propagate(&migration_model, &adjoint_prop, |it, field: &mut WaveField| {
        let reversed = nt - 1 - it;
        let row = &traces[reversed];
        for (ix, &amp) in row.iter().enumerate() {
            field.values[receiver_depth * field.nx + ix] += amp;
        }
    });

    // 4. Imaging condition: correlate forward(t) with adjoint(nt - t).
    let mut image = RtmImage::zeros(model.nx, model.nz);
    for (k, fwd) in forward.snapshots.iter().enumerate() {
        let step = forward.snapshot_steps[k];
        // The adjoint snapshot taken at iteration `it` holds the receiver
        // field at reversed time nt - 1 - it; to correlate at forward time
        // `step` we need the adjoint snapshot with it = nt - 1 - step.
        let adj_it = nt - 1 - step;
        let Some(pos) = adjoint.snapshot_steps.iter().position(|&s| s >= adj_it) else {
            continue;
        };
        let adj = &adjoint.snapshots[pos];
        for (i, v) in image.values.iter_mut().enumerate() {
            *v += fwd.values[i] * adj.values[i];
        }
    }
    image
}

/// Migrate a whole survey: run every shot and stack the images. This is the
/// sequential reference; the cluster runs shots on different nodes (see
/// [`crate::workload::run_shots_on_cluster`]) and must produce the same
/// stacked image.
pub fn migrate(model: &VelocityModel, shots: &[Shot], params: &RtmParams) -> RtmImage {
    let mut image = RtmImage::zeros(model.nx, model.nz);
    for &shot in shots {
        image.stack(&rtm_shot(model, shot, params));
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::velocity::ModelKind;

    fn quick_params() -> RtmParams {
        RtmParams { nt: 160, snapshot_every: 4, smoothing_passes: 4 }
    }

    #[test]
    fn single_shot_image_is_finite_and_nonzero() {
        let model = VelocityModel::generate(ModelKind::SigsbeeLike, 48, 48, 20.0);
        let image = rtm_shot(&model, Shot { source_x: 24, source_z: 2 }, &quick_params());
        assert!(image.values.iter().all(|v| v.is_finite()));
        assert!(image.rms() > 0.0);
        assert_eq!(image.nx, 48);
        assert_eq!(image.nz, 48);
    }

    #[test]
    fn stacking_two_shots_increases_amplitude() {
        let model = VelocityModel::generate(ModelKind::SigsbeeLike, 48, 48, 20.0);
        let params = quick_params();
        let shots = [Shot { source_x: 16, source_z: 2 }, Shot { source_x: 32, source_z: 2 }];
        let single = rtm_shot(&model, shots[0], &params);
        let stacked = migrate(&model, &shots, &params);
        assert!(stacked.rms() >= single.rms() * 0.5);
        // Stacked image equals the sum of individual shot images.
        let other = rtm_shot(&model, shots[1], &params);
        let mut manual = single.clone();
        manual.stack(&other);
        for (a, b) in stacked.values.iter().zip(&manual.values) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        }
    }

    #[test]
    fn image_energy_sits_below_the_surface() {
        // The imaging condition should place energy in the subsurface, not
        // concentrate it all in the top (receiver) rows.
        let model = VelocityModel::generate(ModelKind::MarmousiLike, 48, 48, 20.0);
        let image = rtm_shot(&model, Shot { source_x: 24, source_z: 2 }, &quick_params());
        let profile = image.depth_profile();
        let shallow: f64 = profile[3..8].iter().sum();
        let deeper: f64 = profile[8..40].iter().sum();
        assert!(deeper > 0.0);
        assert!(shallow.is_finite());
    }

    /// FNV-1a over the little-endian bits of every value.
    fn fnv1a(values: &[f64]) -> u64 {
        values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    #[test]
    fn survey_image_bits_are_pinned() {
        // The ledger's survey shape with six fixed shots. The hash was taken
        // from the clamped per-cell propagator this crate started with: any
        // change to the kernel must leave every bit of the image alone.
        let model = VelocityModel::generate(ModelKind::SigsbeeLike, 96, 96, 20.0);
        let params = RtmParams { nt: 300, snapshot_every: 4, smoothing_passes: 2 };
        let shots = [8, 23, 40, 51, 70, 87].map(|source_x| Shot { source_x, source_z: 2 });
        let image = migrate(&model, &shots, &params);
        assert_eq!(fnv1a(&image.values), 0x0229_61cc_cab4_7405);
    }

    #[test]
    #[should_panic(expected = "image sizes differ")]
    fn stacking_mismatched_images_panics() {
        let mut a = RtmImage::zeros(4, 4);
        let b = RtmImage::zeros(5, 5);
        a.stack(&b);
    }
}
