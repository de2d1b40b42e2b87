//! The 2-D acoustic finite-difference propagator: 8th order in space,
//! 2nd order in time, with sponge absorbing boundaries.
//!
//! Every cell takes the same stencil. Off the grid the field repeats its
//! nearest edge value, so once per step [`propagate`] copies the field into
//! a buffer with a 4-cell ghost border holding those repeated values and
//! reads it without clamps. An unclamped read of the ghost border *is* the
//! clamped read `field[min(max(i ± k, 0), n - 1)]`, and the update adds its
//! terms in the same order for every cell (centre, then for each offset the
//! horizontal and the vertical pair), so the results are identical to the
//! last bit to those of a per-cell loop that clamps each read. The sponge
//! factor and `v²·dt²` of each cell are computed once per propagation.

use crate::velocity::VelocityModel;

/// 8th-order central second-derivative coefficients (offsets 0..=4).
const FD_COEFFS: [f64; 5] = [-205.0 / 72.0, 8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0];

/// Half-width of the stencil, and so the width of the ghost border.
const HALO: usize = FD_COEFFS.len() - 1;

/// Width of the absorbing sponge layer in grid points.
const SPONGE_WIDTH: usize = 12;

/// A snapshot of the pressure field on the model grid.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveField {
    /// Grid width.
    pub nx: usize,
    /// Grid depth.
    pub nz: usize,
    /// Pressure values, row-major with `x` fastest.
    pub values: Vec<f64>,
}

impl WaveField {
    /// A zero field on the given grid.
    pub fn zeros(nx: usize, nz: usize) -> Self {
        Self { nx, nz, values: vec![0.0; nx * nz] }
    }

    /// Pressure at `(ix, iz)`.
    #[inline]
    pub fn at(&self, ix: usize, iz: usize) -> f64 {
        self.values[iz * self.nx + ix]
    }

    /// Total energy proxy: sum of squared pressures.
    pub fn energy(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Largest absolute pressure.
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }
}

/// A Ricker wavelet of peak frequency `freq` (Hz) sampled at `dt`, `nt`
/// samples, with the usual 1/freq delay so the wavelet starts near zero.
pub fn ricker_wavelet(freq: f64, dt: f64, nt: usize) -> Vec<f64> {
    let t0 = 1.0 / freq;
    (0..nt)
        .map(|it| {
            let t = it as f64 * dt - t0;
            let arg = std::f64::consts::PI * freq * t;
            let a = arg * arg;
            (1.0 - 2.0 * a) * (-a).exp()
        })
        .collect()
}

/// Parameters of one propagation run.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationParams {
    /// Number of time steps.
    pub nt: usize,
    /// Time step in seconds (must satisfy the CFL bound of the model).
    pub dt: f64,
    /// Source position (grid indices).
    pub source: (usize, usize),
    /// Source wavelet samples (one per time step; shorter wavelets are
    /// zero-padded).
    pub wavelet: Vec<f64>,
    /// Depth (z index) of the receiver line; receivers sit at every x.
    pub receiver_depth: usize,
    /// Record a snapshot of the wavefield every `snapshot_every` steps
    /// (0 disables snapshots).
    pub snapshot_every: usize,
}

impl PropagationParams {
    /// Sensible defaults for a model: a 15 Hz Ricker source in the top
    /// centre, receivers near the surface, snapshots every 4 steps.
    pub fn for_model(model: &VelocityModel, nt: usize) -> Self {
        let dt = model.stable_dt();
        Self {
            nt,
            dt,
            source: (model.nx / 2, 2),
            wavelet: ricker_wavelet(15.0, dt, nt),
            receiver_depth: 2,
            snapshot_every: 4,
        }
    }
}

/// Result of a propagation: receiver traces and (optionally) snapshots.
#[derive(Debug, Clone)]
pub struct PropagationResult {
    /// `traces[it][ix]`: pressure recorded at the receiver line.
    pub traces: Vec<Vec<f64>>,
    /// Wavefield snapshots (every `snapshot_every` steps), in time order.
    pub snapshots: Vec<WaveField>,
    /// Time-step indices of the snapshots.
    pub snapshot_steps: Vec<usize>,
}

/// Copy `field` into `ghost`, an `(nx + 2·HALO) × (nz + 2·HALO)` grid whose
/// border cells repeat the nearest edge value of `field`.
fn fill_ghost(ghost: &mut [f64], field: &[f64], nx: usize, nz: usize) {
    for (gz, row) in ghost.chunks_exact_mut(nx + 2 * HALO).enumerate() {
        let src = &field[(gz.clamp(HALO, HALO + nz - 1) - HALO) * nx..][..nx];
        row[..HALO].fill(src[0]);
        row[HALO..HALO + nx].copy_from_slice(src);
        row[HALO + nx..].fill(src[nx - 1]);
    }
}

fn sponge_factor(ix: usize, iz: usize, nx: usize, nz: usize) -> f64 {
    let dist = ix.min(nx - 1 - ix).min(iz.min(nz - 1 - iz));
    if dist >= SPONGE_WIDTH {
        1.0
    } else {
        let x = (SPONGE_WIDTH - dist) as f64 / SPONGE_WIDTH as f64;
        (-0.045 * x * x).exp()
    }
}

/// Propagate a source (or an arbitrary time-dependent boundary injection)
/// through `model`.
///
/// `inject` is called once per time step *after* the finite-difference
/// update and may add energy anywhere in the field — the forward pass
/// injects the source wavelet, the adjoint pass of RTM injects the
/// time-reversed receiver traces.
pub fn propagate<F>(
    model: &VelocityModel,
    params: &PropagationParams,
    mut inject: F,
) -> PropagationResult
where
    F: FnMut(usize, &mut WaveField),
{
    let (nx, nz) = (model.nx, model.nz);
    assert!(
        params.dt <= model.stable_dt() * (1.0 + 1e-9),
        "time step {} violates the CFL bound {}",
        params.dt,
        model.stable_dt()
    );
    let inv_h2 = 1.0 / (model.h * model.h);
    // Per-cell constants, computed once: the sponge factor and v²·dt².
    let damp: Vec<f64> =
        (0..nz).flat_map(|iz| (0..nx).map(move |ix| sponge_factor(ix, iz, nx, nz))).collect();
    let coef: Vec<f64> = model.values().iter().map(|v| v * v * params.dt * params.dt).collect();
    let gx = nx + 2 * HALO;
    let mut ghost = vec![0.0; gx * (nz + 2 * HALO)];
    let mut prev = WaveField::zeros(nx, nz);
    let mut curr = WaveField::zeros(nx, nz);
    let mut next = WaveField::zeros(nx, nz);
    let mut traces = Vec::with_capacity(params.nt);
    let mut snapshots = Vec::new();
    let mut snapshot_steps = Vec::new();

    for it in 0..params.nt {
        fill_ghost(&mut ghost, &curr.values, nx, nz);
        for (iz, out) in next.values.chunks_exact_mut(nx).enumerate() {
            let cells = iz * nx..(iz + 1) * nx;
            let (prev_row, damp_row) = (&prev.values[cells.clone()], &damp[cells.clone()]);
            let coef_row = &coef[cells];
            // Ghost rows iz..=iz + 2·HALO hold field rows iz - HALO..=iz + HALO.
            let band = &ghost[iz * gx..(iz + 2 * HALO + 1) * gx];
            let across: [&[f64]; 2 * HALO + 1] =
                std::array::from_fn(|dx| &band[HALO * gx + dx..][..nx]);
            let down: [&[f64]; 2 * HALO + 1] =
                std::array::from_fn(|dz| &band[dz * gx + HALO..][..nx]);
            for (ix, out) in out.iter_mut().enumerate() {
                let centre = across[HALO][ix];
                let mut lap = 2.0 * FD_COEFFS[0] * centre;
                for (k, &c) in FD_COEFFS.iter().enumerate().skip(1) {
                    lap += c * (across[HALO - k][ix] + across[HALO + k][ix]);
                    lap += c * (down[HALO - k][ix] + down[HALO + k][ix]);
                }
                *out = damp_row[ix]
                    * (2.0 * centre - damp_row[ix] * prev_row[ix] + coef_row[ix] * (lap * inv_h2));
            }
        }
        // Source injection (scaled like a body force).
        if let Some(&w) = params.wavelet.get(it) {
            let (sx, sz) = params.source;
            let v = model.at(sx, sz);
            next.values[sz * nx + sx] += w * v * v * params.dt * params.dt;
        }
        inject(it, &mut next);

        traces.push((0..nx).map(|ix| next.at(ix, params.receiver_depth)).collect());
        if params.snapshot_every > 0 && it % params.snapshot_every == 0 {
            snapshots.push(next.clone());
            snapshot_steps.push(it);
        }
        std::mem::swap(&mut prev, &mut curr);
        std::mem::swap(&mut curr, &mut next);
    }
    PropagationResult { traces, snapshots, snapshot_steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::velocity::ModelKind;
    use ompc_testutil::Rng;

    fn small_model() -> VelocityModel {
        VelocityModel::generate(ModelKind::Constant, 60, 60, 10.0)
    }

    // The propagator as it was before the ghost border: the sponge factor,
    // v²·dt² and a clamped read of every neighbour, per cell and per step.
    // Kept verbatim as the reference the ghost-bordered stencil must match
    // bit for bit.
    #[inline]
    fn laplacian(field: &[f64], nx: usize, nz: usize, ix: usize, iz: usize, inv_h2: f64) -> f64 {
        let idx = iz * nx + ix;
        let mut lap = 2.0 * FD_COEFFS[0] * field[idx];
        for (k, &c) in FD_COEFFS.iter().enumerate().skip(1) {
            // Horizontal neighbours (clamped at the edges).
            let xm = ix.saturating_sub(k);
            let xp = (ix + k).min(nx - 1);
            lap += c * (field[iz * nx + xm] + field[iz * nx + xp]);
            // Vertical neighbours.
            let zm = iz.saturating_sub(k);
            let zp = (iz + k).min(nz - 1);
            lap += c * (field[zm * nx + ix] + field[zp * nx + ix]);
        }
        lap * inv_h2
    }

    fn reference_propagate<F>(
        model: &VelocityModel,
        params: &PropagationParams,
        mut inject: F,
    ) -> PropagationResult
    where
        F: FnMut(usize, &mut WaveField),
    {
        let (nx, nz) = (model.nx, model.nz);
        assert!(
            params.dt <= model.stable_dt() * (1.0 + 1e-9),
            "time step {} violates the CFL bound {}",
            params.dt,
            model.stable_dt()
        );
        let inv_h2 = 1.0 / (model.h * model.h);
        let mut prev = WaveField::zeros(nx, nz);
        let mut curr = WaveField::zeros(nx, nz);
        let mut next = WaveField::zeros(nx, nz);
        let mut traces = Vec::with_capacity(params.nt);
        let mut snapshots = Vec::new();
        let mut snapshot_steps = Vec::new();

        for it in 0..params.nt {
            for iz in 0..nz {
                for ix in 0..nx {
                    let idx = iz * nx + ix;
                    let v = model.at(ix, iz);
                    let lap = laplacian(&curr.values, nx, nz, ix, iz, inv_h2);
                    let damp = sponge_factor(ix, iz, nx, nz);
                    next.values[idx] = damp
                        * (2.0 * curr.values[idx] - damp * prev.values[idx]
                            + v * v * params.dt * params.dt * lap);
                }
            }
            // Source injection (scaled like a body force).
            if let Some(&w) = params.wavelet.get(it) {
                let (sx, sz) = params.source;
                let v = model.at(sx, sz);
                next.values[sz * nx + sx] += w * v * v * params.dt * params.dt;
            }
            inject(it, &mut next);

            traces.push((0..nx).map(|ix| next.at(ix, params.receiver_depth)).collect());
            if params.snapshot_every > 0 && it % params.snapshot_every == 0 {
                snapshots.push(next.clone());
                snapshot_steps.push(it);
            }
            std::mem::swap(&mut prev, &mut curr);
            std::mem::swap(&mut curr, &mut next);
        }
        PropagationResult { traces, snapshots, snapshot_steps }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Uniform in `[0, 1)`.
    fn unit(rng: &mut Rng) -> f64 {
        rng.range(0, 1 << 53) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn propagate_matches_the_clamped_reference_bit_for_bit() {
        let mut rng = Rng::new(26);
        // Grids narrower than the 9-point stencil in x, z or both (built
        // from raw values, which `generate` would refuse), then non-square
        // generated models of every kind.
        let mut models = Vec::new();
        for (nx, nz) in [(1, 1), (1, 13), (13, 1), (2, 3), (5, 8), (8, 8), (3, 21), (21, 7)] {
            let v = (0..nx * nz).map(|_| 1500.0 + 3000.0 * unit(&mut rng)).collect();
            models.push(VelocityModel::from_values(nx, nz, 10.0, v));
        }
        for kind in [ModelKind::SigsbeeLike, ModelKind::MarmousiLike, ModelKind::Constant] {
            models.push(VelocityModel::generate(kind, 29, 17, 15.0));
            models.push(VelocityModel::generate(kind, 11, 34, 10.0));
        }
        for (m, model) in models.iter().enumerate() {
            let (nx, nz) = (model.nx, model.nz);
            let (lx, lz) = (nx - 1, nz - 1);
            // Corners, edge midpoints and one random cell.
            let sources = [
                (0, 0),
                (lx, 0),
                (0, lz),
                (lx, lz),
                (nx / 2, 0),
                (lx, nz / 2),
                (rng.range_usize(0, nx), rng.range_usize(0, nz)),
            ];
            for (s, &source) in sources.iter().enumerate() {
                let nt = rng.range_usize(40, 80);
                let mut params = PropagationParams::for_model(model, nt);
                params.source = source;
                params.receiver_depth = [0, lz, rng.range_usize(0, nz)][s % 3];
                params.snapshot_every = [0, 1, 3][s % 3];
                // A random wavelet, sometimes shorter than the run.
                params.wavelet =
                    (0..nt - [0, 25][s % 2]).map(|_| 2.0 * unit(&mut rng) - 1.0).collect();
                // Writes cells on the border: corners and every edge in turn.
                let inject = |it: usize, field: &mut WaveField| {
                    let (lx, lz) = (field.nx - 1, field.nz - 1);
                    let cell = [(0, 0), (lx, lz), (it % field.nx, 0), (lx, it % field.nz)][it % 4];
                    field.values[cell.1 * field.nx + cell.0] += 0.25 - (it % 7) as f64 * 0.1;
                };
                let case = format!("model {m} ({nx}x{nz}), source {source:?}, nt {nt}");
                let want = reference_propagate(model, &params, inject);
                let got = propagate(model, &params, inject);
                assert_eq!(got.traces.len(), nt, "{case}");
                for (it, (g, w)) in got.traces.iter().zip(&want.traces).enumerate() {
                    assert_eq!(bits(g), bits(w), "{case}: trace of step {it}");
                }
                assert_eq!(got.snapshot_steps, want.snapshot_steps, "{case}");
                for (g, w) in got.snapshots.iter().zip(&want.snapshots) {
                    assert_eq!((g.nx, g.nz), (w.nx, w.nz), "{case}");
                    assert_eq!(bits(&g.values), bits(&w.values), "{case}: snapshot");
                }
                // The field must carry energy for the comparison to mean
                // anything.
                assert!(got.traces.iter().flatten().any(|&v| v != 0.0), "{case}");
            }
        }
    }

    #[test]
    fn ricker_wavelet_peaks_near_its_delay_and_decays() {
        let dt = 1e-3;
        let w = ricker_wavelet(15.0, dt, 400);
        let peak_idx = w.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        let expected = (1.0 / 15.0 / dt).round() as usize;
        assert!((peak_idx as i64 - expected as i64).abs() <= 1);
        assert!((w[0]).abs() < 0.01);
        assert!((w[399]).abs() < 1e-6);
        // The sampled peak sits within a sample of the analytic maximum of
        // 1.0 (the grid rarely lands exactly on the peak time).
        assert!(w[peak_idx] > 0.95 && w[peak_idx] <= 1.0);
    }

    #[test]
    fn wave_spreads_from_the_source() {
        let model = small_model();
        let mut params = PropagationParams::for_model(&model, 120);
        params.source = (30, 30);
        params.snapshot_every = 0;
        let result = propagate(&model, &params, |_, _| {});
        // Energy reached the receiver line (the wave propagated upward).
        let last = result.traces.last().unwrap();
        assert!(last.iter().any(|&v| v.abs() > 0.0));
        // And the field stayed finite (stability).
        assert!(last.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn energy_stays_bounded_with_sponge_boundaries() {
        let model = small_model();
        let mut params = PropagationParams::for_model(&model, 400);
        params.source = (30, 30);
        params.snapshot_every = 20;
        let result = propagate(&model, &params, |_, _| {});
        let energies: Vec<f64> = result.snapshots.iter().map(WaveField::energy).collect();
        let max_energy = energies.iter().cloned().fold(0.0f64, f64::max);
        let final_energy = *energies.last().unwrap();
        assert!(max_energy.is_finite() && max_energy > 0.0);
        // After the wave hits the sponge, energy must decay well below the
        // peak rather than grow (no numerical blow-up, absorbing borders).
        assert!(final_energy < max_energy);
    }

    #[test]
    fn traveltime_matches_the_medium_velocity() {
        // Constant 2000 m/s medium, source at depth, receiver line near the
        // surface: the first arrival at the receiver directly above the
        // source should be near distance / velocity (plus the wavelet
        // delay).
        let model = small_model();
        let mut params = PropagationParams::for_model(&model, 500);
        params.source = (30, 40);
        params.snapshot_every = 0;
        let result = propagate(&model, &params, |_, _| {});
        let distance = (40.0 - 2.0) * model.h;
        // The direct wave reaches the receiver at the travel time plus the
        // wavelet delay; detect its onset as the first sample exceeding 10%
        // of the trace's maximum (robust against later boundary events).
        let expected_t = distance / 2000.0 + 1.0 / 15.0;
        let trace_max = result.traces.iter().fold(0.0f64, |m, row| m.max(row[30].abs()));
        let onset = result
            .traces
            .iter()
            .position(|row| row[30].abs() > 0.1 * trace_max)
            .expect("the wave must arrive at the receiver") as f64
            * params.dt;
        assert!(
            onset > expected_t - 0.10 && onset < expected_t + 0.05,
            "onset at {onset}s, expected the direct arrival near {expected_t}s"
        );
    }

    #[test]
    fn injection_callback_adds_energy() {
        let model = small_model();
        let mut params = PropagationParams::for_model(&model, 60);
        params.wavelet = vec![0.0; 60]; // no source at all
        params.snapshot_every = 0;
        let quiet = propagate(&model, &params, |_, _| {});
        assert!(quiet.traces.iter().all(|row| row.iter().all(|&v| v == 0.0)));
        let noisy = propagate(&model, &params, |it, field| {
            if it == 5 {
                field.values[30 * 60 + 30] += 1.0;
            }
        });
        assert!(noisy.traces.iter().any(|row| row.iter().any(|&v| v != 0.0)));
    }

    #[test]
    #[should_panic(expected = "CFL")]
    fn unstable_time_step_is_rejected() {
        let model = small_model();
        let mut params = PropagationParams::for_model(&model, 10);
        params.dt = model.stable_dt() * 10.0;
        propagate(&model, &params, |_, _| {});
    }
}
