//! The 2-D acoustic finite-difference propagator: 8th order in space,
//! 2nd order in time, with sponge absorbing boundaries.
//!
//! Every cell takes the same stencil. Off the grid the field repeats its
//! nearest edge value, so [`propagate`] keeps each live field inside a
//! 4-cell ghost border holding those repeated values (a [`GhostField`]) and
//! reads it without clamps. An unclamped read of the ghost border *is* the
//! clamped read `field[min(max(i ± k, 0), n - 1)]`, and the update adds its
//! terms in the same order for every cell (centre, then for each offset the
//! horizontal and the vertical pair), so the results are identical to the
//! last bit to those of a per-cell loop that clamps each read. The sponge
//! factor and `v²·dt²` of each cell are computed once per propagation.
//!
//! Only the border is ever rewritten. A step writes the new field's
//! interior, adds the source and whatever `inject` adds, and only then
//! refreshes the border from the edge cells: `inject` may write an edge
//! cell, and the next step must read the edge as `inject` left it.
//!
//! A step sweeps the grid in passes of four rows. Grid rows `iz..iz + 4`
//! read, down their columns, the twelve padded rows that hold grid rows
//! `iz - 4..=iz + 7`; a pass loads each of them once per column for all
//! four of its cells there, not once per cell, so a vector of cells costs
//! 14 loads instead of 20 (eight horizontal neighbours, three band rows,
//! and `prev`, `damp` and `coef`). The one to three rows a depth leaves are
//! finished one at a time. Neither path can change a bit: both call one
//! cell function, so every cell takes the same operations on the same
//! values in the same order whichever path updates it; a pass changes only
//! which loads the cells of a column share.
//!
//! The update is one body built three times: as it is, for any host; with
//! AVX2 enabled, four lanes wide; and with AVX-512F enabled, eight lanes
//! wide. The platform picks the widest build the CPU runs, once per
//! propagation; no setting does. The builds cannot differ in a bit: a lane
//! is the same IEEE operation as its scalar twin, every build adds the
//! terms in the same order, and Rust never contracts `a * b + c` into a
//! fused multiply-add, not even where `avx512f` implies the FMA feature.
//! The four-row pass pays where loads bound the step: stepping the
//! survey's 96 × 96 grid on one CPU of a 2-vCPU AVX-512F Xeon, the
//! AVX-512F build went from 1 090 to 1 330 Mcell/s (× 1.22), the AVX2
//! build from 1 030 to 1 070 (× 1.04), and the portable build, bound by
//! its two-lane arithmetic, stayed at 650 (× 0.99).

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

/// A field on the model grid kept inside a `HALO`-cell ghost border whose
/// cells repeat the nearest edge value: `(nx + 8) × (nz + 8)` values,
/// row-major with `x` fastest, the grid's rows in the middle. This is the
/// layout [`propagate`] steps in and hands to its `inject` callback.
#[derive(Debug, Clone)]
pub struct GhostField {
    nx: usize,
    nz: usize,
    values: Vec<f64>,
}

impl GhostField {
    fn zeros(nx: usize, nz: usize) -> Self {
        Self { nx, nz, values: vec![0.0; (nx + 2 * HALO) * (nz + 2 * HALO)] }
    }

    /// Grid width.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid depth.
    pub fn nz(&self) -> usize {
        self.nz
    }

    fn row_start(&self, iz: usize) -> usize {
        assert!(iz < self.nz, "row {iz} is off a grid of depth {}", self.nz);
        (iz + HALO) * (self.nx + 2 * HALO) + HALO
    }

    /// Row `iz` of the grid, without its border.
    pub fn row(&self, iz: usize) -> &[f64] {
        &self.values[self.row_start(iz)..][..self.nx]
    }

    /// Row `iz` of the grid, without its border, to write.
    pub fn row_mut(&mut self, iz: usize) -> &mut [f64] {
        let start = self.row_start(iz);
        &mut self.values[start..][..self.nx]
    }

    /// The grid without its border, as a snapshot.
    pub fn to_field(&self) -> WaveField {
        let mut values = Vec::with_capacity(self.nx * self.nz);
        for iz in 0..self.nz {
            values.extend_from_slice(self.row(iz));
        }
        WaveField { nx: self.nx, nz: self.nz, values }
    }

    /// Rewrite the border from the edge cells: the `HALO` cells at each end
    /// of every grid row, then the `HALO` rows above and below the grid from
    /// the first and last padded rows (corners included).
    fn refresh_border(&mut self) {
        let (nx, gx) = (self.nx, self.nx + 2 * HALO);
        for row in self.values.chunks_exact_mut(gx).skip(HALO).take(self.nz) {
            let (first, last) = (row[HALO], row[HALO + nx - 1]);
            row[..HALO].fill(first);
            row[HALO + nx..].fill(last);
        }
        let (top, grid) = self.values.split_at_mut(HALO * gx);
        let (grid, bottom) = grid.split_at_mut(self.nz * gx);
        for row in top.chunks_exact_mut(gx) {
            row.copy_from_slice(&grid[..gx]);
        }
        for row in bottom.chunks_exact_mut(gx) {
            row.copy_from_slice(&grid[grid.len() - gx..]);
        }
    }
}

/// The update of one cell: `centre` and `prev` are its values in the
/// current and the previous field, `across[k]` and `down[k]` its horizontal
/// and vertical neighbour pairs at offset `k + 1`, and `damp` and `coef` its
/// sponge factor and `v²·dt²`. The terms are added in one order for every
/// cell: the centre, then for each offset the horizontal and the vertical
/// pair.
#[inline(always)]
fn cell(
    centre: f64,
    across: [[f64; 2]; 4],
    down: [[f64; 2]; 4],
    prev: f64,
    damp: f64,
    coef: f64,
    inv_h2: f64,
) -> f64 {
    let [c0, c1, c2, c3, c4] = FD_COEFFS;
    let [[w1, e1], [w2, e2], [w3, e3], [w4, e4]] = across;
    let [[n1, s1], [n2, s2], [n3, s3], [n4, s4]] = down;
    let mut lap = 2.0 * c0 * centre;
    lap += c1 * (w1 + e1);
    lap += c1 * (n1 + s1);
    lap += c2 * (w2 + e2);
    lap += c2 * (n2 + s2);
    lap += c3 * (w3 + e3);
    lap += c3 * (n3 + s3);
    lap += c4 * (w4 + e4);
    lap += c4 * (n4 + s4);
    damp * (2.0 * centre - damp * prev + coef * (lap * inv_h2))
}

/// One time step of every cell: the interior of `next` from `curr`, whose
/// border is current, and `prev`. All three are padded grids of
/// `nx + 2·HALO` values a row; `damp` and `coef` are not. A pass updates
/// four grid rows and loads each of the twelve band rows they read down
/// once per column; the one to three rows a depth leaves finish one at a
/// time. Every row a pass reads is a named slice re-sliced to `nx`, so no
/// index check is left per cell: indexing an array of row slices keeps
/// them, and the step runs several times slower.
#[inline(always)]
fn step_cells(
    next: &mut [f64],
    curr: &[f64],
    prev: &[f64],
    damp: &[f64],
    coef: &[f64],
    nx: usize,
    inv_h2: f64,
) {
    let gx = nx + 2 * HALO;
    let nz = damp.len() / nx;
    // The grid cells of padded row `p` of `curr`, and their neighbours
    // `dx - HALO` along.
    let at = |p: usize, dx: usize| &curr[p * gx + dx..][..nx];
    let row = |p: usize| at(p, HALO);
    // Grid row `iz` of `prev`, `damp` and `coef`.
    let old = |iz: usize| &prev[(iz + HALO) * gx + HALO..][..nx];
    let sponge = |iz: usize| &damp[iz * nx..][..nx];
    let scale = |iz: usize| &coef[iz * nx..][..nx];

    let mut rows = next[HALO * gx..][..nz * gx].chunks_exact_mut(4 * gx);
    for (pass, out) in rows.by_ref().enumerate() {
        let iz = 4 * pass;
        // Padded rows iz..iz + 12 hold grid rows iz - HALO..=iz + 7.
        let (b0, b1, b2, b3) = (row(iz), row(iz + 1), row(iz + 2), row(iz + 3));
        let (b4, b5, b6, b7) = (row(iz + 4), row(iz + 5), row(iz + 6), row(iz + 7));
        let (b8, b9, b10, b11) = (row(iz + 8), row(iz + 9), row(iz + 10), row(iz + 11));
        let (aw4, aw3, aw2, aw1) = (at(iz + 4, 0), at(iz + 4, 1), at(iz + 4, 2), at(iz + 4, 3));
        let (ae1, ae2, ae3, ae4) = (at(iz + 4, 5), at(iz + 4, 6), at(iz + 4, 7), at(iz + 4, 8));
        let (bw4, bw3, bw2, bw1) = (at(iz + 5, 0), at(iz + 5, 1), at(iz + 5, 2), at(iz + 5, 3));
        let (be1, be2, be3, be4) = (at(iz + 5, 5), at(iz + 5, 6), at(iz + 5, 7), at(iz + 5, 8));
        let (cw4, cw3, cw2, cw1) = (at(iz + 6, 0), at(iz + 6, 1), at(iz + 6, 2), at(iz + 6, 3));
        let (ce1, ce2, ce3, ce4) = (at(iz + 6, 5), at(iz + 6, 6), at(iz + 6, 7), at(iz + 6, 8));
        let (dw4, dw3, dw2, dw1) = (at(iz + 7, 0), at(iz + 7, 1), at(iz + 7, 2), at(iz + 7, 3));
        let (de1, de2, de3, de4) = (at(iz + 7, 5), at(iz + 7, 6), at(iz + 7, 7), at(iz + 7, 8));
        let (p0, p1, p2, p3) = (old(iz), old(iz + 1), old(iz + 2), old(iz + 3));
        let (d0, d1, d2, d3) = (sponge(iz), sponge(iz + 1), sponge(iz + 2), sponge(iz + 3));
        let (k0, k1, k2, k3) = (scale(iz), scale(iz + 1), scale(iz + 2), scale(iz + 3));
        let (o0, out) = out.split_at_mut(gx);
        let (o1, out) = out.split_at_mut(gx);
        let (o2, o3) = out.split_at_mut(gx);
        let (o0, o1) = (&mut o0[HALO..][..nx], &mut o1[HALO..][..nx]);
        let (o2, o3) = (&mut o2[HALO..][..nx], &mut o3[HALO..][..nx]);
        for ix in 0..nx {
            o0[ix] = cell(
                b4[ix],
                [[aw1[ix], ae1[ix]], [aw2[ix], ae2[ix]], [aw3[ix], ae3[ix]], [aw4[ix], ae4[ix]]],
                [[b3[ix], b5[ix]], [b2[ix], b6[ix]], [b1[ix], b7[ix]], [b0[ix], b8[ix]]],
                p0[ix],
                d0[ix],
                k0[ix],
                inv_h2,
            );
            o1[ix] = cell(
                b5[ix],
                [[bw1[ix], be1[ix]], [bw2[ix], be2[ix]], [bw3[ix], be3[ix]], [bw4[ix], be4[ix]]],
                [[b4[ix], b6[ix]], [b3[ix], b7[ix]], [b2[ix], b8[ix]], [b1[ix], b9[ix]]],
                p1[ix],
                d1[ix],
                k1[ix],
                inv_h2,
            );
            o2[ix] = cell(
                b6[ix],
                [[cw1[ix], ce1[ix]], [cw2[ix], ce2[ix]], [cw3[ix], ce3[ix]], [cw4[ix], ce4[ix]]],
                [[b5[ix], b7[ix]], [b4[ix], b8[ix]], [b3[ix], b9[ix]], [b2[ix], b10[ix]]],
                p2[ix],
                d2[ix],
                k2[ix],
                inv_h2,
            );
            o3[ix] = cell(
                b7[ix],
                [[dw1[ix], de1[ix]], [dw2[ix], de2[ix]], [dw3[ix], de3[ix]], [dw4[ix], de4[ix]]],
                [[b6[ix], b8[ix]], [b5[ix], b9[ix]], [b4[ix], b10[ix]], [b3[ix], b11[ix]]],
                p3[ix],
                d3[ix],
                k3[ix],
                inv_h2,
            );
        }
    }
    for (iz, out) in (nz - nz % 4..nz).zip(rows.into_remainder().chunks_exact_mut(gx)) {
        let (n4, n3, n2, n1) = (row(iz), row(iz + 1), row(iz + 2), row(iz + 3));
        let (s1, s2, s3, s4) = (row(iz + 5), row(iz + 6), row(iz + 7), row(iz + 8));
        let c = row(iz + 4);
        let (w4, w3, w2, w1) = (at(iz + 4, 0), at(iz + 4, 1), at(iz + 4, 2), at(iz + 4, 3));
        let (e1, e2, e3, e4) = (at(iz + 4, 5), at(iz + 4, 6), at(iz + 4, 7), at(iz + 4, 8));
        let (p, d, k) = (old(iz), sponge(iz), scale(iz));
        let out = &mut out[HALO..][..nx];
        for ix in 0..nx {
            out[ix] = cell(
                c[ix],
                [[w1[ix], e1[ix]], [w2[ix], e2[ix]], [w3[ix], e3[ix]], [w4[ix], e4[ix]]],
                [[n1[ix], s1[ix]], [n2[ix], s2[ix]], [n3[ix], s3[ix]], [n4[ix], s4[ix]]],
                p[ix],
                d[ix],
                k[ix],
                inv_h2,
            );
        }
    }
}

/// [`step_cells`] built with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn step_avx2(
    next: &mut [f64],
    curr: &[f64],
    prev: &[f64],
    damp: &[f64],
    coef: &[f64],
    nx: usize,
    inv_h2: f64,
) {
    step_cells(next, curr, prev, damp, coef, nx, inv_h2);
}

/// [`step_cells`] built with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn step_avx512(
    next: &mut [f64],
    curr: &[f64],
    prev: &[f64],
    damp: &[f64],
    coef: &[f64],
    nx: usize,
    inv_h2: f64,
) {
    step_cells(next, curr, prev, damp, coef, nx, inv_h2);
}

/// A build of [`step_cells`].
///
/// # Safety
///
/// The CPU must have every target feature the build is compiled with.
type Step = unsafe fn(&mut [f64], &[f64], &[f64], &[f64], &[f64], usize, f64);

/// The widest build of [`step_cells`] this CPU runs: AVX-512F, AVX2 or
/// portable.
fn widest_step() -> Step {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return step_avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return step_avx2;
        }
    }
    step_cells
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
/// Each time step updates every cell and adds the source wavelet, then
/// calls `inject` with the step index and the new field, to which it may
/// add energy anywhere — the adjoint pass of RTM injects the time-reversed
/// receiver traces, and its source pass reads the field to image it.
/// `inject` reaches the grid's rows ([`GhostField::row`],
/// [`GhostField::row_mut`]), never the border: the border is refreshed
/// after `inject` returns, so an edge cell it writes is what the next
/// step's off-grid reads see. Traces and snapshots record the field as
/// `inject` left it.
pub fn propagate<F>(
    model: &VelocityModel,
    params: &PropagationParams,
    mut inject: F,
) -> PropagationResult
where
    F: FnMut(usize, &mut GhostField),
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
    let mut prev = GhostField::zeros(nx, nz);
    let mut curr = GhostField::zeros(nx, nz);
    let mut next = GhostField::zeros(nx, nz);
    let mut traces = Vec::with_capacity(params.nt);
    let mut snapshots = Vec::new();
    let mut snapshot_steps = Vec::new();
    let step = widest_step();

    for it in 0..params.nt {
        // SAFETY: `widest_step` picked a build this CPU has the features of.
        unsafe { step(&mut next.values, &curr.values, &prev.values, &damp, &coef, nx, inv_h2) };
        // Source injection (scaled like a body force).
        if let Some(&w) = params.wavelet.get(it) {
            let (sx, sz) = params.source;
            let v = model.at(sx, sz);
            next.row_mut(sz)[sx] += w * v * v * params.dt * params.dt;
        }
        inject(it, &mut next);
        next.refresh_border();

        traces.push(next.row(params.receiver_depth).to_vec());
        if params.snapshot_every > 0 && it % params.snapshot_every == 0 {
            snapshots.push(next.to_field());
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
                let kick = |it: usize| {
                    let cell = [(0, 0), (lx, lz), (it % nx, 0), (lx, it % nz)][it % 4];
                    (cell, 0.25 - (it % 7) as f64 * 0.1)
                };
                let case = format!("model {m} ({nx}x{nz}), source {source:?}, nt {nt}");
                let want = reference_propagate(model, &params, |it, field: &mut WaveField| {
                    let ((x, z), amount) = kick(it);
                    field.values[z * field.nx + x] += amount;
                });
                let got = propagate(model, &params, |it, field: &mut GhostField| {
                    let ((x, z), amount) = kick(it);
                    field.row_mut(z)[x] += amount;
                });
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
    fn every_build_of_the_step_agrees_bit_for_bit() {
        let mut builds: Vec<(&str, Step)> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        for (name, build, present) in [
            ("AVX2", step_avx2 as Step, is_x86_feature_detected!("avx2")),
            ("AVX-512F", step_avx512 as Step, is_x86_feature_detected!("avx512f")),
        ] {
            if present {
                builds.push((name, build));
            } else {
                println!("skipped: this host has no {name} build to compare");
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("skipped: this host has no vector build to compare");

        let mut rng = Rng::new(36);
        // Widths around 4 and 8 lanes leave every remainder after the last
        // full vector of either build, and depths 1-9, 11, 96 and 97 every
        // remainder of a four-row pass: the shapes listed first, then every
        // other pairing of their widths with those depths.
        let shapes = [(1, 1), (3, 9), (5, 4), (7, 2), (9, 7), (13, 3), (15, 5), (17, 8)];
        let listed: Vec<_> = shapes.into_iter().chain([(96, 11), (97, 5), (97, 96)]).collect();
        let widths = [1, 3, 5, 7, 9, 13, 15, 17, 96, 97];
        let depths = (1..=9).chain([11, 96, 97]);
        let pairings = depths.flat_map(|nz| widths.map(|nx| (nx, nz)));
        let others: Vec<_> = pairings.filter(|shape| !listed.contains(shape)).collect();
        for &(nx, nz) in listed.iter().chain(&others) {
            let padded = (nx + 2 * HALO) * (nz + 2 * HALO);
            let mut random = |n: usize, lo: f64, span: f64| -> Vec<f64> {
                (0..n).map(|_| lo + span * unit(&mut rng)).collect()
            };
            let curr = random(padded, -1.0, 2.0);
            let prev = random(padded, -1.0, 2.0);
            let damp = random(nx * nz, 0.9, 0.1);
            let coef = random(nx * nz, 0.0, 4e-3);
            let inv_h2 = 1.0 / (10.0 + unit(&mut rng)).powi(2);
            // The border of `next` is left alone, so it stays NaN in every build.
            let mut portable = vec![f64::NAN; padded];
            step_cells(&mut portable, &curr, &prev, &damp, &coef, nx, inv_h2);
            let untouched = portable.iter().filter(|v| v.is_nan()).count();
            assert_eq!(untouched, padded - nx * nz, "{nx}x{nz}");
            assert!(portable.iter().all(|&v| v != 0.0), "{nx}x{nz}");
            for &(name, build) in &builds {
                let mut vector = vec![f64::NAN; padded];
                // SAFETY: only the builds this CPU has the features of were kept.
                unsafe { build(&mut vector, &curr, &prev, &damp, &coef, nx, inv_h2) };
                assert_eq!(bits(&vector), bits(&portable), "{name}, {nx}x{nz}");
            }

            // From `curr`'s interior inside a border `refresh_border` filled,
            // every build takes one step of the clamped per-cell reference.
            let mut field = GhostField { nx, nz, values: curr };
            field.refresh_border();
            let grid = field.to_field().values;
            let old = GhostField { nx, nz, values: prev.clone() }.to_field().values;
            let want: Vec<f64> = (0..nx * nz)
                .map(|i| {
                    let lap = laplacian(&grid, nx, nz, i % nx, i / nx, inv_h2);
                    damp[i] * (2.0 * grid[i] - damp[i] * old[i] + coef[i] * lap)
                })
                .collect();
            for &(name, build) in [("portable", step_cells as Step)].iter().chain(&builds) {
                let mut next = GhostField { nx, nz, values: vec![f64::NAN; padded] };
                // SAFETY: only the builds this CPU has the features of were kept.
                unsafe { build(&mut next.values, &field.values, &prev, &damp, &coef, nx, inv_h2) };
                let got = next.to_field().values;
                assert_eq!(bits(&got), bits(&want), "{name}, {nx}x{nz}: the clamped reference");
            }
        }
    }

    #[test]
    fn refresh_border_repeats_the_nearest_edge_value() {
        for (nx, nz) in [(1, 1), (2, 3), (9, 1), (11, 6)] {
            let mut field = GhostField::zeros(nx, nz);
            for iz in 0..nz {
                for (ix, v) in field.row_mut(iz).iter_mut().enumerate() {
                    *v = (iz * nx + ix + 1) as f64;
                }
            }
            field.refresh_border();
            let gx = nx + 2 * HALO;
            for (gz, row) in field.values.chunks_exact(gx).enumerate() {
                for (gxi, &v) in row.iter().enumerate() {
                    let iz = gz.clamp(HALO, HALO + nz - 1) - HALO;
                    let ix = gxi.clamp(HALO, HALO + nx - 1) - HALO;
                    assert_eq!(v, (iz * nx + ix + 1) as f64, "{nx}x{nz} at ({gxi}, {gz})");
                }
            }
            assert_eq!(
                field.to_field().values,
                (1..=nx * nz).map(|v| v as f64).collect::<Vec<_>>()
            );
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
                field.row_mut(30)[30] += 1.0;
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
