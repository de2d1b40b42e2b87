//! Synthetic velocity models with the character of the datasets used in the
//! paper: Sigsbee (layered sediments with a salt body) and Marmousi
//! (strongly varying dipping layers).

/// Which synthetic model to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Layered sediments with an embedded high-velocity salt body, after
    /// the Sigsbee 2A constant-density acoustic dataset.
    SigsbeeLike,
    /// Dipping, faulted layers with strong lateral and vertical velocity
    /// changes, after the Marmousi structural model.
    MarmousiLike,
    /// A constant-velocity medium (useful for analytic sanity checks).
    Constant,
}

impl ModelKind {
    /// Display name used in reports (matches the paper's legend).
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::SigsbeeLike => "Sigsbee",
            ModelKind::MarmousiLike => "Marmousi",
            ModelKind::Constant => "Constant",
        }
    }
}

/// A 2-D gridded P-wave velocity model (m/s), stored row-major with `x`
/// fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct VelocityModel {
    /// Number of grid points in the horizontal direction.
    pub nx: usize,
    /// Number of grid points in depth.
    pub nz: usize,
    /// Grid spacing in metres (isotropic).
    pub h: f64,
    velocities: Vec<f64>,
}

impl VelocityModel {
    /// Generate a synthetic model of the requested kind and size.
    pub fn generate(kind: ModelKind, nx: usize, nz: usize, h: f64) -> Self {
        assert!(nx >= 8 && nz >= 8, "model must be at least 8x8");
        assert!(h > 0.0, "grid spacing must be positive");
        let mut velocities = vec![0.0f64; nx * nz];
        for iz in 0..nz {
            for ix in 0..nx {
                let x = ix as f64 / (nx - 1) as f64;
                let z = iz as f64 / (nz - 1) as f64;
                let v = match kind {
                    ModelKind::Constant => 2000.0,
                    ModelKind::SigsbeeLike => {
                        // Water layer, then sediments whose velocity grows
                        // with depth, plus a lens-shaped salt body at
                        // mid-depth with a strong velocity contrast.
                        let background =
                            if z < 0.08 { 1500.0 } else { 1700.0 + 2300.0 * (z - 0.08) };
                        let dx = (x - 0.55) / 0.28;
                        let dz = (z - 0.45) / 0.18;
                        if dx * dx + dz * dz < 1.0 {
                            4500.0
                        } else {
                            background
                        }
                    }
                    ModelKind::MarmousiLike => {
                        // Dipping layers: velocity increases with depth and
                        // oscillates along a tilted coordinate, with a
                        // lateral gradient — strong horizontal and vertical
                        // variation like Marmousi.
                        let tilt = z + 0.25 * x;
                        let layer = (tilt * 24.0).sin();
                        let lateral = 1.0 + 0.3 * (x * std::f64::consts::TAU).sin();
                        1500.0 + 2200.0 * z + 350.0 * layer * lateral
                    }
                };
                velocities[iz * nx + ix] = v;
            }
        }
        Self { nx, nz, h, velocities }
    }

    /// Velocity at grid point `(ix, iz)`.
    #[inline]
    pub fn at(&self, ix: usize, iz: usize) -> f64 {
        self.velocities[iz * self.nx + ix]
    }

    /// Raw velocity grid, row-major with `x` fastest.
    pub fn values(&self) -> &[f64] {
        &self.velocities
    }

    /// Rebuild a model from its raw grid (the inverse of
    /// [`VelocityModel::values`]) — used by cluster kernels that receive
    /// the model as a mapped buffer instead of a captured closure value.
    /// Unlike [`VelocityModel::generate`] it takes grids down to 1×1.
    ///
    /// # Panics
    ///
    /// If the grid is empty (`nx` or `nz` is 0) or `velocities` does not
    /// hold `nx × nz` values.
    pub fn from_values(nx: usize, nz: usize, h: f64, velocities: Vec<f64>) -> Self {
        assert!(nx > 0 && nz > 0, "velocity grid {nx}x{nz} is empty");
        assert_eq!(velocities.len(), nx * nz, "velocity grid must be nx × nz");
        Self { nx, nz, h, velocities }
    }

    /// Maximum velocity (governs the CFL-stable time step).
    pub fn max_velocity(&self) -> f64 {
        self.velocities.iter().copied().fold(0.0, f64::max)
    }

    /// Minimum velocity (governs dispersion-free frequency content).
    pub fn min_velocity(&self) -> f64 {
        self.velocities.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// A smoothed version of the model (simple box blur applied `passes`
    /// times), used as the migration velocity so RTM does not "cheat" with
    /// the exact reflectors.
    pub fn smoothed(&self, passes: usize) -> VelocityModel {
        let mut current = self.velocities.clone();
        let mut next = vec![0.0f64; current.len()];
        for _ in 0..passes {
            for iz in 0..self.nz {
                for ix in 0..self.nx {
                    let mut sum = 0.0;
                    let mut count = 0.0;
                    for dz in -1i64..=1 {
                        for dx in -1i64..=1 {
                            let jx = ix as i64 + dx;
                            let jz = iz as i64 + dz;
                            if jx >= 0
                                && jz >= 0
                                && (jx as usize) < self.nx
                                && (jz as usize) < self.nz
                            {
                                sum += current[jz as usize * self.nx + jx as usize];
                                count += 1.0;
                            }
                        }
                    }
                    next[iz * self.nx + ix] = sum / count;
                }
            }
            std::mem::swap(&mut current, &mut next);
        }
        VelocityModel { nx: self.nx, nz: self.nz, h: self.h, velocities: current }
    }

    /// Largest stable time step for the 8th-order scheme (CFL condition
    /// with a safety factor).
    pub fn stable_dt(&self) -> f64 {
        0.4 * self.h / self.max_velocity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_model_is_constant() {
        let m = VelocityModel::generate(ModelKind::Constant, 16, 16, 10.0);
        assert_eq!(m.max_velocity(), 2000.0);
        assert_eq!(m.min_velocity(), 2000.0);
        assert_eq!(m.at(3, 7), 2000.0);
        assert_eq!(m.values().len(), 256);
    }

    #[test]
    fn sigsbee_has_water_salt_and_sediment_velocities() {
        let m = VelocityModel::generate(ModelKind::SigsbeeLike, 64, 64, 15.0);
        // Top of the model is water speed.
        assert!((m.at(10, 0) - 1500.0).abs() < 1.0);
        // The salt body sits mid-model with 4500 m/s.
        assert_eq!(m.at(35, 28), 4500.0);
        // Velocity generally increases with depth outside the salt.
        assert!(m.at(2, 60) > m.at(2, 10));
        assert!(m.max_velocity() <= 4500.0 + 1e-9);
    }

    #[test]
    fn marmousi_has_strong_lateral_variation() {
        let m = VelocityModel::generate(ModelKind::MarmousiLike, 64, 64, 15.0);
        let mid = 32;
        let left: f64 = (0..10).map(|ix| m.at(ix, mid)).sum::<f64>() / 10.0;
        let right: f64 = (54..64).map(|ix| m.at(ix, mid)).sum::<f64>() / 10.0;
        assert!((left - right).abs() > 50.0, "expected lateral variation, got {left} vs {right}");
        assert!(m.min_velocity() > 500.0);
    }

    #[test]
    fn smoothing_reduces_contrast_but_keeps_bounds() {
        let m = VelocityModel::generate(ModelKind::SigsbeeLike, 48, 48, 15.0);
        let s = m.smoothed(4);
        assert!(s.max_velocity() <= m.max_velocity() + 1e-9);
        assert!(s.min_velocity() >= m.min_velocity() - 1e-9);
        // Contrast across the salt boundary shrinks.
        let sharp = (m.at(26, 20) - m.at(26, 10)).abs();
        let smooth = (s.at(26, 20) - s.at(26, 10)).abs();
        assert!(smooth <= sharp);
    }

    #[test]
    fn stable_dt_respects_cfl() {
        let m = VelocityModel::generate(ModelKind::SigsbeeLike, 32, 32, 10.0);
        let dt = m.stable_dt();
        assert!(dt > 0.0);
        assert!(dt * m.max_velocity() / m.h <= 0.4 + 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 8x8")]
    fn tiny_models_are_rejected() {
        VelocityModel::generate(ModelKind::Constant, 4, 4, 10.0);
    }

    #[test]
    #[should_panic(expected = "velocity grid 0x4 is empty")]
    fn empty_grids_are_rejected() {
        VelocityModel::from_values(0, 4, 10.0, Vec::new());
    }
}
