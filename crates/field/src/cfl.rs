//! Courant–Friedrichs–Lewy time-step limits for the Yee FDTD scheme.

use crate::fieldset::Dim;
use mrpic_kernels::constants::C;

/// Largest stable time step: `c dt = 1 / sqrt(sum 1/dx_i^2)` over the
/// axes with real extent.
pub fn max_dt(dim: Dim, dx: &[f64; 3]) -> f64 {
    let s: f64 = dim.axes().iter().map(|&d| 1.0 / (dx[d] * dx[d])).sum();
    1.0 / (C * s.sqrt())
}

/// Time step at a given Courant fraction (0 < cfl <= 1).
pub fn dt_at(dim: Dim, dx: &[f64; 3], cfl: f64) -> f64 {
    assert!(cfl > 0.0 && cfl <= 1.0, "cfl out of range: {cfl}");
    cfl * max_dt(dim, dx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubic_cells() {
        let dx = [1.0e-6; 3];
        let d3 = max_dt(Dim::Three, &dx);
        let d2 = max_dt(Dim::Two, &dx);
        assert!((d3 * C * 3.0f64.sqrt() / 1.0e-6 - 1.0).abs() < 1e-12);
        assert!((d2 * C * 2.0f64.sqrt() / 1.0e-6 - 1.0).abs() < 1e-12);
        assert!(d2 > d3);
    }

    #[test]
    fn anisotropic_cells() {
        let dx = [1.0e-6, 2.0e-6, 0.5e-6];
        let dt = max_dt(Dim::Three, &dx);
        let s: f64 = 1.0 / 1.0e-12 + 1.0 / 4.0e-12 + 1.0 / 0.25e-12;
        assert!((dt - 1.0 / (C * s.sqrt())).abs() < 1e-30);
    }

    #[test]
    fn light_travel() {
        let dx = [1.0e-6; 3];
        let dt = dt_at(Dim::Two, &dx, 0.7);
        let cells = C * dt / dx[0];
        assert!((cells - 0.7 / 2.0f64.sqrt()).abs() < 1e-12);
        assert!(cells < 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_cfl() {
        dt_at(Dim::Three, &[1.0e-6; 3], 1.5);
    }
}
