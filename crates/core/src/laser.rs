//! Laser injection via a current-sheet antenna.
//!
//! A thin sheet of oscillating current at a fixed plane `x = x_antenna`
//! radiates plane waves: a surface current `K = -2 eps0 c E_emit`
//! produces outgoing fields of amplitude `E_emit` on both sides (the
//! backward wave is absorbed by the PML behind the antenna). Oblique
//! incidence — the paper's 45° irradiation of the plasma mirror — is
//! realized by tilting the emission phase across the transverse
//! coordinate: `t_eff = t - (z - z0) sin(theta) / c` steers the beam by
//! `theta` from the x axis in the x–z plane.

use mrpic_field::fieldset::{Dim, FieldSet};
use mrpic_kernels::constants::{C, EPS0};
use serde::{Deserialize, Serialize};

/// Polarization of the emitted wave.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Polarization {
    /// E along y (out of plane in 2-D; "s" at oblique incidence).
    S,
    /// E in the x–z plane, perpendicular to propagation ("p").
    P,
}

/// A laser antenna at a fixed x plane.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LaserAntenna {
    /// Physical x of the emission plane \[m\] (snapped to a grid line).
    pub x_plane: f64,
    /// Peak field \[V/m\].
    pub e0: f64,
    /// Wavelength \[m\].
    pub lambda: f64,
    /// Gaussian temporal envelope: duration FWHM of intensity \[s\].
    pub tau_fwhm: f64,
    /// Time of envelope peak at the antenna \[s\].
    pub t_peak: f64,
    /// Transverse (z) center \[m\].
    pub z0: f64,
    /// Transverse (y) center \[m\] (3-D only; ignored in 2-D).
    pub y0: f64,
    /// Transverse waist (1/e² intensity radius) \[m\]; `f64::INFINITY`
    /// for a plane wave.
    pub waist: f64,
    /// Incidence angle from the x axis, in the x–z plane \[rad\].
    pub theta: f64,
    pub pol: Polarization,
}

impl LaserAntenna {
    /// The emitted field at transverse position `z`, `y`, time `t`.
    pub fn emitted_field(&self, t: f64, y: f64, z: f64) -> f64 {
        let omega = 2.0 * std::f64::consts::PI * C / self.lambda;
        // Phase tilt steers the beam by theta.
        let t_eff = t - (z - self.z0) * self.theta.sin() / C;
        // Gaussian envelope: FWHM of intensity -> sigma of field.
        let sigma_t = self.tau_fwhm / (2.0 * (2.0f64.ln()).sqrt()) / 2.0f64.sqrt();
        let env_t =
            (-(t_eff - self.t_peak) * (t_eff - self.t_peak) / (2.0 * sigma_t * sigma_t)).exp();
        let dy = y - self.y0;
        let r2 = (z - self.z0) * (z - self.z0) + dy * dy;
        let env_r = if self.waist.is_finite() {
            // Transverse footprint widens by 1/cos(theta) on the plane.
            let w_eff = self.waist / self.theta.cos();
            (-r2 / (w_eff * w_eff)).exp()
        } else {
            1.0
        };
        self.e0 * env_t * env_r * (omega * (t_eff - self.t_peak)).sin()
    }

    /// Peak normalized amplitude a0.
    pub fn a0(&self) -> f64 {
        mrpic_kernels::constants::a0_from_field(self.e0, self.lambda)
    }

    /// Add the antenna current into the valid J of every box whose
    /// region contains the emission plane. Call once per step with `t`
    /// at the half step (where J lives), after `sum_boundary`.
    pub fn deposit(&self, fs: &mut FieldSet, t: f64) {
        let geom = fs.geom;
        let dim = fs.dim;
        // Snap the plane to the nearest grid line (Ey/Ez are x-nodal).
        let i_plane = ((self.x_plane - geom.x0[0]) / geom.dx[0]).round() as i64;
        // Surface current K = -2 eps0 c E ; volume density J = K / dx.
        let norm = -2.0 * EPS0 * C / geom.dx[0];
        // Decompose along polarization.
        let (fy, fx, fz) = match self.pol {
            Polarization::S => (1.0, 0.0, 0.0),
            // p-pol unit vector perpendicular to k = (cos, 0, sin):
            Polarization::P => (0.0, -self.theta.sin(), self.theta.cos()),
        };
        for comp in 0..3 {
            let f = [fx, fy, fz][comp];
            if f == 0.0 {
                continue;
            }
            // Jy and Jz are x-nodal; Jx is x-half. For the (small) Jx
            // part of p-pol we use the same plane index (half-cell
            // offset is below grid resolution of the emission).
            let fa = &mut fs.j[comp];
            for bi in 0..fa.nfabs() {
                let fab = fa.fab_mut(bi);
                let vb = fab.valid_pts();
                if i_plane < vb.lo.x || i_plane >= vb.hi.x {
                    continue;
                }
                let ix = fab.indexer();
                let stag_y = if fab.stagger().is_nodal(1) { 0.0 } else { 0.5 };
                let stag_z = if fab.stagger().is_nodal(2) { 0.0 } else { 0.5 };
                let data = fab.comp_mut(0);
                for k in vb.lo.z..vb.hi.z {
                    let z = geom.node(2, k) + stag_z * geom.dx[2];
                    for j in vb.lo.y..vb.hi.y {
                        let y = match dim {
                            Dim::Two => self.y0,
                            Dim::Three => geom.node(1, j) + stag_y * geom.dx[1],
                        };
                        let e = self.emitted_field(t, y, z);
                        data[ix.at(i_plane, j, k)] += norm * f * e;
                    }
                }
            }
        }
    }

    /// Whether the antenna plane is still inside the domain (the moving
    /// window eventually leaves it behind).
    pub fn active(&self, fs: &FieldSet) -> bool {
        let geom = fs.geom;
        let i_plane = ((self.x_plane - geom.x0[0]) / geom.dx[0]).round() as i64;
        let dom = fs.domain();
        (dom.lo.x..dom.hi.x).contains(&i_plane)
    }
}

/// Helper: expected peak E for a pulse that should reach amplitude a0.
pub fn antenna_for_a0(
    a0: f64,
    lambda: f64,
    tau_fwhm: f64,
    x_plane: f64,
    z0: f64,
    waist: f64,
) -> LaserAntenna {
    LaserAntenna {
        x_plane,
        e0: mrpic_kernels::constants::field_from_a0(a0, lambda),
        lambda,
        tau_fwhm,
        t_peak: 1.5 * tau_fwhm,
        z0,
        y0: 0.0,
        waist,
        theta: 0.0,
        pol: Polarization::S,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrpic_amr::{BoxArray, IndexBox, IntVect, Periodicity};
    use mrpic_field::cfl::dt_at;
    use mrpic_field::fieldset::GridGeom;
    use mrpic_field::yee::step_fields;

    #[test]
    fn envelope_peaks_at_t_peak_and_center() {
        let a = antenna_for_a0(1.0, 0.8e-6, 20.0e-15, 0.0, 10.0e-6, 5.0e-6);
        // The carrier is sin(omega (t - t_peak)); sample a quarter period
        // after the peak where sin = 1.
        let omega = 2.0 * std::f64::consts::PI * C / a.lambda;
        let t = a.t_peak + 0.25 * 2.0 * std::f64::consts::PI / omega;
        let on_axis = a.emitted_field(t, 0.0, a.z0).abs();
        let off_axis = a.emitted_field(t, 0.0, a.z0 + a.waist).abs();
        assert!(on_axis > 0.99 * a.e0 * 0.9);
        assert!(off_axis < on_axis * 0.5);
        let late = a
            .emitted_field(a.t_peak + 10.0 * a.tau_fwhm, 0.0, a.z0)
            .abs();
        assert!(late < 1e-6 * a.e0);
    }

    #[test]
    fn oblique_tilt_delays_across_z() {
        let mut a = antenna_for_a0(1.0, 0.8e-6, 20.0e-15, 0.0, 0.0, f64::INFINITY);
        a.theta = 45.0f64.to_radians();
        // At z > z0 the effective time lags: the envelope peak arrives
        // later by z sin(theta) / c.
        let dtz = 5.0e-6 * a.theta.sin() / C;
        let e_center = a.emitted_field(a.t_peak, 0.0, 0.0);
        let e_shifted = a.emitted_field(a.t_peak + dtz, 0.0, 5.0e-6);
        assert!((e_center - e_shifted).abs() < 1e-9 * a.e0.max(1.0));
    }

    /// Antenna in a 2-D vacuum domain: after the pulse, the field left of
    /// the antenna mirrors the field right of it, and the peak amplitude
    /// approaches e0.
    #[test]
    fn antenna_radiates_expected_amplitude() {
        let n = 512i64;
        let dom = IndexBox::from_size(IntVect::new(n, 1, 4));
        let ba = BoxArray::single(dom);
        let dx = 0.05e-6;
        let geom = GridGeom {
            dx: [dx; 3],
            x0: [0.0; 3],
        };
        let per = Periodicity::new(dom, [true, false, true]);
        let mut fs = FieldSet::new(Dim::Two, ba, geom, per, 2);
        let lambda = 0.8e-6;
        let mut ant = antenna_for_a0(1.0, lambda, 8.0e-15, 256.0 * dx, 0.0, f64::INFINITY);
        ant.t_peak = 12.0e-15;
        let dt = dt_at(Dim::Two, &[dx; 3], 0.7);
        let mut t = 0.0;
        // Run until the pulse fully detaches but before the periodic
        // images wrap around and interfere.
        let steps = ((ant.t_peak + 2.0 * ant.tau_fwhm) / dt) as usize;
        for _ in 0..steps {
            fs.zero_j();
            ant.deposit(&mut fs, t + 0.5 * dt);
            step_fields(&mut fs, dt);
            t += dt;
        }
        let peak = fs.e[1].max_abs(0);
        assert!(
            (peak / ant.e0 - 1.0).abs() < 0.10,
            "radiated peak {peak:e} vs target {:e}",
            ant.e0
        );
        // Symmetric emission: max on each side similar.
        let (mut lmax, mut rmax) = (0.0f64, 0.0f64);
        for i in 0..n {
            let v = fs.e[1].at(0, IntVect::new(i, 0, 2)).unwrap().abs();
            if i < 256 {
                lmax = lmax.max(v);
            } else {
                rmax = rmax.max(v);
            }
        }
        assert!((lmax / rmax - 1.0).abs() < 0.1, "{lmax:e} vs {rmax:e}");
    }
}
