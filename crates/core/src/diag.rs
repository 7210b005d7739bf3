//! Reduced diagnostics: beam charge, energy spectra, field slices.
//!
//! These regenerate the observables of the paper's Fig. 7: (a) beam
//! charge in the simulation window over time, (b) electron energy
//! spectra, (c/d) density + laser-amplitude snapshots.

use crate::particles::ParticleContainer;
use mrpic_amr::IntVect;
use mrpic_field::fieldset::FieldSet;
use mrpic_kernels::constants::{C2, M_E, Q_E};
use mrpic_kernels::push::gamma_of_u;
use serde::{Deserialize, Serialize};
use std::io::{BufWriter, Write};

/// Kinetic energy of one particle \[J\] given u = gamma v.
#[inline]
pub fn kinetic_energy(mass: f64, ux: f64, uy: f64, uz: f64) -> f64 {
    let g = gamma_of_u(ux, uy, uz);
    mass * C2 * (g - 1.0)
}

/// Kinetic energy in MeV.
#[inline]
pub fn kinetic_energy_mev(mass: f64, ux: f64, uy: f64, uz: f64) -> f64 {
    kinetic_energy(mass, ux, uy, uz) / (1.0e6 * Q_E)
}

/// Charge \[C\] of all particles above a kinetic-energy threshold
/// \[MeV\] — the "beam charge in the simulation window" of Fig. 7(a).
pub fn beam_charge(pc: &ParticleContainer, charge: f64, mass: f64, min_mev: f64) -> f64 {
    let mut q = 0.0;
    for buf in &pc.bufs {
        for i in 0..buf.len() {
            if kinetic_energy_mev(mass, buf.ux[i], buf.uy[i], buf.uz[i]) >= min_mev {
                q += charge * buf.w[i];
            }
        }
    }
    q
}

/// An energy spectrum: charge per MeV bin.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Spectrum {
    pub e_min_mev: f64,
    pub e_max_mev: f64,
    /// |charge| per bin \[C\].
    pub bins: Vec<f64>,
}

impl Spectrum {
    /// Histogram the kinetic energies, weighting by |q| w.
    pub fn compute(
        pc: &ParticleContainer,
        charge: f64,
        mass: f64,
        e_min_mev: f64,
        e_max_mev: f64,
        nbins: usize,
    ) -> Self {
        let mut bins = vec![0.0; nbins];
        if nbins > 0 {
            let width = (e_max_mev - e_min_mev) / nbins as f64;
            for buf in &pc.bufs {
                for i in 0..buf.len() {
                    let e = kinetic_energy_mev(mass, buf.ux[i], buf.uy[i], buf.uz[i]);
                    // The top edge belongs to the last bin, not the overflow.
                    if e < e_min_mev || e > e_max_mev {
                        continue;
                    }
                    let b = ((e - e_min_mev) / width) as usize;
                    bins[b.min(nbins - 1)] += charge.abs() * buf.w[i];
                }
            }
        }
        Self {
            e_min_mev,
            e_max_mev,
            bins,
        }
    }

    pub fn bin_center(&self, i: usize) -> f64 {
        let width = (self.e_max_mev - self.e_min_mev) / self.bins.len() as f64;
        self.e_min_mev + (i as f64 + 0.5) * width
    }

    /// Peak bin (center energy, charge). An empty histogram reports
    /// the lower edge with zero charge.
    pub fn peak(&self) -> (f64, f64) {
        if self.bins.is_empty() {
            return (self.e_min_mev, 0.0);
        }
        let (mut bi, mut bv) = (0, 0.0);
        for (i, &v) in self.bins.iter().enumerate() {
            if v > bv {
                bv = v;
                bi = i;
            }
        }
        (self.bin_center(bi), bv)
    }

    /// Total charge in the histogram.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Charge-weighted mean energy and rms spread (MeV) above a floor.
    pub fn mean_and_spread(&self, floor_mev: f64) -> (f64, f64) {
        let (mut m0, mut m1, mut m2) = (0.0, 0.0, 0.0);
        for (i, &v) in self.bins.iter().enumerate() {
            let e = self.bin_center(i);
            if e < floor_mev {
                continue;
            }
            m0 += v;
            m1 += v * e;
            m2 += v * e * e;
        }
        if m0 == 0.0 {
            return (0.0, 0.0);
        }
        let mean = m1 / m0;
        ((mean), (m2 / m0 - mean * mean).max(0.0).sqrt())
    }

    /// Normalized L1 distance to another spectrum (shape comparison used
    /// by the MR-vs-no-MR validation).
    pub fn l1_distance(&self, other: &Spectrum) -> f64 {
        assert_eq!(self.bins.len(), other.bins.len());
        let (ta, tb) = (self.total(), other.total());
        if ta == 0.0 || tb == 0.0 {
            return 1.0;
        }
        self.bins
            .iter()
            .zip(&other.bins)
            .map(|(a, b)| (a / ta - b / tb).abs())
            .sum::<f64>()
            / 2.0
    }

    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "energy_mev,charge_c")?;
        for i in 0..self.bins.len() {
            writeln!(f, "{},{}", self.bin_center(i), self.bins[i])?;
        }
        f.flush()
    }
}

/// Electron-equivalent spectrum convenience.
pub fn electron_spectrum(pc: &ParticleContainer, e_max_mev: f64, nbins: usize) -> Spectrum {
    Spectrum::compute(pc, -Q_E, M_E, 0.0, e_max_mev, nbins)
}

/// A 2-D slice of one field component (x–z plane at y index `j`),
/// written as CSV rows `x_index,z_index,value`.
pub fn write_field_slice(
    fs: &FieldSet,
    which: FieldPick,
    j: i64,
    path: &std::path::Path,
    stride: i64,
) -> std::io::Result<()> {
    let fa = match which {
        FieldPick::E(c) => &fs.e[c],
        FieldPick::B(c) => &fs.b[c],
        FieldPick::J(c) => &fs.j[c],
    };
    let mut f = BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "i,k,value")?;
    let dom = fs.domain();
    let mut k = dom.lo.z;
    while k < dom.hi.z {
        let mut i = dom.lo.x;
        while i < dom.hi.x {
            if let Some(v) = fa.at(0, IntVect::new(i, j, k)) {
                writeln!(f, "{i},{k},{v}")?;
            }
            i += stride;
        }
        k += stride;
    }
    f.flush()
}

/// Which component to slice.
#[derive(Clone, Copy, Debug)]
pub enum FieldPick {
    E(usize),
    B(usize),
    J(usize),
}

/// A time series recorder (steps, values) with JSON output.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    pub name: String,
    pub t: Vec<f64>,
    pub v: Vec<f64>,
}

impl TimeSeries {
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            ..Default::default()
        }
    }

    pub fn push(&mut self, t: f64, v: f64) {
        self.t.push(t);
        self.v.push(v);
    }

    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, serde_json::to_string_pretty(self).unwrap())
    }

    pub fn last(&self) -> Option<f64> {
        self.v.last().copied()
    }

    pub fn max(&self) -> f64 {
        self.v.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrpic_kernels::constants::C;

    fn container_with_energies(mev: &[f64]) -> ParticleContainer {
        let mut pc = ParticleContainer::new(1);
        for &e in mev {
            // Invert E = mc^2 (gamma - 1) for ux.
            let g = 1.0 + e * 1.0e6 * Q_E / (M_E * C2);
            let u = C * (g * g - 1.0).sqrt();
            pc.bufs[0].push(0.0, 0.0, 0.0, u, 0.0, 0.0, 1.0e7);
        }
        pc
    }

    #[test]
    fn kinetic_energy_inverts() {
        let g = 10.0;
        let u = C * (g * g - 1.0f64).sqrt();
        let e = kinetic_energy_mev(M_E, u, 0.0, 0.0);
        // (gamma - 1) * 0.511 MeV
        assert!((e - 9.0 * 0.510999).abs() < 1e-3, "{e}");
    }

    #[test]
    fn beam_charge_thresholds() {
        let pc = container_with_energies(&[1.0, 50.0, 120.0, 300.0]);
        let q_all = beam_charge(&pc, -Q_E, M_E, 0.0);
        let q_hi = beam_charge(&pc, -Q_E, M_E, 100.0);
        assert!((q_all / (-Q_E * 4.0e7) - 1.0).abs() < 1e-9);
        assert!((q_hi / (-Q_E * 2.0e7) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spectrum_peak_and_spread() {
        let pc = container_with_energies(&[99.0, 100.0, 100.5, 101.0, 100.2]);
        let s = Spectrum::compute(&pc, -Q_E, M_E, 0.0, 200.0, 100);
        let (peak_e, _) = s.peak();
        assert!((peak_e - 101.0).abs() < 2.5, "peak at {peak_e}");
        let (mean, spread) = s.mean_and_spread(0.0);
        assert!((mean - 100.1).abs() < 2.0);
        assert!(spread < 2.0);
        assert!((s.total() - 5.0 * Q_E * 1.0e7).abs() < 1e-18);
    }

    #[test]
    fn spectrum_with_zero_bins_does_not_panic() {
        let pc = container_with_energies(&[10.0, 20.0]);
        let s = Spectrum::compute(&pc, -Q_E, M_E, 0.0, 50.0, 0);
        assert!(s.bins.is_empty());
        assert_eq!(s.total(), 0.0);
        let (pe, pv) = s.peak();
        assert_eq!((pe, pv), (0.0, 0.0));
        let (mean, spread) = s.mean_and_spread(0.0);
        assert_eq!((mean, spread), (0.0, 0.0));
    }

    #[test]
    fn spectrum_top_edge_lands_in_last_bin() {
        // A particle exactly at e_max must clamp into the last bin
        // instead of being dropped.
        let e_max = kinetic_energy_mev(M_E, 1.0e8, 0.0, 0.0);
        let mut pc = ParticleContainer::new(1);
        pc.bufs[0].push(0.0, 0.0, 0.0, 1.0e8, 0.0, 0.0, 2.0e7);
        let s = Spectrum::compute(&pc, -Q_E, M_E, 0.0, e_max, 10);
        assert!((s.total() - Q_E * 2.0e7).abs() < 1e-18, "top edge dropped");
        assert!(s.bins[9] > 0.0, "top edge must land in the last bin");
    }

    #[test]
    fn l1_distance_of_identical_is_zero() {
        let pc = container_with_energies(&[10.0, 20.0, 30.0]);
        let a = electron_spectrum(&pc, 50.0, 25);
        let b = electron_spectrum(&pc, 50.0, 25);
        assert_eq!(a.l1_distance(&b), 0.0);
        let pc2 = container_with_energies(&[40.0, 45.0, 48.0]);
        let c = electron_spectrum(&pc2, 50.0, 25);
        assert!(a.l1_distance(&c) > 0.9);
    }

    #[test]
    fn time_series_roundtrip() {
        let mut ts = TimeSeries::new("charge");
        ts.push(0.0, 1.0);
        ts.push(1.0, 3.0);
        assert_eq!(ts.last(), Some(3.0));
        assert_eq!(ts.max(), 3.0);
        let dir = std::env::temp_dir().join("mrpic_diag_test.json");
        ts.write_json(&dir).unwrap();
        let back: TimeSeries =
            serde_json::from_str(&std::fs::read_to_string(&dir).unwrap()).unwrap();
        assert_eq!(back.v, ts.v);
        let _ = std::fs::remove_file(dir);
    }
}

/// Beam-quality moments of a particle population above an energy floor.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct BeamMoments {
    /// Number of macroparticles counted.
    pub count: usize,
    /// Total |charge| [C].
    pub charge: f64,
    /// Mean kinetic energy [MeV].
    pub mean_energy_mev: f64,
    /// RMS energy spread [MeV].
    pub energy_spread_mev: f64,
    /// Normalized transverse RMS emittance in the (z, uz) plane [m rad]:
    /// `sqrt(<z'^2><uz^2> - <z' uz>^2) / c` with z' = z - <z>.
    pub emittance_z: f64,
    /// RMS transverse size [m].
    pub sigma_z: f64,
    /// Mean divergence angle uz/ux [rad] spread.
    pub divergence_rms: f64,
}

/// Compute beam moments for particles above `min_mev` (weighted).
pub fn beam_moments(pc: &ParticleContainer, charge: f64, mass: f64, min_mev: f64) -> BeamMoments {
    let mut w_sum = 0.0;
    let (mut e1, mut e2) = (0.0, 0.0);
    let (mut z1, mut z2) = (0.0, 0.0);
    let (mut uz1, mut uz2, mut zuz) = (0.0, 0.0, 0.0);
    let mut div2 = 0.0;
    let mut count = 0usize;
    for buf in &pc.bufs {
        for i in 0..buf.len() {
            let e = kinetic_energy_mev(mass, buf.ux[i], buf.uy[i], buf.uz[i]);
            if e < min_mev {
                continue;
            }
            let w = buf.w[i];
            count += 1;
            w_sum += w;
            e1 += w * e;
            e2 += w * e * e;
            z1 += w * buf.z[i];
            z2 += w * buf.z[i] * buf.z[i];
            uz1 += w * buf.uz[i];
            uz2 += w * buf.uz[i] * buf.uz[i];
            zuz += w * buf.z[i] * buf.uz[i];
            if buf.ux[i].abs() > 0.0 {
                let th = buf.uz[i] / buf.ux[i];
                div2 += w * th * th;
            }
        }
    }
    if w_sum == 0.0 {
        return BeamMoments::default();
    }
    let inv = 1.0 / w_sum;
    let mean_e = e1 * inv;
    let var_e = (e2 * inv - mean_e * mean_e).max(0.0);
    let mean_z = z1 * inv;
    let var_z = (z2 * inv - mean_z * mean_z).max(0.0);
    let mean_uz = uz1 * inv;
    let var_uz = (uz2 * inv - mean_uz * mean_uz).max(0.0);
    let cov = zuz * inv - mean_z * mean_uz;
    let emit2 = (var_z * var_uz - cov * cov).max(0.0);
    BeamMoments {
        count,
        charge: (charge.abs()) * w_sum,
        mean_energy_mev: mean_e,
        energy_spread_mev: var_e.sqrt(),
        emittance_z: emit2.sqrt() / C2.sqrt(),
        sigma_z: var_z.sqrt(),
        divergence_rms: (div2 * inv).sqrt(),
    }
}

/// A 2-D weighted histogram (e.g. longitudinal phase space x–ux).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PhaseSpace2d {
    pub x_min: f64,
    pub x_max: f64,
    pub y_min: f64,
    pub y_max: f64,
    pub nx: usize,
    pub ny: usize,
    pub bins: Vec<f64>,
}

impl PhaseSpace2d {
    /// Histogram `(pick_x, pick_y)` over all particles, weighted.
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        pc: &ParticleContainer,
        pick_x: impl Fn(&crate::particles::ParticleBuf, usize) -> f64,
        pick_y: impl Fn(&crate::particles::ParticleBuf, usize) -> f64,
        x_range: (f64, f64),
        y_range: (f64, f64),
        nx: usize,
        ny: usize,
    ) -> Self {
        let mut bins = vec![0.0; nx * ny];
        let wx = (x_range.1 - x_range.0) / nx as f64;
        let wy = (y_range.1 - y_range.0) / ny as f64;
        for buf in &pc.bufs {
            for i in 0..buf.len() {
                let (x, y) = (pick_x(buf, i), pick_y(buf, i));
                if x < x_range.0 || x >= x_range.1 || y < y_range.0 || y >= y_range.1 {
                    continue;
                }
                let bx = ((x - x_range.0) / wx) as usize;
                let by = ((y - y_range.0) / wy) as usize;
                bins[by.min(ny - 1) * nx + bx.min(nx - 1)] += buf.w[i];
            }
        }
        Self {
            x_min: x_range.0,
            x_max: x_range.1,
            y_min: y_range.0,
            y_max: y_range.1,
            nx,
            ny,
            bins,
        }
    }

    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "ix,iy,weight")?;
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                let v = self.bins[iy * self.nx + ix];
                if v != 0.0 {
                    writeln!(f, "{ix},{iy},{v}")?;
                }
            }
        }
        f.flush()
    }
}

#[cfg(test)]
mod moment_tests {
    use super::*;
    use mrpic_kernels::constants::C;

    #[test]
    fn beam_moments_of_cold_beam() {
        let mut pc = ParticleContainer::new(1);
        // Monoenergetic beam at gamma 5 along x, tiny z spread, no uz.
        let g: f64 = 5.0;
        let u = C * (g * g - 1.0).sqrt();
        for i in 0..10 {
            pc.bufs[0].push(0.0, 0.0, 1e-6 * i as f64, u, 0.0, 0.0, 1.0e6);
        }
        let m = beam_moments(&pc, -Q_E, M_E, 0.0);
        assert_eq!(m.count, 10);
        assert!((m.mean_energy_mev - 4.0 * 0.511).abs() < 0.01);
        assert!(m.energy_spread_mev < 1e-9);
        // No momentum spread -> zero emittance.
        assert!(m.emittance_z < 1e-15);
        assert!(m.sigma_z > 0.0);
        assert!((m.charge - 10.0e6 * Q_E).abs() < 1e-18);
    }

    #[test]
    fn emittance_grows_with_uncorrelated_spread() {
        let mut pc = ParticleContainer::new(1);
        let g: f64 = 5.0;
        let u = C * (g * g - 1.0).sqrt();
        // Alternate uz signs uncorrelated with z.
        for i in 0..100 {
            let z = 1e-6 * ((i % 10) as f64);
            let uz = if i % 2 == 0 { 1e6 } else { -1e6 };
            pc.bufs[0].push(0.0, 0.0, z, u, 0.0, uz, 1.0);
        }
        let m = beam_moments(&pc, -Q_E, M_E, 0.0);
        assert!(m.emittance_z > 0.0);
        assert!(m.divergence_rms > 0.0);
    }

    #[test]
    fn phase_space_histogram_counts() {
        let mut pc = ParticleContainer::new(1);
        pc.bufs[0].push(1.5, 0.0, 0.0, 2.5e6, 0.0, 0.0, 3.0);
        pc.bufs[0].push(1.5, 0.0, 0.0, -9.9e9, 0.0, 0.0, 1.0); // out of range
        let h = PhaseSpace2d::compute(
            &pc,
            |b, i| b.x[i],
            |b, i| b.ux[i],
            (0.0, 4.0),
            (0.0, 5.0e6),
            4,
            5,
        );
        assert_eq!(h.total(), 3.0);
        // x = 1.5 -> bin 1; ux = 2.5e6 -> bin 2.
        assert_eq!(h.bins[2 * 4 + 1], 3.0);
    }
}
