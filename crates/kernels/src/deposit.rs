//! Charge and current deposition.
//!
//! The production path is the **Esirkepov** charge-conserving scheme: the
//! current is built from the per-axis difference of the old and new shape
//! factors so that the discrete continuity equation
//! `(rho^{n+1} - rho^n)/dt + div J = 0` holds to machine precision on the
//! Yee lattice — which in turn keeps Gauss's law satisfied by the FDTD
//! update without any cleaning step.
//!
//! These scalar kernels are the reference the lane-blocked kernels in
//! [`crate::lanes`] reproduce bitwise, and the fallback those kernels
//! run on edge blocks and the sub-block tail.

use crate::real::Real;
use crate::shape::{dual, Shape};
use crate::view::{FieldViewMut, Geom};

/// The three current components of one deposition target.
pub struct JViews<'a, T> {
    pub jx: FieldViewMut<'a, T>,
    pub jy: FieldViewMut<'a, T>,
    pub jz: FieldViewMut<'a, T>,
}

const THIRD: f64 = 1.0 / 3.0;

/// 3-D Esirkepov current deposition.
///
/// `x0.. z0` are positions at step `n`, `x1.. z1` at `n+1`; `w` the
/// macroparticle weights; `q` the species charge. Currents land on the
/// Yee-staggered `jx, jy, jz` (same staggering as E).
#[allow(clippy::too_many_arguments)]
pub fn esirkepov3<S: Shape, T: Real>(
    x0: &[T],
    y0: &[T],
    z0: &[T],
    x1: &[T],
    y1: &[T],
    z1: &[T],
    w: &[T],
    q: T,
    dt: T,
    geom: &Geom,
    j: &mut JViews<'_, T>,
) {
    let n = x0.len();
    let [dx, dy, dz] = geom.dx;
    let cx = q / (dt * T::from_f64(dy * dz));
    let cy = q / (dt * T::from_f64(dx * dz));
    let cz = q / (dt * T::from_f64(dx * dy));
    let half = T::HALF;
    let third = T::from_f64(THIRD);
    for p in 0..n {
        let (ax, s0x, s1x) = dual::<S, T>(geom.xi(0, x0[p]), geom.xi(0, x1[p]));
        let (ay, s0y, s1y) = dual::<S, T>(geom.xi(1, y0[p]), geom.xi(1, y1[p]));
        let (az, s0z, s1z) = dual::<S, T>(geom.xi(2, z0[p]), geom.xi(2, z1[p]));
        let len = S::SUPPORT + 1;
        let mut dsx = [T::ZERO; 5];
        let mut dsy = [T::ZERO; 5];
        let mut dsz = [T::ZERO; 5];
        // Prefix sums of the shape differences (see `esirkepov2` for why
        // the sweep factors as `wt * ps[a]`).
        let mut psx = [T::ZERO; 5];
        let mut psy = [T::ZERO; 5];
        let mut psz = [T::ZERO; 5];
        let (mut rx, mut ry, mut rz) = (T::ZERO, T::ZERO, T::ZERO);
        for i in 0..len {
            dsx[i] = s1x[i] - s0x[i];
            dsy[i] = s1y[i] - s0y[i];
            dsz[i] = s1z[i] - s0z[i];
            rx += dsx[i];
            ry += dsy[i];
            rz += dsz[i];
            psx[i] = rx;
            psy[i] = ry;
            psz[i] = rz;
        }
        let (wx, wy, wz) = (cx * w[p], cy * w[p], cz * w[p]);
        let (nwx, nwy, nwz) = (-wx, -wy, -wz);
        // The time-averaged transverse weight
        //   s0_u s0_v + (ds_u s0_v + s0_u ds_v)/2 + ds_u ds_v / 3
        // factors as `s0_u p + ds_u q` with `p = s0_v + ds_v/2` and
        // `q = s0_v/2 + ds_v/3` hoisted out of the u loop — two FMAs per
        // point instead of eight scalar ops.
        // Jx: prefix sum along x for each (y, z) in the window.
        for c in 0..len {
            let pz = half.mul_add(dsz[c], s0z[c]);
            let qz = third.mul_add(dsz[c], half * s0z[c]);
            for b in 0..len {
                let wt = dsy[b].mul_add(qz, s0y[b] * pz);
                let nw = nwx * wt;
                for a in 0..len - 1 {
                    j.jx.madd(ax + a as i64, ay + b as i64, az + c as i64, nw, psx[a]);
                }
            }
        }
        // Jy: prefix along y. Each (a, b, c) slot gets exactly one
        // contribution per particle, so the sweep runs a-innermost
        // (contiguous stores) with the per-a weights hoisted; per-slot
        // values and cross-particle order are unchanged.
        for c in 0..len {
            let pz = half.mul_add(dsz[c], s0z[c]);
            let qz = third.mul_add(dsz[c], half * s0z[c]);
            let mut nwy_a = [T::ZERO; 5];
            for a in 0..len {
                nwy_a[a] = nwy * dsx[a].mul_add(qz, s0x[a] * pz);
            }
            for b in 0..len - 1 {
                for a in 0..len {
                    j.jy.madd(
                        ax + a as i64,
                        ay + b as i64,
                        az + c as i64,
                        nwy_a[a],
                        psy[b],
                    );
                }
            }
        }
        // Jz: prefix along z, same reordering as Jy.
        for b in 0..len {
            let py = half.mul_add(dsy[b], s0y[b]);
            let qy = third.mul_add(dsy[b], half * s0y[b]);
            let mut nwz_a = [T::ZERO; 5];
            for a in 0..len {
                nwz_a[a] = nwz * dsx[a].mul_add(qy, s0x[a] * py);
            }
            for c in 0..len - 1 {
                for a in 0..len {
                    j.jz.madd(
                        ax + a as i64,
                        ay + b as i64,
                        az + c as i64,
                        nwz_a[a],
                        psz[c],
                    );
                }
            }
        }
    }
}

/// 2-D (x–z) Esirkepov deposition; `vy` is the out-of-plane velocity at
/// the half step (deposited directly with time-averaged weights).
#[allow(clippy::too_many_arguments)]
pub fn esirkepov2<S: Shape, T: Real>(
    x0: &[T],
    z0: &[T],
    x1: &[T],
    z1: &[T],
    vy: &[T],
    w: &[T],
    q: T,
    dt: T,
    geom: &Geom,
    j: &mut JViews<'_, T>,
) {
    let n = x0.len();
    let [dx, dy, dz] = geom.dx;
    let cx = q / (dt * T::from_f64(dy * dz));
    let cz = q / (dt * T::from_f64(dx * dy));
    let cy = q / T::from_f64(dx * dy * dz);
    let half = T::HALF;
    let third = T::from_f64(THIRD);
    let jy_plane = j.jy.lo[1];
    let jx_plane = j.jx.lo[1];
    let jz_plane = j.jz.lo[1];
    let len = S::SUPPORT + 1;
    for p in 0..n {
        let (ax, s0x, s1x) = dual::<S, T>(geom.xi(0, x0[p]), geom.xi(0, x1[p]));
        let (az, s0z, s1z) = dual::<S, T>(geom.xi(2, z0[p]), geom.xi(2, z1[p]));
        let mut dsx = [T::ZERO; 5];
        let mut dsz = [T::ZERO; 5];
        // Running prefix sums of the shape differences: the Esirkepov
        // sweep `acc += ds[a] * wt` distributes over the row-constant
        // `wt`, so `acc(a) = wt * ps[a]` — computing the prefix once per
        // particle removes the serial FMA chain from every row.
        let mut psx = [T::ZERO; 5];
        let mut psz = [T::ZERO; 5];
        let (mut rx, mut rz) = (T::ZERO, T::ZERO);
        for i in 0..len {
            dsx[i] = s1x[i] - s0x[i];
            dsz[i] = s1z[i] - s0z[i];
            rx += dsx[i];
            rz += dsz[i];
            psx[i] = rx;
            psz[i] = rz;
        }
        let (wxc, wyc, wzc) = (cx * w[p], cy * w[p] * vy[p], cz * w[p]);
        let (nwxc, nwzc) = (-wxc, -wzc);
        for c in 0..len {
            let wt = half.mul_add(dsz[c], s0z[c]);
            let nw = nwxc * wt;
            for a in 0..len - 1 {
                j.jx.madd(ax + a as i64, jx_plane, az + c as i64, nw, psx[a]);
            }
        }
        // Jz: each (a, c) slot receives exactly one contribution per
        // particle, so the sweep is reordered c-outer / a-inner to make
        // the innermost stores contiguous; the per-slot value (and the
        // cross-particle accumulation order) is unchanged.
        let mut nwz = [T::ZERO; 5];
        for a in 0..len {
            nwz[a] = nwzc * half.mul_add(dsx[a], s0x[a]);
        }
        for c in 0..len - 1 {
            for a in 0..len {
                j.jz.madd(ax + a as i64, jz_plane, az + c as i64, nwz[a], psz[c]);
            }
        }
        // Jy (out of plane): factored time-averaged weights, see
        // `esirkepov3`.
        for c in 0..len {
            let pz = half.mul_add(dsz[c], s0z[c]);
            let qz = third.mul_add(dsz[c], half * s0z[c]);
            for a in 0..len {
                let wt = dsx[a].mul_add(qz, s0x[a] * pz);
                j.jy.madd(ax + a as i64, jy_plane, az + c as i64, wyc, wt);
            }
        }
    }
}

/// Nodal charge density deposition (3-D).
pub fn deposit_rho3<S: Shape, T: Real>(
    x: &[T],
    y: &[T],
    z: &[T],
    w: &[T],
    q: T,
    geom: &Geom,
    rho: &mut FieldViewMut<'_, T>,
) {
    let inv_dv = T::from_f64(1.0 / geom.dv());
    for p in 0..x.len() {
        let (ix, wx) = S::eval(geom.xi(0, x[p]));
        let (iy, wy) = S::eval(geom.xi(1, y[p]));
        let (iz, wz) = S::eval(geom.xi(2, z[p]));
        let qw = q * w[p] * inv_dv;
        for c in 0..S::SUPPORT {
            for b in 0..S::SUPPORT {
                let f = qw * wz[c] * wy[b];
                for a in 0..S::SUPPORT {
                    rho.add(ix + a as i64, iy + b as i64, iz + c as i64, f * wx[a]);
                }
            }
        }
    }
}

/// Nodal charge density deposition (2-D, x–z).
pub fn deposit_rho2<S: Shape, T: Real>(
    x: &[T],
    z: &[T],
    w: &[T],
    q: T,
    geom: &Geom,
    rho: &mut FieldViewMut<'_, T>,
) {
    let inv_dv = T::from_f64(1.0 / geom.dv());
    let plane = rho.lo[1];
    for p in 0..x.len() {
        let (ix, wx) = S::eval(geom.xi(0, x[p]));
        let (iz, wz) = S::eval(geom.xi(2, z[p]));
        let qw = q * w[p] * inv_dv;
        for c in 0..S::SUPPORT {
            let f = qw * wz[c];
            for a in 0..S::SUPPORT {
                rho.add(ix + a as i64, plane, iz + c as i64, f * wx[a]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{Cubic, Linear, Quadratic};

    struct Grid {
        jx: Vec<f64>,
        jy: Vec<f64>,
        jz: Vec<f64>,
        rho0: Vec<f64>,
        rho1: Vec<f64>,
        lo: [i64; 3],
        n: [i64; 3],
    }

    impl Grid {
        fn new(lo: [i64; 3], n: [i64; 3]) -> Self {
            let len = (n[0] * n[1] * n[2]) as usize;
            Self {
                jx: vec![0.0; len],
                jy: vec![0.0; len],
                jz: vec![0.0; len],
                rho0: vec![0.0; len],
                rho1: vec![0.0; len],
                lo,
                n,
            }
        }

        fn views(&mut self) -> JViews<'_, f64> {
            let (nx, nxy) = (self.n[0], self.n[0] * self.n[1]);
            JViews {
                jx: FieldViewMut {
                    data: &mut self.jx,
                    lo: self.lo,
                    nx,
                    nxy,
                    half: [true, false, false],
                },
                jy: FieldViewMut {
                    data: &mut self.jy,
                    lo: self.lo,
                    nx,
                    nxy,
                    half: [false, true, false],
                },
                jz: FieldViewMut {
                    data: &mut self.jz,
                    lo: self.lo,
                    nx,
                    nxy,
                    half: [false, false, true],
                },
            }
        }

        fn at(v: &[f64], lo: [i64; 3], n: [i64; 3], i: i64, jj: i64, k: i64) -> f64 {
            v[((k - lo[2]) * n[1] * n[0] + (jj - lo[1]) * n[0] + (i - lo[0])) as usize]
        }
    }

    fn geom(dx: [f64; 3]) -> Geom {
        Geom { xmin: [0.0; 3], dx }
    }

    /// The defining property: discrete continuity to machine precision.
    fn continuity3<S: Shape>(seed: u64) {
        let lo = [-8i64, -8, -8];
        let n = [24i64, 24, 24];
        let mut g = Grid::new(lo, n);
        let geo = geom([0.5e-6, 0.7e-6, 0.6e-6]);
        let dt = 0.8e-15;
        // Random particles with random sub-cell moves.
        let mut state = seed;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let np = 40;
        let mut p0 = [vec![0.0; np], vec![0.0; np], vec![0.0; np]];
        let mut p1 = [vec![0.0; np], vec![0.0; np], vec![0.0; np]];
        let w = vec![1.0e6; np];
        for p in 0..np {
            for d in 0..3 {
                let cell = -2.0 + 6.0 * rng();
                p0[d][p] = cell * geo.dx[d];
                // Move strictly less than one cell.
                p1[d][p] = p0[d][p] + (rng() - 0.5) * 0.95 * geo.dx[d];
            }
        }
        let q = -1.602e-19;
        {
            let mut j = g.views();
            esirkepov3::<S, f64>(
                &p0[0], &p0[1], &p0[2], &p1[0], &p1[1], &p1[2], &w, q, dt, &geo, &mut j,
            );
        }
        // Deposit rho at both times with the same shape order.
        {
            let (nx, nxy) = (n[0], n[0] * n[1]);
            let mut r0 = FieldViewMut {
                data: &mut g.rho0,
                lo,
                nx,
                nxy,
                half: [false; 3],
            };
            deposit_rho3::<S, f64>(&p0[0], &p0[1], &p0[2], &w, q, &geo, &mut r0);
            let mut r1 = FieldViewMut {
                data: &mut g.rho1,
                lo,
                nx,
                nxy,
                half: [false; 3],
            };
            deposit_rho3::<S, f64>(&p1[0], &p1[1], &p1[2], &w, q, &geo, &mut r1);
        }
        // Check (rho1-rho0)/dt + div J = 0 at every interior node.
        let [dx, dy, dz] = geo.dx;
        let mut max_resid = 0.0f64;
        let mut max_scale = 0.0f64;
        for k in lo[2] + 1..lo[2] + n[2] - 1 {
            for jj in lo[1] + 1..lo[1] + n[1] - 1 {
                for i in lo[0] + 1..lo[0] + n[0] - 1 {
                    let at = |v: &Vec<f64>, a: i64, b: i64, c: i64| Grid::at(v, lo, n, a, b, c);
                    let drho = (at(&g.rho1, i, jj, k) - at(&g.rho0, i, jj, k)) / dt;
                    let divj = (at(&g.jx, i, jj, k) - at(&g.jx, i - 1, jj, k)) / dx
                        + (at(&g.jy, i, jj, k) - at(&g.jy, i, jj - 1, k)) / dy
                        + (at(&g.jz, i, jj, k) - at(&g.jz, i, jj, k - 1)) / dz;
                    max_resid = max_resid.max((drho + divj).abs());
                    max_scale = max_scale.max(drho.abs());
                }
            }
        }
        assert!(max_scale > 0.0, "test produced no charge");
        assert!(
            max_resid <= 1e-9 * max_scale,
            "order {}: continuity violated: resid {max_resid:e} vs scale {max_scale:e}",
            S::ORDER
        );
    }

    #[test]
    fn continuity_all_orders_3d() {
        continuity3::<Linear>(42);
        continuity3::<Quadratic>(43);
        continuity3::<Cubic>(44);
    }

    #[test]
    fn continuity_2d() {
        let lo = [-8i64, 0, -8];
        let n = [24i64, 1, 24];
        let len = (n[0] * n[1] * n[2]) as usize;
        let (mut jx, mut jy, mut jz) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
        let (mut rho0, mut rho1) = (vec![0.0; len], vec![0.0; len]);
        let geo = geom([0.5e-6, 1.0e-6, 0.6e-6]);
        let dt = 0.8e-15;
        let np = 25;
        let mut state = 7u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let (mut x0, mut z0, mut x1, mut z1) =
            (vec![0.0; np], vec![0.0; np], vec![0.0; np], vec![0.0; np]);
        let vy = vec![1.0e7; np];
        let w = vec![2.0e5; np];
        for p in 0..np {
            x0[p] = (-2.0 + 6.0 * rng()) * geo.dx[0];
            z0[p] = (-2.0 + 6.0 * rng()) * geo.dx[2];
            x1[p] = x0[p] + (rng() - 0.5) * 0.9 * geo.dx[0];
            z1[p] = z0[p] + (rng() - 0.5) * 0.9 * geo.dx[2];
        }
        let q = -1.602e-19;
        let (nx, nxy) = (n[0], n[0] * n[1]);
        {
            let mut j = JViews {
                jx: FieldViewMut {
                    data: &mut jx,
                    lo,
                    nx,
                    nxy,
                    half: [true, false, false],
                },
                jy: FieldViewMut {
                    data: &mut jy,
                    lo,
                    nx,
                    nxy,
                    half: [false, true, false],
                },
                jz: FieldViewMut {
                    data: &mut jz,
                    lo,
                    nx,
                    nxy,
                    half: [false, false, true],
                },
            };
            esirkepov2::<Quadratic, f64>(&x0, &z0, &x1, &z1, &vy, &w, q, dt, &geo, &mut j);
        }
        {
            let mut r0 = FieldViewMut {
                data: &mut rho0,
                lo,
                nx,
                nxy,
                half: [false; 3],
            };
            deposit_rho2::<Quadratic, f64>(&x0, &z0, &w, q, &geo, &mut r0);
            let mut r1 = FieldViewMut {
                data: &mut rho1,
                lo,
                nx,
                nxy,
                half: [false; 3],
            };
            deposit_rho2::<Quadratic, f64>(&x1, &z1, &w, q, &geo, &mut r1);
        }
        let at = |v: &Vec<f64>, i: i64, k: i64| v[((k - lo[2]) * n[0] + (i - lo[0])) as usize];
        let mut max_resid = 0.0f64;
        let mut max_scale = 0.0f64;
        for k in lo[2] + 1..lo[2] + n[2] - 1 {
            for i in lo[0] + 1..lo[0] + n[0] - 1 {
                let drho = (at(&rho1, i, k) - at(&rho0, i, k)) / dt;
                let divj = (at(&jx, i, k) - at(&jx, i - 1, k)) / geo.dx[0]
                    + (at(&jz, i, k) - at(&jz, i, k - 1)) / geo.dx[2];
                max_resid = max_resid.max((drho + divj).abs());
                max_scale = max_scale.max(drho.abs());
            }
        }
        assert!(max_scale > 0.0);
        assert!(
            max_resid <= 1e-9 * max_scale,
            "{max_resid:e} vs {max_scale:e}"
        );
    }

    #[test]
    fn total_current_matches_charge_flux() {
        // Integral of Jx over the grid = q*w*dx_move/dt exactly.
        let lo = [-6i64, -6, -6];
        let n = [16i64, 16, 16];
        let mut g = Grid::new(lo, n);
        let geo = geom([1.0e-6; 3]);
        let dt = 1.0e-15;
        let q = -1.602e-19;
        let w = [3.0e7];
        let (x0, y0, z0) = ([0.31e-6], [0.77e-6], [0.13e-6]);
        let (x1, y1, z1) = ([0.93e-6], [0.37e-6], [0.55e-6]);
        {
            let mut j = g.views();
            esirkepov3::<Cubic, f64>(&x0, &y0, &z0, &x1, &y1, &z1, &w, q, dt, &geo, &mut j);
        }
        let dv = geo.dv();
        let ix: f64 = g.jx.iter().sum::<f64>() * dv;
        let iy: f64 = g.jy.iter().sum::<f64>() * dv;
        let iz: f64 = g.jz.iter().sum::<f64>() * dv;
        let qw = q * w[0];
        assert!((ix - qw * (x1[0] - x0[0]) / dt).abs() < 1e-9 * ix.abs().max(1e-30));
        assert!((iy - qw * (y1[0] - y0[0]) / dt).abs() < 1e-9 * iy.abs().max(1e-30));
        assert!((iz - qw * (z1[0] - z0[0]) / dt).abs() < 1e-9 * iz.abs().max(1e-30));
    }

    #[test]
    fn rho_total_charge_conserved() {
        let lo = [-6i64, -6, -6];
        let n = [16i64, 16, 16];
        let len = (n[0] * n[1] * n[2]) as usize;
        let mut rho = vec![0.0; len];
        let geo = geom([0.5e-6, 0.25e-6, 1.0e-6]);
        let q = 1.602e-19;
        let w = [5.0e6, 2.0e6];
        {
            let mut r = FieldViewMut {
                data: &mut rho,
                lo,
                nx: n[0],
                nxy: n[0] * n[1],
                half: [false; 3],
            };
            deposit_rho3::<Quadratic, f64>(
                &[0.1e-6, 1.0e-6],
                &[0.2e-6, -0.3e-6],
                &[0.9e-6, 2.0e-6],
                &w,
                q,
                &geo,
                &mut r,
            );
        }
        let total: f64 = rho.iter().sum::<f64>() * geo.dv();
        let want = q * (w[0] + w[1]);
        assert!((total - want).abs() < 1e-12 * want.abs());
    }
}
