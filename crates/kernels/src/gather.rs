//! Field gathering: interpolate staggered E and B onto particles.
//!
//! These scalar kernels loop particle-by-particle with checked indexing.
//! They are the reference the lane-blocked kernels in [`crate::lanes`]
//! reproduce bitwise, and the fallback those kernels run on edge blocks
//! and the sub-block tail.

use crate::real::Real;
use crate::shape::Shape;
use crate::view::{FieldView, Geom};

/// Interpolate one staggered component at one particle (baseline path).
#[inline(always)]
fn interp_one<S: Shape, T: Real>(f: &FieldView<'_, T>, xi: [T; 3]) -> T {
    let (ix, wx) = S::eval(xi[0] - T::from_f64(f.off(0)));
    let (iy, wy) = S::eval(xi[1] - T::from_f64(f.off(1)));
    let (iz, wz) = S::eval(xi[2] - T::from_f64(f.off(2)));
    let mut acc = T::ZERO;
    for c in 0..S::SUPPORT {
        for b in 0..S::SUPPORT {
            let part = wz[c] * wy[b];
            for a in 0..S::SUPPORT {
                let v = f.get(ix + a as i64, iy + b as i64, iz + c as i64);
                acc = (part * wx[a]).mul_add(v, acc);
            }
        }
    }
    acc
}

/// 2-D (x–z) variant: the single y plane has weight one.
#[inline(always)]
fn interp_one_2d<S: Shape, T: Real>(f: &FieldView<'_, T>, xi_x: T, xi_z: T) -> T {
    let (ix, wx) = S::eval(xi_x - T::from_f64(f.off(0)));
    let (iz, wz) = S::eval(xi_z - T::from_f64(f.off(2)));
    let j = f.lo[1];
    let mut acc = T::ZERO;
    for c in 0..S::SUPPORT {
        for a in 0..S::SUPPORT {
            let v = f.get(ix + a as i64, j, iz + c as i64);
            acc = (wz[c] * wx[a]).mul_add(v, acc);
        }
    }
    acc
}

/// All six staggered components of one field set.
#[derive(Clone, Copy)]
pub struct EmViews<'a, T> {
    pub ex: FieldView<'a, T>,
    pub ey: FieldView<'a, T>,
    pub ez: FieldView<'a, T>,
    pub bx: FieldView<'a, T>,
    pub by: FieldView<'a, T>,
    pub bz: FieldView<'a, T>,
}

/// Gathered fields per particle (structure of arrays).
pub struct EmOut<'a, T> {
    pub ex: &'a mut [T],
    pub ey: &'a mut [T],
    pub ez: &'a mut [T],
    pub bx: &'a mut [T],
    pub by: &'a mut [T],
    pub bz: &'a mut [T],
}

/// Baseline 3-D gather: one particle at a time.
pub fn gather3<S: Shape, T: Real>(
    x: &[T],
    y: &[T],
    z: &[T],
    geom: &Geom,
    f: &EmViews<'_, T>,
    out: &mut EmOut<'_, T>,
) {
    let n = x.len();
    assert!(y.len() == n && z.len() == n && out.ex.len() >= n);
    for p in 0..n {
        let xi = [geom.xi(0, x[p]), geom.xi(1, y[p]), geom.xi(2, z[p])];
        out.ex[p] = interp_one::<S, T>(&f.ex, xi);
        out.ey[p] = interp_one::<S, T>(&f.ey, xi);
        out.ez[p] = interp_one::<S, T>(&f.ez, xi);
        out.bx[p] = interp_one::<S, T>(&f.bx, xi);
        out.by[p] = interp_one::<S, T>(&f.by, xi);
        out.bz[p] = interp_one::<S, T>(&f.bz, xi);
    }
}

/// Baseline 2-D (x–z) gather.
pub fn gather2<S: Shape, T: Real>(
    x: &[T],
    z: &[T],
    geom: &Geom,
    f: &EmViews<'_, T>,
    out: &mut EmOut<'_, T>,
) {
    let n = x.len();
    assert!(z.len() == n && out.ex.len() >= n);
    for p in 0..n {
        let (xi, zi) = (geom.xi(0, x[p]), geom.xi(2, z[p]));
        out.ex[p] = interp_one_2d::<S, T>(&f.ex, xi, zi);
        out.ey[p] = interp_one_2d::<S, T>(&f.ey, xi, zi);
        out.ez[p] = interp_one_2d::<S, T>(&f.ez, xi, zi);
        out.bx[p] = interp_one_2d::<S, T>(&f.bx, xi, zi);
        out.by[p] = interp_one_2d::<S, T>(&f.by, xi, zi);
        out.bz[p] = interp_one_2d::<S, T>(&f.bz, xi, zi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{Cubic, Linear, Quadratic};

    /// Build a field view over an (nx, ny, nz)-point grid with values
    /// from `f(i, j, k)` and lower corner `lo`.
    fn mk_field(
        lo: [i64; 3],
        n: [i64; 3],
        half: [bool; 3],
        f: impl Fn(i64, i64, i64) -> f64,
    ) -> (Vec<f64>, [i64; 3], i64, i64, [bool; 3]) {
        let mut data = vec![0.0; (n[0] * n[1] * n[2]) as usize];
        for k in 0..n[2] {
            for j in 0..n[1] {
                for i in 0..n[0] {
                    data[(k * n[1] * n[0] + j * n[0] + i) as usize] =
                        f(lo[0] + i, lo[1] + j, lo[2] + k);
                }
            }
        }
        (data, lo, n[0], n[0] * n[1], half)
    }

    fn view<'a>(t: &'a (Vec<f64>, [i64; 3], i64, i64, [bool; 3])) -> FieldView<'a, f64> {
        FieldView {
            data: &t.0,
            lo: t.1,
            nx: t.2,
            nxy: t.3,
            half: t.4,
        }
    }

    fn geom() -> Geom {
        Geom {
            xmin: [0.0, 0.0, 0.0],
            dx: [1.0, 1.0, 1.0],
        }
    }

    /// Gather of a *linear* function of position must be exact for any
    /// B-spline order (first-moment reproduction), including staggering.
    fn linear_exactness<S: Shape>() {
        let lo = [-4i64, -4, -4];
        let n = [16i64, 16, 16];
        let fx = |i: i64, j: i64, k: i64, half: [bool; 3]| {
            let x = i as f64 + if half[0] { 0.5 } else { 0.0 };
            let y = j as f64 + if half[1] { 0.5 } else { 0.0 };
            let z = k as f64 + if half[2] { 0.5 } else { 0.0 };
            2.0 * x - 3.0 * y + 0.5 * z + 1.0
        };
        let hex = [true, false, false]; // Ex: half x (as bool half flags)
        let hey = [false, true, false];
        let hez = [false, false, true];
        let hbx = [false, true, true];
        let hby = [true, false, true];
        let hbz = [true, true, false];
        let tex = mk_field(lo, n, hex, |i, j, k| fx(i, j, k, hex));
        let tey = mk_field(lo, n, hey, |i, j, k| fx(i, j, k, hey));
        let tez = mk_field(lo, n, hez, |i, j, k| fx(i, j, k, hez));
        let tbx = mk_field(lo, n, hbx, |i, j, k| fx(i, j, k, hbx));
        let tby = mk_field(lo, n, hby, |i, j, k| fx(i, j, k, hby));
        let tbz = mk_field(lo, n, hbz, |i, j, k| fx(i, j, k, hbz));
        let f = EmViews {
            ex: view(&tex),
            ey: view(&tey),
            ez: view(&tez),
            bx: view(&tbx),
            by: view(&tby),
            bz: view(&tbz),
        };
        let xs = vec![1.37, 2.0, 3.91];
        let ys = vec![0.5, 1.25, 2.75];
        let zs = vec![2.1, 0.0, 1.5];
        let mut o = (
            vec![0.0; 3],
            vec![0.0; 3],
            vec![0.0; 3],
            vec![0.0; 3],
            vec![0.0; 3],
            vec![0.0; 3],
        );
        let mut out = EmOut {
            ex: &mut o.0,
            ey: &mut o.1,
            ez: &mut o.2,
            bx: &mut o.3,
            by: &mut o.4,
            bz: &mut o.5,
        };
        gather3::<S, f64>(&xs, &ys, &zs, &geom(), &f, &mut out);
        for p in 0..3 {
            let want = 2.0 * xs[p] - 3.0 * ys[p] + 0.5 * zs[p] + 1.0;
            for got in [o.0[p], o.1[p], o.2[p], o.3[p], o.4[p], o.5[p]] {
                assert!(
                    (got - want).abs() < 1e-10,
                    "order {}: got {got}, want {want}",
                    S::ORDER
                );
            }
        }
    }

    #[test]
    fn linear_function_exact_all_orders() {
        linear_exactness::<Linear>();
        linear_exactness::<Quadratic>();
        linear_exactness::<Cubic>();
    }

    #[test]
    fn gather2_matches_uniform_field() {
        let lo = [-4i64, 0, -4];
        let n = [16i64, 1, 16];
        let mk = |half: [bool; 3]| mk_field(lo, n, half, |_, _, _| 7.0);
        let tex = mk([true, false, false]);
        let tey = mk([false, false, false]);
        let tez = mk([false, false, true]);
        let tbx = mk([false, false, true]);
        let tby = mk([true, false, true]);
        let tbz = mk([true, false, false]);
        let f = EmViews {
            ex: view(&tex),
            ey: view(&tey),
            ez: view(&tez),
            bx: view(&tbx),
            by: view(&tby),
            bz: view(&tbz),
        };
        let xs = vec![0.3, 4.9];
        let zs = vec![1.1, 2.7];
        let mut o = (
            vec![0.0; 2],
            vec![0.0; 2],
            vec![0.0; 2],
            vec![0.0; 2],
            vec![0.0; 2],
            vec![0.0; 2],
        );
        let mut out = EmOut {
            ex: &mut o.0,
            ey: &mut o.1,
            ez: &mut o.2,
            bx: &mut o.3,
            by: &mut o.4,
            bz: &mut o.5,
        };
        gather2::<Quadratic, f64>(&xs, &zs, &geom(), &f, &mut out);
        for p in 0..2 {
            for got in [o.0[p], o.1[p], o.2[p], o.3[p], o.4[p], o.5[p]] {
                assert!((got - 7.0).abs() < 1e-12);
            }
        }
    }
}
