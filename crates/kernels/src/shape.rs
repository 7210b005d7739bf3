//! B-spline particle shape factors, orders 1–3.
//!
//! High-order shapes (quadratic/cubic splines) are essential for modeling
//! high-density plasmas while keeping the finite-grid instability at an
//! acceptable level (paper Table I, capability *a*). The shape of order
//! `n` spans `n + 1` grid points.
//!
//! `eval` takes the particle coordinate `xi` in *cell units* relative to
//! the index-0 grid line of the target component (stagger shifts are
//! applied by the caller) and returns the first touched index plus the
//! weights. Weights are a partition of unity for every `xi`.

use crate::real::Real;

/// A compile-time particle shape. `SUPPORT = ORDER + 1` points.
pub trait Shape: Copy + Send + Sync + 'static {
    const ORDER: usize;
    const SUPPORT: usize;

    /// FP-domain evaluation: the first touched grid index *as its exact
    /// floating-point floor value* plus the `SUPPORT` weights (tail of
    /// the fixed-size array is zero). Keeping the anchor in the FP
    /// domain leaves the body pure branch-free floating point — no
    /// int round-trip — so blocks of evaluations vectorize; `eval`
    /// derives the integer index from it exactly (the anchor is an
    /// integral float, representable well below 2^53).
    fn eval_fp<T: Real>(xi: T) -> (T, [T; 4]);

    /// First touched grid index and the `SUPPORT` weights.
    #[inline(always)]
    fn eval<T: Real>(xi: T) -> (i64, [T; 4]) {
        let (fa, w) = Self::eval_fp(xi);
        (fa.floor_i64(), w)
    }

    /// Evaluate a whole lane block at once into k-major (`w[k][lane]`)
    /// storage. Semantically the scalar `eval` per lane — bitwise
    /// identical weights and indices — but laid out as contiguous array
    /// passes the compiler auto-vectorizes: one pure-FP pass over the
    /// lanes (weights + FP anchors), then a separate index-conversion
    /// pass, so the integer converts never sit in the FP dependency
    /// chain.
    #[inline(always)]
    fn eval_block<T: Real, const W: usize>(xi: &[T; W], i0: &mut [i64; W], w: &mut [[T; W]; 4]) {
        let mut fa = [T::ZERO; W];
        for l in 0..W {
            let (f, wk) = Self::eval_fp(xi[l]);
            fa[l] = f;
            for k in 0..4 {
                w[k][l] = wk[k];
            }
        }
        // `index_i64` ≡ `floor_i64` on every in-grid anchor; out-of-grid
        // garbage (NaN/inf positions) maps to far-out-of-box integers,
        // which the block containment checks route to the scalar
        // fallback — so block results never diverge from the scalar
        // kernels.
        for l in 0..W {
            i0[l] = fa[l].index_i64();
        }
    }
}

/// Order-1 (linear / cloud-in-cell) shape.
#[derive(Clone, Copy, Debug, Default)]
pub struct Linear;

/// Order-2 (quadratic / triangular-shaped-cloud) shape.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quadratic;

/// Order-3 (cubic B-spline) shape — the production choice for
/// laser–solid interactions in the paper (§V-A: "order 3 interpolation
/// ... up to 64 sampling points per particle").
#[derive(Clone, Copy, Debug, Default)]
pub struct Cubic;

impl Shape for Linear {
    const ORDER: usize = 1;
    const SUPPORT: usize = 2;

    #[inline(always)]
    fn eval_fp<T: Real>(xi: T) -> (T, [T; 4]) {
        // `floor` stays in the FP domain so `d` does not wait on an
        // int round-trip; the index conversion runs off that chain.
        // Bitwise identical to `xi - from_f64(floor_i64(xi) as f64)`:
        // the floor value is exactly representable.
        let fi = xi.floor();
        let d = xi - fi;
        (fi, [T::ONE - d, d, T::ZERO, T::ZERO])
    }
}

impl Shape for Quadratic {
    const ORDER: usize = 2;
    const SUPPORT: usize = 3;

    #[inline(always)]
    fn eval_fp<T: Real>(xi: T) -> (T, [T; 4]) {
        let fic = (xi + T::HALF).floor();
        let d = xi - fic; // in [-1/2, 1/2)
        let a = T::HALF - d;
        let b = T::HALF + d;
        (
            fic - T::ONE,
            [
                T::HALF * a * a,
                T::from_f64(0.75) - d * d,
                T::HALF * b * b,
                T::ZERO,
            ],
        )
    }
}

impl Shape for Cubic {
    const ORDER: usize = 3;
    const SUPPORT: usize = 4;

    #[inline(always)]
    fn eval_fp<T: Real>(xi: T) -> (T, [T; 4]) {
        let fil = xi.floor();
        let d = xi - fil; // in [0, 1)
        let d2 = d * d;
        let d3 = d2 * d;
        let sixth = T::from_f64(1.0 / 6.0);
        let omd = T::ONE - d;
        (
            fil - T::ONE,
            [
                sixth * omd * omd * omd,
                sixth * (T::from_f64(3.0) * d3 - T::from_f64(6.0) * d2 + T::from_f64(4.0)),
                sixth
                    * (T::from_f64(-3.0) * d3
                        + T::from_f64(3.0) * d2
                        + T::from_f64(3.0) * d
                        + T::ONE),
                sixth * d3,
            ],
        )
    }
}

/// Old and new shape weights of a moving particle on a *common* index
/// window of `SUPPORT + 1` points (the particle moves less than one cell
/// per step under the CFL limit), as needed by the Esirkepov deposition.
///
/// Returns `(anchor, s_old, s_new)`; weights live in
/// `[0 .. S::SUPPORT + 1]` of the fixed-size arrays.
#[inline(always)]
pub fn dual<S: Shape, T: Real>(xi_old: T, xi_new: T) -> (i64, [T; 5], [T; 5]) {
    let (i0o, wo) = S::eval(xi_old);
    let (i0n, wn) = S::eval(xi_new);
    debug_assert!(
        (i0o - i0n).abs() <= 1,
        "particle moved more than one cell per step (CFL violation)"
    );
    let anchor = i0o.min(i0n);
    // Branchless window placement: each window sits at offset 0 or 1
    // from the anchor, so every padded slot is a select between a
    // weight and its left neighbour (`eval`'s zero tail supplies the
    // padding for orders below cubic). Same values as an offset copy,
    // but branch-free and in registers, so blocks of `dual` calls
    // vectorize across particles.
    let o0 = i0o == anchor;
    let n0 = i0n == anchor;
    let s0 = [
        sel(o0, wo[0], T::ZERO),
        sel(o0, wo[1], wo[0]),
        sel(o0, wo[2], wo[1]),
        sel(o0, wo[3], wo[2]),
        sel(o0, T::ZERO, wo[3]),
    ];
    let s1 = [
        sel(n0, wn[0], T::ZERO),
        sel(n0, wn[1], wn[0]),
        sel(n0, wn[2], wn[1]),
        sel(n0, wn[3], wn[2]),
        sel(n0, T::ZERO, wn[3]),
    ];
    (anchor, s0, s1)
}

#[inline(always)]
pub(crate) fn sel<T: Real>(c: bool, a: T, b: T) -> T {
    if c {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_partition<S: Shape>(xi: f64) {
        let (_, w) = S::eval::<f64>(xi);
        let sum: f64 = w.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-12,
            "order {} xi={xi}: {w:?}",
            S::ORDER
        );
        for v in &w[..S::SUPPORT] {
            assert!(*v >= -1e-15, "negative weight at xi={xi}: {w:?}");
        }
        for v in &w[S::SUPPORT..] {
            assert_eq!(*v, 0.0);
        }
    }

    #[test]
    fn partition_of_unity_samples() {
        for i in 0..1000 {
            let xi = -5.0 + 10.0 * (i as f64) / 999.0;
            check_partition::<Linear>(xi);
            check_partition::<Quadratic>(xi);
            check_partition::<Cubic>(xi);
        }
    }

    #[test]
    fn linear_exact_values() {
        let (i0, w) = Linear::eval::<f64>(2.25);
        assert_eq!(i0, 2);
        assert!((w[0] - 0.75).abs() < 1e-15 && (w[1] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn quadratic_symmetry_on_node() {
        // Particle exactly on a node: symmetric [1/8, 3/4, 1/8].
        let (i0, w) = Quadratic::eval::<f64>(3.0);
        assert_eq!(i0, 2);
        assert!((w[0] - 0.125).abs() < 1e-15);
        assert!((w[1] - 0.75).abs() < 1e-15);
        assert!((w[2] - 0.125).abs() < 1e-15);
    }

    #[test]
    fn cubic_symmetry_mid_cell() {
        // Particle at a cell center: [1/48, 23/48, 23/48, 1/48].
        let (i0, w) = Cubic::eval::<f64>(1.5);
        assert_eq!(i0, 0);
        assert!((w[0] - 1.0 / 48.0).abs() < 1e-15);
        assert!((w[1] - 23.0 / 48.0).abs() < 1e-15);
        assert!((w[2] - 23.0 / 48.0).abs() < 1e-15);
        assert!((w[3] - 1.0 / 48.0).abs() < 1e-15);
    }

    #[test]
    fn shapes_are_continuous() {
        // Sample the reconstructed shape function S(x) on a fine grid and
        // verify continuity across cell boundaries.
        fn recon<S: Shape>(xi: f64, node: i64) -> f64 {
            let (i0, w) = S::eval::<f64>(xi);
            let k = node - i0;
            if (0..S::SUPPORT as i64).contains(&k) {
                w[k as usize]
            } else {
                0.0
            }
        }
        for order_fn in [recon::<Quadratic> as fn(f64, i64) -> f64, recon::<Cubic>] {
            for e in [-1.0f64, 0.0, 1.0, 2.0] {
                let lo = order_fn(e - 1e-9, 1);
                let hi = order_fn(e + 1e-9, 1);
                assert!((lo - hi).abs() < 1e-6, "discontinuity at {e}");
            }
        }
    }

    #[test]
    fn dual_windows_align() {
        let (a, s0, s1) = dual::<Quadratic, f64>(2.3, 2.9);
        assert!((s0.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((s1.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Old anchored at floor(2.3+0.5)-1 = 1, new at floor(2.9+.5)-1 = 2.
        assert_eq!(a, 1);
        assert_eq!(s1[0], 0.0); // new window shifted right by one
    }

    #[test]
    fn dual_identical_positions() {
        let (_, s0, s1) = dual::<Cubic, f64>(4.7, 4.7);
        assert_eq!(s0, s1);
    }
}
