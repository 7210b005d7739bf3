//! Lane-blocked SoA particle kernels.
//!
//! `Lanes<W>` processes particles in fixed-width blocks of `W`: per
//! block the shape weights of every particle are staged once per axis
//! and stagger variant into transposed `[.. ; W]` temporaries (the
//! paper's §V-A.1 "vectorize over p with ijk fixed" transposition),
//! and the interpolation / deposition inner loops then run over the
//! `W` lanes with the stencil offset fixed — plain chunk-of-N Rust the
//! compiler auto-vectorizes, no intrinsics.
//!
//! **Interior/boundary split.** Before taking the unchecked fast path a
//! block is tested for containment: every particle's stencil window
//! (per axis, per stagger variant actually used by the target view)
//! must lie fully inside the stored point box of *every* view it
//! touches, with an exclusive upper bound (`anchor + SUPPORT <= lo +
//! extent` — the top edge is not clamped; a window that merely touches
//! one-past-the-end is a boundary block). Interior blocks run the lane
//! loops with unchecked indexing; a block with any edge-straddling
//! lane, and the `n % W` tail, fall back to the scalar reference
//! kernels on the same sub-slice, whose checked indexing turns any
//! caller contract violation into a panic instead of UB.
//!
//! **Bitwise identity.** The fast path replicates the scalar kernels'
//! expression trees and evaluation order exactly (same products in the
//! same association, same accumulation chains, deposits scattered in
//! ascending lane = ascending particle order), so `Lanes` results are
//! bitwise identical to `gather2`/`gather3`/`esirkepov2`/`esirkepov3`/
//! `push_momentum` at any `W` and in both precisions. Property tests in
//! `tests/lane_bitwise.rs` enforce this for particle sets straddling
//! box edges.

use crate::deposit::{esirkepov2, esirkepov3, JViews};
use crate::gather::{gather2, gather3, EmOut, EmViews};
use crate::push::{boris_one, push_momentum, vay_one, Pusher};
use crate::real::Real;
use crate::shape::{sel, Shape};
use crate::view::{FieldView, Geom};

/// The particle-block width the step loop runs at. 16 doubles = two ZMM
/// registers per op: wide enough to amortize the per-block staging and
/// containment check, small enough that the staged weights stay
/// cache-resident (a 4/8/16 sweep on the 2-D order-2 uniform plasma
/// found the gather fastest at 16).
pub const DEFAULT_LANE_WIDTH: usize = 16;

/// Widest block the deposit kernels run at. Gather keeps getting faster
/// up to W = 16 (pure vector loads), but the deposit's scatter is a
/// serial per-lane read-modify-write chain, and past 8 lanes the larger
/// staged axis tiles cost more than the extra lanes amortize. Blocks
/// wider than this are re-blocked — pure re-blocking: per-particle
/// values, fallback behavior, and deposit order are width-invariant, so
/// results stay bitwise identical.
const DEPOSIT_MAX_WIDTH: usize = 8;

/// Lane-blocked kernel entry points at block width `W`.
pub struct Lanes<const W: usize>;

/// Staged dual-stagger weights of one block along one axis:
/// `w[variant][k][lane]` and anchors `i0[variant][lane]`, variant 0 =
/// nodal, 1 = half. One instance per axis a dimensionality actually
/// uses, so the 2-D gather never stages (or even zero-initializes) the
/// unused y axis.
struct GatherAxis<T, const W: usize> {
    w: [[[T; W]; 4]; 2],
    i0: [[i64; W]; 2],
    /// Per-variant min and max anchor over the block's lanes.
    lo: [i64; 2],
    hi: [i64; 2],
}

impl<T: Real, const W: usize> GatherAxis<T, W> {
    /// Evaluate both stagger variants of axis `d` for `W` particles.
    ///
    /// `xs[l] - T::from_f64(0.0)` is a bitwise identity (IEEE `x - 0.0
    /// == x`, including `-0.0`), so evaluating at `xi` and `xi - HALF`
    /// reproduces the scalar kernels' `S::eval(xi - off)` exactly for
    /// both variants.
    fn stage<S: Shape>(d: usize, xs: &[T], geom: &Geom) -> Self {
        let mut ax = GatherAxis {
            w: [[[T::ZERO; W]; 4]; 2],
            i0: [[0; W]; 2],
            lo: [i64::MAX; 2],
            hi: [i64::MIN; 2],
        };
        // Stage as whole-block array passes (cell-unit conversion, then
        // one `eval_block` per stagger variant) so each pass vectorizes
        // across the lanes instead of round-tripping per particle.
        // `xi - HALF` for the half variant reproduces the scalar
        // kernels' `S::eval(xi - off)` exactly (and `x - 0.0 == x`
        // bitwise for the nodal variant).
        let mut xn = [T::ZERO; W];
        let mut xh = [T::ZERO; W];
        for l in 0..W {
            let xi = geom.xi(d, xs[l]);
            xn[l] = xi;
            xh[l] = xi - T::HALF;
        }
        let [w_n, w_h] = &mut ax.w;
        let [i_n, i_h] = &mut ax.i0;
        S::eval_block(&xn, i_n, w_n);
        S::eval_block(&xh, i_h, w_h);
        for v in 0..2 {
            for l in 0..W {
                ax.lo[v] = ax.lo[v].min(ax.i0[v][l]);
                ax.hi[v] = ax.hi[v].max(ax.i0[v][l]);
            }
        }
        ax
    }

    /// Every lane's window along this axis inside `[f_lo, f_lo + ext)`,
    /// using stagger variant `v`?
    fn contained(&self, f_lo: i64, ext: i64, v: usize, support: i64) -> bool {
        self.lo[v] >= f_lo && self.hi[v] + support <= f_lo + ext
    }
}

/// Containment of a block against one 2-D (x–z) view.
#[inline(always)]
fn contained2<T: Real, const W: usize>(
    f: &FieldView<'_, T>,
    ax: &GatherAxis<T, W>,
    az: &GatherAxis<T, W>,
    support: i64,
) -> bool {
    let ext = f.extent();
    ax.contained(f.lo[0], ext[0], f.half[0] as usize, support)
        && az.contained(f.lo[2], ext[2], f.half[2] as usize, support)
}

/// Containment of a block against one 3-D view.
#[inline(always)]
fn contained3<T: Real, const W: usize>(
    f: &FieldView<'_, T>,
    ax: &GatherAxis<T, W>,
    ay: &GatherAxis<T, W>,
    az: &GatherAxis<T, W>,
    support: i64,
) -> bool {
    let ext = f.extent();
    ax.contained(f.lo[0], ext[0], f.half[0] as usize, support)
        && ay.contained(f.lo[1], ext[1], f.half[1] as usize, support)
        && az.contained(f.lo[2], ext[2], f.half[2] as usize, support)
}

/// Lane interpolation of one 3-D component; caller has verified
/// containment. Bitwise-identical to `interp_one` in `gather.rs`.
#[inline(always)]
fn lane_interp3<S: Shape, T: Real, const W: usize>(
    f: &FieldView<'_, T>,
    sx: &GatherAxis<T, W>,
    sy: &GatherAxis<T, W>,
    sz: &GatherAxis<T, W>,
    out: &mut [T],
) {
    let hx = f.half[0] as usize;
    let hy = f.half[1] as usize;
    let hz = f.half[2] as usize;
    let wx = &sx.w[hx];
    let wy = &sy.w[hy];
    let wz = &sz.w[hz];
    let mut base = [0usize; W];
    for l in 0..W {
        base[l] = f.idx(sx.i0[hx][l], sy.i0[hy][l], sz.i0[hz][l]);
    }
    let mut acc = [T::ZERO; W];
    for c in 0..S::SUPPORT {
        for b in 0..S::SUPPORT {
            let mut part = [T::ZERO; W];
            for l in 0..W {
                part[l] = wz[c][l] * wy[b][l];
            }
            let off = (c as i64 * f.nxy + b as i64 * f.nx) as usize;
            for a in 0..S::SUPPORT {
                let wxa = &wx[a];
                for l in 0..W {
                    // SAFETY: block containment checked by the caller.
                    let v = unsafe { *f.data.get_unchecked(base[l] + off + a) };
                    acc[l] = (part[l] * wxa[l]).mul_add(v, acc[l]);
                }
            }
        }
    }
    out[..W].copy_from_slice(&acc);
}

/// Lane interpolation of two 2-D (x–z) components that share both
/// stagger variants (Yee pairs: Ex/Bz and Ez/Bx project to the same
/// (x, z) halves). The weight product `wz·wx` is formed once and used
/// for both accumulations — the identical expression each component
/// computes alone, so the results stay bitwise-identical to
/// `interp_one_2d` per component while the staging products are paid
/// once per pair.
#[inline(always)]
fn lane_interp2_pair<S: Shape, T: Real, const W: usize>(
    f1: &FieldView<'_, T>,
    f2: &FieldView<'_, T>,
    sx: &GatherAxis<T, W>,
    sz: &GatherAxis<T, W>,
    out1: &mut [T],
    out2: &mut [T],
) {
    debug_assert!(f1.half[0] == f2.half[0] && f1.half[2] == f2.half[2]);
    let hx = f1.half[0] as usize;
    let hz = f1.half[2] as usize;
    let wx = &sx.w[hx];
    let wz = &sz.w[hz];
    let mut base1 = [0usize; W];
    let mut base2 = [0usize; W];
    for l in 0..W {
        base1[l] = f1.idx(sx.i0[hx][l], f1.lo[1], sz.i0[hz][l]);
        base2[l] = f2.idx(sx.i0[hx][l], f2.lo[1], sz.i0[hz][l]);
    }
    let mut acc1 = [T::ZERO; W];
    let mut acc2 = [T::ZERO; W];
    for c in 0..S::SUPPORT {
        let off1 = (c as i64 * f1.nxy) as usize;
        let off2 = (c as i64 * f2.nxy) as usize;
        for a in 0..S::SUPPORT {
            let wxa = &wx[a];
            let wzc = &wz[c];
            for l in 0..W {
                let wp = wzc[l] * wxa[l];
                // SAFETY: block containment checked by the caller for
                // both views.
                let v1 = unsafe { *f1.data.get_unchecked(base1[l] + off1 + a) };
                let v2 = unsafe { *f2.data.get_unchecked(base2[l] + off2 + a) };
                acc1[l] = wp.mul_add(v1, acc1[l]);
                acc2[l] = wp.mul_add(v2, acc2[l]);
            }
        }
    }
    out1[..W].copy_from_slice(&acc1);
    out2[..W].copy_from_slice(&acc2);
}

/// Lane interpolation of one 2-D (x–z) component; bitwise-identical to
/// `interp_one_2d` in `gather.rs`.
#[inline(always)]
fn lane_interp2<S: Shape, T: Real, const W: usize>(
    f: &FieldView<'_, T>,
    sx: &GatherAxis<T, W>,
    sz: &GatherAxis<T, W>,
    out: &mut [T],
) {
    let hx = f.half[0] as usize;
    let hz = f.half[2] as usize;
    let wx = &sx.w[hx];
    let wz = &sz.w[hz];
    let j = f.lo[1];
    let mut base = [0usize; W];
    for l in 0..W {
        base[l] = f.idx(sx.i0[hx][l], j, sz.i0[hz][l]);
    }
    let mut acc = [T::ZERO; W];
    for c in 0..S::SUPPORT {
        let off = (c as i64 * f.nxy) as usize;
        for a in 0..S::SUPPORT {
            let wxa = &wx[a];
            let wzc = &wz[c];
            for l in 0..W {
                // SAFETY: block containment checked by the caller.
                let v = unsafe { *f.data.get_unchecked(base[l] + off + a) };
                acc[l] = (wzc[l] * wxa[l]).mul_add(v, acc[l]);
            }
        }
    }
    out[..W].copy_from_slice(&acc);
}

/// Staged dual (old/new) Esirkepov weights of one block along one axis,
/// stored k-major (`s0[k][lane]`) so staging runs as contiguous array
/// passes across the lanes; the per-lane scatter reads its window with
/// constant-stride scalar loads.
struct DepAxis<T, const W: usize> {
    a: [i64; W],
    s0: [[T; W]; 5],
    ds: [[T; W]; 5],
    /// Ascending prefix sums of `ds` (the Esirkepov sweep integral) —
    /// per lane the same serial addition chain as the scalar kernels'
    /// prefix pass, accumulated vector-wise across the lanes.
    ps: [[T; W]; 5],
    lo: i64,
    hi: i64,
}

impl<T: Real, const W: usize> DepAxis<T, W> {
    /// Whole-block staging: the evaluation `shape::dual` performs per
    /// particle, restructured into array passes across the lanes (eval
    /// both endpoints, branchless window placement, difference, prefix)
    /// — every pass auto-vectorizes, and each lane's values stay
    /// bitwise identical to `dual::<S, T>` plus the scalar prefix pass.
    fn stage<S: Shape>(d: usize, p0: &[T], p1: &[T], geom: &Geom) -> Self {
        let mut ax = Self {
            a: [0; W],
            s0: [[T::ZERO; W]; 5],
            ds: [[T::ZERO; W]; 5],
            ps: [[T::ZERO; W]; 5],
            lo: i64::MAX,
            hi: i64::MIN,
        };
        let mut xo = [T::ZERO; W];
        let mut xn = [T::ZERO; W];
        for l in 0..W {
            xo[l] = geom.xi(d, p0[l]);
            xn[l] = geom.xi(d, p1[l]);
        }
        let mut io = [0i64; W];
        let mut in_ = [0i64; W];
        let mut wo = [[T::ZERO; W]; 4];
        let mut wn = [[T::ZERO; W]; 4];
        S::eval_block(&xo, &mut io, &mut wo);
        S::eval_block(&xn, &mut in_, &mut wn);
        let mut o0 = [false; W];
        let mut n0 = [false; W];
        for l in 0..W {
            debug_assert!(
                (io[l] - in_[l]).abs() <= 1,
                "particle moved more than one cell per step (CFL violation)"
            );
            let a = io[l].min(in_[l]);
            ax.a[l] = a;
            o0[l] = io[l] == a;
            n0[l] = in_[l] == a;
        }
        for l in 0..W {
            ax.lo = ax.lo.min(ax.a[l]);
            ax.hi = ax.hi.max(ax.a[l]);
        }
        // Branchless dual-window placement (see `shape::dual`): each
        // window sits at offset 0 or 1 from the anchor, so every padded
        // slot is a select between a weight and its left neighbour,
        // with `eval`'s zero tail as padding. `s1` is only needed
        // transiently to form `ds`.
        let mut s1 = [[T::ZERO; W]; 5];
        for l in 0..W {
            ax.s0[0][l] = sel(o0[l], wo[0][l], T::ZERO);
            s1[0][l] = sel(n0[l], wn[0][l], T::ZERO);
        }
        for k in 1..4 {
            for l in 0..W {
                ax.s0[k][l] = sel(o0[l], wo[k][l], wo[k - 1][l]);
                s1[k][l] = sel(n0[l], wn[k][l], wn[k - 1][l]);
            }
        }
        for l in 0..W {
            ax.s0[4][l] = sel(o0[l], T::ZERO, wo[3][l]);
            s1[4][l] = sel(n0[l], T::ZERO, wn[3][l]);
        }
        let len = S::SUPPORT + 1;
        for k in 0..len {
            for l in 0..W {
                ax.ds[k][l] = s1[k][l] - ax.s0[k][l];
            }
        }
        // `ZERO + ds[0]` mirrors the scalar pass's `run = run + ds[k]`
        // chain exactly from its zero seed.
        for l in 0..W {
            ax.ps[0][l] = T::ZERO + ax.ds[0][l];
        }
        for k in 1..len {
            for l in 0..W {
                ax.ps[k][l] = ax.ps[k - 1][l] + ax.ds[k][l];
            }
        }
        ax
    }

    /// Window `[lo, hi + len)` inside the view along axis `d`?
    fn contained(&self, lo_d: i64, ext_d: i64, len: i64) -> bool {
        self.lo >= lo_d && self.hi + len <= lo_d + ext_d
    }
}

impl<const W: usize> Lanes<W> {
    /// Lane-blocked 3-D gather; bitwise-identical to [`gather3`].
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
        let mut s = 0;
        while s + W <= n {
            let e = s + W;
            let sx = GatherAxis::<T, W>::stage::<S>(0, &x[s..e], geom);
            let sy = GatherAxis::<T, W>::stage::<S>(1, &y[s..e], geom);
            let sz = GatherAxis::<T, W>::stage::<S>(2, &z[s..e], geom);
            let sup = S::SUPPORT as i64;
            let interior = contained3(&f.ex, &sx, &sy, &sz, sup)
                && contained3(&f.ey, &sx, &sy, &sz, sup)
                && contained3(&f.ez, &sx, &sy, &sz, sup)
                && contained3(&f.bx, &sx, &sy, &sz, sup)
                && contained3(&f.by, &sx, &sy, &sz, sup)
                && contained3(&f.bz, &sx, &sy, &sz, sup);
            if interior {
                lane_interp3::<S, T, W>(&f.ex, &sx, &sy, &sz, &mut out.ex[s..e]);
                lane_interp3::<S, T, W>(&f.ey, &sx, &sy, &sz, &mut out.ey[s..e]);
                lane_interp3::<S, T, W>(&f.ez, &sx, &sy, &sz, &mut out.ez[s..e]);
                lane_interp3::<S, T, W>(&f.bx, &sx, &sy, &sz, &mut out.bx[s..e]);
                lane_interp3::<S, T, W>(&f.by, &sx, &sy, &sz, &mut out.by[s..e]);
                lane_interp3::<S, T, W>(&f.bz, &sx, &sy, &sz, &mut out.bz[s..e]);
            } else {
                gather3::<S, T>(
                    &x[s..e],
                    &y[s..e],
                    &z[s..e],
                    geom,
                    f,
                    &mut sub_out(out, s, e),
                );
            }
            s = e;
        }
        if s < n {
            gather3::<S, T>(&x[s..], &y[s..], &z[s..], geom, f, &mut sub_out(out, s, n));
        }
    }

    /// Lane-blocked 2-D (x–z) gather; bitwise-identical to [`gather2`].
    pub fn gather2<S: Shape, T: Real>(
        x: &[T],
        z: &[T],
        geom: &Geom,
        f: &EmViews<'_, T>,
        out: &mut EmOut<'_, T>,
    ) {
        let n = x.len();
        assert!(z.len() == n && out.ex.len() >= n);
        let mut s = 0;
        while s + W <= n {
            let e = s + W;
            let sx = GatherAxis::<T, W>::stage::<S>(0, &x[s..e], geom);
            let sz = GatherAxis::<T, W>::stage::<S>(2, &z[s..e], geom);
            let sup = S::SUPPORT as i64;
            let interior = contained2(&f.ex, &sx, &sz, sup)
                && contained2(&f.ey, &sx, &sz, sup)
                && contained2(&f.ez, &sx, &sz, sup)
                && contained2(&f.bx, &sx, &sz, sup)
                && contained2(&f.by, &sx, &sz, sup)
                && contained2(&f.bz, &sx, &sz, sup);
            if interior {
                // On the Yee lattice Ex/Bz and Ez/Bx project to the same
                // (x, z) stagger pair — interpolate those as fused pairs
                // sharing the weight products (bitwise-identical values).
                let yee_pairs = f.ex.half[0] == f.bz.half[0]
                    && f.ex.half[2] == f.bz.half[2]
                    && f.ez.half[0] == f.bx.half[0]
                    && f.ez.half[2] == f.bx.half[2];
                if yee_pairs {
                    let (ex_o, bz_o) = (&mut out.ex[s..e], &mut out.bz[s..e]);
                    lane_interp2_pair::<S, T, W>(&f.ex, &f.bz, &sx, &sz, ex_o, bz_o);
                    let (ez_o, bx_o) = (&mut out.ez[s..e], &mut out.bx[s..e]);
                    lane_interp2_pair::<S, T, W>(&f.ez, &f.bx, &sx, &sz, ez_o, bx_o);
                    lane_interp2::<S, T, W>(&f.ey, &sx, &sz, &mut out.ey[s..e]);
                    lane_interp2::<S, T, W>(&f.by, &sx, &sz, &mut out.by[s..e]);
                } else {
                    lane_interp2::<S, T, W>(&f.ex, &sx, &sz, &mut out.ex[s..e]);
                    lane_interp2::<S, T, W>(&f.ey, &sx, &sz, &mut out.ey[s..e]);
                    lane_interp2::<S, T, W>(&f.ez, &sx, &sz, &mut out.ez[s..e]);
                    lane_interp2::<S, T, W>(&f.bx, &sx, &sz, &mut out.bx[s..e]);
                    lane_interp2::<S, T, W>(&f.by, &sx, &sz, &mut out.by[s..e]);
                    lane_interp2::<S, T, W>(&f.bz, &sx, &sz, &mut out.bz[s..e]);
                }
            } else {
                gather2::<S, T>(&x[s..e], &z[s..e], geom, f, &mut sub_out(out, s, e));
            }
            s = e;
        }
        if s < n {
            gather2::<S, T>(&x[s..], &z[s..], geom, f, &mut sub_out(out, s, n));
        }
    }

    /// Lane-blocked 3-D Esirkepov deposition; bitwise-identical to
    /// [`esirkepov3`] (deposits land in the same order).
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
        if W > DEPOSIT_MAX_WIDTH {
            return Lanes::<DEPOSIT_MAX_WIDTH>::esirkepov3::<S, T>(
                x0, y0, z0, x1, y1, z1, w, q, dt, geom, j,
            );
        }
        let n = x0.len();
        let [dx, dy, dz] = geom.dx;
        let cx = q / (dt * T::from_f64(dy * dz));
        let cy = q / (dt * T::from_f64(dx * dz));
        let cz = q / (dt * T::from_f64(dx * dy));
        let half = T::HALF;
        let third = T::from_f64(1.0 / 3.0);
        let len = S::SUPPORT + 1;
        let mut s = 0;
        while s + W <= n {
            let e = s + W;
            let sx = DepAxis::<T, W>::stage::<S>(0, &x0[s..e], &x1[s..e], geom);
            let sy = DepAxis::<T, W>::stage::<S>(1, &y0[s..e], &y1[s..e], geom);
            let sz = DepAxis::<T, W>::stage::<S>(2, &z0[s..e], &z1[s..e], geom);
            let leni = len as i64;
            let interior = [&j.jx, &j.jy, &j.jz].into_iter().all(|v| {
                let ext = v.extent();
                sx.contained(v.lo[0], ext[0], leni)
                    && sy.contained(v.lo[1], ext[1], leni)
                    && sz.contained(v.lo[2], ext[2], leni)
            });
            if interior {
                // Fused per-lane scatter: each lane replays the scalar
                // kernel's exact expression tree against the staged
                // weights (contiguous per lane), with the block-level
                // containment check licensing unchecked row addressing.
                // Lanes run in ascending order so cross-particle
                // accumulation matches the scalar kernel bitwise.
                let (xnxy, xnx) = (j.jx.nxy as usize, j.jx.nx as usize);
                let (ynxy, ynx) = (j.jy.nxy as usize, j.jy.nx as usize);
                let (znxy, znx) = (j.jz.nxy as usize, j.jz.nx as usize);
                for l in 0..W {
                    let nwx = -(cx * w[s + l]);
                    let nwy = -(cy * w[s + l]);
                    let nwz = -(cz * w[s + l]);
                    let bx = j.jx.idx(sx.a[l], sy.a[l], sz.a[l]);
                    for c in 0..len {
                        let pz = half.mul_add(sz.ds[c][l], sz.s0[c][l]);
                        let qz = third.mul_add(sz.ds[c][l], half * sz.s0[c][l]);
                        for b in 0..len {
                            let wt = sy.ds[b][l].mul_add(qz, sy.s0[b][l] * pz);
                            let nw = nwx * wt;
                            let row = bx + c * xnxy + b * xnx;
                            for a in 0..len - 1 {
                                // SAFETY: containment checked above.
                                unsafe {
                                    let slot = j.jx.data.get_unchecked_mut(row + a);
                                    *slot = nw.mul_add(sx.ps[a][l], *slot);
                                }
                            }
                        }
                    }
                    // Jy / Jz run a-innermost with hoisted per-a weights
                    // (see the scalar kernel — one contribution per slot,
                    // so the reorder is value- and order-preserving).
                    let by = j.jy.idx(sx.a[l], sy.a[l], sz.a[l]);
                    for c in 0..len {
                        let pz = half.mul_add(sz.ds[c][l], sz.s0[c][l]);
                        let qz = third.mul_add(sz.ds[c][l], half * sz.s0[c][l]);
                        let mut nwy_a = [T::ZERO; 5];
                        for a in 0..len {
                            nwy_a[a] = nwy * sx.ds[a][l].mul_add(qz, sx.s0[a][l] * pz);
                        }
                        for b in 0..len - 1 {
                            let row = by + c * ynxy + b * ynx;
                            for a in 0..len {
                                // SAFETY: containment checked above.
                                unsafe {
                                    let slot = j.jy.data.get_unchecked_mut(row + a);
                                    *slot = nwy_a[a].mul_add(sy.ps[b][l], *slot);
                                }
                            }
                        }
                    }
                    let bz = j.jz.idx(sx.a[l], sy.a[l], sz.a[l]);
                    for b in 0..len {
                        let py = half.mul_add(sy.ds[b][l], sy.s0[b][l]);
                        let qy = third.mul_add(sy.ds[b][l], half * sy.s0[b][l]);
                        let mut nwz_a = [T::ZERO; 5];
                        for a in 0..len {
                            nwz_a[a] = nwz * sx.ds[a][l].mul_add(qy, sx.s0[a][l] * py);
                        }
                        for c in 0..len - 1 {
                            let row = bz + c * znxy + b * znx;
                            for a in 0..len {
                                // SAFETY: containment checked above.
                                unsafe {
                                    let slot = j.jz.data.get_unchecked_mut(row + a);
                                    *slot = nwz_a[a].mul_add(sz.ps[c][l], *slot);
                                }
                            }
                        }
                    }
                }
            } else {
                esirkepov3::<S, T>(
                    &x0[s..e],
                    &y0[s..e],
                    &z0[s..e],
                    &x1[s..e],
                    &y1[s..e],
                    &z1[s..e],
                    &w[s..e],
                    q,
                    dt,
                    geom,
                    j,
                );
            }
            s = e;
        }
        if s < n {
            esirkepov3::<S, T>(
                &x0[s..],
                &y0[s..],
                &z0[s..],
                &x1[s..],
                &y1[s..],
                &z1[s..],
                &w[s..],
                q,
                dt,
                geom,
                j,
            );
        }
    }

    /// Lane-blocked 2-D (x–z) Esirkepov deposition; bitwise-identical
    /// to [`esirkepov2`].
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
        if W > DEPOSIT_MAX_WIDTH {
            return Lanes::<DEPOSIT_MAX_WIDTH>::esirkepov2::<S, T>(
                x0, z0, x1, z1, vy, w, q, dt, geom, j,
            );
        }
        let n = x0.len();
        let [dx, dy, dz] = geom.dx;
        let cx = q / (dt * T::from_f64(dy * dz));
        let cz = q / (dt * T::from_f64(dx * dy));
        let cy = q / T::from_f64(dx * dy * dz);
        let half = T::HALF;
        let third = T::from_f64(1.0 / 3.0);
        let len = S::SUPPORT + 1;
        let mut s = 0;
        while s + W <= n {
            let e = s + W;
            let sx = DepAxis::<T, W>::stage::<S>(0, &x0[s..e], &x1[s..e], geom);
            let sz = DepAxis::<T, W>::stage::<S>(2, &z0[s..e], &z1[s..e], geom);
            let leni = len as i64;
            let interior = [&j.jx, &j.jy, &j.jz].into_iter().all(|v| {
                let ext = v.extent();
                sx.contained(v.lo[0], ext[0], leni) && sz.contained(v.lo[2], ext[2], leni)
            });
            if interior {
                // Fused per-lane scatter (see `esirkepov3`): the scalar
                // expression tree replayed on contiguous staged weights,
                // unchecked addressing licensed by the containment check,
                // ascending lane order for bitwise-identical accumulation.
                let jx_plane = j.jx.lo[1];
                let jy_plane = j.jy.lo[1];
                let jz_plane = j.jz.lo[1];
                let xnxy = j.jx.nxy as usize;
                let ynxy = j.jy.nxy as usize;
                let znxy = j.jz.nxy as usize;
                for l in 0..W {
                    let nwxc = -(cx * w[s + l]);
                    let wyc = cy * w[s + l] * vy[s + l];
                    let nwzc = -(cz * w[s + l]);
                    let bx = j.jx.idx(sx.a[l], jx_plane, sz.a[l]);
                    for c in 0..len {
                        let wt = half.mul_add(sz.ds[c][l], sz.s0[c][l]);
                        let nw = nwxc * wt;
                        let row = bx + c * xnxy;
                        for a in 0..len - 1 {
                            // SAFETY: containment checked above.
                            unsafe {
                                let slot = j.jx.data.get_unchecked_mut(row + a);
                                *slot = nw.mul_add(sx.ps[a][l], *slot);
                            }
                        }
                    }
                    let bz = j.jz.idx(sx.a[l], jz_plane, sz.a[l]);
                    // c-outer / a-inner (contiguous stores); same
                    // per-slot values and order as the scalar kernel.
                    let mut nwz = [T::ZERO; 5];
                    for a in 0..len {
                        nwz[a] = nwzc * half.mul_add(sx.ds[a][l], sx.s0[a][l]);
                    }
                    for c in 0..len - 1 {
                        let psz_c = sz.ps[c][l];
                        let row = bz + c * znxy;
                        for a in 0..len {
                            // SAFETY: containment checked above.
                            unsafe {
                                let slot = j.jz.data.get_unchecked_mut(row + a);
                                *slot = nwz[a].mul_add(psz_c, *slot);
                            }
                        }
                    }
                    let by = j.jy.idx(sx.a[l], jy_plane, sz.a[l]);
                    for c in 0..len {
                        let pz = half.mul_add(sz.ds[c][l], sz.s0[c][l]);
                        let qz = third.mul_add(sz.ds[c][l], half * sz.s0[c][l]);
                        let row = by + c * ynxy;
                        for a in 0..len {
                            let wt = sx.ds[a][l].mul_add(qz, sx.s0[a][l] * pz);
                            // SAFETY: containment checked above.
                            unsafe {
                                let slot = j.jy.data.get_unchecked_mut(row + a);
                                *slot = wyc.mul_add(wt, *slot);
                            }
                        }
                    }
                }
            } else {
                esirkepov2::<S, T>(
                    &x0[s..e],
                    &z0[s..e],
                    &x1[s..e],
                    &z1[s..e],
                    &vy[s..e],
                    &w[s..e],
                    q,
                    dt,
                    geom,
                    j,
                );
            }
            s = e;
        }
        if s < n {
            esirkepov2::<S, T>(
                &x0[s..],
                &z0[s..],
                &x1[s..],
                &z1[s..],
                &vy[s..],
                &w[s..],
                q,
                dt,
                geom,
                j,
            );
        }
    }

    /// Block-chunked momentum push. The per-particle update is already
    /// lane-independent; chunking keeps the E/B operands of a block hot
    /// and gives LLVM a fixed trip count to unroll/vectorize.
    #[allow(clippy::too_many_arguments)]
    pub fn push_momentum<T: Real>(
        pusher: Pusher,
        ux: &mut [T],
        uy: &mut [T],
        uz: &mut [T],
        ex: &[T],
        ey: &[T],
        ez: &[T],
        bx: &[T],
        by: &[T],
        bz: &[T],
        qmdt2: T,
    ) {
        let n = ux.len();
        let mut s = 0;
        // The pusher dispatch is hoisted out of the chunk loop so each
        // arm is a branch-free blocked loop the compiler can unroll.
        match pusher {
            Pusher::Boris => {
                while s + W <= n {
                    for l in s..s + W {
                        boris_one(
                            &mut ux[l], &mut uy[l], &mut uz[l], ex[l], ey[l], ez[l], bx[l], by[l],
                            bz[l], qmdt2,
                        );
                    }
                    s += W;
                }
            }
            Pusher::Vay => {
                while s + W <= n {
                    for l in s..s + W {
                        vay_one(
                            &mut ux[l], &mut uy[l], &mut uz[l], ex[l], ey[l], ez[l], bx[l], by[l],
                            bz[l], qmdt2,
                        );
                    }
                    s += W;
                }
            }
        }
        if s < n {
            push_momentum(
                pusher,
                &mut ux[s..],
                &mut uy[s..],
                &mut uz[s..],
                &ex[s..],
                &ey[s..],
                &ez[s..],
                &bx[s..],
                &by[s..],
                &bz[s..],
                qmdt2,
            );
        }
    }
}

/// Reborrow the `[s, e)` window of every output component.
fn sub_out<'a, T>(out: &'a mut EmOut<'_, T>, s: usize, e: usize) -> EmOut<'a, T> {
    EmOut {
        ex: &mut out.ex[s..e],
        ey: &mut out.ey[s..e],
        ez: &mut out.ez[s..e],
        bx: &mut out.bx[s..e],
        by: &mut out.by[s..e],
        bz: &mut out.bz[s..e],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push::push_momentum;
    use crate::shape::{Cubic, Linear, Quadratic};
    use crate::view::FieldViewMut;

    /// Deterministic LCG so tests need no external RNG.
    struct Rng(u64);
    impl Rng {
        fn next_f64(&mut self) -> f64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    const NX: i64 = 20;
    const NY: i64 = 18;
    const NZ: i64 = 19;
    const LO: [i64; 3] = [-2, -1, -3];

    fn grid(seed: u64) -> Vec<f64> {
        let mut r = Rng(seed);
        (0..(NX * NY * NZ) as usize)
            .map(|_| r.next_f64() * 2.0 - 1.0)
            .collect()
    }

    fn view<'a>(data: &'a [f64], half: [bool; 3]) -> FieldView<'a, f64> {
        FieldView {
            data,
            lo: LO,
            nx: NX,
            nxy: NX * NY,
            half,
        }
    }

    fn em_views(store: &[Vec<f64>; 6]) -> EmViews<'_, f64> {
        EmViews {
            ex: view(&store[0], [true, false, false]),
            ey: view(&store[1], [false, true, false]),
            ez: view(&store[2], [false, false, true]),
            bx: view(&store[3], [false, true, true]),
            by: view(&store[4], [true, false, true]),
            bz: view(&store[5], [true, true, false]),
        }
    }

    /// Positions whose stencil windows (any variant, window `sup`) are
    /// comfortably interior: a `sup + 3`-cell margin absorbs the anchor
    /// spread of every shape, stagger variant, and sub-cell move.
    /// Edge-touching windows are covered by `tests/lane_bitwise.rs`.
    fn positions(n: usize, seed: u64, sup: i64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut r = Rng(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut zs = Vec::new();
        let m = (sup + 3) as f64;
        let span = |ext: i64, u: f64| m + u * (ext as f64 - 2.0 * m);
        for _ in 0..n {
            xs.push(LO[0] as f64 + span(NX, r.next_f64()));
            ys.push(LO[1] as f64 + span(NY, r.next_f64()));
            zs.push(LO[2] as f64 + span(NZ, r.next_f64()));
        }
        (xs, ys, zs)
    }

    fn geom() -> Geom {
        Geom {
            xmin: [0.0; 3],
            dx: [1.0; 3],
        }
    }

    fn bitwise_gather3<S: Shape, const W: usize>(n: usize) {
        let mut store: [Vec<f64>; 6] = Default::default();
        for (i, v) in store.iter_mut().enumerate() {
            *v = grid(100 + i as u64);
        }
        let f = em_views(&store);
        let g = geom();
        let (mut x, mut y, mut z) = positions(n, 7, S::SUPPORT as i64);
        // Shift into physical coordinates (geom is unit cells at 0).
        for p in 0..n {
            x[p] *= g.dx[0];
            y[p] *= g.dx[1];
            z[p] *= g.dx[2];
        }
        let mut a = vec![vec![0.0f64; n]; 6];
        let mut b = vec![vec![0.0f64; n]; 6];
        {
            let [a0, a1, a2, a3, a4, a5] = &mut a[..] else {
                unreachable!()
            };
            let mut out = EmOut {
                ex: a0,
                ey: a1,
                ez: a2,
                bx: a3,
                by: a4,
                bz: a5,
            };
            gather3::<S, f64>(&x, &y, &z, &g, &f, &mut out);
        }
        {
            let [b0, b1, b2, b3, b4, b5] = &mut b[..] else {
                unreachable!()
            };
            let mut out = EmOut {
                ex: b0,
                ey: b1,
                ez: b2,
                bx: b3,
                by: b4,
                bz: b5,
            };
            Lanes::<W>::gather3::<S, f64>(&x, &y, &z, &g, &f, &mut out);
        }
        for c in 0..6 {
            for p in 0..n {
                assert_eq!(a[c][p].to_bits(), b[c][p].to_bits(), "comp {c} p {p}");
            }
        }
    }

    #[test]
    fn gather3_bitwise_all_orders_and_widths() {
        bitwise_gather3::<Linear, 4>(37);
        bitwise_gather3::<Quadratic, 8>(41);
        bitwise_gather3::<Cubic, 16>(33);
        bitwise_gather3::<Quadratic, 8>(5); // tail-only
    }

    fn bitwise_gather2<S: Shape, const W: usize>(n: usize) {
        let mut store: [Vec<f64>; 6] = Default::default();
        for (i, v) in store.iter_mut().enumerate() {
            *v = grid(300 + i as u64);
        }
        let f = em_views(&store);
        let g = geom();
        let (x, _, z) = positions(n, 11, S::SUPPORT as i64);
        let mut a = vec![vec![0.0f64; n]; 6];
        let mut b = vec![vec![0.0f64; n]; 6];
        {
            let [a0, a1, a2, a3, a4, a5] = &mut a[..] else {
                unreachable!()
            };
            let mut out = EmOut {
                ex: a0,
                ey: a1,
                ez: a2,
                bx: a3,
                by: a4,
                bz: a5,
            };
            gather2::<S, f64>(&x, &z, &g, &f, &mut out);
        }
        {
            let [b0, b1, b2, b3, b4, b5] = &mut b[..] else {
                unreachable!()
            };
            let mut out = EmOut {
                ex: b0,
                ey: b1,
                ez: b2,
                bx: b3,
                by: b4,
                bz: b5,
            };
            Lanes::<W>::gather2::<S, f64>(&x, &z, &g, &f, &mut out);
        }
        for c in 0..6 {
            for p in 0..n {
                assert_eq!(a[c][p].to_bits(), b[c][p].to_bits(), "comp {c} p {p}");
            }
        }
    }

    #[test]
    fn gather2_bitwise_all_orders_and_widths() {
        bitwise_gather2::<Linear, 4>(29);
        bitwise_gather2::<Quadratic, 8>(53);
        bitwise_gather2::<Cubic, 16>(35);
    }

    fn jviews(store: &mut [Vec<f64>; 3]) -> JViews<'_, f64> {
        let [jx, jy, jz] = store;
        JViews {
            jx: FieldViewMut {
                data: jx,
                lo: LO,
                nx: NX,
                nxy: NX * NY,
                half: [true, false, false],
            },
            jy: FieldViewMut {
                data: jy,
                lo: LO,
                nx: NX,
                nxy: NX * NY,
                half: [false, true, false],
            },
            jz: FieldViewMut {
                data: jz,
                lo: LO,
                nx: NX,
                nxy: NX * NY,
                half: [false, false, true],
            },
        }
    }

    fn bitwise_deposit3<S: Shape, const W: usize>(n: usize) {
        let g = geom();
        let sup = S::SUPPORT as i64 + 1;
        let (x0, y0, z0) = positions(n, 17, sup);
        let mut r = Rng(23);
        let (mut x1, mut y1, mut z1) = (x0.clone(), y0.clone(), z0.clone());
        let mut w = vec![0.0; n];
        for p in 0..n {
            // Sub-CFL displacement keeps |i0_old - i0_new| <= 1.
            x1[p] += 0.8 * (r.next_f64() - 0.5);
            y1[p] += 0.8 * (r.next_f64() - 0.5);
            z1[p] += 0.8 * (r.next_f64() - 0.5);
            w[p] = 1.0 + r.next_f64();
        }
        let mut sa: [Vec<f64>; 3] = Default::default();
        let mut sb: [Vec<f64>; 3] = Default::default();
        for v in sa.iter_mut().chain(sb.iter_mut()) {
            *v = vec![0.0; (NX * NY * NZ) as usize];
        }
        let q = 1.6e-19;
        let dt = 1e-9;
        {
            let mut j = jviews(&mut sa);
            esirkepov3::<S, f64>(&x0, &y0, &z0, &x1, &y1, &z1, &w, q, dt, &g, &mut j);
        }
        {
            let mut j = jviews(&mut sb);
            Lanes::<W>::esirkepov3::<S, f64>(&x0, &y0, &z0, &x1, &y1, &z1, &w, q, dt, &g, &mut j);
        }
        for c in 0..3 {
            for i in 0..sa[c].len() {
                assert_eq!(sa[c][i].to_bits(), sb[c][i].to_bits(), "comp {c} cell {i}");
            }
        }
    }

    #[test]
    fn esirkepov3_bitwise_all_orders_and_widths() {
        bitwise_deposit3::<Linear, 4>(37);
        bitwise_deposit3::<Quadratic, 8>(41);
        bitwise_deposit3::<Cubic, 16>(33);
    }

    fn bitwise_deposit2<S: Shape, const W: usize>(n: usize) {
        let g = geom();
        let sup = S::SUPPORT as i64 + 1;
        let (x0, _, z0) = positions(n, 47, sup);
        let mut r = Rng(51);
        let (mut x1, mut z1) = (x0.clone(), z0.clone());
        let mut w = vec![0.0; n];
        let mut vy = vec![0.0; n];
        for p in 0..n {
            x1[p] += 0.8 * (r.next_f64() - 0.5);
            z1[p] += 0.8 * (r.next_f64() - 0.5);
            w[p] = 1.0 + r.next_f64();
            vy[p] = 1e6 * (r.next_f64() - 0.5);
        }
        let mut sa: [Vec<f64>; 3] = Default::default();
        let mut sb: [Vec<f64>; 3] = Default::default();
        for v in sa.iter_mut().chain(sb.iter_mut()) {
            *v = vec![0.0; (NX * NY * NZ) as usize];
        }
        let q = 1.6e-19;
        let dt = 1e-9;
        {
            let mut j = jviews(&mut sa);
            esirkepov2::<S, f64>(&x0, &z0, &x1, &z1, &vy, &w, q, dt, &g, &mut j);
        }
        {
            let mut j = jviews(&mut sb);
            Lanes::<W>::esirkepov2::<S, f64>(&x0, &z0, &x1, &z1, &vy, &w, q, dt, &g, &mut j);
        }
        for c in 0..3 {
            for i in 0..sa[c].len() {
                assert_eq!(sa[c][i].to_bits(), sb[c][i].to_bits(), "comp {c} cell {i}");
            }
        }
    }

    #[test]
    fn esirkepov2_bitwise_all_orders_and_widths() {
        bitwise_deposit2::<Linear, 4>(37);
        bitwise_deposit2::<Quadratic, 8>(41);
        bitwise_deposit2::<Cubic, 16>(33);
    }

    #[test]
    fn push_bitwise() {
        let n = 37;
        let mut r = Rng(3);
        let mut mk =
            |scale: f64| -> Vec<f64> { (0..n).map(|_| scale * (r.next_f64() - 0.5)).collect() };
        let (ex, ey, ez) = (mk(1e10), mk(1e10), mk(1e10));
        let (bx, by, bz) = (mk(1e2), mk(1e2), mk(1e2));
        let u0: Vec<f64> = mk(1e8);
        for pusher in [Pusher::Boris, Pusher::Vay] {
            let (mut ax, mut ay, mut az) = (u0.clone(), u0.clone(), u0.clone());
            let (mut lx, mut ly, mut lz) = (u0.clone(), u0.clone(), u0.clone());
            push_momentum(
                pusher, &mut ax, &mut ay, &mut az, &ex, &ey, &ez, &bx, &by, &bz, 1.0,
            );
            Lanes::<8>::push_momentum(
                pusher, &mut lx, &mut ly, &mut lz, &ex, &ey, &ez, &bx, &by, &bz, 1.0,
            );
            for p in 0..n {
                assert_eq!(ax[p].to_bits(), lx[p].to_bits());
                assert_eq!(ay[p].to_bits(), ly[p].to_bits());
                assert_eq!(az[p].to_bits(), lz[p].to_bits());
            }
        }
    }

    #[test]
    fn f32_instantiation_runs() {
        let g = geom();
        let n = 12;
        let (x64, _, z64) = positions(n, 99, 4);
        let x: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
        let z: Vec<f32> = z64.iter().map(|&v| v as f32).collect();
        let mut data: Vec<Vec<f32>> = (0..6).map(|_| vec![1.0; (NX * NY * NZ) as usize]).collect();
        fn mk(d: &[f32]) -> FieldView<'_, f32> {
            FieldView {
                data: d,
                lo: LO,
                nx: NX,
                nxy: NX * NY,
                half: [false; 3],
            }
        }
        let mut outs = vec![vec![0.0f32; n]; 6];
        {
            let [d0, d1, d2, d3, d4, d5] = &mut data[..] else {
                unreachable!()
            };
            let f = EmViews {
                ex: mk(d0),
                ey: mk(d1),
                ez: mk(d2),
                bx: mk(d3),
                by: mk(d4),
                bz: mk(d5),
            };
            let [o0, o1, o2, o3, o4, o5] = &mut outs[..] else {
                unreachable!()
            };
            let mut out = EmOut {
                ex: o0,
                ey: o1,
                ez: o2,
                bx: o3,
                by: o4,
                bz: o5,
            };
            Lanes::<8>::gather2::<Quadratic, f32>(&x, &z, &g, &f, &mut out);
        }
        // Unit field, partition of unity: every gathered value is 1.
        for c in &outs {
            for &v in c {
                assert!((v - 1.0).abs() < 1e-5);
            }
        }
    }
}
