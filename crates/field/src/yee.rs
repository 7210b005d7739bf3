//! Explicit leapfrog FDTD curl updates on the Yee lattice.
//!
//! The standard scheme (paper §IV recipe element (i)): B is advanced in
//! two half steps around the E advance,
//!
//! ```text
//! B^{n+1/2} = B^n     - dt/2 (curl E^n)
//! E^{n+1}   = E^n     + dt ( c^2 curl B^{n+1/2} - J^{n+1/2} / eps0 )
//! B^{n+1}   = B^{n+1/2} - dt/2 (curl E^{n+1})
//! ```
//!
//! Spatial derivatives are the natural staggered differences of the Yee
//! grid; guard cells must be filled before each advance (`fill_boundary`).

use crate::fieldset::{Dim, FieldSet};
use mrpic_amr::{Fab, FabArray, IntVect};
use mrpic_kernels::constants::{C2, EPS0};
use rayon::prelude::*;

/// One finite-difference term of a curl row:
/// `coef * (src[comp][p + op] - src[comp][p + om])`.
#[derive(Clone, Copy)]
struct Term {
    comp: usize,
    coef: f64,
    op: IntVect,
    om: IntVect,
}

const fn term(comp: usize, coef: f64, op: IntVect, om: IntVect) -> Term {
    Term { comp, coef, op, om }
}

const O: IntVect = IntVect::ZERO;
const X: IntVect = IntVect { x: 1, y: 0, z: 0 };
const Y: IntVect = IntVect { x: 0, y: 1, z: 0 };
const Z: IntVect = IntVect { x: 0, y: 0, z: 1 };
const MX: IntVect = IntVect { x: -1, y: 0, z: 0 };
const MY: IntVect = IntVect { x: 0, y: -1, z: 0 };
const MZ: IntVect = IntVect { x: 0, y: 0, z: -1 };

/// `dst[c][p] = ((dst[c][p] + t1) + t2) + jc * j[c][p]` over the valid
/// points of every fab of the three components, `t1`, `t2` being the
/// terms of `terms[c]` (one or two) evaluated on `src`. All (component,
/// fab) items run in one parallel region, one fused pass per row.
fn advance(
    dst: &mut [FabArray; 3],
    src: &[FabArray; 3],
    terms: [&[Term]; 3],
    j: Option<(&[FabArray; 3], f64)>,
) {
    let items: Vec<(usize, usize, &mut Fab)> = dst
        .iter_mut()
        .enumerate()
        .flat_map(|(c, fa)| {
            let fabs = fa.fabs_mut().iter_mut().enumerate();
            fabs.map(move |(fi, fab)| (c, fi, fab))
        })
        .collect();
    items.into_par_iter().for_each(|(c, fi, fab)| {
        let jc = j.map(|(ja, jc)| (ja[c].fab(fi), jc));
        advance_fab(fab, fi, src, terms[c], jc);
    });
}

/// The fused row update of one destination fab (see [`advance`]).
fn advance_fab(
    fab: &mut Fab,
    fi: usize,
    src: &[FabArray; 3],
    terms: &[Term],
    j: Option<(&Fab, f64)>,
) {
    let vb = fab.valid_pts();
    let dix = fab.indexer();
    let data = fab.comp_mut(0);
    let w = (vb.hi.x - vb.lo.x) as usize;
    // The `p + op` and `p + om` source rows of term `t` for row (jj, k).
    let rows = |t: &Term, jj: i64, k: i64| {
        let sfab = src[t.comp].fab(fi);
        let (ix, s) = (sfab.indexer(), sfab.comp(0));
        let p = ix.at(vb.lo.x + t.op.x, jj + t.op.y, k + t.op.z);
        let m = ix.at(vb.lo.x + t.om.x, jj + t.om.y, k + t.om.z);
        (&s[p..p + w], &s[m..m + w])
    };
    for k in vb.lo.z..vb.hi.z {
        for jj in vb.lo.y..vb.hi.y {
            let drow = dix.at(vb.lo.x, jj, k);
            let d = &mut data[drow..drow + w];
            let jrow = j.map(|(f, jc)| {
                let r = f.indexer().at(vb.lo.x, jj, k);
                (&f.comp(0)[r..r + w], jc)
            });
            match terms {
                [a] => fused_row(d, [rows(a, jj, k)], [a.coef], jrow),
                [a, b] => fused_row(d, [rows(a, jj, k), rows(b, jj, k)], [a.coef, b.coef], jrow),
                _ => unreachable!("a curl component has one or two terms"),
            }
        }
    }
}

/// `d[i] = ((d[i] + c0 (p0[i] - m0[i])) + c1 (p1[i] - m1[i])) + jc j[i]`
/// for `N` terms, in exactly this order (Rust never contracts it to FMA).
#[inline(always)]
fn fused_row<const N: usize>(
    d: &mut [f64],
    pm: [(&[f64], &[f64]); N],
    coef: [f64; N],
    j: Option<(&[f64], f64)>,
) {
    let w = d.len();
    let pm = pm.map(|(p, m)| (&p[..w], &m[..w]));
    let curl = |v: f64, i: usize| {
        let mut v = v;
        for n in 0..N {
            v += coef[n] * (pm[n].0[i] - pm[n].1[i]);
        }
        v
    };
    match j {
        None => {
            for i in 0..w {
                d[i] = curl(d[i], i);
            }
        }
        Some((jr, jc)) => {
            let jr = &jr[..w];
            for i in 0..w {
                d[i] = curl(d[i], i) + jc * jr[i];
            }
        }
    }
}

/// Advance B by `dt` (call with `dt/2` for the half steps).
/// Requires E guards to be filled.
pub fn advance_b(fs: &mut FieldSet, dt: f64) {
    let [dx, dy, dz] = fs.geom.dx;
    let (cx, cy, cz) = (dt / dx, dt / dy, dt / dz);
    let FieldSet { e, b, dim, .. } = fs;
    // dB/dt = -curl E (in 2-D d/dy = 0).
    let by = [term(0, -cz, Z, O), term(2, cx, X, O)];
    match dim {
        Dim::Three => {
            let bx = [term(2, -cy, Y, O), term(1, cz, Z, O)];
            let bz = [term(1, -cx, X, O), term(0, cy, Y, O)];
            advance(b, e, [&bx, &by, &bz], None);
        }
        Dim::Two => {
            let bx = [term(1, cz, Z, O)];
            let bz = [term(1, -cx, X, O)];
            advance(b, e, [&bx, &by, &bz], None);
        }
    }
}

/// Advance E by `dt` using B and the deposited current.
/// Requires B guards to be filled and J summed.
pub fn advance_e(fs: &mut FieldSet, dt: f64) {
    let [dx, dy, dz] = fs.geom.dx;
    let (cx, cy, cz) = (C2 * dt / dx, C2 * dt / dy, C2 * dt / dz);
    let jc = -dt / EPS0;
    let FieldSet { e, b, j, dim, .. } = fs;
    // dE/dt = c² curl B - J/eps0 (in 2-D d/dy = 0).
    let ey = [term(0, cz, O, MZ), term(2, -cx, O, MX)];
    match dim {
        Dim::Three => {
            let ex = [term(2, cy, O, MY), term(1, -cz, O, MZ)];
            let ez = [term(1, cx, O, MX), term(0, -cy, O, MY)];
            advance(e, b, [&ex, &ey, &ez], Some((j, jc)));
        }
        Dim::Two => {
            let ex = [term(1, -cz, O, MZ)];
            let ez = [term(1, cx, O, MX)];
            advance(e, b, [&ex, &ey, &ez], Some((j, jc)));
        }
    }
}

/// One full vacuum/field step (B half, E full, B half) with boundary
/// exchanges. The PIC driver interleaves deposition and PML stages
/// around these calls; this helper is for field-only tests and examples.
pub fn step_fields(fs: &mut FieldSet, dt: f64) {
    fs.fill_e_boundaries();
    advance_b(fs, 0.5 * dt);
    fs.fill_b_boundaries();
    advance_e(fs, dt);
    fs.fill_e_boundaries();
    advance_b(fs, 0.5 * dt);
    fs.fill_b_boundaries();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfl::max_dt;
    use crate::fieldset::GridGeom;
    use mrpic_amr::{BoxArray, IndexBox, Periodicity};
    use mrpic_kernels::constants::C;

    /// The Yee update as it was before the fused rows: one sweep of the
    /// fab per term, then one for J, one parallel region per component.
    mod reference {
        use super::super::{MX, MY, MZ, O, X, Y, Z};
        use crate::fieldset::{Dim, FieldSet};
        use mrpic_amr::{FabArray, IntVect};
        use mrpic_kernels::constants::{C2, EPS0};
        use rayon::prelude::*;

        struct Term<'a> {
            fa: &'a FabArray,
            coef: f64,
            op: IntVect,
            om: IntVect,
        }

        fn t(fa: &FabArray, coef: f64, op: IntVect, om: IntVect) -> Term<'_> {
            Term { fa, coef, op, om }
        }

        fn apply_terms(dst: &mut FabArray, terms: &[Term<'_>], j: Option<(&FabArray, f64)>) {
            dst.par_fabs_mut().for_each(|(fi, fab)| {
                let vb = fab.valid_pts();
                let dix = fab.indexer();
                let data = fab.comp_mut(0);
                let w = (vb.hi.x - vb.lo.x) as usize;
                for t in terms {
                    let sfab = t.fa.fab(fi);
                    let six = sfab.indexer();
                    let sdata = sfab.comp(0);
                    for k in vb.lo.z..vb.hi.z {
                        for jj in vb.lo.y..vb.hi.y {
                            let drow = dix.at(vb.lo.x, jj, k);
                            let prow = six.at(vb.lo.x + t.op.x, jj + t.op.y, k + t.op.z);
                            let mrow = six.at(vb.lo.x + t.om.x, jj + t.om.y, k + t.om.z);
                            for i in 0..w {
                                data[drow + i] += t.coef * (sdata[prow + i] - sdata[mrow + i]);
                            }
                        }
                    }
                }
                if let Some((jfa, jc)) = j {
                    let sfab = jfa.fab(fi);
                    let six = sfab.indexer();
                    let sdata = sfab.comp(0);
                    for k in vb.lo.z..vb.hi.z {
                        for jj in vb.lo.y..vb.hi.y {
                            let drow = dix.at(vb.lo.x, jj, k);
                            let srow = six.at(vb.lo.x, jj, k);
                            for i in 0..w {
                                data[drow + i] += jc * sdata[srow + i];
                            }
                        }
                    }
                }
            });
        }

        pub fn advance_b(fs: &mut FieldSet, dt: f64) {
            let [dx, dy, dz] = fs.geom.dx;
            let (cx, cy, cz) = (dt / dx, dt / dy, dt / dz);
            let dim = fs.dim;
            let FieldSet { e, b, .. } = fs;
            let [bx, by, bz] = b;
            match dim {
                Dim::Three => {
                    apply_terms(bx, &[t(&e[2], -cy, Y, O), t(&e[1], cz, Z, O)], None);
                    apply_terms(by, &[t(&e[0], -cz, Z, O), t(&e[2], cx, X, O)], None);
                    apply_terms(bz, &[t(&e[1], -cx, X, O), t(&e[0], cy, Y, O)], None);
                }
                Dim::Two => {
                    apply_terms(bx, &[t(&e[1], cz, Z, O)], None);
                    apply_terms(by, &[t(&e[0], -cz, Z, O), t(&e[2], cx, X, O)], None);
                    apply_terms(bz, &[t(&e[1], -cx, X, O)], None);
                }
            }
        }

        pub fn advance_e(fs: &mut FieldSet, dt: f64) {
            let [dx, dy, dz] = fs.geom.dx;
            let (cx, cy, cz) = (C2 * dt / dx, C2 * dt / dy, C2 * dt / dz);
            let jc = -dt / EPS0;
            let dim = fs.dim;
            let FieldSet { e, b, j, .. } = fs;
            let [ex, ey, ez] = e;
            match dim {
                Dim::Three => {
                    let (j0, j1, j2) = (Some((&j[0], jc)), Some((&j[1], jc)), Some((&j[2], jc)));
                    apply_terms(ex, &[t(&b[2], cy, O, MY), t(&b[1], -cz, O, MZ)], j0);
                    apply_terms(ey, &[t(&b[0], cz, O, MZ), t(&b[2], -cx, O, MX)], j1);
                    apply_terms(ez, &[t(&b[1], cx, O, MX), t(&b[0], -cy, O, MY)], j2);
                }
                Dim::Two => {
                    apply_terms(ex, &[t(&b[1], -cz, O, MZ)], Some((&j[0], jc)));
                    let ey_terms = [t(&b[0], cz, O, MZ), t(&b[2], -cx, O, MX)];
                    apply_terms(ey, &ey_terms, Some((&j[1], jc)));
                    apply_terms(ez, &[t(&b[1], cx, O, MX)], Some((&j[2], jc)));
                }
            }
        }
    }

    /// A multi-box field set whose every stored value (guards too) is
    /// junk heavy in signed zeros.
    fn junk_set(dim: Dim, seed: u64) -> FieldSet {
        let (dom, max_box, period) = match dim {
            Dim::Two => {
                let dom = IndexBox::from_size(IntVect::new(300, 1, 20));
                (dom, IntVect::new(128, 1, 8), [false, false, true])
            }
            Dim::Three => {
                let dom = IndexBox::from_size(IntVect::new(20, 12, 10));
                (dom, IntVect::new(8, 6, 10), [false, true, false])
            }
        };
        let geom = GridGeom {
            dx: [1.0e-7, 1.5e-7, 0.8e-7],
            x0: [0.0; 3],
        };
        let per = Periodicity::new(dom, period);
        let mut fs = FieldSet::new(dim, BoxArray::chop(dom, max_box), geom, per, 2);
        let mut n = seed;
        for c in 0..3 {
            for fa in [&mut fs.e[c], &mut fs.b[c], &mut fs.j[c]] {
                n += 1;
                crate::oracle::junk_fill(fa, n);
            }
        }
        fs
    }

    fn assert_sets_bitwise(a: &FieldSet, b: &FieldSet) {
        use crate::oracle::assert_bitwise;
        for c in 0..3 {
            assert_bitwise(&a.e[c], &b.e[c], &format!("e[{c}]"));
            assert_bitwise(&a.b[c], &b.b[c], &format!("b[{c}]"));
            assert_bitwise(&a.j[c], &b.j[c], &format!("j[{c}]"));
        }
    }

    /// The fused rows store exactly the bits of the per-term sweeps, in
    /// 2-D and 3-D over multi-box arrays, for a parent step and a
    /// subcycled patch step.
    #[test]
    fn fused_rows_match_reference_bitwise() {
        for (dim, seed) in [(Dim::Two, 1), (Dim::Three, 40)] {
            let base = junk_set(dim, seed);
            let dt = 0.5 * max_dt(dim, &base.geom.dx);
            // A parent step, then one of an rr = 2 subcycled patch.
            for step in [dt, dt / 2.0] {
                let (mut a, mut b) = (base.clone(), base.clone());
                advance_b(&mut a, 0.5 * step);
                reference::advance_b(&mut b, 0.5 * step);
                assert_sets_bitwise(&a, &b);
                advance_e(&mut a, step);
                reference::advance_e(&mut b, step);
                assert_sets_bitwise(&a, &b);
            }
        }
    }

    fn wave_setup(nboxes: i64) -> FieldSet {
        // Periodic 3-D domain, plane wave along x: Ey = sin(kx), Bz = Ey/c.
        let n = 64i64;
        let dom = IndexBox::from_size(IntVect::new(n, 4, 4));
        let ba = BoxArray::chop(dom, IntVect::new(n / nboxes, 4, 4));
        let dx = 1.0e-6;
        let geom = GridGeom {
            dx: [dx; 3],
            x0: [0.0; 3],
        };
        let mut fs = FieldSet::new(Dim::Three, ba, geom, Periodicity::all(dom), 2);
        let k = 2.0 * std::f64::consts::PI / (n as f64 * dx); // one period in box
        let dt = 0.5 * max_dt(Dim::Three, &[dx; 3]);
        for fi in 0..fs.nfabs() {
            let vb = fs.e[1].fab(fi).valid_pts();
            for p in vb.cells().collect::<Vec<_>>() {
                let x = p.x as f64 * dx;
                fs.e[1].fab_mut(fi).set(0, p, (k * x).sin());
            }
            let vb = fs.b[2].fab(fi).valid_pts();
            for p in vb.cells().collect::<Vec<_>>() {
                // Bz at (i+1/2); init at t = -dt/2 for leapfrog centering.
                let x = (p.x as f64 + 0.5) * dx;
                fs.b[2]
                    .fab_mut(fi)
                    .set(0, p, ((k * (x + C * dt / 2.0)).sin()) / C);
            }
        }
        fs
    }

    #[test]
    fn plane_wave_round_trip() {
        let mut fs = wave_setup(1);
        let n = 64.0;
        let dx = 1.0e-6;
        let dt = 0.5 * max_dt(Dim::Three, &[dx; 3]);
        // One full period: wave crosses the periodic box exactly once.
        let steps = (n * dx / (C * dt)).round() as usize;
        let before: Vec<f64> = (0..64)
            .map(|i| fs.e[1].at(0, IntVect::new(i, 2, 2)).unwrap())
            .collect();
        for _ in 0..steps {
            step_fields(&mut fs, dt);
        }
        let after: Vec<f64> = (0..64)
            .map(|i| fs.e[1].at(0, IntVect::new(i, 2, 2)).unwrap())
            .collect();
        let err: f64 = before
            .iter()
            .zip(&after)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
            / (before.iter().map(|a| a * a).sum::<f64>()).sqrt();
        assert!(err < 0.05, "round-trip error {err}");
    }

    #[test]
    fn multi_box_matches_single_box() {
        let mut a = wave_setup(1);
        let mut b = wave_setup(4);
        let dt = 0.5 * max_dt(Dim::Three, &[1.0e-6; 3]);
        for _ in 0..20 {
            step_fields(&mut a, dt);
            step_fields(&mut b, dt);
        }
        for i in 0..64 {
            let p = IntVect::new(i, 2, 2);
            let (va, vb) = (a.e[1].at(0, p).unwrap(), b.e[1].at(0, p).unwrap());
            assert!(
                (va - vb).abs() <= 1e-12 * va.abs().max(1.0),
                "mismatch at {i}: {va} vs {vb}"
            );
        }
    }

    #[test]
    fn vacuum_energy_stays_bounded() {
        let mut fs = wave_setup(2);
        let dt = 0.5 * max_dt(Dim::Three, &[1.0e-6; 3]);
        let e0 = crate::energy::field_energy(&fs);
        assert!(e0 > 0.0);
        for _ in 0..200 {
            step_fields(&mut fs, dt);
        }
        let e1 = crate::energy::field_energy(&fs);
        assert!((e1 - e0).abs() < 0.02 * e0, "energy drift: {e0} -> {e1}");
    }

    #[test]
    fn pulse_propagates_at_c_in_2d() {
        // Gaussian Ey/Bz pulse in a 2-D domain moving +x.
        let n = 256i64;
        let dom = IndexBox::from_size(IntVect::new(n, 1, 8));
        let ba = BoxArray::single(dom);
        let dx = 1.0e-6;
        let geom = GridGeom {
            dx: [dx; 3],
            x0: [0.0; 3],
        };
        let per = Periodicity::new(dom, [true, false, true]);
        let mut fs = FieldSet::new(Dim::Two, ba, geom, per, 2);
        let x0 = 50.0 * dx;
        let sig = 8.0 * dx;
        let dt = 0.7 * max_dt(Dim::Two, &[dx; 3]);
        let pulse = |x: f64| (-(x - x0) * (x - x0) / (2.0 * sig * sig)).exp();
        for fi in 0..fs.nfabs() {
            let vb = fs.e[1].fab(fi).valid_pts();
            for p in vb.cells().collect::<Vec<_>>() {
                fs.e[1].fab_mut(fi).set(0, p, pulse(p.x as f64 * dx));
            }
            let vb = fs.b[2].fab(fi).valid_pts();
            for p in vb.cells().collect::<Vec<_>>() {
                let x = (p.x as f64 + 0.5) * dx + C * dt / 2.0;
                fs.b[2].fab_mut(fi).set(0, p, pulse(x) / C);
            }
        }
        let steps = 100usize;
        for _ in 0..steps {
            step_fields(&mut fs, dt);
        }
        // Energy-weighted centroid of Ey^2 along x.
        let (mut num, mut den) = (0.0, 0.0);
        for i in 0..n {
            let v = fs.e[1].at(0, IntVect::new(i, 0, 4)).unwrap();
            num += (i as f64 * dx) * v * v;
            den += v * v;
        }
        let centroid = num / den;
        let expected = x0 + C * dt * steps as f64;
        assert!(
            (centroid - expected).abs() < 2.0 * dx,
            "centroid {centroid:e} vs {expected:e}"
        );
    }
}
