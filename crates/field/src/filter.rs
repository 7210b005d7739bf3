//! Binomial (bilinear) current smoothing.
//!
//! Production laser–plasma PIC runs routinely apply one or more binomial
//! filter passes to the deposited current to damp grid-scale noise (and
//! the seeds of the numerical Cherenkov instability the paper's PSATD
//! extension targets). One pass convolves each real axis with the
//! (1/4, 1/2, 1/4) kernel, exactly removing the Nyquist mode.

use crate::fieldset::{Dim, FieldSet};
use mrpic_amr::FabArray;

/// One binomial pass along axis `d` over the valid region of every fab.
/// Guard values must be filled (call after `sum_boundary` + a fill).
/// `snapshot` is reused scratch for the pre-pass values.
fn pass_axis(fa: &mut FabArray, d: usize, snapshot: &mut Vec<f64>) {
    for fi in 0..fa.nfabs() {
        let fab = fa.fab_mut(fi);
        let vb = fab.valid_pts();
        let ix = fab.indexer();
        let stride = match d {
            0 => 1i64,
            1 => ix.nx,
            _ => ix.nxy,
        } as usize;
        let data = fab.comp_mut(0);
        // Work row-by-row so the original neighbor values are used
        // (snapshot one row at a time along the filtered axis).
        snapshot.clear();
        snapshot.extend_from_slice(data);
        for k in vb.lo.z..vb.hi.z {
            for j in vb.lo.y..vb.hi.y {
                let row = ix.at(vb.lo.x, j, k);
                for i in 0..(vb.hi.x - vb.lo.x) as usize {
                    let c = row + i;
                    data[c] = 0.25 * snapshot[c - stride]
                        + 0.5 * snapshot[c]
                        + 0.25 * snapshot[c + stride];
                }
            }
        }
    }
}

/// Apply `passes` binomial passes to all three current components along
/// every real axis, refreshing guards between passes.
pub fn filter_current(fs: &mut FieldSet, passes: usize) {
    if passes == 0 {
        return;
    }
    let period = fs.period;
    let axes: Vec<usize> = fs.dim.axes().to_vec();
    // Sized once for the largest fab, so no pass reallocates.
    let fabs = fs.j.iter().flat_map(FabArray::fabs);
    let mut snapshot = Vec::with_capacity(fabs.map(|f| f.comp(0).len()).max().unwrap_or(0));
    for _ in 0..passes {
        for c in 0..3 {
            for &d in &axes {
                // Guards must be fresh for every axis pass: an earlier
                // pass changed the values the neighbors provide.
                fs.j[c].fill_boundary(&period);
                pass_axis(&mut fs.j[c], d, &mut snapshot);
            }
        }
    }
    let _ = Dim::Two; // axes() handles dimensionality
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fieldset::GridGeom;
    use mrpic_amr::{BoxArray, IndexBox, IntVect, Periodicity};

    fn mk() -> FieldSet {
        let dom = IndexBox::from_size(IntVect::new(16, 1, 16));
        let ba = BoxArray::chop(dom, IntVect::new(8, 1, 16));
        FieldSet::new(
            Dim::Two,
            ba,
            GridGeom {
                dx: [1.0; 3],
                x0: [0.0; 3],
            },
            Periodicity::new(dom, [true, false, true]),
            2,
        )
    }

    #[test]
    fn constant_current_is_invariant() {
        let mut fs = mk();
        for c in 0..3 {
            fs.j[c].fill(3.0);
        }
        filter_current(&mut fs, 3);
        for c in 0..3 {
            let v = fs.j[c].at(0, IntVect::new(7, 0, 9)).unwrap();
            assert!((v - 3.0).abs() < 1e-12, "comp {c}: {v}");
        }
    }

    #[test]
    fn spike_spreads_binomially() {
        let mut fs = mk();
        // Jx is half in x: its points are never shared between boxes, so
        // a single set() defines the spike unambiguously.
        let p = IntVect::new(8, 0, 8);
        let owner = fs.j[0].boxarray().find_cell(p).unwrap();
        fs.j[0].fab_mut(owner).set(0, p, 16.0);
        filter_current(&mut fs, 1);
        // After one pass in x and z: center 16 * 0.5 * 0.5 = 4.
        assert!(
            (fs.j[0].at(0, p).unwrap() - 4.0).abs() < 1e-12,
            "{}",
            fs.j[0].at(0, p).unwrap()
        );
        // Face neighbor: 16 * 0.25 * 0.5 = 2.
        assert!((fs.j[0].at(0, IntVect::new(7, 0, 8)).unwrap() - 2.0).abs() < 1e-12);
        // Diagonal: 16 * 0.25 * 0.25 = 1.
        assert!((fs.j[0].at(0, IntVect::new(7, 0, 7)).unwrap() - 1.0).abs() < 1e-12);
        // Total is conserved.
        let total = fs.j[0].sum_comp(0);
        assert!((total - 16.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn nyquist_mode_is_annihilated() {
        let mut fs = mk();
        for fi in 0..fs.j[0].nfabs() {
            let vb = fs.j[0].fab(fi).valid_pts();
            let fab = fs.j[0].fab_mut(fi);
            for p in vb.cells().collect::<Vec<_>>() {
                fab.set(0, p, if p.x % 2 == 0 { 1.0 } else { -1.0 });
            }
        }
        filter_current(&mut fs, 1);
        let v = fs.j[0].max_abs(0);
        assert!(v < 1e-12, "Nyquist survived: {v}");
    }

    #[test]
    fn multibox_matches_singlebox() {
        let run = |nboxes: i64| {
            let dom = IndexBox::from_size(IntVect::new(16, 1, 8));
            let ba = BoxArray::chop(dom, IntVect::new(16 / nboxes, 1, 8));
            let mut fs = FieldSet::new(
                Dim::Two,
                ba,
                GridGeom {
                    dx: [1.0; 3],
                    x0: [0.0; 3],
                },
                Periodicity::new(dom, [true, false, true]),
                2,
            );
            for fi in 0..fs.j[1].nfabs() {
                let vb = fs.j[1].fab(fi).valid_pts();
                let fab = fs.j[1].fab_mut(fi);
                for p in vb.cells().collect::<Vec<_>>() {
                    fab.set(0, p, ((p.x * 13 + p.z * 7) as f64).sin());
                }
            }
            filter_current(&mut fs, 2);
            (0..16)
                .map(|i| fs.j[1].at(0, IntVect::new(i, 0, 4)).unwrap())
                .collect::<Vec<f64>>()
        };
        let a = run(1);
        let b = run(2);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
