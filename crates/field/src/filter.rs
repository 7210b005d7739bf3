//! Binomial (bilinear) current smoothing.
//!
//! Production laser–plasma PIC runs routinely apply one or more binomial
//! filter passes to the deposited current to damp grid-scale noise (and
//! the seeds of the numerical Cherenkov instability the paper's PSATD
//! extension targets). One pass convolves each real axis with the
//! (1/4, 1/2, 1/4) kernel, exactly removing the Nyquist mode.

use crate::fieldset::FieldSet;
use mrpic_amr::FabArray;

/// Points per register block of an x pass.
const XBLOCK: usize = 4;

/// Columns per rolling chunk of a y/z pass: the pre-pass values a chunk
/// of one row still needs live in fixed stack arrays, so a pass
/// allocates nothing.
const CHUNK: usize = 256;

/// One binomial pass along axis `d` over the valid region of every fab:
/// `v[p] = 0.25 v[p - s] + 0.5 v[p] + 0.25 v[p + s]` on the pre-pass
/// values. Guard values must be filled (call after `sum_boundary` + a
/// fill).
fn pass_axis(fa: &mut FabArray, d: usize) {
    for fab in fa.fabs_mut() {
        let vb = fab.valid_pts();
        let ix = fab.indexer();
        let data = fab.comp_mut(0);
        let w = (vb.hi.x - vb.lo.x) as usize;
        if d == 0 {
            // Along x: overwrite the row in blocks of `XBLOCK`, carrying
            // the pre-pass value left of each block in a register.
            for k in vb.lo.z..vb.hi.z {
                for j in vb.lo.y..vb.hi.y {
                    let row = ix.at(vb.lo.x, j, k);
                    let seg = &mut data[row - 1..row + w + 1];
                    let mut left = seg[0];
                    let mut i = 1;
                    while i + XBLOCK <= w + 1 {
                        let mut old = [0.0; XBLOCK + 2];
                        old[0] = left;
                        old[1..].copy_from_slice(&seg[i..i + XBLOCK + 1]);
                        for t in 0..XBLOCK {
                            seg[i + t] = 0.25 * old[t] + 0.5 * old[t + 1] + 0.25 * old[t + 2];
                        }
                        left = old[XBLOCK];
                        i += XBLOCK;
                    }
                    for i in i..=w {
                        let here = seg[i];
                        seg[i] = 0.25 * left + 0.5 * here + 0.25 * seg[i + 1];
                        left = here;
                    }
                }
            }
            continue;
        }
        // Along y or z: walk the filtered axis innermost, keeping the
        // pre-pass copy of the previous row (a row ahead is not yet
        // overwritten, a row behind is).
        let stride = if d == 1 { ix.nx } else { ix.nxy } as usize;
        let (outer, inner) = if d == 1 {
            (vb.lo.z..vb.hi.z, vb.lo.y..vb.hi.y)
        } else {
            (vb.lo.y..vb.hi.y, vb.lo.z..vb.hi.z)
        };
        let (mut prev, mut cur) = ([0.0; CHUNK], [0.0; CHUNK]);
        for o in outer {
            let first = if d == 1 {
                ix.at(vb.lo.x, inner.start, o)
            } else {
                ix.at(vb.lo.x, o, inner.start)
            };
            for c0 in (0..w).step_by(CHUNK) {
                let n = CHUNK.min(w - c0);
                let (mut before, mut here) = (&mut prev[..n], &mut cur[..n]);
                let start = first + c0;
                before.copy_from_slice(&data[start - stride..start - stride + n]);
                for r in 0..inner.end - inner.start {
                    let c = start + r as usize * stride;
                    here.copy_from_slice(&data[c..c + n]);
                    let (head, tail) = data.split_at_mut(c + stride);
                    let (row, next) = (&mut head[c..c + n], &tail[..n]);
                    for i in 0..n {
                        row[i] = 0.25 * before[i] + 0.5 * here[i] + 0.25 * next[i];
                    }
                    std::mem::swap(&mut before, &mut here);
                }
            }
        }
    }
}

/// Apply `passes` binomial passes to all three current components along
/// every real axis, refreshing guards between passes.
pub fn filter_current(fs: &mut FieldSet, passes: usize) {
    let period = fs.period;
    for _ in 0..passes {
        for c in 0..3 {
            for &d in fs.dim.axes() {
                // Guards must be fresh for every axis pass: an earlier
                // pass changed the values the neighbors provide.
                fs.j[c].fill_boundary(&period);
                pass_axis(&mut fs.j[c], d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fieldset::{Dim, GridGeom};
    use mrpic_amr::{BoxArray, IndexBox, IntVect, Periodicity};

    /// The pass as it was before the rolling rows: a snapshot of the
    /// whole fab per axis pass.
    fn reference_pass_axis(fa: &mut FabArray, d: usize, snapshot: &mut Vec<f64>) {
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

    /// The rolling-row pass stores exactly the bits of the whole-fab
    /// snapshot pass on every axis, for all three current staggers of
    /// 2-D and 3-D multi-box arrays whose rows are wider than one chunk
    /// and together hit every x-block remainder, with junk (heavy in signed zeros) in the guards; and
    /// a whole `filter_current` matches the reference sequence of passes.
    #[test]
    fn rolling_pass_matches_reference_bitwise() {
        let geom = GridGeom {
            dx: [1.0; 3],
            x0: [0.0; 3],
        };
        let mut remainders = [false; XBLOCK];
        for dim in [Dim::Two, Dim::Three] {
            let (n, max_box) = match dim {
                Dim::Two => (
                    IntVect::new(2 * CHUNK as i64 + 44, 1, 12),
                    IntVect::new(300, 1, 5),
                ),
                Dim::Three => (
                    IntVect::new(CHUNK as i64 + 20, 7, 6),
                    IntVect::new(400, 4, 6),
                ),
            };
            let dom = IndexBox::from_size(n);
            let ba = BoxArray::chop(dom, max_box);
            let per = Periodicity::new(dom, [true, false, false]);
            let mut base = FieldSet::new(dim, ba, geom, per, 2);
            for c in 0..3 {
                for f in base.j[c].fabs() {
                    remainders[(f.valid_pts().size().x as usize) % XBLOCK] = true;
                }
            }
            for c in 0..3 {
                crate::oracle::junk_fill(&mut base.j[c], 7 + c as u64);
            }
            let mut snapshot = Vec::new();
            for c in 0..3 {
                for &d in dim.axes() {
                    let (mut a, mut b) = (base.j[c].clone(), base.j[c].clone());
                    pass_axis(&mut a, d);
                    reference_pass_axis(&mut b, d, &mut snapshot);
                    crate::oracle::assert_bitwise(&a, &b, &format!("j[{c}] axis {d}"));
                }
            }
            let (mut a, mut b) = (base.clone(), base);
            filter_current(&mut a, 2);
            for _ in 0..2 {
                for c in 0..3 {
                    for &d in dim.axes() {
                        b.j[c].fill_boundary(&b.period);
                        reference_pass_axis(&mut b.j[c], d, &mut snapshot);
                    }
                }
            }
            for c in 0..3 {
                crate::oracle::assert_bitwise(&a.j[c], &b.j[c], &format!("filtered j[{c}]"));
            }
        }
        assert_eq!(
            remainders, [true; XBLOCK],
            "row widths must hit every x-block remainder"
        );
    }

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
