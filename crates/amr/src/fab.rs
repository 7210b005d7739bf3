//! `Fab`: a multi-component array of doubles over one box (with guards).

use crate::{ibox::IndexBox, ivec::IntVect, stagger::Stagger};
use serde::{Deserialize, Serialize};

/// Field data on a single box: `ncomp` components over the staggered
/// points of the box grown by `ngrow` guard cells.
///
/// Memory layout is component-major with `x` fastest:
/// `data[((c*nz + k)*ny + j)*nx + i]`, indices relative to the grown point
/// box lower corner.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fab {
    cells: IndexBox,
    stagger: Stagger,
    ngrow: IntVect,
    ncomp: usize,
    /// Point box including guards.
    pbox: IndexBox,
    data: Vec<f64>,
}

/// Precomputed strides for fast linear indexing into a [`Fab`].
#[derive(Clone, Copy, Debug)]
pub struct FabIndexer {
    pub lo: IntVect,
    pub nx: i64,
    pub nxy: i64,
}

impl FabIndexer {
    /// Linear index of point `(i, j, k)` within one component.
    #[inline(always)]
    pub fn at(&self, i: i64, j: i64, k: i64) -> usize {
        debug_assert!(i >= self.lo.x && j >= self.lo.y && k >= self.lo.z);
        ((k - self.lo.z) * self.nxy + (j - self.lo.y) * self.nx + (i - self.lo.x)) as usize
    }
}

impl Fab {
    /// Allocate a zero-initialized fab with uniform guard width.
    pub fn new(cells: IndexBox, stagger: Stagger, ncomp: usize, ngrow: i64) -> Self {
        Self::new_vec(cells, stagger, ncomp, IntVect::splat(ngrow))
    }

    /// Allocate with per-axis guard widths (2-D runs use zero y guards so
    /// the collapsed axis stays a single plane).
    pub fn new_vec(cells: IndexBox, stagger: Stagger, ncomp: usize, ngrow: IntVect) -> Self {
        assert!(ncomp >= 1 && IntVect::ZERO.all_le(ngrow) && !cells.is_empty());
        let pbox = stagger.point_box(&cells.grow_vec(ngrow));
        let n = (pbox.num_cells() as usize) * ncomp;
        Self {
            cells,
            stagger,
            ngrow,
            ncomp,
            pbox,
            data: vec![0.0; n],
        }
    }

    #[inline]
    pub fn cells(&self) -> IndexBox {
        self.cells
    }

    #[inline]
    pub fn stagger(&self) -> Stagger {
        self.stagger
    }

    #[inline]
    pub fn ngrow(&self) -> IntVect {
        self.ngrow
    }

    #[inline]
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Point box including guard cells.
    #[inline]
    pub fn grown_pts(&self) -> IndexBox {
        self.pbox
    }

    /// Point box of the valid (non-guard) region.
    #[inline]
    pub fn valid_pts(&self) -> IndexBox {
        self.stagger.point_box(&self.cells)
    }

    /// Strides/origin for fast indexing.
    #[inline]
    pub fn indexer(&self) -> FabIndexer {
        let s = self.pbox.size();
        FabIndexer {
            lo: self.pbox.lo,
            nx: s.x,
            nxy: s.x * s.y,
        }
    }

    #[inline]
    fn comp_len(&self) -> usize {
        self.pbox.num_cells() as usize
    }

    /// One component as a flat slice (grown point box).
    #[inline]
    pub fn comp(&self, c: usize) -> &[f64] {
        let n = self.comp_len();
        &self.data[c * n..(c + 1) * n]
    }

    #[inline]
    pub fn comp_mut(&mut self, c: usize) -> &mut [f64] {
        let n = self.comp_len();
        &mut self.data[c * n..(c + 1) * n]
    }

    /// Two distinct components mutably (e.g. split-PML pairs).
    pub fn comp2_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(a, b);
        let n = self.comp_len();
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * n);
        let first = &mut head[lo * n..(lo + 1) * n];
        let second = &mut tail[..n];
        if a < b {
            (first, second)
        } else {
            (second, first)
        }
    }

    #[inline]
    pub fn get(&self, c: usize, p: IntVect) -> f64 {
        let ix = self.indexer();
        self.comp(c)[ix.at(p.x, p.y, p.z)]
    }

    #[inline]
    pub fn set(&mut self, c: usize, p: IntVect, v: f64) {
        let ix = self.indexer();
        self.comp_mut(c)[ix.at(p.x, p.y, p.z)] = v;
    }

    #[inline]
    pub fn add(&mut self, c: usize, p: IntVect, v: f64) {
        let ix = self.indexer();
        self.comp_mut(c)[ix.at(p.x, p.y, p.z)] += v;
    }

    /// Set every value (all components, including guards).
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Zero a point-region of one component.
    pub fn zero_region(&mut self, c: usize, region: &IndexBox) {
        self.apply_region(c, region, |_| 0.0);
    }

    /// Apply `f(old) -> new` over the intersection of `region` (point
    /// indices) with this fab's grown point box.
    pub fn apply_region(&mut self, c: usize, region: &IndexBox, f: impl Fn(f64) -> f64) {
        let Some(r) = region.intersect(&self.pbox) else {
            return;
        };
        let ix = self.indexer();
        let comp = self.comp_mut(c);
        for k in r.lo.z..r.hi.z {
            for j in r.lo.y..r.hi.y {
                let row = ix.at(r.lo.x, j, k);
                for (off, v) in comp[row..row + (r.hi.x - r.lo.x) as usize]
                    .iter_mut()
                    .enumerate()
                {
                    let _ = off;
                    *v = f(*v);
                }
            }
        }
    }

    /// Copy `region` (point indices) of component `src_c` of `src`,
    /// shifted by `shift`, into component `dst_c` of `self`.
    ///
    /// `region` refers to *source* point indices; destination points are
    /// `p + shift`. Regions outside either fab are clipped.
    pub fn copy_region_from(
        &mut self,
        src: &Fab,
        region: &IndexBox,
        shift: IntVect,
        src_c: usize,
        dst_c: usize,
    ) {
        self.blend_region_from(src, region, shift, src_c, dst_c, |_, s| s);
    }

    /// Add `region` of `src` into `self` (same clipping rules as
    /// [`Self::copy_region_from`]).
    pub fn add_region_from(
        &mut self,
        src: &Fab,
        region: &IndexBox,
        shift: IntVect,
        src_c: usize,
        dst_c: usize,
    ) {
        self.blend_region_from(src, region, shift, src_c, dst_c, |d, s| d + s);
    }

    /// General region blend: `dst = f(dst, src)` over the clipped region.
    pub fn blend_region_from(
        &mut self,
        src: &Fab,
        region: &IndexBox,
        shift: IntVect,
        src_c: usize,
        dst_c: usize,
        f: impl Fn(f64, f64) -> f64,
    ) {
        let Some(r) = region.intersect(&src.pbox).and_then(|r| {
            r.shift(shift)
                .intersect(&self.pbox)
                .map(|d| d.shift(-shift))
        }) else {
            return;
        };
        let six = src.indexer();
        let dix = self.indexer();
        let scomp = src.comp(src_c);
        let dcomp = self.comp_mut(dst_c);
        let w = (r.hi.x - r.lo.x) as usize;
        for k in r.lo.z..r.hi.z {
            for j in r.lo.y..r.hi.y {
                let so = six.at(r.lo.x, j, k);
                let po = dix.at(r.lo.x + shift.x, j + shift.y, k + shift.z);
                for t in 0..w {
                    dcomp[po + t] = f(dcomp[po + t], scomp[so + t]);
                }
            }
        }
    }

    /// Sum of one component over a point region (clipped).
    pub fn sum_region(&self, c: usize, region: &IndexBox) -> f64 {
        let Some(r) = region.intersect(&self.pbox) else {
            return 0.0;
        };
        let ix = self.indexer();
        let comp = self.comp(c);
        let mut acc = 0.0;
        for k in r.lo.z..r.hi.z {
            for j in r.lo.y..r.hi.y {
                let row = ix.at(r.lo.x, j, k);
                acc += comp[row..row + (r.hi.x - r.lo.x) as usize]
                    .iter()
                    .sum::<f64>();
            }
        }
        acc
    }

    /// Max |v| of one component over a point region (clipped).
    pub fn max_abs_region(&self, c: usize, region: &IndexBox) -> f64 {
        let Some(r) = region.intersect(&self.pbox) else {
            return 0.0;
        };
        let ix = self.indexer();
        let comp = self.comp(c);
        let mut acc = 0.0f64;
        for k in r.lo.z..r.hi.z {
            for j in r.lo.y..r.hi.y {
                let row = ix.at(r.lo.x, j, k);
                for v in &comp[row..row + (r.hi.x - r.lo.x) as usize] {
                    acc = acc.max(v.abs());
                }
            }
        }
        acc
    }

    /// Shift the data of every component by `s` points (used by the moving
    /// window): destination point `p` takes the value previously at
    /// `p + s`; points with no source are zeroed. Runs in place.
    pub fn shift_data(&mut self, s: IntVect) {
        if s == IntVect::ZERO {
            return;
        }
        let keep = self.pbox.intersect(&self.pbox.shift(-s));
        self.shift_keep(s, keep);
    }

    /// In-place shift of every component by `s` points: each point `p` of
    /// `keep` takes the value previously at `p + s`, and every other
    /// stored point (guards included) becomes `0.0`. `keep` and
    /// `keep + s` must lie inside the grown point box, so the move is one
    /// `copy_within` per component by the linear offset of `s`.
    pub(crate) fn shift_keep(&mut self, s: IntVect, keep: Option<IndexBox>) {
        let Some(k) = keep else {
            self.data.fill(0.0);
            return;
        };
        debug_assert!(self.pbox.contains_box(&k) && self.pbox.contains_box(&k.shift(s)));
        let ix = self.indexer();
        let first = ix.at(k.lo.x, k.lo.y, k.lo.z);
        let from = ix.at(k.lo.x + s.x, k.lo.y + s.y, k.lo.z + s.z);
        let len = ix.at(k.hi.x - 1, k.hi.y - 1, k.hi.z - 1) + 1 - first;
        let w = (k.hi.x - k.lo.x) as usize;
        for c in 0..self.ncomp {
            let comp = self.comp_mut(c);
            comp.copy_within(from..from + len, first);
            // Zero the gaps between `keep`'s rows in linear order: the
            // memmove carried wrapped or out-of-`keep` values there.
            let mut next = 0;
            for kz in k.lo.z..k.hi.z {
                for j in k.lo.y..k.hi.y {
                    let row = ix.at(k.lo.x, j, kz);
                    comp[next..row].fill(0.0);
                    next = row + w;
                }
            }
            comp[next..].fill(0.0);
        }
    }

    /// Raw storage (testing/diagnostics).
    #[inline]
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Bytes of payload (for communication accounting).
    #[inline]
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
impl Fab {
    /// The pre-in-place `shift_data` body (a fresh zeroed copy per
    /// component), kept as the bitwise oracle.
    pub(crate) fn shift_data_oracle(&mut self, s: IntVect) {
        if s == IntVect::ZERO {
            return;
        }
        let n = self.comp_len();
        let ix = self.indexer();
        let pb = self.pbox;
        let mut fresh = vec![0.0; n];
        for c in 0..self.ncomp {
            fresh.fill(0.0);
            let comp = self.comp(c);
            // Source range: p + s must be inside pbox.
            let src_valid = pb.shift(-s).intersect(&pb);
            if let Some(r) = src_valid {
                for k in r.lo.z..r.hi.z {
                    for j in r.lo.y..r.hi.y {
                        let dst_row = ix.at(r.lo.x, j, k);
                        let src_row = ix.at(r.lo.x + s.x, j + s.y, k + s.z);
                        let w = (r.hi.x - r.lo.x) as usize;
                        fresh[dst_row..dst_row + w].copy_from_slice(&comp[src_row..src_row + w]);
                    }
                }
            }
            self.comp_mut(c).copy_from_slice(&fresh);
        }
    }

    /// Deterministic data over every stored point (guards included),
    /// with plenty of `+0.0` / `-0.0` entries.
    pub(crate) fn scramble(&mut self, mut seed: u64) {
        for v in &mut self.data {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = match seed >> 61 {
                0 => 0.0,
                1 => -0.0,
                _ => (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> Fab {
        Fab::new(
            IndexBox::from_size(IntVect::new(4, 3, 2)),
            Stagger::NODAL,
            2,
            1,
        )
    }

    #[test]
    fn sizes() {
        let f = mk();
        // grown cells 6x5x4, nodal -> 7x6x5 points, 2 comps
        assert_eq!(f.grown_pts().num_cells(), 7 * 6 * 5);
        assert_eq!(f.raw().len(), 2 * 7 * 6 * 5);
        assert_eq!(f.valid_pts().num_cells(), 5 * 4 * 3);
        assert_eq!(f.bytes(), 8 * 2 * 7 * 6 * 5);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut f = mk();
        let p = IntVect::new(2, 1, 0);
        f.set(1, p, 3.5);
        assert_eq!(f.get(1, p), 3.5);
        assert_eq!(f.get(0, p), 0.0);
        f.add(1, p, 1.5);
        assert_eq!(f.get(1, p), 5.0);
        // Guard points are addressable.
        let g = IntVect::new(-1, -1, -1);
        f.set(0, g, 2.0);
        assert_eq!(f.get(0, g), 2.0);
    }

    #[test]
    fn copy_and_add_regions() {
        let mut a = mk();
        let mut b = mk();
        b.fill(1.0);
        let r = IndexBox::new(IntVect::ZERO, IntVect::new(2, 2, 2));
        a.copy_region_from(&b, &r, IntVect::ZERO, 0, 0);
        assert_eq!(a.sum_region(0, &r), 8.0);
        a.add_region_from(&b, &r, IntVect::ZERO, 0, 0);
        assert_eq!(a.sum_region(0, &r), 16.0);
        // Shifted copy into component 1.
        b.set(1, IntVect::new(0, 0, 0), 7.0);
        a.copy_region_from(&b, &r, IntVect::new(1, 0, 0), 1, 1);
        assert_eq!(a.get(1, IntVect::new(1, 0, 0)), 7.0);
    }

    #[test]
    fn clipping_out_of_range_is_safe() {
        let mut a = mk();
        let b = mk();
        let far = IndexBox::new(IntVect::splat(100), IntVect::splat(110));
        a.copy_region_from(&b, &far, IntVect::ZERO, 0, 0);
        assert_eq!(a.sum_region(0, &a.grown_pts().clone()), 0.0);
    }

    #[test]
    fn shift_data_moves_and_zeroes() {
        let mut f = mk();
        f.set(0, IntVect::new(3, 1, 1), 9.0);
        // Window moves +x by 1: value slides to x=2.
        f.shift_data(IntVect::new(1, 0, 0));
        assert_eq!(f.get(0, IntVect::new(2, 1, 1)), 9.0);
        assert_eq!(f.get(0, IntVect::new(3, 1, 1)), 0.0);
        // The newly exposed high-x guard plane is zero.
        assert_eq!(f.get(0, IntVect::new(5, 1, 1)), 0.0);
    }

    fn bits(f: &Fab) -> Vec<u64> {
        f.raw().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn shift_data_matches_oracle_bitwise() {
        let cases = [
            (IntVect::new(6, 1, 5), IntVect::new(2, 0, 2)),
            (IntVect::new(5, 4, 3), IntVect::new(2, 1, 2)),
        ];
        let mut seed = 7;
        for (size, ngrow) in cases {
            for stagger in [Stagger::CELL, Stagger::NODAL, Stagger::EX, Stagger::BZ] {
                let cells = IndexBox::new(IntVect::new(3, 0, -2), IntVect::new(3, 0, -2) + size);
                let mut shifts = vec![IntVect::new(40, 0, 0), IntVect::new(-3, 0, -17)];
                for d in 0..3 {
                    for m in [-2, -1, 1, 2] {
                        let mut s = IntVect::ZERO;
                        s[d] = m;
                        shifts.push(s);
                    }
                }
                shifts.push(IntVect::new(1, 0, -2));
                for s in shifts {
                    let mut a = Fab::new_vec(cells, stagger, 2, ngrow);
                    seed += 1;
                    a.scramble(seed);
                    let mut b = a.clone();
                    a.shift_data(s);
                    b.shift_data_oracle(s);
                    assert_eq!(bits(&a), bits(&b), "{stagger:?} size {size:?} s {s:?}");
                    // A second shift on the moved data.
                    a.shift_data(-s);
                    b.shift_data_oracle(-s);
                    assert_eq!(bits(&a), bits(&b), "{stagger:?} size {size:?} -s {s:?}");
                }
            }
        }
    }

    #[test]
    fn comp2_mut_disjoint() {
        let mut f = mk();
        {
            let (c0, c1) = f.comp2_mut(0, 1);
            c0[0] = 1.0;
            c1[0] = 2.0;
        }
        assert_eq!(f.comp(0)[0], 1.0);
        assert_eq!(f.comp(1)[0], 2.0);
        let (c1, c0) = f.comp2_mut(1, 0);
        assert_eq!(c1[0], 2.0);
        assert_eq!(c0[0], 1.0);
    }

    #[test]
    fn apply_region_and_norms() {
        let mut f = mk();
        let r = IndexBox::new(IntVect::ZERO, IntVect::new(2, 1, 1));
        f.apply_region(0, &r, |_| -4.0);
        assert_eq!(f.max_abs_region(0, &f.grown_pts().clone()), 4.0);
        assert_eq!(f.sum_region(0, &r), -8.0);
        f.zero_region(0, &r);
        assert_eq!(f.sum_region(0, &r), 0.0);
    }
}
