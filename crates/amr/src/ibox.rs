//! Half-open rectangular boxes of cells in index space.

use crate::ivec::IntVect;
use serde::{Deserialize, Serialize};

/// A rectangular region of cells `[lo, hi)` (hi exclusive) in index space.
///
/// An `IndexBox` always describes *cell* indices; point (nodal/staggered)
/// index ranges are derived from it via [`crate::Stagger::point_box`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IndexBox {
    pub lo: IntVect,
    pub hi: IntVect,
}

impl std::fmt::Debug for IndexBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?}..{:?})", self.lo, self.hi)
    }
}

impl IndexBox {
    /// Create a box from inclusive lower and exclusive upper corners.
    #[inline]
    pub fn new(lo: IntVect, hi: IntVect) -> Self {
        Self { lo, hi }
    }

    /// Box spanning `size` cells starting at the origin.
    #[inline]
    pub fn from_size(size: IntVect) -> Self {
        Self::new(IntVect::ZERO, size)
    }

    /// Cells extent per axis (zero-clamped so empty boxes report 0).
    #[inline]
    pub fn size(&self) -> IntVect {
        IntVect::new(
            (self.hi.x - self.lo.x).max(0),
            (self.hi.y - self.lo.y).max(0),
            (self.hi.z - self.lo.z).max(0),
        )
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> i64 {
        self.size().prod()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        !(self.lo.all_lt(self.hi))
    }

    #[inline]
    pub fn contains(&self, p: IntVect) -> bool {
        self.lo.all_le(p) && p.all_lt(self.hi)
    }

    /// True if `other` is entirely inside `self`.
    #[inline]
    pub fn contains_box(&self, other: &IndexBox) -> bool {
        other.is_empty() || (self.lo.all_le(other.lo) && other.hi.all_le(self.hi))
    }

    /// Intersection; `None` if the boxes do not overlap.
    #[inline]
    pub fn intersect(&self, other: &IndexBox) -> Option<IndexBox> {
        let b = IndexBox::new(self.lo.max(other.lo), self.hi.min(other.hi));
        (!b.is_empty()).then_some(b)
    }

    /// Smallest box containing both.
    #[inline]
    pub fn bounding(&self, other: &IndexBox) -> IndexBox {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        IndexBox::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Grow by `n` cells on every face (negative shrinks).
    #[inline]
    pub fn grow(&self, n: i64) -> IndexBox {
        self.grow_vec(IntVect::splat(n))
    }

    /// Grow by `n[d]` cells on both faces of axis `d`.
    #[inline]
    pub fn grow_vec(&self, n: IntVect) -> IndexBox {
        IndexBox::new(self.lo - n, self.hi + n)
    }

    /// Translate by `s` cells.
    #[inline]
    pub fn shift(&self, s: IntVect) -> IndexBox {
        IndexBox::new(self.lo + s, self.hi + s)
    }

    /// Refine by integer ratio `r` (each cell becomes `r^3` cells).
    #[inline]
    pub fn refine(&self, r: IntVect) -> IndexBox {
        IndexBox::new(self.lo * r, self.hi * r)
    }

    /// Coarsen by integer ratio `r`; covers every coarse cell that overlaps
    /// any fine cell of `self`.
    #[inline]
    pub fn coarsen(&self, r: IntVect) -> IndexBox {
        IndexBox::new(
            self.lo.coarsen(r),
            (self.hi - IntVect::ONE).coarsen(r) + IntVect::ONE,
        )
    }

    /// Iterate all cells, `x` fastest (matching fab memory layout).
    pub fn cells(&self) -> impl Iterator<Item = IntVect> + '_ {
        let b = *self;
        (b.lo.z..b.hi.z).flat_map(move |k| {
            (b.lo.y..b.hi.y).flat_map(move |j| (b.lo.x..b.hi.x).map(move |i| IntVect::new(i, j, k)))
        })
    }

    /// Subtract `other` from `self`, returning disjoint boxes covering
    /// `self \ other`.
    pub fn subtract(&self, other: &IndexBox) -> Vec<IndexBox> {
        let Some(ix) = self.intersect(other) else {
            return if self.is_empty() { vec![] } else { vec![*self] };
        };
        let mut out = Vec::new();
        let mut core = *self;
        for d in 0..3 {
            let mut lo_slab = core;
            lo_slab.hi[d] = ix.lo[d];
            if !lo_slab.is_empty() {
                out.push(lo_slab);
            }
            let mut hi_slab = core;
            hi_slab.lo[d] = ix.hi[d];
            if !hi_slab.is_empty() {
                out.push(hi_slab);
            }
            core.lo[d] = ix.lo[d];
            core.hi[d] = ix.hi[d];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: [i64; 3], hi: [i64; 3]) -> IndexBox {
        IndexBox::new(lo.into(), hi.into())
    }

    #[test]
    fn size_and_cells() {
        let bx = b([0, 0, 0], [2, 3, 4]);
        assert_eq!(bx.num_cells(), 24);
        assert_eq!(bx.cells().count(), 24);
        assert!(!bx.is_empty());
        assert!(b([0, 0, 0], [0, 3, 4]).is_empty());
        assert_eq!(b([3, 0, 0], [1, 1, 1]).num_cells(), 0);
    }

    #[test]
    fn containment() {
        let bx = b([0, 0, 0], [4, 4, 4]);
        assert!(bx.contains(IntVect::new(3, 3, 3)));
        assert!(!bx.contains(IntVect::new(4, 0, 0)));
        assert!(bx.contains_box(&b([1, 1, 1], [3, 3, 3])));
        assert!(!bx.contains_box(&b([1, 1, 1], [5, 3, 3])));
    }

    #[test]
    fn intersection() {
        let a = b([0, 0, 0], [4, 4, 4]);
        let c = b([2, 2, 2], [6, 6, 6]);
        assert_eq!(a.intersect(&c), Some(b([2, 2, 2], [4, 4, 4])));
        assert_eq!(a.intersect(&b([4, 0, 0], [5, 1, 1])), None);
    }

    #[test]
    fn refine_coarsen_roundtrip() {
        let bx = b([-2, 0, 3], [4, 2, 7]);
        let r = IntVect::splat(2);
        assert_eq!(bx.refine(r).coarsen(r), bx);
        // Coarsening covers partial coarse cells.
        assert_eq!(b([1, 1, 1], [3, 3, 3]).coarsen(r), b([0, 0, 0], [2, 2, 2]));
    }

    #[test]
    fn subtract_covers_difference() {
        let a = b([0, 0, 0], [4, 4, 4]);
        let c = b([1, 1, 1], [3, 3, 5]);
        let parts = a.subtract(&c);
        let total: i64 = parts.iter().map(|p| p.num_cells()).sum();
        assert_eq!(total, a.num_cells() - a.intersect(&c).unwrap().num_cells());
        for p in &parts {
            assert!(p.intersect(&c).is_none());
            assert!(a.contains_box(p));
        }
        // Disjoint from non-overlapping box -> identity.
        assert_eq!(a.subtract(&b([9, 9, 9], [10, 10, 10])), vec![a]);
    }

    #[test]
    fn grow_and_shift() {
        let bx = b([1, 1, 1], [2, 2, 2]);
        assert_eq!(bx.grow(1), b([0, 0, 0], [3, 3, 3]));
        assert_eq!(bx.shift(IntVect::new(1, 0, -1)), b([2, 1, 0], [3, 2, 1]));
        assert_eq!(bx.grow(1).grow(-1), bx);
    }
}
