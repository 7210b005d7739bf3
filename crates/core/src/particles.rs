//! Structure-of-arrays particle storage with per-box tiles.
//!
//! Particles live in one [`ParticleBuf`] per mesh box (the "tiles" of the
//! paper's §V-A memory-locality optimizations). [`ParticleContainer`]
//! owns the per-box bufs of one species and implements redistribution
//! (moving particles whose positions left their box, with periodic wraps
//! and absorbing deletions) and cell sorting for deposition locality.

use mrpic_amr::{BoxArray, IndexBox, IntVect, Periodicity};
use mrpic_field::fieldset::GridGeom;
use serde::{Deserialize, Serialize};

/// One particle's full state tuple `(x, y, z, ux, uy, uz, w)`.
pub type ParticleTuple = (f64, f64, f64, f64, f64, f64, f64);

/// SoA storage of one tile. `u = gamma v` in m/s; `w` is the number of
/// physical particles per macroparticle.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ParticleBuf {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub z: Vec<f64>,
    pub ux: Vec<f64>,
    pub uy: Vec<f64>,
    pub uz: Vec<f64>,
    pub w: Vec<f64>,
}

impl ParticleBuf {
    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    pub fn clear(&mut self) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.ux.clear();
        self.uy.clear();
        self.uz.clear();
        self.w.clear();
    }

    pub fn reserve(&mut self, n: usize) {
        self.x.reserve(n);
        self.y.reserve(n);
        self.z.reserve(n);
        self.ux.reserve(n);
        self.uy.reserve(n);
        self.uz.reserve(n);
        self.w.reserve(n);
    }

    #[allow(clippy::too_many_arguments)]
    pub fn push(&mut self, x: f64, y: f64, z: f64, ux: f64, uy: f64, uz: f64, w: f64) {
        self.x.push(x);
        self.y.push(y);
        self.z.push(z);
        self.ux.push(ux);
        self.uy.push(uy);
        self.uz.push(uz);
        self.w.push(w);
    }

    /// Move particle `i` out (swap-remove all arrays), returning it.
    pub fn swap_remove(&mut self, i: usize) -> ParticleTuple {
        (
            self.x.swap_remove(i),
            self.y.swap_remove(i),
            self.z.swap_remove(i),
            self.ux.swap_remove(i),
            self.uy.swap_remove(i),
            self.uz.swap_remove(i),
            self.w.swap_remove(i),
        )
    }

    /// Append one tuple.
    pub fn push_tuple(&mut self, p: ParticleTuple) {
        self.push(p.0, p.1, p.2, p.3, p.4, p.5, p.6);
    }

    /// Stable three-way partition by two nested predicates:
    /// `[p1 && p2 | p1 && !p2 | !p1]`. Returns the two pivots.
    /// (`p2` is only evaluated where `p1` holds.) An already partitioned
    /// buffer — the steady state, since particles rarely cross a class
    /// boundary in one step — is left untouched without allocating.
    pub fn partition3(
        &mut self,
        p1: impl Fn(f64, f64, f64) -> bool,
        p2: impl Fn(f64, f64, f64) -> bool,
    ) -> (usize, usize) {
        let n = self.len();
        let class = |i: usize| -> u8 {
            let (x, y, z) = (self.x[i], self.y[i], self.z[i]);
            if p1(x, y, z) {
                if p2(x, y, z) {
                    0
                } else {
                    1
                }
            } else {
                2
            }
        };
        // Fast path: a non-decreasing class sequence is its own stable
        // partition, so only the pivots are needed.
        let mut counts = [0usize; 3];
        let mut prev = 0u8;
        let sorted = (0..n).all(|i| {
            let c = class(i);
            counts[c as usize] += 1;
            let ok = c >= prev;
            prev = c;
            ok
        });
        if sorted {
            return (counts[0], counts[0] + counts[1]);
        }
        let order: Vec<u8> = (0..n).map(class).collect();
        let c0 = order.iter().filter(|&&c| c == 0).count();
        let c1 = order.iter().filter(|&&c| c == 1).count();
        let mut dst = [0usize, c0, c0 + c1];
        let mut perm = vec![0usize; n];
        for (i, &c) in order.iter().enumerate() {
            perm[dst[c as usize]] = i;
            dst[c as usize] += 1;
        }
        self.apply_permutation(&perm);
        (c0, c0 + c1)
    }

    /// Reorder all arrays so position `k` takes the old element `perm[k]`.
    pub fn apply_permutation(&mut self, perm: &[usize]) {
        fn permute(v: &mut Vec<f64>, perm: &[usize]) {
            let old = std::mem::take(v);
            v.extend(perm.iter().map(|&i| old[i]));
        }
        permute(&mut self.x, perm);
        permute(&mut self.y, perm);
        permute(&mut self.z, perm);
        permute(&mut self.ux, perm);
        permute(&mut self.uy, perm);
        permute(&mut self.uz, perm);
        permute(&mut self.w, perm);
    }

    /// Sort by cell index (z-major, then x) for deposition locality.
    pub fn sort_by_cell(&mut self, geom: &GridGeom) {
        let n = self.len();
        let mut keys: Vec<(i64, i64, usize)> = (0..n)
            .map(|i| (geom.cell_of(2, self.z[i]), geom.cell_of(0, self.x[i]), i))
            .collect();
        keys.sort_unstable();
        let perm: Vec<usize> = keys.into_iter().map(|(_, _, i)| i).collect();
        self.apply_permutation(&perm);
    }

    /// Total weight (physical particles).
    pub fn total_weight(&self) -> f64 {
        self.w.iter().sum()
    }
}

/// Scan one box's buffer for particles that left it: apply periodic
/// wraps, delete particles off a non-periodic domain edge or the box
/// union, and hand every surviving out-of-box particle (position already
/// wrapped) to `route(owner, tuple)` in scan order. Returns the number
/// deleted. This is the single source of truth for the migration scan —
/// the serial `redistribute` and the distributed runtime both use it, so
/// their per-buffer visit order (and therefore the bitwise result) is
/// identical.
pub fn scan_box_moves(
    buf: &mut ParticleBuf,
    my_box: &IndexBox,
    ba: &BoxArray,
    geom: &GridGeom,
    period: &Periodicity,
    mut route: impl FnMut(usize, ParticleTuple),
) -> usize {
    let dom = period.domain;
    let phys_lo = [
        geom.node(0, dom.lo.x),
        geom.node(1, dom.lo.y),
        geom.node(2, dom.lo.z),
    ];
    let phys_hi = [
        geom.node(0, dom.hi.x),
        geom.node(1, dom.hi.y),
        geom.node(2, dom.hi.z),
    ];
    let mut deleted = 0usize;
    let mut i = 0;
    while i < buf.len() {
        let mut pos = [buf.x[i], buf.y[i], buf.z[i]];
        // Periodic wrap / out-of-domain detection.
        let mut alive = true;
        for d in 0..3 {
            let len = phys_hi[d] - phys_lo[d];
            if period.periodic[d] {
                while pos[d] < phys_lo[d] {
                    pos[d] += len;
                }
                while pos[d] >= phys_hi[d] {
                    pos[d] -= len;
                }
            } else if pos[d] < phys_lo[d] || pos[d] >= phys_hi[d] {
                alive = false;
            }
        }
        if !alive {
            buf.swap_remove(i);
            deleted += 1;
            continue;
        }
        let cell = IntVect::new(
            geom.cell_of(0, pos[0]),
            geom.cell_of(1, pos[1]),
            geom.cell_of(2, pos[2]),
        );
        if my_box.contains(cell) && pos == [buf.x[i], buf.y[i], buf.z[i]] {
            i += 1;
            continue;
        }
        // Wrapped or moved: reinsert into the owning box.
        let mut p = buf.swap_remove(i);
        p.0 = pos[0];
        p.1 = pos[1];
        p.2 = pos[2];
        match ba.find_cell(cell) {
            Some(owner) => route(owner, p),
            None => deleted += 1, // fell off the box union
        }
    }
    deleted
}

/// All tiles of one species.
#[derive(Clone, Debug, Default)]
pub struct ParticleContainer {
    pub bufs: Vec<ParticleBuf>,
}

impl ParticleContainer {
    pub fn new(nboxes: usize) -> Self {
        Self {
            bufs: (0..nboxes).map(|_| ParticleBuf::default()).collect(),
        }
    }

    pub fn total(&self) -> usize {
        self.bufs.iter().map(|b| b.len()).sum()
    }

    pub fn total_weight(&self) -> f64 {
        self.bufs.iter().map(|b| b.total_weight()).sum()
    }

    /// Per-box particle counts (load-balance costs).
    pub fn counts(&self) -> Vec<usize> {
        self.bufs.iter().map(|b| b.len()).collect()
    }

    /// Move particles to the box containing their position; apply
    /// periodic wraps; delete particles that left a non-periodic domain.
    /// Returns the number of deleted particles.
    pub fn redistribute(&mut self, ba: &BoxArray, geom: &GridGeom, period: &Periodicity) -> usize {
        let mut deleted = 0usize;
        let mut moved: Vec<(usize, ParticleTuple)> = Vec::new();
        for (bi, buf) in self.bufs.iter_mut().enumerate() {
            let my_box = ba.get(bi);
            deleted += scan_box_moves(buf, &my_box, ba, geom, period, |owner, p| {
                moved.push((owner, p))
            });
        }
        for (owner, p) in moved {
            self.bufs[owner].push_tuple(p);
        }
        deleted
    }

    /// Delete every particle with `x < cut` (moving-window trailing edge).
    pub fn drop_behind(&mut self, cut: f64) -> usize {
        let mut deleted = 0;
        for buf in &mut self.bufs {
            let mut i = 0;
            while i < buf.len() {
                if buf.x[i] < cut {
                    buf.swap_remove(i);
                    deleted += 1;
                } else {
                    i += 1;
                }
            }
        }
        deleted
    }

    /// Regions owned by each box never overlap, so a particle belongs to
    /// exactly one buf; verify that invariant (tests).
    pub fn check_ownership(&self, ba: &BoxArray, geom: &GridGeom) -> bool {
        for (bi, buf) in self.bufs.iter().enumerate() {
            let my_box = ba.get(bi);
            for i in 0..buf.len() {
                let cell = IntVect::new(
                    geom.cell_of(0, buf.x[i]),
                    geom.cell_of(1, buf.y[i]),
                    geom.cell_of(2, buf.z[i]),
                );
                if !my_box.contains(cell) {
                    return false;
                }
            }
        }
        true
    }
}

/// The physical cell region of a box (used when injecting plasma).
pub fn box_phys_region(geom: &GridGeom, b: &IndexBox) -> ([f64; 3], [f64; 3]) {
    (
        [
            geom.node(0, b.lo.x),
            geom.node(1, b.lo.y),
            geom.node(2, b.lo.z),
        ],
        [
            geom.node(0, b.hi.x),
            geom.node(1, b.hi.y),
            geom.node(2, b.hi.z),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> GridGeom {
        GridGeom {
            dx: [1.0; 3],
            x0: [0.0; 3],
        }
    }

    fn ba() -> BoxArray {
        BoxArray::chop(
            IndexBox::from_size(IntVect::new(8, 1, 8)),
            IntVect::new(4, 1, 8),
        )
    }

    #[test]
    fn push_and_partition() {
        let mut b = ParticleBuf::default();
        for i in 0..10 {
            b.push(i as f64, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0);
        }
        let (p0, p1) = b.partition3(|x, _, _| x < 6.0, |x, _, _| x < 3.0);
        assert_eq!((p0, p1), (3, 6));
        assert!(b.x[..3].iter().all(|&x| x < 3.0));
        assert!(b.x[3..6].iter().all(|&x| (3.0..6.0).contains(&x)));
        assert!(b.x[6..].iter().all(|&x| x >= 6.0));
        // Stability: relative order preserved within classes.
        assert_eq!(b.x[..3], [0.0, 1.0, 2.0]);
    }

    #[test]
    fn partition3_permutes_only_out_of_order_buffers() {
        let xs = [7.0, 1.0, 4.0, 0.0, 9.0, 5.0, 2.0, 3.0];
        let mut b = ParticleBuf::default();
        for (i, &x) in xs.iter().enumerate() {
            b.push(x, 0.0, 0.0, i as f64, 0.0, 0.0, 1.0);
        }
        let p1 = |x: f64, _: f64, _: f64| x < 6.0;
        let p2 = |x: f64, _: f64, _: f64| x < 3.0;
        assert_eq!(b.partition3(p1, p2), (3, 6));
        // Stable within classes, and every array moved together.
        assert_eq!(b.x, [1.0, 0.0, 2.0, 4.0, 5.0, 3.0, 7.0, 9.0]);
        assert_eq!(b.ux, [1.0, 3.0, 6.0, 2.0, 5.0, 7.0, 0.0, 4.0]);
        // Partitioning again is the identity with the same pivots.
        let before = b.clone();
        assert_eq!(b.partition3(p1, p2), (3, 6));
        assert_eq!(b.x, before.x);
        assert_eq!(b.ux, before.ux);
        // Degenerate classes: empty buffer, one class only.
        assert_eq!(ParticleBuf::default().partition3(p1, p2), (0, 0));
        let mut all_outside = before.clone();
        assert_eq!(all_outside.partition3(|_, _, _| false, p2), (0, 0));
    }

    #[test]
    fn redistribute_moves_and_wraps() {
        let ba = ba();
        let g = geom();
        let per = Periodicity::new(
            IndexBox::from_size(IntVect::new(8, 1, 8)),
            [true, true, true],
        );
        let mut pc = ParticleContainer::new(ba.len());
        // Particle in box 0 that has moved into box 1's region.
        pc.bufs[0].push(5.5, 0.5, 1.0, 0.0, 0.0, 0.0, 1.0);
        // Particle that wrapped around x.
        pc.bufs[1].push(8.7, 0.5, 1.0, 0.0, 0.0, 0.0, 1.0);
        let deleted = pc.redistribute(&ba, &g, &per);
        assert_eq!(deleted, 0);
        assert!(pc.check_ownership(&ba, &g));
        assert_eq!(pc.total(), 2);
        // The wrapped particle is now at x = 0.7 in box 0.
        assert!(pc.bufs[0].x.iter().any(|&x| (x - 0.7).abs() < 1e-12));
    }

    #[test]
    fn redistribute_deletes_at_open_boundary() {
        let ba = ba();
        let g = geom();
        let per = Periodicity::new(
            IndexBox::from_size(IntVect::new(8, 1, 8)),
            [false, true, true],
        );
        let mut pc = ParticleContainer::new(ba.len());
        pc.bufs[1].push(9.0, 0.5, 1.0, 0.0, 0.0, 0.0, 1.0);
        pc.bufs[0].push(-0.1, 0.5, 1.0, 0.0, 0.0, 0.0, 1.0);
        pc.bufs[0].push(2.0, 0.5, 1.0, 0.0, 0.0, 0.0, 1.0);
        assert_eq!(pc.redistribute(&ba, &g, &per), 2);
        assert_eq!(pc.total(), 1);
    }

    #[test]
    fn drop_behind_cuts_trailing_particles() {
        let mut pc = ParticleContainer::new(1);
        for i in 0..10 {
            pc.bufs[0].push(i as f64, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0);
        }
        assert_eq!(pc.drop_behind(4.5), 5);
        assert_eq!(pc.total(), 5);
        assert_eq!(pc.total_weight(), 10.0);
    }

    #[test]
    fn cell_sort_orders_particles() {
        let g = geom();
        let mut b = ParticleBuf::default();
        b.push(5.5, 0.0, 2.5, 0.0, 0.0, 0.0, 1.0);
        b.push(1.5, 0.0, 0.5, 0.0, 0.0, 0.0, 1.0);
        b.push(0.5, 0.0, 2.5, 0.0, 0.0, 0.0, 1.0);
        b.sort_by_cell(&g);
        assert_eq!(b.z, [0.5, 2.5, 2.5]);
        assert_eq!(b.x, [1.5, 0.5, 5.5]);
    }
}
