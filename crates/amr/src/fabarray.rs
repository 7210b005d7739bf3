//! `FabArray`: one field component distributed over a box array.

use crate::{
    boxarray::BoxArray,
    comm::{CommStats, ExchangePlan, PlanItem},
    fab::Fab,
    ibox::IndexBox,
    ivec::IntVect,
    stagger::Stagger,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Domain periodicity description.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Periodicity {
    pub domain: IndexBox,
    pub periodic: [bool; 3],
}

impl Periodicity {
    pub fn new(domain: IndexBox, periodic: [bool; 3]) -> Self {
        Self { domain, periodic }
    }

    pub fn none(domain: IndexBox) -> Self {
        Self::new(domain, [false; 3])
    }

    pub fn all(domain: IndexBox) -> Self {
        Self::new(domain, [true; 3])
    }

    /// Periodic image shifts covering guard regions up to `reach` cells
    /// wide per axis (multiple periods when the guards are wider than the
    /// domain, e.g. thin domains with deep interpolation stencils).
    pub fn shifts_for(&self, reach: IntVect) -> Vec<IntVect> {
        let n = self.domain.size();
        let opts = |d: usize| -> Vec<i64> {
            if !self.periodic[d] {
                return vec![0];
            }
            // Number of periods needed to cover `reach` guard cells.
            let k = ((reach[d].max(1) + n[d] - 1) / n[d]).max(1);
            let mut v = vec![0];
            for m in 1..=k {
                v.push(m * n[d]);
                v.push(-m * n[d]);
            }
            v
        };
        let (xs, ys, zs) = (opts(0), opts(1), opts(2));
        let mut out = Vec::with_capacity(xs.len() * ys.len() * zs.len());
        for &z in &zs {
            for &y in &ys {
                for &x in &xs {
                    out.push(IntVect::new(x, y, z));
                }
            }
        }
        // Zero shift first (it is the common case).
        out.sort_by_key(|s| (s.x != 0 || s.y != 0 || s.z != 0) as i64);
        out
    }
}

/// A cached [`ExchangePlan`] together with the key it was built under.
#[derive(Clone, Debug)]
struct CachedPlan {
    period: Periodicity,
    generation: u64,
    plan: ExchangePlan,
}

/// The moving-window layout of a multi-fab [`FabArray::shift_data`] by
/// `s`, cached under `(generation, s)`:
/// - `keep[i]`: the points of fab `i` whose source `p + s` lies in its
///   own valid region, moved in place;
/// - `seams`: for every other destination point whose source some fab
///   covers, the source region (source indices, destination at
///   `region + shift`, `shift = -s`) of the *last* fab in index order
///   holding it. The pieces are disjoint and overwrite `keep` where a
///   later fab owns the source.
#[derive(Clone, Debug)]
struct ShiftPlan {
    generation: u64,
    s: IntVect,
    keep: Vec<Option<IndexBox>>,
    seams: Vec<PlanItem>,
}

impl ShiftPlan {
    fn new(fabs: &[Fab], s: IntVect, generation: u64) -> Self {
        let valid: Vec<IndexBox> = fabs.iter().map(Fab::valid_pts).collect();
        let keep = valid.iter().map(|v| v.intersect(&v.shift(-s))).collect();
        let mut seams = Vec::new();
        for (dst, dv) in valid.iter().enumerate() {
            let want = dv.shift(s);
            for (src, sv) in valid.iter().enumerate() {
                if src == dst {
                    continue;
                }
                let Some(r) = sv.intersect(&want) else {
                    continue;
                };
                // Later fabs (the destination's own included) own their
                // shared points.
                let mut pieces = vec![r];
                for later in &valid[src + 1..] {
                    pieces = pieces.iter().flat_map(|p| p.subtract(later)).collect();
                }
                seams.extend(pieces.into_iter().map(|region| PlanItem {
                    src,
                    dst,
                    shift: -s,
                    region,
                }));
            }
        }
        Self {
            generation,
            s,
            keep,
            seams,
        }
    }
}

/// Per-array cache of fill/sum exchange plans and of the window-shift
/// layout. Plans depend only on the box layout, stagger, guard widths,
/// and periodicity (plus the shift vector for `shift`), so once built
/// they stay valid until the layout generation changes. A window shift
/// moves data inside the fixed index space and so keeps them all.
#[derive(Clone, Debug, Default)]
struct PlanCache {
    fill: Option<CachedPlan>,
    sum: Option<CachedPlan>,
    shift: Option<ShiftPlan>,
}

/// A multi-component staggered field over all boxes of a [`BoxArray`].
#[derive(Clone, Debug)]
pub struct FabArray {
    ba: BoxArray,
    stagger: Stagger,
    ncomp: usize,
    ngrow: IntVect,
    fabs: Vec<Fab>,
    stats: CommStats,
    /// Layout generation; bumped whenever cached plans may go stale.
    generation: u64,
    plans: PlanCache,
    /// Reusable pack buffer for aliasing-safe exchanges (no per-call
    /// fab clones or allocations once warm).
    xbuf: Vec<f64>,
    /// Reusable clipped-region scratch matching `xbuf` pack order.
    clips: Vec<Option<IndexBox>>,
}

impl FabArray {
    pub fn new(ba: BoxArray, stagger: Stagger, ncomp: usize, ngrow: i64) -> Self {
        Self::new_vec(ba, stagger, ncomp, IntVect::splat(ngrow))
    }

    /// Per-axis guard widths (zero y guards for collapsed 2-D arrays).
    pub fn new_vec(ba: BoxArray, stagger: Stagger, ncomp: usize, ngrow: IntVect) -> Self {
        let fabs = ba
            .iter()
            .map(|b| Fab::new_vec(*b, stagger, ncomp, ngrow))
            .collect();
        Self {
            ba,
            stagger,
            ncomp,
            ngrow,
            fabs,
            stats: CommStats::default(),
            generation: 0,
            plans: PlanCache::default(),
            xbuf: Vec::new(),
            clips: Vec::new(),
        }
    }

    /// Current layout generation (changes invalidate cached plans).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Drop cached exchange plans; they are rebuilt lazily on next use.
    /// Call after any external change that could alter exchange topology
    /// (e.g. a rebalance that reassigns box ownership).
    pub fn invalidate_plans(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        self.plans = PlanCache::default();
    }

    #[inline]
    pub fn boxarray(&self) -> &BoxArray {
        &self.ba
    }

    #[inline]
    pub fn stagger(&self) -> Stagger {
        self.stagger
    }

    #[inline]
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    #[inline]
    pub fn ngrow(&self) -> IntVect {
        self.ngrow
    }

    #[inline]
    pub fn nfabs(&self) -> usize {
        self.fabs.len()
    }

    #[inline]
    pub fn fab(&self, i: usize) -> &Fab {
        &self.fabs[i]
    }

    #[inline]
    pub fn fab_mut(&mut self, i: usize) -> &mut Fab {
        &mut self.fabs[i]
    }

    #[inline]
    pub fn fabs(&self) -> &[Fab] {
        &self.fabs
    }

    #[inline]
    pub fn fabs_mut(&mut self) -> &mut [Fab] {
        &mut self.fabs
    }

    /// Parallel mutable iteration over (box id, fab), the on-node parallel
    /// layer (the stand-in for the paper's GPU/OpenMP `ParallelFor`).
    pub fn par_fabs_mut(&mut self) -> impl ParallelIterator<Item = (usize, &mut Fab)> {
        self.fabs.par_iter_mut().enumerate()
    }

    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Set all data (valid + guards) of all fabs.
    pub fn fill(&mut self, v: f64) {
        for f in &mut self.fabs {
            f.fill(v);
        }
    }

    /// Zero all data.
    pub fn zero(&mut self) {
        self.fill(0.0);
    }

    /// Copy valid data into guard regions of neighboring boxes (including
    /// periodic images). Call after every field update so stencils near
    /// box edges see fresh neighbor data. The exchange plan is cached and
    /// reused until the layout generation or periodicity changes.
    pub fn fill_boundary(&mut self, period: &Periodicity) {
        let cached = match self.plans.fill.take() {
            Some(c) if c.generation == self.generation && c.period == *period => c,
            _ => {
                self.stats.plan_builds += 1;
                CachedPlan {
                    period: *period,
                    generation: self.generation,
                    plan: ExchangePlan::fill(&self.ba, self.stagger, self.ngrow, period),
                }
            }
        };
        self.execute_copy(&cached.plan);
        self.plans.fill = Some(cached);
    }

    /// Execute a prebuilt fill-style (copy) plan.
    pub fn execute_copy(&mut self, plan: &ExchangePlan) {
        let t0 = Instant::now();
        let ncomp = self.ncomp;
        let mut moved_points = 0i64;
        for it in &plan.items {
            if it.src == it.dst {
                // Self periodic copy: pack the clipped source region first
                // so reads never see partially written data.
                let fab = &mut self.fabs[it.src];
                if let Some(r) = clip_exchange_region(&it.region, it.shift, fab, fab) {
                    for c in 0..ncomp {
                        pack_region_into(fab, c, &r, &mut self.xbuf);
                        let npts = r.num_cells() as usize;
                        let start = self.xbuf.len() - npts;
                        blend_region_from_buf(fab, c, &r, it.shift, &self.xbuf[start..], |_, s| s);
                    }
                    self.xbuf.clear();
                }
            } else {
                let (a, b) = two_mut(&mut self.fabs, it.src, it.dst);
                for c in 0..ncomp {
                    b.copy_region_from(a, &it.region, it.shift, c, c);
                }
            }
            moved_points += it.region.num_cells();
            self.stats.messages += u64::from(it.src != it.dst);
        }
        self.stats.bytes += moved_points as u64 * 8 * ncomp as u64;
        self.stats.exchanges += 1;
        self.stats.seconds += t0.elapsed().as_secs_f64();
    }

    /// Accumulate deposited guard data into the valid region of the owning
    /// boxes (including periodic images). Used after charge/current
    /// deposition; afterwards every box's valid region holds the total.
    /// The exchange plan is cached like in [`Self::fill_boundary`].
    pub fn sum_boundary(&mut self, period: &Periodicity) {
        let cached = match self.plans.sum.take() {
            Some(c) if c.generation == self.generation && c.period == *period => c,
            _ => {
                self.stats.plan_builds += 1;
                CachedPlan {
                    period: *period,
                    generation: self.generation,
                    plan: ExchangePlan::sum(&self.ba, self.stagger, self.ngrow, period),
                }
            }
        };
        self.execute_sum(&cached.plan);
        self.plans.sum = Some(cached);
    }

    /// Execute a prebuilt sum-style (accumulate) plan. All additions must
    /// read pre-sum values, and valid regions of neighboring boxes can
    /// overlap (shared nodal faces), so sources are packed into a reusable
    /// buffer first and applied in a second phase — same semantics as the
    /// previous whole-fab snapshots, without the clones.
    pub fn execute_sum(&mut self, plan: &ExchangePlan) {
        let t0 = Instant::now();
        let Self {
            fabs,
            stats,
            xbuf,
            clips,
            ncomp,
            ..
        } = self;
        let ncomp = *ncomp;
        xbuf.clear();
        clips.clear();
        let mut moved_points = 0i64;
        // Phase 1: pack every clipped source region (pre-sum values).
        for it in &plan.items {
            let src = &fabs[it.src];
            let r = clip_exchange_region(&it.region, it.shift, src, &fabs[it.dst]);
            if let Some(r) = &r {
                for c in 0..ncomp {
                    pack_region_into(src, c, r, xbuf);
                }
            }
            clips.push(r);
            moved_points += it.region.num_cells();
            stats.messages += u64::from(it.src != it.dst);
        }
        // Phase 2: apply the packed data in plan order.
        let mut off = 0usize;
        for (it, r) in plan.items.iter().zip(clips.iter()) {
            let Some(r) = r else { continue };
            let npts = r.num_cells() as usize;
            let dst = &mut fabs[it.dst];
            for c in 0..ncomp {
                blend_region_from_buf(dst, c, r, it.shift, &xbuf[off..off + npts], |d, s| d + s);
                off += npts;
            }
        }
        stats.bytes += moved_points as u64 * 8 * ncomp as u64;
        stats.exchanges += 1;
        stats.seconds += t0.elapsed().as_secs_f64();
    }

    /// Shift all data by `s` points across the whole array (moving
    /// window): new value at valid point `p` = old value at `p + s` of the
    /// last box (in index order) whose valid region holds it; uncovered
    /// points and guards become 0 — call `fill_boundary` afterwards. A
    /// single-box array shifts its whole grown box instead. Runs in place
    /// (one memmove per component plus the cross-box seam pieces) and
    /// keeps every cached exchange plan: the layout does not change.
    pub fn shift_data(&mut self, s: IntVect) {
        if s == IntVect::ZERO {
            return;
        }
        if self.fabs.len() == 1 {
            self.fabs[0].shift_data(s);
            return;
        }
        let plan = match self.plans.shift.take() {
            Some(p) if p.generation == self.generation && p.s == s => p,
            _ => ShiftPlan::new(&self.fabs, s, self.generation),
        };
        let Self {
            fabs, xbuf, ncomp, ..
        } = self;
        let ncomp = *ncomp;
        // Pack the seam pieces from the pre-shift data, move every fab in
        // place, then write the pieces.
        xbuf.clear();
        for it in &plan.seams {
            for c in 0..ncomp {
                pack_region_into(&fabs[it.src], c, &it.region, xbuf);
            }
        }
        for (fab, keep) in fabs.iter_mut().zip(&plan.keep) {
            fab.shift_keep(s, *keep);
        }
        let mut off = 0usize;
        for it in &plan.seams {
            let npts = it.region.num_cells() as usize;
            for c in 0..ncomp {
                let v = &xbuf[off..off + npts];
                blend_region_from_buf(&mut fabs[it.dst], c, &it.region, it.shift, v, |_, v| v);
                off += npts;
            }
        }
        self.plans.shift = Some(plan);
    }

    /// Regions of points *owned* by box `i`: its valid points minus points
    /// already owned by lower-id boxes (nodal faces are shared). Use for
    /// reductions that must count each physical point once.
    pub fn owned_regions(&self, i: usize) -> Vec<IndexBox> {
        let mine = self.fabs[i].valid_pts();
        let mut regions = vec![mine];
        for j in 0..i {
            let other = self.fabs[j].valid_pts();
            let mut next = Vec::new();
            for r in regions {
                if r.intersect(&other).is_some() {
                    next.extend(r.subtract(&other));
                } else {
                    next.push(r);
                }
            }
            regions = next;
        }
        regions
    }

    /// Sum of a component over owned points of all boxes (each physical
    /// point counted once).
    pub fn sum_comp(&self, c: usize) -> f64 {
        (0..self.fabs.len())
            .map(|i| {
                self.owned_regions(i)
                    .iter()
                    .map(|r| self.fabs[i].sum_region(c, r))
                    .sum::<f64>()
            })
            .sum()
    }

    /// Sum of f(value) over owned points (e.g. squares for energy).
    pub fn sum_comp_map(&self, c: usize, f: impl Fn(f64) -> f64 + Sync) -> f64 {
        (0..self.fabs.len())
            .map(|i| {
                let fab = &self.fabs[i];
                let ix = fab.indexer();
                let comp = fab.comp(c);
                self.owned_regions(i)
                    .iter()
                    .map(|r| {
                        let mut acc = 0.0;
                        for k in r.lo.z..r.hi.z {
                            for j in r.lo.y..r.hi.y {
                                let row = ix.at(r.lo.x, j, k);
                                for v in &comp[row..row + (r.hi.x - r.lo.x) as usize] {
                                    acc += f(*v);
                                }
                            }
                        }
                        acc
                    })
                    .sum::<f64>()
            })
            .sum()
    }

    /// Max |v| of a component over valid points of all boxes.
    pub fn max_abs(&self, c: usize) -> f64 {
        self.fabs
            .iter()
            .map(|f| f.max_abs_region(c, &f.valid_pts()))
            .fold(0.0, f64::max)
    }

    /// Value at a point, read from the first box whose valid region holds
    /// it (`None` if the point lies in no valid region).
    pub fn at(&self, c: usize, p: IntVect) -> Option<f64> {
        self.fabs
            .iter()
            .find(|f| f.valid_pts().contains(p))
            .map(|f| f.get(c, p))
    }

    /// Merge an externally measured exchange delta into this array's
    /// [`CommStats`] — used by distributed executors that run the
    /// pack/apply halves themselves but must keep the single-rank
    /// accounting (bytes, messages, exchanges) intact.
    pub fn record_exchange(&mut self, delta: &CommStats) {
        self.stats.merge(delta);
    }
}

/// Clip an exchange region (source indices, destination at `+shift`) so
/// both the reads and the shifted writes stay in bounds — the same rule
/// `Fab::blend_region_from` applies internally.
pub fn clip_exchange_region(
    region: &IndexBox,
    shift: IntVect,
    src: &Fab,
    dst: &Fab,
) -> Option<IndexBox> {
    region.intersect(&src.grown_pts()).and_then(|r| {
        r.shift(shift)
            .intersect(&dst.grown_pts())
            .map(|d| d.shift(-shift))
    })
}

/// Append component `c` of `src` over the (already clipped) region `r`
/// to `buf`, row-major.
pub fn pack_region_into(src: &Fab, c: usize, r: &IndexBox, buf: &mut Vec<f64>) {
    let ix = src.indexer();
    let comp = src.comp(c);
    let w = (r.hi.x - r.lo.x) as usize;
    for k in r.lo.z..r.hi.z {
        for j in r.lo.y..r.hi.y {
            let row = ix.at(r.lo.x, j, k);
            buf.extend_from_slice(&comp[row..row + w]);
        }
    }
}

/// Blend packed values (source indices over the already clipped region
/// `r`) into `dst` at `r + shift`: `dst = f(dst, packed)`.
pub fn blend_region_from_buf(
    dst: &mut Fab,
    c: usize,
    r: &IndexBox,
    shift: IntVect,
    buf: &[f64],
    f: impl Fn(f64, f64) -> f64,
) {
    let ix = dst.indexer();
    let comp = dst.comp_mut(c);
    let w = (r.hi.x - r.lo.x) as usize;
    let mut off = 0usize;
    for k in r.lo.z..r.hi.z {
        for j in r.lo.y..r.hi.y {
            let row = ix.at(r.lo.x + shift.x, j + shift.y, k + shift.z);
            for t in 0..w {
                comp[row + t] = f(comp[row + t], buf[off + t]);
            }
            off += w;
        }
    }
}

/// Disjoint mutable references to two fabs.
fn two_mut(fabs: &mut [Fab], a: usize, b: usize) -> (&mut Fab, &mut Fab) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = fabs.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = fabs.split_at_mut(a);
        let (x, y) = (&mut hi[0], &mut lo[b]);
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom() -> IndexBox {
        IndexBox::from_size(IntVect::new(8, 8, 4))
    }

    fn mk(ngrow: i64, stagger: Stagger) -> FabArray {
        let ba = BoxArray::chop(dom(), IntVect::new(4, 4, 4));
        FabArray::new(ba, stagger, 1, ngrow)
    }

    #[test]
    fn fill_boundary_transports_values() {
        let mut fa = mk(2, Stagger::CELL);
        // Paint each fab with its box id, then fill guards.
        for i in 0..fa.nfabs() {
            let r = fa.fab(i).valid_pts();
            fa.fab_mut(i).apply_region(0, &r, move |_| i as f64 + 1.0);
        }
        fa.fill_boundary(&Periodicity::none(dom()));
        // A guard point of box 0 lying inside box 1's valid region equals 2.
        let b1 = fa.boxarray().get(1);
        let probe = IntVect::new(b1.lo.x, b1.lo.y, b1.lo.z);
        assert!(fa.fab(0).grown_pts().contains(probe));
        assert_eq!(fa.fab(0).get(0, probe), 2.0);
        assert!(fa.stats().bytes > 0);
    }

    #[test]
    fn periodic_fill_wraps() {
        let mut fa = mk(1, Stagger::CELL);
        for i in 0..fa.nfabs() {
            let r = fa.fab(i).valid_pts();
            fa.fab_mut(i).apply_region(0, &r, move |_| i as f64 + 1.0);
        }
        fa.fill_boundary(&Periodicity::all(dom()));
        // Guard at x = -1 of box 0 wraps to the far-x box at x = 7.
        let owner = fa.boxarray().find_cell(IntVect::new(7, 0, 0)).unwrap() as f64 + 1.0;
        assert_eq!(fa.fab(0).get(0, IntVect::new(-1, 0, 0)), owner);
    }

    #[test]
    fn sum_boundary_accumulates_once() {
        // Deposit 1.0 at a nodal point shared by several boxes (in each
        // box's local data), then sum: every owner must see the total.
        let mut fa = mk(1, Stagger::NODAL);
        let shared = IntVect::new(4, 4, 0); // corner shared by 4 boxes
        let mut holders = 0;
        for i in 0..fa.nfabs() {
            if fa.fab(i).grown_pts().contains(shared) {
                fa.fab_mut(i).add(0, shared, 1.0);
                holders += 1;
            }
        }
        assert!(holders >= 4);
        fa.sum_boundary(&Periodicity::none(dom()));
        for i in 0..fa.nfabs() {
            if fa.fab(i).valid_pts().contains(shared) {
                assert_eq!(fa.fab(i).get(0, shared), holders as f64);
            }
        }
    }

    #[test]
    fn owned_regions_partition_points() {
        let fa = mk(1, Stagger::NODAL);
        let total: i64 = (0..fa.nfabs())
            .map(|i| {
                fa.owned_regions(i)
                    .iter()
                    .map(|r| r.num_cells())
                    .sum::<i64>()
            })
            .sum();
        // Nodal points over the whole 8x8x4 domain: 9*9*5.
        assert_eq!(total, 9 * 9 * 5);
    }

    #[test]
    fn sum_comp_counts_each_point_once() {
        let mut fa = mk(1, Stagger::NODAL);
        for i in 0..fa.nfabs() {
            let r = fa.fab(i).valid_pts();
            fa.fab_mut(i).apply_region(0, &r, |_| 1.0);
        }
        assert_eq!(fa.sum_comp(0), (9 * 9 * 5) as f64);
    }

    #[test]
    fn shift_data_across_boxes() {
        let mut fa = mk(1, Stagger::CELL);
        // Single marked cell in box at high x.
        let p = IntVect::new(6, 1, 1);
        let owner = fa.boxarray().find_cell(p).unwrap();
        fa.fab_mut(owner).set(0, p, 5.0);
        // Shift data by +4 in x: value should appear at x=2 (another box).
        fa.shift_data(IntVect::new(4, 0, 0));
        let q = IntVect::new(2, 1, 1);
        assert_eq!(fa.at(0, q), Some(5.0));
        // Old location now zero.
        assert_eq!(fa.at(0, p), Some(0.0));
    }

    #[test]
    fn exchange_plans_are_cached_and_invalidated() {
        let mut fa = mk(2, Stagger::CELL);
        let p = Periodicity::none(dom());
        fa.fill_boundary(&p);
        fa.fill_boundary(&p);
        fa.sum_boundary(&p);
        fa.sum_boundary(&p);
        // One build per plan kind; repeats hit the cache.
        assert_eq!(fa.stats().plan_builds, 2);
        // A different periodicity is a different key.
        fa.fill_boundary(&Periodicity::all(dom()));
        assert_eq!(fa.stats().plan_builds, 3);
        // Window shifts keep the layout, so every cached plan survives.
        let generation = fa.generation();
        fa.shift_data(IntVect::new(1, 0, 0));
        fa.shift_data(IntVect::new(-2, 0, 0));
        assert_eq!(fa.generation(), generation);
        fa.fill_boundary(&Periodicity::all(dom()));
        fa.sum_boundary(&p);
        assert_eq!(fa.stats().plan_builds, 3);
        // An explicit invalidation still forces a rebuild.
        fa.invalidate_plans();
        fa.fill_boundary(&Periodicity::all(dom()));
        assert_eq!(fa.stats().plan_builds, 4);
        assert!(fa.stats().seconds >= 0.0);
    }

    /// The pre-in-place multi-box `shift_data` body (whole-array pack,
    /// zero, unpack), kept as the bitwise oracle.
    fn shift_data_oracle(fa: &mut FabArray, s: IntVect) {
        if s == IntVect::ZERO {
            return;
        }
        if fa.fabs.len() == 1 {
            fa.fabs[0].shift_data_oracle(s);
            return;
        }
        let ncomp = fa.ncomp;
        let fabs = &mut fa.fabs;
        let mut xbuf = Vec::new();
        let mut clips = Vec::new();
        let n = fabs.len();
        for dst in fabs.iter() {
            let want = dst.valid_pts().shift(s);
            for src in fabs.iter() {
                let r = src.valid_pts().intersect(&want);
                if let Some(r) = &r {
                    for c in 0..ncomp {
                        pack_region_into(src, c, r, &mut xbuf);
                    }
                }
                clips.push(r);
            }
        }
        let mut off = 0usize;
        for (di, dst) in fabs.iter_mut().enumerate() {
            dst.fill(0.0);
            for si in 0..n {
                let Some(r) = &clips[di * n + si] else {
                    continue;
                };
                let npts = r.num_cells() as usize;
                for c in 0..ncomp {
                    blend_region_from_buf(dst, c, r, -s, &xbuf[off..off + npts], |_, v| v);
                    off += npts;
                }
            }
        }
    }

    fn bits(fa: &FabArray) -> Vec<u64> {
        fa.fabs()
            .iter()
            .flat_map(|f| f.raw().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// Shifts of ±1 and ±2 along every axis, a diagonal one, and one
    /// larger than a box.
    fn oracle_shifts() -> Vec<IntVect> {
        let mut out = vec![IntVect::new(1, 0, -2), IntVect::new(-5, 0, 3)];
        for d in 0..3 {
            for m in [-2, -1, 1, 2] {
                let mut s = IntVect::ZERO;
                s[d] = m;
                out.push(s);
            }
        }
        out
    }

    /// Every stored point of `fa` after `shift_data` equals the oracle
    /// bit for bit, over three shifts in a row on the same array: the
    /// second reuses the cached piece list, the third re-keys it.
    fn check_against_oracle(fa: &FabArray, seed: u64, what: &str) {
        for s in oracle_shifts() {
            let mut a = fa.clone();
            // Guards hold junk the shift must overwrite.
            for (i, fab) in a.fabs_mut().iter_mut().enumerate() {
                fab.scramble(seed * 1000 + i as u64);
            }
            let mut b = a.clone();
            for (round, t) in [s, s, -s].into_iter().enumerate() {
                a.shift_data(t);
                shift_data_oracle(&mut b, t);
                assert_eq!(bits(&a), bits(&b), "{what}: s {t:?} round {round}");
            }
        }
    }

    fn all_staggers() -> [Stagger; 8] {
        [
            Stagger::CELL,
            Stagger::NODAL,
            Stagger::EX,
            Stagger::EY,
            Stagger::EZ,
            Stagger::BX,
            Stagger::BY,
            Stagger::BZ,
        ]
    }

    #[test]
    fn shift_data_matches_oracle_3d_multibox() {
        // Uneven boxes so shared nodal faces and seams fall everywhere.
        let dom = IndexBox::from_size(IntVect::new(10, 7, 6));
        let ba = BoxArray::chop(dom, IntVect::new(4, 3, 4));
        assert!(ba.len() > 4);
        for (i, st) in all_staggers().into_iter().enumerate() {
            let fa = FabArray::new_vec(ba.clone(), st, 2, IntVect::new(2, 1, 2));
            check_against_oracle(&fa, 100 + i as u64, &format!("3d {st:?}"));
        }
    }

    #[test]
    fn shift_data_matches_oracle_2d_multibox() {
        // Collapsed y with zero y guards, as the 2-D field sets use.
        let dom = IndexBox::from_size(IntVect::new(12, 1, 9));
        let ba = BoxArray::chop(dom, IntVect::new(4, 1, 4));
        for (i, st) in all_staggers().into_iter().enumerate() {
            let fa = FabArray::new_vec(ba.clone(), st, 1, IntVect::new(3, 0, 3));
            check_against_oracle(&fa, 200 + i as u64, &format!("2d {st:?}"));
        }
    }

    #[test]
    fn shift_data_matches_oracle_pml_slabs() {
        // A PML-style shell: disjoint slabs around an interior hole.
        let slabs = vec![
            IndexBox::new(IntVect::new(-4, 0, -4), IntVect::new(0, 1, 12)),
            IndexBox::new(IntVect::new(16, 0, -4), IntVect::new(20, 1, 12)),
            IndexBox::new(IntVect::new(0, 0, -4), IntVect::new(16, 1, 0)),
            IndexBox::new(IntVect::new(0, 0, 8), IntVect::new(16, 1, 12)),
        ];
        let ba = BoxArray::from_boxes(slabs);
        for (i, st) in all_staggers().into_iter().enumerate() {
            let fa = FabArray::new_vec(ba.clone(), st, 2, IntVect::new(2, 0, 2));
            check_against_oracle(&fa, 300 + i as u64, &format!("pml {st:?}"));
        }
    }

    #[test]
    fn shift_data_matches_oracle_single_box() {
        for (i, st) in [Stagger::CELL, Stagger::NODAL, Stagger::EX, Stagger::BZ]
            .into_iter()
            .enumerate()
        {
            let fa = FabArray::new(BoxArray::single(dom()), st, 2, 2);
            check_against_oracle(&fa, 400 + i as u64, &format!("single {st:?}"));
            let flat = IndexBox::from_size(IntVect::new(9, 1, 5));
            let fa = FabArray::new_vec(BoxArray::single(flat), st, 1, IntVect::new(2, 0, 2));
            check_against_oracle(&fa, 500 + i as u64, &format!("single 2d {st:?}"));
        }
    }

    #[test]
    fn shift_reuses_cached_piece_list() {
        let mut fa = mk(1, Stagger::NODAL);
        fa.shift_data(IntVect::new(1, 0, 0));
        let first = fa.plans.shift.as_ref().unwrap().seams.clone();
        assert!(!first.is_empty());
        fa.shift_data(IntVect::new(1, 0, 0));
        assert_eq!(fa.plans.shift.as_ref().unwrap().seams, first);
        // A different shift vector is a different key.
        fa.shift_data(IntVect::new(0, 0, 2));
        let plan = fa.plans.shift.as_ref().unwrap();
        assert_eq!(plan.s, IntVect::new(0, 0, 2));
        assert_ne!(plan.seams, first);
    }

    #[test]
    fn single_box_periodic_fill_self_copies() {
        // The aliasing-safe self-copy path: one periodic box exchanging
        // with its own images through the pack buffer.
        let mut fa = FabArray::new(BoxArray::single(dom()), Stagger::CELL, 1, 1);
        let f = |p: IntVect| (p.x * 100 + p.y * 10 + p.z) as f64 + 1.0;
        let r = fa.fab(0).valid_pts();
        for p in r.cells().collect::<Vec<_>>() {
            fa.fab_mut(0).set(0, p, f(p));
        }
        fa.fill_boundary(&Periodicity::all(dom()));
        // Guard at x = -1 wraps to the valid value at x = 7.
        assert_eq!(
            fa.fab(0).get(0, IntVect::new(-1, 2, 1)),
            f(IntVect::new(7, 2, 1))
        );
        // Guard at y = 8 wraps to y = 0.
        assert_eq!(
            fa.fab(0).get(0, IntVect::new(3, 8, 1)),
            f(IntVect::new(3, 0, 1))
        );
    }

    #[test]
    fn multi_box_equals_single_box_after_fill() {
        // fill_boundary on a chopped array reproduces the single-box
        // picture of a smooth function.
        let f = |p: IntVect| (p.x * 100 + p.y * 10 + p.z) as f64;
        let mut multi = mk(2, Stagger::NODAL);
        for i in 0..multi.nfabs() {
            let r = multi.fab(i).valid_pts();
            for p in r.cells().collect::<Vec<_>>() {
                multi.fab_mut(i).set(0, p, f(p));
            }
        }
        multi.fill_boundary(&Periodicity::none(dom()));
        // Every interior guard point matches the analytic value.
        for i in 0..multi.nfabs() {
            let fab = multi.fab(i);
            let interior = Stagger::NODAL.point_box(&dom());
            for p in fab.grown_pts().cells().collect::<Vec<_>>() {
                if interior.contains(p) && !fab.valid_pts().contains(p) {
                    assert_eq!(fab.get(0, p), f(p), "at {p:?} of fab {i}");
                }
            }
        }
    }
}
