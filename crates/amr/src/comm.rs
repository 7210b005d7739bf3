//! Exchange plans and communication accounting.
//!
//! Guard-cell exchange is the dominant communication in the PIC loop. We
//! build explicit plans (which source region of which box goes to which
//! destination box under which periodic shift) and keep byte/message
//! counters, so the cluster simulator can price halo traffic from the real
//! intersections rather than from a guessed surface-to-volume formula.

use crate::{
    boxarray::BoxArray, distribution::DistributionMapping, fabarray::Periodicity, ibox::IndexBox,
    ivec::IntVect, stagger::Stagger,
};
use serde::{Deserialize, Serialize};

/// One copy/add in an exchange: `region` is in *source* point indices; the
/// destination points are `region.shift(shift)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanItem {
    pub src: usize,
    pub dst: usize,
    pub shift: IntVect,
    pub region: IndexBox,
}

/// A full exchange plan for one (BoxArray, stagger, ngrow, periodicity).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExchangePlan {
    pub items: Vec<PlanItem>,
}

/// Running totals of exchanged data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CommStats {
    /// Payload bytes moved between *different* boxes.
    pub bytes: u64,
    /// Number of box-to-box copies (messages if boxes are on other ranks).
    pub messages: u64,
    /// Number of exchange operations performed.
    pub exchanges: u64,
    /// Number of exchange plans constructed (cache misses). Steady-state
    /// stepping should keep this at zero once plans are warm.
    #[serde(default)]
    pub plan_builds: u64,
    /// Wall-clock seconds spent executing exchanges.
    #[serde(default)]
    pub seconds: f64,
}

impl CommStats {
    /// Fold another counter set into this one (used to aggregate stats
    /// across fab arrays, PML shells, and MR levels into one step record).
    pub fn merge(&mut self, other: &CommStats) {
        self.bytes += other.bytes;
        self.messages += other.messages;
        self.exchanges += other.exchanges;
        self.plan_builds += other.plan_builds;
        self.seconds += other.seconds;
    }

    /// Counter-wise difference `self - earlier`, saturating at zero for the
    /// integer counters. Used to turn cumulative counters into per-step
    /// deltas for telemetry records.
    pub fn delta_since(&self, earlier: &CommStats) -> CommStats {
        CommStats {
            bytes: self.bytes.saturating_sub(earlier.bytes),
            messages: self.messages.saturating_sub(earlier.messages),
            exchanges: self.exchanges.saturating_sub(earlier.exchanges),
            plan_builds: self.plan_builds.saturating_sub(earlier.plan_builds),
            seconds: (self.seconds - earlier.seconds).max(0.0),
        }
    }
}

/// Traffic of one exchange under a given rank assignment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Traffic {
    pub local_bytes: u64,
    pub remote_bytes: u64,
    pub remote_messages: u64,
    /// Number of distinct (src rank, dst rank) communicating pairs.
    pub rank_pairs: u64,
}

impl ExchangePlan {
    /// Plan for `fill_boundary`: copy source valid points into destination
    /// guard points (grown minus valid), honoring periodic shifts.
    pub fn fill(ba: &BoxArray, stagger: Stagger, ngrow: IntVect, period: &Periodicity) -> Self {
        let n = ba.len();
        let valid: Vec<IndexBox> = ba.iter().map(|b| stagger.point_box(b)).collect();
        let grown: Vec<IndexBox> = ba
            .iter()
            .map(|b| stagger.point_box(&b.grow_vec(ngrow)))
            .collect();
        let shifts = period.shifts_for(ngrow);
        let mut items = Vec::new();
        for dst in 0..n {
            // Guard region = grown \ valid, as disjoint pieces.
            let pieces = grown[dst].subtract(&valid[dst]);
            for piece in &pieces {
                for src in 0..n {
                    for &t in &shifts {
                        if src == dst && t == IntVect::ZERO {
                            continue;
                        }
                        if let Some(ov) = valid[src].shift(t).intersect(piece) {
                            items.push(PlanItem {
                                src,
                                dst,
                                shift: t,
                                region: ov.shift(-t),
                            });
                        }
                    }
                }
            }
        }
        Self { items }
    }

    /// Plan for `sum_boundary`: add every box's *grown* deposit into every
    /// other box's valid region (the destination must accumulate each
    /// contribution exactly once).
    pub fn sum(ba: &BoxArray, stagger: Stagger, ngrow: IntVect, period: &Periodicity) -> Self {
        let n = ba.len();
        let valid: Vec<IndexBox> = ba.iter().map(|b| stagger.point_box(b)).collect();
        let grown: Vec<IndexBox> = ba
            .iter()
            .map(|b| stagger.point_box(&b.grow_vec(ngrow)))
            .collect();
        let shifts = period.shifts_for(ngrow);
        let mut items = Vec::new();
        for dst in 0..n {
            for src in 0..n {
                for &t in &shifts {
                    if src == dst && t == IntVect::ZERO {
                        continue;
                    }
                    if let Some(ov) = grown[src].shift(t).intersect(&valid[dst]) {
                        items.push(PlanItem {
                            src,
                            dst,
                            shift: t,
                            region: ov.shift(-t),
                        });
                    }
                }
            }
        }
        Self { items }
    }

    /// Total points touched by the plan.
    pub fn total_points(&self) -> i64 {
        self.items.iter().map(|i| i.region.num_cells()).sum()
    }

    /// Price this plan under a rank assignment: 8 bytes per point per
    /// component.
    pub fn traffic(&self, dm: &DistributionMapping, ncomp: usize) -> Traffic {
        let mut t = Traffic::default();
        let mut pairs = std::collections::BTreeSet::new();
        for it in &self.items {
            let bytes = (it.region.num_cells() as u64) * 8 * ncomp as u64;
            let (so, do_) = (dm.owner(it.src), dm.owner(it.dst));
            if so == do_ {
                t.local_bytes += bytes;
            } else {
                t.remote_bytes += bytes;
                t.remote_messages += 1;
                pairs.insert((so, do_));
            }
        }
        t.rank_pairs = pairs.len() as u64;
        t
    }
}

/// One [`PlanItem`] annotated for a specific rank decomposition.
///
/// `index` is the item's position in the source [`ExchangePlan`]; it is the
/// deterministic application key shared by every rank count: a distributed
/// executor that applies all items targeting its boxes in ascending `index`
/// reproduces the single-rank plan-order application exactly.
#[derive(Clone, Copy, Debug)]
pub struct PlanEntry {
    /// Position in the source plan (global application order).
    pub index: usize,
    pub item: PlanItem,
    /// Exchange region clipped to both fabs' grown point boxes (in source
    /// indices), or `None` when nothing survives clipping. Precomputed
    /// from the layout so pack/apply sides need only their own fab.
    pub clip: Option<IndexBox>,
    pub src_rank: usize,
    pub dst_rank: usize,
}

impl PlanEntry {
    /// Points actually packed/applied for this entry (post-clip).
    #[inline]
    pub fn npts(&self) -> usize {
        self.clip.map(|r| r.num_cells() as usize).unwrap_or(0)
    }
}

/// The two per-rank halves of a [`PartitionedPlan`].
#[derive(Clone, Debug, Default)]
pub struct RankPlan {
    /// Entries whose *source* box this rank owns (pack side), ascending
    /// `index`. Rank-local entries appear here and in `apply`.
    pub pack: Vec<PlanEntry>,
    /// Entries whose *destination* box this rank owns (apply side),
    /// ascending `index`.
    pub apply: Vec<PlanEntry>,
}

/// An [`ExchangePlan`] split into local and remote halves per rank of a
/// [`DistributionMapping`]: each rank packs the entries whose source box
/// it owns (sending off-rank payloads as messages) and applies the
/// entries whose destination box it owns, in ascending global item index.
#[derive(Clone, Debug)]
pub struct PartitionedPlan {
    pub nranks: usize,
    pub ranks: Vec<RankPlan>,
    /// Total (unclipped) points of the source plan — matches the byte
    /// accounting of the single-rank executors.
    pub total_points: i64,
    /// Items whose source and destination boxes differ (the single-rank
    /// `messages` counter).
    pub cross_box_items: u64,
}

impl PartitionedPlan {
    /// Split `plan` (built for `(ba, stagger, ngrow)`) across the ranks of
    /// `dm`, precomputing the clipped region of every item from the layout
    /// alone — identical to the runtime clipping the single-rank
    /// executors perform against `Fab::grown_pts()`.
    pub fn new(
        plan: &ExchangePlan,
        ba: &BoxArray,
        stagger: Stagger,
        ngrow: IntVect,
        dm: &DistributionMapping,
    ) -> Self {
        let grown: Vec<IndexBox> = ba
            .iter()
            .map(|b| stagger.point_box(&b.grow_vec(ngrow)))
            .collect();
        let mut ranks = vec![RankPlan::default(); dm.nranks()];
        let mut total_points = 0i64;
        let mut cross_box_items = 0u64;
        for (index, it) in plan.items.iter().enumerate() {
            let clip = it.region.intersect(&grown[it.src]).and_then(|r| {
                r.shift(it.shift)
                    .intersect(&grown[it.dst])
                    .map(|d| d.shift(-it.shift))
            });
            let e = PlanEntry {
                index,
                item: *it,
                clip,
                src_rank: dm.owner(it.src),
                dst_rank: dm.owner(it.dst),
            };
            ranks[e.src_rank].pack.push(e);
            ranks[e.dst_rank].apply.push(e);
            total_points += it.region.num_cells();
            cross_box_items += u64::from(it.src != it.dst);
        }
        Self {
            nranks: dm.nranks(),
            ranks,
            total_points,
            cross_box_items,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn period_none(dom: IndexBox) -> Periodicity {
        Periodicity::new(dom, [false; 3])
    }

    #[test]
    fn fill_plan_covers_interior_guards() {
        let dom = IndexBox::from_size(IntVect::new(8, 4, 4));
        let ba = BoxArray::chop(dom, IntVect::new(4, 4, 4));
        let plan = ExchangePlan::fill(&ba, Stagger::CELL, IntVect::ONE, &period_none(dom));
        // Two boxes sharing one 4x4 face, 1 guard layer, cell-centered:
        // each box fills 1*4*4 = 16 guard points from the other.
        assert_eq!(plan.total_points(), 2 * 16);
        assert_eq!(plan.items.len(), 2);
    }

    #[test]
    fn periodic_fill_adds_wraparound() {
        let dom = IndexBox::from_size(IntVect::new(8, 4, 4));
        let ba = BoxArray::chop(dom, IntVect::new(4, 4, 4));
        let per = Periodicity::new(dom, [true, false, false]);
        let plan = ExchangePlan::fill(&ba, Stagger::CELL, IntVect::ONE, &per);
        // Now each box also receives its far-x guard from the other box.
        assert_eq!(plan.total_points(), 4 * 16);
    }

    #[test]
    fn single_periodic_box_self_exchanges() {
        let dom = IndexBox::from_size(IntVect::new(8, 1, 1));
        let ba = BoxArray::single(dom);
        let per = Periodicity::new(dom, [true, false, false]);
        let plan = ExchangePlan::fill(&ba, Stagger::CELL, IntVect::splat(2), &per);
        // Self-copy with +/- domain shift: 2 guard slabs of 2 points each.
        assert_eq!(plan.total_points(), 4);
        for it in &plan.items {
            assert_eq!(it.src, it.dst);
            assert_ne!(it.shift, IntVect::ZERO);
        }
    }

    #[test]
    fn sum_plan_symmetric() {
        let dom = IndexBox::from_size(IntVect::new(8, 4, 4));
        let ba = BoxArray::chop(dom, IntVect::new(4, 4, 4));
        let plan = ExchangePlan::sum(&ba, Stagger::NODAL, IntVect::splat(2), &period_none(dom));
        // Every item has a mirror with src/dst swapped.
        for it in &plan.items {
            assert!(plan
                .items
                .iter()
                .any(|o| o.src == it.dst && o.dst == it.src));
        }
        assert!(!plan.items.is_empty());
    }

    #[test]
    fn partitioned_plan_covers_every_item_once() {
        let dom = IndexBox::from_size(IntVect::new(16, 8, 4));
        let ba = BoxArray::chop(dom, IntVect::new(4, 4, 4));
        let per = Periodicity::new(dom, [true, false, false]);
        let plan = ExchangePlan::fill(&ba, Stagger::CELL, IntVect::splat(2), &per);
        for nranks in [1usize, 2, 3, 4] {
            let dm = DistributionMapping::build(
                &ba,
                nranks,
                crate::distribution::Strategy::RoundRobin,
                &[],
            );
            let pp = PartitionedPlan::new(&plan, &ba, Stagger::CELL, IntVect::splat(2), &dm);
            assert_eq!(pp.nranks, nranks);
            // Each item appears in exactly one pack list and one apply list,
            // and both halves are sorted by global index.
            let mut packed: Vec<usize> = Vec::new();
            let mut applied: Vec<usize> = Vec::new();
            for rp in &pp.ranks {
                assert!(rp.pack.windows(2).all(|w| w[0].index < w[1].index));
                assert!(rp.apply.windows(2).all(|w| w[0].index < w[1].index));
                packed.extend(rp.pack.iter().map(|e| e.index));
                applied.extend(rp.apply.iter().map(|e| e.index));
            }
            packed.sort_unstable();
            applied.sort_unstable();
            let all: Vec<usize> = (0..plan.items.len()).collect();
            assert_eq!(packed, all);
            assert_eq!(applied, all);
            assert_eq!(pp.total_points, plan.total_points());
        }
    }

    #[test]
    fn partitioned_plan_rank_assignment_matches_dm() {
        let dom = IndexBox::from_size(IntVect::new(16, 8, 4));
        let ba = BoxArray::chop(dom, IntVect::new(4, 4, 4));
        let plan = ExchangePlan::sum(&ba, Stagger::NODAL, IntVect::splat(2), &period_none(dom));
        let dm = DistributionMapping::build(&ba, 3, crate::distribution::Strategy::RoundRobin, &[]);
        let pp = PartitionedPlan::new(&plan, &ba, Stagger::NODAL, IntVect::splat(2), &dm);
        for (r, rp) in pp.ranks.iter().enumerate() {
            for e in &rp.pack {
                assert_eq!(dm.owner(e.item.src), r);
                assert_eq!(e.src_rank, r);
            }
            for e in &rp.apply {
                assert_eq!(dm.owner(e.item.dst), r);
                assert_eq!(e.dst_rank, r);
            }
        }
    }

    #[test]
    fn traffic_accounting() {
        let dom = IndexBox::from_size(IntVect::new(8, 4, 4));
        let ba = BoxArray::chop(dom, IntVect::new(4, 4, 4));
        let plan = ExchangePlan::fill(&ba, Stagger::CELL, IntVect::ONE, &period_none(dom));
        let dm1 = DistributionMapping::all_on_rank0(ba.len());
        let t1 = plan.traffic(&dm1, 3);
        assert_eq!(t1.remote_bytes, 0);
        assert_eq!(t1.local_bytes, 2 * 16 * 8 * 3);
        let dm2 =
            DistributionMapping::build(&ba, 2, crate::distribution::Strategy::RoundRobin, &[]);
        let t2 = plan.traffic(&dm2, 3);
        assert_eq!(t2.remote_bytes, 2 * 16 * 8 * 3);
        assert_eq!(t2.remote_messages, 2);
        assert_eq!(t2.rank_pairs, 2);
    }
}
