//! Cross-crate property-based tests (proptest): invariants that must
//! hold for arbitrary geometries, decompositions and particle states.

use mrpic::amr::comm::ExchangePlan;
use mrpic::amr::{
    BoxArray, DistributionMapping, IndexBox, IntVect, Periodicity, Stagger, Strategy as LbStrategy,
};
use mrpic::core::particles::ParticleContainer;
use mrpic::field::fieldset::GridGeom;
use proptest::prelude::*;

fn arb_domain() -> impl Strategy<Value = IndexBox> {
    (4i64..24, 1i64..12, 4i64..24).prop_map(|(x, y, z)| IndexBox::from_size(IntVect::new(x, y, z)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chopping covers the domain exactly with disjoint boxes for any
    /// size/max-box combination.
    #[test]
    fn chop_partitions_domain(dom in arb_domain(), mx in 1i64..9, my in 1i64..9, mz in 1i64..9) {
        let ba = BoxArray::chop(dom, IntVect::new(mx, my, mz));
        prop_assert_eq!(ba.total_cells(), dom.num_cells());
        prop_assert_eq!(ba.bounding(), dom);
        // Spot-check disjointness by locating random-ish cells uniquely.
        for p in [dom.lo, dom.hi - IntVect::ONE, (dom.lo + dom.hi).coarsen(IntVect::splat(2))] {
            let owners = ba.iter().filter(|b| b.contains(p)).count();
            prop_assert_eq!(owners, 1);
        }
    }

    /// Every strategy assigns every box to a valid rank, and the
    /// knapsack max load never exceeds mean + max single cost (LPT).
    #[test]
    fn distribution_strategies_are_valid(
        dom in arb_domain(),
        nranks in 1usize..9,
        seed in 0u64..1000,
    ) {
        let ba = BoxArray::chop(dom, IntVect::splat(4));
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let costs: Vec<f64> = (0..ba.len()).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            1.0 + ((state >> 33) % 1000) as f64
        }).collect();
        for strat in [LbStrategy::RoundRobin, LbStrategy::SpaceFillingCurve, LbStrategy::Knapsack] {
            let dm = DistributionMapping::build(&ba, nranks, strat, &costs);
            prop_assert_eq!(dm.owners().len(), ba.len());
            prop_assert!(dm.owners().iter().all(|&o| o < nranks));
        }
        let dm = DistributionMapping::build(&ba, nranks, LbStrategy::Knapsack, &costs);
        let loads = dm.rank_loads(&costs);
        let total: f64 = costs.iter().sum();
        let mean = total / nranks as f64;
        let max_cost = costs.iter().cloned().fold(0.0, f64::max);
        let max_load = loads.iter().cloned().fold(0.0, f64::max);
        prop_assert!(max_load <= mean + max_cost + 1e-9);
    }

    /// The fill plan covers exactly the interior-guard points: the total
    /// transported points equal the sum over boxes of (guard points that
    /// physically exist in some other box or periodic image).
    #[test]
    fn fill_plan_is_idempotent_cover(
        dom in arb_domain(),
        ng in 1i64..4,
        px in any::<bool>(),
        pz in any::<bool>(),
    ) {
        let ba = BoxArray::chop(dom, IntVect::splat(4));
        let per = Periodicity::new(dom, [px, false, pz]);
        let plan = ExchangePlan::fill(&ba, Stagger::CELL, IntVect::splat(ng), &per);
        // Apply the plan to a FabArray painted with a global function and
        // verify every reachable guard equals the analytic value.
        let mut fa = mrpic::amr::FabArray::new(ba.clone(), Stagger::CELL, 1, ng);
        let f = |p: IntVect, dom: IndexBox| {
            // Wrap periodic axes into the domain before evaluating.
            let mut q = p;
            if px {
                q.x = (q.x - dom.lo.x).rem_euclid(dom.size().x) + dom.lo.x;
            }
            if pz {
                q.z = (q.z - dom.lo.z).rem_euclid(dom.size().z) + dom.lo.z;
            }
            (q.x * 10000 + q.y * 100 + q.z) as f64
        };
        for i in 0..fa.nfabs() {
            let vb = fa.fab(i).valid_pts();
            for p in vb.cells().collect::<Vec<_>>() {
                fa.fab_mut(i).set(0, p, f(p, dom));
            }
        }
        fa.execute_copy(&plan);
        for i in 0..fa.nfabs() {
            let fab = fa.fab(i);
            let vb = fab.valid_pts();
            for p in fab.grown_pts().cells() {
                if vb.contains(p) {
                    continue;
                }
                // Guard point: reachable iff inside the (periodically
                // wrapped) domain.
                let mut q = p;
                if px {
                    q.x = (q.x - dom.lo.x).rem_euclid(dom.size().x) + dom.lo.x;
                }
                if pz {
                    q.z = (q.z - dom.lo.z).rem_euclid(dom.size().z) + dom.lo.z;
                }
                if dom.contains(q) {
                    prop_assert_eq!(fab.get(0, p), f(p, dom), "at {:?} of fab {}", p, i);
                }
            }
        }
    }

    /// Particle redistribution conserves total weight when the domain is
    /// fully periodic, for arbitrary positions (including far outside).
    #[test]
    fn redistribute_conserves_weight_periodic(
        positions in prop::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 1..60),
    ) {
        let dom = IndexBox::from_size(IntVect::new(8, 1, 8));
        let ba = BoxArray::chop(dom, IntVect::new(4, 1, 8));
        let geom = GridGeom { dx: [1.0; 3], x0: [0.0; 3] };
        let per = Periodicity::new(dom, [true, true, true]);
        let mut pc = ParticleContainer::new(ba.len());
        for (i, &(x, z)) in positions.iter().enumerate() {
            pc.bufs[i % ba.len()].push(x, 0.5, z, 0.0, 0.0, 0.0, 2.0);
        }
        let w0 = pc.total_weight();
        let deleted = pc.redistribute(&ba, &geom, &per);
        prop_assert_eq!(deleted, 0);
        prop_assert!((pc.total_weight() - w0).abs() < 1e-9);
        prop_assert!(pc.check_ownership(&ba, &geom));
    }
}
