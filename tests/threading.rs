//! Threading and exchange-plan-cache invariants of the step loop:
//! stepping is bitwise identical at any thread count (including the MR
//! fine-patch deposition, which is reduced in fixed box order, and the
//! `f32` particle kernels), and
//! steady-state steps construct zero exchange plans once caches are warm.

use mrpic::amr::{IndexBox, IntVect};
use mrpic::core::laser::antenna_for_a0;
use mrpic::core::mr::MrConfig;
use mrpic::core::profile::Profile;
use mrpic::core::sim::{Precision, ShapeOrder, Simulation, SimulationBuilder};
use mrpic::core::species::Species;
use mrpic::field::fieldset::Dim;
use rayon::ThreadPoolBuilder;

/// A laser-foil deck chopped into 8 boxes, so the box-parallel particle
/// loop has real work to distribute.
fn builder(seed: u64, window: bool) -> SimulationBuilder {
    let b = SimulationBuilder::new(Dim::Two)
        .domain(IntVect::new(64, 1, 24), [0.1e-6; 3], [0.0; 3])
        .periodic([false, false, true])
        .pml(8)
        .max_box(IntVect::new(16, 1, 12))
        .order(ShapeOrder::Quadratic)
        .cfl(0.6)
        .seed(seed)
        .sort_interval(10)
        .filter_passes(1)
        .add_species(
            Species::electrons(
                "foil",
                Profile::Slab {
                    n0: 2.0e27,
                    axis: 0,
                    x0: 4.0e-6,
                    x1: 4.6e-6,
                },
                [2, 1, 2],
            )
            .with_thermal([1.0e6; 3]),
        )
        .add_laser(antenna_for_a0(1.5, 0.8e-6, 6.0e-15, 1.0e-6, 1.2e-6, 1.5e-6));
    if window {
        b.moving_window(6.0e-15)
    } else {
        b
    }
}

/// The laser-foil deck with an MR patch over the foil.
fn build(seed: u64, window: bool) -> Simulation {
    let mut sim = builder(seed, window).build();
    sim.add_mr_patch(MrConfig {
        patch: IndexBox::new(IntVect::new(30, 0, 0), IntVect::new(56, 1, 24)),
        rr: 2,
        n_transition: 2,
        npml: 6,
        subcycle: false,
    });
    sim
}

#[test]
fn step_is_bitwise_identical_across_thread_counts() {
    let run = |mk: &dyn Fn() -> Simulation, threads: usize| -> Simulation {
        let mut sim = mk();
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                for _ in 0..25 {
                    sim.step();
                }
            });
        sim
    };
    let check = |a: &Simulation, b: &Simulation| {
        // Particles: identical to the bit.
        for (x, y) in a.parts[0].bufs.iter().zip(&b.parts[0].bufs) {
            assert_eq!(x.len(), y.len());
            for i in 0..x.len() {
                assert_eq!(x.x[i].to_bits(), y.x[i].to_bits());
                assert_eq!(x.z[i].to_bits(), y.z[i].to_bits());
                assert_eq!(x.ux[i].to_bits(), y.ux[i].to_bits());
                assert_eq!(x.uz[i].to_bits(), y.uz[i].to_bits());
            }
        }
        // Parent fields and currents: identical to the bit.
        for c in 0..3 {
            for fi in 0..a.fs.e[c].nfabs() {
                assert_eq!(a.fs.e[c].fab(fi).raw(), b.fs.e[c].fab(fi).raw());
                assert_eq!(a.fs.j[c].fab(fi).raw(), b.fs.j[c].fab(fi).raw());
            }
        }
    };
    let mr_deck = || build(11, false);
    let a = run(&mr_deck, 1);
    let b = run(&mr_deck, 4);
    check(&a, &b);
    // MR fine-patch state (deposited via the ordered reduction).
    let (ma, mb) = (a.mr.as_ref().unwrap(), b.mr.as_ref().unwrap());
    for c in 0..3 {
        assert_eq!(ma.fine.j[c].fab(0).raw(), mb.fine.j[c].fab(0).raw());
        assert_eq!(ma.fine.e[c].fab(0).raw(), mb.fine.e[c].fab(0).raw());
    }
    // The f32 particle kernels (the same deck minus the patch: MR is
    // f64-only), including the per-box f32 current tiles accumulated
    // into the f64 fabs.
    let f32_deck = || {
        builder(11, false)
            .precision(Precision::F32Particles)
            .build()
    };
    let a = run(&f32_deck, 1);
    let b = run(&f32_deck, 4);
    assert_eq!(a.precision, Precision::F32Particles);
    check(&a, &b);
}

/// The live LB policy's heuristic cost source reads deterministic
/// cell/particle counts, never wall-clock timings — so its decision
/// sequence (and therefore the adopted mappings and the physics) must
/// be identical whether the box-parallel particle loop ran on 1 rayon
/// worker or 4.
#[test]
fn live_lb_decisions_ignore_rayon_thread_count() {
    use mrpic::core::balance::{CostSource, LbDecision, LbPolicy, LbPolicyCfg};
    let run = |threads: usize| -> (Vec<LbDecision>, Simulation) {
        let mut sim = build(11, true);
        sim.lb = Some(LbPolicy::new(LbPolicyCfg {
            threshold: 1.05,
            patience: 2,
            min_gain: 0.01,
            horizon: 40,
            cooldown: 4,
            cost_source: CostSource::Heuristic,
            ..LbPolicyCfg::default()
        }));
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                let mut d = mrpic::dist::DistSim::in_process(sim, 2);
                d.run(20);
                let decisions = d
                    .sim
                    .telemetry
                    .records()
                    .iter()
                    .filter_map(|r| r.lb.clone())
                    .collect();
                (decisions, d.sim)
            })
    };
    let (da, sa) = run(1);
    let (db, sb) = run(4);
    assert!(
        da.iter().any(|d| d.adopted.is_some()),
        "the skewed foil must trigger an adoption"
    );
    assert_eq!(da, db, "decisions must not depend on rayon thread count");
    for (x, y) in sa.parts[0].bufs.iter().zip(&sb.parts[0].bufs) {
        assert_eq!(x.len(), y.len());
        for i in 0..x.len() {
            assert_eq!(x.x[i].to_bits(), y.x[i].to_bits());
            assert_eq!(x.z[i].to_bits(), y.z[i].to_bits());
            assert_eq!(x.ux[i].to_bits(), y.ux[i].to_bits());
            assert_eq!(x.uz[i].to_bits(), y.uz[i].to_bits());
        }
    }
    for c in 0..3 {
        for fi in 0..sa.fs.e[c].nfabs() {
            assert_eq!(sa.fs.e[c].fab(fi).raw(), sb.fs.e[c].fab(fi).raw());
            assert_eq!(sa.fs.j[c].fab(fi).raw(), sb.fs.j[c].fab(fi).raw());
        }
    }
}

#[test]
fn steady_state_steps_build_no_plans() {
    let mut sim = build(3, false);
    sim.run(3);
    let warm = sim.plan_builds_total();
    assert!(warm > 0, "first steps must have built plans");
    sim.run(5);
    assert_eq!(
        sim.plan_builds_total(),
        warm,
        "steady-state steps must reuse cached exchange plans"
    );
}

#[test]
fn window_shift_invalidates_and_rebuilds_plans() {
    let mut sim = build(7, true);
    sim.run(3); // warm the caches
    let warm = sim.plan_builds_total();
    // Step until the moving window shifts; that step must rebuild plans.
    let mut shifted = false;
    for _ in 0..400 {
        let before = sim.plan_builds_total();
        let st = sim.step();
        if st.window_shifts > 0 {
            assert!(
                sim.plan_builds_total() > before,
                "window shift must invalidate cached plans"
            );
            shifted = true;
            break;
        } else {
            assert_eq!(
                sim.plan_builds_total(),
                before,
                "no-shift steps must not rebuild plans"
            );
        }
    }
    assert!(shifted, "window never shifted");
    assert!(sim.plan_builds_total() > warm);
}

#[test]
fn invalidate_plans_forces_rebuild() {
    let mut sim = build(5, false);
    sim.run(2);
    let warm = sim.plan_builds_total();
    sim.run(1);
    assert_eq!(sim.plan_builds_total(), warm);
    // The rebalance path calls this after adopting a new mapping.
    sim.fs.invalidate_plans();
    sim.run(1);
    assert!(sim.plan_builds_total() > warm);
}
