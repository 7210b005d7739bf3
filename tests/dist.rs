//! Distributed-runtime invariants: stepping through the message-passing
//! backend is bitwise identical to the serial step loop for any rank
//! count — on a moving-window mesh-refined laser-foil run, through an
//! adopted rebalance that physically migrates box data between ranks,
//! and for randomized layouts under the property tests.

mod common;

use common::{assert_mesh_dir_clean, assert_sims_bitwise, build, mesh_dir};
use mrpic::amr::{
    BoxArray, DistributionMapping, FabArray, IndexBox, IntVect, Periodicity, Stagger,
    Strategy as DmStrategy,
};
use mrpic::core::exchange::StepComm;
use mrpic::dist::{boxed, mem_transport, DistComm, DistSim, MeshCfg, Phase};
use proptest::prelude::*;

/// The headline acceptance invariant: the full step over the
/// message-passing runtime is bitwise identical across 1, 2, and 4 ranks
/// and to the serial step loop, on a moving-window MR run that shifts
/// the window several times.
#[test]
fn step_is_bitwise_identical_across_rank_counts() {
    const STEPS: usize = 48;
    let serial = {
        let mut s = build(11, true);
        s.run(STEPS);
        s
    };
    for nranks in [1, 2, 4] {
        let mut d = DistSim::in_process(build(11, true), nranks);
        d.run(STEPS).unwrap();
        assert_sims_bitwise(&serial, &d.sim);
    }
}

/// Adopting a rebalance mid-run physically migrates fab data and
/// particle tiles between ranks; the run must sail through it bitwise
/// unchanged (and with the same particle census as right before).
#[test]
fn rebalance_adoption_migrates_boxes_and_preserves_state() {
    const STEPS: usize = 24;
    let serial = {
        let mut s = build(7, true);
        s.run(STEPS);
        s
    };
    for nranks in [2, 4] {
        let mut d = DistSim::in_process(build(7, true), nranks);
        d.run(STEPS / 2).unwrap();
        let census: usize = d.sim.parts[0].bufs.iter().map(|b| b.len()).sum();
        let prev = d.sim.dm.clone();
        d.force_rebalance();
        assert_ne!(
            prev, d.sim.dm,
            "forced rebalance must actually change the mapping"
        );
        let moved = (0..d.sim.fs.boxarray().len())
            .filter(|&bi| prev.owner(bi) != d.sim.dm.owner(bi))
            .count();
        assert!(moved > 0, "at least one box must change owner");
        assert_eq!(
            census,
            d.sim.parts[0].bufs.iter().map(|b| b.len()).sum::<usize>(),
            "migration must preserve the particle census"
        );
        d.run(STEPS / 2).unwrap();
        assert_sims_bitwise(&serial, &d.sim);
    }
}

/// The recording transport captures real traffic for every phase, and
/// the per-rank records surface in the step telemetry.
#[test]
fn recording_transport_captures_all_phases() {
    let sim = build(3, false);
    let (mut d, rec) = DistSim::recording(sim, 2);
    d.run(6).unwrap();
    d.force_rebalance();
    let msgs = rec.messages();
    for phase in [Phase::Fill, Phase::Sum, Phase::Redist, Phase::Migrate] {
        assert!(
            msgs.iter().any(|m| m.phase == phase),
            "no {phase:?} message captured"
        );
    }
    // Both ordered rank pairs carried bytes.
    let pairs = rec.pair_bytes();
    assert_eq!(pairs.len(), 2);
    assert!(pairs.iter().all(|&(_, _, b)| b > 0));
    // Telemetry aggregated one record per rank per step.
    let last = d.sim.telemetry.records().back().unwrap();
    assert_eq!(last.ranks.len(), 2);
    assert!(last.ranks.iter().any(|r| r.sent_messages > 0));
    assert!(last.ranks.iter().all(|r| r.particle_seconds > 0.0));
}

/// Golden-trace regression: the `(step, phase, seq, src, dst)` message
/// schedule of a 2-rank moving-window MR run is a pure function of the
/// configuration — identical across repeated runs and across rayon
/// thread counts. A schedule change means the communication pattern
/// changed and must be a deliberate decision, not thread-timing noise.
#[test]
fn message_schedule_is_a_golden_trace() {
    const STEPS: usize = 10;
    let trace = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let (mut d, rec) = DistSim::recording(build(11, true), 2);
            d.run(STEPS).unwrap();
            rec.schedule()
        })
    };
    let golden = trace(1);
    assert!(!golden.is_empty(), "a 2-rank MR run must exchange messages");
    // Both directions appear, and fill + sum phases are both scheduled.
    assert!(golden.iter().any(|&(_, _, _, s, d)| (s, d) == (0, 1)));
    assert!(golden.iter().any(|&(_, _, _, s, d)| (s, d) == (1, 0)));
    assert!(golden.iter().any(|&(_, p, _, _, _)| p == Phase::Fill as u8));
    assert!(golden.iter().any(|&(_, p, _, _, _)| p == Phase::Sum as u8));
    // Stable across re-runs and across worker thread counts.
    assert_eq!(golden, trace(1), "schedule must be stable across runs");
    for threads in [2, 4] {
        assert_eq!(
            golden,
            trace(threads),
            "schedule must not depend on rayon thread count ({threads})"
        );
    }
}

/// Live load balancing with the heuristic cost source is fully
/// deterministic, and adoptions never perturb the physics:
///
/// * repeated runs at a given rank count produce identical
///   [`LbDecision`] sequences (trigger metric, candidates, predicted
///   gains, adopted strategy — all of it);
/// * the skewed foil (all particles in two of eight parent boxes)
///   actually triggers an adoption on 2+ ranks;
/// * the final state is bitwise identical to the serial step loop at
///   1, 2, and 4 ranks, *through* the adopted live migrations — on the
///   same moving-window MR run, which also regression-tests that an
///   MR + window run with the policy enabled never trips the cost
///   tracker's length check.
#[test]
fn live_lb_decisions_are_deterministic_and_preserve_state() {
    use mrpic::core::balance::{CostSource, LbDecision, LbPolicy, LbPolicyCfg};
    const STEPS: usize = 24;
    let lb_cfg = LbPolicyCfg {
        threshold: 1.05,
        patience: 2,
        min_gain: 0.01,
        horizon: 40,
        cooldown: 4,
        cost_source: CostSource::Heuristic,
        ..LbPolicyCfg::default()
    };
    let build_lb = |seed: u64| {
        let mut sim = build(seed, true);
        sim.lb = Some(LbPolicy::new(lb_cfg));
        sim
    };
    // Serial baseline: the policy is armed but evaluates over one rank
    // (imbalance is identically 1), so the serial loop stays untouched.
    let serial = {
        let mut s = build_lb(11);
        s.run(STEPS);
        s
    };
    assert!(
        serial
            .telemetry
            .records()
            .iter()
            .all(|r| r.lb.as_ref().is_none_or(|d| d.adopted.is_none())),
        "a single-rank policy must never adopt"
    );
    for nranks in [1usize, 2, 4] {
        let run = || {
            let mut d = DistSim::in_process(build_lb(11), nranks);
            d.run(STEPS).unwrap();
            d
        };
        let decisions = |d: &DistSim| -> Vec<LbDecision> {
            d.sim
                .telemetry
                .records()
                .iter()
                .filter_map(|r| r.lb.clone())
                .collect()
        };
        let (a, b) = (run(), run());
        let (da, db) = (decisions(&a), decisions(&b));
        assert_eq!(
            da, db,
            "heuristic LB decisions must be identical across runs ({nranks} ranks)"
        );
        if nranks >= 2 {
            let adopted: Vec<&str> = da.iter().filter_map(|d| d.adopted.as_deref()).collect();
            assert!(
                !adopted.is_empty(),
                "the skewed foil must trigger an adoption on {nranks} ranks"
            );
            for d in &da {
                assert!(!d.candidates.is_empty(), "decisions must carry candidates");
                assert!(d.trigger_imbalance > 1.0);
            }
        }
        assert_sims_bitwise(&serial, &a.sim);
    }
}

/// Cross-transport equivalence, state half: running the moving-window
/// MR workload over a real Unix-domain-socket mesh — every inter-rank
/// byte through the kernel, CRC-framed — lands on the bit-identical
/// final state as the in-process mpsc transport, at 1, 2, and 4 ranks.
/// The meshes also unlink their socket files once connected.
#[test]
fn socket_transport_matches_mem_bitwise_across_rank_counts() {
    const STEPS: usize = 24;
    let reference = {
        let mut d = DistSim::in_process(build(11, true), 2);
        d.run(STEPS).unwrap();
        d.sim
    };
    for nranks in [1usize, 2, 4] {
        let dir = mesh_dir(&format!("sockeq{nranks}"));
        let cfg = MeshCfg::uds(dir.clone(), nranks, 0xA11CE + nranks as u64);
        let mut d = DistSim::socket_mesh(build(11, true), cfg)
            .unwrap_or_else(|e| panic!("{nranks}-rank socket mesh: {e}"));
        d.run(STEPS).unwrap();
        assert_sims_bitwise(&reference, &d.sim);
        assert_mesh_dir_clean(&dir);
    }
}

/// Cross-transport equivalence, schedule half: the socket mesh emits
/// exactly the same `(step, phase, seq, src, dst)` message schedule as
/// the mpsc transport — the golden trace is transport-invariant — and
/// the per-rank telemetry shows real wire bytes moving.
#[test]
fn socket_message_schedule_matches_mem_golden_trace() {
    const STEPS: usize = 10;
    let golden = {
        let (mut d, rec) = DistSim::recording(build(11, true), 2);
        d.run(STEPS).unwrap();
        rec.schedule()
    };
    assert!(!golden.is_empty(), "a 2-rank MR run must exchange messages");
    let dir = mesh_dir("sockgold");
    let sim = build(11, true);
    let (mut d, rec) =
        DistSim::socket_mesh_recording(sim, MeshCfg::uds(dir.clone(), 2, 0xBEEF)).unwrap();
    d.run(STEPS).unwrap();
    assert_eq!(
        golden,
        rec.schedule(),
        "socket transport must replay the mpsc message schedule exactly"
    );
    let last = d.sim.telemetry.records().back().unwrap();
    assert!(
        last.ranks.iter().any(|r| r.wire_bytes > 0),
        "socket run must report wire bytes in the rank telemetry"
    );
    assert!(last.ranks.iter().any(|r| r.wire_flushes > 0));
    assert_mesh_dir_clean(&dir);
}

fn arb_dom() -> impl Strategy<Value = IndexBox> {
    (4i64..20, 1i64..6, 4i64..20).prop_map(|(x, y, z)| IndexBox::from_size(IntVect::new(x, y, z)))
}

fn painted(ba: &BoxArray, stagger: Stagger, ng: i64, seed: u64) -> FabArray {
    let mut fa = FabArray::new(ba.clone(), stagger, 2, ng);
    let mut state = seed | 1;
    for bi in 0..fa.nfabs() {
        for v in fa.fab_mut(bi).raw_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v = ((state >> 33) as f64) / (1u64 << 31) as f64 - 0.5;
        }
    }
    fa
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded guard exchange over any layout, periodicity, stagger, and
    /// rank count is bitwise identical to the serial executor — for both
    /// fill (copy) and sum (add) semantics.
    #[test]
    fn sharded_exchange_matches_serial(
        dom in arb_dom(),
        seed in 0u64..1000,
        ng in 1i64..4,
        nranks in 1usize..6,
        flags in 0u8..8,
        staggered in any::<bool>(),
        strategy_rr in any::<bool>(),
    ) {
        let periodic = Periodicity::new(dom, [flags & 1 != 0, flags & 2 != 0, flags & 4 != 0]);
        let stagger = if staggered { Stagger::efield(0) } else { Stagger::CELL };
        let ba = BoxArray::chop(dom, IntVect::new(5, 4, 6));
        let strategy = if strategy_rr { DmStrategy::RoundRobin } else { DmStrategy::SpaceFillingCurve };
        let dm = DistributionMapping::build(&ba, nranks, strategy, &[]);
        for sum in [false, true] {
            let mut reference = painted(&ba, stagger, ng, seed);
            let mut sharded = painted(&ba, stagger, ng, seed);
            let mut comm = DistComm::new(boxed(mem_transport(nranks)), dm.clone());
            if sum {
                reference.sum_boundary(&periodic);
                comm.sum_group(&mut [&mut sharded], &periodic);
            } else {
                reference.fill_boundary(&periodic);
                comm.fill_group(&mut [&mut sharded], &periodic);
            }
            for bi in 0..reference.nfabs() {
                let (ra, rb) = (reference.fab(bi).raw(), sharded.fab(bi).raw());
                for (x, y) in ra.iter().zip(rb) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}
