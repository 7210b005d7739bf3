//! Chaos-transport invariants: a run under injected faults must either
//! absorb them invisibly (delays, corruption, transient failures — all
//! retried or re-received) or survive them exactly (rank crash →
//! checkpoint rollback + replay on the survivors), in both cases ending
//! bitwise identical to the unfaulted serial run. And the whole fault
//! schedule is seeded: the same `(seed, plan)` reproduces the same
//! injected faults, the same recovery trace, and the same final state.
//! A loss the run cannot survive comes back from `step` as an error
//! value that maps to exit code 4.

use mrpic::core::laser::antenna_for_a0;
use mrpic::core::mr::MrConfig;
use mrpic::core::profile::Profile;
use mrpic::core::run::Exit;
use mrpic::core::sim::{ShapeOrder, Simulation, SimulationBuilder};
use mrpic::core::species::Species;
use mrpic::core::telemetry::FaultStats;
use mrpic::dist::{
    mem_transport, CrashPoint, DistSim, Endpoint, FaultPlan, MemEndpoint, Phase, StepError, Tag,
    TransportError, TransportErrorKind,
};
use mrpic::field::fieldset::Dim;
use mrpic::{amr::IndexBox, amr::IntVect};
use proptest::prelude::*;

/// The moving-window MR laser-foil run the distributed invariants use.
fn build_full(seed: u64) -> Simulation {
    let mut sim = SimulationBuilder::new(Dim::Two)
        .domain(IntVect::new(64, 1, 24), [0.1e-6; 3], [0.0; 3])
        .periodic([false, false, true])
        .pml(8)
        .max_box(IntVect::new(16, 1, 12))
        .order(ShapeOrder::Quadratic)
        .cfl(0.6)
        .seed(seed)
        .sort_interval(10)
        .filter_passes(1)
        .moving_window(6.0e-15)
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
        .add_laser(antenna_for_a0(1.5, 0.8e-6, 6.0e-15, 1.0e-6, 1.2e-6, 1.5e-6))
        .build();
    sim.add_mr_patch(MrConfig {
        patch: IndexBox::new(IntVect::new(30, 0, 0), IntVect::new(56, 1, 24)),
        rr: 2,
        n_transition: 2,
        npml: 6,
        subcycle: false,
    });
    sim
}

/// A small thermal-plasma run for the cheap determinism and property
/// tests: 6 boxes, a few hundred particles, periodic everywhere.
fn build_light(seed: u64) -> Simulation {
    SimulationBuilder::new(Dim::Two)
        .domain(IntVect::new(24, 1, 12), [0.2e-6; 3], [0.0; 3])
        .periodic([true, true, true])
        .max_box(IntVect::new(8, 1, 6))
        .order(ShapeOrder::Quadratic)
        .cfl(0.6)
        .seed(seed)
        .add_species(
            Species::electrons("e", Profile::Uniform { n0: 5.0e24 }, [1, 1, 1])
                .with_thermal([3.0e7; 3]),
        )
        .build()
}

fn assert_sims_bitwise(a: &Simulation, b: &Simulation) {
    for (pa, pb) in a.parts.iter().zip(&b.parts) {
        for (x, y) in pa.bufs.iter().zip(&pb.bufs) {
            assert_eq!(x.len(), y.len());
            for i in 0..x.len() {
                assert_eq!(x.x[i].to_bits(), y.x[i].to_bits());
                assert_eq!(x.y[i].to_bits(), y.y[i].to_bits());
                assert_eq!(x.z[i].to_bits(), y.z[i].to_bits());
                assert_eq!(x.ux[i].to_bits(), y.ux[i].to_bits());
                assert_eq!(x.uy[i].to_bits(), y.uy[i].to_bits());
                assert_eq!(x.uz[i].to_bits(), y.uz[i].to_bits());
                assert_eq!(x.w[i].to_bits(), y.w[i].to_bits());
            }
        }
    }
    for c in 0..3 {
        for fi in 0..a.fs.e[c].nfabs() {
            assert_eq!(a.fs.e[c].fab(fi).raw(), b.fs.e[c].fab(fi).raw());
            assert_eq!(a.fs.b[c].fab(fi).raw(), b.fs.b[c].fab(fi).raw());
            assert_eq!(a.fs.j[c].fab(fi).raw(), b.fs.j[c].fab(fi).raw());
        }
    }
    match (a.mr.as_ref(), b.mr.as_ref()) {
        (Some(ma), Some(mb)) => {
            for c in 0..3 {
                assert_eq!(ma.fine.e[c].fab(0).raw(), mb.fine.e[c].fab(0).raw());
            }
        }
        (None, None) => {}
        _ => panic!("one run has an MR level, the other does not"),
    }
}

/// Delays, corruption, and transient failures at every rank count leave
/// the physics bitwise identical to the unfaulted serial run — the comm
/// layer retries and re-receives them all away.
#[test]
fn transient_faults_are_bitwise_invisible() {
    const STEPS: usize = 20;
    let serial = {
        let mut s = build_full(11);
        s.run(STEPS);
        s
    };
    for fault_seed in [5u64, 6, 7] {
        for nranks in [1usize, 2, 4] {
            let mut d = DistSim::with_fault_injection(
                build_full(11),
                nranks,
                FaultPlan::transient(fault_seed),
            );
            d.run(STEPS).unwrap();
            assert!(
                d.recovery_log.is_empty(),
                "transient faults must never escalate to recovery"
            );
            assert_sims_bitwise(&serial, &d.sim);
            if nranks > 1 {
                let stats = d.injector().unwrap().totals();
                assert!(
                    stats.transients_injected + stats.corruptions_injected + stats.delays_injected
                        > 0,
                    "seed {fault_seed}/{nranks} ranks injected nothing — rates too low to test anything"
                );
            }
        }
    }
}

/// Crashing a rank mid-run rolls back to the last checkpoint epoch,
/// shrinks to the survivors, replays — and ends bitwise identical to the
/// run that never faulted. Three seeds at 2 ranks, one at 4.
#[test]
fn crash_recovery_matches_unfaulted_run() {
    const STEPS: usize = 24;
    let serial = {
        let mut s = build_full(11);
        s.run(STEPS);
        s
    };
    let cases = [
        (1u64, 2usize, 1usize, 12u64),
        (2, 2, 1, 12),
        (3, 2, 1, 17),
        (1, 4, 2, 15),
    ];
    for (fault_seed, nranks, crash_rank, crash_step) in cases {
        let plan = FaultPlan {
            seed: fault_seed,
            delay_per_mille: 10,
            delay_us: 20,
            corrupt_per_mille: 10,
            transient_per_mille: 10,
            recv_timeout_ms: 500,
            crash: Some(CrashPoint {
                rank: crash_rank,
                step: crash_step,
                phase: None,
            }),
        };
        let mut d = DistSim::with_fault_injection(build_full(11), nranks, plan);
        d.run(STEPS).unwrap();
        assert_eq!(
            d.recovery_log.len(),
            1,
            "seed {fault_seed}: exactly one recovery expected"
        );
        let ev = d.recovery_log[0];
        assert_eq!(ev.dead_rank, crash_rank);
        assert_eq!(ev.detected_step, crash_step);
        assert_eq!(ev.survivors, nranks - 1);
        assert!(ev.epoch_step <= crash_step);
        assert_eq!(ev.replayed, crash_step + 1 - ev.epoch_step);
        assert_eq!(d.nranks(), nranks - 1);
        assert_sims_bitwise(&serial, &d.sim);
        // Each step is recorded once: neither the drained step nor the
        // replay of an already-recorded step adds a record, and the
        // unrecorded steps' fault counters land in a recorded one.
        let recs = d.sim.telemetry.records();
        let steps: Vec<u64> = recs.iter().map(|r| r.step).collect();
        assert_eq!(
            steps,
            (0..STEPS as u64).collect::<Vec<_>>(),
            "seed {fault_seed}"
        );
        let total = |f: fn(&FaultStats) -> u64| {
            recs.iter()
                .filter_map(|r| r.faults.as_ref())
                .map(f)
                .sum::<u64>()
        };
        assert_eq!(total(|f| f.recoveries), 1, "seed {fault_seed}");
        assert_eq!(total(|f| f.crashes), 1, "seed {fault_seed}");
        assert_eq!(
            total(|f| f.replayed_steps),
            ev.replayed,
            "seed {fault_seed}"
        );
    }
}

/// The entire fault schedule is a pure function of `(seed, plan)`: two
/// runs with the same pair produce identical per-step `FaultStats`,
/// identical recovery traces, and bitwise-identical final state.
#[test]
fn same_seed_and_plan_reproduce_everything() {
    const STEPS: usize = 14;
    let plan = FaultPlan {
        seed: 99,
        delay_per_mille: 15,
        delay_us: 10,
        corrupt_per_mille: 20,
        transient_per_mille: 20,
        recv_timeout_ms: 300,
        crash: Some(CrashPoint {
            rank: 1,
            step: 7,
            phase: None,
        }),
    };
    let run = || {
        let sim = build_light(4);
        let mut d = DistSim::with_fault_injection(sim, 2, plan.clone());
        d.set_epoch_interval(5);
        d.run(STEPS).unwrap();
        let per_step: Vec<Option<FaultStats>> =
            d.sim.telemetry.records().iter().map(|r| r.faults).collect();
        (d, per_step)
    };
    let (da, stats_a) = run();
    let (db, stats_b) = run();
    assert_eq!(da.recovery_log, db.recovery_log);
    assert_eq!(da.recovery_log.len(), 1);
    assert_eq!(da.recovery_log[0].epoch_step, 5);
    assert_eq!(
        stats_a, stats_b,
        "per-step fault stats must be reproducible"
    );
    assert!(
        stats_a.iter().flatten().any(|s| !s.is_empty()),
        "the plan must actually inject something"
    );
    assert_sims_bitwise(&da.sim, &db.sim);
    // And both recovered runs still match the unfaulted serial physics.
    let mut serial = build_light(4);
    serial.run(STEPS);
    assert_sims_bitwise(&serial, &da.sim);
}

/// A silent peer surfaces as a structured timeout carrying rank, peer,
/// phase, and step context — not a panic, not a hang.
#[test]
fn silent_peer_times_out_with_context() {
    let plan = FaultPlan {
        seed: 0,
        recv_timeout_ms: 20,
        ..FaultPlan::default()
    };
    let (mut eps, _inj) = mrpic::dist::faulty_mem_transport(2, plan);
    for ep in &mut eps {
        ep.set_step(9);
    }
    let tag = Tag {
        phase: Phase::Sum,
        seq: 3,
    };
    let e = eps[0].recv(1, tag).unwrap_err();
    assert_eq!(e.kind, TransportErrorKind::Timeout);
    assert_eq!((e.rank, e.peer), (0, 1));
    assert_eq!((e.phase, e.seq, e.step), (Phase::Sum, 3, 9));
}

/// Every step of a chaos run that loses a rank returns `Ok` — rollback
/// and replay happen inside `step` — and the final state digest equals
/// the unfaulted serial run's.
#[test]
fn recovered_crash_steps_return_ok_with_the_unfaulted_digest() {
    const STEPS: usize = 12;
    let mut serial = build_light(6);
    serial.run(STEPS);
    let plan = FaultPlan {
        seed: 8,
        delay_per_mille: 10,
        delay_us: 5,
        corrupt_per_mille: 10,
        transient_per_mille: 10,
        recv_timeout_ms: 300,
        crash: Some(CrashPoint {
            rank: 1,
            step: 6,
            phase: None,
        }),
    };
    let mut d = DistSim::with_fault_injection(build_light(6), 2, plan);
    d.set_epoch_interval(4);
    for _ in 0..STEPS {
        d.step().unwrap();
    }
    assert_eq!(d.recovery_log.len(), 1);
    assert_eq!(d.sim.state_digest(), serial.state_digest());
}

/// Rank 1's endpoint dies at step `at`: from then on its operations fail
/// as `Crashed`, and dropping its channels lets rank 0 see `PeerLost` at
/// once instead of waiting out a receive timeout.
struct DiesAt {
    inner: Option<MemEndpoint>,
    step: u64,
    at: u64,
}

impl DiesAt {
    fn live(&mut self, peer: usize, tag: Tag) -> Result<&mut MemEndpoint, TransportError> {
        if self.step >= self.at {
            self.inner = None;
        }
        let step = self.step;
        self.inner.as_mut().ok_or(TransportError::new(
            TransportErrorKind::Crashed,
            1,
            peer,
            tag,
            step,
        ))
    }
}

impl Endpoint for DiesAt {
    fn rank(&self) -> usize {
        1
    }

    fn nranks(&self) -> usize {
        2
    }

    fn send(&mut self, dst: usize, tag: Tag, payload: Vec<u8>) -> Result<(), TransportError> {
        self.live(dst, tag)?.send(dst, tag, payload)
    }

    fn recv(&mut self, src: usize, tag: Tag) -> Result<Vec<u8>, TransportError> {
        self.live(src, tag)?.recv(src, tag)
    }

    fn set_step(&mut self, step: u64) {
        self.step = step;
        if let Some(ep) = &mut self.inner {
            ep.set_step(step);
        }
    }
}

/// A peer lost on a run with no recovery plan (no fault injection, so
/// no checkpoint epochs) ends the run with an `Err` carrying the step,
/// phase and dead rank, which maps to exit code 4 — a value, not a panic.
#[test]
fn unrecoverable_rank_loss_is_an_error_value() {
    const AT: u64 = 3;
    let mut eps = mem_transport(2).into_iter();
    let ep0 = eps.next().unwrap();
    let ep1 = DiesAt {
        inner: eps.next(),
        step: 0,
        at: AT,
    };
    let mut d = DistSim::new(build_light(3), vec![Box::new(ep0), Box::new(ep1)]);
    for _ in 0..AT {
        d.step().unwrap();
    }
    let err = d.step().unwrap_err();
    let StepError::RankLoss(loss) = &err else {
        panic!("want an unrecoverable rank loss, got {err:?}");
    };
    assert_eq!((loss.dead_rank, loss.step), (1, AT));
    assert_eq!(loss.error.kind, TransportErrorKind::Crashed);
    assert!(d.recovery_log.is_empty());
    assert_eq!(Exit::from(err).code(), 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any seeded fault plan — random rates, random crash point, random
    /// rank count — ends bitwise identical to the unfaulted serial run.
    #[test]
    fn random_fault_plans_preserve_physics(
        fault_seed in 0u64..1_000,
        sim_seed in 0u64..100,
        delay in 0u32..25,
        corrupt in 0u32..25,
        transient in 0u32..25,
        nranks in 2usize..5,
        crash_roll in 0u64..100,
    ) {
        const STEPS: usize = 12;
        // Half the cases crash a random rank at a random step.
        let crash = (crash_roll % 2 == 0).then(|| CrashPoint {
            rank: (crash_roll / 2) as usize % nranks,
            step: 2 + (crash_roll / 7) % 8,
            phase: None,
        });
        let plan = FaultPlan {
            seed: fault_seed,
            delay_per_mille: delay,
            delay_us: 5,
            corrupt_per_mille: corrupt,
            transient_per_mille: transient,
            recv_timeout_ms: 300,
            crash,
        };
        let mut serial = build_light(sim_seed);
        serial.run(STEPS);
        let mut d = DistSim::with_fault_injection(build_light(sim_seed), nranks, plan.clone());
        d.set_epoch_interval(4);
        d.run(STEPS).unwrap();
        if let Some(cp) = plan.crash {
            prop_assert_eq!(d.recovery_log.len(), 1);
            prop_assert_eq!(d.recovery_log[0].dead_rank, cp.rank);
            prop_assert_eq!(d.nranks(), nranks - 1);
        } else {
            prop_assert!(d.recovery_log.is_empty());
        }
        assert_sims_bitwise(&serial, &d.sim);
    }
}
