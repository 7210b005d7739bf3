//! Elastic rank-count invariants: a planned mid-run `Grow`/`Shrink`
//! passes through its checkpoint-epoch barrier, cost-seeded SFC
//! re-adoption, and transport rebuild without perturbing one bit of
//! physics — the continued run is `.to_bits()`-identical to a fresh,
//! uninterrupted run at the destination rank count — a rank crash
//! landing inside a grow window recovers cleanly through the barrier,
//! and a plan that would shrink below one rank is refused up front.

mod common;

use common::{assert_mesh_dir_clean, assert_sims_bitwise, build, mesh_dir};
use mrpic::core::run::Exit;
use mrpic::dist::{
    elastic_peak, parse_elastic_plan, CrashPoint, DistSim, ElasticAction, ElasticEvent, FaultPlan,
    MeshCfg, ResizeEvent, StepError,
};

/// Growing 2 → 4 ranks mid-run is bitwise identical to having run on 4
/// ranks from step zero.
#[test]
fn grow_mid_run_matches_fresh_run_at_final_count() {
    const STEPS: usize = 24;
    let fresh = {
        let mut d = DistSim::in_process(build(11, true), 4);
        d.run(STEPS).unwrap();
        d
    };
    let mut d = DistSim::in_process(build(11, true), 2);
    d.set_elastic_plan(vec![ElasticEvent {
        step: 12,
        action: ElasticAction::Grow(2),
    }])
    .unwrap();
    d.run(STEPS).unwrap();
    assert_eq!(d.nranks(), 4);
    assert_eq!(
        d.resize_log,
        vec![ResizeEvent {
            step: 12,
            from: 2,
            to: 4
        }]
    );
    assert_sims_bitwise(&fresh.sim, &d.sim);
}

/// Shrinking 4 → 2 ranks mid-run is bitwise identical to having run on
/// 2 ranks from step zero.
#[test]
fn shrink_mid_run_matches_fresh_run_at_final_count() {
    const STEPS: usize = 24;
    let fresh = {
        let mut d = DistSim::in_process(build(11, true), 2);
        d.run(STEPS).unwrap();
        d
    };
    let mut d = DistSim::in_process(build(11, true), 4);
    d.set_elastic_plan(vec![ElasticEvent {
        step: 12,
        action: ElasticAction::Shrink(2),
    }])
    .unwrap();
    d.run(STEPS).unwrap();
    assert_eq!(d.nranks(), 2);
    assert_eq!(
        d.resize_log,
        vec![ResizeEvent {
            step: 12,
            from: 4,
            to: 2
        }]
    );
    assert_sims_bitwise(&fresh.sim, &d.sim);
}

/// A full grow-then-shrink round trip parsed from the CLI spec syntax
/// lands back on the serial physics, with both resizes on the log.
#[test]
fn parsed_grow_shrink_round_trip_matches_serial() {
    const STEPS: usize = 24;
    let serial = {
        let mut s = build(11, true);
        s.run(STEPS);
        s
    };
    let mut d = DistSim::in_process(build(11, true), 2);
    d.set_elastic_plan(parse_elastic_plan("shrink:16:1,grow:8:2").unwrap())
        .unwrap();
    d.run(STEPS).unwrap();
    assert_eq!(
        d.resize_log,
        vec![
            ResizeEvent {
                step: 8,
                from: 2,
                to: 4
            },
            ResizeEvent {
                step: 16,
                from: 4,
                to: 3
            },
        ],
        "events must fire in step order regardless of spec order"
    );
    assert_eq!(d.nranks(), 3);
    assert_sims_bitwise(&serial, &d.sim);
}

#[test]
fn elastic_plan_spec_rejects_malformed_events() {
    assert!(parse_elastic_plan("grow:10:2").is_ok());
    assert!(parse_elastic_plan("").unwrap().is_empty());
    for bad in [
        "grow:10",        // missing delta
        "grow:ten:2",     // non-numeric step
        "grow:10:0",      // zero delta
        "explode:10:2",   // unknown action
        "grow:10:2:more", // trailing field
    ] {
        assert!(parse_elastic_plan(bad).is_err(), "accepted {bad:?}");
    }
}

/// A rank crash landing in the middle of a grow window — the crashing
/// rank is one that only exists *after* the resize — rolls back to the
/// barrier epoch captured by the resize itself, shrinks to the
/// survivors, replays, and still finishes on the serial physics.
#[test]
fn crash_during_grow_barrier_recovers_cleanly() {
    const STEPS: usize = 24;
    let serial = {
        let mut s = build(11, true);
        s.run(STEPS);
        s
    };
    let plan = FaultPlan {
        seed: 5,
        crash: Some(CrashPoint {
            rank: 2,
            step: 12,
            phase: None,
        }),
        ..FaultPlan::default()
    };
    let mut d = DistSim::with_fault_injection(build(11, true), 2, plan);
    d.set_elastic_plan(vec![ElasticEvent {
        step: 12,
        action: ElasticAction::Grow(2),
    }])
    .unwrap();
    d.run(STEPS).unwrap();
    assert_eq!(
        d.resize_log,
        vec![ResizeEvent {
            step: 12,
            from: 2,
            to: 4
        }]
    );
    assert_eq!(d.recovery_log.len(), 1, "the planted crash must surface");
    let ev = d.recovery_log[0];
    assert_eq!(ev.dead_rank, 2);
    assert_eq!(
        ev.epoch_step, 12,
        "rollback must land on the grow-barrier epoch, not an earlier one"
    );
    assert_eq!(ev.survivors, 3);
    assert_eq!(d.nranks(), 3);
    assert_eq!(d.sim.istep, STEPS as u64);
    assert_sims_bitwise(&serial, &d.sim);
}

/// Elastic growth over the real socket transport: the resize tears the
/// generation-0 mesh down, handshakes a generation-1 mesh at the new
/// rank count, and continues bit-identically — leaving no socket files.
#[test]
fn grow_over_socket_mesh_matches_fresh_run() {
    const STEPS: usize = 16;
    let fresh = {
        let mut d = DistSim::in_process(build(11, true), 3);
        d.run(STEPS).unwrap();
        d
    };
    let dir = mesh_dir("elastic-grow");
    let mut d =
        DistSim::socket_mesh(build(11, true), MeshCfg::uds(dir.clone(), 2, 0xE1A5)).unwrap();
    d.set_elastic_plan(vec![ElasticEvent {
        step: 8,
        action: ElasticAction::Grow(1),
    }])
    .unwrap();
    d.run(STEPS).unwrap();
    assert_eq!(d.nranks(), 3);
    assert_sims_bitwise(&fresh.sim, &d.sim);
    assert_mesh_dir_clean(&dir);
}

/// A plan that would shrink below one rank is refused when it is
/// installed — before any step runs — as a usage error naming the
/// event, the same walk that sizes a process mesh's worker count.
#[test]
fn over_shrinking_plan_is_refused_before_any_step() {
    let mut d = DistSim::in_process(build(11, true), 2);
    let plan = parse_elastic_plan("shrink:3:2").unwrap();
    let err = d.set_elastic_plan(plan.clone()).unwrap_err();
    assert!(
        matches!(
            err,
            StepError::OverShrink {
                step: 3,
                ranks: 2,
                by: 2
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("shrink:3:2"), "{err}");
    assert_eq!(Exit::from(err), Exit::Usage);
    assert_eq!(elastic_peak(2, &plan).unwrap_err().exit().code(), 2);
    assert_eq!(d.sim.istep, 0);
    // The plan was not installed: the run proceeds at 2 ranks.
    d.run(4).unwrap();
    assert_eq!(d.nranks(), 2);
    assert!(d.resize_log.is_empty());

    let ok = parse_elastic_plan("grow:4:2,shrink:8:3").unwrap();
    assert_eq!(elastic_peak(2, &ok).unwrap(), 4);
    assert!(d.resize(0).is_err(), "resizing to zero ranks is an error");
}
