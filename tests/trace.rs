//! mrpic-trace integration invariants: a traced multi-rank run produces
//! a well-formed span tree that survives the Chrome-trace export/parse
//! round trip, tracing is deterministic modulo timestamps and thread
//! assignment, and every telemetry record type round-trips through
//! serde.
//!
//! Tracing state (the enable flag, the per-thread rings) is
//! process-global, so every test touching it serializes on
//! one mutex — cargo's default parallel test threads would otherwise
//! interleave spans from concurrent tests into one trace.

use mrpic::core::exchange::RankStepComm;
use mrpic::core::laser::antenna_for_a0;
use mrpic::core::mr::MrConfig;
use mrpic::core::profile::Profile;
use mrpic::core::sim::{ShapeOrder, Simulation, SimulationBuilder};
use mrpic::core::species::Species;
use mrpic::core::telemetry::{FaultStats, StepRecord};
use mrpic::dist::DistSim;
use mrpic::field::fieldset::Dim;
use mrpic::trace::{analysis, chrome, Trace};
use mrpic_amr::{IndexBox, IntVect};

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Small moving-window MR laser-foil run (same family as tests/dist.rs).
fn build(seed: u64) -> Simulation {
    let mut sim = SimulationBuilder::new(Dim::Two)
        .domain(IntVect::new(64, 1, 24), [0.1e-6; 3], [0.0; 3])
        .periodic([false, false, true])
        .pml(8)
        .max_box(IntVect::new(16, 1, 12))
        .order(ShapeOrder::Quadratic)
        .cfl(0.6)
        .seed(seed)
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

/// Run `steps` steps of a 2-rank distributed sim under tracing and
/// return the collected trace.
fn traced_run(seed: u64, steps: usize) -> Trace {
    // Drain anything a previous test left in the rings.
    mrpic::trace::disable();
    let _ = mrpic::trace::take_trace();
    mrpic::trace::enable();
    let mut d = DistSim::in_process(build(seed), 2);
    for _ in 0..steps {
        d.step().unwrap();
        mrpic::trace::collect();
    }
    mrpic::trace::disable();
    let trace = mrpic::trace::take_trace();
    assert!(!d.sim.telemetry.tripped(), "traced run tripped a guard");
    trace
}

#[test]
fn traced_two_rank_run_produces_a_well_formed_trace() {
    let _g = lock();
    let trace = traced_run(7, 4);
    assert_eq!(trace.dropped, 0, "per-step collect must prevent drops");
    trace.check_nesting().expect("spans nest per thread track");
    // Every serial phase and both comm directions appear.
    for name in [
        "step",
        "sort",
        "particle",
        "box",
        "sum",
        "maxwell",
        "mr",
        "send",
        "recv",
        "recv_wait",
        "rank_fill",
        "rank_sum",
    ] {
        assert!(
            trace.named(name).next().is_some(),
            "missing '{name}' spans in traced run"
        );
    }
    assert_eq!(trace.named("step").count(), 4);
    assert_eq!(trace.nranks(), 2);
    // Both ranks exchanged real payload in both directions.
    let m = analysis::comm_matrix(&trace, 2);
    assert!(m[0][1] > 0 && m[1][0] > 0, "comm matrix {m:?}");
    assert_eq!(m[0][0], 0);
    assert_eq!(m[1][1], 0);
    // Rank analyses are available on a 2-rank trace.
    assert!(analysis::imbalance(&trace).is_some());
    let waits = analysis::recv_wait_seconds(&trace, 2);
    assert!(waits.iter().all(|&w| w >= 0.0));
    assert!(analysis::critical_path(&trace).is_some());
}

#[test]
fn chrome_export_round_trips_a_real_trace() {
    let _g = lock();
    let trace = traced_run(11, 3);
    let json = chrome::export(&trace);
    let back = chrome::parse(&json).expect("exported trace parses");
    back.check_nesting().expect("parsed trace nests");
    assert_eq!(back.signature(), trace.signature());
    assert_eq!(back.spans.len(), trace.spans.len());
    // Rank process tracks are labeled for Perfetto.
    assert!(json.contains("\"rank 0\""));
    assert!(json.contains("\"rank 1\""));
    assert!(json.contains("\"driver\""));
    // Comm analyses survive the round trip bit-for-bit (they only read
    // names, ranks, and args).
    assert_eq!(
        analysis::comm_matrix(&back, 2),
        analysis::comm_matrix(&trace, 2)
    );
}

#[test]
fn trace_signature_is_deterministic_across_runs() {
    let _g = lock();
    let a = traced_run(23, 3);
    let b = traced_run(23, 3);
    // Same seed, same step count: identical span tree modulo timestamps
    // and thread assignment — the signature hashes exactly that.
    assert_eq!(a.signature(), b.signature());
    assert_eq!(
        analysis::comm_matrix(&a, 2),
        analysis::comm_matrix(&b, 2),
        "per-pair payload bytes must be deterministic"
    );
}

#[test]
fn telemetry_records_round_trip_through_serde() {
    let rank = RankStepComm {
        rank: 3,
        sent_bytes: 4096,
        sent_messages: 7,
        recv_bytes: 2048,
        recv_messages: 5,
        exchange_seconds: 0.25,
        recv_wait_seconds: 0.125,
        particle_seconds: 1.5,
        migrated_out: 42,
        wire_bytes: 512,
        wire_flushes: 3,
    };
    let s = serde_json::to_string(&rank).unwrap();
    let back: RankStepComm = serde_json::from_str(&s).unwrap();
    assert_eq!(back.rank, 3);
    assert_eq!(back.sent_bytes, 4096);
    assert_eq!(back.sent_messages, 7);
    assert_eq!(back.recv_bytes, 2048);
    assert_eq!(back.recv_messages, 5);
    assert_eq!(back.exchange_seconds, 0.25);
    assert_eq!(back.recv_wait_seconds, 0.125);
    assert_eq!(back.particle_seconds, 1.5);
    assert_eq!(back.migrated_out, 42);
    assert_eq!(back.wire_bytes, 512);
    assert_eq!(back.wire_flushes, 3);
    // Records written before the recv-wait split still parse (field
    // defaults to zero, reproducing the old busy-time metric).
    let sparse: RankStepComm =
        serde_json::from_str(&s.replace("\"recv_wait_seconds\"", "\"_rw\"")).unwrap();
    assert_eq!(sparse.recv_wait_seconds, 0.0);

    let faults = FaultStats {
        delays_injected: 1,
        corruptions_injected: 2,
        corruptions_detected: 3,
        transients_injected: 4,
        retries: 5,
        crashes: 6,
        peer_losses_detected: 7,
        recoveries: 8,
        replayed_steps: 9,
    };
    let s = serde_json::to_string(&faults).unwrap();
    let back: FaultStats = serde_json::from_str(&s).unwrap();
    assert_eq!(back.retries, 5);
    assert_eq!(back.recoveries, 8);
    assert_eq!(back.delays_injected, 1);
    assert_eq!(back.peer_losses_detected, 7);
}

/// The busy-time metric must not count blocking recv-wait as load: a
/// rank stalled on a hot neighbor used to read as busy, biasing the
/// reported imbalance toward 1.0 exactly when the skew was worst.
#[test]
fn skewed_two_rank_imbalance_subtracts_recv_wait() {
    use mrpic::core::sim::rank_imbalance;

    // Deterministic core of the fix: a starved rank whose "exchange"
    // time is almost entirely blocking wait. Counting the wait as busy
    // reports near-perfect balance; subtracting it exposes the skew.
    let mk = |rank: usize, particle: f64, exchange: f64, wait: f64| RankStepComm {
        rank,
        particle_seconds: particle,
        exchange_seconds: exchange,
        recv_wait_seconds: wait,
        ..Default::default()
    };
    let ranks = vec![mk(0, 1.0, 0.1, 0.0), mk(1, 0.1, 1.0, 0.9)];
    let old_metric = {
        let busy: Vec<f64> = ranks
            .iter()
            .map(|r| r.particle_seconds + r.exchange_seconds)
            .collect();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        busy.iter().fold(0.0f64, |a, &b| a.max(b)) / mean
    };
    let new_metric = rank_imbalance(&ranks).unwrap();
    assert!(
        (old_metric - 1.0).abs() < 1e-12,
        "old metric reads balanced"
    );
    assert!(
        new_metric > 1.6,
        "recv-wait-corrected metric must expose the skew, got {new_metric}"
    );

    // And on a real skewed 2-rank run (the foil slab lives entirely in
    // rank 1's boxes): recv waits are measured, and the corrected
    // metric reports the imbalance the waits used to mask.
    let _g = lock();
    mrpic::trace::disable();
    let _ = mrpic::trace::take_trace();
    let mut d = DistSim::in_process(build(13), 2);
    d.run(6).unwrap();
    let rec = d.sim.telemetry.records().back().unwrap();
    assert_eq!(rec.ranks.len(), 2);
    assert!(
        rec.ranks.iter().any(|r| r.recv_wait_seconds > 0.0),
        "distributed exchanges must accumulate recv-wait"
    );
    for r in &rec.ranks {
        assert!(r.recv_wait_seconds <= r.exchange_seconds + 1e-9);
    }
    let measured = rank_imbalance(&rec.ranks).unwrap();
    assert!(measured > 1.0, "skewed run must report imbalance > 1");
    assert_eq!(rec.imbalance, Some(measured));
}

#[test]
fn step_records_from_a_traced_run_round_trip_through_serde() {
    let _g = lock();
    // A real traced distributed step populates ranks / imbalance; the
    // JSONL line must reconstruct all of them.
    mrpic::trace::disable();
    let _ = mrpic::trace::take_trace();
    let mut d = DistSim::in_process(build(5), 2);
    mrpic::trace::enable();
    d.step().unwrap();
    mrpic::trace::disable();
    let trace = mrpic::trace::take_trace();
    let rec = d.sim.telemetry.records().back().expect("one step recorded");
    assert_eq!(rec.ranks.len(), 2);
    assert!(rec.imbalance.is_some(), "2-rank step must report imbalance");
    // The message-bytes distribution derives from the `send` spans,
    // which carry exactly the messages and bytes the rank records count.
    let sends = analysis::distribution(&trace, "send", |s| s.arg1 as u64).expect("sends traced");
    let sent = |f: fn(&RankStepComm) -> u64| rec.ranks.iter().map(f).sum::<u64>();
    assert_eq!(sends.count as u64, sent(|r| r.sent_messages));
    let span_bytes: i64 = trace
        .spans
        .iter()
        .filter(|s| s.name == "send")
        .map(|s| s.arg1)
        .sum();
    assert_eq!(span_bytes as u64, sent(|r| r.sent_bytes));
    let s = serde_json::to_string(rec).unwrap();
    let back: StepRecord = serde_json::from_str(&s).unwrap();
    assert_eq!(back.step, rec.step);
    assert_eq!(back.ranks.len(), 2);
    assert_eq!(back.ranks[1].sent_bytes, rec.ranks[1].sent_bytes);
    assert_eq!(back.imbalance, rec.imbalance);
    // Pre-trace records (no imbalance field) still parse.
    let sparse: StepRecord =
        serde_json::from_str(&s.replace("\"imbalance\"", "\"_imbalance\"")).unwrap();
    assert!(sparse.imbalance.is_none());
}
