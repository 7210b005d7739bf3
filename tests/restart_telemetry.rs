//! Restart equivalence and telemetry integration.
//!
//! * A checkpoint taken mid-run of a moving-window MR simulation must
//!   continue bitwise identically to the uninterrupted run — fields and
//!   particles alike (the property that makes long campaign restarts
//!   trustworthy).
//! * The JSONL telemetry sink must emit one parseable record per step
//!   with phase times, comm counters, and probes at the configured
//!   cadence.
//! * The NaN/Inf sentinel must localize a poisoned field value to the
//!   step, phase, grid, component, and box where it first appeared.
//! * The per-phase times of every step record must partition the
//!   step's wall time, at one and at two threads, serial and on ranks.

use mrpic::amr::{IndexBox, IntVect};
use mrpic::core::checkpoint::Checkpoint;
use mrpic::core::laser::antenna_for_a0;
use mrpic::core::mr::MrConfig;
use mrpic::core::profile::Profile;
use mrpic::core::sim::{Precision, ShapeOrder, Simulation, SimulationBuilder};
use mrpic::core::species::Species;
use mrpic::core::telemetry::StepRecord;
use mrpic::dist::DistSim;
use mrpic::field::fieldset::Dim;
use rayon::ThreadPoolBuilder;

/// Moving-window MR run: laser chasing a plasma ramp, window on from t=0.
fn build_window_mr(seed: u64) -> Simulation {
    let mut sim = SimulationBuilder::new(Dim::Two)
        .domain(IntVect::new(64, 1, 24), [0.1e-6; 3], [0.0; 3])
        .periodic([false, false, true])
        .pml(6)
        .order(ShapeOrder::Quadratic)
        .cfl(0.6)
        .seed(seed)
        .sort_interval(7)
        .moving_window(0.0)
        .add_species(
            Species::electrons(
                "plasma",
                Profile::Ramped {
                    n0: 5.0e26,
                    axis: 0,
                    up_start: 2.0e-6,
                    up_end: 3.0e-6,
                    down_start: 1.0e3,
                    down_end: 1.0e3,
                },
                [2, 1, 2],
            )
            .with_thermal([5.0e5; 3]),
        )
        .add_laser(antenna_for_a0(1.2, 0.8e-6, 5.0e-15, 1.0e-6, 1.0e-6, 1.2e-6))
        .build();
    sim.add_mr_patch(MrConfig {
        patch: IndexBox::new(IntVect::new(28, 0, 4), IntVect::new(52, 1, 20)),
        rr: 2,
        n_transition: 2,
        npml: 6,
        subcycle: false,
    });
    sim
}

fn assert_bitwise_equal(a: &Simulation, b: &Simulation) {
    // Parent-grid fields, every component, every box, to the bit.
    for c in 0..3 {
        for fi in 0..a.fs.e[c].nfabs() {
            assert_eq!(
                a.fs.e[c].fab(fi).raw(),
                b.fs.e[c].fab(fi).raw(),
                "E[{c}] fab {fi}"
            );
            assert_eq!(
                a.fs.b[c].fab(fi).raw(),
                b.fs.b[c].fab(fi).raw(),
                "B[{c}] fab {fi}"
            );
        }
    }
    // MR fine-grid state.
    let (ma, mb) = (a.mr.as_ref().unwrap(), b.mr.as_ref().unwrap());
    for c in 0..3 {
        for fi in 0..ma.fine.e[c].nfabs() {
            assert_eq!(
                ma.fine.e[c].fab(fi).raw(),
                mb.fine.e[c].fab(fi).raw(),
                "MR fine E[{c}] fab {fi}"
            );
        }
    }
    // Particles.
    for (pa, pb) in a.parts[0].bufs.iter().zip(&b.parts[0].bufs) {
        assert_eq!(pa.len(), pb.len());
        for i in 0..pa.len() {
            assert_eq!(pa.x[i].to_bits(), pb.x[i].to_bits());
            assert_eq!(pa.z[i].to_bits(), pb.z[i].to_bits());
            assert_eq!(pa.ux[i].to_bits(), pb.ux[i].to_bits());
            assert_eq!(pa.uz[i].to_bits(), pb.uz[i].to_bits());
        }
    }
    assert_eq!(a.time.to_bits(), b.time.to_bits());
    assert_eq!(a.istep, b.istep);
    assert_eq!(a.fs.geom.x0, b.fs.geom.x0);
}

#[test]
fn restart_is_bitwise_on_moving_window_mr_run() {
    let mut a = build_window_mr(42);
    a.run(14);
    // Serialize through disk like a real restart would.
    let path = std::env::temp_dir().join("mrpic_restart_equiv.ckpt.json");
    Checkpoint::capture(&a).save(&path).unwrap();
    let ck = Checkpoint::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let mut b = build_window_mr(42);
    ck.restore(&mut b).expect("checkpoint must restore");
    // The window must have actually shifted for this test to mean much.
    assert!(a.fs.geom.x0[0] > 0.0, "window never moved");
    assert_bitwise_equal(&a, &b);
    // Continue both runs well past further window shifts and a re-sort.
    a.run(12);
    b.run(12);
    assert_bitwise_equal(&a, &b);
}

#[test]
fn telemetry_jsonl_records_are_complete() {
    let mut sim = build_window_mr(7);
    sim.telemetry.cfg.probe_interval = 4;
    let path = std::env::temp_dir().join("mrpic_telemetry_test.jsonl");
    sim.telemetry.open_jsonl(&path).unwrap();
    sim.run(10);
    sim.telemetry.flush();
    assert!(sim.telemetry.write_error().is_none());

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let recs: Vec<StepRecord> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("every line is one JSON record"))
        .collect();
    assert_eq!(recs.len(), 10);
    for (i, r) in recs.iter().enumerate() {
        assert_eq!(r.step, i as u64);
        assert!(r.dt > 0.0 && r.seconds > 0.0);
        // Particle work happened and was timed.
        assert!(r.pushed > 0, "step {i} pushed nothing");
        assert!(
            r.phases.push > 0.0 && r.phases.deposit > 0.0 && r.phases.maxwell > 0.0,
            "step {i} missing phase times: {:?}",
            r.phases
        );
        // Guard exchanges happened and were counted.
        assert!(
            r.comm.exchanges > 0 && r.comm.bytes > 0,
            "step {i} comm: {:?}",
            r.comm
        );
        assert_eq!(r.particles.len(), 1);
        assert_eq!(r.particles[0].name, "plasma");
        assert!(r.particles[0].count > 0);
        // Probes exactly at the configured cadence.
        assert_eq!(r.probes.is_some(), i % 4 == 0, "probe cadence at step {i}");
        if let Some(p) = &r.probes {
            assert!(p.field_energy.is_finite() && p.field_energy >= 0.0);
            assert!(p.gauss_residual.is_finite());
        }
        assert!(r.guard.is_none(), "clean run must not trip: {:?}", r.guard);
    }
    // Cached exchange plans: a window shift invalidates plans, and the
    // arrays not refilled inside the shift (J, MR, PML) rebuild theirs on
    // the following step — but any step further from a shift must not
    // rebuild anything.
    let mut checked = 0;
    for (i, r) in recs.iter().enumerate().skip(2) {
        if r.window_shifts == 0 && recs[i - 1].window_shifts == 0 {
            assert_eq!(
                r.comm.plan_builds, 0,
                "steady state rebuilt plans at step {}",
                r.step
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no shift-free steps to check");
    // The in-memory ring saw the same records.
    assert_eq!(sim.telemetry.records().len(), 10);
    assert_eq!(sim.telemetry.last().unwrap().step, 9);
}

#[test]
fn nan_sentinel_localizes_poisoned_field() {
    // Vacuum sim: nothing else can produce a NaN, and no particles means
    // the poison cannot smear into positions before the scan runs.
    let mut sim = SimulationBuilder::new(Dim::Two)
        .domain(IntVect::new(32, 1, 16), [0.1e-6; 3], [0.0; 3])
        .periodic([true, true, true])
        .max_box(IntVect::new(16, 1, 16))
        .build();
    assert!(sim.fs.e[1].nfabs() > 1, "want a multi-box layout");
    // Poison the interior of box 1, several cells from any seam: one
    // Maxwell step spreads a NaN by at most the stencil width, so the
    // scan must still attribute it to box 1.
    let vb = sim.fs.e[1].fab(1).valid_pts();
    let p = IntVect::new(vb.lo.x + 8, vb.lo.y, vb.lo.z + 8);
    sim.fs.e[1].fab_mut(1).set(0, p, f64::NAN);
    sim.step();
    assert!(sim.telemetry.tripped());
    let trip = &sim.telemetry.trips()[0];
    assert_eq!(trip.step, 0);
    assert_eq!(trip.phase, "maxwell");
    assert_eq!(trip.grid, "parent");
    assert_eq!(trip.component, "Ey");
    assert_eq!(trip.box_id, 1);
    // The step record carries the same trip.
    assert_eq!(sim.telemetry.last().unwrap().guard.as_ref(), Some(trip));
}

/// Thermal plasma of `ppc` particles per cell (x, z) in 16-cell boxes.
fn plasma_deck(periodic: bool, ppc: usize) -> SimulationBuilder {
    SimulationBuilder::new(Dim::Two)
        .domain(IntVect::new(48, 1, 32), [0.1e-6; 3], [0.0; 3])
        .periodic([periodic, false, true])
        .max_box(IntVect::new(16, 1, 16))
        .order(ShapeOrder::Quadratic)
        .cfl(0.6)
        .seed(5)
        .sort_interval(4)
        .add_species(
            Species::electrons("e", Profile::Uniform { n0: 1.0e25 }, [ppc, 1, ppc])
                .with_thermal([5.0e5; 3]),
        )
}

/// Non-periodic plasma under one rr = 2 patch, terminated by PML.
fn mr_deck() -> Simulation {
    let mut sim = plasma_deck(false, 2).pml(6).filter_passes(1).build();
    sim.add_mr_patch(MrConfig {
        patch: IndexBox::new(IntVect::new(16, 0, 8), IntVect::new(32, 1, 24)),
        rr: 2,
        n_transition: 2,
        npml: 6,
        subcycle: false,
    });
    sim
}

/// The serial decks of [`phases_partition_the_step`].
fn partition_decks() -> [(&'static str, Simulation); 3] {
    let window = plasma_deck(false, 2)
        .pml(6)
        .moving_window(0.0)
        .precision(Precision::F32Particles);
    [
        ("periodic thermal plasma", plasma_deck(true, 3).build()),
        ("moving window, f32 particles", window.build()),
        ("one MR patch", mr_deck()),
    ]
}

#[test]
fn phases_partition_the_step() {
    const STEPS: usize = 12;
    let check = |label: &str, threads: usize, sim: &Simulation| {
        let recs = sim.telemetry.records();
        assert_eq!(recs.len(), STEPS, "{label}");
        for r in recs {
            let ph = &r.phases;
            let ctx = format!("{label} at {threads} thread(s), step {}: {ph:?}", r.step);
            assert!(
                (ph.total() - r.seconds).abs() <= 1e-6,
                "phases sum to {} s of a {} s step; {ctx}",
                ph.total(),
                r.seconds
            );
            for v in [
                ph.gather,
                ph.push,
                ph.deposit,
                ph.sum,
                ph.maxwell,
                ph.fill,
                ph.mr,
                ph.lb,
                ph.sort,
                ph.redistribute,
                ph.window,
                ph.other,
            ] {
                assert!(v >= 0.0, "negative phase; {ctx}");
            }
            assert!(ph.fill <= r.seconds, "fill exceeds the step; {ctx}");
        }
        let probed = recs.iter().filter(|r| r.probes.is_some()).count();
        assert!(probed > 0, "{label}: no probe step");
    };
    for threads in [1, 2] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            for (label, mut sim) in partition_decks() {
                sim.telemetry.cfg.probe_interval = 5;
                sim.run(STEPS);
                check(label, threads, &sim);
            }
            let mut sim = mr_deck();
            sim.telemetry.cfg.probe_interval = 5;
            let mut d = DistSim::in_process(sim, 2);
            d.run(STEPS).unwrap();
            check("one MR patch on 2 ranks", threads, &d.sim);
        });
    }
}
