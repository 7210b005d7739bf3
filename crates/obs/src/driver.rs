//! The one run driver: `mrpic_run` (serial or in-process ranks) and
//! each `mrpic_rank` worker of a socket/tcp mesh hand their simulation
//! to [`Driver::run`], which opens the telemetry sink, arms the
//! observer stack, steps the shared `RunSession`, reports, and writes
//! the output set. So every transport produces the same files.
//!
//! The observer stack is the flight recorder with its panic dump and
//! SIGUSR1 poll, the per-rank metrics samplers, the energy diagnostics,
//! and at the end the telemetry sync and the guard-trip or
//! transport-loss dump. Every piece folds the one result a step has:
//! its `StepRecord`, the latest entry of the telemetry.

use std::path::Path;

use mrpic_core::diag::{electron_spectrum, write_field_slice, FieldPick, TimeSeries};
use mrpic_core::run::{Exit, RunSession, Stepper};
use mrpic_core::sim::Simulation;

use crate::recorder::{
    arm_sigusr1, dump_recorder, install_panic_dump, install_recorder, sigusr1_pending,
    with_recorder, FlightEvent, FlightRecorder,
};
use crate::{MetricsHub, RankMetrics, RankSampler};

/// Where a driver's rank samples go.
pub enum Publish {
    /// Nowhere: no sampler runs.
    Off,
    /// One sampler per in-process rank of the stepper, merged into the
    /// hub; ranks a shrink removed age out of it.
    Hub(MetricsHub),
    /// The process's own rank (a worker's), handed to the closure.
    Own(Box<dyn FnMut(RankMetrics)>),
}

/// One driver process's run, as [`Driver::run`] executes it.
pub struct Driver<'a> {
    /// This process's rank. Every rank arms its flight recorder into
    /// `outdir`; rank 0 alone reports: the telemetry sink, the energy
    /// and end-of-run lines, the output set and `summary.json`.
    pub rank: usize,
    pub outdir: &'a Path,
    /// Prefix of the driver's stderr lines.
    pub label: &'a str,
    pub publish: Publish,
    /// Publish samples every this many steps.
    pub interval: u64,
    /// Energy diagnostics every this many steps (0 = none), as
    /// `RunConfig::diag_interval`.
    pub diag_interval: u64,
}

impl Driver<'_> {
    /// Run `sim` to the end of `session`: open the telemetry sink, arm
    /// the observer stack, turn `sim` into the stepper with `build` (its
    /// error ends the run like a step's), step it with the recorder and
    /// samplers, then `extra`, then the energy diagnostics observing
    /// each step, then report, write the output set (`energy.json`,
    /// `spectrum_<species>.csv`, `ex/ey/bz.csv`, `summary.json`) and
    /// finish. Returns the run's exit.
    pub fn run<S: Stepper, E: std::fmt::Display + Into<Exit>>(
        self,
        mut sim: Simulation,
        build: impl FnOnce(Simulation) -> Result<S, E>,
        mut session: RunSession,
        extra: &mut [&mut dyn FnMut(&mut S)],
    ) -> Exit {
        let (outdir, label) = (self.outdir, self.label);
        let reports = self.rank == 0;
        if reports {
            if let Err(e) = std::fs::create_dir_all(outdir) {
                eprintln!("{label}cannot create output dir {}: {e}", outdir.display());
                return Exit::Usage;
            }
            if let Err(e) = sim.telemetry.open_jsonl(&outdir.join("telemetry.jsonl")) {
                eprintln!("{label}warning: cannot open telemetry sink: {e}");
            }
        }
        let mut obs = DriverObs::arm(self.rank, outdir, label, self.publish, self.interval);
        let mut s = match build(sim) {
            Ok(s) => s,
            Err(e) => return obs.abort(e),
        };
        let ranks = s.nranks();
        let diag_interval = if reports { self.diag_interval } else { 0 };
        let mut energy = TimeSeries::new("total_energy_joules");
        let mut each_step = |s: &mut S| {
            obs.observe(s);
            for observe in extra.iter_mut() {
                observe(s);
            }
            let sim = s.sim();
            if diag_interval > 0 && sim.istep.is_multiple_of(diag_interval) {
                let (fe, ke) = sim.total_energy();
                energy.push(sim.time, fe + ke);
                println!(
                    "step {:6} | t = {:9.3e} s | E_field = {:9.3e} J | E_kin = {:9.3e} J | np = {}",
                    sim.istep,
                    sim.time,
                    fe,
                    ke,
                    sim.total_particles(),
                );
            }
        };
        if let Err(e) = session.run(&mut s, u64::MAX, &mut [&mut each_step]) {
            return obs.abort(e);
        }
        if reports {
            report(&session, &s);
            if let Err((what, e)) = write_outputs(&session, &s, &energy, ranks, outdir) {
                eprintln!("{label}cannot write {what}: {e}");
                return Exit::Usage;
            }
        }
        obs.finish(s.sim_mut())
    }
}

/// The end-of-run lines: wall time, imbalance, LB adoptions, the
/// stepper's recovery/resize events and the phase totals.
fn report<S: Stepper>(session: &RunSession, s: &S) {
    let wall = session.wall_seconds;
    let sim = s.sim();
    println!(
        "done: {} steps in {:.1} s wall ({:.1} ms/step)",
        sim.istep,
        wall,
        1e3 * wall / sim.istep.max(1) as f64,
    );
    if let Some(x) = session.mean_imbalance() {
        println!("mean telemetry imbalance: {x:.3}");
    }
    if session.lb_adoptions > 0 {
        println!("live LB: adopted {} rebalance(s)", session.lb_adoptions);
    }
    for line in s.event_lines() {
        println!("{line}");
    }
    let ph = sim.telemetry.phase_totals();
    println!(
        "phase seconds (last {} steps): gather {:.3} | push {:.3} | deposit {:.3} | sum {:.3} \
         | maxwell {:.3} | fill {:.3} | mr {:.3} | other {:.3}",
        sim.telemetry.records().len(),
        ph.gather,
        ph.push,
        ph.deposit,
        ph.sum,
        ph.maxwell,
        ph.fill,
        ph.mr,
        ph.other,
    );
}

/// Write the run's output set into `outdir`; an error names the file.
fn write_outputs<S: Stepper>(
    session: &RunSession,
    s: &S,
    energy: &TimeSeries,
    ranks: usize,
    outdir: &Path,
) -> Result<(), (&'static str, std::io::Error)> {
    let sim = s.sim();
    energy
        .write_json(&outdir.join("energy.json"))
        .map_err(|e| ("energy.json", e))?;
    for (si, sp) in sim.species.iter().enumerate() {
        electron_spectrum(&sim.parts[si], 50.0, 100)
            .write_csv(&outdir.join(format!("spectrum_{}.csv", sp.name)))
            .map_err(|e| ("spectrum csv", e))?;
    }
    for (name, pick) in [
        ("ex", FieldPick::E(0)),
        ("ey", FieldPick::E(1)),
        ("bz", FieldPick::B(2)),
    ] {
        write_field_slice(&sim.fs, pick, 0, &outdir.join(format!("{name}.csv")), 1)
            .map_err(|e| ("field slice csv", e))?;
    }
    session
        .summary(s, ranks)
        .write(&outdir.join("summary.json"))
        .map_err(|e| ("summary.json", e))
}

/// The observability plane of one driver process.
struct DriverObs {
    /// Prefix of the driver's stderr lines.
    label: String,
    publish: Publish,
    /// Publish samples every this many steps.
    interval: u64,
    samplers: Vec<RankSampler>,
}

impl DriverObs {
    /// Arm the flight recorder of `rank` (256 events, dumped to
    /// `<outdir>/blackbox.json`), its panic dump and SIGUSR1.
    fn arm(rank: usize, outdir: &Path, label: &str, publish: Publish, every: u64) -> Self {
        install_recorder(FlightRecorder::new(rank, outdir.join("blackbox.json"), 256));
        install_panic_dump();
        arm_sigusr1();
        let mut samplers = Vec::new();
        if let Publish::Own(_) = publish {
            samplers.push(RankSampler::new(rank));
        }
        Self {
            label: label.to_string(),
            publish,
            interval: every.max(1),
            samplers,
        }
    }

    /// The per-step observer: the step's record goes into the recorder
    /// and every sampler, samples go out at the cadence, and a pending
    /// SIGUSR1 dumps the recorder.
    fn observe<S: Stepper>(&mut self, s: &S) {
        if let Some(rec) = s.sim().telemetry.last() {
            let record = rec.clone();
            with_recorder(|r| r.push(FlightEvent::Step { record }));
            if let Publish::Hub(hub) = &self.publish {
                let n = s.nranks();
                while self.samplers.len() < n {
                    self.samplers.push(RankSampler::new(self.samplers.len()));
                }
                self.samplers.truncate(n);
                hub.retain_ranks(n);
            }
            for smp in &mut self.samplers {
                smp.observe(rec);
                smp.set_generation(s.resizes() as u64);
            }
            if s.sim().istep.is_multiple_of(self.interval) {
                self.publish_samples();
            }
        }
        if sigusr1_pending() {
            if let Some(p) = dump_recorder("sigusr1") {
                eprintln!("SIGUSR1: flight recorder -> {}", p.display());
            }
        }
    }

    fn publish_samples(&mut self) {
        for smp in self.samplers.iter_mut() {
            let m = smp.sample();
            match &mut self.publish {
                Publish::Off => {}
                Publish::Hub(hub) => hub.update_rank(m),
                Publish::Own(push) => push(m),
            }
        }
    }

    /// The run ended on a step error: report it, dump the recorder on a
    /// transport loss, and return the exit it maps to.
    fn abort(&self, e: impl std::fmt::Display + Into<Exit>) -> Exit {
        eprintln!("{}run aborted: {e}", self.label);
        let exit = e.into();
        if exit == Exit::TransportLoss {
            self.dump("transport_loss");
        }
        exit
    }

    /// The run completed: publish one last sample per rank, make the
    /// telemetry durable, and report a guard trip (dumping the
    /// recorder). Returns the run's exit.
    fn finish(&mut self, sim: &mut Simulation) -> Exit {
        self.publish_samples();
        sim.telemetry.sync();
        if let Some(e) = sim.telemetry.write_error() {
            eprintln!("{}warning: telemetry writes failed: {e}", self.label);
        }
        let Some(t) = sim.telemetry.trips().first() else {
            return Exit::Clean;
        };
        eprintln!(
            "{}INVARIANT GUARD TRIPPED at step {}: non-finite {} on {} (box {}, after {})",
            self.label, t.step, t.component, t.grid, t.box_id, t.phase,
        );
        self.dump("guard_trip");
        Exit::GuardTrip
    }

    fn dump(&self, reason: &str) {
        if let Some(p) = dump_recorder(reason) {
            eprintln!("{}flight recorder -> {}", self.label, p.display());
        }
    }
}
