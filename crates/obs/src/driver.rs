//! The observer stack both CLI drivers arm around their step loop: the
//! flight recorder with its panic dump and SIGUSR1 poll, the per-rank
//! metrics samplers, and at the end the telemetry sync and the
//! guard-trip or transport-loss dump. Every piece folds the one result a
//! step has: its `StepRecord`, the latest entry of the telemetry.

use std::path::Path;

use mrpic_core::run::{Exit, Stepper};
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

/// The observability plane of one driver process.
pub struct DriverObs {
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
    pub fn arm(rank: usize, outdir: &Path, label: &str, publish: Publish, every: u64) -> Self {
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
    pub fn observe<S: Stepper>(&mut self, s: &S) {
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
    pub fn abort(&self, e: impl std::fmt::Display + Into<Exit>) -> Exit {
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
    pub fn finish(&mut self, sim: &mut Simulation) -> Exit {
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
