//! The one run loop every driver shares.
//!
//! `mrpic_run` (serial or in-process ranks) and each `mrpic_rank`
//! worker (both through the run driver `mrpic_obs::Driver::run`), and
//! every `mrpic-serve` job slice advance a [`Stepper`] through a
//! [`RunSession`]. The session owns what used to be hand-wired per
//! driver: the stop rule (`t_end`, a step cap, an optional wall-time
//! ceiling, a guard trip), MR patch removal (re-arming the recovery epoch
//! of a distributed driver), the run tallies (`lb_adoptions`, the mean
//! telemetry imbalance, wall time) and the [`RunSummary`] written as
//! `summary.json`. What differs per driver — flight recorder, metrics
//! sampling, trace draining, a streaming sink — plugs in as per-step
//! observers.
//!
//! Failures are values: a stepper's error comes back from
//! [`RunSession::run`] and maps onto the process [`Exit`] contract.

use std::convert::Infallible;
use std::time::Instant;

use serde::Serialize;

use crate::sim::Simulation;

/// The process exit contract shared by every binary. Variants are
/// declared in severity order, so the worst of several outcomes (a
/// supervisor folding its workers) is their maximum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Exit {
    /// Completed, guard-clean: status 0.
    Clean,
    /// The NaN/Inf invariant guard tripped: status 3.
    GuardTrip,
    /// A rank (or the server connection) was lost: status 4.
    TransportLoss,
    /// Usage, config or IO error: status 2.
    Usage,
}

impl Exit {
    pub fn code(self) -> i32 {
        match self {
            Exit::Clean => 0,
            Exit::Usage => 2,
            Exit::GuardTrip => 3,
            Exit::TransportLoss => 4,
        }
    }

    /// Classify a child process's exit status. A process killed by a
    /// signal (`None`) lost its rank; a status outside the contract (a
    /// panic's 101, say) counts as the most severe, a usage error.
    pub fn from_code(code: Option<i32>) -> Self {
        match code {
            Some(0) => Exit::Clean,
            Some(3) => Exit::GuardTrip,
            Some(4) | None => Exit::TransportLoss,
            Some(_) => Exit::Usage,
        }
    }
}

impl From<Infallible> for Exit {
    fn from(e: Infallible) -> Self {
        match e {}
    }
}

/// Something a [`RunSession`] can step: the serial [`Simulation`] or a
/// distributed driver wrapping one.
pub trait Stepper {
    /// Why a step could not complete.
    type Error: std::fmt::Display + Into<Exit>;

    fn sim(&self) -> &Simulation;
    fn sim_mut(&mut self) -> &mut Simulation;
    /// Advance one step; its result is the step's record, the latest in
    /// `sim().telemetry`.
    fn advance(&mut self) -> Result<(), Self::Error>;
    /// Re-arm crash recovery after out-of-loop state surgery.
    fn refresh_epoch(&mut self) {}
    fn nranks(&self) -> usize {
        1
    }
    /// Elastic resizes performed so far.
    fn resizes(&self) -> usize {
        0
    }
    /// Rank losses recovered so far.
    fn recoveries(&self) -> usize {
        0
    }
    /// Step at which the first recovered rank loss surfaced.
    fn first_loss_step(&self) -> Option<u64> {
        None
    }
    /// The run's recovered rank losses and resizes, one report line each.
    fn event_lines(&self) -> Vec<String> {
        Vec::new()
    }
}

impl Stepper for Simulation {
    type Error = Infallible;

    fn sim(&self) -> &Simulation {
        self
    }

    fn sim_mut(&mut self) -> &mut Simulation {
        self
    }

    fn advance(&mut self) -> Result<(), Infallible> {
        self.step();
        Ok(())
    }
}

/// Why a [`RunSession::run`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// `t_end` or the step cap was reached.
    Completed,
    /// The call's step allowance ran out first.
    Quantum,
    /// The NaN/Inf invariant guard tripped.
    GuardTrip,
    /// The wall-time ceiling was exceeded.
    WallCeiling,
}

/// Stop rule, MR patch removals and run tallies of one run. It holds no
/// simulation, so it survives a job being parked and resumed.
#[derive(Clone, Debug)]
pub struct RunSession {
    t_end: f64,
    max_steps: u64,
    wall_ceiling: Option<f64>,
    removals: Vec<f64>,
    removed: Vec<bool>,
    /// Rebalances the live load-balance policy adopted.
    pub lb_adoptions: u64,
    imb_sum: f64,
    imb_steps: u64,
    /// Wall seconds spent inside [`Self::run`].
    pub wall_seconds: f64,
}

impl RunSession {
    /// Run to `t_end`, removing the MR patch once the simulation time
    /// passes each of `removals` (as returned by `RunConfig::build`).
    pub fn new(t_end: f64, removals: Vec<f64>) -> Self {
        Self {
            t_end,
            max_steps: u64::MAX,
            wall_ceiling: None,
            removed: vec![false; removals.len()],
            removals,
            lb_adoptions: 0,
            imb_sum: 0.0,
            imb_steps: 0,
            wall_seconds: 0.0,
        }
    }

    /// Also stop once the step counter reaches `n`.
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Also stop once the accumulated wall time exceeds `seconds`.
    pub fn wall_ceiling(mut self, seconds: Option<f64>) -> Self {
        self.wall_ceiling = seconds;
        self
    }

    /// Step until the run is done, a guard trips, the wall ceiling is
    /// hit, or `quantum` steps have run in this call. After every step
    /// each observer sees the stepper, in order, before patch removal.
    pub fn run<S: Stepper>(
        &mut self,
        s: &mut S,
        quantum: u64,
        observers: &mut [&mut dyn FnMut(&mut S)],
    ) -> Result<Stop, S::Error> {
        let t0 = Instant::now();
        let wall_before = self.wall_seconds;
        let first = s.sim().istep;
        let out = loop {
            let sim = s.sim();
            if sim.time >= self.t_end || sim.istep >= self.max_steps {
                break Ok(Stop::Completed);
            }
            if sim.istep - first >= quantum {
                break Ok(Stop::Quantum);
            }
            if let Err(e) = s.advance() {
                break Err(e);
            }
            if let Some(rec) = s.sim().telemetry.last() {
                self.lb_adoptions += rec.rebalances;
                // Run mean of the per-step imbalance (max/mean busy
                // across ranks, per-box cost spread when serial): the
                // load-balance A/B gate compares it across summary files.
                if let Some(x) = rec.imbalance {
                    self.imb_sum += x;
                    self.imb_steps += 1;
                }
            }
            for observe in observers.iter_mut() {
                observe(s);
            }
            for (tr, removed) in self.removals.iter().zip(&mut self.removed) {
                if !*removed && s.sim().time >= *tr {
                    s.sim_mut().remove_mr_patch();
                    s.refresh_epoch();
                    *removed = true;
                }
            }
            if s.sim().telemetry.tripped() {
                break Ok(Stop::GuardTrip);
            }
            if self
                .wall_ceiling
                .is_some_and(|c| wall_before + t0.elapsed().as_secs_f64() > c)
            {
                break Ok(Stop::WallCeiling);
            }
        };
        self.wall_seconds = wall_before + t0.elapsed().as_secs_f64();
        out
    }

    pub fn mean_imbalance(&self) -> Option<f64> {
        (self.imb_steps > 0).then(|| self.imb_sum / self.imb_steps as f64)
    }

    /// The step the run's first failure surfaced at: a guard trip wins,
    /// else the first recovered rank loss; `None` for a clean run. A
    /// flight-recorder dump's last step equals it.
    pub fn failure_step<S: Stepper>(&self, s: &S) -> Option<u64> {
        let trip = s.sim().telemetry.trips().first();
        trip.map(|t| t.step).or_else(|| s.first_loss_step())
    }

    /// The run's `summary.json`; `ranks` is the rank count it started on.
    pub fn summary<S: Stepper>(&self, s: &S, ranks: usize) -> RunSummary {
        let sim = s.sim();
        RunSummary {
            ranks,
            final_ranks: s.nranks(),
            steps: sim.istep,
            time: sim.time,
            wall_seconds: self.wall_seconds,
            particles: sim.total_particles(),
            window_x0: sim.fs.geom.x0[0],
            guard_trips: sim.telemetry.trips().len(),
            recoveries: s.recoveries(),
            resizes: s.resizes(),
            lb_adoptions: self.lb_adoptions,
            mean_imbalance: self.mean_imbalance(),
            failure_step: self.failure_step(s),
            state_digest: format!("{:016x}", sim.state_digest()),
        }
    }
}

/// `summary.json` of a local or process-mesh run.
#[derive(Clone, Debug, Serialize)]
pub struct RunSummary {
    pub ranks: usize,
    pub final_ranks: usize,
    pub steps: u64,
    pub time: f64,
    pub wall_seconds: f64,
    pub particles: usize,
    pub window_x0: f64,
    pub guard_trips: usize,
    pub recoveries: usize,
    pub resizes: usize,
    pub lb_adoptions: u64,
    pub mean_imbalance: Option<f64>,
    pub failure_step: Option<u64>,
    /// [`Simulation::state_digest`] as 16 hex digits.
    pub state_digest: String,
}

impl RunSummary {
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let text =
            serde_json::to_string_pretty(self).map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;

    fn tiny(t_end: &str, remove_at: &str) -> (Simulation, Vec<f64>) {
        RunConfig::from_json(&format!(
            r#"{{
                "dimension": "2d",
                "cells": [32, 1, 16],
                "dx": [1e-7, 1e-7, 1e-7],
                "periodic": [true, true, true],
                "max_box": [16, 1, 16],
                "t_end": {t_end},
                "species": [
                    {{"name": "e", "ppc": [1, 1, 1],
                     "profile": {{"type": "uniform", "n0": 1e24}}}}
                ],
                "mr_patches": [
                    {{"lo": [8, 0, 4], "hi": [24, 1, 12], "remove_at": {remove_at}}}
                ]
            }}"#
        ))
        .unwrap()
        .build()
        .unwrap()
    }

    #[test]
    fn exit_codes_fold_by_severity() {
        let folded = [0, 3, 4, 3, 0]
            .into_iter()
            .map(|c| Exit::from_code(Some(c)))
            .max()
            .unwrap();
        assert_eq!(folded, Exit::TransportLoss);
        assert_eq!(Exit::from_code(Some(101)).max(folded), Exit::Usage);
        assert_eq!(Exit::from_code(None), Exit::TransportLoss);
        for e in [
            Exit::Clean,
            Exit::GuardTrip,
            Exit::TransportLoss,
            Exit::Usage,
        ] {
            assert_eq!(Exit::from_code(Some(e.code())), e);
        }
    }

    #[test]
    fn quanta_add_up_to_one_uninterrupted_run() {
        let (mut a, removals) = tiny("1.0", "0.0");
        let mut whole = RunSession::new(1.0, removals.clone()).max_steps(7);
        let mut seen = 0;
        let stop = whole.run(&mut a, u64::MAX, &mut [&mut |_: &mut Simulation| seen += 1]);
        let Ok(stop) = stop;
        assert_eq!((stop, a.istep, seen), (Stop::Completed, 7, 7));
        assert!(a.mr.is_none(), "remove_at 0 fires after the first step");

        let (mut b, _) = tiny("1.0", "0.0");
        let mut sliced = RunSession::new(1.0, removals).max_steps(7);
        let mut stops = Vec::new();
        loop {
            let Ok(stop) = sliced.run(&mut b, 3, &mut []);
            stops.push(stop);
            if stop != Stop::Quantum {
                break;
            }
        }
        assert_eq!(stops, [Stop::Quantum, Stop::Quantum, Stop::Completed]);
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(whole.lb_adoptions, sliced.lb_adoptions);
    }

    #[test]
    fn guard_trip_stops_the_run_and_names_the_failure_step() {
        // Vacuum: no particle can carry the planted NaN into a kernel.
        let mut sim = crate::sim::SimulationBuilder::new(mrpic_field::fieldset::Dim::Two)
            .domain(mrpic_amr::IntVect::new(16, 1, 16), [0.1e-6; 3], [0.0; 3])
            .periodic([true, true, true])
            .build();
        sim.telemetry.cfg.sentinel_interval = 1;
        let mut session = RunSession::new(1.0, Vec::new()).max_steps(20);
        let mut poison = |s: &mut Simulation| {
            if s.istep == 3 {
                let fab = s.fs.e[0].fab_mut(0);
                let lo = fab.valid_pts().lo;
                fab.set(0, lo, f64::NAN);
            }
        };
        let Ok(stop) = session.run(&mut sim, u64::MAX, &mut [&mut poison]);
        assert_eq!(stop, Stop::GuardTrip);
        assert_eq!(session.failure_step(&sim), Some(3));
        let summary = session.summary(&sim, 1);
        assert_eq!((summary.steps, summary.guard_trips), (4, 1));
        assert_eq!(summary.failure_step, Some(3));
    }
}
