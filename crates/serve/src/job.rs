//! Per-job execution: slices, budgets, and checkpoint-backed parking.
//!
//! A [`JobRunner`] owns everything needed to run one submitted job to
//! completion *in pieces*: the validated [`RunConfig`], the per-job
//! [`Budgets`], and either a live [`Simulation`] or — while preempted —
//! a parked checkpoint v2 [`Checkpoint`] (the live simulation is
//! dropped, so a parked job costs its checkpoint bytes, not its working
//! set). A slice is one call into the shared
//! [`RunSession`] loop — the same one
//! `mrpic_run` drives — with the telemetry stream as its observer; the
//! session (stop rule, patch removals, tallies) lives in the runner, so
//! it survives the simulation being parked.
//!
//! The preemption contract: `run_slice → park → run_slice …` produces a
//! final state **bitwise identical** to one uninterrupted run of the
//! same config. Resume rebuilds the simulation from the config and
//! restores the checkpoint through [`Checkpoint::resume`], which also
//! reconciles MR-patch presence (a patch removed before capture is
//! removed from the fresh build before restoring). `tests/serve.rs`
//! proves the equivalence with `.to_bits()` comparisons at several cut
//! points, including around an MR patch removal.

use crate::protocol::{Budgets, JobSpec, JobSummary};
use mrpic_core::checkpoint::Checkpoint;
use mrpic_core::config::RunConfig;
use mrpic_core::run::{RunSession, Stop};
use mrpic_core::sim::Simulation;
use mrpic_core::telemetry::StepRecord;

/// How a [`JobRunner::run_slice`] call ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SliceStatus {
    /// The slice's step allowance ran out; the job wants more service.
    Quantum,
    /// The job reached `t_end` (or its `max_steps` budget) cleanly.
    Completed,
    /// The NaN/Inf invariant guard tripped; the job is over.
    GuardTripped,
    /// A budget was exceeded mid-run; the job was killed.
    BudgetExhausted(String),
}

/// Steps executed in the slice plus how it ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SliceReport {
    pub steps: u64,
    pub status: SliceStatus,
}

/// One job's execution state across slices, preemptions, and resumes.
pub struct JobRunner {
    cfg: RunConfig,
    budgets: Budgets,
    sim: Option<Box<Simulation>>,
    parked: Option<Box<Checkpoint>>,
    /// Stop rule, patch removals and run tallies; it outlives `park`,
    /// which drops the live simulation.
    session: RunSession,
    /// Steps executed across all slices.
    pub steps_done: u64,
    /// Times the job was checkpointed and parked.
    pub preemptions: u64,
    /// Times the job was resumed from a parked checkpoint.
    pub resumes: u64,
    last_time: f64,
    last_particles: u64,
    guard_trips: u64,
    finished: bool,
}

impl JobRunner {
    pub fn new(cfg: RunConfig, budgets: Budgets) -> Self {
        let session = RunSession::new(cfg.t_end, cfg.removal_times())
            .max_steps(budgets.max_steps.unwrap_or(u64::MAX))
            .wall_ceiling(budgets.wall_ceiling_seconds);
        Self {
            cfg,
            budgets,
            sim: None,
            parked: None,
            session,
            steps_done: 0,
            preemptions: 0,
            resumes: 0,
            last_time: 0.0,
            last_particles: 0,
            guard_trips: 0,
            finished: false,
        }
    }

    pub fn from_spec(spec: &JobSpec) -> Self {
        Self::new(spec.config.clone(), spec.budgets)
    }

    /// Build the simulation (first dispatch) or restore the parked
    /// checkpoint (resume). Enforces the `max_boxes` budget on first
    /// build. Idempotent while a simulation is live.
    pub fn activate(&mut self) -> Result<(), String> {
        if self.sim.is_some() {
            return Ok(());
        }
        if let Some(ck) = self.parked.take() {
            let _sp = mrpic_trace::span!("serve.restore");
            let (sim, _) = ck.resume(&self.cfg)?;
            self.resumes += 1;
            self.sim = Some(Box::new(sim));
        } else {
            let (sim, _) = self.cfg.build()?;
            if let Some(mb) = self.budgets.max_boxes {
                let nb = sim.fs.nfabs();
                if nb > mb {
                    self.finished = true;
                    return Err(format!(
                        "budget exceeded: config builds {nb} boxes, budgets.max_boxes is {mb}"
                    ));
                }
            }
            self.last_particles = sim.total_particles() as u64;
            self.sim = Some(Box::new(sim));
        }
        Ok(())
    }

    /// Run up to `max_steps` steps, streaming each step's telemetry
    /// record into `sink`. Returns how the slice ended; `Err` only when
    /// activation (build or restore) itself failed.
    pub fn run_slice(
        &mut self,
        max_steps: u64,
        sink: &mut dyn FnMut(StepRecord),
    ) -> Result<SliceReport, String> {
        self.activate()?;
        let sim = self.sim.as_mut().expect("activated simulation");
        let before = sim.istep;
        let mut stream = |s: &mut Simulation| {
            if let Some(rec) = s.telemetry.records().back() {
                sink(rec.clone());
            }
        };
        let Ok(stop) = self.session.run(&mut **sim, max_steps, &mut [&mut stream]);
        let steps = sim.istep - before;
        self.steps_done += steps;
        let status = match stop {
            Stop::Quantum => SliceStatus::Quantum,
            Stop::Completed => SliceStatus::Completed,
            Stop::GuardTrip => SliceStatus::GuardTripped,
            Stop::WallCeiling => SliceStatus::BudgetExhausted(format!(
                "budget exceeded: wall ceiling of {} s reached after {} steps",
                self.budgets.wall_ceiling_seconds.unwrap_or_default(),
                self.steps_done
            )),
        };
        if status != SliceStatus::Quantum {
            self.finished = true;
        }
        self.last_time = sim.time;
        self.last_particles = sim.total_particles() as u64;
        self.guard_trips = sim.telemetry.trips().len() as u64;
        // Never lose tail records to writer buffering when the job is
        // about to be parked or torn down (no-op without a JSONL sink).
        sim.telemetry.sync();
        Ok(SliceReport { steps, status })
    }

    /// Checkpoint the live simulation and drop it. A no-op when the job
    /// has no live simulation (never activated, or already parked).
    pub fn park(&mut self) {
        let Some(mut sim) = self.sim.take() else {
            return;
        };
        let _sp = mrpic_trace::span!("serve.checkpoint");
        sim.telemetry.sync();
        self.parked = Some(Box::new(Checkpoint::capture(&sim)));
        self.preemptions += 1;
    }

    /// The live simulation, when one exists (not parked / not finished
    /// and torn down).
    pub fn sim(&self) -> Option<&Simulation> {
        self.sim.as_deref()
    }

    pub fn is_parked(&self) -> bool {
        self.parked.is_some()
    }

    /// True once a slice ended with `Completed`, `GuardTripped`, or
    /// `BudgetExhausted`.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Run-mean of the per-step telemetry imbalance, like `mrpic_run`'s
    /// summary.json.
    pub fn mean_imbalance(&self) -> Option<f64> {
        self.session.mean_imbalance()
    }

    pub fn guard_trips(&self) -> u64 {
        self.guard_trips
    }

    /// Final accounting for the client's `summary.json`.
    pub fn summary(&self, job_id: u64, tenant: &str) -> JobSummary {
        JobSummary {
            job_id,
            tenant: tenant.to_string(),
            steps: self.steps_done,
            time: self.last_time,
            particles: self.last_particles,
            guard_trips: self.guard_trips,
            preemptions: self.preemptions,
            resumes: self.resumes,
            mean_imbalance: self.mean_imbalance(),
            wall_seconds: self.session.wall_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(t_end: &str) -> RunConfig {
        RunConfig::from_json(&format!(
            r#"{{
                "dimension": "2d",
                "cells": [16, 1, 8],
                "dx": [1e-7, 1e-7, 1e-7],
                "periodic": [true, true, true],
                "max_box": [8, 1, 8],
                "t_end": {t_end},
                "species": [
                    {{"name": "e", "ppc": [1, 1, 1],
                     "profile": {{"type": "uniform", "n0": 1e24}}}}
                ]
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn completes_at_step_budget() {
        let mut r = JobRunner::new(
            tiny_cfg("1.0"),
            Budgets {
                max_steps: Some(5),
                ..Budgets::default()
            },
        );
        let mut n = 0u64;
        let rep = r.run_slice(100, &mut |_| n += 1).unwrap();
        assert_eq!(rep.status, SliceStatus::Completed);
        assert_eq!(rep.steps, 5);
        assert_eq!(n, 5, "one record streamed per step");
        assert!(r.is_finished());
        // A further slice is an idempotent Completed with zero steps.
        let rep2 = r.run_slice(10, &mut |_| {}).unwrap();
        assert_eq!(rep2.status, SliceStatus::Completed);
        assert_eq!(rep2.steps, 0);
    }

    #[test]
    fn quantum_exhaustion_then_park_resume() {
        let budget = Budgets {
            max_steps: Some(6),
            ..Budgets::default()
        };
        let mut r = JobRunner::new(tiny_cfg("1.0"), budget);
        let rep = r.run_slice(2, &mut |_| {}).unwrap();
        assert_eq!(rep.status, SliceStatus::Quantum);
        assert!(r.sim().is_some());
        r.park();
        assert!(r.is_parked());
        assert!(r.sim().is_none());
        let rep = r.run_slice(100, &mut |_| {}).unwrap();
        assert_eq!(rep.status, SliceStatus::Completed);
        assert_eq!(r.steps_done, 6);
        assert_eq!(r.preemptions, 1);
        assert_eq!(r.resumes, 1);
        let s = r.summary(9, "t");
        assert_eq!(s.steps, 6);
        assert_eq!(s.guard_trips, 0);
        assert_eq!(s.preemptions, 1);
    }

    #[test]
    fn max_boxes_budget_rejects_at_activation() {
        let mut r = JobRunner::new(
            tiny_cfg("1.0"),
            Budgets {
                max_boxes: Some(1),
                ..Budgets::default()
            },
        );
        let e = r.run_slice(1, &mut |_| {}).unwrap_err();
        assert!(e.contains("max_boxes"), "{e}");
        assert!(r.is_finished());
    }

    #[test]
    fn park_without_activation_is_a_noop() {
        let mut r = JobRunner::new(tiny_cfg("1.0"), Budgets::default());
        r.park();
        assert!(!r.is_parked());
        assert_eq!(r.preemptions, 0);
    }
}
