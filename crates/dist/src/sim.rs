//! Distributed simulation driver.
//!
//! [`DistSim`] wraps a fully-built [`Simulation`] and steps it through a
//! [`DistComm`] so every cross-box operation runs as a multi-rank
//! message-passing exchange. Because the step loop's only rank-sensitive
//! inputs are the work partition and the message routing — never the
//! floating-point values or their application order — `step()` is
//! bitwise identical for any rank count.
//!
//! **Crash recovery.** With fault injection attached
//! ([`DistSim::with_fault_injection`]), the driver captures a full-state
//! checkpoint epoch every `epoch_interval` steps. When a communication
//! phase reports an unrecoverable [`RankLoss`], the remaining phases of
//! the step drain, and the driver: restores the last epoch, rebuilds the
//! transport over the surviving ranks (with the crash cleared from the
//! plan), redistributes the dead rank's boxes via a space-filling-curve
//! split seeded with the measured per-box costs ([`Simulation::cost`]'s
//! `CostTracker`), invalidates every cached exchange plan, and replays
//! the lost steps. Rank-count independence of `step()` makes the
//! replayed physics bitwise identical to an unfaulted run.

//! **Elastic ranks.** A planned [`ElasticEvent`] (`Grow(k)`/`Shrink(k)`)
//! fires at the start of its step: the driver captures a checkpoint
//! epoch (the barrier — a crash inside the resize window rolls back to
//! exactly here), rebuilds the distribution mapping as a cost-seeded
//! space-filling-curve split over the new rank count, rebuilds the
//! transport through its [`TransportKind`] factory (socket meshes get a
//! fresh generation), invalidates every cached exchange plan, and
//! resumes. Rank-count independence of `step()` makes the continued run
//! bitwise identical to an uninterrupted run at the final rank count.

//! **Errors are values.** A loss the driver cannot survive (no fault
//! plan, no epoch, no survivor), a failed epoch restore, a mesh that
//! cannot be rebuilt, or an elastic event that would shrink below one
//! rank comes back from [`DistSim::step`] as a [`StepError`], which maps
//! onto the process exit contract ([`Exit`]). Resizes, recoveries and the
//! error that stops a run are pushed to the process flight recorder at
//! the point they happen, whichever binary drives the sim.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::comm::{DistComm, RankLoss};
use crate::faults::{faulty_mem_transport, FaultInjector, FaultPlan};
use crate::socket::{proc_transport, socket_mesh, MeshCfg};
use crate::transport::{
    mem_transport, recording_mem_transport, Endpoint, Phase, Recorder, RecordingEndpoint,
};
use mrpic_amr::{DistributionMapping, Strategy};
use mrpic_core::checkpoint::Checkpoint;
use mrpic_core::run::{Exit, Stepper};
use mrpic_core::sim::Simulation;
use mrpic_obs::{dump_recorder, with_recorder, FlightEvent};

/// Why [`DistSim::step`] (or [`DistSim::resize`]) could not complete.
#[derive(Debug)]
pub enum StepError {
    /// A rank was lost and the run cannot recover: it has no fault plan
    /// (so no checkpoint epochs), or no rank would survive.
    RankLoss(RankLoss),
    /// A rank was lost before the first checkpoint epoch was captured.
    NoEpoch(RankLoss),
    /// Restoring the checkpoint epoch failed during recovery.
    Restore(String),
    /// Joining the socket mesh, or rebuilding it at a new generation,
    /// failed.
    Mesh {
        generation: u32,
        error: std::io::Error,
    },
    /// The elastic event `shrink:step:by` would leave `ranks` ranks with
    /// fewer than one.
    OverShrink { step: u64, ranks: usize, by: usize },
}

impl StepError {
    /// Where this error lands in the exit contract: a bad elastic plan is
    /// a usage error, everything else a transport loss.
    pub fn exit(&self) -> Exit {
        match self {
            StepError::OverShrink { .. } => Exit::Usage,
            _ => Exit::TransportLoss,
        }
    }
}

impl From<StepError> for Exit {
    fn from(e: StepError) -> Self {
        e.exit()
    }
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::RankLoss(l) => write!(
                f,
                "unrecoverable rank loss: rank {} in the {:?} phase of step {}: {}",
                l.dead_rank, l.phase, l.step, l.error
            ),
            StepError::NoEpoch(l) => write!(
                f,
                "rank {} lost at step {} before the first checkpoint epoch: {}",
                l.dead_rank, l.step, l.error
            ),
            StepError::Restore(e) => write!(f, "epoch restore failed during recovery: {e}"),
            StepError::Mesh { generation, error } => {
                write!(
                    f,
                    "building the socket mesh (generation {generation}): {error}"
                )
            }
            StepError::OverShrink { step, ranks, by } => write!(
                f,
                "elastic event shrink:{step}:{by} would shrink {ranks} rank(s) below one"
            ),
        }
    }
}

impl std::error::Error for StepError {}

/// One completed crash recovery, for diagnostics and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Step during which the loss surfaced.
    pub detected_step: u64,
    /// Communication phase that detected it.
    pub phase: Phase,
    pub dead_rank: usize,
    /// Rank count after the shrink.
    pub survivors: usize,
    /// Step of the checkpoint epoch rolled back to.
    pub epoch_step: u64,
    /// Steps replayed to catch back up.
    pub replayed: u64,
}

/// How to (re)build the transport of a [`DistSim`] — consulted whenever
/// the mesh must be reconstructed (crash recovery, elastic resize).
#[derive(Clone, Debug)]
pub enum TransportKind {
    /// Plain in-process mpsc mesh. Also the fallback for custom
    /// endpoint sets handed to [`DistSim::new`] directly: a resize of
    /// such a sim rebuilds as the in-process mesh.
    Mem,
    /// Fault-injected in-process mesh driven by this plan; also the
    /// recovery plan of the run.
    Faulty(FaultPlan),
    /// In-process mesh whose every pair is a real socket connection.
    Socket(MeshCfg),
    /// Process mode: this OS process owns `my_rank`; edges touching it
    /// cross real sockets, everything else is the replicated local mesh
    /// (DESIGN.md §15). A rank outside the current mesh runs as a pure
    /// local spectator replica until a grow includes it.
    Proc { mesh: MeshCfg, my_rank: usize },
}

/// What to do to the rank count, and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElasticAction {
    /// Add `k` ranks.
    Grow(usize),
    /// Remove `k` ranks.
    Shrink(usize),
}

/// One planned rank-count change, applied at the start of `step`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElasticEvent {
    pub step: u64,
    pub action: ElasticAction,
}

/// Parse an elastic plan spec: comma-separated `grow:STEP:K` /
/// `shrink:STEP:K` events, e.g. `grow:20:2,shrink:30:2`.
pub fn parse_elastic_plan(spec: &str) -> Result<Vec<ElasticEvent>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let fields: Vec<&str> = part.split(':').collect();
        let [action, step, k] = fields[..] else {
            return Err(format!("elastic event `{part}`: want ACTION:STEP:K"));
        };
        let step: u64 = step
            .parse()
            .map_err(|_| format!("elastic event `{part}`: bad step `{step}`"))?;
        let k: usize = k
            .parse()
            .ok()
            .filter(|&k| k > 0)
            .ok_or_else(|| format!("elastic event `{part}`: bad rank delta `{k}`"))?;
        let action = match action {
            "grow" => ElasticAction::Grow(k),
            "shrink" => ElasticAction::Shrink(k),
            _ => return Err(format!("elastic event `{part}`: unknown action `{action}`")),
        };
        out.push(ElasticEvent { step, action });
    }
    out.sort_by_key(|e| e.step);
    Ok(out)
}

impl ElasticEvent {
    /// The rank count after this event fires on `ranks` ranks.
    fn apply(self, ranks: usize) -> Result<usize, StepError> {
        match self.action {
            ElasticAction::Grow(k) => Ok(ranks + k),
            ElasticAction::Shrink(k) if k < ranks => Ok(ranks - k),
            ElasticAction::Shrink(by) => Err(StepError::OverShrink {
                step: self.step,
                ranks,
                by,
            }),
        }
    }
}

/// Walk a step-sorted elastic plan from `start` ranks: the largest rank
/// count it reaches (how many workers a process mesh must spawn), or the
/// first event that would shrink below one rank.
pub fn elastic_peak(start: usize, events: &[ElasticEvent]) -> Result<usize, StepError> {
    let mut ranks = start;
    let mut peak = start;
    for ev in events {
        ranks = ev.apply(ranks)?;
        peak = peak.max(ranks);
    }
    Ok(peak)
}

/// One completed elastic resize, for diagnostics and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResizeEvent {
    /// Step at whose start the barrier ran.
    pub step: u64,
    pub from: usize,
    pub to: usize,
}

/// A simulation executing across N in-process ranks.
pub struct DistSim {
    pub sim: Simulation,
    comm: DistComm,
    /// How to rebuild the transport on recovery or resize.
    kind: TransportKind,
    /// Recorder every rebuilt endpoint set is re-wrapped with.
    recorder: Option<Arc<Recorder>>,
    injector: Option<Arc<FaultInjector>>,
    /// Steps between full-state checkpoint epochs (chaos runs only).
    epoch_interval: u64,
    epoch: Option<Checkpoint>,
    /// Planned rank-count changes, ascending by step, consumed once.
    elastic: VecDeque<ElasticEvent>,
    /// Every crash recovery performed, in order.
    pub recovery_log: Vec<RecoveryEvent>,
    /// Every elastic resize performed, in order.
    pub resize_log: Vec<ResizeEvent>,
}

/// Box a homogeneous endpoint set for [`DistSim::new`].
pub fn boxed<E: Endpoint + 'static>(eps: Vec<E>) -> Vec<Box<dyn Endpoint>> {
    eps.into_iter()
        .map(|e| Box::new(e) as Box<dyn Endpoint>)
        .collect()
}

impl DistSim {
    /// Take ownership of `sim`, realigning its distribution mapping to
    /// one shard per endpoint (space-filling-curve split).
    pub fn new(mut sim: Simulation, endpoints: Vec<Box<dyn Endpoint>>) -> Self {
        let nranks = endpoints.len();
        assert!(nranks > 0, "need at least one rank");
        let dm =
            DistributionMapping::build(sim.fs.boxarray(), nranks, Strategy::SpaceFillingCurve, &[]);
        sim.dm = dm.clone();
        // The live LB policy must evaluate candidates over the actual
        // endpoint count, not whatever the builder assumed.
        if let Some(policy) = &mut sim.lb {
            policy.set_nranks(nranks);
        }
        let comm = DistComm::new(endpoints, dm);
        Self {
            sim,
            comm,
            kind: TransportKind::Mem,
            recorder: None,
            injector: None,
            epoch_interval: 10,
            epoch: None,
            elastic: VecDeque::new(),
            recovery_log: Vec::new(),
            resize_log: Vec::new(),
        }
    }

    /// In-process transport over `nranks` ranks.
    pub fn in_process(sim: Simulation, nranks: usize) -> Self {
        Self::new(sim, boxed(mem_transport(nranks)))
    }

    /// In-process transport whose message traffic is captured in the
    /// returned [`Recorder`].
    pub fn recording(sim: Simulation, nranks: usize) -> (Self, Arc<Recorder>) {
        let (eps, rec) = recording_mem_transport(nranks);
        let mut ds = Self::new(sim, boxed(eps));
        ds.recorder = Some(Arc::clone(&rec));
        (ds, rec)
    }

    /// In-process mesh whose every rank pair is a real socket
    /// connection (Unix-domain or TCP per `cfg`); the rank threads
    /// exchange every byte through the kernel.
    pub fn socket_mesh(sim: Simulation, cfg: MeshCfg) -> std::io::Result<Self> {
        let eps = socket_mesh(&cfg)?;
        let mut ds = Self::new(sim, boxed(eps));
        ds.kind = TransportKind::Socket(cfg);
        Ok(ds)
    }

    /// [`Self::socket_mesh`] with every endpoint wrapped in the
    /// returned message [`Recorder`].
    pub fn socket_mesh_recording(
        sim: Simulation,
        cfg: MeshCfg,
    ) -> std::io::Result<(Self, Arc<Recorder>)> {
        let rec = Arc::new(Recorder::default());
        let eps: Vec<Box<dyn Endpoint>> = socket_mesh(&cfg)?
            .into_iter()
            .map(|e| Box::new(RecordingEndpoint::wrap(e, Arc::clone(&rec))) as Box<dyn Endpoint>)
            .collect();
        let mut ds = Self::new(sim, eps);
        ds.kind = TransportKind::Socket(cfg);
        ds.recorder = Some(Arc::clone(&rec));
        Ok((ds, rec))
    }

    /// One `mrpic_rank` worker process: this process is authoritative
    /// for `my_rank`, whose message edges cross real sockets to the
    /// peer processes; every other rank runs as a local replica thread.
    /// A `my_rank` outside the current mesh builds a pure local
    /// spectator replica (it joins the wire when a grow includes it).
    /// A mesh that cannot be joined is a [`StepError::Mesh`].
    pub fn process_rank(sim: Simulation, mesh: MeshCfg, my_rank: usize) -> Result<Self, StepError> {
        let eps: Vec<Box<dyn Endpoint>> = if my_rank < mesh.nranks {
            boxed(
                proc_transport(&mesh, my_rank).map_err(|error| StepError::Mesh {
                    generation: mesh.generation,
                    error,
                })?,
            )
        } else {
            boxed(mem_transport(mesh.nranks))
        };
        let mut ds = Self::new(sim, eps);
        ds.kind = TransportKind::Proc { mesh, my_rank };
        Ok(ds)
    }

    /// In-process transport perturbed by the seeded fault `plan`:
    /// delays, corruption, and transient failures are absorbed
    /// transparently (and counted in the step telemetry's `FaultStats`);
    /// a planned rank crash triggers checkpoint rollback and replay on
    /// the surviving ranks.
    pub fn with_fault_injection(sim: Simulation, nranks: usize, plan: FaultPlan) -> Self {
        let (eps, inj) = faulty_mem_transport(nranks, plan.clone());
        let mut ds = Self::new(sim, boxed(eps));
        ds.comm.attach_injector(Arc::clone(&inj));
        ds.kind = TransportKind::Faulty(plan);
        ds.injector = Some(inj);
        ds
    }

    /// The recovery plan: only fault-injected runs capture epochs.
    fn fault_plan(&self) -> Option<&FaultPlan> {
        match &self.kind {
            TransportKind::Faulty(plan) => Some(plan),
            _ => None,
        }
    }

    pub fn nranks(&self) -> usize {
        self.comm.nranks()
    }

    pub fn mapping(&self) -> &DistributionMapping {
        self.comm.mapping()
    }

    /// Shared fault-injection state (chaos runs only).
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Steps between checkpoint epochs in chaos runs (default 10). A
    /// crash costs at most `n` replayed steps.
    pub fn set_epoch_interval(&mut self, n: u64) {
        assert!(n > 0, "epoch interval must be positive");
        self.epoch_interval = n;
    }

    /// Re-capture the recovery epoch right now. Call after mutating the
    /// simulation outside the step loop (e.g. removing an MR patch), so
    /// a later rollback restores into a structurally identical target.
    pub fn refresh_epoch(&mut self) {
        if self.fault_plan().is_some() {
            self.epoch = Some(Checkpoint::capture(&self.sim));
        }
    }

    /// Install a planned elastic schedule; each event fires once, at
    /// the start of its step. The plan is walked once from the current
    /// rank count, so an event that would shrink below one rank is
    /// refused here, before any step runs.
    pub fn set_elastic_plan(&mut self, mut events: Vec<ElasticEvent>) -> Result<(), StepError> {
        events.sort_by_key(|e| e.step);
        elastic_peak(self.nranks(), &events)?;
        self.elastic = events.into();
        Ok(())
    }

    /// Resize the mesh to `target` ranks right now (between steps): the
    /// checkpoint-epoch barrier, a cost-seeded SFC re-adoption of every
    /// box onto the new rank set, a transport rebuild (socket meshes
    /// get a fresh generation), and full plan invalidation. The
    /// continued run is bitwise identical to an uninterrupted run at
    /// `target` ranks.
    pub fn resize(&mut self, target: usize) -> Result<(), StepError> {
        let from = self.nranks();
        if target == 0 {
            return Err(StepError::OverShrink {
                step: self.sim.istep,
                ranks: from,
                by: from,
            });
        }
        if target == from {
            return Ok(());
        }
        // The barrier: the step boundary is already quiesced (no frames
        // in flight), and the captured epoch pins the rollback target
        // should a rank crash inside the resize window.
        self.epoch = Some(Checkpoint::capture(&self.sim));
        match &mut self.kind {
            TransportKind::Socket(mesh) | TransportKind::Proc { mesh, .. } => {
                mesh.nranks = target;
                mesh.generation += 1;
            }
            TransportKind::Mem | TransportKind::Faulty(_) => {}
        }
        self.rebuild_comm(target)?;
        self.resize_log.push(ResizeEvent {
            step: self.sim.istep,
            from,
            to: target,
        });
        with_recorder(|r| {
            r.set_generation(self.resize_log.len() as u64);
            r.push(FlightEvent::Resize {
                step: self.sim.istep,
                from,
                to: target,
            })
        });
        Ok(())
    }

    /// Move the run onto a fresh `nranks`-rank transport built per the
    /// transport kind: a cost-seeded SFC mapping over the new rank set,
    /// the LB policy retargeted, and every cached exchange plan (each
    /// partitioned for the old mesh) invalidated.
    fn rebuild_comm(&mut self, nranks: usize) -> Result<(), StepError> {
        let (eps, inj) = self.build_endpoints(nranks)?;
        let dm = DistributionMapping::build(
            self.sim.fs.boxarray(),
            nranks,
            Strategy::SpaceFillingCurve,
            self.sim.cost.costs(),
        );
        self.sim.dm = dm.clone();
        if let Some(policy) = &mut self.sim.lb {
            policy.set_nranks(nranks);
        }
        let mut comm = DistComm::new(eps, dm);
        if let Some(inj) = &inj {
            comm.attach_injector(Arc::clone(inj));
        }
        self.comm = comm;
        self.injector = inj;
        self.sim.invalidate_all_plans();
        Ok(())
    }

    /// Build a fresh endpoint set per the transport kind, re-wrapping
    /// with the recorder when one is attached.
    #[allow(clippy::type_complexity)]
    fn build_endpoints(
        &self,
        nranks: usize,
    ) -> Result<(Vec<Box<dyn Endpoint>>, Option<Arc<FaultInjector>>), StepError> {
        fn finish<E: Endpoint + 'static>(
            eps: Vec<E>,
            recorder: &Option<Arc<Recorder>>,
        ) -> Vec<Box<dyn Endpoint>> {
            match recorder {
                Some(rec) => eps
                    .into_iter()
                    .map(|e| {
                        Box::new(RecordingEndpoint::wrap(e, Arc::clone(rec))) as Box<dyn Endpoint>
                    })
                    .collect(),
                None => boxed(eps),
            }
        }
        let rec = &self.recorder;
        let mesh_err = |mesh: &MeshCfg, error| StepError::Mesh {
            generation: mesh.generation,
            error,
        };
        Ok(match &self.kind {
            TransportKind::Mem => (finish(mem_transport(nranks), rec), None),
            TransportKind::Faulty(plan) => {
                let (eps, inj) = faulty_mem_transport(nranks, plan.clone());
                (finish(eps, rec), Some(inj))
            }
            TransportKind::Socket(mesh) => {
                let eps = socket_mesh(mesh).map_err(|e| mesh_err(mesh, e))?;
                (finish(eps, rec), None)
            }
            // Shrunk out of (or not yet grown into) the mesh: keep
            // stepping as a local spectator replica.
            TransportKind::Proc { mesh, my_rank } if *my_rank >= mesh.nranks => {
                (finish(mem_transport(mesh.nranks), rec), None)
            }
            TransportKind::Proc { mesh, my_rank } => {
                let eps = proc_transport(mesh, *my_rank).map_err(|e| mesh_err(mesh, e))?;
                (finish(eps, rec), None)
            }
        })
    }

    /// Advance one step through the distributed backend, recovering from
    /// an injected rank crash if one surfaces. An error ends the run; it
    /// is also pushed to the flight recorder.
    pub fn step(&mut self) -> Result<(), StepError> {
        let step = self.sim.istep;
        let out = self.try_step();
        if let Err(e) = &out {
            with_recorder(|r| {
                r.push(FlightEvent::TransportError {
                    step,
                    detail: e.to_string(),
                })
            });
        }
        out
    }

    /// Advance `n` steps.
    pub fn run(&mut self, n: usize) -> Result<(), StepError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    fn try_step(&mut self) -> Result<(), StepError> {
        while let Some(ev) = self.elastic.front().copied() {
            if ev.step > self.sim.istep {
                break;
            }
            self.elastic.pop_front();
            self.resize(ev.apply(self.nranks())?)?;
        }
        if self.fault_plan().is_some() && self.sim.istep.is_multiple_of(self.epoch_interval) {
            self.epoch = Some(Checkpoint::capture(&self.sim));
        }
        self.sim.step_with(&mut self.comm);
        match self.comm.take_loss() {
            Some(loss) => self.recover(loss),
            None => Ok(()),
        }
    }

    /// Survive `loss`: roll back to the last checkpoint epoch, shrink
    /// the rank set, and replay. The drained step left finite-but-stale
    /// state behind; the restore discards all of it.
    fn recover(&mut self, loss: RankLoss) -> Result<(), StepError> {
        let survivors = self.nranks() - 1;
        let Some(mut replay_plan) = self.fault_plan().filter(|_| survivors > 0).cloned() else {
            return Err(StepError::RankLoss(loss));
        };
        let Some(epoch) = self.epoch.take() else {
            return Err(StepError::NoEpoch(loss));
        };
        // The target is wherever the run had gotten to: the drained step
        // still advanced the clock, so replay re-runs it cleanly.
        let target = self.sim.istep;
        epoch
            .restore(&mut self.sim)
            .map_err(|e| StepError::Restore(e.to_string()))?;
        // Adopt the dead rank's boxes over a fresh transport of the
        // survivors, same seed, crash cleared — in-flight frames of the
        // dead transport are dropped with it.
        replay_plan.crash = None;
        self.kind = TransportKind::Faulty(replay_plan);
        self.rebuild_comm(survivors)?;
        let replayed = target - self.sim.istep;
        self.comm.note_recovery(replayed);
        let ev = RecoveryEvent {
            detected_step: loss.step,
            phase: loss.phase,
            dead_rank: loss.dead_rank,
            survivors,
            epoch_step: self.sim.istep,
            replayed,
        };
        self.recovery_log.push(ev);
        // A rank crash, even a recovered one, dumps the flight recorder
        // so the incident is inspectable after the run.
        with_recorder(|r| {
            r.push(FlightEvent::Recovery {
                step: ev.detected_step,
                dead_rank: ev.dead_rank,
                epoch_step: ev.epoch_step,
                replayed,
            })
        });
        dump_recorder("rank_loss");
        for _ in 0..replayed {
            self.try_step()?;
        }
        Ok(())
    }

    /// Force an immediate rebalance adoption, physically migrating box
    /// data between ranks — used by tests and the load-balance ablation
    /// to exercise migration without waiting for a measured imbalance.
    /// Picks a round-robin mapping (or an SFC split seeded with current
    /// costs if round-robin is already active) so something always moves
    /// when `nranks > 1`.
    pub fn force_rebalance(&mut self) {
        let ba = self.sim.fs.boxarray().clone();
        let nranks = self.nranks();
        let mut next = DistributionMapping::build(&ba, nranks, Strategy::RoundRobin, &[]);
        if next == self.sim.dm {
            next = DistributionMapping::build(
                &ba,
                nranks,
                Strategy::SpaceFillingCurve,
                self.sim.cost.costs(),
            );
        }
        let prev = self.sim.dm.clone();
        use mrpic_core::exchange::StepComm;
        self.comm
            .adopt_mapping(&prev, &next, &mut self.sim.fs, &mut self.sim.parts);
        self.sim.fs.invalidate_plans();
        self.sim.dm = next;
    }
}

impl Stepper for DistSim {
    type Error = StepError;

    fn sim(&self) -> &Simulation {
        &self.sim
    }

    fn sim_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    fn advance(&mut self) -> Result<(), StepError> {
        self.step()
    }

    fn refresh_epoch(&mut self) {
        DistSim::refresh_epoch(self)
    }

    fn nranks(&self) -> usize {
        DistSim::nranks(self)
    }

    fn resizes(&self) -> usize {
        self.resize_log.len()
    }

    fn recoveries(&self) -> usize {
        self.recovery_log.len()
    }

    fn first_loss_step(&self) -> Option<u64> {
        self.recovery_log.first().map(|ev| ev.detected_step)
    }

    fn event_lines(&self) -> Vec<String> {
        let recoveries = self.recovery_log.iter().map(|ev| {
            format!(
                "recovered from rank {} loss at step {} ({:?} phase): rolled back to step {}, \
                 replayed {} step(s) on {} survivor(s)",
                ev.dead_rank, ev.detected_step, ev.phase, ev.epoch_step, ev.replayed, ev.survivors,
            )
        });
        let resizes = self.resize_log.iter().map(|ev| {
            format!(
                "resized {} -> {} rank(s) at step {}",
                ev.from, ev.to, ev.step
            )
        });
        recoveries.chain(resizes).collect()
    }
}
