//! Distributed [`StepComm`] backend: rank threads over a transport.
//!
//! [`DistComm`] executes the step loop's three communication patterns
//! across N ranks, each running in its own thread for the duration of a
//! communication phase and owning the shard of boxes its
//! [`DistributionMapping`] assigns to it:
//!
//! 1. **Guard exchange** — the array's [`ExchangePlan`] is partitioned
//!    into per-rank pack/apply halves ([`PartitionedPlan`], cached per
//!    layout generation and mapping version). Off-rank plan entries are
//!    serialized into framed messages; rank-local entries short-circuit
//!    through an in-thread stash. Each rank applies all entries targeting
//!    its boxes in ascending *global plan index*, which reproduces the
//!    single-rank plan-order application bitwise (see DESIGN.md §9).
//! 2. **Particle redistribution** — each rank scans its owned boxes with
//!    the same `scan_box_moves` the serial path uses, ships off-rank
//!    particles as messages, and merges incoming streams by ascending
//!    source box so per-buffer insertion order matches the serial path.
//! 3. **Box migration** — adopting a rebalance serializes the fab data
//!    and particle tiles of every box whose owner changed, moves the
//!    bytes through the transport, and restores them on the new owner
//!    (the source copies are zeroed, so a lost message is loud).
//!
//! No rank thread ever touches another rank's fabs or particle buffers:
//! packing reads only the packing rank's boxes and applying writes only
//! the destination rank's boxes, so the threads need no barrier beyond
//! the messages themselves (exactly one per ordered rank pair and
//! exchange, empty frames included).
//!
//! **Fault handling.** Every frame is CRC-sealed (`msg::seal`); a frame
//! that fails its check on receive is dropped and re-received, and
//! transient transport failures are retried with bounded backoff —
//! both invisible to physics, visible in [`FaultStats`]. An
//! unrecoverable failure (rank crash, peer loss, timeout, retry budget
//! exhausted) is recorded as a [`RankLoss`] instead of panicking; the
//! remaining communication phases of the step then *drain* (no-op) so
//! the step loop reaches a safe point, and [`crate::sim::DistSim`]
//! rolls the run back to its last checkpoint epoch and replays without
//! the dead rank (DESIGN.md §10).

use std::sync::Arc;

use crate::faults::FaultInjector;
use crate::msg::{put_f64s, put_u32, seal, unseal, Reader};
use crate::transport::{Endpoint, Phase, Tag, TransportError, TransportErrorKind};
use mrpic_amr::fabarray::{blend_region_from_buf, pack_region_into};
use mrpic_amr::{
    BoxArray, CommStats, DistributionMapping, ExchangePlan, Fab, FabArray, IntVect,
    PartitionedPlan, Periodicity, Stagger,
};
use mrpic_core::exchange::{RankStepComm, StepComm};
use mrpic_core::particles::{scan_box_moves, ParticleBuf, ParticleContainer, ParticleTuple};
use mrpic_core::telemetry::FaultStats;
use mrpic_field::fieldset::{FieldSet, GridGeom};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fill,
    Sum,
}

#[derive(Clone, PartialEq)]
struct PlanKey {
    kind: u8,
    stagger: Stagger,
    ngrow: IntVect,
    period: Periodicity,
    generation: u64,
    dm_version: u64,
}

/// An unrecoverable rank failure observed by a communication phase.
#[derive(Clone, Copy, Debug)]
pub struct RankLoss {
    /// The rank judged dead (crashed, unreachable, or retry-exhausted).
    pub dead_rank: usize,
    /// Step during which the loss was detected.
    pub step: u64,
    /// Phase that detected it.
    pub phase: Phase,
    /// The first transport error that condemned the rank.
    pub error: TransportError,
}

/// Per-operation retry budget for transient failures and corrupt frames.
const MAX_ATTEMPTS: u32 = 10;

fn backoff(attempt: u32) {
    std::thread::sleep(std::time::Duration::from_micros(40u64 << attempt.min(8)));
}

/// Seal and send one frame, retrying transient failures with bounded
/// backoff. Byte/message accounting covers the sealed frame once.
fn send_framed(
    ep: &mut dyn Endpoint,
    dst: usize,
    tag: Tag,
    mut frame: Vec<u8>,
    rec: &mut RankStepComm,
    faults: &mut FaultStats,
) -> Result<(), TransportError> {
    seal(&mut frame);
    let _send_span = mrpic_trace::span!("send", ep.rank(), dst, frame.len());
    rec.sent_bytes += frame.len() as u64;
    rec.sent_messages += 1;
    let mut attempt = 0;
    loop {
        match ep.send(dst, tag, frame.clone()) {
            Ok(()) => return Ok(()),
            Err(e) if e.is_transient() && attempt + 1 < MAX_ATTEMPTS => {
                attempt += 1;
                faults.retries += 1;
                backoff(attempt);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Receive and unseal one frame. Transient failures are retried with
/// bounded backoff; a frame failing its CRC is counted, dropped, and
/// re-received (a faulty transport redelivers the pristine payload).
fn recv_framed(
    ep: &mut dyn Endpoint,
    src: usize,
    tag: Tag,
    step: u64,
    rec: &mut RankStepComm,
    faults: &mut FaultStats,
) -> Result<Vec<u8>, TransportError> {
    let _recv_span = mrpic_trace::span!("recv", ep.rank(), src);
    let mut attempt = 0;
    loop {
        // The blocked time inside `ep.recv` is the quantity the load
        // balancer wants priced: spanned separately from the unseal work.
        let wait_span = mrpic_trace::span!("recv_wait", ep.rank(), src);
        let t_wait = std::time::Instant::now();
        let got = ep.recv(src, tag);
        drop(wait_span);
        // Charged to the rank record: the imbalance metric subtracts it
        // from busy time.
        rec.recv_wait_seconds += t_wait.elapsed().as_secs_f64();
        match got {
            Ok(mut frame) => {
                let sealed_len = frame.len() as u64;
                if unseal(&mut frame).is_ok() {
                    rec.recv_bytes += sealed_len;
                    rec.recv_messages += 1;
                    return Ok(frame);
                }
                faults.corruptions_detected += 1;
                if attempt + 1 >= MAX_ATTEMPTS {
                    return Err(TransportError::new(
                        TransportErrorKind::Corrupt,
                        ep.rank(),
                        src,
                        tag,
                        step,
                    ));
                }
                attempt += 1;
                faults.retries += 1;
            }
            Err(e) if e.is_transient() && attempt + 1 < MAX_ATTEMPTS => {
                attempt += 1;
                faults.retries += 1;
                backoff(attempt);
            }
            Err(e) => return Err(e),
        }
    }
}

/// What one rank thread brings back from a communication phase.
struct RankOut {
    rec: RankStepComm,
    faults: FaultStats,
    err: Option<TransportError>,
    deleted: usize,
}

/// Multi-rank communication backend over boxed [`Endpoint`]s.
pub struct DistComm {
    eps: Vec<Box<dyn Endpoint>>,
    dm: DistributionMapping,
    dm_version: u64,
    plans: Vec<(PlanKey, Arc<PartitionedPlan>)>,
    records: Vec<RankStepComm>,
    seq: u32,
    step: u64,
    injector: Option<Arc<FaultInjector>>,
    stats: FaultStats,
    loss: Option<RankLoss>,
}

fn fresh_records(nranks: usize) -> Vec<RankStepComm> {
    (0..nranks)
        .map(|rank| RankStepComm {
            rank,
            ..Default::default()
        })
        .collect()
}

impl DistComm {
    /// One endpoint per rank, rank i at index i; `dm` must use the same
    /// rank count.
    pub fn new(eps: Vec<Box<dyn Endpoint>>, dm: DistributionMapping) -> Self {
        assert!(!eps.is_empty(), "need at least one endpoint");
        for (i, ep) in eps.iter().enumerate() {
            assert_eq!(ep.rank(), i, "endpoints must be ordered by rank");
            assert_eq!(ep.nranks(), eps.len());
        }
        assert_eq!(dm.nranks(), eps.len());
        let n = eps.len();
        Self {
            eps,
            dm,
            dm_version: 0,
            plans: Vec::new(),
            records: fresh_records(n),
            seq: 0,
            step: 0,
            injector: None,
            stats: FaultStats::default(),
            loss: None,
        }
    }

    pub fn nranks(&self) -> usize {
        self.eps.len()
    }

    pub fn mapping(&self) -> &DistributionMapping {
        &self.dm
    }

    /// Attach the shared state of a fault-injected transport so its
    /// injected-side counters drain into the step telemetry.
    pub fn attach_injector(&mut self, inj: Arc<FaultInjector>) {
        self.injector = Some(inj);
    }

    /// Take the pending unrecoverable rank loss, if any. While a loss is
    /// pending, every communication phase drains (no-ops) so the step
    /// loop reaches a safe point for rollback.
    pub fn take_loss(&mut self) -> Option<RankLoss> {
        self.loss.take()
    }

    /// Count a completed crash recovery (rollback + `replayed` replayed
    /// steps) into the next telemetry drain.
    pub fn note_recovery(&mut self, replayed: u64) {
        self.stats.recoveries += 1;
        self.stats.replayed_steps += replayed;
    }

    /// Fold a phase's rank results into the step accounting and, on the
    /// first error, condemn a rank: an explicit `Crashed` names itself,
    /// a `PeerLost`/`Timeout` names its peer, anything else (transient
    /// budget exhausted, persistent corruption, desync) names the
    /// reporting rank. Thread-join order is rank order, so the choice is
    /// deterministic.
    fn absorb(&mut self, outs: Vec<RankOut>, phase: Phase) -> usize {
        let mut deleted = 0;
        let mut errs: Vec<TransportError> = Vec::new();
        for o in outs {
            deleted += o.deleted;
            self.records[o.rec.rank].merge(&o.rec);
            self.stats.merge(&o.faults);
            if let Some(e) = o.err {
                errs.push(e);
            }
        }
        if self.loss.is_none() && !errs.is_empty() {
            let pick = |kind: TransportErrorKind| errs.iter().find(|e| e.kind == kind).copied();
            let (error, dead_rank) = if let Some(e) = pick(TransportErrorKind::Crashed) {
                (e, e.rank)
            } else if let Some(e) = pick(TransportErrorKind::PeerLost) {
                (e, e.peer)
            } else if let Some(e) = pick(TransportErrorKind::Timeout) {
                (e, e.peer)
            } else {
                (errs[0], errs[0].rank)
            };
            self.loss = Some(RankLoss {
                dead_rank,
                step: self.step,
                phase,
                error,
            });
        }
        deleted
    }

    fn plan_for(
        &mut self,
        kind: Kind,
        a: &FabArray,
        period: &Periodicity,
    ) -> (Arc<PartitionedPlan>, bool) {
        let key = PlanKey {
            kind: kind as u8,
            stagger: a.stagger(),
            ngrow: a.ngrow(),
            period: *period,
            generation: a.generation(),
            dm_version: self.dm_version,
        };
        if let Some((_, p)) = self.plans.iter().find(|(k, _)| *k == key) {
            return (Arc::clone(p), false);
        }
        let plan = match kind {
            Kind::Fill => ExchangePlan::fill(a.boxarray(), a.stagger(), a.ngrow(), period),
            Kind::Sum => ExchangePlan::sum(a.boxarray(), a.stagger(), a.ngrow(), period),
        };
        let pp = Arc::new(PartitionedPlan::new(
            &plan,
            a.boxarray(),
            a.stagger(),
            a.ngrow(),
            &self.dm,
        ));
        if self.plans.len() >= 64 {
            self.plans.remove(0);
        }
        self.plans.push((key, Arc::clone(&pp)));
        (pp, true)
    }

    /// Run one guard exchange over all arrays of the group, one rank per
    /// thread. `arrays` are exchanged in order with consecutive message
    /// sequence numbers.
    fn exchange_group(&mut self, arrays: &mut [&mut FabArray], period: &Periodicity, kind: Kind) {
        let nranks = self.nranks();
        let t0 = std::time::Instant::now();
        let mut plans = Vec::with_capacity(arrays.len());
        let mut built = Vec::with_capacity(arrays.len());
        for a in arrays.iter() {
            let (p, b) = self.plan_for(kind, a, period);
            plans.push(p);
            built.push(b);
        }
        let ncomps: Vec<usize> = arrays.iter().map(|a| a.ncomp()).collect();
        let narrays = arrays.len();
        // Shard every array's fabs by owning rank (ascending box id).
        let mut shards: Vec<Vec<Vec<(usize, &mut Fab)>>> = (0..nranks)
            .map(|_| Vec::with_capacity(arrays.len()))
            .collect();
        for a in arrays.iter_mut() {
            let mut per_rank: Vec<Vec<(usize, &mut Fab)>> =
                (0..nranks).map(|_| Vec::new()).collect();
            for (bi, fab) in a.fabs_mut().iter_mut().enumerate() {
                per_rank[self.dm.owner(bi)].push((bi, fab));
            }
            for (bucket, shard) in per_rank.into_iter().zip(shards.iter_mut()) {
                shard.push(bucket);
            }
        }
        let seq0 = self.seq;
        self.seq = self.seq.wrapping_add(narrays as u32);
        let phase = match kind {
            Kind::Fill => Phase::Fill,
            Kind::Sum => Phase::Sum,
        };
        let step = self.step;
        let plans_ref = &plans;
        let ncomps_ref = &ncomps;
        let outs: Vec<RankOut> = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .into_iter()
                .zip(self.eps.iter_mut())
                .enumerate()
                .map(|(r, (shard, ep))| {
                    s.spawn(move || {
                        rank_exchange(
                            r, nranks, shard, ep, plans_ref, ncomps_ref, phase, seq0, kind, step,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        self.absorb(outs, phase);
        // Keep the arrays' own CommStats accounting identical to the
        // single-rank executors (unclipped points, cross-box messages);
        // wall time of the whole group lands on its first array.
        let wall = t0.elapsed().as_secs_f64();
        for (i, a) in arrays.iter_mut().enumerate() {
            a.record_exchange(&CommStats {
                bytes: plans[i].total_points as u64 * 8 * ncomps[i] as u64,
                messages: plans[i].cross_box_items,
                exchanges: 1,
                plan_builds: u64::from(built[i]),
                seconds: if i == 0 { wall } else { 0.0 },
            });
        }
    }
}

fn find_fab<'s>(shard: &'s mut [(usize, &mut Fab)], bi: usize) -> &'s mut Fab {
    let idx = shard
        .binary_search_by_key(&bi, |(b, _)| *b)
        .expect("box not in rank shard");
    shard[idx].1
}

/// One rank's half of an exchange group: pack own entries (ascending
/// global index), send one frame per peer and array, receive one frame
/// per peer and array, then apply all entries targeting own boxes in
/// ascending global index — reproducing the serial plan order. A
/// non-retryable transport error aborts the rank's remaining work for
/// the whole group; the driver records the loss and drains the step.
#[allow(clippy::too_many_arguments)]
fn rank_exchange(
    r: usize,
    nranks: usize,
    mut shard: Vec<Vec<(usize, &mut Fab)>>,
    ep: &mut Box<dyn Endpoint>,
    plans: &[Arc<PartitionedPlan>],
    ncomps: &[usize],
    phase: Phase,
    seq0: u32,
    kind: Kind,
    step: u64,
) -> RankOut {
    let t0 = std::time::Instant::now();
    let _phase_span = mrpic_trace::span!(
        match kind {
            Kind::Fill => "rank_fill",
            Kind::Sum => "rank_sum",
        },
        r
    );
    let mut rec = RankStepComm {
        rank: r,
        ..Default::default()
    };
    let mut faults = FaultStats::default();
    let mut scratch: Vec<f64> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut run = || -> Result<(), TransportError> {
        for (i, pp) in plans.iter().enumerate() {
            let rp = &pp.ranks[r];
            let ncomp = ncomps[i];
            let tag = Tag {
                phase,
                seq: seq0.wrapping_add(i as u32),
            };
            // Pack. For `Sum` this must complete before any apply so every
            // payload holds pre-sum values — the same two-phase structure as
            // the serial `execute_sum`. (Safe for `Fill` too: fills read
            // valid regions and write guard regions, which never alias.)
            let mut local: std::collections::VecDeque<(usize, Vec<f64>)> = Default::default();
            let mut bodies: Vec<Vec<u8>> = (0..nranks).map(|_| Vec::new()).collect();
            let mut counts: Vec<u32> = vec![0; nranks];
            for e in &rp.pack {
                let Some(clip) = e.clip else { continue };
                let npts = clip.num_cells() as usize;
                scratch.clear();
                let src = find_fab(&mut shard[i], e.item.src);
                for c in 0..ncomp {
                    pack_region_into(src, c, &clip, &mut scratch);
                }
                debug_assert_eq!(scratch.len(), npts * ncomp);
                if e.dst_rank == r {
                    local.push_back((e.index, scratch.clone()));
                } else {
                    let body = &mut bodies[e.dst_rank];
                    put_u32(body, e.index as u32);
                    put_u32(body, scratch.len() as u32);
                    put_f64s(body, &scratch);
                    counts[e.dst_rank] += 1;
                }
            }
            for (d, body) in bodies.into_iter().enumerate() {
                if d == r {
                    continue;
                }
                let mut frame = Vec::with_capacity(4 + body.len());
                put_u32(&mut frame, counts[d]);
                frame.extend_from_slice(&body);
                send_framed(ep.as_mut(), d, tag, frame, &mut rec, &mut faults)?;
            }
            // Receive one frame from every peer (ascending rank) — doubles
            // as the exchange barrier.
            let mut frames: Vec<Option<Vec<u8>>> = (0..nranks).map(|_| None).collect();
            for (src, slot) in frames.iter_mut().enumerate() {
                if src == r {
                    continue;
                }
                *slot = Some(recv_framed(
                    ep.as_mut(),
                    src,
                    tag,
                    step,
                    &mut rec,
                    &mut faults,
                )?);
            }
            let mut readers: Vec<Option<Reader>> = frames
                .iter()
                .map(|o| {
                    o.as_deref().map(|f| {
                        let mut rd = Reader::new(f);
                        let _count = rd.u32();
                        rd
                    })
                })
                .collect();
            // Apply in ascending global plan index, merging the local stash
            // with the per-peer streams (each already ascending).
            for e in &rp.apply {
                let Some(clip) = e.clip else { continue };
                let npts = clip.num_cells() as usize;
                if e.src_rank == r {
                    let (idx, v) = local.pop_front().expect("local stream underrun");
                    assert_eq!(idx, e.index, "local apply stream desynchronized");
                    vals = v;
                } else {
                    let rd = readers[e.src_rank].as_mut().unwrap();
                    let idx = rd.u32() as usize;
                    assert_eq!(idx, e.index, "remote apply stream desynchronized");
                    let n = rd.u32() as usize;
                    rd.f64s_into(n, &mut vals);
                }
                debug_assert_eq!(vals.len(), npts * ncomp);
                let dst = find_fab(&mut shard[i], e.item.dst);
                for c in 0..ncomp {
                    let seg = &vals[c * npts..(c + 1) * npts];
                    match kind {
                        Kind::Fill => {
                            blend_region_from_buf(dst, c, &clip, e.item.shift, seg, |_, s| s)
                        }
                        Kind::Sum => {
                            blend_region_from_buf(dst, c, &clip, e.item.shift, seg, |d2, s| d2 + s)
                        }
                    }
                }
            }
            debug_assert!(local.is_empty(), "unapplied local entries");
            debug_assert!(
                readers.iter_mut().flatten().all(|rd| rd.is_empty()),
                "unapplied remote entries"
            );
        }
        Ok(())
    };
    let err = run().err();
    rec.exchange_seconds = t0.elapsed().as_secs_f64();
    RankOut {
        rec,
        faults,
        err,
        deleted: 0,
    }
}

impl StepComm for DistComm {
    fn fill_group(&mut self, arrays: &mut [&mut FabArray], period: &Periodicity) {
        if self.loss.is_some() {
            return;
        }
        self.exchange_group(arrays, period, Kind::Fill);
    }

    fn sum_group(&mut self, arrays: &mut [&mut FabArray], period: &Periodicity) {
        if self.loss.is_some() {
            return;
        }
        self.exchange_group(arrays, period, Kind::Sum);
    }

    fn redistribute(
        &mut self,
        pc: &mut ParticleContainer,
        ba: &BoxArray,
        geom: &GridGeom,
        period: &Periodicity,
    ) -> usize {
        if self.loss.is_some() {
            return 0;
        }
        let nranks = self.nranks();
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        let tag = Tag {
            phase: Phase::Redist,
            seq,
        };
        let step = self.step;
        let dm = &self.dm;
        let mut shards: Vec<Vec<(usize, &mut ParticleBuf)>> =
            (0..nranks).map(|_| Vec::new()).collect();
        for (bi, buf) in pc.bufs.iter_mut().enumerate() {
            shards[dm.owner(bi)].push((bi, buf));
        }
        let outs: Vec<RankOut> = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .into_iter()
                .zip(self.eps.iter_mut())
                .enumerate()
                .map(|(r, (shard, ep))| {
                    s.spawn(move || {
                        rank_redistribute(r, nranks, shard, ep, dm, ba, geom, period, tag, step)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        self.absorb(outs, Phase::Redist)
    }

    fn adopt_mapping(
        &mut self,
        prev: &DistributionMapping,
        next: &DistributionMapping,
        fs: &mut FieldSet,
        parts: &mut [ParticleContainer],
    ) {
        if self.loss.is_some() {
            return;
        }
        if let Err(e) = self.migrate(prev, next, fs, parts) {
            let dead_rank = match e.kind {
                TransportErrorKind::Crashed => e.rank,
                TransportErrorKind::PeerLost | TransportErrorKind::Timeout => e.peer,
                _ => e.rank,
            };
            self.loss = Some(RankLoss {
                dead_rank,
                step: self.step,
                phase: Phase::Migrate,
                error: e,
            });
        }
    }

    fn begin_step(&mut self, istep: u64) {
        self.step = istep;
        for ep in &mut self.eps {
            ep.set_step(istep);
        }
    }

    fn note_box_seconds(&mut self, box_seconds: &[f64]) {
        for (bi, s) in box_seconds.iter().enumerate() {
            self.records[self.dm.owner(bi)].particle_seconds += s;
        }
    }

    fn take_rank_records(&mut self) -> Vec<RankStepComm> {
        let n = self.nranks();
        // Wire counters accumulate inside the endpoints (only a socket
        // backend produces any); drain them into the owning rank's
        // record once per telemetry cycle.
        for (i, ep) in self.eps.iter_mut().enumerate() {
            let (bytes, flushes) = ep.take_wire_counters();
            self.records[i].wire_bytes += bytes;
            self.records[i].wire_flushes += flushes;
        }
        std::mem::replace(&mut self.records, fresh_records(n))
    }

    fn drained(&self) -> bool {
        self.loss.is_some()
    }

    fn take_fault_stats(&mut self) -> Option<FaultStats> {
        let mut s = std::mem::take(&mut self.stats);
        if let Some(inj) = &self.injector {
            s.merge(&inj.take_stats());
        }
        (self.injector.is_some() || !s.is_empty()).then_some(s)
    }
}

/// One rank's redistribution: scan owned boxes in ascending box order
/// with the shared `scan_box_moves`, ship off-rank movers, then merge
/// local and received movers by ascending *source* box (each stream is
/// already in source order) so every destination buffer sees the exact
/// insertion order of the serial path.
#[allow(clippy::too_many_arguments)]
fn rank_redistribute(
    r: usize,
    nranks: usize,
    mut shard: Vec<(usize, &mut ParticleBuf)>,
    ep: &mut Box<dyn Endpoint>,
    dm: &DistributionMapping,
    ba: &BoxArray,
    geom: &GridGeom,
    period: &Periodicity,
    tag: Tag,
    step: u64,
) -> RankOut {
    let t0 = std::time::Instant::now();
    let _phase_span = mrpic_trace::span!("rank_redist", r);
    let mut rec = RankStepComm {
        rank: r,
        ..Default::default()
    };
    let mut faults = FaultStats::default();
    let mut deleted = 0usize;
    let mut run = || -> Result<(), TransportError> {
        // (src box, dst box, particle), in scan order per source box.
        let mut local: Vec<(usize, usize, ParticleTuple)> = Vec::new();
        let mut bodies: Vec<Vec<u8>> = (0..nranks).map(|_| Vec::new()).collect();
        let mut counts: Vec<u32> = vec![0; nranks];
        for (bi, buf) in shard.iter_mut() {
            let bi = *bi;
            let my_box = ba.get(bi);
            deleted += scan_box_moves(buf, &my_box, ba, geom, period, |owner, p| {
                let dr = dm.owner(owner);
                if dr == r {
                    local.push((bi, owner, p));
                } else {
                    let body = &mut bodies[dr];
                    put_u32(body, bi as u32);
                    put_u32(body, owner as u32);
                    put_f64s(body, &[p.0, p.1, p.2, p.3, p.4, p.5, p.6]);
                    counts[dr] += 1;
                    rec.migrated_out += 1;
                }
            });
        }
        for (d, body) in bodies.into_iter().enumerate() {
            if d == r {
                continue;
            }
            let mut frame = Vec::with_capacity(4 + body.len());
            put_u32(&mut frame, counts[d]);
            frame.extend_from_slice(&body);
            send_framed(ep.as_mut(), d, tag, frame, &mut rec, &mut faults)?;
        }
        // Collect incoming movers; every stream is ascending in source box,
        // and a source box lives in exactly one stream, so a stable sort by
        // source box merges them into the serial insertion order.
        let mut movers = local;
        for src in 0..nranks {
            if src == r {
                continue;
            }
            let frame = recv_framed(ep.as_mut(), src, tag, step, &mut rec, &mut faults)?;
            let mut rd = Reader::new(&frame);
            let n = rd.u32() as usize;
            for _ in 0..n {
                let sbi = rd.u32() as usize;
                let dbi = rd.u32() as usize;
                let p = (
                    rd.f64(),
                    rd.f64(),
                    rd.f64(),
                    rd.f64(),
                    rd.f64(),
                    rd.f64(),
                    rd.f64(),
                );
                movers.push((sbi, dbi, p));
            }
            assert!(rd.is_empty(), "trailing bytes in redistribution frame");
        }
        movers.sort_by_key(|(sbi, _, _)| *sbi);
        for (_, dbi, p) in movers {
            let idx = shard
                .binary_search_by_key(&dbi, |(b, _)| *b)
                .expect("mover routed to unowned box");
            shard[idx].1.push_tuple(p);
        }
        Ok(())
    };
    let err = run().err();
    rec.exchange_seconds = t0.elapsed().as_secs_f64();
    RankOut {
        rec,
        faults,
        err,
        deleted,
    }
}

impl DistComm {
    /// Physically migrate every box whose owner changed: serialize its
    /// nine fab payloads and per-species particle tiles, move the bytes
    /// through the transport, zero/clear the source copies, and restore
    /// on the receiving rank. Orchestrated serially (migration is rare
    /// and bulk); the bytes still cross the transport so the recording
    /// backend prices it and a dropped message corrupts state loudly.
    fn migrate(
        &mut self,
        prev: &DistributionMapping,
        next: &DistributionMapping,
        fs: &mut FieldSet,
        parts: &mut [ParticleContainer],
    ) -> Result<(), TransportError> {
        let _migrate_span = mrpic_trace::span!("migrate");
        let nranks = self.nranks();
        assert_eq!(prev.nranks(), nranks);
        assert_eq!(next.nranks(), nranks);
        let nboxes = fs.e[0].nfabs();
        let tag = Tag {
            phase: Phase::Migrate,
            seq: self.seq,
        };
        self.seq = self.seq.wrapping_add(1);
        let step = self.step;
        // Group migrating boxes by ordered (src, dst) rank pair.
        let mut pairs: std::collections::BTreeMap<(usize, usize), Vec<usize>> = Default::default();
        for bi in 0..nboxes {
            let (s, d) = (prev.owner(bi), next.owner(bi));
            if s != d {
                pairs.entry((s, d)).or_default().push(bi);
            }
        }
        for (&(s, d), boxes) in &pairs {
            let mut frame = Vec::new();
            put_u32(&mut frame, boxes.len() as u32);
            for &bi in boxes {
                put_u32(&mut frame, bi as u32);
                for a in nine(fs) {
                    let raw = a.fab(bi).raw();
                    put_u32(&mut frame, raw.len() as u32);
                    put_f64s(&mut frame, raw);
                }
                for pc in parts.iter() {
                    let buf = &pc.bufs[bi];
                    put_u32(&mut frame, buf.len() as u32);
                    for i in 0..buf.len() {
                        put_f64s(
                            &mut frame,
                            &[
                                buf.x[i], buf.y[i], buf.z[i], buf.ux[i], buf.uy[i], buf.uz[i],
                                buf.w[i],
                            ],
                        );
                    }
                    self.records[s].migrated_out += buf.len() as u64;
                }
            }
            send_framed(
                self.eps[s].as_mut(),
                d,
                tag,
                frame,
                &mut self.records[s],
                &mut self.stats,
            )?;
            // The sender's copies are gone: zero the fabs and clear the
            // tiles so only the transported bytes can restore them.
            for &bi in boxes {
                for a in nine(fs) {
                    a.fab_mut(bi).raw_mut().fill(0.0);
                }
                for pc in parts.iter_mut() {
                    pc.bufs[bi] = ParticleBuf::default();
                }
            }
        }
        for (&(s, d), boxes) in &pairs {
            let frame = recv_framed(
                self.eps[d].as_mut(),
                s,
                tag,
                step,
                &mut self.records[d],
                &mut self.stats,
            )?;
            let mut rd = Reader::new(&frame);
            let n = rd.u32() as usize;
            assert_eq!(n, boxes.len());
            let mut vals: Vec<f64> = Vec::new();
            for &bi in boxes {
                assert_eq!(rd.u32() as usize, bi, "migration frame desynchronized");
                for a in nine(fs) {
                    let len = rd.u32() as usize;
                    let raw = a.fab_mut(bi).raw_mut();
                    assert_eq!(len, raw.len(), "migrated fab size mismatch");
                    rd.f64s_into(len, &mut vals);
                    raw.copy_from_slice(&vals);
                }
                for pc in parts.iter_mut() {
                    let np = rd.u32() as usize;
                    let buf = &mut pc.bufs[bi];
                    for _ in 0..np {
                        let p = (
                            rd.f64(),
                            rd.f64(),
                            rd.f64(),
                            rd.f64(),
                            rd.f64(),
                            rd.f64(),
                            rd.f64(),
                        );
                        buf.push_tuple(p);
                    }
                }
            }
            assert!(rd.is_empty(), "trailing bytes in migration frame");
        }
        self.dm = next.clone();
        self.dm_version += 1;
        Ok(())
    }
}

/// The nine parent-level arrays in their fixed wire order.
fn nine(fs: &mut FieldSet) -> [&mut FabArray; 9] {
    let [e0, e1, e2] = &mut fs.e;
    let [b0, b1, b2] = &mut fs.b;
    let [j0, j1, j2] = &mut fs.j;
    [e0, e1, e2, b0, b1, b2, j0, j1, j2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{faulty_mem_transport, CrashPoint, FaultPlan};
    use crate::sim::boxed;
    use crate::transport::mem_transport;
    use mrpic_amr::{IndexBox, Strategy};

    fn dom() -> IndexBox {
        IndexBox::from_size(IntVect::new(12, 8, 4))
    }

    fn painted(ngrow: i64, stagger: Stagger, guard_junk: bool) -> FabArray {
        let ba = BoxArray::chop(dom(), IntVect::new(4, 4, 4));
        let mut fa = FabArray::new(ba, stagger, 2, ngrow);
        for bi in 0..fa.nfabs() {
            let raw = fa.fab_mut(bi).raw_mut();
            for (k, v) in raw.iter_mut().enumerate() {
                *v = (bi * 100_003 + k) as f64 * 0.37 - 11.0;
            }
            if !guard_junk {
                // Deposit-style state is produced everywhere (valid +
                // guards) by the painter above; fills instead start from
                // junk guards, which is what the loop already made.
            }
        }
        fa
    }

    fn comm_for(fa: &FabArray, nranks: usize) -> DistComm {
        let dm = DistributionMapping::build(fa.boxarray(), nranks, Strategy::RoundRobin, &[]);
        DistComm::new(boxed(mem_transport(nranks)), dm)
    }

    fn assert_bitwise_eq(a: &FabArray, b: &FabArray) {
        for bi in 0..a.nfabs() {
            let (ra, rb) = (a.fab(bi).raw(), b.fab(bi).raw());
            assert_eq!(ra.len(), rb.len());
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(x.to_bits(), y.to_bits(), "box {bi} differs");
            }
        }
    }

    #[test]
    fn dist_fill_matches_serial_across_rank_counts() {
        for stagger in [Stagger::CELL, Stagger::efield(0)] {
            for periodic in [Periodicity::none(dom()), Periodicity::all(dom())] {
                let mut reference = painted(2, stagger, true);
                reference.fill_boundary(&periodic);
                for nranks in [1, 2, 3, 4] {
                    let mut fa = painted(2, stagger, true);
                    let mut comm = comm_for(&fa, nranks);
                    comm.fill_group(&mut [&mut fa], &periodic);
                    assert_bitwise_eq(&reference, &fa);
                }
            }
        }
    }

    #[test]
    fn dist_sum_matches_serial_across_rank_counts() {
        for periodic in [Periodicity::none(dom()), Periodicity::all(dom())] {
            let mut reference = painted(2, Stagger::CELL, false);
            reference.sum_boundary(&periodic);
            for nranks in [1, 2, 3, 4] {
                let mut fa = painted(2, Stagger::CELL, false);
                let mut comm = comm_for(&fa, nranks);
                comm.sum_group(&mut [&mut fa], &periodic);
                assert_bitwise_eq(&reference, &fa);
            }
        }
    }

    #[test]
    fn dist_fill_is_bitwise_identical_under_transient_faults() {
        let periodic = Periodicity::all(dom());
        let mut reference = painted(2, Stagger::CELL, true);
        reference.fill_boundary(&periodic);
        for seed in [1u64, 2, 3] {
            let mut fa = painted(2, Stagger::CELL, true);
            let (eps, inj) = faulty_mem_transport(3, FaultPlan::transient(seed));
            let dm = DistributionMapping::build(fa.boxarray(), 3, Strategy::RoundRobin, &[]);
            let mut comm = DistComm::new(boxed(eps), dm);
            comm.attach_injector(inj);
            comm.fill_group(&mut [&mut fa], &periodic);
            assert!(comm.take_loss().is_none(), "transient plan must recover");
            assert_bitwise_eq(&reference, &fa);
            let stats = comm.take_fault_stats().expect("chaos comm reports stats");
            assert_eq!(stats.corruptions_detected, stats.corruptions_injected);
        }
    }

    #[test]
    fn rank_crash_is_recorded_and_the_step_drains() {
        let periodic = Periodicity::none(dom());
        let mut fa = painted(1, Stagger::CELL, true);
        let plan = FaultPlan {
            seed: 11,
            recv_timeout_ms: 50,
            crash: Some(CrashPoint {
                rank: 1,
                step: 0,
                phase: None,
            }),
            ..FaultPlan::default()
        };
        let (eps, inj) = faulty_mem_transport(2, plan);
        let dm = DistributionMapping::build(fa.boxarray(), 2, Strategy::RoundRobin, &[]);
        let mut comm = DistComm::new(boxed(eps), dm);
        comm.attach_injector(inj);
        comm.begin_step(0); // fires the step-level crash
        comm.fill_group(&mut [&mut fa], &periodic);
        let loss = comm.take_loss().expect("crash must be detected");
        assert_eq!(loss.dead_rank, 1);
        assert_eq!(loss.step, 0);
        assert_eq!(loss.phase, Phase::Fill);
        // With the loss pending, later phases drain instead of hanging.
        comm.loss = Some(loss);
        comm.fill_group(&mut [&mut fa], &periodic);
        comm.sum_group(&mut [&mut fa], &periodic);
        let stats = comm.take_fault_stats().unwrap();
        assert_eq!(stats.crashes, 1);
        assert!(stats.peer_losses_detected >= 1);
    }

    #[test]
    fn rank_records_account_messages() {
        let mut fa = painted(1, Stagger::CELL, true);
        let mut comm = comm_for(&fa, 2);
        let p = Periodicity::none(dom());
        comm.fill_group(&mut [&mut fa], &p);
        let recs = comm.take_rank_records();
        assert_eq!(recs.len(), 2);
        // One frame per ordered pair per array.
        assert_eq!(recs.iter().map(|r| r.sent_messages).sum::<u64>(), 2);
        assert!(recs.iter().all(|r| r.sent_bytes >= 8));
        assert!(comm
            .take_rank_records()
            .iter()
            .all(|r| r.sent_messages == 0));
        // No fault layer attached: no stats block either.
        assert!(comm.take_fault_stats().is_none());
    }

    #[test]
    fn plan_cache_hits_on_repeat_exchange() {
        let mut fa = painted(1, Stagger::CELL, true);
        let mut comm = comm_for(&fa, 2);
        let p = Periodicity::none(dom());
        comm.fill_group(&mut [&mut fa], &p);
        comm.fill_group(&mut [&mut fa], &p);
        assert_eq!(comm.plans.len(), 1);
        assert_eq!(fa.stats().plan_builds, 1);
        assert_eq!(fa.stats().exchanges, 2);
    }
}
