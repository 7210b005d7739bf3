//! Step-loop communication seams.
//!
//! `Simulation::step_with` routes every operation that crosses box
//! ownership through a [`StepComm`]: guard-cell fills, current sums,
//! particle redistribution, and load-balance adoption. [`LocalComm`] is
//! the single-address-space implementation and reproduces the historical
//! single-rank behavior exactly; the `mrpic-dist` crate implements the
//! same trait over a message-passing transport, turning off-rank
//! [`mrpic_amr::PlanEntry`]s into serialized messages. Because every
//! implementation must apply plan items in ascending global plan index,
//! `step()` is bitwise identical for any rank count.

use crate::particles::ParticleContainer;
use mrpic_amr::{BoxArray, DistributionMapping, FabArray, Periodicity};
use mrpic_field::fieldset::{FieldSet, GridGeom};
use serde::{Deserialize, Serialize};

/// Per-rank communication and timing record for one step of a
/// distributed run, aggregated into [`crate::telemetry::StepRecord`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RankStepComm {
    pub rank: usize,
    /// Bytes this rank put on the transport this step (framed payloads).
    pub sent_bytes: u64,
    /// Messages this rank sent, including empty barrier frames.
    pub sent_messages: u64,
    pub recv_bytes: u64,
    pub recv_messages: u64,
    /// Wall seconds this rank spent packing/sending/receiving/applying
    /// exchange data. Includes the blocking recv-wait below, so *busy*
    /// time is `exchange_seconds - recv_wait_seconds`.
    pub exchange_seconds: f64,
    /// Wall seconds of `exchange_seconds` spent blocked inside `recv`
    /// waiting for a peer's frame to arrive — idle time, not work. A
    /// rank stalled on a hot neighbor accumulates it here so the
    /// imbalance metric does not mistake the stall for load.
    #[serde(default)]
    pub recv_wait_seconds: f64,
    /// Wall seconds of particle work (gather/push/deposit) over the
    /// boxes this rank owns.
    pub particle_seconds: f64,
    /// Particles this rank shipped to other ranks during redistribution.
    pub migrated_out: u64,
    /// Bytes this rank actually put on a physical wire (socket frames,
    /// headers and CRC trailers included). Zero for in-process
    /// transports; distinct from `sent_bytes`, which counts logical
    /// framed payloads regardless of backend.
    #[serde(default)]
    pub wire_bytes: u64,
    /// Socket-stream flushes (one per wire frame enqueued).
    #[serde(default)]
    pub wire_flushes: u64,
}

impl RankStepComm {
    pub fn merge(&mut self, other: &RankStepComm) {
        self.sent_bytes += other.sent_bytes;
        self.sent_messages += other.sent_messages;
        self.recv_bytes += other.recv_bytes;
        self.recv_messages += other.recv_messages;
        self.exchange_seconds += other.exchange_seconds;
        self.recv_wait_seconds += other.recv_wait_seconds;
        self.particle_seconds += other.particle_seconds;
        self.migrated_out += other.migrated_out;
        self.wire_bytes += other.wire_bytes;
        self.wire_flushes += other.wire_flushes;
    }
}

/// The communication backend a [`crate::Simulation`] steps against.
///
/// Determinism contract: `fill_group`/`sum_group` must be observationally
/// identical to calling `fill_boundary`/`sum_boundary` on each array in
/// order — i.e. plan items applied in ascending global plan index, with
/// sum-exchanges packing all pre-sum values before any application.
/// `redistribute` must insert migrated particles into each destination
/// buffer in ascending (source box, scan-order) order, matching
/// [`crate::particles::ParticleContainer::redistribute`].
pub trait StepComm {
    /// Fill guard cells of every array in `arrays` (copy semantics).
    fn fill_group(&mut self, arrays: &mut [&mut FabArray], period: &Periodicity);

    /// Accumulate guard-region deposits of every array into the valid
    /// regions they overlap (add semantics).
    fn sum_group(&mut self, arrays: &mut [&mut FabArray], period: &Periodicity);

    /// Move particles to the box containing their position; returns the
    /// number deleted (left a non-periodic domain or the box union).
    fn redistribute(
        &mut self,
        pc: &mut ParticleContainer,
        ba: &BoxArray,
        geom: &GridGeom,
        period: &Periodicity,
    ) -> usize;

    /// Physically migrate fab data and particle tiles whose owner changed
    /// between `prev` and `next` (adopted rebalance). In a single address
    /// space this is bookkeeping only.
    fn adopt_mapping(
        &mut self,
        prev: &DistributionMapping,
        next: &DistributionMapping,
        fs: &mut FieldSet,
        parts: &mut [ParticleContainer],
    );

    /// Mark the start of step `istep` (message tagging, trace grouping).
    fn begin_step(&mut self, _istep: u64) {}

    /// Report per-box particle-phase wall seconds for this step so a
    /// distributed backend can attribute them to owning ranks.
    fn note_box_seconds(&mut self, _box_seconds: &[f64]) {}

    /// Drain the per-rank records accumulated since the last call.
    fn take_rank_records(&mut self) -> Vec<RankStepComm> {
        Vec::new()
    }

    /// True once a rank loss has drained this step: the step will be
    /// rolled back and replayed, so its record is not written.
    fn drained(&self) -> bool {
        false
    }

    /// Drain the fault-injection / recovery counters accumulated since
    /// the last call. `None` means no fault layer is attached at all;
    /// `Some` (possibly all-zero) means a chaos transport is active and
    /// its counters belong in the step telemetry.
    fn take_fault_stats(&mut self) -> Option<crate::telemetry::FaultStats> {
        None
    }
}

/// Single-address-space backend: everything is rank-local, exchanges go
/// through the arrays' own cached plans, adoption moves no data.
#[derive(Debug, Default)]
pub struct LocalComm;

impl StepComm for LocalComm {
    fn fill_group(&mut self, arrays: &mut [&mut FabArray], period: &Periodicity) {
        for a in arrays.iter_mut() {
            a.fill_boundary(period);
        }
    }

    fn sum_group(&mut self, arrays: &mut [&mut FabArray], period: &Periodicity) {
        for a in arrays.iter_mut() {
            a.sum_boundary(period);
        }
    }

    fn redistribute(
        &mut self,
        pc: &mut ParticleContainer,
        ba: &BoxArray,
        geom: &GridGeom,
        period: &Periodicity,
    ) -> usize {
        pc.redistribute(ba, geom, period)
    }

    fn adopt_mapping(
        &mut self,
        _prev: &DistributionMapping,
        _next: &DistributionMapping,
        _fs: &mut FieldSet,
        _parts: &mut [ParticleContainer],
    ) {
    }
}
