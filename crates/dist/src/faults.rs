//! Seeded, deterministic fault injection for the distributed runtime.
//!
//! [`FaultyEndpoint`] wraps any [`Endpoint`] and perturbs its traffic
//! according to a [`FaultPlan`]: message delivery delays, payload
//! corruption (caught by the CRC seal in `msg.rs` and transparently
//! re-received), transient send/recv failures (retried by the comm
//! layer with bounded backoff), and a hard rank crash at a chosen
//! step/phase (survived via checkpoint-epoch rollback in
//! [`crate::sim::DistSim`]).
//!
//! **Determinism rule.** Every injection decision is a pure function of
//! `(plan.seed, rank, per-rank operation counter)` — never of wall
//! clock or thread interleaving. Each rank's transport operations are
//! program-ordered, so the same `(seed, plan)` replays the exact same
//! fault schedule: identical [`FaultStats`], identical recovery trace,
//! identical final state. Wall time only ever changes *when* a fault
//! lands, not *whether* it does.
//!
//! A corrupted delivery keeps the pristine payload stashed and
//! redelivers it on the retry (the in-process stand-in for a link-layer
//! retransmit), so corruption never changes physics — only counters.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::transport::{
    mem_transport_with_timeout, Endpoint, MemEndpoint, Phase, Tag, TransportError,
    TransportErrorKind,
};
use mrpic_core::telemetry::FaultStats;
use serde::{Deserialize, Serialize};

/// Phase selector for a crash point (serializable mirror of
/// [`Phase`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhasePick {
    Fill,
    Sum,
    Redist,
    Migrate,
}

impl PhasePick {
    pub fn matches(&self, phase: Phase) -> bool {
        matches!(
            (self, phase),
            (PhasePick::Fill, Phase::Fill)
                | (PhasePick::Sum, Phase::Sum)
                | (PhasePick::Redist, Phase::Redist)
                | (PhasePick::Migrate, Phase::Migrate)
        )
    }
}

/// Kill one rank at a chosen point: the rank dies at its first
/// transport operation at `step` or later (restricted to a specific
/// communication phase when `phase` is set).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPoint {
    pub rank: usize,
    pub step: u64,
    #[serde(default)]
    pub phase: Option<PhasePick>,
}

fn default_delay_us() -> u64 {
    20
}
fn default_recv_timeout_ms() -> u64 {
    500
}

/// A seeded schedule of injected faults. Rates are per-mille (‰) per
/// transport operation, so the plan is integer-exact and reproducible.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the deterministic decision stream.
    #[serde(default)]
    pub seed: u64,
    /// ‰ of receives whose delivery is delayed by `delay_us`.
    #[serde(default)]
    pub delay_per_mille: u32,
    /// Length of one injected delivery delay, microseconds.
    #[serde(default = "default_delay_us")]
    pub delay_us: u64,
    /// ‰ of receives whose payload is corrupted in flight (the pristine
    /// payload is redelivered on retry once the CRC check rejects it).
    #[serde(default)]
    pub corrupt_per_mille: u32,
    /// ‰ of send/recv operations that fail transiently (retryable).
    #[serde(default)]
    pub transient_per_mille: u32,
    /// Receive timeout of the underlying in-process transport,
    /// milliseconds — how long a rank waits before declaring a silent
    /// peer lost.
    #[serde(default = "default_recv_timeout_ms")]
    pub recv_timeout_ms: u64,
    /// Optional hard rank crash.
    #[serde(default)]
    pub crash: Option<CrashPoint>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            delay_per_mille: 0,
            delay_us: default_delay_us(),
            corrupt_per_mille: 0,
            transient_per_mille: 0,
            recv_timeout_ms: default_recv_timeout_ms(),
            crash: None,
        }
    }
}

impl FaultPlan {
    /// Transient-only chaos: delays, corruption, and retryable failures
    /// at rates that exercise every recovery path on a short run, but
    /// no rank crash — physics must stay bitwise identical.
    pub fn transient(seed: u64) -> Self {
        Self {
            seed,
            delay_per_mille: 20,
            delay_us: 20,
            corrupt_per_mille: 25,
            transient_per_mille: 25,
            ..Self::default()
        }
    }

    /// The CI chaos smoke plan (`mrpic_run --fault-seed N`): a sprinkle
    /// of every transient fault plus one hard crash of rank 1 at step
    /// 20 — a 2-rank, 40-step run exercises injection, retry, and full
    /// crash recovery.
    pub fn chaos_smoke(seed: u64) -> Self {
        Self {
            seed,
            delay_per_mille: 10,
            delay_us: 20,
            corrupt_per_mille: 8,
            transient_per_mille: 10,
            recv_timeout_ms: default_recv_timeout_ms(),
            crash: Some(CrashPoint {
                rank: 1,
                step: 20,
                phase: None,
            }),
        }
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Shared state of one fault-injected transport: the plan, the current
/// step, which ranks are dead, and the injected-fault counters.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    step: AtomicU64,
    crash_fired: AtomicBool,
    dead: Mutex<Vec<bool>>,
    /// Per-step counters, drained into the telemetry by `take_stats`.
    stats: Mutex<FaultStats>,
    /// Lifetime counters, never reset.
    totals: Mutex<FaultStats>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan, nranks: usize) -> Self {
        Self {
            plan,
            step: AtomicU64::new(0),
            crash_fired: AtomicBool::new(false),
            dead: Mutex::new(vec![false; nranks]),
            stats: Mutex::new(FaultStats::default()),
            totals: Mutex::new(FaultStats::default()),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Ranks marked dead by an injected crash, ascending.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.dead
            .lock()
            .unwrap()
            .iter()
            .enumerate()
            .filter_map(|(r, &d)| d.then_some(r))
            .collect()
    }

    fn is_dead(&self, rank: usize) -> bool {
        self.dead.lock().unwrap()[rank]
    }

    /// Snapshot of the injected-side counters since the last drain.
    pub fn stats(&self) -> FaultStats {
        *self.stats.lock().unwrap()
    }

    /// Lifetime injected-side counters (never reset by the per-step
    /// telemetry drain).
    pub fn totals(&self) -> FaultStats {
        *self.totals.lock().unwrap()
    }

    /// Drain the injected-side counters.
    pub fn take_stats(&self) -> FaultStats {
        std::mem::take(&mut *self.stats.lock().unwrap())
    }

    fn bump(&self, f: impl Fn(&mut FaultStats)) {
        f(&mut self.stats.lock().unwrap());
        f(&mut self.totals.lock().unwrap());
    }

    /// Advance the step clock. A step-level crash (`phase: None`) fires
    /// *here*, on the driver thread before any rank thread of the step
    /// spawns: every rank then observes the dead set from its very first
    /// operation, so the survivors' abort points — and with them the
    /// fault counters — are a pure function of program order, not of
    /// thread timing.
    fn on_step(&self, step: u64) {
        self.step.store(step, Ordering::Relaxed);
        let Some(cp) = &self.plan.crash else { return };
        if cp.phase.is_none() && step >= cp.step && !self.crash_fired.swap(true, Ordering::Relaxed)
        {
            self.dead.lock().unwrap()[cp.rank] = true;
            self.bump(|s| s.crashes += 1);
        }
    }

    /// Fire a *phase-targeted* crash if `rank` is at (or past) its crash
    /// point. Firing at the rank's first operation of the phase means
    /// peers may detect the loss via timeout rather than the dead set,
    /// so detection counters can vary with thread timing — recovery and
    /// final state stay deterministic regardless (rollback + replay).
    fn crash_due(&self, rank: usize, phase: Phase) -> bool {
        let Some(cp) = &self.plan.crash else {
            return false;
        };
        let Some(pick) = cp.phase else { return false };
        if cp.rank != rank
            || self.step.load(Ordering::Relaxed) < cp.step
            || !pick.matches(phase)
            || self.crash_fired.swap(true, Ordering::Relaxed)
        {
            return false;
        }
        self.dead.lock().unwrap()[rank] = true;
        self.bump(|s| s.crashes += 1);
        true
    }
}

/// Wraps any [`Endpoint`], injecting the faults of a shared
/// [`FaultInjector`]'s plan. Same shape as `RecordingEndpoint` — the
/// wrappers compose.
pub struct FaultyEndpoint<E: Endpoint> {
    inner: E,
    injector: Arc<FaultInjector>,
    /// Per-rank operation counter driving the decision stream.
    ops: u64,
    /// Pristine payloads awaiting redelivery after an injected
    /// corruption, per source rank.
    stash: Vec<Option<(Tag, Vec<u8>)>>,
}

/// Build an in-process transport whose traffic is perturbed by `plan`.
/// The returned [`FaultInjector`] reports injected-fault counters and
/// dead ranks.
pub fn faulty_mem_transport(
    nranks: usize,
    plan: FaultPlan,
) -> (Vec<FaultyEndpoint<MemEndpoint>>, Arc<FaultInjector>) {
    let timeout = Duration::from_millis(plan.recv_timeout_ms.max(1));
    let injector = Arc::new(FaultInjector::new(plan, nranks));
    let eps = mem_transport_with_timeout(nranks, timeout)
        .into_iter()
        .map(|inner| FaultyEndpoint {
            inner,
            injector: Arc::clone(&injector),
            ops: 0,
            stash: (0..nranks).map(|_| None).collect(),
        })
        .collect();
    (eps, injector)
}

impl<E: Endpoint> FaultyEndpoint<E> {
    /// Next value of the deterministic decision stream.
    fn draw(&mut self) -> u64 {
        let h = splitmix64(
            self.injector
                .plan
                .seed
                .wrapping_add((self.inner.rank() as u64).wrapping_mul(0xA24B_AED4_963E_E407))
                .wrapping_add(self.ops.wrapping_mul(0x9FB2_1C65_1E98_DF25)),
        );
        self.ops += 1;
        h
    }

    fn err(&self, kind: TransportErrorKind, peer: usize, tag: Tag) -> TransportError {
        TransportError::new(
            kind,
            self.inner.rank(),
            peer,
            tag,
            self.injector.step.load(Ordering::Relaxed),
        )
    }

    /// Common entry checks for both directions: local crash firing,
    /// local already-dead, remote dead.
    fn gate(&mut self, peer: usize, tag: Tag) -> Result<(), TransportError> {
        let me = self.inner.rank();
        if self.injector.crash_due(me, tag.phase) || self.injector.is_dead(me) {
            return Err(self.err(TransportErrorKind::Crashed, peer, tag));
        }
        if self.injector.is_dead(peer) {
            self.injector.bump(|s| s.peer_losses_detected += 1);
            return Err(self.err(TransportErrorKind::PeerLost, peer, tag));
        }
        Ok(())
    }
}

impl<E: Endpoint> Endpoint for FaultyEndpoint<E> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn nranks(&self) -> usize {
        self.inner.nranks()
    }

    fn send(&mut self, dst: usize, tag: Tag, payload: Vec<u8>) -> Result<(), TransportError> {
        self.gate(dst, tag)?;
        let h = self.draw();
        if h % 1000 < self.injector.plan.transient_per_mille as u64 {
            self.injector.bump(|s| s.transients_injected += 1);
            return Err(self.err(TransportErrorKind::Transient, dst, tag));
        }
        self.inner.send(dst, tag, payload)
    }

    fn recv(&mut self, src: usize, tag: Tag) -> Result<Vec<u8>, TransportError> {
        // A pristine payload stashed by an earlier injected corruption
        // is redelivered first, bypassing every fault roll — one
        // corruption per message, so retries always converge.
        if let Some((stag, payload)) = self.stash[src].take() {
            assert_eq!(stag, tag, "stashed redelivery desynchronized");
            return Ok(payload);
        }
        self.gate(src, tag)?;
        let plan = self.injector.plan.clone();
        let h = self.draw();
        if h % 1000 < plan.transient_per_mille as u64 {
            self.injector.bump(|s| s.transients_injected += 1);
            return Err(self.err(TransportErrorKind::Transient, src, tag));
        }
        if (h >> 10) % 1000 < plan.delay_per_mille as u64 {
            self.injector.bump(|s| s.delays_injected += 1);
            let _delay_span =
                mrpic_trace::span!("fault_delay", self.inner.rank(), src, plan.delay_us);
            std::thread::sleep(Duration::from_micros(plan.delay_us));
        }
        let payload = match self.inner.recv(src, tag) {
            Ok(p) => p,
            // A timeout against a rank that died while we were blocked
            // is a peer loss, with the dead rank identified.
            Err(e) if e.kind == TransportErrorKind::Timeout && self.injector.is_dead(src) => {
                self.injector.bump(|s| s.peer_losses_detected += 1);
                return Err(self.err(TransportErrorKind::PeerLost, src, tag));
            }
            Err(e) => return Err(e),
        };
        if !payload.is_empty() && (h >> 20) % 1000 < plan.corrupt_per_mille as u64 {
            self.injector.bump(|s| s.corruptions_injected += 1);
            let mut corrupted = payload.clone();
            let pos = (h >> 30) as usize % corrupted.len();
            corrupted[pos] ^= 0x5A;
            self.stash[src] = Some((tag, payload));
            return Ok(corrupted);
        }
        Ok(payload)
    }

    fn set_step(&mut self, step: u64) {
        self.injector.on_step(step);
        self.inner.set_step(step);
    }

    fn take_wire_counters(&mut self) -> (u64, u64) {
        self.inner.take_wire_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Tag = Tag {
        phase: Phase::Fill,
        seq: 0,
    };

    #[test]
    fn decision_stream_is_deterministic() {
        let plan = FaultPlan::transient(42);
        let draw_seq = |n: usize| -> Vec<u64> {
            let (mut eps, _) = faulty_mem_transport(2, plan.clone());
            (0..n).map(|_| eps[0].draw()).collect()
        };
        assert_eq!(draw_seq(64), draw_seq(64));
        // Different ranks see different streams.
        let (mut eps, _) = faulty_mem_transport(2, plan);
        let a = eps[0].draw();
        let b = eps[1].draw();
        assert_ne!(a, b);
    }

    #[test]
    fn corruption_is_detected_and_pristine_redelivered() {
        // Force corruption on every receive.
        let plan = FaultPlan {
            seed: 7,
            corrupt_per_mille: 1000,
            ..FaultPlan::default()
        };
        let (mut eps, inj) = faulty_mem_transport(2, plan);
        let (a, b) = eps.split_at_mut(1);
        let mut frame = vec![1, 2, 3, 4, 5, 6, 7, 8];
        crate::msg::seal(&mut frame);
        a[0].send(1, T, frame.clone()).unwrap();
        let mut first = b[0].recv(0, T).unwrap();
        assert!(crate::msg::unseal(&mut first).is_err(), "must be corrupted");
        let mut second = b[0].recv(0, T).unwrap();
        crate::msg::unseal(&mut second).unwrap();
        assert_eq!(second, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(inj.stats().corruptions_injected, 1);
    }

    #[test]
    fn transient_send_does_not_deliver_and_retry_succeeds() {
        // First op per endpoint rolls transient with probability ~1.
        let plan = FaultPlan {
            seed: 1,
            transient_per_mille: 1000,
            ..FaultPlan::default()
        };
        let (mut eps, inj) = faulty_mem_transport(2, plan);
        let e = eps[0].send(1, T, vec![9]).unwrap_err();
        assert_eq!(e.kind, TransportErrorKind::Transient);
        assert!(inj.stats().transients_injected >= 1);
    }

    #[test]
    fn crash_point_kills_rank_and_peers_detect_loss() {
        let plan = FaultPlan {
            seed: 3,
            crash: Some(CrashPoint {
                rank: 1,
                step: 5,
                phase: Some(PhasePick::Sum),
            }),
            recv_timeout_ms: 20,
            ..FaultPlan::default()
        };
        let (mut eps, inj) = faulty_mem_transport(2, plan);
        for ep in &mut eps {
            ep.set_step(5);
        }
        // Fill phase at the crash step: not the selected phase, no crash.
        let fill = Tag {
            phase: Phase::Fill,
            seq: 1,
        };
        eps[1].send(0, fill, vec![]).unwrap();
        // Sum phase: rank 1 dies at its first op.
        let sum = Tag {
            phase: Phase::Sum,
            seq: 2,
        };
        let e = eps[1].send(0, sum, vec![]).unwrap_err();
        assert_eq!(e.kind, TransportErrorKind::Crashed);
        assert_eq!(inj.dead_ranks(), vec![1]);
        // Rank 0 sees the loss immediately (dead-set), not via timeout.
        let e = eps[0].recv(1, sum).unwrap_err();
        assert_eq!(e.kind, TransportErrorKind::PeerLost);
        assert_eq!(e.peer, 1);
        let stats = inj.stats();
        assert_eq!(stats.crashes, 1);
        assert!(stats.peer_losses_detected >= 1);
        // The dead rank stays dead.
        let e = eps[1].send(0, sum, vec![]).unwrap_err();
        assert_eq!(e.kind, TransportErrorKind::Crashed);
    }

    #[test]
    fn step_level_crash_fires_on_the_step_clock() {
        let plan = FaultPlan {
            seed: 2,
            crash: Some(CrashPoint {
                rank: 0,
                step: 3,
                phase: None,
            }),
            ..FaultPlan::default()
        };
        let (mut eps, inj) = faulty_mem_transport(2, plan);
        eps[0].set_step(2);
        assert!(inj.dead_ranks().is_empty());
        // Any endpoint advancing the shared clock to the crash step fires
        // it — before a single message moves.
        eps[1].set_step(3);
        assert_eq!(inj.dead_ranks(), vec![0]);
        let e = eps[0].send(1, T, vec![]).unwrap_err();
        assert_eq!(e.kind, TransportErrorKind::Crashed);
        let e = eps[1].recv(0, T).unwrap_err();
        assert_eq!(e.kind, TransportErrorKind::PeerLost);
        assert_eq!(inj.stats().crashes, 1);
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::chaos_smoke(42);
        let s = serde_json::to_string(&plan).unwrap();
        let back = FaultPlan::from_json(&s).unwrap();
        assert_eq!(back, plan);
        // Sparse plans pick up defaults.
        let sparse = FaultPlan::from_json("{\"seed\": 9, \"corrupt_per_mille\": 5}").unwrap();
        assert_eq!(sparse.seed, 9);
        assert_eq!(sparse.corrupt_per_mille, 5);
        assert_eq!(sparse.recv_timeout_ms, 500);
        assert!(sparse.crash.is_none());
    }
}
