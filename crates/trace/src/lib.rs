//! Low-overhead hierarchical span tracing for the MR-PIC runtime.
//!
//! The paper's load-balancing story (§IV: 3.8× from cost-aware knapsack
//! redistribution, +25% from PML co-location) rests on knowing *where a
//! step's time goes* — per box, per message, per rank. This crate is the
//! measurement layer: RAII [`SpanGuard`]s (created by the [`span!`]
//! macro) append begin/end events to a per-thread lock-free ring with
//! monotonic timestamps; a global collector drains the rings into a
//! [`Trace`] of nested spans that the exporters ([`chrome`]) and
//! analyses ([`analysis`]) consume. Distributions — message bytes,
//! recv-wait and per-box kernel times — are derived from the spans
//! themselves ([`analysis::distribution`]); the scalar per-step counts
//! live in the step telemetry.
//!
//! # Overhead budget
//!
//! - **Disabled** (default): `span!` costs one relaxed atomic load and
//!   constructs an inert guard — no timestamp, no allocation, no ring
//!   access. Single-digit nanoseconds; safe to leave in hot kernels.
//! - **Enabled**: two `Instant` reads plus two single-producer ring
//!   pushes per span (~tens of nanoseconds). Spans are placed at phase,
//!   box, and message granularity — never per particle — so a traced
//!   step stays within a few percent of an untraced one (measured per
//!   workload as `bench.trace_overhead_share` by `mrpic_benchmark`).
//!
//! # Threading model
//!
//! Each thread lazily registers one fixed-capacity single-producer /
//! single-consumer ring. The producing thread pushes without locks; the
//! collector drains under a registry mutex (it is the only consumer).
//! When a thread exits — the distributed runtime spawns short-lived rank
//! threads per communication phase, and the rayon shim spawns scoped
//! workers per parallel loop — its TLS destructor flushes the ring into
//! the collected buffer and recycles it through a free list, so thread
//! churn neither leaks rings nor scrambles event order. A full ring
//! drops new events (counted in [`Trace::dropped`]) rather than block.

use std::cell::{RefCell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod analysis;
pub mod chrome;

/// Events per thread ring. At phase/box/message granularity a rank
/// produces a few hundred events per step, so this holds tens of steps
/// between [`collect`] calls; overflow drops (and counts) rather than
/// blocking the producer.
const RING_CAP: usize = 1 << 13;

const KIND_BEGIN: u8 = 0;
const KIND_END: u8 = 1;

/// One begin/end record in a thread's ring. `tid` is stamped at push
/// time from the owning ring so the collected (interleaved) buffer can
/// still be demultiplexed per thread track.
#[derive(Clone, Copy, Debug)]
struct RawEvent {
    t_ns: u64,
    name: &'static str,
    rank: i32,
    tid: u32,
    kind: u8,
    arg0: i64,
    arg1: i64,
}

const NULL_EVENT: RawEvent = RawEvent {
    t_ns: 0,
    name: "",
    rank: -1,
    tid: 0,
    kind: KIND_BEGIN,
    arg0: -1,
    arg1: -1,
};

/// Fixed-capacity single-producer single-consumer event ring.
///
/// The owning thread is the only pusher; drains happen either from the
/// collector (under the registry lock, while the producer may still be
/// pushing — the SPSC protocol makes that safe) or from the producer
/// itself at thread exit (also under the registry lock, so no second
/// consumer can race it).
struct Ring {
    buf: Box<[UnsafeCell<RawEvent>]>,
    /// Monotonic count of events written (producer-owned).
    head: AtomicUsize,
    /// Monotonic count of events consumed (consumer-owned).
    tail: AtomicUsize,
    dropped: AtomicUsize,
    tid: u32,
}

// SAFETY: slot `i` is written only by the producer at `head == i` before
// the Release store making it visible, and read only by the consumer at
// `tail == i` after an Acquire load of `head` — never concurrently.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(tid: u32) -> Self {
        let buf: Vec<UnsafeCell<RawEvent>> =
            (0..RING_CAP).map(|_| UnsafeCell::new(NULL_EVENT)).collect();
        Ring {
            buf: buf.into_boxed_slice(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
            tid,
        }
    }

    /// Producer-side push; drops (and counts) when full.
    fn push(&self, ev: RawEvent) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head - tail >= RING_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        unsafe { *self.buf[head % RING_CAP].get() = ev };
        self.head.store(head + 1, Ordering::Release);
    }

    /// Consumer-side drain of everything currently visible.
    fn drain_into(&self, out: &mut Vec<RawEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        while tail < head {
            out.push(unsafe { *self.buf[tail % RING_CAP].get() });
            tail += 1;
        }
        self.tail.store(tail, Ordering::Release);
    }
}

struct RegistryInner {
    /// Rings of live threads (collector drains these).
    live: Vec<Arc<Ring>>,
    /// Drained rings of exited threads, ready for reuse.
    free: Vec<Arc<Ring>>,
    /// Events drained so far, per-thread order preserved.
    collected: Vec<RawEvent>,
    dropped: u64,
    next_tid: u32,
}

struct Registry {
    inner: Mutex<RegistryInner>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        inner: Mutex::new(RegistryInner {
            live: Vec::new(),
            free: Vec::new(),
            collected: Vec::new(),
            dropped: 0,
            next_tid: 0,
        }),
    })
}

/// Is span collection active? One relaxed load — the whole cost of a
/// `span!` at a disabled site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start collecting spans (idempotent). Pins the timestamp epoch on
/// first call.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop collecting spans. Events already in rings stay until drained.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Nanoseconds since the trace epoch (pinned at first [`enable`]).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Thread-local handle whose drop flushes and recycles the ring.
struct ThreadRing {
    ring: Arc<Ring>,
}

impl ThreadRing {
    fn register() -> ThreadRing {
        let mut inner = registry().inner.lock().unwrap();
        let ring = match inner.free.pop() {
            Some(r) => r,
            None => {
                let tid = inner.next_tid;
                inner.next_tid += 1;
                Arc::new(Ring::new(tid))
            }
        };
        inner.live.push(Arc::clone(&ring));
        ThreadRing { ring }
    }
}

impl Drop for ThreadRing {
    fn drop(&mut self) {
        // Thread exit: flush our own ring (we are producer AND — under
        // the registry lock — sole consumer), then recycle it.
        let mut inner = registry().inner.lock().unwrap();
        let mut buf = std::mem::take(&mut inner.collected);
        self.ring.drain_into(&mut buf);
        inner.collected = buf;
        inner.dropped += self.ring.dropped.swap(0, Ordering::Relaxed) as u64;
        inner.live.retain(|r| !Arc::ptr_eq(r, &self.ring));
        inner.free.push(Arc::clone(&self.ring));
    }
}

thread_local! {
    static LOCAL: RefCell<Option<ThreadRing>> = const { RefCell::new(None) };
}

/// Stamp `ev` with this thread's ring and the current time, and push it.
fn push_event(mut ev: RawEvent) {
    // try_with: a span dropped during TLS teardown becomes a no-op
    // instead of a panic.
    let _ = LOCAL.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        let tr = slot.get_or_insert_with(ThreadRing::register);
        ev.tid = tr.ring.tid;
        // Read the clock only once the ring is ours: a recycled ring's
        // previous owner has exited by then, so its events all precede
        // ours and the shared tid track still nests.
        ev.t_ns = now_ns();
        tr.ring.push(ev);
    });
}

/// RAII span: pushes a begin event on creation (when tracing is
/// enabled), an end event on drop. Construct via [`span!`].
#[must_use = "a span guard measures until dropped; binding it to _ ends it immediately"]
pub struct SpanGuard {
    name: &'static str,
    rank: i32,
    active: bool,
}

impl SpanGuard {
    #[inline]
    pub fn enter(name: &'static str, rank: i32, arg0: i64, arg1: i64) -> SpanGuard {
        if !enabled() {
            return SpanGuard {
                name,
                rank,
                active: false,
            };
        }
        push_event(RawEvent {
            t_ns: 0,
            name,
            rank,
            tid: 0,
            kind: KIND_BEGIN,
            arg0,
            arg1,
        });
        SpanGuard {
            name,
            rank,
            active: true,
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.active {
            push_event(RawEvent {
                t_ns: 0,
                name: self.name,
                rank: self.rank,
                tid: 0,
                kind: KIND_END,
                arg0: -1,
                arg1: -1,
            });
        }
    }
}

/// Open a hierarchical span over the enclosing scope.
///
/// ```ignore
/// let _s = mrpic_trace::span!("deposit", rank, boxid);
/// ```
///
/// Forms: `span!(name)`, `span!(name, rank)`, `span!(name, rank, arg0)`,
/// `span!(name, rank, arg0, arg1)`. `rank` is `-1` for driver/serial
/// work; `arg0`/`arg1` carry span-specific metadata (box id, or peer
/// rank and byte count for `send`/`recv` spans). Compiles to a single
/// atomic load when tracing is disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, -1, -1, -1)
    };
    ($name:expr, $rank:expr) => {
        $crate::SpanGuard::enter($name, $rank as i32, -1, -1)
    };
    ($name:expr, $rank:expr, $a0:expr) => {
        $crate::SpanGuard::enter($name, $rank as i32, $a0 as i64, -1)
    };
    ($name:expr, $rank:expr, $a0:expr, $a1:expr) => {
        $crate::SpanGuard::enter($name, $rank as i32, $a0 as i64, $a1 as i64)
    };
}

/// Drain every live thread ring into the global collected buffer.
///
/// Call periodically (e.g. once per step) on long traced runs so thread
/// rings never overflow; [`take_trace`] collects implicitly.
pub fn collect() {
    let mut inner = registry().inner.lock().unwrap();
    let mut buf = std::mem::take(&mut inner.collected);
    let live: Vec<Arc<Ring>> = inner.live.to_vec();
    let mut dropped = 0u64;
    for ring in &live {
        ring.drain_into(&mut buf);
        dropped += ring.dropped.swap(0, Ordering::Relaxed) as u64;
    }
    inner.collected = buf;
    inner.dropped += dropped;
}

/// Drain all rings and assemble everything collected so far into a
/// [`Trace`], clearing the collector.
pub fn take_trace() -> Trace {
    collect();
    let (events, dropped) = {
        let mut inner = registry().inner.lock().unwrap();
        let ev = std::mem::take(&mut inner.collected);
        let d = inner.dropped;
        inner.dropped = 0;
        (ev, d)
    };
    Trace::from_raw(&events, dropped)
}

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub name: String,
    /// Owning rank; -1 for driver/serial-phase work.
    pub rank: i32,
    /// Thread track (stable across reuse of a recycled ring).
    pub tid: u32,
    pub begin_ns: u64,
    pub end_ns: u64,
    /// Nesting depth within its thread (0 = top level).
    pub depth: u32,
    pub arg0: i64,
    pub arg1: i64,
}

impl SpanRec {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns.saturating_sub(self.begin_ns)) as f64 * 1e-9
    }
}

/// A collected set of spans, ordered by begin time.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub spans: Vec<SpanRec>,
    /// Events lost to ring overflow (spans may be missing if nonzero).
    pub dropped: u64,
}

impl Trace {
    fn from_raw(events: &[RawEvent], dropped: u64) -> Trace {
        // Per-thread event order is preserved in the collected buffer
        // (each drain appends a ring's run contiguously), so a per-tid
        // stack of open begins reconstructs the span tree.
        let mut spans = Vec::new();
        let mut stacks: std::collections::HashMap<u32, Vec<RawEvent>> =
            std::collections::HashMap::new();
        let mut max_t = 0u64;
        for ev in events {
            let tid = ev.tid;
            max_t = max_t.max(ev.t_ns);
            let stack = stacks.entry(tid).or_default();
            match ev.kind {
                KIND_BEGIN => stack.push(*ev),
                _ => {
                    // Pop the innermost matching begin; unmatched ends
                    // (begin lost to overflow) are skipped.
                    if let Some(pos) = stack.iter().rposition(|b| b.name == ev.name) {
                        let depth = pos as u32;
                        let begin = stack.remove(pos);
                        spans.push(SpanRec {
                            name: begin.name.to_string(),
                            rank: begin.rank,
                            tid,
                            begin_ns: begin.t_ns,
                            end_ns: ev.t_ns,
                            depth,
                            arg0: begin.arg0,
                            arg1: begin.arg1,
                        });
                    }
                }
            }
        }
        // Close any still-open spans at the last timestamp seen (e.g. a
        // trace taken mid-span).
        for (_, stack) in stacks {
            for (pos, begin) in stack.iter().enumerate() {
                spans.push(SpanRec {
                    name: begin.name.to_string(),
                    rank: begin.rank,
                    tid: begin.tid,
                    begin_ns: begin.t_ns,
                    end_ns: max_t,
                    depth: pos as u32,
                    arg0: begin.arg0,
                    arg1: begin.arg1,
                });
            }
        }
        spans.sort_by_key(|s| (s.begin_ns, std::cmp::Reverse(s.end_ns)));
        Trace { spans, dropped }
    }

    /// Ranks present (spans with `rank >= 0`), as `max + 1`.
    pub fn nranks(&self) -> usize {
        self.spans
            .iter()
            .map(|s| s.rank + 1)
            .max()
            .unwrap_or(0)
            .max(0) as usize
    }

    /// Wall-clock extent of the trace in seconds.
    pub fn wall_s(&self) -> f64 {
        let lo = self.spans.iter().map(|s| s.begin_ns).min().unwrap_or(0);
        let hi = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        (hi.saturating_sub(lo)) as f64 * 1e-9
    }

    /// Timestamp- and thread-independent digest of the span tree:
    /// `(name, rank, arg0, count)` sorted. Two runs of the same seeded
    /// configuration must produce identical signatures.
    pub fn signature(&self) -> Vec<(String, i32, i64, u64)> {
        let mut agg: std::collections::BTreeMap<(String, i32, i64), u64> = Default::default();
        for s in &self.spans {
            *agg.entry((s.name.clone(), s.rank, s.arg0)).or_default() += 1;
        }
        agg.into_iter()
            .map(|((name, rank, arg0), n)| (name, rank, arg0, n))
            .collect()
    }

    /// Span references filtered by name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Verify spans on each thread track form a proper forest: every
    /// pair of spans on one track is either disjoint or nested.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut by_tid: std::collections::BTreeMap<u32, Vec<&SpanRec>> = Default::default();
        for s in &self.spans {
            by_tid.entry(s.tid).or_default().push(s);
        }
        for (tid, mut spans) in by_tid {
            spans.sort_by_key(|s| (s.begin_ns, std::cmp::Reverse(s.end_ns)));
            let mut open: Vec<&SpanRec> = Vec::new();
            for s in spans {
                while let Some(top) = open.last() {
                    if top.end_ns <= s.begin_ns {
                        open.pop();
                    } else {
                        break;
                    }
                }
                if let Some(top) = open.last() {
                    if s.end_ns > top.end_ns {
                        return Err(format!(
                            "tid {tid}: span '{}' [{}, {}] overlaps '{}' [{}, {}] without nesting",
                            s.name, s.begin_ns, s.end_ns, top.name, top.begin_ns, top.end_ns
                        ));
                    }
                }
                open.push(s);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enable flag, rings, and collector are process-global; tests
    /// that touch them must not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = lock();
        disable();
        let _ = take_trace(); // clear leftovers
        {
            let _s = span!("ghost");
        }
        let t = take_trace();
        assert!(t.spans.iter().all(|s| s.name != "ghost"));
    }

    #[test]
    fn spans_nest_and_carry_args() {
        let _g = lock();
        let _ = take_trace();
        enable();
        {
            let _outer = span!("outer", 2, 7);
            let _inner = span!("inner", 2, 7, 4096);
        }
        disable();
        let t = take_trace();
        let outer = t.named("outer").next().expect("outer recorded");
        let inner = t.named("inner").next().expect("inner recorded");
        assert_eq!(outer.rank, 2);
        assert_eq!(outer.arg0, 7);
        assert_eq!(inner.arg1, 4096);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(outer.begin_ns <= inner.begin_ns && inner.end_ns <= outer.end_ns);
        t.check_nesting().expect("RAII spans nest by construction");
    }

    #[test]
    fn cross_thread_spans_keep_their_tracks_and_rings_recycle() {
        let _g = lock();
        let _ = take_trace();
        enable();
        for round in 0..3 {
            std::thread::scope(|sc| {
                for w in 0..4 {
                    sc.spawn(move || {
                        let _s = span!("worker", w, round);
                    });
                }
            });
        }
        disable();
        let t = take_trace();
        let workers: Vec<_> = t.named("worker").collect();
        assert_eq!(workers.len(), 12);
        t.check_nesting()
            .expect("independent tracks nest trivially");
        // Dead threads recycled their rings: the free list bounds ring
        // allocation to the peak live thread count, not total spawns. A
        // thread returns its ring from a TLS destructor, which can still
        // be running when `scope` returns, so wait for the workers' rings
        // to leave the live set (threads of other tests may stay live).
        let worker_tids: Vec<u32> = workers.iter().map(|s| s.tid).collect();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        let (worker_live, free) = loop {
            let (worker_live, free) = {
                let inner = registry().inner.lock().unwrap();
                let live = inner.live.iter().filter(|r| worker_tids.contains(&r.tid));
                (live.count(), inner.free.len())
            };
            if worker_live == 0 || Instant::now() > deadline {
                break (worker_live, free);
            }
            std::thread::yield_now();
        };
        assert_eq!(worker_live, 0, "exited workers must release their rings");
        assert!(
            free <= 5,
            "rings should be reused across scoped-thread rounds, got {free}"
        );
    }

    #[test]
    fn ring_overflow_drops_and_counts() {
        let _g = lock();
        let ring = Ring::new(9999);
        let mut ev = NULL_EVENT;
        for i in 0..(RING_CAP + 100) {
            ev.t_ns = i as u64;
            ring.push(ev);
        }
        assert_eq!(ring.dropped.load(Ordering::Relaxed), 100);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), RING_CAP);
        assert_eq!(out[0].t_ns, 0);
        // Drained: pushes flow again.
        ring.push(ev);
        let mut out2 = Vec::new();
        ring.drain_into(&mut out2);
        assert_eq!(out2.len(), 1);
    }

    #[test]
    fn signature_ignores_threads_and_time() {
        let _g = lock();
        let _ = take_trace();
        enable();
        let run = || {
            std::thread::scope(|sc| {
                for r in 0..2 {
                    sc.spawn(move || {
                        let _s = span!("phase", r, 1);
                        let _t = span!("kernel", r, 2);
                    });
                }
            });
        };
        run();
        let a = take_trace();
        run();
        let b = take_trace();
        disable();
        assert_eq!(a.signature(), b.signature());
        assert!(!a.signature().is_empty());
    }
}
