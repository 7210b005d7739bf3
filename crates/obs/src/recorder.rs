//! The flight recorder: a bounded ring of recent events per rank,
//! dumped as `blackbox.json` when something goes wrong.
//!
//! Triggers: invariant-guard trip, unrecoverable transport/rank loss,
//! panic, and SIGUSR1 (all armed by [`crate::Driver::run`]; the
//! signal is polled from the step loop — the handler itself only sets
//! a flag, so it stays async-signal-safe). Each event
//! carries the step it happened at; the dump records the rank, mesh
//! generation, and the last recorded step so a post-mortem can line
//! the blackbox up against `summary.json`'s `failure_step`.

use mrpic_core::telemetry::StepRecord;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Top-level `schema` value of a `blackbox.json` document.
pub const BLACKBOX_SCHEMA: &str = "mrpic-blackbox-v1";

/// One entry in the flight-recorder ring.
///
/// `Step` carries an inline `StepRecord` because the vendored serde
/// derive cannot see through `Box` (the waiver serve's `Response` has);
/// nearly every entry is a `Step` anyway.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FlightEvent {
    /// One completed step: its whole telemetry record, LB decision and
    /// guard trip included, as its JSONL line carries it. A struct
    /// variant: internally tagged enums take no newtypes.
    Step { record: StepRecord },
    /// A transport-layer error or rank loss.
    TransportError { step: u64, detail: String },
    /// A completed crash recovery (rollback + replay).
    Recovery {
        step: u64,
        dead_rank: usize,
        epoch_step: u64,
        replayed: u64,
    },
    /// An elastic rank-count change.
    Resize { step: u64, from: usize, to: usize },
}

impl FlightEvent {
    fn step(&self) -> u64 {
        match self {
            FlightEvent::Step { record } => record.step,
            FlightEvent::TransportError { step, .. }
            | FlightEvent::Recovery { step, .. }
            | FlightEvent::Resize { step, .. } => *step,
        }
    }
}

/// The serialized form of a blackbox dump.
#[derive(Debug, Serialize, Deserialize)]
pub struct BlackboxDump {
    pub schema: String,
    /// What triggered the dump: `"guard_trip"`, `"rank_loss"`,
    /// `"transport_loss"`, `"panic"`, or `"sigusr1"`.
    pub reason: String,
    pub rank: usize,
    /// Elastic resizes the rank had gone through when it dumped.
    pub generation: u64,
    /// Highest step across recorded events.
    pub last_step: u64,
    pub events: Vec<FlightEvent>,
}

/// Bounded ring of recent [`FlightEvent`]s for one rank.
#[derive(Debug)]
pub struct FlightRecorder {
    rank: usize,
    generation: u64,
    cap: usize,
    ring: VecDeque<FlightEvent>,
    path: PathBuf,
}

impl FlightRecorder {
    /// `path` is where dumps land (conventionally
    /// `<outdir>/blackbox.json`); `cap` bounds the ring.
    pub fn new(rank: usize, path: PathBuf, cap: usize) -> Self {
        Self {
            rank,
            generation: 0,
            cap: cap.max(1),
            ring: VecDeque::new(),
            path,
        }
    }

    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    pub fn push(&mut self, ev: FlightEvent) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(ev);
    }

    /// Highest step across recorded events, 0 when empty.
    pub fn last_step(&self) -> u64 {
        self.ring.iter().map(|e| e.step()).max().unwrap_or(0)
    }

    /// Write the ring as `blackbox.json`; returns the dump path.
    pub fn dump(&self, reason: &str) -> std::io::Result<PathBuf> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let dump = BlackboxDump {
            schema: BLACKBOX_SCHEMA.to_string(),
            reason: reason.to_string(),
            rank: self.rank,
            generation: self.generation,
            last_step: self.last_step(),
            events: self.ring.iter().cloned().collect(),
        };
        let text = serde_json::to_string_pretty(&dump)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(&self.path, text + "\n")?;
        Ok(self.path.clone())
    }
}

/// The process-wide recorder the panic hook and signal poll dump.
static RECORDER: Mutex<Option<FlightRecorder>> = Mutex::new(None);

/// Install `r` as the process-wide recorder (replacing any previous).
pub fn install_recorder(r: FlightRecorder) {
    *RECORDER.lock().unwrap() = Some(r);
}

/// Run `f` against the installed recorder, if any.
pub fn with_recorder<T>(f: impl FnOnce(&mut FlightRecorder) -> T) -> Option<T> {
    RECORDER.lock().ok()?.as_mut().map(f)
}

/// Dump the installed recorder; returns the dump path on success.
pub fn dump_recorder(reason: &str) -> Option<PathBuf> {
    let guard = RECORDER.lock().ok()?;
    let r = guard.as_ref()?;
    match r.dump(reason) {
        Ok(p) => Some(p),
        Err(e) => {
            eprintln!("warning: cannot write blackbox {}: {e}", r.path.display());
            None
        }
    }
}

/// Chain a panic hook that dumps the installed recorder (reason
/// `"panic"`) before the default hook runs. Call once per process.
pub(crate) fn install_panic_dump() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = dump_recorder("panic");
        prev(info);
    }));
}

static SIGUSR1_FLAG: AtomicBool = AtomicBool::new(false);

type SigHandler = extern "C" fn(i32);

extern "C" {
    fn signal(signum: i32, handler: SigHandler) -> usize;
}

extern "C" fn on_sigusr1(_signum: i32) {
    SIGUSR1_FLAG.store(true, Ordering::SeqCst);
}

/// Route SIGUSR1 (10) into a flag the step loop polls via
/// [`sigusr1_pending`]. The handler only sets the flag; the dump
/// happens on the polling thread.
pub(crate) fn arm_sigusr1() {
    unsafe {
        signal(10, on_sigusr1);
    }
}

/// Consume a pending SIGUSR1, if one arrived since the last poll.
pub(crate) fn sigusr1_pending() -> bool {
    SIGUSR1_FLAG.swap(false, Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mrpic_obs_bb_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn ring_is_bounded_and_tracks_last_step() {
        let dir = tmpdir("ring");
        let mut r = FlightRecorder::new(2, dir.join("blackbox.json"), 3);
        for step in 0..10u64 {
            r.push(FlightEvent::Step {
                record: blank_record(step),
            });
        }
        assert_eq!(r.last_step(), 9);
        let path = r.dump("sigusr1").unwrap();
        let doc: BlackboxDump =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.schema, BLACKBOX_SCHEMA);
        assert_eq!(doc.rank, 2);
        assert_eq!(doc.last_step, 9);
        assert_eq!(doc.events.len(), 3, "ring must stay bounded");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn guard_trip_lands_in_dump_with_matching_step() {
        use mrpic_core::telemetry::GuardTrip;
        let dir = tmpdir("guard");
        let mut r = FlightRecorder::new(0, dir.join("blackbox.json"), 64);
        let mut rec = blank_record(7);
        rec.guard = Some(GuardTrip {
            step: 7,
            phase: "maxwell".into(),
            grid: "parent".into(),
            component: "Ex".into(),
            box_id: 3,
        });
        r.push(FlightEvent::Step { record: rec });
        let path = r.dump("guard_trip").unwrap();
        let doc: BlackboxDump =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.reason, "guard_trip");
        assert_eq!(doc.last_step, 7);
        assert!(doc.events.iter().any(|e| matches!(
            e,
            FlightEvent::Step { record } if record.guard.as_ref().is_some_and(|g| g.box_id == 3)
        )));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn blank_record(step: u64) -> StepRecord {
        StepRecord {
            step,
            time: 0.0,
            dt: 1.0,
            seconds: 0.0,
            phases: Default::default(),
            comm: Default::default(),
            particles: vec![],
            pushed: 0,
            deleted: 0,
            window_shifts: 0,
            rebalances: 0,
            probes: None,
            guard: None,
            ranks: Vec::new(),
            rank_count: None,
            faults: None,
            imbalance: None,
            lb: None,
            precision: Default::default(),
        }
    }

    #[test]
    fn global_recorder_dump_and_sigusr1_flag() {
        let dir = tmpdir("global");
        let mut r = FlightRecorder::new(1, dir.join("blackbox.json"), 8);
        r.set_generation(2);
        r.push(FlightEvent::TransportError {
            step: 4,
            detail: "peer closed".into(),
        });
        install_recorder(r);
        with_recorder(|r| {
            r.push(FlightEvent::Step {
                record: blank_record(5),
            })
        });
        let path = dump_recorder("transport_loss").expect("dump must succeed");
        let doc: BlackboxDump =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.generation, 2);
        assert_eq!(doc.last_step, 5);
        assert!(!sigusr1_pending());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
