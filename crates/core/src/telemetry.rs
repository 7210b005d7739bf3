//! Step-scoped telemetry and invariant guards.
//!
//! Every step the simulation assembles one [`StepRecord`] — per-phase wall
//! times, communication counters (as per-step deltas of the cumulative
//! [`CommStats`]), particle totals per species, and (when due) physics
//! probes: total field energy and the Gauss-law residual norm. Records land
//! in a bounded in-memory ring and, when a JSONL sink is attached via
//! [`Telemetry::open_jsonl`], one JSON object per line on disk.
//!
//! The NaN/Inf sentinel scans field data after deposition and after the
//! Maxwell update. The fast path sums each valid-region row (non-finite
//! values propagate through summation) and only on a trip narrows down to
//! the exact box and component, so the steady-state cost is a streaming
//! read of the field data. Guard trips are recorded as [`GuardTrip`] with
//! the step, phase, grid, box id, and component that first went bad.
//!
//! Cadence is configurable via [`TelemetryConfig`]: probes default to every
//! 20 steps, the sentinel to every step. Every step emits its record: it
//! is the step's only result, so run tallies, the metrics samplers and
//! the flight recorder all read the latest record in the ring.

use mrpic_amr::{CommStats, Fab, FabArray};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::Write;

/// Knobs for the telemetry subsystem; `RunConfig::build` fills them from
/// its `probe_interval`, `sentinel_interval` and `telemetry_rotate_bytes`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TelemetryConfig {
    /// Run the physics probes (field energy, Gauss residual) every this
    /// many steps; 0 disables them.
    pub probe_interval: u64,
    /// Run the NaN/Inf sentinel every this many steps; 0 disables it.
    pub sentinel_interval: u64,
    /// Number of most-recent records kept in memory (at least one: the
    /// latest record is always there).
    pub ring_capacity: usize,
    /// Rotate the JSONL sink once it exceeds this many bytes: the
    /// current file moves to `<name>.1` (replacing any previous one)
    /// and a fresh file continues. 0 disables rotation. Bounds the
    /// on-disk footprint of long runs at roughly twice the cap.
    pub rotate_bytes: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            probe_interval: 20,
            sentinel_interval: 1,
            ring_capacity: 256,
            rotate_bytes: 0,
        }
    }
}

/// Per-phase wall-clock seconds for one step. Every phase but `fill`
/// is charged by the step's one clock, so they partition the step:
/// [`PhaseTimes::total`] equals [`StepRecord::seconds`] at any thread
/// count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Field gather onto particles (aux/parent interpolation).
    #[serde(default)]
    pub gather: f64,
    /// Momentum + position push.
    #[serde(default)]
    pub push: f64,
    /// Esirkepov current deposition (incl. fine-buffer reduction).
    #[serde(default)]
    pub deposit: f64,
    /// Current guard summation, filtering, laser injection, MR coupling.
    #[serde(default)]
    pub sum: f64,
    /// Parent-grid Maxwell update (B half / E / B half + PML).
    #[serde(default)]
    pub maxwell: f64,
    /// Guard-fill exchange seconds across all grids (the comm-stats
    /// delta): an attribute that overlaps the phases, not one of them.
    #[serde(default)]
    pub fill: f64,
    /// MR patch field advance + aux build.
    #[serde(default)]
    pub mr: f64,
    /// Load-balance bookkeeping (cost tracking, plan adoption).
    #[serde(default)]
    pub lb: f64,
    /// Periodic particle re-sort.
    #[serde(default)]
    pub sort: f64,
    /// Particle redistribution after the push.
    #[serde(default)]
    pub redistribute: f64,
    /// Moving-window shifts and fresh-plasma injection.
    #[serde(default)]
    pub window: f64,
    /// Everything no named phase covers: current zeroing, the NaN/Inf
    /// sentinel, probes and record assembly.
    #[serde(default)]
    pub other: f64,
}

impl PhaseTimes {
    /// Sum of every phase but `fill`: the step's wall seconds.
    pub fn total(&self) -> f64 {
        self.gather
            + self.push
            + self.deposit
            + self.sum
            + self.maxwell
            + self.mr
            + self.lb
            + self.sort
            + self.redistribute
            + self.window
            + self.other
    }

    /// Accumulate another step's phase times into this one.
    pub fn merge(&mut self, o: &PhaseTimes) {
        self.gather += o.gather;
        self.push += o.push;
        self.deposit += o.deposit;
        self.sum += o.sum;
        self.maxwell += o.maxwell;
        self.fill += o.fill;
        self.mr += o.mr;
        self.lb += o.lb;
        self.sort += o.sort;
        self.redistribute += o.redistribute;
        self.window += o.window;
        self.other += o.other;
    }
}

/// Physics probe values sampled every `probe_interval` steps.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Probes {
    /// Total electromagnetic field energy on the parent grid [J].
    pub field_energy: f64,
    /// Max-norm of `div E - rho/eps0` over interior nodes. The Esirkepov /
    /// Yee combination conserves this residual in time (it is constant,
    /// not zero), so drift flags a charge-conservation bug.
    pub gauss_residual: f64,
}

/// Where the NaN/Inf sentinel first tripped.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GuardTrip {
    pub step: u64,
    /// Step phase after which the scan ran ("deposit", "maxwell", "mr").
    pub phase: String,
    /// Grid the poisoned fab lives on ("parent", "mr0.fine", ...).
    pub grid: String,
    /// Field component ("Ex", "By", "Jz", ...).
    pub component: String,
    /// Box index within that grid's box array.
    pub box_id: usize,
}

/// Per-step fault-injection and recovery counters from a distributed
/// run with a chaos transport attached (all zero / absent otherwise).
/// Injected counts come from the fault layer itself; detected counts
/// from the comm layer's CRC checks and retry loops — under a correct
/// retry policy every injected corruption is also detected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Message deliveries artificially delayed by the fault layer.
    #[serde(default)]
    pub delays_injected: u64,
    /// Payloads corrupted in flight by the fault layer.
    #[serde(default)]
    pub corruptions_injected: u64,
    /// Payloads the comm layer rejected via CRC and re-received.
    #[serde(default)]
    pub corruptions_detected: u64,
    /// Transient send/recv failures injected by the fault layer.
    #[serde(default)]
    pub transients_injected: u64,
    /// Operations the comm layer retried (transient faults + corrupt
    /// frames).
    #[serde(default)]
    pub retries: u64,
    /// Hard rank crashes fired by the fault layer.
    #[serde(default)]
    pub crashes: u64,
    /// Times a rank observed that a peer is gone (crashed or dropped).
    #[serde(default)]
    pub peer_losses_detected: u64,
    /// Completed crash recoveries (epoch rollback + rank-set shrink).
    #[serde(default)]
    pub recoveries: u64,
    /// Steps re-executed from the last checkpoint epoch during recovery.
    #[serde(default)]
    pub replayed_steps: u64,
}

impl FaultStats {
    pub fn merge(&mut self, o: &FaultStats) {
        self.delays_injected += o.delays_injected;
        self.corruptions_injected += o.corruptions_injected;
        self.corruptions_detected += o.corruptions_detected;
        self.transients_injected += o.transients_injected;
        self.retries += o.retries;
        self.crashes += o.crashes;
        self.peer_losses_detected += o.peer_losses_detected;
        self.recoveries += o.recoveries;
        self.replayed_steps += o.replayed_steps;
    }

    /// True when no fault activity at all was recorded.
    pub fn is_empty(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Particle count of one species at the end of a step.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpeciesCount {
    pub name: String,
    pub count: u64,
}

/// One structured record per step.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    pub step: u64,
    pub time: f64,
    pub dt: f64,
    /// Total wall seconds for the step.
    pub seconds: f64,
    /// `seconds` by phase (see [`PhaseTimes`]).
    pub phases: PhaseTimes,
    /// Communication counters for this step only (delta of cumulative).
    pub comm: CommStats,
    pub particles: Vec<SpeciesCount>,
    pub pushed: u64,
    pub deleted: u64,
    pub window_shifts: u64,
    pub rebalances: u64,
    #[serde(default)]
    pub probes: Option<Probes>,
    #[serde(default)]
    pub guard: Option<GuardTrip>,
    /// Per-rank communication/timing records from a distributed run
    /// (empty for the single-rank driver).
    #[serde(default)]
    pub ranks: Vec<crate::exchange::RankStepComm>,
    /// Rank count the step executed at (distributed runs only). Changes
    /// mid-run exactly at elastic grow/shrink barriers.
    #[serde(default)]
    pub rank_count: Option<usize>,
    /// Fault-injection / recovery counters for this step (present only
    /// when a chaos transport is attached to the run).
    #[serde(default)]
    pub faults: Option<FaultStats>,
    /// The paper's load-balance metric, max/mean, with two provenances:
    /// from per-rank *busy* seconds (particle + exchange minus blocking
    /// recv-wait) when the step produced rank records, otherwise — the
    /// serial and rayon-threaded case — from the per-box particle-phase
    /// seconds, so single-process runs still feed the LB trigger.
    /// `None` only when neither signal is defined (fewer than two
    /// boxes).
    #[serde(default)]
    pub imbalance: Option<f64>,
    /// The load-balance policy evaluation emitted with this step, if
    /// one completed: trigger imbalance, every candidate considered
    /// with predicted costs/savings, and what (if anything) was
    /// adopted. The realized imbalance is the next record's
    /// `imbalance`.
    #[serde(default)]
    pub lb: Option<crate::balance::LbDecision>,
    /// Particle-kernel precision mode the step ran under.
    #[serde(default)]
    pub precision: crate::sim::Precision,
}

/// Step-record ring plus optional JSONL sink and tripped-guard log.
#[derive(Debug, Default)]
pub struct Telemetry {
    pub cfg: TelemetryConfig,
    ring: VecDeque<StepRecord>,
    writer: Option<std::io::BufWriter<std::fs::File>>,
    /// Path of the attached sink (needed to rotate it).
    sink_path: Option<std::path::PathBuf>,
    /// Bytes written to the current sink file since (re)open.
    sink_bytes: u64,
    trips: Vec<GuardTrip>,
    write_error: Option<String>,
    /// One past the last recorded step: a replayed step below it is not
    /// recorded again.
    next_step: u64,
    /// Fault counters of steps that ran but were not recorded, folded
    /// into the next recorded step.
    carry: Option<FaultStats>,
}

impl Telemetry {
    pub fn new(cfg: TelemetryConfig) -> Self {
        Self {
            cfg,
            ring: VecDeque::new(),
            writer: None,
            sink_path: None,
            sink_bytes: 0,
            trips: Vec::new(),
            write_error: None,
            next_step: 0,
            carry: None,
        }
    }

    /// Attach a JSONL sink; every subsequent record appends one line.
    pub fn open_jsonl(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        let f = std::fs::File::create(path)?;
        self.writer = Some(std::io::BufWriter::new(f));
        self.sink_path = Some(path.to_path_buf());
        self.sink_bytes = 0;
        Ok(())
    }

    /// Size-based rotation: flush and close the current sink, move it
    /// aside as `<name>.1` (replacing any earlier rotation), and start
    /// a fresh file at the same path. Any failure follows the write
    /// policy — record the error, drop the sink, keep the run going.
    fn rotate_sink(&mut self) {
        let Some(path) = self.sink_path.clone() else {
            return;
        };
        let res = (|| -> std::io::Result<()> {
            if let Some(w) = &mut self.writer {
                w.flush()?;
            }
            self.writer = None;
            let mut rotated = path.clone().into_os_string();
            rotated.push(".1");
            std::fs::rename(&path, &rotated)?;
            self.writer = Some(std::io::BufWriter::new(std::fs::File::create(&path)?));
            self.sink_bytes = 0;
            Ok(())
        })();
        if let Err(e) = res {
            self.write_error = Some(format!("rotation failed: {e}"));
            self.writer = None;
        }
    }

    /// True when `istep` is a probe step (field energy, Gauss residual).
    pub fn probes_due(&self, istep: u64) -> bool {
        self.cfg.probe_interval != 0 && istep.is_multiple_of(self.cfg.probe_interval)
    }

    /// True when `istep` is a sentinel (NaN/Inf scan) step.
    pub fn sentinel_due(&self, istep: u64) -> bool {
        self.cfg.sentinel_interval != 0 && istep.is_multiple_of(self.cfg.sentinel_interval)
    }

    /// Keep only the fault counters of a step whose record is not
    /// written — one drained by a rank loss, which is rolled back and
    /// replayed. They fold into the next recorded step.
    pub fn discard(&mut self, rec: StepRecord) {
        if let Some(f) = &rec.faults {
            self.carry.get_or_insert_with(FaultStats::default).merge(f);
        }
    }

    /// Append a record to the ring (and the JSONL sink when attached),
    /// so each step is recorded once: a replay of a step recorded
    /// before a rollback is [`discard`](Self::discard)ed instead.
    /// A record carrying a guard trip flushes the sink immediately: the
    /// driver typically aborts right after a trip, and the tripping
    /// record is exactly the line a post-mortem must not lose to
    /// writer buffering.
    pub fn record(&mut self, mut rec: StepRecord) {
        if rec.step < self.next_step {
            return self.discard(rec);
        }
        self.next_step = rec.step + 1;
        if let Some(c) = self.carry.take() {
            rec.faults.get_or_insert_with(FaultStats::default).merge(&c);
        }
        let tripping = rec.guard.is_some();
        if let Some(trip) = &rec.guard {
            self.trips.push(trip.clone());
        }
        if let Some(w) = &mut self.writer {
            let mut written = 0u64;
            let res = serde_json::to_string(&rec)
                .map_err(|e| std::io::Error::other(e.to_string()))
                .and_then(|line| {
                    w.write_all(line.as_bytes())?;
                    w.write_all(b"\n")?;
                    written = line.len() as u64 + 1;
                    if tripping {
                        w.flush()?;
                    }
                    Ok(())
                });
            if let Err(e) = res {
                self.write_error = Some(e.to_string());
                self.writer = None;
            }
            self.sink_bytes += written;
            // Never rotate the file holding a guard trip out from under
            // the post-mortem that is about to read it.
            if self.cfg.rotate_bytes > 0 && self.sink_bytes >= self.cfg.rotate_bytes && !tripping {
                self.rotate_sink();
            }
        }
        if self.ring.len() >= self.cfg.ring_capacity.max(1) {
            self.ring.pop_front();
        }
        self.ring.push_back(rec);
    }

    /// Most recent records, oldest first (bounded by `ring_capacity`).
    pub fn records(&self) -> &VecDeque<StepRecord> {
        &self.ring
    }

    pub fn last(&self) -> Option<&StepRecord> {
        self.ring.back()
    }

    /// All guard trips observed so far (not bounded by the ring).
    pub fn trips(&self) -> &[GuardTrip] {
        &self.trips
    }

    pub fn tripped(&self) -> bool {
        !self.trips.is_empty()
    }

    /// First I/O error hit while writing JSONL, if any (writing stops on
    /// the first failure rather than spamming a dead sink).
    pub fn write_error(&self) -> Option<&str> {
        self.write_error.as_deref()
    }

    /// Phase times summed over the records currently in the ring.
    pub fn phase_totals(&self) -> PhaseTimes {
        let mut total = PhaseTimes::default();
        for r in &self.ring {
            total.merge(&r.phases);
        }
        total
    }

    pub fn flush(&mut self) {
        if let Some(w) = &mut self.writer {
            let _ = w.flush();
        }
    }

    /// Flush the JSONL sink *and* fsync it to durable storage. Called at
    /// job completion and server shutdown — the points where losing tail
    /// records to OS page-cache buffering would silently truncate the
    /// run's telemetry. A failure is recorded in [`Self::write_error`]
    /// and the sink is dropped, matching the write-path policy.
    pub fn sync(&mut self) {
        let Some(w) = &mut self.writer else {
            return;
        };
        let res = w.flush().and_then(|()| w.get_ref().sync_all());
        if let Err(e) = res {
            self.write_error = Some(e.to_string());
            self.writer = None;
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A sentinel hit inside one named array set: which array, box, and
/// component-within-fab first contained a non-finite value.
#[derive(Clone, Debug, PartialEq)]
pub struct SentinelHit {
    /// Name of the offending array as passed to [`scan_arrays`].
    pub component: String,
    pub box_id: usize,
    /// Component index within the fab (0 for single-component arrays;
    /// meaningful for split-PML fabs).
    pub comp: usize,
}

/// True when component `c` of `fab` holds a non-finite value anywhere in
/// its valid (non-guard) region. Guards are deliberately excluded: a NaN
/// copied in by an exchange would otherwise mislocalize the source box.
fn fab_comp_nonfinite(fab: &Fab, c: usize) -> bool {
    let vb = fab.valid_pts();
    let ix = fab.indexer();
    let comp = fab.comp(c);
    // Fast path: non-finite values propagate through sums, so one
    // accumulated sum over the whole valid region detects them. Eight
    // independent accumulators break the f64-add latency chain (a single
    // chain caps the scan well below memory bandwidth). A sum overflowing
    // to inf from finite data also flags — at ~1e308 field values that is
    // a blow-up worth reporting.
    let mut acc = [0.0f64; 8];
    // Point boxes are half-open: the valid points are `lo .. hi` exclusive.
    for z in vb.lo.z..vb.hi.z {
        for y in vb.lo.y..vb.hi.y {
            let lo = ix.at(vb.lo.x, y, z);
            let hi = ix.at(vb.hi.x - 1, y, z);
            let row = &comp[lo..=hi];
            let mut chunks = row.chunks_exact(8);
            for ch in &mut chunks {
                for k in 0..8 {
                    acc[k] += ch[k];
                }
            }
            for &v in chunks.remainder() {
                acc[0] += v;
            }
        }
    }
    !acc.iter().sum::<f64>().is_finite()
}

/// Scan named arrays for non-finite values in valid regions; returns the
/// first hit (array name, box id, component-within-fab) or `None`.
pub fn scan_arrays<'a>(
    arrays: impl IntoIterator<Item = (&'a str, &'a FabArray)>,
) -> Option<SentinelHit> {
    for (name, fa) in arrays {
        for (bi, fab) in fa.fabs().iter().enumerate() {
            for c in 0..fab.ncomp() {
                if fab_comp_nonfinite(fab, c) {
                    return Some(SentinelHit {
                        component: name.to_string(),
                        box_id: bi,
                        comp: c,
                    });
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrpic_amr::{BoxArray, IndexBox, IntVect, Stagger};

    fn mk_array(nbox: i64) -> FabArray {
        let domain = IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(nbox * 8, 1, 8));
        let ba = BoxArray::chop(domain, IntVect::new(8, 1, 8));
        FabArray::new_vec(ba, Stagger::CELL, 1, IntVect::new(2, 0, 2))
    }

    #[test]
    fn scan_clean_arrays_is_none() {
        let fa = mk_array(3);
        assert_eq!(scan_arrays([("Ex", &fa)]), None);
    }

    #[test]
    fn scan_localizes_poisoned_box() {
        let mut fa = mk_array(3);
        let p = fa.fab(1).valid_pts().lo;
        fa.fab_mut(1).set(0, p, f64::NAN);
        let hit = scan_arrays([("Ey", &fa)]).expect("sentinel must trip");
        assert_eq!(hit.component, "Ey");
        assert_eq!(hit.box_id, 1);
        assert_eq!(hit.comp, 0);
    }

    #[test]
    fn scan_ignores_guard_cells() {
        let mut fa = mk_array(2);
        // Poison a guard cell only: just past the (half-open) valid
        // region's high x edge, inside the grown box.
        let vb = fa.fab(0).valid_pts();
        let p = IntVect::new(vb.hi.x, vb.lo.y, vb.lo.z);
        fa.fab_mut(0).set(0, p, f64::INFINITY);
        assert_eq!(scan_arrays([("Bz", &fa)]), None);
    }

    #[test]
    fn ring_is_bounded_and_trips_accumulate() {
        let mut t = Telemetry::new(TelemetryConfig {
            ring_capacity: 2,
            ..TelemetryConfig::default()
        });
        for step in 0..5u64 {
            t.record(StepRecord {
                step,
                time: 0.0,
                dt: 1.0,
                seconds: 0.0,
                phases: PhaseTimes::default(),
                comm: CommStats::default(),
                particles: vec![],
                pushed: 0,
                deleted: 0,
                window_shifts: 0,
                rebalances: 0,
                probes: None,
                guard: (step == 3).then(|| GuardTrip {
                    step,
                    phase: "maxwell".into(),
                    grid: "parent".into(),
                    component: "Ex".into(),
                    box_id: 0,
                }),
                ranks: Vec::new(),
                faults: None,
                imbalance: None,
                lb: None,
                rank_count: None,
                precision: crate::sim::Precision::F64,
            });
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.last().unwrap().step, 4);
        assert!(t.tripped());
        assert_eq!(t.trips().len(), 1);
        assert_eq!(t.trips()[0].step, 3);
    }

    #[test]
    fn cadence_predicates() {
        let t = Telemetry::new(TelemetryConfig::default());
        assert!(t.sentinel_due(0) && t.sentinel_due(7));
        assert!(t.probes_due(0) && t.probes_due(40) && !t.probes_due(7));
    }

    #[test]
    fn step_record_roundtrips_through_json() {
        let rec = StepRecord {
            step: 11,
            time: 2.5e-15,
            dt: 1.25e-16,
            seconds: 3e-3,
            phases: PhaseTimes {
                gather: 1e-4,
                push: 2e-4,
                deposit: 3e-4,
                ..PhaseTimes::default()
            },
            comm: CommStats {
                bytes: 1024,
                messages: 8,
                exchanges: 4,
                plan_builds: 0,
                seconds: 5e-5,
            },
            particles: vec![SpeciesCount {
                name: "electron".into(),
                count: 4096,
            }],
            pushed: 4096,
            deleted: 0,
            window_shifts: 1,
            rebalances: 0,
            probes: Some(Probes {
                field_energy: 1.25e-9,
                gauss_residual: 3.5e-7,
            }),
            guard: None,
            ranks: vec![crate::exchange::RankStepComm {
                rank: 1,
                sent_bytes: 512,
                sent_messages: 3,
                ..Default::default()
            }],
            faults: Some(FaultStats {
                corruptions_injected: 2,
                corruptions_detected: 2,
                retries: 3,
                ..Default::default()
            }),
            imbalance: Some(1.25),
            lb: Some(crate::balance::LbDecision {
                step: 11,
                trigger_imbalance: 1.4,
                candidates: vec![crate::balance::LbCandidate {
                    strategy: "knapsack".into(),
                    predicted_imbalance: 1.05,
                    predicted_step_save: 2.0e-4,
                    migration_bytes: 1 << 20,
                    predicted_migration_seconds: 4.6e-5,
                    predicted_exchange_delta_seconds: -1.2e-6,
                    predicted_net_gain: 9.95e-3,
                }],
                adopted: Some("knapsack".into()),
                bytes_migrated: 1 << 20,
            }),
            rank_count: Some(2),
            precision: crate::sim::Precision::F32Particles,
        };
        let s = serde_json::to_string(&rec).unwrap();
        let back: StepRecord = serde_json::from_str(&s).unwrap();
        assert_eq!(back.step, 11);
        assert_eq!(back.ranks.len(), 1);
        assert_eq!(back.ranks[0].sent_bytes, 512);
        assert_eq!(back.phases, rec.phases);
        assert_eq!(back.comm, rec.comm);
        assert_eq!(back.particles, rec.particles);
        assert_eq!(back.probes, rec.probes);
        assert!(back.guard.is_none());
        assert_eq!(back.faults, rec.faults);
        assert_eq!(back.imbalance, Some(1.25));
        assert_eq!(back.lb, rec.lb);
        assert_eq!(back.precision, rec.precision);
    }

    /// A minimal record for sink tests.
    fn blank_record(step: u64, guard: Option<GuardTrip>) -> StepRecord {
        StepRecord {
            step,
            time: 0.0,
            dt: 1.0,
            seconds: 0.0,
            phases: PhaseTimes::default(),
            comm: CommStats::default(),
            particles: vec![],
            pushed: 0,
            deleted: 0,
            window_shifts: 0,
            rebalances: 0,
            probes: None,
            guard,
            ranks: Vec::new(),
            faults: None,
            imbalance: None,
            lb: None,
            rank_count: None,
            precision: crate::sim::Precision::F64,
        }
    }

    #[test]
    fn guard_trip_flushes_jsonl_immediately() {
        let path =
            std::env::temp_dir().join(format!("mrpic_telemetry_trip_{}.jsonl", std::process::id()));
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.open_jsonl(&path).unwrap();
        t.record(blank_record(0, None));
        t.record(blank_record(
            1,
            Some(GuardTrip {
                step: 1,
                phase: "maxwell".into(),
                grid: "parent".into(),
                component: "Ex".into(),
                box_id: 0,
            }),
        ));
        // No flush() and the Telemetry is still alive — the tripping
        // record must already be on disk.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "tripping record lost to buffering");
        assert!(text.lines().nth(1).unwrap().contains("\"maxwell\""));
        drop(t);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn drop_flushes_jsonl_sink() {
        let path =
            std::env::temp_dir().join(format!("mrpic_telemetry_drop_{}.jsonl", std::process::id()));
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.open_jsonl(&path).unwrap();
        // Small untripping records sit in the BufWriter until a flush;
        // dropping the Telemetry must be such a flush.
        t.record(blank_record(0, None));
        t.record(blank_record(1, None));
        drop(t);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_persists_tail_records() {
        let path =
            std::env::temp_dir().join(format!("mrpic_telemetry_sync_{}.jsonl", std::process::id()));
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.open_jsonl(&path).unwrap();
        t.record(blank_record(0, None));
        t.record(blank_record(1, None));
        t.sync();
        assert!(t.write_error().is_none());
        // Telemetry still alive (no Drop flush) — both records must be
        // on disk, fsynced.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        // A second sync on an already-synced (or sink-less) telemetry is
        // a harmless no-op.
        t.sync();
        drop(t);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sink_rotates_at_byte_cap() {
        let dir = std::env::temp_dir().join(format!("mrpic_telemetry_rot_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telemetry.jsonl");
        let mut t = Telemetry::new(TelemetryConfig {
            // A blank record serializes to a few hundred bytes, so a
            // 1 KiB cap rotates every few records.
            rotate_bytes: 1024,
            ..TelemetryConfig::default()
        });
        t.open_jsonl(&path).unwrap();
        for step in 0..40u64 {
            t.record(blank_record(step, None));
        }
        t.sync();
        assert!(t.write_error().is_none());
        let rotated = dir.join("telemetry.jsonl.1");
        assert!(rotated.exists(), "cap exceeded but no rotation happened");
        // Nothing is lost: current + rotated hold a contiguous suffix
        // of the record stream ending at the last step. (Earlier
        // rotations are replaced — the footprint stays bounded.)
        let read_steps = |p: &std::path::Path| -> Vec<u64> {
            std::fs::read_to_string(p)
                .unwrap()
                .lines()
                .map(|l| {
                    serde_json::from_str::<serde_json::Value>(l)
                        .unwrap()
                        .get("step")
                        .and_then(|v| v.as_u64())
                        .unwrap()
                })
                .collect()
        };
        let mut steps = read_steps(&rotated);
        steps.extend(read_steps(&path));
        assert!(!steps.is_empty());
        assert_eq!(*steps.last().unwrap(), 39);
        for w in steps.windows(2) {
            assert_eq!(w[1], w[0] + 1, "rotation dropped or reordered records");
        }
        // Both files stay under roughly the cap plus one record.
        for p in [&path, &rotated] {
            assert!(std::fs::metadata(p).unwrap().len() < 2048);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_disabled_by_default() {
        let dir =
            std::env::temp_dir().join(format!("mrpic_telemetry_norot_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telemetry.jsonl");
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.open_jsonl(&path).unwrap();
        for step in 0..40u64 {
            t.record(blank_record(step, None));
        }
        t.sync();
        assert!(!dir.join("telemetry.jsonl.1").exists());
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tripping_record_stays_in_current_file() {
        let dir =
            std::env::temp_dir().join(format!("mrpic_telemetry_rot_trip_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telemetry.jsonl");
        let mut t = Telemetry::new(TelemetryConfig {
            // Cap small enough that the tripping record itself crosses
            // it — rotation must still not move it aside.
            rotate_bytes: 64,
            ..TelemetryConfig::default()
        });
        t.open_jsonl(&path).unwrap();
        t.record(blank_record(0, None));
        t.record(blank_record(
            1,
            Some(GuardTrip {
                step: 1,
                phase: "maxwell".into(),
                grid: "parent".into(),
                component: "Ex".into(),
                box_id: 0,
            }),
        ));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"maxwell\""),
            "tripping record rotated out of the live file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_stats_merge_and_emptiness() {
        let mut a = FaultStats::default();
        assert!(a.is_empty());
        let b = FaultStats {
            delays_injected: 1,
            transients_injected: 2,
            retries: 2,
            crashes: 1,
            recoveries: 1,
            replayed_steps: 4,
            ..Default::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert!(!a.is_empty());
        assert_eq!(a.retries, 4);
        assert_eq!(a.replayed_steps, 8);
    }
}
