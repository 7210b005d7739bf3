//! Fleet snapshot types and the per-rank sampler that feeds them.
//!
//! A [`RankMetrics`] is one rank's cumulative view — wire/logical
//! bytes, recv-wait and particle seconds, LB adoptions, guard trips —
//! plus windowed rates (step/s, wire bytes/s, recv-wait share)
//! computed between successive [`RankSampler::sample`] calls. The
//! [`MetricsHub`](crate::hub::MetricsHub) merges rank samples into a
//! [`FleetSnapshot`], the JSON form served at `GET /snapshot` and
//! written by `--metrics-out`; its `schema` key is how `mrpic_prof`
//! recognizes the file.

use mrpic_core::telemetry::StepRecord;
use serde::{Deserialize, Serialize};
use std::time::Instant;

use crate::expo::Sample;

/// Top-level `schema` value of a [`FleetSnapshot`] JSON document.
pub const SNAPSHOT_SCHEMA: &str = "mrpic-metrics-v1";

/// One rank's metrics sample: cumulative counters since rank start plus
/// rates over the window since the previous sample.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RankMetrics {
    pub rank: usize,
    /// Mesh generation the rank last stepped at (bumps on elastic
    /// resize); attributes a sample to a rank-set epoch.
    #[serde(default)]
    pub generation: u64,
    /// Last completed step.
    pub step: u64,
    /// Simulation time at the last completed step [s].
    #[serde(default)]
    pub time: f64,
    /// Steps per wall second over the last sample window.
    #[serde(default)]
    pub step_rate: f64,
    /// Telemetry imbalance (max/mean busy) at the last step.
    #[serde(default)]
    pub imbalance: Option<f64>,
    /// Run-mean of the per-step imbalance.
    #[serde(default)]
    pub mean_imbalance: Option<f64>,
    /// Logical framed payload bytes sent (any transport).
    #[serde(default)]
    pub sent_bytes: u64,
    #[serde(default)]
    pub recv_bytes: u64,
    /// Physical wire bytes (socket frames incl. headers + CRC); zero on
    /// in-process transports.
    #[serde(default)]
    pub wire_bytes: u64,
    #[serde(default)]
    pub wire_flushes: u64,
    /// Wire throughput over the last sample window [bytes/s].
    #[serde(default)]
    pub wire_bytes_per_s: f64,
    /// Wall seconds spent in exchange (packing/sending/receiving).
    #[serde(default)]
    pub exchange_seconds: f64,
    /// Wall seconds blocked in `recv` waiting for a peer — idle, not work.
    #[serde(default)]
    pub recv_wait_seconds: f64,
    /// Wall seconds of particle work over owned boxes.
    #[serde(default)]
    pub particle_seconds: f64,
    /// Recv-wait share of stepped wall time over the last window [0, 1].
    #[serde(default)]
    pub recv_wait_frac: f64,
    /// Particles shipped to other ranks during redistribution.
    #[serde(default)]
    pub migrated_out: u64,
    /// Load-balance plans adopted so far.
    #[serde(default)]
    pub lb_adoptions: u64,
    /// Step of the last adopted LB plan, if any.
    #[serde(default)]
    pub last_lb_step: Option<u64>,
    /// NaN/Inf invariant-guard trips observed.
    #[serde(default)]
    pub guard_trips: u64,
    /// Comm-layer retries (transient faults + corrupt frames).
    #[serde(default)]
    pub fault_retries: u64,
    /// Completed crash recoveries this rank participated in.
    #[serde(default)]
    pub recoveries: u64,
}

/// `mrpic_serve` fleet state: queue/slot occupancy plus per-job and
/// per-tenant rollups.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeMetrics {
    pub queue_depth: u64,
    pub running: u64,
    pub slots: u64,
    pub quantum: u64,
    #[serde(default)]
    pub jobs: Vec<JobMetrics>,
    #[serde(default)]
    pub tenants: Vec<TenantMetrics>,
}

#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    pub job_id: u64,
    pub tenant: String,
    pub state: String,
    pub priority: i64,
    pub steps_done: u64,
    pub preemptions: u64,
    /// Slot currently executing the job, if any.
    #[serde(default)]
    pub slot: Option<u64>,
    #[serde(default)]
    pub mean_imbalance: Option<f64>,
}

#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantMetrics {
    pub tenant: String,
    pub jobs: u64,
    pub running: u64,
    pub waiting: u64,
}

/// Point-in-time merged view of the whole fleet.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Always [`SNAPSHOT_SCHEMA`]; lets consumers (`mrpic_prof`,
    /// `mrpic_top`) detect the document kind.
    pub schema: String,
    /// Who merged it: `"run"` (supervisor / local runner) or `"serve"`.
    pub source: String,
    /// Seconds since the hub was created.
    pub uptime_seconds: f64,
    /// Max last-completed step across ranks.
    pub step: u64,
    pub ranks: Vec<RankMetrics>,
    #[serde(default)]
    pub serve: Option<ServeMetrics>,
}

impl FleetSnapshot {
    /// Flatten into exposition samples. Names ending in `_total` are
    /// counters, everything else gauges (see [`crate::expo::render`]).
    pub fn samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        let gauge = |name: &str, rank: usize, v: f64| Sample {
            name: name.to_string(),
            labels: vec![("rank".to_string(), rank.to_string())],
            value: v,
        };
        out.push(Sample {
            name: "mrpic_uptime_seconds".into(),
            labels: vec![("source".to_string(), self.source.clone())],
            value: self.uptime_seconds,
        });
        out.push(Sample {
            name: "mrpic_rank_count".into(),
            labels: Vec::new(),
            value: self.ranks.len() as f64,
        });
        for r in &self.ranks {
            let rk = r.rank;
            out.push(gauge("mrpic_step", rk, r.step as f64));
            out.push(gauge("mrpic_step_rate", rk, r.step_rate));
            if let Some(x) = r.imbalance {
                out.push(gauge("mrpic_step_imbalance", rk, x));
            }
            if let Some(x) = r.mean_imbalance {
                out.push(gauge("mrpic_mean_imbalance", rk, x));
            }
            out.push(gauge("mrpic_generation", rk, r.generation as f64));
            out.push(gauge("mrpic_wire_bytes_total", rk, r.wire_bytes as f64));
            out.push(gauge("mrpic_wire_flushes_total", rk, r.wire_flushes as f64));
            out.push(gauge("mrpic_sent_bytes_total", rk, r.sent_bytes as f64));
            out.push(gauge("mrpic_recv_bytes_total", rk, r.recv_bytes as f64));
            out.push(gauge("mrpic_wire_bytes_per_second", rk, r.wire_bytes_per_s));
            out.push(gauge(
                "mrpic_exchange_seconds_total",
                rk,
                r.exchange_seconds,
            ));
            out.push(gauge(
                "mrpic_recv_wait_seconds_total",
                rk,
                r.recv_wait_seconds,
            ));
            out.push(gauge(
                "mrpic_particle_seconds_total",
                rk,
                r.particle_seconds,
            ));
            out.push(gauge("mrpic_recv_wait_fraction", rk, r.recv_wait_frac));
            out.push(gauge("mrpic_migrated_out_total", rk, r.migrated_out as f64));
            out.push(gauge("mrpic_lb_adoptions_total", rk, r.lb_adoptions as f64));
            if let Some(s) = r.last_lb_step {
                out.push(gauge("mrpic_last_lb_step", rk, s as f64));
            }
            out.push(gauge("mrpic_guard_trips_total", rk, r.guard_trips as f64));
            out.push(gauge(
                "mrpic_fault_retries_total",
                rk,
                r.fault_retries as f64,
            ));
            out.push(gauge("mrpic_recoveries_total", rk, r.recoveries as f64));
        }
        if let Some(s) = &self.serve {
            let plain = |name: &str, v: f64| Sample {
                name: name.to_string(),
                labels: Vec::new(),
                value: v,
            };
            out.push(plain("mrpic_serve_queue_depth", s.queue_depth as f64));
            out.push(plain("mrpic_serve_running", s.running as f64));
            out.push(plain("mrpic_serve_slots", s.slots as f64));
            out.push(plain("mrpic_serve_quantum_steps", s.quantum as f64));
            out.push(plain("mrpic_serve_uptime_seconds", self.uptime_seconds));
            for j in &s.jobs {
                let labels = vec![
                    ("job".to_string(), j.job_id.to_string()),
                    ("tenant".to_string(), j.tenant.clone()),
                    ("state".to_string(), j.state.clone()),
                ];
                out.push(Sample {
                    name: "mrpic_serve_job_steps_total".into(),
                    labels: labels.clone(),
                    value: j.steps_done as f64,
                });
                out.push(Sample {
                    name: "mrpic_serve_job_preemptions_total".into(),
                    labels,
                    value: j.preemptions as f64,
                });
            }
            for t in &s.tenants {
                let labels = vec![("tenant".to_string(), t.tenant.clone())];
                for (name, v) in [
                    ("mrpic_serve_tenant_jobs", t.jobs),
                    ("mrpic_serve_tenant_running", t.running),
                    ("mrpic_serve_tenant_waiting", t.waiting),
                ] {
                    out.push(Sample {
                        name: name.into(),
                        labels: labels.clone(),
                        value: v as f64,
                    });
                }
            }
        }
        out
    }
}

/// Folds one rank's [`StepRecord`] stream into successive
/// [`RankMetrics`] samples.
///
/// `observe` is called every step (cheap field reads); `sample` is
/// called at the push cadence and computes the windowed rates. For
/// distributed records the sampler reads its own rank's
/// `RankStepComm` row; serial records fall back to the step-level
/// `CommStats` so single-rank runs still report.
pub struct RankSampler {
    rank: usize,
    cum: RankMetrics,
    imb_sum: f64,
    imb_steps: u64,
    window_t0: Option<Instant>,
    window_steps: u64,
    window_wire0: u64,
    window_busy: f64,
    window_wait: f64,
}

impl RankSampler {
    pub fn new(rank: usize) -> Self {
        Self {
            rank,
            cum: RankMetrics {
                rank,
                ..RankMetrics::default()
            },
            imb_sum: 0.0,
            imb_steps: 0,
            window_t0: None,
            window_steps: 0,
            window_wire0: 0,
            window_busy: 0.0,
            window_wait: 0.0,
        }
    }

    pub fn set_generation(&mut self, generation: u64) {
        self.cum.generation = generation;
    }

    /// Fold one step record in.
    pub fn observe(&mut self, rec: &StepRecord) {
        let c = &mut self.cum;
        c.step = rec.step;
        c.time = rec.time;
        c.imbalance = rec.imbalance;
        if let Some(x) = rec.imbalance {
            self.imb_sum += x;
            self.imb_steps += 1;
            c.mean_imbalance = Some(self.imb_sum / self.imb_steps as f64);
        }
        if let Some(row) = rec.ranks.iter().find(|r| r.rank == self.rank) {
            c.sent_bytes += row.sent_bytes;
            c.recv_bytes += row.recv_bytes;
            c.wire_bytes += row.wire_bytes;
            c.wire_flushes += row.wire_flushes;
            c.exchange_seconds += row.exchange_seconds;
            c.recv_wait_seconds += row.recv_wait_seconds;
            c.particle_seconds += row.particle_seconds;
            c.migrated_out += row.migrated_out;
            self.window_wait += row.recv_wait_seconds;
        } else {
            c.sent_bytes += rec.comm.bytes;
            c.recv_bytes += rec.comm.bytes;
            c.exchange_seconds += rec.comm.seconds;
            c.particle_seconds += rec.phases.gather + rec.phases.push + rec.phases.deposit;
        }
        self.window_busy += rec.seconds;
        if rec.rebalances > 0 {
            c.lb_adoptions += rec.rebalances;
            c.last_lb_step = Some(rec.step);
        }
        if rec.guard.is_some() {
            c.guard_trips += 1;
        }
        if let Some(f) = &rec.faults {
            c.fault_retries += f.retries;
            c.recoveries += f.recoveries;
        }
        self.window_steps += 1;
    }

    /// Produce a sample: cumulative counters plus rates over the window
    /// since the previous `sample` call (zero on the first).
    pub fn sample(&mut self) -> RankMetrics {
        let now = Instant::now();
        let mut m = self.cum.clone();
        if let Some(t0) = self.window_t0 {
            let dt = now.duration_since(t0).as_secs_f64();
            if dt > 0.0 && self.window_steps > 0 {
                m.step_rate = self.window_steps as f64 / dt;
                m.wire_bytes_per_s = (m.wire_bytes - self.window_wire0) as f64 / dt;
            }
        }
        if self.window_busy > 0.0 {
            m.recv_wait_frac = (self.window_wait / self.window_busy).clamp(0.0, 1.0);
        }
        self.window_t0 = Some(now);
        self.window_steps = 0;
        self.window_wire0 = m.wire_bytes;
        self.window_busy = 0.0;
        self.window_wait = 0.0;
        self.cum.step_rate = m.step_rate;
        self.cum.wire_bytes_per_s = m.wire_bytes_per_s;
        self.cum.recv_wait_frac = m.recv_wait_frac;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrpic_core::exchange::RankStepComm;
    use mrpic_core::telemetry::{GuardTrip, PhaseTimes, StepRecord};

    fn rec(step: u64, rank_row: Option<RankStepComm>) -> StepRecord {
        StepRecord {
            step,
            time: step as f64 * 1e-16,
            dt: 1e-16,
            seconds: 1e-3,
            phases: PhaseTimes {
                gather: 1e-4,
                push: 2e-4,
                deposit: 3e-4,
                ..PhaseTimes::default()
            },
            comm: mrpic_amr_comm(),
            particles: vec![],
            pushed: 0,
            deleted: 0,
            window_shifts: 0,
            rebalances: 0,
            probes: None,
            guard: None,
            ranks: rank_row.into_iter().collect(),
            rank_count: None,
            faults: None,
            imbalance: Some(1.5),
            lb: None,
            precision: Default::default(),
        }
    }

    fn mrpic_amr_comm() -> mrpic_amr::CommStats {
        mrpic_amr::CommStats {
            bytes: 100,
            messages: 2,
            exchanges: 1,
            plan_builds: 0,
            seconds: 1e-5,
        }
    }

    #[test]
    fn sampler_accumulates_rank_rows() {
        let mut s = RankSampler::new(1);
        for step in 0..4 {
            s.observe(&rec(
                step,
                Some(RankStepComm {
                    rank: 1,
                    sent_bytes: 10,
                    wire_bytes: 50,
                    recv_wait_seconds: 2e-4,
                    particle_seconds: 6e-4,
                    ..Default::default()
                }),
            ));
        }
        let m = s.sample();
        assert_eq!(m.rank, 1);
        assert_eq!(m.step, 3);
        assert_eq!(m.sent_bytes, 40);
        assert_eq!(m.wire_bytes, 200);
        assert_eq!(m.imbalance, Some(1.5));
        assert!((m.mean_imbalance.unwrap() - 1.5).abs() < 1e-12);
        // 4 steps of 1e-3 s busy, 2e-4 s recv-wait each.
        assert!((m.recv_wait_frac - 0.2).abs() < 1e-9);
    }

    #[test]
    fn sampler_serial_fallback_uses_comm_stats() {
        let mut s = RankSampler::new(0);
        s.observe(&rec(7, None));
        let m = s.sample();
        assert_eq!(m.sent_bytes, 100);
        assert_eq!(m.wire_bytes, 0);
        assert!((m.particle_seconds - 6e-4).abs() < 1e-12);
    }

    #[test]
    fn sampler_counts_guard_trips() {
        let mut s = RankSampler::new(0);
        let mut r = rec(3, None);
        r.guard = Some(GuardTrip {
            step: 3,
            phase: "maxwell".into(),
            grid: "parent".into(),
            component: "Ex".into(),
            box_id: 0,
        });
        s.observe(&r);
        assert_eq!(s.sample().guard_trips, 1);
    }

    /// An adoption counts with the record of the step that made it, so
    /// one made on the final step is not lost waiting for a later
    /// record, and the count equals the run's `lb_adoptions`.
    #[test]
    fn sampler_counts_an_adoption_on_the_final_step() {
        let mut s = RankSampler::new(0);
        s.observe(&rec(8, None));
        let mut last = rec(9, None);
        last.rebalances = 1;
        s.observe(&last);
        let m = s.sample();
        assert_eq!(m.lb_adoptions, 1);
        assert_eq!(m.last_lb_step, Some(9));
    }

    #[test]
    fn snapshot_samples_cover_pinned_names() {
        let snap = FleetSnapshot {
            schema: SNAPSHOT_SCHEMA.into(),
            source: "run".into(),
            uptime_seconds: 1.0,
            step: 9,
            ranks: vec![RankMetrics {
                rank: 0,
                step: 9,
                wire_bytes: 1234,
                imbalance: Some(1.25),
                fault_retries: 3,
                ..RankMetrics::default()
            }],
            serve: None,
        };
        let samples = snap.samples();
        let find = |n: &str| samples.iter().find(|s| s.name == n).expect(n);
        assert_eq!(find("mrpic_wire_bytes_total").value, 1234.0);
        assert_eq!(find("mrpic_step_imbalance").value, 1.25);
        assert_eq!(find("mrpic_fault_retries_total").value, 3.0);
        assert_eq!(
            find("mrpic_wire_bytes_total").labels,
            vec![("rank".to_string(), "0".to_string())]
        );
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = FleetSnapshot {
            schema: SNAPSHOT_SCHEMA.into(),
            source: "serve".into(),
            uptime_seconds: 2.5,
            step: 40,
            ranks: vec![RankMetrics {
                rank: 1,
                step: 40,
                last_lb_step: Some(30),
                ..RankMetrics::default()
            }],
            serve: Some(ServeMetrics {
                queue_depth: 3,
                running: 2,
                slots: 2,
                quantum: 25,
                jobs: vec![JobMetrics {
                    job_id: 1,
                    tenant: "hi".into(),
                    state: "Running".into(),
                    priority: 5,
                    steps_done: 75,
                    preemptions: 1,
                    slot: Some(0),
                    mean_imbalance: Some(1.1),
                }],
                tenants: vec![TenantMetrics {
                    tenant: "hi".into(),
                    jobs: 1,
                    running: 1,
                    waiting: 0,
                }],
            }),
        };
        let s = serde_json::to_string(&snap).unwrap();
        let back: FleetSnapshot = serde_json::from_str(&s).unwrap();
        assert_eq!(back.schema, SNAPSHOT_SCHEMA);
        assert_eq!(back.ranks[0].last_lb_step, Some(30));
        let sv = back.serve.unwrap();
        assert_eq!(sv.jobs[0].slot, Some(0));
        assert_eq!(sv.tenants[0].tenant, "hi");
    }
}
