//! Live observability plane for running fleets.
//!
//! Everything else in the stack reports post-mortem: telemetry JSONL,
//! Chrome traces, and `mrpic_prof` all need the run to finish first.
//! This crate is the *live* side:
//!
//! - [`RankSampler`] turns the per-step [`StepRecord`] stream of one
//!   rank into a cumulative [`RankMetrics`] sample (plus windowed rates
//!   such as step/s and wire MB/s) cheap enough to take every step.
//! - [`MetricsHub`] merges per-rank samples — pushed over whatever
//!   channel the caller has (direct calls in-process, `Metrics` frames
//!   over the socket transport) — into one [`FleetSnapshot`], and
//!   renders it as Prometheus text exposition or a JSON snapshot.
//! - [`http`] serves the hub on an opt-in TCP listener (`GET /metrics`
//!   for scrapers, `GET /snapshot` for `mrpic_top`).
//! - [`FlightRecorder`] keeps a bounded ring of the most recent step
//!   records, LB decisions, guard trips, and transport errors, and
//!   dumps it as `blackbox.json` on guard trip, rank loss, panic, or
//!   SIGUSR1 — so a crashed rank no longer takes its last seconds of
//!   context to the grave.
//!
//! The plane is opt-in: with no hub attached the cost is zero, and with
//! one attached the per-step cost is a ring push plus a mutex-guarded
//! map insert.
//!
//! [`StepRecord`]: mrpic_core::telemetry::StepRecord

pub mod expo;
pub mod http;
pub mod hub;
pub mod recorder;
pub mod snapshot;

pub use expo::{parse as parse_exposition, render as render_exposition, Sample};
pub use hub::MetricsHub;
pub use recorder::{
    arm_sigusr1, dump_recorder, install_panic_dump, install_recorder, observe_step,
    sigusr1_pending, with_recorder, FlightEvent, FlightRecorder, BLACKBOX_SCHEMA,
};
pub use snapshot::{
    FleetSnapshot, JobMetrics, RankMetrics, RankSampler, ServeMetrics, TenantMetrics,
    SNAPSHOT_SCHEMA,
};
