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
//!   records (LB decisions and guard trips inside them), transport
//!   errors, recoveries and resizes, and dumps it as `blackbox.json` on
//!   guard trip, rank loss, panic, or SIGUSR1 — so a crashed rank no
//!   longer takes its last seconds of context to the grave.
//! - [`Driver`] is the one run driver both CLI binaries call: it arms
//!   the recorder and the rank samplers around the shared step loop,
//!   and on rank 0 reports and writes the run's output set.
//!
//! Sampling is opt-in: with no hub or pusher attached no sampler runs.
//! The recorder always runs, at one record clone and ring push per step.
//!
//! [`StepRecord`]: mrpic_core::telemetry::StepRecord

pub mod driver;
pub mod expo;
pub mod http;
pub mod hub;
pub mod recorder;
pub mod snapshot;

pub use driver::{Driver, Publish};
pub use expo::{parse as parse_exposition, render as render_exposition, Sample};
pub use hub::MetricsHub;
pub use recorder::{
    dump_recorder, install_recorder, with_recorder, FlightEvent, FlightRecorder, BLACKBOX_SCHEMA,
};
pub use snapshot::{
    FleetSnapshot, JobMetrics, RankMetrics, RankSampler, ServeMetrics, TenantMetrics,
    SNAPSHOT_SCHEMA,
};
