//! `mrpic-serve` — a multi-tenant simulation job service.
//!
//! The paper's production story is thousands of concurrent design-space
//! runs sharing a machine, not one heroic simulation. This crate wraps
//! the `mrpic-core` runtime in a long-running job server:
//!
//! * **Submission** ([`protocol`]): JSON job specs (a validated
//!   [`mrpic_core::config::RunConfig`] plus tenant, priority, and
//!   budgets) over a Unix-domain socket with length-prefixed frames.
//! * **Scheduling** ([`queue`]): a deterministic weighted-fair queue —
//!   strict priority classes, stride-scheduled tenants within a class,
//!   FIFO within a tenant. All integer arithmetic on a virtual clock,
//!   so a schedule is reproducible and can be pinned as a golden test.
//! * **Execution** ([`job`]): each job runs step-by-step under per-job
//!   budgets (max boxes, max steps, wall-time ceiling) with the NaN/Inf
//!   guard armed; telemetry [`StepRecord`]s stream back to the client
//!   as the steps complete.
//! * **Preemption** ([`job::JobRunner::park`]): a job past its quantum
//!   is checkpointed via checkpoint v2, parked (the live simulation is
//!   dropped, freeing its memory), and later resumed bitwise
//!   identically — so a high-priority submission never starves behind
//!   a long run. Equivalence is proven in `tests/serve.rs` with
//!   `.to_bits()` comparisons against an uninterrupted run.
//! * **Serving** ([`server`]): N executor slots over the shared rayon
//!   pool, a status endpoint (queue depth, per-tenant running/waiting
//!   counts, per-job progress), a structured JSONL server log, and
//!   `serve.*` spans through `mrpic-trace`. SIGTERM shuts the server
//!   down cleanly: running jobs are aborted with a terminal event,
//!   clients are notified, and the socket file is removed.
//!
//! [`StepRecord`]: mrpic_core::telemetry::StepRecord

pub mod client;
pub mod job;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{fetch_status, request_shutdown, submit_job, ClientError, ClientOutcome};
pub use job::{JobRunner, SliceReport, SliceStatus};
pub use protocol::{
    read_frame, write_frame, Budgets, JobSpec, JobStatus, JobSummary, Request, Response,
    SlotStatus, StatusReport, TenantStatus,
};
pub use queue::{FairQueue, QueuedJob};
pub use server::{install_termination_handlers, Server, ServerConfig, ServerStats};
