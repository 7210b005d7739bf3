//! The job server: accept loop, executor slots, and the scheduler.
//!
//! One listener thread accepts Unix-socket connections; each connection
//! gets a handler thread that parses [`Request`] frames. A submission
//! validates the spec, enqueues the job on the [`FairQueue`], and turns
//! the connection into an event stream: the executor pushes
//! [`Response::Step`] / [`Response::State`] frames through an in-process
//! channel and the handler forwards them to the socket until a terminal
//! `Done` / `Failed` frame closes the exchange.
//!
//! Executor slots are plain worker threads (`cfg.slots` of them); the
//! simulations themselves parallelise on the shared rayon pool, so a
//! slot is a *scheduling* unit, not a core reservation. A worker pops
//! the best job, runs **one quantum** (`cfg.quantum` steps), and then
//! consults [`FairQueue::would_preempt`]: if a better job waits, the
//! running one is checkpointed, parked, and requeued; otherwise it keeps
//! its slot for another quantum. Preemption thus happens only at quantum
//! boundaries — a slice is never torn mid-step, which is what makes the
//! park/resume cycle bitwise reproducible.
//!
//! Shutdown (SIGTERM/SIGINT via [`install_termination_handlers`], or a
//! [`Request::Shutdown`] frame): the accept loop stops, workers finish
//! their current slice and abort unfinished jobs with a terminal
//! `Failed`, every waiting/parked job is drained the same way, the
//! structured JSONL log is fsynced, and the socket file is removed. No
//! orphaned jobs, no half-written log.
//!
//! Observability: every lifecycle edge emits one JSONL line
//! (`{"seq":..,"ms":..,"event":"submit"|"dispatch"|"resume"|"preempt"|
//! "complete"|...}`) with deterministic key order, and the hot paths are
//! wrapped in `serve.*` spans (`serve.submit`, `serve.slice`,
//! `serve.checkpoint`, `serve.restore`, `serve.status`) so `mrpic-trace`
//! can profile the server like any other driver.

use crate::job::{JobRunner, SliceStatus};
use crate::protocol::{
    read_frame, write_frame, JobSpec, JobStatus, Request, Response, SlotStatus, StatusReport,
    TenantStatus,
};
use crate::queue::{FairQueue, QueuedJob};
use mrpic_obs::{JobMetrics, MetricsHub, ServeMetrics, TenantMetrics};
use std::collections::BTreeMap;
use std::io::Write;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Set by the SIGTERM/SIGINT handlers; polled by every server loop.
static TERM_FLAG: AtomicBool = AtomicBool::new(false);

type SigHandler = extern "C" fn(i32);

/// `struct pollfd` of poll(2).
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 1;

/// How long the accept loop waits for a connection before it re-checks
/// the stop flags.
const ACCEPT_POLL_MS: i32 = 25;

extern "C" {
    fn signal(signum: i32, handler: SigHandler) -> usize;
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
}

/// Block until `listener` has a pending connection, `timeout_ms` passes,
/// or a signal interrupts the wait; the caller re-checks its stop flags
/// and retries `accept` in every case.
fn wait_acceptable(listener: &UnixListener, timeout_ms: i32) {
    let mut pfd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `pfd` is one valid pollfd that outlives the call.
    unsafe {
        poll(&mut pfd, 1, timeout_ms);
    }
}

extern "C" fn on_termination(_signum: i32) {
    TERM_FLAG.store(true, Ordering::SeqCst);
}

/// Route SIGTERM (15) and SIGINT (2) into a flag the server polls, so
/// `kill -TERM` produces the same clean drain as a `Shutdown` request.
/// Call once from the binary before [`Server::run`].
pub fn install_termination_handlers() {
    unsafe {
        signal(15, on_termination);
        signal(2, on_termination);
    }
}

/// How the server listens and schedules.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Unix-domain socket path; a stale file there is removed at bind.
    pub socket: PathBuf,
    /// Concurrent executor slots (worker threads over the shared rayon
    /// pool).
    pub slots: usize,
    /// Preemption quantum in simulation steps.
    pub quantum: u64,
    /// Structured JSONL server log; `None` disables logging.
    pub log_path: Option<PathBuf>,
    /// Observability hub to push scheduler metrics into; `None` (the
    /// default) disables the bridge entirely. Unlike the status
    /// endpoint, the bridge never writes to the server log.
    pub metrics_hub: Option<MetricsHub>,
}

impl ServerConfig {
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            slots: 2,
            quantum: 10,
            log_path: None,
            metrics_hub: None,
        }
    }
}

/// Lifetime counters, returned by [`Server::run`] after the drain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub preemptions: u64,
    pub resumes: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobState {
    Waiting,
    Running,
    Parked,
    Done,
    Failed,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Waiting => "waiting",
            JobState::Running => "running",
            JobState::Parked => "parked",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

struct Job {
    tenant: String,
    priority: i32,
    /// Present while the job is waiting or parked; taken by the worker
    /// for the duration of a slice; dropped at a terminal state.
    runner: Option<JobRunner>,
    state: JobState,
    /// Event channel to the submitting connection; `None` once the
    /// client detached or a terminal frame was delivered.
    events: Option<Sender<Response>>,
    // Progress snapshot for the status endpoint (updated after every
    // slice, so status never has to touch a runner a worker owns).
    steps_done: u64,
    preemptions: u64,
    mean_imbalance: Option<f64>,
}

impl Job {
    /// Deliver a terminal frame and drop the event channel; the handler
    /// thread exits on the frame (or on the channel disconnect).
    fn send_terminal(&mut self, resp: Response) {
        if let Some(tx) = self.events.take() {
            let _ = tx.send(resp);
        }
    }
}

struct State {
    queue: FairQueue,
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
    log: ServerLog,
    stats: ServerStats,
    /// Job currently executing on each slot (index = worker id); kept
    /// in lockstep with dispatch/park/retire so status and metrics can
    /// attribute slots without touching a runner a worker owns.
    slot_jobs: Vec<Option<u64>>,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    stop: AtomicBool,
    t0: Instant,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A worker panic mid-update poisons the mutex; the server must
        // keep serving its other tenants, so recover the guard.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn shutting_down(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || TERM_FLAG.load(Ordering::SeqCst)
    }

    /// The status snapshot plus a `"status"` log event.
    fn status_report(&self, slots: usize, quantum: u64) -> StatusReport {
        let _sp = mrpic_trace::span!("serve.status");
        let mut st = self.lock();
        let report = st.snapshot(self.t0.elapsed().as_secs_f64(), slots, quantum);
        let njobs = st.jobs.len();
        st.log.event("status", &[("jobs", njobs.to_string())]);
        report
    }

    /// Scheduler state as a [`ServeMetrics`] block for the metrics hub.
    /// The bridge polls every few hundred milliseconds, so unlike
    /// [`Shared::status_report`] this writes no log line: a `"status"`
    /// event per poll would flood the server log and perturb its
    /// byte-stable event stream.
    fn metrics_view(&self, slots: usize, quantum: u64) -> ServeMetrics {
        let report = self
            .lock()
            .snapshot(self.t0.elapsed().as_secs_f64(), slots, quantum);
        serve_metrics(&report)
    }
}

impl State {
    /// One pass over the job table: the [`StatusReport`] snapshot. Writes
    /// no log line.
    fn snapshot(&self, uptime_seconds: f64, slots: usize, quantum: u64) -> StatusReport {
        let jobs: Vec<JobStatus> = self
            .jobs
            .iter()
            .map(|(&job_id, j)| JobStatus {
                job_id,
                tenant: j.tenant.clone(),
                priority: j.priority,
                state: j.state.as_str().to_string(),
                steps_done: j.steps_done,
                preemptions: j.preemptions,
                mean_imbalance: j.mean_imbalance,
            })
            .collect();
        let tenants = self
            .queue
            .lane_states()
            .into_iter()
            .map(|(tenant, pass, _active)| TenantStatus {
                running: tally(&jobs, Some(&tenant), &[JobState::Running]),
                waiting: tally(&jobs, Some(&tenant), &[JobState::Waiting]),
                parked: tally(&jobs, Some(&tenant), &[JobState::Parked]),
                tenant,
                pass,
            })
            .collect();
        let slots_detail = self
            .slot_jobs
            .iter()
            .enumerate()
            .map(|(slot, &job_id)| {
                let j = job_id.and_then(|id| self.jobs.get(&id));
                SlotStatus {
                    slot,
                    job_id,
                    tenant: j.map(|j| j.tenant.clone()),
                    steps_done: j.map(|j| j.steps_done).unwrap_or(0),
                }
            })
            .collect();
        StatusReport {
            queue_depth: self.queue.depth(),
            running: tally(&jobs, None, &[JobState::Running]),
            slots,
            quantum,
            uptime_seconds,
            slots_detail,
            tenants,
            jobs,
        }
    }
}

/// Jobs of `tenant` (of every tenant for `None`) in one of `states`.
fn tally(jobs: &[JobStatus], tenant: Option<&str>, states: &[JobState]) -> usize {
    jobs.iter()
        .filter(|j| tenant.is_none_or(|t| j.tenant == t))
        .filter(|j| states.iter().any(|s| j.state == s.as_str()))
        .count()
}

/// The metrics-hub view of a status snapshot: a tenant's `jobs` counts
/// all its jobs and `waiting` its waiting and parked ones; a job's
/// `slot` is the slot executing it.
fn serve_metrics(report: &StatusReport) -> ServeMetrics {
    let names: std::collections::BTreeSet<&str> =
        report.jobs.iter().map(|j| j.tenant.as_str()).collect();
    let tenants = names
        .into_iter()
        .map(|t| TenantMetrics {
            tenant: t.to_string(),
            jobs: report.jobs.iter().filter(|j| j.tenant == t).count() as u64,
            running: tally(&report.jobs, Some(t), &[JobState::Running]) as u64,
            waiting: tally(
                &report.jobs,
                Some(t),
                &[JobState::Waiting, JobState::Parked],
            ) as u64,
        })
        .collect();
    let jobs = report
        .jobs
        .iter()
        .map(|j| JobMetrics {
            job_id: j.job_id,
            tenant: j.tenant.clone(),
            state: j.state.clone(),
            priority: j.priority.into(),
            steps_done: j.steps_done,
            preemptions: j.preemptions,
            slot: report
                .slots_detail
                .iter()
                .find(|s| s.job_id == Some(j.job_id))
                .map(|s| s.slot as u64),
            mean_imbalance: j.mean_imbalance,
        })
        .collect();
    ServeMetrics {
        queue_depth: report.queue_depth as u64,
        running: report.running as u64,
        slots: report.slots as u64,
        quantum: report.quantum,
        jobs,
        tenants,
    }
}

/// The job server. Construct with a [`ServerConfig`] and call
/// [`Server::run`]; it returns after a clean shutdown.
pub struct Server {
    cfg: ServerConfig,
}

impl Server {
    pub fn new(cfg: ServerConfig) -> Self {
        Self { cfg }
    }

    /// Bind the socket and serve until a `Shutdown` request or a
    /// termination signal, then drain and return the lifetime stats.
    pub fn run(self) -> std::io::Result<ServerStats> {
        let cfg = self.cfg;
        let slots = cfg.slots.max(1);
        let quantum = cfg.quantum.max(1);
        let log = ServerLog::new(cfg.log_path.as_deref())?;
        let shared = Shared {
            state: Mutex::new(State {
                queue: FairQueue::new(),
                jobs: BTreeMap::new(),
                next_id: 1,
                log,
                stats: ServerStats::default(),
                slot_jobs: vec![None; slots],
            }),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            t0: Instant::now(),
        };
        if cfg.socket.exists() {
            std::fs::remove_file(&cfg.socket)?;
        }
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;
        shared.lock().log.event(
            "start",
            &[
                ("slots", slots.to_string()),
                ("quantum", quantum.to_string()),
                ("socket", jstr(&cfg.socket.display().to_string())),
            ],
        );

        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..slots)
                .map(|w| {
                    let shared = &shared;
                    scope.spawn(move || worker_loop(shared, w, quantum))
                })
                .collect();
            if let Some(hub) = cfg.metrics_hub.clone() {
                let shared = &shared;
                scope.spawn(move || {
                    while !shared.shutting_down() {
                        hub.set_serve(shared.metrics_view(slots, quantum));
                        std::thread::sleep(Duration::from_millis(250));
                    }
                });
            }
            loop {
                if shared.shutting_down() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        let shared = &shared;
                        scope.spawn(move || conn_loop(shared, stream, slots, quantum));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        wait_acceptable(&listener, ACCEPT_POLL_MS);
                    }
                    Err(e) => {
                        shared
                            .lock()
                            .log
                            .event("accept_error", &[("error", jstr(&e.to_string()))]);
                        std::thread::sleep(Duration::from_millis(ACCEPT_POLL_MS as u64));
                    }
                }
            }
            // Workers first: each finishes its current slice and aborts
            // its unfinished job, so the drain below only sees jobs no
            // worker owns.
            shared.cv.notify_all();
            for h in workers {
                let _ = h.join();
            }
            drain_unfinished(&shared);
            // Handler threads exit on the terminal frames (or channel
            // disconnects) the drain produced; the scope joins them.
        });

        let mut st = shared.lock();
        let stats = st.stats;
        st.log.event(
            "shutdown",
            &[
                ("submitted", stats.submitted.to_string()),
                ("completed", stats.completed.to_string()),
                ("failed", stats.failed.to_string()),
                ("preemptions", stats.preemptions.to_string()),
                ("resumes", stats.resumes.to_string()),
            ],
        );
        st.log.sync();
        drop(st);
        let _ = std::fs::remove_file(&cfg.socket);
        Ok(stats)
    }
}

/// Abort every non-terminal job with a `Failed` frame (shutdown path;
/// all workers have already exited).
fn drain_unfinished(shared: &Shared) {
    let _sp = mrpic_trace::span!("serve.shutdown");
    let mut st = shared.lock();
    let State {
        queue,
        jobs,
        log,
        stats,
        ..
    } = &mut *st;
    let ids: Vec<u64> = jobs
        .iter()
        .filter(|(_, j)| !j.state.is_terminal())
        .map(|(&id, _)| id)
        .collect();
    for id in ids {
        let tenant = jobs[&id].tenant.clone();
        if !queue.remove_waiting(id) {
            // Not in the waiting set (stuck "running" after a worker
            // panic): still release its lane slot.
            queue.finish(&tenant);
        }
        let job = jobs.get_mut(&id).expect("job id from the map");
        job.state = JobState::Failed;
        job.runner = None;
        job.send_terminal(Response::Failed {
            job_id: id,
            reason: "server shutting down".to_string(),
        });
        stats.failed += 1;
        log.event(
            "abort",
            &[("job", id.to_string()), ("tenant", jstr(&tenant))],
        );
    }
}

/// One executor slot: claim the best job, run it quantum-by-quantum,
/// preempt or retire it, repeat.
fn worker_loop(shared: &Shared, worker: usize, quantum: u64) {
    loop {
        let mut st = shared.lock();
        let qj: QueuedJob = loop {
            if shared.shutting_down() {
                return;
            }
            if let Some(qj) = st.queue.pop() {
                break qj;
            }
            st = shared
                .cv
                .wait_timeout(st, Duration::from_millis(200))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        };
        let job_id = qj.job_id;
        let State {
            queue,
            jobs,
            log,
            stats,
            slot_jobs,
            ..
        } = &mut *st;
        let Some(job) = jobs.get_mut(&job_id) else {
            // Queue/map desync should be impossible; drop the entry
            // rather than poison the worker.
            queue.finish(&qj.tenant);
            continue;
        };
        let Some(mut runner) = job.runner.take() else {
            queue.finish(&qj.tenant);
            continue;
        };
        let resumed = runner.is_parked();
        if resumed {
            stats.resumes += 1;
        }
        job.state = JobState::Running;
        slot_jobs[worker] = Some(job_id);
        let events = job.events.clone();
        log.event(
            if resumed { "resume" } else { "dispatch" },
            &[
                ("job", job_id.to_string()),
                ("tenant", jstr(&qj.tenant)),
                ("worker", worker.to_string()),
            ],
        );
        drop(st);
        if let Some(tx) = &events {
            let _ = tx.send(Response::State {
                job_id,
                state: if resumed { "resumed" } else { "running" }.to_string(),
            });
        }

        // Slice loop: the job keeps this slot until it retires, is
        // preempted, or the server shuts down.
        loop {
            let mut sink_tx = events.clone();
            let result = {
                let _sp = mrpic_trace::span!("serve.slice", worker as u32);
                catch_unwind(AssertUnwindSafe(|| {
                    let mut sink = |rec| {
                        if let Some(tx) = &sink_tx {
                            let resp = Response::Step {
                                job_id,
                                record: rec,
                            };
                            if tx.send(resp).is_err() {
                                sink_tx = None;
                            }
                        }
                    };
                    runner.run_slice(quantum, &mut sink)
                }))
            };
            if mrpic_trace::enabled() {
                // Drain this thread's span ring each slice so long
                // server sessions never wrap it.
                mrpic_trace::collect();
            }
            let mut st = shared.lock();
            let State {
                queue,
                jobs,
                log,
                stats,
                ..
            } = &mut *st;
            let job = jobs.get_mut(&job_id).expect("running job in the map");
            let report = match result {
                Err(_panic) => {
                    // The runner is unusable; fail the job but keep the
                    // server (and its other tenants) alive.
                    job.state = JobState::Failed;
                    job.send_terminal(Response::Failed {
                        job_id,
                        reason: "job panicked during execution".to_string(),
                    });
                    queue.finish(&qj.tenant);
                    stats.failed += 1;
                    log.event(
                        "job_panic",
                        &[("job", job_id.to_string()), ("tenant", jstr(&qj.tenant))],
                    );
                    break;
                }
                Ok(Err(reason)) => {
                    // Activation failed (bad build, box budget, restore
                    // mismatch) — terminal before any step ran.
                    job.state = JobState::Failed;
                    job.send_terminal(Response::Failed {
                        job_id,
                        reason: reason.clone(),
                    });
                    queue.finish(&qj.tenant);
                    stats.failed += 1;
                    log.event(
                        "failed",
                        &[
                            ("job", job_id.to_string()),
                            ("tenant", jstr(&qj.tenant)),
                            ("reason", jstr(&reason)),
                        ],
                    );
                    break;
                }
                Ok(Ok(report)) => report,
            };
            queue.charge(&qj.tenant, report.steps);
            job.steps_done = runner.steps_done;
            job.preemptions = runner.preemptions;
            job.mean_imbalance = runner.mean_imbalance();
            match report.status {
                SliceStatus::Completed | SliceStatus::GuardTripped => {
                    let summary = runner.summary(job_id, &qj.tenant);
                    job.state = JobState::Done;
                    queue.finish(&qj.tenant);
                    stats.completed += 1;
                    log.event(
                        "complete",
                        &[
                            ("job", job_id.to_string()),
                            ("tenant", jstr(&qj.tenant)),
                            ("steps", summary.steps.to_string()),
                            ("guard_trips", summary.guard_trips.to_string()),
                        ],
                    );
                    job.send_terminal(Response::Done { job_id, summary });
                    break;
                }
                SliceStatus::BudgetExhausted(reason) => {
                    job.state = JobState::Failed;
                    queue.finish(&qj.tenant);
                    stats.failed += 1;
                    log.event(
                        "budget_kill",
                        &[
                            ("job", job_id.to_string()),
                            ("tenant", jstr(&qj.tenant)),
                            ("reason", jstr(&reason)),
                        ],
                    );
                    job.send_terminal(Response::Failed { job_id, reason });
                    break;
                }
                SliceStatus::Quantum => {
                    if shared.shutting_down() {
                        job.state = JobState::Failed;
                        queue.finish(&qj.tenant);
                        stats.failed += 1;
                        log.event(
                            "abort",
                            &[("job", job_id.to_string()), ("tenant", jstr(&qj.tenant))],
                        );
                        job.send_terminal(Response::Failed {
                            job_id,
                            reason: "server shutting down".to_string(),
                        });
                        break;
                    }
                    if queue.would_preempt(qj.priority, &qj.tenant) {
                        let _sp = mrpic_trace::span!("serve.preempt");
                        runner.park();
                        job.preemptions = runner.preemptions;
                        job.state = JobState::Parked;
                        stats.preemptions += 1;
                        if let Some(tx) = &job.events {
                            let _ = tx.send(Response::State {
                                job_id,
                                state: "preempted".to_string(),
                            });
                        }
                        job.runner = Some(runner);
                        log.event(
                            "preempt",
                            &[
                                ("job", job_id.to_string()),
                                ("tenant", jstr(&qj.tenant)),
                                ("steps_done", job.steps_done.to_string()),
                            ],
                        );
                        queue.requeue(qj);
                        shared.cv.notify_one();
                        break;
                    }
                    // Nothing better waits: keep the slot, next slice.
                }
            }
        }
        // The slice loop only exits when the job left this slot
        // (retired, failed, parked, or aborted).
        shared.lock().slot_jobs[worker] = None;
    }
}

/// One connection: requests until EOF, or a submission followed by that
/// job's event stream.
fn conn_loop(shared: &Shared, mut stream: UnixStream, slots: usize, quantum: u64) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(300)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    loop {
        if shared.shutting_down() {
            let _ = write_frame(&mut stream, &Response::ShuttingDown);
            return;
        }
        let req: Request = match read_frame(&mut stream) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean EOF
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue; // idle poll; re-check the shutdown flag
            }
            Err(e) => {
                shared
                    .lock()
                    .log
                    .event("bad_frame", &[("error", jstr(&e.to_string()))]);
                return;
            }
        };
        match req {
            Request::Status => {
                let report = shared.status_report(slots, quantum);
                if write_frame(&mut stream, &Response::Status { report }).is_err() {
                    return;
                }
            }
            Request::Shutdown => {
                shared.lock().log.event("shutdown_requested", &[]);
                shared.stop.store(true, Ordering::SeqCst);
                shared.cv.notify_all();
                let _ = write_frame(&mut stream, &Response::ShuttingDown);
                return;
            }
            Request::Submit { job } => {
                handle_submit(shared, stream, job);
                return;
            }
        }
    }
}

/// Validate, enqueue, acknowledge, then forward the job's event stream
/// to the client until a terminal frame.
fn handle_submit(shared: &Shared, mut stream: UnixStream, spec: JobSpec) {
    let _sp = mrpic_trace::span!("serve.submit");
    if let Err(reason) = spec.validate() {
        shared.lock().log.event(
            "reject",
            &[("tenant", jstr(&spec.tenant)), ("reason", jstr(&reason))],
        );
        let _ = write_frame(&mut stream, &Response::Rejected { reason });
        return;
    }
    let (job_id, rx) = {
        let mut st = shared.lock();
        if shared.shutting_down() {
            drop(st);
            let _ = write_frame(&mut stream, &Response::ShuttingDown);
            return;
        }
        let job_id = st.next_id;
        st.next_id += 1;
        st.queue.push(job_id, &spec.tenant, spec.priority);
        let (tx, rx) = mpsc::channel();
        st.jobs.insert(
            job_id,
            Job {
                tenant: spec.tenant.clone(),
                priority: spec.priority,
                runner: Some(JobRunner::from_spec(&spec)),
                state: JobState::Waiting,
                events: Some(tx),
                steps_done: 0,
                preemptions: 0,
                mean_imbalance: None,
            },
        );
        st.stats.submitted += 1;
        st.log.event(
            "submit",
            &[
                ("job", job_id.to_string()),
                ("tenant", jstr(&spec.tenant)),
                ("priority", spec.priority.to_string()),
            ],
        );
        (job_id, rx)
    };
    shared.cv.notify_one();
    if write_frame(&mut stream, &Response::Accepted { job_id }).is_err() {
        detach(shared, job_id);
        return;
    }
    loop {
        match rx.recv_timeout(Duration::from_millis(300)) {
            Ok(resp) => {
                let terminal = matches!(resp, Response::Done { .. } | Response::Failed { .. });
                if write_frame(&mut stream, &resp).is_err() {
                    detach(shared, job_id);
                    return;
                }
                if terminal {
                    return;
                }
            }
            // The sender lives in the job entry until a terminal frame
            // is delivered (or the drain drops it), so a timeout just
            // means the job is queued or mid-slice.
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The submitting client vanished. A still-waiting job is cancelled; a
/// dispatched one keeps running (its summary is discarded) — killing
/// mid-flight work because a socket died would waste the computed steps.
fn detach(shared: &Shared, job_id: u64) {
    let mut st = shared.lock();
    let State {
        queue,
        jobs,
        log,
        stats,
        ..
    } = &mut *st;
    let Some(job) = jobs.get_mut(&job_id) else {
        return;
    };
    job.events = None;
    let tenant = job.tenant.clone();
    if job.state == JobState::Waiting {
        job.state = JobState::Failed;
        job.runner = None;
        queue.remove_waiting(job_id);
        stats.failed += 1;
        log.event(
            "detach_cancel",
            &[("job", job_id.to_string()), ("tenant", jstr(&tenant))],
        );
    } else {
        log.event(
            "detach",
            &[("job", job_id.to_string()), ("tenant", jstr(&tenant))],
        );
    }
}

/// Structured JSONL server log. Lines are hand-assembled (not via a
/// serde map) so the key order is deterministic — the tier-1 smoke
/// greps for exact `"event":"..."` substrings and compares line order.
struct ServerLog {
    w: Option<std::io::BufWriter<std::fs::File>>,
    seq: u64,
    t0: Instant,
}

impl ServerLog {
    fn new(path: Option<&Path>) -> std::io::Result<Self> {
        let w = match path {
            Some(p) => Some(std::io::BufWriter::new(std::fs::File::create(p)?)),
            None => None,
        };
        Ok(Self {
            w,
            seq: 0,
            t0: Instant::now(),
        })
    }

    /// Append one event line. `fields` values must already be rendered
    /// as JSON (numbers via `to_string`, strings via [`jstr`]). Flushed
    /// per line: the smoke test tails the log of a live server.
    fn event(&mut self, event: &str, fields: &[(&str, String)]) {
        let Some(w) = &mut self.w else { return };
        let mut line = format!(
            "{{\"seq\":{},\"ms\":{},\"event\":{}",
            self.seq,
            self.t0.elapsed().as_millis(),
            jstr(event)
        );
        for (k, v) in fields {
            line.push_str(&format!(",\"{k}\":{v}"));
        }
        line.push('}');
        self.seq += 1;
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }

    /// Flush and fsync (shutdown path).
    fn sync(&mut self) {
        if let Some(w) = &mut self.w {
            let _ = w.flush();
            let _ = w.get_ref().sync_all();
        }
    }
}

/// JSON string literal (with escaping) for hand-assembled log lines.
fn jstr(s: &str) -> String {
    serde_json::to_string(&s.to_string()).unwrap_or_else(|_| "\"?\"".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_lines_have_deterministic_shape() {
        let path =
            std::env::temp_dir().join(format!("mrpic_serve_log_{}.jsonl", std::process::id()));
        let mut log = ServerLog::new(Some(&path)).unwrap();
        log.event("start", &[("slots", "2".into())]);
        log.event(
            "submit",
            &[("job", "1".into()), ("tenant", jstr("al\"ice"))],
        );
        log.sync();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[0].contains("\"event\":\"start\""));
        assert!(lines[1].contains("\"seq\":1"));
        assert!(lines[1].contains("\"tenant\":\"al\\\"ice\""));
        // Every line is itself valid JSON.
        for l in &lines {
            serde_json::from_str::<serde_json::Value>(l).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The metrics view as it was computed before it became a projection
    /// of the status snapshot: its own pass over the job table.
    fn metrics_reference(st: &State, slots: usize, quantum: u64) -> ServeMetrics {
        let mut per_tenant: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        let mut jobs = Vec::new();
        let mut running = 0u64;
        for (&id, j) in st.jobs.iter() {
            let e = per_tenant.entry(j.tenant.clone()).or_default();
            e.0 += 1;
            match j.state {
                JobState::Running => {
                    e.1 += 1;
                    running += 1;
                }
                JobState::Waiting | JobState::Parked => e.2 += 1,
                JobState::Done | JobState::Failed => {}
            }
            let slot = st
                .slot_jobs
                .iter()
                .position(|&s| s == Some(id))
                .map(|s| s as u64);
            jobs.push(JobMetrics {
                job_id: id,
                tenant: j.tenant.clone(),
                state: j.state.as_str().to_string(),
                priority: j.priority as i64,
                steps_done: j.steps_done,
                preemptions: j.preemptions,
                slot,
                mean_imbalance: j.mean_imbalance,
            });
        }
        let tenants = per_tenant
            .into_iter()
            .map(|(tenant, (njobs, r, w))| TenantMetrics {
                tenant,
                jobs: njobs,
                running: r,
                waiting: w,
            })
            .collect();
        ServeMetrics {
            queue_depth: st.queue.depth() as u64,
            running,
            slots: slots as u64,
            quantum,
            jobs,
            tenants,
        }
    }

    #[test]
    fn metrics_view_is_a_projection_of_the_status_snapshot() {
        let job = |tenant: &str, priority, state, steps_done| Job {
            tenant: tenant.to_string(),
            priority,
            runner: None,
            state,
            events: None,
            steps_done,
            preemptions: u64::from(state == JobState::Parked),
            mean_imbalance: (state == JobState::Done).then_some(1.25),
        };
        let mut queue = FairQueue::new();
        queue.push(2, "alice", 0);
        queue.push(3, "bob", 5);
        let st = State {
            queue,
            jobs: BTreeMap::from([
                (1, job("alice", 9, JobState::Running, 40)),
                (2, job("alice", 0, JobState::Parked, 10)),
                (3, job("bob", 5, JobState::Waiting, 0)),
                (4, job("bob", 1, JobState::Done, 80)),
            ]),
            next_id: 5,
            log: ServerLog::new(None).unwrap(),
            stats: ServerStats::default(),
            slot_jobs: vec![None, Some(1)],
        };
        let reference = metrics_reference(&st, 2, 16);
        assert_eq!(serve_metrics(&st.snapshot(0.0, 2, 16)), reference);
        // The table exercises every tally: a slot, parked counted as
        // waiting, done counted only in `jobs`.
        assert_eq!(reference.jobs[0].slot, Some(1));
        assert_eq!(
            reference.tenants,
            vec![
                TenantMetrics {
                    tenant: "alice".into(),
                    jobs: 2,
                    running: 1,
                    waiting: 1,
                },
                TenantMetrics {
                    tenant: "bob".into(),
                    jobs: 2,
                    running: 0,
                    waiting: 1,
                },
            ]
        );
    }

    #[test]
    fn job_state_strings() {
        assert_eq!(JobState::Waiting.as_str(), "waiting");
        assert_eq!(JobState::Parked.as_str(), "parked");
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(!JobState::Running.is_terminal());
    }
}
