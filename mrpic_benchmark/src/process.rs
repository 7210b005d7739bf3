//! The two process-level workloads: the `mrpic_run` socket mesh and
//! the `mrpic_serve` preemption scenario, driven as real child
//! processes and observed only through what a user sees — files,
//! frames, exit codes.

use crate::decks::Deck;
use crate::sys;
use crate::workloads::{sibling_binary, Ctx, Round, Sizes};
use mrpic::core::config::RunConfig;
use mrpic::serve::protocol::{read_frame, write_frame, Request, Response};
use mrpic::serve::{fetch_status, request_shutdown, Budgets, JobSpec, JobSummary};
use serde_json::Value;
use std::io::Read;
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Hard limit for one child process: ~5x the slowest one at this
/// commit (6 s). A child still running then is killed and the round
/// reported as failed instead of hanging the suite.
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(30);

/// A child process leading its own process group, killed (with every
/// worker it spawned) if dropped before it was reaped.
pub struct Proc {
    child: Child,
    name: String,
    reaped: bool,
}

impl Proc {
    /// Spawn `bin args…` in `cwd`, output appended to `cwd/<name>.log`.
    pub fn spawn(name: &str, args: &[&str], cwd: &Path) -> Result<Self, String> {
        let bin = sibling_binary(name)?;
        let log = std::fs::File::create(cwd.join(format!("{name}.log")))
            .map_err(|e| format!("create {name}.log: {e}"))?;
        let err_log = log
            .try_clone()
            .map_err(|e| format!("clone {name}.log handle: {e}"))?;
        let child = Command::new(&bin)
            .args(args)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(err_log)
            .process_group(0)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(Self {
            child,
            name: name.to_string(),
            reaped: false,
        })
    }

    /// Has the child exited? (Reaps it if so.)
    pub fn poll(&mut self) -> Result<Option<ExitStatus>, String> {
        let st = self
            .child
            .try_wait()
            .map_err(|e| format!("wait for {}: {e}", self.name))?;
        self.reaped |= st.is_some();
        Ok(st)
    }

    /// Wait for the exit, calling `on_tick` about every millisecond; a
    /// child still running at `deadline` is killed (by `Drop`).
    pub fn wait_until(
        &mut self,
        deadline: Instant,
        mut on_tick: impl FnMut(),
    ) -> Result<ExitStatus, String> {
        loop {
            on_tick();
            if let Some(st) = self.poll()? {
                return Ok(st);
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "{} still running after its {} s limit — killed",
                    self.name,
                    CHILD_TIMEOUT.as_secs()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            sys::kill_group(self.child.id());
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn leftovers(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".sock") || name.starts_with(".mesh-") {
                found.push(p);
            } else if p.is_dir() {
                stack.push(p);
            }
        }
    }
    found
}

/// What one `cli_socket2` round produced beyond its [`Round`].
pub struct CliRound {
    pub round: Round,
    pub jsonl_bytes: u64,
    pub steps: u64,
}

/// `mrpic_run <deck> out --steps N --ranks 2 --transport socket`,
/// timed spawn → exit. `work_per_step` is Eq. 1's numerator for the
/// deck; `dir` must be fresh.
pub fn cli_round(
    deck_path: &Path,
    dir: &Path,
    sizes: Sizes,
    work_per_step: f64,
) -> Result<CliRound, String> {
    let deck_arg = format!(
        "../{}",
        deck_path
            .file_name()
            .ok_or("deck path has no file name")?
            .to_string_lossy()
    );
    let steps = sizes.total().to_string();
    let telemetry = dir.join("out/telemetry.jsonl");
    let t0 = Instant::now();
    let mut run = Proc::spawn(
        "mrpic_run",
        &[
            &deck_arg,
            "out",
            "--steps",
            &steps,
            "--ranks",
            "2",
            "--transport",
            "socket",
        ],
        dir,
    )?;
    // Two marks a user tailing the output directory sees: the sink
    // appearing (deck parsed, simulation built) and its first bytes.
    let (mut created, mut first_bytes) = (None, None);
    let status = run.wait_until(t0 + CHILD_TIMEOUT, || {
        if first_bytes.is_none() {
            if let Ok(md) = std::fs::metadata(&telemetry) {
                created.get_or_insert_with(|| t0.elapsed());
                if md.len() > 0 {
                    first_bytes = Some(t0.elapsed());
                }
            }
        }
    })?;
    let run_wall_s = t0.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!(
            "mrpic_run exited with {status}; see {}",
            dir.join("mrpic_run.log").display()
        ));
    }

    let mut problems = Vec::new();
    let summary = read_json(&dir.join("out/summary.json"))?;
    let done = summary.get("steps").and_then(Value::as_u64).unwrap_or(0);
    if done != sizes.total() as u64 {
        problems.push(format!("summary reports {done} steps, asked {}", steps));
    }
    if summary.get("guard_trips").and_then(Value::as_u64) != Some(0) {
        problems.push("summary reports guard trips".to_string());
    }
    let digest = summary
        .get("state_digest")
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok());
    if digest.is_none() {
        problems.push("summary has no state_digest".to_string());
    }
    let left = leftovers(dir);
    if !left.is_empty() {
        problems.push(format!("left behind {left:?}"));
    }

    let text = std::fs::read_to_string(&telemetry)
        .map_err(|e| format!("read {}: {e}", telemetry.display()))?;
    let mut step_ms = Vec::new();
    let mut lines = 0u64;
    for line in text.lines() {
        let rec: Value = serde_json::from_str(line).map_err(|e| format!("telemetry line: {e}"))?;
        lines += 1;
        let step = rec.get("step").and_then(Value::as_u64).unwrap_or(0);
        if step >= sizes.warmup as u64 {
            if let Some(s) = rec.get("seconds").and_then(Value::as_f64) {
                step_ms.push(s * 1e3);
            }
        }
    }
    if lines != sizes.total() as u64 {
        problems.push(format!(
            "telemetry.jsonl has {lines} records, expected {steps}"
        ));
    }
    let created = created.unwrap_or_default();
    Ok(CliRound {
        round: Round {
            setup_s: created.as_secs_f64(),
            first_record_s: first_bytes.unwrap_or(created).as_secs_f64(),
            run_wall_s,
            step_ms,
            fom_work: work_per_step * sizes.total() as f64,
            ops: sizes.total() as u64,
            failed: if problems.is_empty() {
                0
            } else {
                sizes.total() as u64
            },
            digest,
            problems,
        },
        jsonl_bytes: text.len() as u64,
        steps: lines,
    })
}

/// `Read` adaptor counting the bytes a client pulled off the stream.
struct Counting<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// One job as its client saw it.
pub struct JobTrace {
    pub submit: Instant,
    pub accepted: Option<Instant>,
    /// Arrival time and program-reported wall seconds of each `Step`.
    pub steps: Vec<(Instant, f64)>,
    /// `State` frames ("running", "preempted", "resumed").
    pub states: Vec<(String, Instant)>,
    pub done: Option<Instant>,
    pub summary: Option<JobSummary>,
    pub bytes: u64,
    pub error: Option<String>,
}

/// Submit `spec` and consume its stream to the terminal frame.
/// `on_first_step` fires once, when the first `Step` frame arrives.
fn run_job(socket: &Path, spec: &JobSpec, on_first_step: impl FnOnce()) -> JobTrace {
    let mut on_first_step = Some(on_first_step);
    let mut tr = JobTrace {
        submit: Instant::now(),
        accepted: None,
        steps: Vec::new(),
        states: Vec::new(),
        done: None,
        summary: None,
        bytes: 0,
        error: None,
    };
    let result = (|| -> Result<(), String> {
        let mut stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(CHILD_TIMEOUT))
            .map_err(|e| format!("set read timeout: {e}"))?;
        tr.submit = Instant::now();
        write_frame(&mut stream, &Request::Submit { job: spec.clone() })
            .map_err(|e| format!("send submission: {e}"))?;
        let mut rd = Counting {
            inner: stream,
            bytes: 0,
        };
        loop {
            let frame: Option<Response> = read_frame(&mut rd).map_err(|e| format!("read: {e}"))?;
            let now = Instant::now();
            tr.bytes = rd.bytes;
            match frame.ok_or("stream ended before the terminal frame")? {
                Response::Accepted { .. } => tr.accepted = Some(now),
                Response::Step { record, .. } => {
                    tr.steps.push((now, record.seconds));
                    if let Some(f) = on_first_step.take() {
                        f();
                    }
                }
                Response::State { state, .. } => tr.states.push((state, now)),
                Response::Done { summary, .. } => {
                    tr.done = Some(now);
                    tr.summary = Some(summary);
                    return Ok(());
                }
                Response::Rejected { reason } => return Err(format!("rejected: {reason}")),
                Response::Failed { reason, .. } => return Err(format!("failed: {reason}")),
                Response::ShuttingDown => return Err("server is shutting down".to_string()),
                Response::Status { .. } => return Err("unexpected status frame".to_string()),
            }
        }
    })();
    tr.error = result.err();
    tr
}

fn job_spec(cfg: RunConfig, tenant: &str, priority: i32, max_steps: u64) -> JobSpec {
    JobSpec {
        tenant: tenant.to_string(),
        priority,
        budgets: Budgets {
            max_steps: Some(max_steps),
            max_boxes: None,
            wall_ceiling_seconds: None,
        },
        config: cfg,
    }
}

/// What one `serve_preempt` scenario produced.
pub struct ServeRound {
    pub round: Round,
    pub hi_turnaround_s: f64,
    pub spawned: Instant,
    pub ready: Instant,
    pub lo: JobTrace,
    pub hi: JobTrace,
}

impl ServeRound {
    /// Submit → `Accepted`, low-priority job \[ms\].
    pub fn accept_ms(&self) -> f64 {
        self.lo
            .accepted
            .map_or(0.0, |t| (t - self.lo.submit).as_secs_f64() * 1e3)
    }

    /// Low job's "preempted" frame → high job's first `Step` \[ms\].
    pub fn preempt_to_hi_first_step_ms(&self) -> f64 {
        let parked = self.lo.states.iter().find(|(s, _)| s == "preempted");
        match (parked, self.hi.steps.first()) {
            (Some((_, p)), Some((h, _))) => h.saturating_duration_since(*p).as_secs_f64() * 1e3,
            _ => 0.0,
        }
    }

    /// High job's terminal frame → low job's next `Step` (checkpoint
    /// restore + rebuild + one step) \[ms\].
    pub fn resume_ms(&self) -> f64 {
        let Some(hi_done) = self.hi.done else {
            return 0.0;
        };
        self.lo
            .steps
            .iter()
            .find(|(t, _)| *t > hi_done)
            .map_or(0.0, |(t, _)| (*t - hi_done).as_secs_f64() * 1e3)
    }

    pub fn preempts(&self) -> u64 {
        self.lo.summary.as_ref().map_or(0, |s| s.preemptions)
    }

    pub fn stream_bytes_per_step(&self) -> f64 {
        let steps = (self.lo.steps.len() + self.hi.steps.len()).max(1);
        (self.lo.bytes + self.hi.bytes) as f64 / steps as f64
    }
}

/// One-slot server, quantum 10: client A submits the long low-priority
/// job, client B the short high-priority one as soon as A's first
/// `Step` arrives (closed loop, two connections), then `Shutdown`.
/// `budgets` are the (low, high) step budgets, `work` Eq. 1's per-step
/// numerator of (low deck, high deck).
pub fn serve_round(
    ctx: &Ctx,
    dir: &Path,
    budgets: (u64, u64),
    work: (f64, f64),
) -> Result<ServeRound, String> {
    let (lo_steps, hi_steps) = budgets;
    let lo_spec = job_spec(
        Deck::LwfaWindowF32.config(ctx.seed)?,
        "background",
        0,
        lo_steps,
    );
    let hi_spec = job_spec(Deck::MrHybrid.config(ctx.seed)?, "interactive", 5, hi_steps);
    let socket = dir.join("s.sock");

    let spawned = Instant::now();
    let mut server = Proc::spawn(
        "mrpic_serve",
        &[
            "--socket",
            "s.sock",
            "--slots",
            "1",
            "--quantum",
            "10",
            "--log",
            "server.jsonl",
        ],
        dir,
    )?;
    let deadline = spawned + CHILD_TIMEOUT;
    while fetch_status(&socket).is_err() {
        if let Some(st) = server.poll()? {
            return Err(format!("mrpic_serve exited early with {st}"));
        }
        if Instant::now() >= deadline {
            return Err("mrpic_serve never answered a status request".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let ready = Instant::now();

    let (tx, rx) = mpsc::channel::<()>();
    let (socket_ref, lo_ref, hi_ref) = (&socket, &lo_spec, &hi_spec);
    let (lo, hi) = std::thread::scope(|s| {
        let lo = s.spawn(move || {
            run_job(socket_ref, lo_ref, move || {
                let _ = tx.send(());
            })
        });
        let hi = s.spawn(move || {
            // A dead low job drops the sender: submit anyway so both
            // failures are reported rather than one hang.
            let _ = rx.recv_timeout(CHILD_TIMEOUT);
            run_job(socket_ref, hi_ref, || ())
        });
        (lo.join(), hi.join())
    });
    let lo = lo.map_err(|_| "low-priority client thread panicked")?;
    let hi = hi.map_err(|_| "high-priority client thread panicked")?;

    let mut problems = Vec::new();
    if let Err(e) = request_shutdown(&socket) {
        problems.push(format!("shutdown request: {e}"));
    }
    match server.wait_until(Instant::now() + CHILD_TIMEOUT, || ()) {
        Ok(st) if st.success() => {}
        Ok(st) => problems.push(format!("mrpic_serve exited with {st}")),
        Err(e) => problems.push(e),
    }
    let left = leftovers(dir);
    if !left.is_empty() {
        problems.push(format!("left behind {left:?}"));
    }

    let mut failed = 0u64;
    for (label, tr, want) in [("low", &lo, lo_steps), ("high", &hi, hi_steps)] {
        let ok = match (&tr.error, &tr.summary) {
            (None, Some(s)) => s.guard_trips == 0 && s.steps == want,
            _ => false,
        };
        if !ok {
            failed += 1;
            problems.push(format!(
                "{label}-priority job did not complete its {want} steps cleanly: {}",
                tr.error.as_deref().unwrap_or("bad summary")
            ));
        }
    }
    if failed == 0 && lo.summary.as_ref().is_some_and(|s| s.preemptions == 0) {
        failed = 2;
        problems.push("the low-priority job was never preempted".to_string());
    }

    let last_done = lo.done.into_iter().chain(hi.done).max().unwrap_or(ready);
    let step_ms: Vec<f64> = lo.steps.iter().map(|(_, s)| s * 1e3).collect();
    Ok(ServeRound {
        round: Round {
            setup_s: (ready - spawned).as_secs_f64(),
            first_record_s: lo
                .steps
                .first()
                .map_or(0.0, |(t, _)| (*t - lo.submit).as_secs_f64()),
            run_wall_s: last_done.saturating_duration_since(lo.submit).as_secs_f64(),
            step_ms,
            fom_work: work.0 * lo.steps.len() as f64 + work.1 * hi.steps.len() as f64,
            ops: 2,
            failed,
            digest: None,
            problems,
        },
        hi_turnaround_s: hi.done.map_or(0.0, |t| (t - hi.submit).as_secs_f64()),
        spawned,
        ready,
        lo,
        hi,
    })
}
