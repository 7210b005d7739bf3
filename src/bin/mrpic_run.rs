//! Config-driven simulation runner.
//!
//! ```text
//! cargo run --release --bin mrpic_run -- configs/lwfa_2d.json [outdir] [--steps N]
//! ```
//!
//! Reads a JSON [`mrpic::core::config::RunConfig`], runs it to `t_end`
//! (or at most `--steps N` steps — handy for smoke tests), honoring MR
//! patch-removal times, and writes diagnostics (spectra, field slices,
//! run summary) plus per-step telemetry (`telemetry.jsonl`) to the
//! output directory. Exits with status 3 if an invariant guard tripped
//! (a NaN/Inf appeared in field data) so CI can fail on silent blow-ups.
//!
//! With `--ranks N` (N > 1) the step loop executes on the `mrpic-dist`
//! multi-rank runtime: N rank threads over the in-process message-passing
//! transport, with per-rank communication records in the telemetry. The
//! physics is bitwise identical to a single-rank run.
//!
//! `--transport socket` (or `tcp`) promotes the ranks to real OS
//! processes: this binary becomes a supervisor that spawns one
//! `mrpic_rank` worker per rank, meshed over Unix-domain sockets in a
//! private directory under the outdir (or TCP loopback ports from
//! `--tcp-base`). Rank 0's worker writes the same output set as an
//! in-process run — `summary.json`'s `state_digest` and the CSVs match
//! the in-process transport bit for bit. Socket files are removed once
//! the mesh is up; the supervisor deletes the mesh directory on exit.
//!
//! `--elastic grow:STEP:K,shrink:STEP:K` schedules rank-count changes
//! mid-run (any transport): at each trigger step the runtime takes a
//! checkpoint-epoch barrier, re-partitions with cost-seeded SFC, rebuilds
//! the transport at the new rank count, and resumes deterministically —
//! the final state is bitwise identical to an uninterrupted run at the
//! destination rank count. With `--transport socket` the supervisor
//! spawns enough workers up front to cover the largest planned size;
//! workers beyond the current size replicate as spectators until a grow
//! admits them to the mesh.
//!
//! Chaos testing (requires `--ranks` ≥ 2): `--fault-seed N` runs the
//! built-in chaos plan (delays, corruption, transient failures, plus a
//! rank crash at step 20) seeded with N; `--fault-plan plan.json` loads
//! a custom [`mrpic::dist::FaultPlan`]. Injected faults are absorbed —
//! retried, re-received, or survived via checkpoint rollback — and
//! counted in the `faults` block of each telemetry record.
//!
//! `--trace-out trace.json` enables mrpic-trace span tracing for the
//! run and writes a Chrome-trace JSON (open in Perfetto / `chrome://
//! tracing`; one process track per rank, one thread track per worker).
//! The same file feeds `mrpic_prof` for top-span, rank-imbalance,
//! comm-matrix, span-distribution, and critical-path reports.
//!
//! Observability: `--metrics-addr HOST:PORT` serves a live Prometheus
//! text exposition (`GET /metrics`) and JSON fleet snapshot
//! (`GET /snapshot`) for the run; the bound address is written to
//! `<outdir>/metrics.addr` so scripts can scrape a port-0 listener.
//! `--metrics-out PATH` writes one final JSON snapshot at exit.
//! `--metrics-interval N` sets the sampling cadence in steps (default
//! 10). With `--transport socket|tcp` the workers push their samples to
//! this supervisor over a Unix socket in the mesh directory as low-rate
//! `Metrics` frames. A bounded flight recorder always runs: on a guard
//! trip, an unrecovered transport loss, a detected rank crash, a panic,
//! or SIGUSR1, the last ~256 step records and fault events are dumped to
//! `<outdir>/blackbox.json`. `--poison-step N` injects a NaN into Ex
//! after step N (mem transport only) to exercise that path end to end.
//!
//! Server client mode: `--submit SOCKET` sends the config to a running
//! `mrpic_serve` instead of executing locally, streams the job's
//! telemetry into `<outdir>/telemetry.jsonl`, and writes the final
//! `summary.json` when it completes. `--tenant NAME`, `--priority N`,
//! and `--wall-ceiling SECONDS` set the job's tenancy metadata and
//! budgets (`--steps` becomes the job's step budget). `--serve-status
//! SOCKET` prints a server status snapshot and exits.
//!
//! Exit codes (local and submit mode alike) are the `core::run::Exit`
//! contract. A local run is the library run driver `obs::Driver::run`
//! that `mrpic_rank` workers also call, around the `RunSession` step
//! loop `mrpic-serve` jobs run too; an unrecoverable rank loss comes
//! back from it as a `dist::StepError` value (never a panic) and maps
//! to 4, and a supervisor folds its workers' statuses by the enum's
//! severity order (2 beats 4 beats 3 beats 0):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | run completed, guard-clean |
//! | 2    | usage, config/validation (incl. an `--elastic` plan that shrinks below one rank), or local IO error (incl. server unreachable / submission rejected) |
//! | 3    | the NaN/Inf invariant guard tripped (locally, or in the remote job's summary) |
//! | 4    | transport loss: unrecoverable rank loss in a `--ranks` run, or the connection/job was lost after the server accepted it |

use std::convert::Infallible;
use std::io::Write;
use std::path::{Path, PathBuf};

use mrpic::core::config::RunConfig;
use mrpic::core::run::{Exit, RunSession, Stepper};
use mrpic::core::sim::Simulation;
use mrpic::dist::{elastic_peak, parse_elastic_plan, DistSim, FaultPlan, StepError};
use mrpic::obs::{Driver, MetricsHub, Publish};
use mrpic::serve::{fetch_status, submit_job, Budgets, ClientError, JobSpec};
use mrpic::usage_error;

/// Parsed command line (see the module docs).
struct Cli {
    config: Option<String>,
    outdir: Option<String>,
    max_steps: u64,
    ranks: usize,
    fault_plan: Option<FaultPlan>,
    trace_out: Option<PathBuf>,
    no_lb: bool,
    transport: String,
    tcp_base: u16,
    elastic_spec: Option<String>,
    submit: Option<PathBuf>,
    serve_status: Option<PathBuf>,
    tenant: String,
    priority: i32,
    wall_ceiling: Option<f64>,
    metrics_addr: Option<String>,
    metrics_out: Option<PathBuf>,
    metrics_interval: u64,
    poison_step: Option<u64>,
}

/// The next argument parsed as `T`, or exit 2 with `msg`.
fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, msg: &str) -> T {
    args.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage_error(msg))
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        config: None,
        outdir: None,
        max_steps: u64::MAX,
        ranks: 1,
        fault_plan: None,
        trace_out: None,
        no_lb: false,
        transport: "mem".to_string(),
        tcp_base: 41300,
        elastic_spec: None,
        submit: None,
        serve_status: None,
        tenant: "default".to_string(),
        priority: 0,
        wall_ceiling: None,
        metrics_addr: None,
        metrics_out: None,
        metrics_interval: 10,
        poison_step: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let args = &mut args;
        match a.as_str() {
            "--no-lb" => cli.no_lb = true,
            "--metrics-addr" => {
                cli.metrics_addr = Some(value(args, "--metrics-addr needs a HOST:PORT argument"))
            }
            "--metrics-out" => {
                cli.metrics_out = Some(value(args, "--metrics-out needs a path argument"))
            }
            "--metrics-interval" => {
                cli.metrics_interval =
                    value(args, "--metrics-interval needs a positive step count");
                if cli.metrics_interval == 0 {
                    usage_error("--metrics-interval needs a positive step count");
                }
            }
            "--poison-step" => {
                cli.poison_step = Some(value(args, "--poison-step needs a step number argument"))
            }
            "--transport" => {
                cli.transport = args.next().unwrap_or_default();
                if !matches!(cli.transport.as_str(), "mem" | "socket" | "tcp") {
                    usage_error("--transport needs one of: mem, socket, tcp");
                }
            }
            "--tcp-base" => cli.tcp_base = value(args, "--tcp-base needs a port argument"),
            "--elastic" => {
                cli.elastic_spec = Some(value(
                    args,
                    "--elastic needs a plan argument (grow:STEP:K,shrink:STEP:K)",
                ))
            }
            "--submit" => {
                cli.submit = Some(value(args, "--submit needs a server socket path argument"))
            }
            "--serve-status" => {
                cli.serve_status = Some(value(
                    args,
                    "--serve-status needs a server socket path argument",
                ))
            }
            "--tenant" => cli.tenant = value(args, "--tenant needs a name argument"),
            "--priority" => cli.priority = value(args, "--priority needs an integer argument"),
            "--wall-ceiling" => {
                cli.wall_ceiling = Some(value(
                    args,
                    "--wall-ceiling needs a positive seconds argument",
                ))
            }
            "--steps" => cli.max_steps = value(args, "--steps needs an integer argument"),
            "--ranks" => {
                cli.ranks = value(args, "--ranks needs a positive integer argument");
                if cli.ranks == 0 {
                    usage_error("--ranks needs a positive integer argument");
                }
            }
            "--fault-seed" => {
                let seed = value(args, "--fault-seed needs an integer argument");
                cli.fault_plan = Some(FaultPlan::chaos_smoke(seed));
            }
            "--trace-out" => cli.trace_out = Some(value(args, "--trace-out needs a path argument")),
            "--fault-plan" => {
                let p: String = value(args, "--fault-plan needs a path argument");
                let text = std::fs::read_to_string(&p)
                    .unwrap_or_else(|e| usage_error(&format!("cannot read fault plan {p}: {e}")));
                cli.fault_plan = Some(
                    FaultPlan::from_json(&text)
                        .unwrap_or_else(|e| usage_error(&format!("fault plan error: {e}"))),
                );
            }
            _ if cli.config.is_none() => cli.config = Some(a),
            _ if cli.outdir.is_none() => cli.outdir = Some(a),
            other => usage_error(&format!("unexpected argument: {other}")),
        }
    }
    cli
}

/// Serve `hub` over HTTP at `addr`, recording the bound address in
/// `<outdir>/metrics.addr` so scripts can scrape a port-0 listener.
fn serve_metrics(hub: &MetricsHub, addr: &str, outdir: &Path) {
    match mrpic::obs::http::serve(hub.clone(), addr) {
        Ok(bound) => {
            println!("metrics: http://{bound}/metrics");
            if let Err(e) = std::fs::write(outdir.join("metrics.addr"), format!("{bound}\n")) {
                eprintln!("warning: cannot write metrics.addr: {e}");
            }
        }
        Err(e) => usage_error(&format!("cannot bind metrics listener {addr}: {e}")),
    }
}

fn write_metrics(hub: &MetricsHub, path: &Path) {
    match hub.write_json(path) {
        Ok(()) => println!("metrics snapshot -> {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Supervise an out-of-process run: spawn `spawn` `mrpic_rank` workers
/// (the initial ranks plus spectators up to the largest elastic size),
/// wait for all of them, clean up the socket directory, and fold the
/// workers' exit statuses into the worst one.
fn run_process_mesh(cli: &Cli, config: &str, outdir: &Path, spawn: usize) -> Exit {
    // Session nonce: pins every handshake to this supervisor invocation
    // so a stale worker from a previous run cannot join the mesh.
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1)
        ^ u64::from(std::process::id()).rotate_left(32);
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("mrpic_rank")))
        .filter(|p| p.exists())
        .unwrap_or_else(|| {
            usage_error("cannot locate the mrpic_rank worker binary next to mrpic_run")
        });
    let metrics_on = cli.metrics_addr.is_some() || cli.metrics_out.is_some();
    let mesh_dir = outdir.join(format!(".mesh-{nonce:016x}"));
    // The mesh directory hosts the rank sockets (uds transport) and the
    // supervisor's metrics aggregation socket (any transport).
    if cli.transport == "socket" || metrics_on {
        if let Err(e) = std::fs::create_dir_all(&mesh_dir) {
            usage_error(&format!(
                "cannot create socket dir {}: {e}",
                mesh_dir.display()
            ));
        }
    }
    // Metrics plane: aggregate the workers' pushed samples into a fleet
    // hub, optionally exposed over HTTP while the mesh runs.
    let hub = metrics_on.then(|| MetricsHub::new("run"));
    if let Some(hub) = &hub {
        if let Err(e) = mrpic::dist::spawn_metrics_listener(&mesh_dir, hub.clone()) {
            usage_error(&format!(
                "cannot bind metrics socket in {}: {e}",
                mesh_dir.display()
            ));
        }
    }
    if let (Some(hub), Some(addr)) = (&hub, &cli.metrics_addr) {
        serve_metrics(hub, addr, outdir);
    }
    println!(
        "process mesh: {spawn} worker process(es) over {} ({} active rank(s) at start)",
        if cli.transport == "tcp" {
            format!("tcp 127.0.0.1:{}+", cli.tcp_base)
        } else {
            format!("uds {}", mesh_dir.display())
        },
        cli.ranks,
    );
    let mut children = Vec::new();
    for r in 0..spawn {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--config")
            .arg(config)
            .arg("--outdir")
            .arg(if r == 0 {
                outdir.to_path_buf()
            } else {
                outdir.join(format!("rank{r}"))
            })
            .arg("--rank")
            .arg(r.to_string())
            .arg("--ranks")
            .arg(cli.ranks.to_string())
            .arg("--nonce")
            .arg(nonce.to_string());
        if cli.transport == "tcp" {
            cmd.arg("--tcp-base").arg(cli.tcp_base.to_string());
        } else {
            cmd.arg("--socket-dir").arg(&mesh_dir);
        }
        if cli.max_steps != u64::MAX {
            cmd.arg("--steps").arg(cli.max_steps.to_string());
        }
        if let Some(spec) = &cli.elastic_spec {
            cmd.arg("--elastic").arg(spec);
        }
        if cli.no_lb {
            cmd.arg("--no-lb");
        }
        if metrics_on {
            cmd.arg("--metrics-sock")
                .arg(mesh_dir.join(mrpic::dist::METRICS_SOCK_FILE))
                .arg("--metrics-interval")
                .arg(cli.metrics_interval.to_string());
        }
        match cmd.spawn() {
            Ok(child) => children.push((r, child)),
            Err(e) => {
                eprintln!("cannot spawn rank {r} worker: {e}");
                for (_, mut c) in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                let _ = std::fs::remove_dir_all(&mesh_dir);
                return Exit::Usage;
            }
        }
    }
    let mut worst = Exit::Clean;
    for (r, mut child) in children {
        let code = match child.wait() {
            Ok(status) => status.code(),
            Err(e) => {
                eprintln!("cannot wait for rank {r} worker: {e}");
                None
            }
        };
        match code {
            Some(0) => {}
            Some(c) => eprintln!("rank {r} worker exited with code {c}"),
            None => eprintln!("rank {r} worker died without an exit code"),
        }
        worst = worst.max(Exit::from_code(code));
    }
    if let (Some(hub), Some(path)) = (&hub, &cli.metrics_out) {
        write_metrics(hub, path);
    }
    let _ = std::fs::remove_dir_all(&mesh_dir);
    if worst == Exit::Clean {
        println!("process mesh complete; outputs in {}", outdir.display());
    }
    worst
}

fn main() {
    let cli = parse_args();
    if let Some(sock) = &cli.serve_status {
        match fetch_status(sock) {
            Ok(report) => {
                let json = serde_json::to_string_pretty(&report).unwrap_or_default();
                mrpic::exit_on_stdout_error(writeln!(std::io::stdout(), "{json}"));
                return;
            }
            Err(e) => usage_error(&format!("status request failed: {e}")),
        }
    }
    let Some(path) = cli.config.clone() else {
        usage_error(
            "usage: mrpic_run <config.json> [outdir] [--steps N] [--ranks N] [--no-lb] \
             [--transport mem|socket|tcp [--tcp-base PORT]] \
             [--elastic grow:STEP:K,shrink:STEP:K] \
             [--trace-out trace.json] [--fault-seed N | --fault-plan plan.json] \
             [--metrics-addr HOST:PORT] [--metrics-out PATH] [--metrics-interval STEPS] \
             [--poison-step N] \
             [--submit SOCKET [--tenant NAME] [--priority N] [--wall-ceiling SECONDS]] \
             | mrpic_run --serve-status SOCKET",
        );
    };
    if cli.fault_plan.is_some() && cli.ranks < 2 {
        usage_error("fault injection needs --ranks 2 or more (a crash must leave survivors)");
    }
    if cli.transport != "mem" && cli.fault_plan.is_some() {
        usage_error(
            "--fault-seed/--fault-plan are an in-process chaos harness; use --transport mem",
        );
    }
    if cli.transport != "mem" && cli.trace_out.is_some() {
        usage_error("--trace-out traces the in-process runtime; use --transport mem");
    }
    if cli.transport != "mem" && cli.poison_step.is_some() {
        usage_error("--poison-step injects into the in-process runtime; use --transport mem");
    }
    // Walk the elastic plan once from the starting rank count, before
    // any worker spawns or step runs: an over-shrink is a usage error,
    // and the peak is how many workers a process mesh needs.
    let elastic = cli.elastic_spec.as_deref().map(|s| {
        parse_elastic_plan(s).unwrap_or_else(|e| usage_error(&format!("bad --elastic plan: {e}")))
    });
    let peak = match &elastic {
        Some(events) => elastic_peak(cli.ranks, events)
            .unwrap_or_else(|e| usage_error(&format!("bad --elastic plan: {e}"))),
        None => cli.ranks,
    };
    let outdir = PathBuf::from(
        cli.outdir
            .clone()
            .unwrap_or_else(|| "target/mrpic_run_out".into()),
    );
    if let Err(e) = std::fs::create_dir_all(&outdir) {
        usage_error(&format!(
            "cannot create output dir {}: {e}",
            outdir.display()
        ));
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| usage_error(&format!("cannot read config {path}: {e}")));
    let cfg =
        RunConfig::from_json(&text).unwrap_or_else(|e| usage_error(&format!("config error: {e}")));

    // Client mode: ship the config to a running mrpic_serve and stream
    // the job back instead of executing locally.
    if let Some(sock) = &cli.submit {
        std::process::exit(submit(&cli, sock, cfg, &outdir, elastic.is_some()).code());
    }

    // Out-of-process transports: become a supervisor. Every rank is a
    // real `mrpic_rank` OS process; physics and outputs come from rank
    // 0's worker — this process only spawns, waits, and cleans up.
    if cli.transport != "mem" {
        std::process::exit(run_process_mesh(&cli, &path, &outdir, peak).code());
    }

    if cli.trace_out.is_some() {
        mrpic::trace::enable();
    }
    let (mut sim, removals) = cfg
        .build()
        .unwrap_or_else(|e| usage_error(&format!("config error: {e}")));
    // --no-lb: run the same config with live load balancing disabled
    // (the LB-off arm of an A/B comparison on a skewed case).
    if cli.no_lb {
        sim.lb = None;
    } else if let Some(policy) = &sim.lb {
        let c = policy.cfg();
        println!(
            "live LB: {:?} costs, trigger > {:.2} for {} step(s), horizon {} step(s)",
            c.cost_source, c.threshold, c.patience, c.horizon,
        );
    }
    println!(
        "mrpic_run: {}x{}x{} cells, {} species, {} lasers, {} particles, {} rank(s), dt = {:.3e} s",
        cfg.cells[0],
        cfg.cells[1],
        cfg.cells[2],
        sim.species.len(),
        sim.lasers.len(),
        sim.total_particles(),
        cli.ranks,
        sim.dt,
    );
    let session = RunSession::new(cfg.t_end, removals).max_steps(cli.max_steps);
    // With more than one rank, step through the distributed runtime:
    // the DistSim realigns the mapping to one shard per rank and routes
    // every exchange over the in-process transport (fault-injected when
    // a chaos plan is active).
    let exit = if cli.ranks > 1 || elastic.is_some() {
        let dist = |sim| {
            let mut d = match &cli.fault_plan {
                Some(plan) => {
                    println!(
                        "chaos transport: seed {}, delay {}‰, corrupt {}‰, transient {}‰, crash {:?}",
                        plan.seed,
                        plan.delay_per_mille,
                        plan.corrupt_per_mille,
                        plan.transient_per_mille,
                        plan.crash,
                    );
                    DistSim::with_fault_injection(sim, cli.ranks, plan.clone())
                }
                None => DistSim::in_process(sim, cli.ranks),
            };
            if let Some(events) = elastic {
                println!(
                    "elastic plan: {} rank-count change(s) scheduled",
                    events.len()
                );
                d.set_elastic_plan(events)?;
            }
            Ok::<_, StepError>(d)
        };
        run_local(&cli, &cfg, &outdir, sim, dist, session)
    } else {
        run_local(&cli, &cfg, &outdir, sim, Ok::<_, Infallible>, session)
    };
    if exit != Exit::Clean {
        std::process::exit(exit.code());
    }
}

/// `--submit`: run the config as a job on a `mrpic_serve` server.
fn submit(cli: &Cli, sock: &Path, cfg: RunConfig, outdir: &Path, elastic: bool) -> Exit {
    if cli.ranks > 1 || cli.fault_plan.is_some() || cli.trace_out.is_some() || cli.no_lb {
        usage_error(
            "--submit runs the job server-side; --ranks/--fault-*/--trace-out/--no-lb \
             do not apply (set them in the server or the config)",
        );
    }
    if cli.transport != "mem" || elastic {
        usage_error("--submit runs the job server-side; --transport/--elastic do not apply");
    }
    if cli.metrics_addr.is_some() || cli.metrics_out.is_some() || cli.poison_step.is_some() {
        usage_error(
            "--submit runs the job server-side; scrape the server's --metrics-addr instead",
        );
    }
    let spec = JobSpec {
        tenant: cli.tenant.clone(),
        priority: cli.priority,
        budgets: Budgets {
            max_steps: (cli.max_steps != u64::MAX).then_some(cli.max_steps),
            max_boxes: None,
            wall_ceiling_seconds: cli.wall_ceiling,
        },
        config: cfg,
    };
    match submit_job(sock, &spec, Some(outdir), true) {
        Ok(outcome) => {
            let s = &outcome.summary;
            println!(
                "job {} done: {} steps, t = {:.3e} s, {} particles, \
                 {} preemption(s), {} resume(s); outputs in {}",
                s.job_id,
                s.steps,
                s.time,
                s.particles,
                s.preemptions,
                s.resumes,
                outdir.display(),
            );
            if s.guard_trips > 0 {
                eprintln!(
                    "INVARIANT GUARD TRIPPED server-side ({} trip(s)) — see telemetry.jsonl",
                    s.guard_trips
                );
                return Exit::GuardTrip;
            }
            Exit::Clean
        }
        Err(e @ (ClientError::Io(_) | ClientError::Rejected(_))) => {
            eprintln!("{e}");
            Exit::Usage
        }
        Err(e @ (ClientError::Transport(_) | ClientError::Failed(_))) => {
            eprintln!("{e}");
            Exit::TransportLoss
        }
    }
}

/// Run the in-process stepper `build` makes of `sim` through the shared
/// run driver, with this binary's extra observers (`--poison-step`,
/// trace draining) and metrics hub, then write the trace and the
/// metrics snapshot when asked.
fn run_local<S: Stepper, E: std::fmt::Display + Into<Exit>>(
    cli: &Cli,
    cfg: &RunConfig,
    outdir: &Path,
    sim: Simulation,
    build: impl FnOnce(Simulation) -> Result<S, E>,
    session: RunSession,
) -> Exit {
    // The metrics hub (and its per-rank samplers) only exists when a
    // consumer asked for it.
    let hub =
        (cli.metrics_addr.is_some() || cli.metrics_out.is_some()).then(|| MetricsHub::new("run"));
    if let (Some(hub), Some(addr)) = (&hub, &cli.metrics_addr) {
        serve_metrics(hub, addr, outdir);
    }
    let driver = Driver {
        rank: 0,
        outdir,
        label: "",
        publish: hub.clone().map_or(Publish::Off, Publish::Hub),
        interval: cli.metrics_interval,
        diag_interval: cfg.diag_interval,
    };
    let mut poison = |s: &mut S| {
        if cli.poison_step == Some(s.sim().istep) {
            // Deterministic guard-trip harness: a NaN planted in Ex
            // must surface as a trip on the next step.
            let fab = s.sim_mut().fs.e[0].fab_mut(0);
            let lo = fab.valid_pts().lo;
            fab.set(0, lo, f64::NAN);
            println!(
                "step {}: poisoned Ex (expect a guard trip next step)",
                s.sim().istep
            );
        }
    };
    // Drain the per-thread trace rings once per step so short-lived
    // rank/worker threads never wrap them.
    let mut trace = |_: &mut S| {
        if cli.trace_out.is_some() {
            mrpic::trace::collect();
        }
    };
    let exit = driver.run(sim, build, session, &mut [&mut poison, &mut trace]);
    if let Some(tp) = &cli.trace_out {
        write_trace(tp);
    }
    if let (Some(hub), Some(path)) = (&hub, &cli.metrics_out) {
        write_metrics(hub, path);
    }
    println!("outputs in {}", outdir.display());
    exit
}

/// Stop tracing and write the Chrome trace to `tp`, with its headline
/// imbalance and top spans.
fn write_trace(tp: &Path) {
    mrpic::trace::disable();
    let trace = mrpic::trace::take_trace();
    match mrpic::trace::chrome::write(&trace, tp) {
        Ok(()) => {
            println!(
                "trace: {} spans ({} dropped) -> {}",
                trace.spans.len(),
                trace.dropped,
                tp.display(),
            );
            if let Some(r) = mrpic::trace::analysis::imbalance(&trace) {
                println!("trace: rank imbalance (max/mean busy) = {r:.3}");
            }
            for a in mrpic::trace::analysis::top_spans(&trace, 5) {
                println!(
                    "trace: {:<12} {:>8}x total {:8.3} s self {:8.3} s",
                    a.name, a.count, a.total_s, a.self_s,
                );
            }
        }
        Err(e) => eprintln!("warning: cannot write trace {}: {e}", tp.display()),
    }
}
