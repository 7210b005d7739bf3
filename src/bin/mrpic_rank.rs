//! One OS process of an out-of-process socket-transport run.
//!
//! Spawned by `mrpic_run --transport socket|tcp` (once per rank), not
//! usually invoked by hand:
//!
//! ```text
//! mrpic_rank --config c.json --outdir out --rank R --ranks N \
//!            --nonce X (--socket-dir DIR | --tcp-base PORT) \
//!            [--steps N] [--elastic SPEC] [--no-lb] \
//!            [--metrics-sock PATH [--metrics-interval STEPS]]
//! ```
//!
//! `--metrics-sock` points at the supervisor's aggregation socket: every
//! `--metrics-interval` steps (default 10) this worker pushes one JSON
//! `RankMetrics` sample as a `Metrics` frame — best-effort, out-of-band,
//! never part of the deterministic wire schedule.
//!
//! Each process runs the full replicated driver (`DistSim::process_rank`):
//! it steps every rank's share of the physics deterministically, but the
//! message edges that touch rank `R` travel over the real wire — this
//! process *sends* rank `R`'s frames and trusts only the *received* bytes
//! for messages into `R`. The wire schedule is therefore exactly the
//! in-process schedule, and every replica holds bitwise-identical state.
//!
//! A process whose rank is at or beyond the *initial* rank count is a
//! spectator: it replicates the physics off the mesh and joins the wire
//! when an `--elastic` grow raises the rank count past it.
//!
//! The run itself is the library run driver `mrpic_run` also calls
//! (`obs::Driver::run`): every worker arms a flight recorder (a guard
//! trip, mesh loss, panic, or SIGUSR1 dumps `blackbox.json` into its
//! own outdir), and rank 0 writes the same output set as an in-process
//! run — `telemetry.jsonl`, `energy.json`, spectra, field slices and
//! `summary.json` with the FNV-1a `state_digest` the equivalence smoke
//! compares. A lost mesh is a `StepError` value, which maps onto the
//! exit contract `mrpic_run` also uses (`core::run::Exit`: 0 clean,
//! 2 usage/config, 3 guard trip, 4 transport loss).

use mrpic::core::config::RunConfig;
use mrpic::core::run::{Exit, RunSession};
use mrpic::dist::{parse_elastic_plan, DistSim, MeshCfg, MetricsPusher, StepError};
use mrpic::obs::{Driver, Publish};
use mrpic::usage_error;

fn req<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, what: &str) -> T {
    args.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("{what} needs an argument")))
}

fn main() {
    let mut config_path: Option<String> = None;
    let mut outdir: Option<std::path::PathBuf> = None;
    let mut rank = usize::MAX;
    let mut ranks = 0usize;
    let mut nonce = 0u64;
    let mut socket_dir: Option<std::path::PathBuf> = None;
    let mut tcp_base: Option<u16> = None;
    let mut max_steps = u64::MAX;
    let mut elastic_spec: Option<String> = None;
    let mut no_lb = false;
    let mut metrics_sock: Option<std::path::PathBuf> = None;
    let mut metrics_interval = 10u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--metrics-sock" => metrics_sock = Some(req(&mut args, "--metrics-sock")),
            "--metrics-interval" => {
                metrics_interval = req::<u64>(&mut args, "--metrics-interval").max(1)
            }
            "--config" => config_path = Some(req(&mut args, "--config")),
            "--outdir" => outdir = Some(req(&mut args, "--outdir")),
            "--rank" => rank = req(&mut args, "--rank"),
            "--ranks" => ranks = req(&mut args, "--ranks"),
            "--nonce" => nonce = req(&mut args, "--nonce"),
            "--socket-dir" => socket_dir = Some(req(&mut args, "--socket-dir")),
            "--tcp-base" => tcp_base = Some(req(&mut args, "--tcp-base")),
            "--steps" => max_steps = req(&mut args, "--steps"),
            "--elastic" => elastic_spec = Some(req(&mut args, "--elastic")),
            "--no-lb" => no_lb = true,
            other => usage_error(&format!("mrpic_rank: unexpected argument {other}")),
        }
    }
    let (Some(config_path), Some(outdir)) = (config_path, outdir) else {
        usage_error("mrpic_rank needs --config and --outdir");
    };
    if rank == usize::MAX || ranks == 0 {
        usage_error("mrpic_rank needs --rank and --ranks");
    }
    let mesh = match (&socket_dir, tcp_base) {
        (Some(dir), None) => MeshCfg::uds(dir.clone(), ranks, nonce),
        (None, Some(port)) => MeshCfg::tcp(port, ranks, nonce),
        _ => usage_error("mrpic_rank needs exactly one of --socket-dir or --tcp-base"),
    };
    let elastic = elastic_spec.map(|s| {
        parse_elastic_plan(&s)
            .unwrap_or_else(|e| usage_error(&format!("mrpic_rank: bad --elastic plan: {e}")))
    });

    let text = std::fs::read_to_string(&config_path).unwrap_or_else(|e| {
        usage_error(&format!(
            "mrpic_rank: cannot read config {config_path}: {e}"
        ))
    });
    let cfg = RunConfig::from_json(&text)
        .unwrap_or_else(|e| usage_error(&format!("mrpic_rank: config error: {e}")));
    let (mut sim, removals) = cfg
        .build()
        .unwrap_or_else(|e| usage_error(&format!("mrpic_rank: config error: {e}")));
    if no_lb {
        sim.lb = None;
    }
    // Best-effort metrics push channel to the supervisor; it never
    // touches the deterministic wire schedule.
    let publish = match &metrics_sock {
        Some(path) => {
            let mut pusher = MetricsPusher::connect(path, rank);
            Publish::Own(Box::new(move |m| pusher.push(&m)))
        }
        None => Publish::Off,
    };
    let label = format!("mrpic_rank: rank {rank}: ");
    let driver = Driver {
        rank,
        outdir: &outdir,
        label: &label,
        publish,
        interval: metrics_interval,
        diag_interval: cfg.diag_interval,
    };
    let join = |sim| {
        let mut dist = DistSim::process_rank(sim, mesh, rank)?;
        if let Some(events) = elastic {
            dist.set_elastic_plan(events)?;
        }
        Ok::<_, StepError>(dist)
    };
    let session = RunSession::new(cfg.t_end, removals).max_steps(max_steps);
    let exit = driver.run(sim, join, session, &mut []);
    if exit != Exit::Clean {
        std::process::exit(exit.code());
    }
}
