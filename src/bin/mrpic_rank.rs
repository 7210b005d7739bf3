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
//! never part of the deterministic wire schedule. Each worker also arms
//! a flight recorder; on a guard trip, mesh loss, panic, or SIGUSR1 it
//! dumps `blackbox.json` into its own outdir.
//!
//! Each process runs the full replicated driver (`DistSim::process_rank`):
//! it steps every rank's share of the physics deterministically, but the
//! message edges that touch rank `R` travel over the real wire — this
//! process *sends* rank `R`'s frames and trusts only the *received* bytes
//! for messages into `R`. The wire schedule is therefore exactly the
//! in-process schedule, and every replica holds bitwise-identical state;
//! rank 0 is the one that writes `telemetry.jsonl` and `summary.json`
//! (including the FNV-1a `state_digest` the equivalence smoke compares).
//!
//! A process whose rank is at or beyond the *initial* rank count is a
//! spectator: it replicates the physics off the mesh and joins the wire
//! when an `--elastic` grow raises the rank count past it.
//!
//! The step loop is the library `RunSession` every driver shares, with
//! the flight recorder and the metrics push as its per-step observers.
//! A lost mesh comes back from it as a `StepError` value, which maps onto
//! the exit contract `mrpic_run` also uses (`core::run::Exit`: 0 clean,
//! 2 usage/config, 3 guard trip, 4 transport loss).

use mrpic::core::config::RunConfig;
use mrpic::core::run::{Exit, RunSession};
use mrpic::dist::{parse_elastic_plan, DistSim, MeshCfg, MetricsPusher};
use mrpic::obs::{dump_recorder, DriverObs, Publish};

fn req<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, what: &str) -> T {
    args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{what} needs an argument");
        std::process::exit(2);
    })
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
            other => {
                eprintln!("mrpic_rank: unexpected argument {other}");
                std::process::exit(2);
            }
        }
    }
    let (Some(config_path), Some(outdir)) = (config_path, outdir) else {
        eprintln!("mrpic_rank needs --config and --outdir");
        std::process::exit(2);
    };
    if rank == usize::MAX || ranks == 0 {
        eprintln!("mrpic_rank needs --rank and --ranks");
        std::process::exit(2);
    }
    let mesh = match (&socket_dir, tcp_base) {
        (Some(dir), None) => MeshCfg::uds(dir.clone(), ranks, nonce),
        (None, Some(port)) => MeshCfg::tcp(port, ranks, nonce),
        _ => {
            eprintln!("mrpic_rank needs exactly one of --socket-dir or --tcp-base");
            std::process::exit(2);
        }
    };
    let elastic = elastic_spec.map(|s| {
        parse_elastic_plan(&s).unwrap_or_else(|e| {
            eprintln!("mrpic_rank: bad --elastic plan: {e}");
            std::process::exit(2);
        })
    });

    let text = std::fs::read_to_string(&config_path).unwrap_or_else(|e| {
        eprintln!("mrpic_rank: cannot read config {config_path}: {e}");
        std::process::exit(2);
    });
    let cfg = RunConfig::from_json(&text).unwrap_or_else(|e| {
        eprintln!("mrpic_rank: config error: {e}");
        std::process::exit(2);
    });
    let (mut sim, removals) = cfg.build().unwrap_or_else(|e| {
        eprintln!("mrpic_rank: config error: {e}");
        std::process::exit(2);
    });
    if no_lb {
        sim.lb = None;
    }
    // Only rank 0 is the reporting replica; the others hold identical
    // state and stay quiet so N processes do not write N telemetries.
    if rank == 0 {
        if let Err(e) = std::fs::create_dir_all(&outdir) {
            eprintln!(
                "mrpic_rank: cannot create output dir {}: {e}",
                outdir.display()
            );
            std::process::exit(2);
        }
        if let Err(e) = sim.telemetry.open_jsonl(&outdir.join("telemetry.jsonl")) {
            eprintln!("warning: cannot open telemetry sink: {e}");
        }
    }
    // Per-worker observability: flight recorder into this rank's own
    // outdir, plus (when the supervisor asked) a best-effort metrics
    // push channel. Neither touches the deterministic wire schedule.
    let publish = match &metrics_sock {
        Some(path) => {
            let mut pusher = MetricsPusher::connect(path, rank);
            Publish::Own(Box::new(move |m| pusher.push(&m)))
        }
        None => Publish::Off,
    };
    let label = format!("mrpic_rank: rank {rank}: ");
    let mut obs = DriverObs::arm(rank, &outdir, &label, publish, metrics_interval);

    let mut dist = DistSim::process_rank(sim, mesh, rank).unwrap_or_else(|e| {
        eprintln!("mrpic_rank: rank {rank} cannot join the socket mesh: {e}");
        let _ = dump_recorder("transport_loss");
        std::process::exit(Exit::TransportLoss.code());
    });
    if let Some(events) = elastic {
        if let Err(e) = dist.set_elastic_plan(events) {
            eprintln!("mrpic_rank: bad --elastic plan: {e}");
            std::process::exit(e.exit().code());
        }
    }

    let mut session = RunSession::new(cfg.t_end, removals).max_steps(max_steps);
    let run = session.run(
        &mut dist,
        u64::MAX,
        &mut [&mut |d: &mut DistSim| obs.observe(d)],
    );
    if let Err(e) = run {
        std::process::exit(obs.abort(e).code());
    }

    if rank == 0 {
        session
            .summary(&dist, ranks)
            .write(&outdir.join("summary.json"))
            .unwrap_or_else(|e| {
                eprintln!("mrpic_rank: cannot write summary.json: {e}");
                std::process::exit(2);
            });
        for ev in &dist.resize_log {
            println!(
                "rank 0: resized {} -> {} rank(s) at step {}",
                ev.from, ev.to, ev.step,
            );
        }
        println!(
            "rank 0: {} steps in {:.1} s wall, digest {:016x}",
            dist.sim.istep,
            session.wall_seconds,
            dist.sim.state_digest(),
        );
    }
    // One last sample (so the supervisor's snapshot reflects the final
    // step whatever the interval), a durable sink, the guard-trip report.
    let exit = obs.finish(&mut dist.sim);
    if exit != Exit::Clean {
        std::process::exit(exit.code());
    }
}
