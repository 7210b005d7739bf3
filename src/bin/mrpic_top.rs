//! Live fleet viewer: a refreshing per-rank / per-tenant table over a
//! running simulation's metrics endpoint.
//!
//! ```text
//! mrpic_top HOST:PORT [--interval SECONDS] [--once]
//! mrpic_top --scrape HOST:PORT
//! ```
//!
//! The address is the one `mrpic_run --metrics-addr` or `mrpic_serve
//! --metrics-addr` printed (also written to `<outdir>/metrics.addr` /
//! the `--metrics-addr-file`). The default mode polls `GET /snapshot`
//! every `--interval` seconds (default 2) and redraws; `--once` renders
//! a single frame and exits — handy for logs and scripts.
//!
//! `--scrape` is the plumbing mode: fetch `GET /metrics` once, validate
//! that it parses as Prometheus text exposition, and print it raw. It
//! exits 1 on malformed exposition, so smoke tests can use it as both
//! scraper and format checker without curl.

use mrpic::obs::{parse_exposition, FleetSnapshot};
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: mrpic_top HOST:PORT [--interval SECONDS] [--once] \
         | mrpic_top --scrape HOST:PORT"
    );
    std::process::exit(2);
}

fn fetch_snapshot(addr: &str) -> Result<FleetSnapshot, String> {
    let body = mrpic::obs::http::get(addr, "/snapshot").map_err(|e| e.to_string())?;
    serde_json::from_str(&body).map_err(|e| format!("bad snapshot JSON: {e}"))
}

fn render(snap: &FleetSnapshot) -> String {
    let mut out = String::new();
    let push = |out: &mut String, line: String| {
        out.push_str(&line);
        out.push('\n');
    };
    push(
        &mut out,
        format!(
            "mrpic_top — source {} | up {:7.1}s | fleet step {} | {} rank(s)",
            snap.source,
            snap.uptime_seconds,
            snap.step,
            snap.ranks.len(),
        ),
    );
    if !snap.ranks.is_empty() {
        push(
            &mut out,
            format!(
                "{:>4} {:>4} {:>9} {:>9} {:>7} {:>7} {:>9} {:>5} {:>5} {:>4}",
                "rank", "gen", "step", "step/s", "imbal", "wait%", "wire MB/s", "lb", "rcv", "trip",
            ),
        );
        for r in &snap.ranks {
            push(
                &mut out,
                format!(
                    "{:>4} {:>4} {:>9} {:>9.1} {:>7} {:>6.1}% {:>9.2} {:>5} {:>5} {:>4}",
                    r.rank,
                    r.generation,
                    r.step,
                    r.step_rate,
                    r.imbalance
                        .map(|x| format!("{x:.2}"))
                        .unwrap_or_else(|| "-".into()),
                    100.0 * r.recv_wait_frac,
                    r.wire_bytes_per_s / 1e6,
                    r.lb_adoptions,
                    r.recoveries,
                    r.guard_trips,
                ),
            );
        }
    }
    if let Some(serve) = &snap.serve {
        push(
            &mut out,
            format!(
                "server: {}/{} slot(s) busy | queue depth {} | quantum {} step(s)",
                serve.running, serve.slots, serve.queue_depth, serve.quantum,
            ),
        );
        if !serve.jobs.is_empty() {
            push(
                &mut out,
                format!(
                    "{:>5} {:<12} {:<8} {:>4} {:>9} {:>7} {:>5} {:>7}",
                    "job", "tenant", "state", "prio", "steps", "preempt", "slot", "imbal",
                ),
            );
            for j in &serve.jobs {
                push(
                    &mut out,
                    format!(
                        "{:>5} {:<12} {:<8} {:>4} {:>9} {:>7} {:>5} {:>7}",
                        j.job_id,
                        j.tenant,
                        j.state,
                        j.priority,
                        j.steps_done,
                        j.preemptions,
                        j.slot.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
                        j.mean_imbalance
                            .map(|x| format!("{x:.2}"))
                            .unwrap_or_else(|| "-".into()),
                    ),
                );
            }
        }
        for t in &serve.tenants {
            push(
                &mut out,
                format!(
                    "tenant {:<12} {} job(s): {} running, {} waiting",
                    t.tenant, t.jobs, t.running, t.waiting,
                ),
            );
        }
    }
    out
}

fn main() {
    let mut addr: Option<String> = None;
    let mut scrape: Option<String> = None;
    let mut interval = 2.0f64;
    let mut once = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scrape" => scrape = Some(args.next().unwrap_or_else(|| usage())),
            "--interval" => {
                interval = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&v| v > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--interval needs a positive seconds argument");
                        std::process::exit(2);
                    });
            }
            "--once" => once = true,
            _ if addr.is_none() && !a.starts_with('-') => addr = Some(a),
            other => {
                eprintln!("unexpected argument: {other}");
                usage();
            }
        }
    }

    // Plumbing mode: one validated scrape, raw exposition to stdout.
    if let Some(addr) = scrape {
        let body = mrpic::obs::http::get(&addr, "/metrics").unwrap_or_else(|e| {
            eprintln!("mrpic_top: scrape {addr} failed: {e}");
            std::process::exit(1);
        });
        let samples = parse_exposition(&body).unwrap_or_else(|e| {
            eprintln!("mrpic_top: malformed exposition from {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!("mrpic_top: {} sample(s) from {addr}", samples.len());
        let mut out = std::io::stdout().lock();
        mrpic::exit_on_stdout_error(out.write_all(body.as_bytes()).and_then(|()| out.flush()));
        return;
    }

    let Some(addr) = addr else { usage() };
    loop {
        match fetch_snapshot(&addr) {
            Ok(snap) => {
                // Clear + home, then the frame.
                let clear = if once { "" } else { "\x1b[2J\x1b[H" };
                let mut out = std::io::stdout().lock();
                let frame = write!(out, "{clear}{}", render(&snap)).and_then(|()| out.flush());
                mrpic::exit_on_stdout_error(frame);
            }
            Err(e) => {
                eprintln!("mrpic_top: {addr}: {e}");
                if once {
                    std::process::exit(1);
                }
            }
        }
        if once {
            return;
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}
