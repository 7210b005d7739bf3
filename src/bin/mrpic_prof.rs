//! Trace and run-artifact profiler / regression gate.
//!
//! ```text
//! mrpic_prof trace.json [--top N]
//! mrpic_prof --compare old.json new.json [--threshold PCT]
//! ```
//!
//! **Report mode** loads a Chrome-trace JSON written by
//! `mrpic_run --trace-out` (or any producer of the same schema),
//! validates that it parses and that spans nest correctly per thread
//! track (exit 1 otherwise), and prints:
//!
//! * the top-N span names by total time, with self time (total minus
//!   direct children on the same track);
//! * the paper's rank-imbalance metric, max/mean of per-rank busy time;
//! * per-rank busy and recv-wait seconds;
//! * the per-pair communication matrix (payload bytes, from matched
//!   `send` spans);
//! * count / p50 / p99 / max of `send` bytes and of `recv_wait` and
//!   `box` durations, exact over every span;
//! * a critical-path summary through the send/recv dependency DAG.
//!
//! **Compare mode** diffs two reports and exits 4 when any tracked
//! quantity regressed by more than the threshold (default 10%). Three
//! file kinds are understood: two Chrome traces (compares wall time,
//! rank imbalance, and per-name span totals), two `mrpic_run`
//! `summary.json` files (compares wall seconds and the run-mean
//! telemetry imbalance), or two `mrpic-metrics-v1` fleet snapshots (from
//! `--metrics-out` / `GET /snapshot`; compares per-rank wire bytes and
//! wait/exchange seconds plus the fleet imbalance) — so CI can gate on
//! any artifact, including live-scraped counters.
//! `--min-improve PCT` inverts the gate: every compared
//! metric must *improve* by at least PCT, which is how the tier-1 suite
//! proves live load balancing actually reduced the traced imbalance
//! (`--only imbalance --min-improve 5`).

use mrpic::trace::analysis;
use mrpic::trace::chrome;
use mrpic::trace::{SpanRec, Trace};
use serde_json::Value;
use std::io::Write;

fn fail(msg: &str) -> ! {
    eprintln!("mrpic_prof: {msg}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: mrpic_prof <trace.json> [--top N]\n       \
         mrpic_prof --compare <old.json> <new.json> [--threshold PCT] [--only SUBSTR] \
         [--min-improve PCT]"
    );
    std::process::exit(2);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

fn load_trace(path: &str) -> Trace {
    let trace = chrome::parse(&read(path))
        .unwrap_or_else(|e| fail(&format!("{path} is not a valid Chrome trace: {e}")));
    if let Err(e) = trace.check_nesting() {
        fail(&format!("{path} has malformed span nesting: {e}"));
    }
    trace
}

fn human_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1}M", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}K", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}")
    }
}

fn report(out: &mut impl Write, path: &str, top_n: usize) -> std::io::Result<()> {
    let trace = load_trace(path);
    let nranks = trace.nranks();
    writeln!(
        out,
        "{path}: {} spans, {} dropped, {} rank(s), wall {:.4} s",
        trace.spans.len(),
        trace.dropped,
        nranks,
        trace.wall_s(),
    )?;
    writeln!(out, "\ntop spans by total time:")?;
    writeln!(
        out,
        "  {:<14} {:>8} {:>12} {:>12}",
        "name", "count", "total (s)", "self (s)"
    )?;
    for a in analysis::top_spans(&trace, top_n) {
        writeln!(
            out,
            "  {:<14} {:>8} {:>12.6} {:>12.6}",
            a.name, a.count, a.total_s, a.self_s
        )?;
    }
    match analysis::imbalance(&trace) {
        Some(r) => writeln!(out, "\nrank imbalance (max/mean busy): {r:.3}")?,
        None => writeln!(out, "\nrank imbalance: n/a (fewer than two ranks traced)")?,
    }
    if nranks > 0 {
        let busy = analysis::rank_busy_seconds(&trace);
        let waits = analysis::recv_wait_seconds(&trace, nranks);
        writeln!(out, "\nper-rank busy / recv-wait seconds:")?;
        for (r, w) in waits.iter().enumerate() {
            let b = busy.get(&(r as i32)).copied().unwrap_or(0.0);
            writeln!(out, "  rank {r}: busy {b:>10.6}  recv-wait {w:>10.6}")?;
        }
        let m = analysis::comm_matrix(&trace, nranks);
        if m.iter().flatten().any(|&b| b > 0) {
            writeln!(out, "\ncomm matrix (payload bytes, row = sender):")?;
            write!(out, "  {:>8}", "src\\dst")?;
            for d in 0..nranks {
                write!(out, " {:>10}", d)?;
            }
            writeln!(out)?;
            for (s, row) in m.iter().enumerate() {
                write!(out, "  {s:>8}")?;
                for &b in row {
                    write!(out, " {:>10}", human_bytes(b))?;
                }
                writeln!(out)?;
            }
        }
    }
    let dur_ns = |s: &SpanRec| s.end_ns.saturating_sub(s.begin_ns);
    let dists = [
        (
            "send bytes",
            analysis::distribution(&trace, "send", |s| s.arg1.max(0) as u64),
        ),
        (
            "recv_wait ns",
            analysis::distribution(&trace, "recv_wait", dur_ns),
        ),
        ("box ns", analysis::distribution(&trace, "box", dur_ns)),
    ];
    if dists.iter().any(|(_, d)| d.is_some()) {
        writeln!(
            out,
            "\ndistributions:\n  {:<14} {:>8} {:>12} {:>12} {:>12}",
            "quantity", "count", "p50", "p99", "max"
        )?;
        for (label, d) in dists {
            if let Some(d) = d {
                writeln!(
                    out,
                    "  {label:<14} {:>8} {:>12} {:>12} {:>12}",
                    d.count, d.p50, d.p99, d.max
                )?;
            }
        }
    }
    if let Some(cp) = analysis::critical_path(&trace) {
        writeln!(
            out,
            "\ncritical path: {:.6} s over {:.6} s wall ({:.1}% serialized)",
            cp.total_s,
            cp.wall_s,
            100.0 * cp.total_s / cp.wall_s.max(1e-12),
        )?;
        for (name, s) in cp.by_name.iter().take(6) {
            writeln!(out, "  {name:<12} {s:>12.6} s")?;
        }
    }
    Ok(())
}

/// One labeled scalar extracted from a report file, compared
/// old-vs-new; only quantities present in *both* files are gated.
struct Metric {
    label: String,
    value: f64,
}

/// Chrome trace → wall seconds, rank imbalance (multi-rank traces
/// only), plus per-name span totals.
fn trace_metrics(trace: &Trace) -> Vec<Metric> {
    let mut v = vec![Metric {
        label: "wall_s".to_string(),
        value: trace.wall_s(),
    }];
    if let Some(r) = analysis::imbalance(trace) {
        v.push(Metric {
            label: "imbalance".to_string(),
            value: r,
        });
    }
    for a in analysis::top_spans(trace, usize::MAX) {
        v.push(Metric {
            label: format!("span:{}", a.name),
            value: a.total_s,
        });
    }
    v
}

/// `mrpic_run` summary.json → wall seconds plus the run-mean telemetry
/// imbalance (when the run reported one). The imbalance label matches
/// the trace metric so `--only imbalance` gates either artifact.
fn summary_metrics(doc: &Value) -> Vec<Metric> {
    let mut v = Vec::new();
    if let Some(w) = doc.get("wall_seconds").and_then(|x| x.as_f64()) {
        v.push(Metric {
            label: "wall_s".to_string(),
            value: w,
        });
    }
    if let Some(r) = doc.get("mean_imbalance").and_then(|x| x.as_f64()) {
        v.push(Metric {
            label: "imbalance".to_string(),
            value: r,
        });
    }
    v
}

/// Fleet metrics snapshot (`mrpic-metrics-v1`, written by `mrpic_run
/// --metrics-out` or fetched from `GET /snapshot`) → per-rank wire and
/// time counters plus the fleet-mean imbalance, so `--compare` can gate
/// on scraped counters too. The imbalance label matches the trace and
/// summary metric for `--only imbalance`.
fn snapshot_metrics(text: &str, path: &str) -> Vec<Metric> {
    let snap: mrpic::obs::FleetSnapshot = serde_json::from_str(text)
        .unwrap_or_else(|e| fail(&format!("{path}: bad metrics snapshot: {e}")));
    let mut v = Vec::new();
    let mut imb_sum = 0.0f64;
    let mut imb_n = 0u32;
    for r in &snap.ranks {
        for (what, value) in [
            ("wire_bytes", r.wire_bytes as f64),
            ("sent_bytes", r.sent_bytes as f64),
            ("recv_wait_s", r.recv_wait_seconds),
            ("exchange_s", r.exchange_seconds),
        ] {
            v.push(Metric {
                label: format!("rank{}:{what}", r.rank),
                value,
            });
        }
        if let Some(x) = r.mean_imbalance.or(r.imbalance) {
            imb_sum += x;
            imb_n += 1;
        }
    }
    if imb_n > 0 {
        v.push(Metric {
            label: "imbalance".to_string(),
            value: imb_sum / imb_n as f64,
        });
    }
    if v.is_empty() {
        fail(&format!("{path}: metrics snapshot records no ranks"));
    }
    v
}

fn metrics_of(path: &str) -> Vec<Metric> {
    let text = read(path);
    let doc: Value =
        serde_json::from_str(&text).unwrap_or_else(|e| fail(&format!("{path} is not JSON: {e}")));
    if doc.get("schema").and_then(|s| s.as_str()) == Some("mrpic-metrics-v1") {
        snapshot_metrics(&text, path)
    } else if doc.get("traceEvents").is_some() {
        trace_metrics(&load_trace(path))
    } else if doc.get("wall_seconds").is_some() {
        summary_metrics(&doc)
    } else {
        fail(&format!(
            "{path}: not a Chrome trace (traceEvents), run summary (wall_seconds), \
             or metrics snapshot (schema mrpic-metrics-v1)"
        ));
    }
}

fn compare(
    out: &mut impl Write,
    old_path: &str,
    new_path: &str,
    threshold_pct: f64,
    min_improve_pct: Option<f64>,
    only: &[String],
) -> std::io::Result<()> {
    let keep = |label: &str| only.is_empty() || only.iter().any(|f| label.contains(f.as_str()));
    let old = metrics_of(old_path);
    let mut new = metrics_of(new_path);
    new.retain(|m| keep(&m.label));
    let mut regressed = 0usize;
    let mut unimproved = 0usize;
    let mut compared = 0usize;
    writeln!(
        out,
        "{:<36} {:>12} {:>12} {:>9}",
        "metric", "old", "new", "delta"
    )?;
    for m in &new {
        let Some(o) = old.iter().find(|o| o.label == m.label) else {
            continue;
        };
        compared += 1;
        // Sub-microsecond baselines are all jitter; never gate on them.
        let pct = if o.value > 1e-6 {
            100.0 * (m.value - o.value) / o.value
        } else {
            0.0
        };
        let flag = if pct > threshold_pct {
            regressed += 1;
            "  REGRESSED"
        } else if min_improve_pct.is_some_and(|need| pct > -need) {
            unimproved += 1;
            "  NOT IMPROVED"
        } else {
            ""
        };
        writeln!(
            out,
            "{:<36} {:>12.6} {:>12.6} {:>+8.1}%{flag}",
            m.label, o.value, m.value, pct
        )?;
    }
    if compared == 0 {
        fail("no common metrics between the two reports");
    }
    if regressed > 0 {
        eprintln!(
            "mrpic_prof: {regressed} metric(s) regressed more than {threshold_pct:.1}% \
             ({new_path} vs {old_path})"
        );
        std::process::exit(4);
    }
    if let Some(need) = min_improve_pct {
        if unimproved > 0 {
            eprintln!(
                "mrpic_prof: {unimproved} metric(s) failed to improve by at least {need:.1}% \
                 ({new_path} vs {old_path})"
            );
            std::process::exit(4);
        }
        return writeln!(
            out,
            "all {compared} metric(s) improved by at least {need:.1}%"
        );
    }
    writeln!(
        out,
        "no regression above {threshold_pct:.1}% across {compared} metric(s)"
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path: Option<String> = None;
    let mut compare_paths: Option<(String, String)> = None;
    let mut top_n = 10usize;
    let mut threshold = 10.0f64;
    let mut min_improve: Option<f64> = None;
    let mut only: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--compare" => {
                let old = it.next().unwrap_or_else(|| usage());
                let new = it.next().unwrap_or_else(|| usage());
                compare_paths = Some((old, new));
            }
            "--top" => {
                top_n = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--only" => {
                only.push(it.next().unwrap_or_else(|| usage()));
            }
            "--min-improve" => {
                min_improve = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            _ if trace_path.is_none() && !a.starts_with("--") => trace_path = Some(a),
            _ => usage(),
        }
    }
    let out = &mut std::io::stdout().lock();
    let written = match (compare_paths, trace_path) {
        (Some((old, new)), None) => compare(out, &old, &new, threshold, min_improve, &only),
        (None, Some(path)) => report(out, &path, top_n),
        _ => usage(),
    };
    mrpic::exit_on_stdout_error(written);
}
