//! `mrpic_benchmark`: six workloads, end-to-end metrics untraced, the
//! per-layer ladder traced. See `mrpic_benchmark/README.md`.
//!
//! ```text
//! mrpic_benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! mrpic_benchmark [--workload all] [--seed N] [--traced] [--smoke]  the suite
//! mrpic_benchmark --aa N                                            A/A check
//! ```
//!
//! A single-workload run prints every metric by name with its unit and,
//! as its last line, `{"correct", "attempted", "failed", "metrics"}`.
//! The suite runs each workload in a child process of its own.

mod alloc;
mod decks;
mod library;
mod measure;
mod probes;
mod process;
mod spans;
mod stats;
mod sys;
mod traced;
mod workloads;

use measure::{Outcome, END_TO_END};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Ctx, Scratch, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    aa: Option<usize>,
}

fn usage() -> String {
    "usage: mrpic_benchmark [--workload NAME|all] [--seed N] [--seconds S] \
     [--trace 0|1 | --traced] [--smoke] [--aa [N]]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}\n{}", usage()));
        match flag.as_str() {
            "--workload" => a.workload = value("a workload name")?,
            "--seed" => {
                a.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                a.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            "--aa" => {
                let n = match it.peek().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => 5,
                };
                if n < 2 {
                    return Err("--aa needs at least 2 runs per set".to_string());
                }
                a.aa = Some(n);
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(a)
}

fn metrics_json(o: &Outcome) -> Value {
    Value::Object(
        o.metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    serde_json::json!({"value": *value, "unit": *unit}),
                )
            })
            .collect(),
    )
}

/// One workload in this process. Prints the human-readable report, a
/// `detail` line, and the result object as the last line.
fn run_one(w: Workload, args: &Args) -> Result<bool, String> {
    // Serial workloads are single-threaded by definition; the rank
    // threads of the dist workload each run their boxes serially too.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let ctx = Ctx {
        seed: args.seed,
        smoke: args.smoke,
        scratch: Scratch::create()?,
    };
    let t0 = Instant::now();
    let outcome = if args.traced {
        let mut rec = spans::Recorder::new(w.name(), true);
        let o = traced::run(w, &ctx, &mut rec)?;
        std::fs::create_dir_all(".bench_out").map_err(|e| format!("create .bench_out: {e}"))?;
        let path = format!(".bench_out/trace.{}.json", w.name());
        rec.write_chrome(std::path::Path::new(&path))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("trace: {} spans -> {path}", rec.spans().len());
        top_self_times(&rec);
        o
    } else {
        measure::run(w, &ctx, args.seconds)?
    };
    println!(
        "{} seed {} ({}): {} round(s), {} timed steps ({} beyond p90), {:.1} s, {} thread(s) available",
        w.name(),
        args.seed,
        if args.traced { "traced" } else { "untraced" },
        outcome.round_wall_s.len().max(1),
        outcome.step_samples,
        stats::samples_beyond(outcome.step_samples.max(1), 90.0),
        t0.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    if args.traced {
        println!(
            "machine.triad arrays: 3 x {} MiB; last-level cache: {}",
            probes::TRIAD_ARRAY_BYTES >> 20,
            probes::llc_bytes().map_or("unknown".to_string(), |b| format!("{} MiB", b >> 20)),
        );
    }
    for (name, value, unit) in outcome.metrics.0.iter().chain(&outcome.info.0) {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    for p in &outcome.problems {
        println!("  PROBLEM: {p}");
    }
    let detail = serde_json::json!({
        "workload": w.name(),
        "digest": outcome.digest.map(|d| format!("{d:016x}")),
        "round_wall_s": outcome.round_wall_s.clone(),
        "step_samples": outcome.step_samples,
        "problems": outcome.problems.clone(),
    });
    println!(
        "detail {}",
        serde_json::to_string(&detail).map_err(|e| e.to_string())?
    );
    let result = serde_json::json!({
        "correct": outcome.correct(),
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": metrics_json(&outcome),
    });
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(outcome.correct())
}

/// The traced pass's top spans by self time (the guide's definition:
/// duration minus what child spans cover).
fn top_self_times(rec: &spans::Recorder) {
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (i, s) in rec.spans().iter().enumerate() {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += spans::self_time_ns(rec.spans(), i);
    }
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by_key(|(_, (_, ns))| std::cmp::Reverse(*ns));
    println!("top spans by self time:");
    for (name, (count, ns)) in rows.into_iter().take(8) {
        println!("  {name:<28} {count:>6}x {:>10.3} ms", ns as f64 / 1e6);
    }
}

/// What the suite keeps of one child run.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    digest: Option<String>,
}

/// Run one workload in a child process of this binary, with a hard
/// timeout of three times what it is expected to take.
fn run_child(w: Workload, args: &Args, seed: u64, echo: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", w.name()))?;
    let limit = Duration::from_secs_f64(3.0 * (args.seconds + 10.0));
    let deadline = Instant::now() + limit;
    // The child's report is a few KiB, far below the pipe buffer, so it
    // can be collected after the exit.
    loop {
        match child
            .try_wait()
            .map_err(|e| format!("wait for {}: {e}", w.name()))?
        {
            Some(_) => break,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{} still running after {:.0} s — killed",
                    w.name(),
                    limit.as_secs_f64()
                ));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let out = child
        .wait_with_output()
        .map_err(|e| format!("collect {}: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{text}");
    }
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name(), out.status));
    }
    let last = text.lines().last().ok_or("child printed nothing")?;
    let v: Value = serde_json::from_str(last).map_err(|e| format!("{} result: {e}", w.name()))?;
    let metrics = match v.get("metrics") {
        Some(Value::Object(ms)) => ms
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("{} result has no metrics", w.name())),
    };
    let digest = text
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .and_then(|d| serde_json::from_str::<Value>(d).ok())
        .and_then(|d| d.get("digest").and_then(Value::as_str).map(str::to_string));
    Ok(ChildRun {
        correct: v.get("correct").and_then(Value::as_bool).unwrap_or(false),
        attempted: v.get("attempted").and_then(Value::as_u64).unwrap_or(1),
        failed: v.get("failed").and_then(Value::as_u64).unwrap_or(1),
        metrics,
        digest,
    })
}

/// Every workload once, each in its own child; a crash or hang fails
/// that workload, not the suite. Returns whether all were correct.
fn run_suite(args: &Args) -> bool {
    let mut ok = true;
    let mut digests = Vec::new();
    for w in Workload::ALL {
        match run_child(w, args, args.seed, true) {
            Ok(r) => {
                let share = r.failed as f64 / r.attempted as f64;
                println!(
                    "{}: failed_share {share} ({}/{})",
                    w.name(),
                    r.failed,
                    r.attempted
                );
                ok &= r.correct;
                if w.shares_mr_digest() {
                    digests.push(r.digest);
                }
            }
            Err(e) => {
                println!("{}: FAILED — {e}; failed_share 1", w.name());
                ok = false;
            }
        }
    }
    if !args.traced {
        let matched =
            digests.len() == 3 && digests[0].is_some() && digests.iter().all(|d| *d == digests[0]);
        println!("digest_match {}", u8::from(matched));
        ok &= matched;
    }
    ok
}

/// A/A self-check: the untraced suite `n` times, twice over (sets
/// interleaved), each end-to-end metric's median and quartiles per set,
/// failing if any pair of medians differs by more than its bound.
fn run_aa(args: &Args, n: usize) -> bool {
    // samples[(workload, metric)][set]
    let mut samples: BTreeMap<(usize, usize), [Vec<f64>; 2]> = BTreeMap::new();
    let mut ok = true;
    for i in 0..n {
        for set in 0..2 {
            for (wi, w) in Workload::ALL.into_iter().enumerate() {
                match run_child(w, args, args.seed + i as u64, false) {
                    Ok(r) => {
                        ok &= r.correct;
                        for (mi, (name, ..)) in END_TO_END.iter().enumerate() {
                            if let Some((_, v)) = r.metrics.iter().find(|(k, _)| k == name) {
                                samples.entry((wi, mi)).or_default()[set].push(*v);
                            }
                        }
                    }
                    Err(e) => {
                        println!("{} (set {set}, run {i}): FAILED — {e}", w.name());
                        ok = false;
                    }
                }
            }
            println!("set {} run {} of {n} done", ["A", "B"][set], i + 1);
        }
    }
    println!(
        "{:<18} {:<15} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "diff%", "bound%"
    );
    for ((wi, mi), [a, b]) in &samples {
        if a.len() < 2 || b.len() < 2 {
            ok = false;
            continue;
        }
        let (name, _, bound, better) = END_TO_END[*mi];
        let (ma, mb) = (stats::median(a), stats::median(b));
        // B worse than A by more than the bound, in the metric's sense.
        let worse = if better == "higher" {
            (ma - mb) / ma
        } else {
            (mb - ma) / ma
        };
        let within = worse.abs() <= bound;
        ok &= within;
        println!(
            "{:<18} {:<15} {:>12.5} {:>8.2} {:>12.5} {:>8.2} {:>8.2} {:>6.0}{}",
            Workload::ALL[*wi].name(),
            name,
            ma,
            100.0 * stats::spread(a),
            mb,
            100.0 * stats::spread(b),
            100.0 * worse,
            100.0 * bound,
            if within { "" } else { "  <-- outside bound" },
        );
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some(n) = args.aa {
        run_aa(&args, n)
    } else if args.workload == "all" {
        run_suite(&args)
    } else {
        let Some(w) = Workload::parse(&args.workload) else {
            eprintln!(
                "unknown workload {}; one of: all {}",
                args.workload,
                Workload::ALL.map(Workload::name).join(" ")
            );
            return ExitCode::from(2);
        };
        match run_one(w, &args) {
            Ok(correct) => correct,
            Err(e) => {
                // No result line: the run did not measure anything.
                eprintln!("mrpic_benchmark: {}: {e}", w.name());
                return ExitCode::from(1);
            }
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the harness must describe the same
    /// workloads and end-to-end metrics.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            match doc.get(key) {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|i| i.get("name").and_then(Value::as_str).unwrap().to_string())
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key} array"),
            }
        };
        assert_eq!(
            names("workloads"),
            Workload::ALL.map(|w| w.name().to_string())
        );
        assert_eq!(names("end_to_end"), END_TO_END.map(|(n, ..)| n.to_string()));
        let Some(Value::Array(e2e)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for (item, (name, unit, bound, better)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                item.get("unit").and_then(Value::as_str),
                Some(unit),
                "{name}"
            );
            assert_eq!(
                item.get("better").and_then(Value::as_str),
                Some(better),
                "{name}"
            );
            assert_eq!(
                item.get("bound").and_then(Value::as_f64),
                Some(bound),
                "{name}"
            );
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
