//! Drives the real command — `run.sh --smoke` — so an API break in the
//! pinned surface, a hung child, or a stale `BENCHMARK.json` fails
//! `cargo test` within seconds of the (release) build finishing.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits one level below the repository root")
        .to_path_buf()
}

/// `run.sh ARGS…` from the repository root; returns its stdout.
fn run_sh(args: &[&str]) -> String {
    let out = Command::new("bash")
        .arg("mrpic_benchmark/run.sh")
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("bash is on PATH");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "run.sh {args:?} exited with {}\n--- stdout\n{stdout}\n--- stderr\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    match doc.get(key) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|i| i.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect(),
        _ => panic!("BENCHMARK.json has no {key} array"),
    }
}

/// The result objects (one per workload) a suite run printed.
fn results(stdout: &str) -> Vec<Value> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| serde_json::from_str(l).expect("result line parses"))
        .collect()
}

fn metric_names(result: &Value) -> Vec<String> {
    match result.get("metrics") {
        Some(Value::Object(ms)) => ms.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("result has no metrics object"),
    }
}

#[test]
fn smoke_suite_reports_every_end_to_end_metric() {
    let out = run_sh(&["--smoke"]);
    let doc = benchmark_json();
    let rs = results(&out);
    assert_eq!(rs.len(), 6, "one result per workload\n{out}");
    for r in &rs {
        assert_eq!(
            r.get("correct").and_then(Value::as_bool),
            Some(true),
            "{out}"
        );
        assert_eq!(r.get("failed").and_then(Value::as_u64), Some(0), "{out}");
        assert_eq!(metric_names(r), names(&doc, "end_to_end"));
    }
    assert!(out.contains("digest_match 1"), "{out}");
}

/// The traced pass differs between workloads only in the deck it probes
/// and in serial-vs-dist stepping, so two workloads cover every path:
/// a deck without PML/MR (probed on the `mr_hybrid` state instead) and
/// the MR deck behind two ranks.
#[test]
fn smoke_traced_pass_reports_every_layer_metric_and_a_readable_trace() {
    let doc = benchmark_json();
    for workload in ["uniform_plasma", "mr_hybrid_dist2"] {
        let out = run_sh(&["--smoke", "--traced", "--workload", workload]);
        let rs = results(&out);
        assert_eq!(rs.len(), 1, "{out}");
        assert_eq!(
            rs[0].get("correct").and_then(Value::as_bool),
            Some(true),
            "{out}"
        );
        assert_eq!(metric_names(&rs[0]), names(&doc, "per_layer"));
    }
    // The repository's own profiler must read what the harness wrote.
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let prof = repo_root().join(target).join("release/mrpic_prof");
    let st = Command::new(&prof)
        .arg(".bench_out/trace.mr_hybrid_dist2.json")
        .current_dir(repo_root())
        .output()
        .unwrap_or_else(|e| panic!("run {}: {e}", prof.display()));
    let report = String::from_utf8_lossy(&st.stdout);
    assert!(
        st.status.success(),
        "mrpic_prof rejected trace.json: {report}"
    );
    assert!(report.contains("workload:mr_hybrid_dist2"), "{report}");
}
