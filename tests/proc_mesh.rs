//! Out-of-process mesh, end to end: spawn real `mrpic_rank` OS
//! processes over a Unix-domain-socket mesh and prove their physics is
//! bit-identical to the in-process transport by comparing the FNV-1a
//! state digest rank 0 publishes in `summary.json`.

mod common;

use mrpic::core::config::RunConfig;
use mrpic::dist::DistSim;

const STEPS: u64 = 4;

fn config_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("configs/hybrid_target_mr_2d.json")
}

#[test]
fn worker_processes_match_in_process_transport_bitwise() {
    let outdir = common::mesh_dir("proc-out");
    let sock_dir = common::mesh_dir("proc-sock");
    let ranks = 2;
    let mut children = Vec::new();
    for r in 0..ranks {
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_mrpic_rank"))
            .arg("--config")
            .arg(config_path())
            .arg("--outdir")
            .arg(if r == 0 {
                outdir.clone()
            } else {
                outdir.join(format!("rank{r}"))
            })
            .arg("--rank")
            .arg(r.to_string())
            .arg("--ranks")
            .arg(ranks.to_string())
            .arg("--nonce")
            .arg("424242")
            .arg("--socket-dir")
            .arg(&sock_dir)
            .arg("--steps")
            .arg(STEPS.to_string())
            .stdout(std::process::Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn rank {r}: {e}"));
        children.push((r, child));
    }
    for (r, mut child) in children {
        let status = child.wait().unwrap();
        assert!(status.success(), "rank {r} exited with {status}");
    }
    let summary = std::fs::read_to_string(outdir.join("summary.json")).unwrap();
    let wire_digest = summary
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"state_digest\": \""))
        .and_then(|v| v.strip_suffix('"'))
        .unwrap_or_else(|| panic!("no state_digest in {summary}"))
        .to_string();

    // The same config through the in-process transport, same step count.
    let text = std::fs::read_to_string(config_path()).unwrap();
    let (sim, _removals) = RunConfig::from_json(&text).unwrap().build().unwrap();
    let mut d = DistSim::in_process(sim, ranks);
    for _ in 0..STEPS {
        d.step().unwrap();
    }
    assert_eq!(
        wire_digest,
        format!("{:016x}", d.sim.state_digest()),
        "process-mesh digest must match the in-process transport"
    );
    common::assert_mesh_dir_clean(&sock_dir);
    let _ = std::fs::remove_dir_all(&outdir);
}
