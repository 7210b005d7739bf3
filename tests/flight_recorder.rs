//! Distributed-driver events reach the process flight recorder from
//! `DistSim` itself, whichever binary drives it: an elastic resize over a
//! socket mesh (as an `mrpic_rank` worker runs it), and a recovered rank
//! crash, which also dumps the blackbox. The recorder is a process-wide
//! static, so this file holds a single test.

mod common;

use common::{assert_mesh_dir_clean, build, mesh_dir};
use mrpic::dist::{CrashPoint, DistSim, ElasticAction, ElasticEvent, FaultPlan, MeshCfg};
use mrpic::obs::recorder::BlackboxDump;
use mrpic::obs::{dump_recorder, install_recorder, FlightEvent, FlightRecorder};

fn read(path: &std::path::Path) -> BlackboxDump {
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

#[test]
fn resizes_and_recoveries_reach_the_flight_recorder() {
    let dir = mesh_dir("flight-recorder");
    let blackbox = dir.join("out/blackbox.json");
    install_recorder(FlightRecorder::new(0, blackbox.clone(), 256));

    let sock = mesh_dir("flight-recorder-sock");
    let mut d =
        DistSim::socket_mesh(build(11, true), MeshCfg::uds(sock.clone(), 2, 0xB1AC)).unwrap();
    d.set_elastic_plan(vec![ElasticEvent {
        step: 2,
        action: ElasticAction::Grow(1),
    }])
    .unwrap();
    d.run(3).unwrap();
    drop(d);
    assert_mesh_dir_clean(&sock);
    let doc = read(&dump_recorder("sigusr1").unwrap());
    // The dump names the mesh generation: one resize so far.
    assert_eq!(doc.generation, 1);
    assert_eq!(
        doc.events,
        vec![FlightEvent::Resize {
            step: 2,
            from: 2,
            to: 3
        }]
    );

    // A recovered crash is pushed and dumped at the point of recovery;
    // the dump's last step is the step the loss surfaced at.
    std::fs::remove_file(&blackbox).unwrap();
    let plan = FaultPlan {
        seed: 3,
        recv_timeout_ms: 300,
        crash: Some(CrashPoint {
            rank: 1,
            step: 4,
            phase: None,
        }),
        ..FaultPlan::default()
    };
    let mut d = DistSim::with_fault_injection(build(11, true), 2, plan);
    d.run(6).unwrap();
    assert_eq!(d.recovery_log.len(), 1);
    let doc = read(&blackbox);
    assert_eq!(doc.reason, "rank_loss");
    assert_eq!(doc.last_step, 4);
    assert!(
        doc.events.iter().any(|e| matches!(
            e,
            FlightEvent::Recovery {
                step: 4,
                dead_rank: 1,
                ..
            }
        )),
        "{:?}",
        doc.events
    );
    let _ = std::fs::remove_dir_all(&dir);
}
