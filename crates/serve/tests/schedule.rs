//! Golden schedule for the weighted-fair, priority-preemptive policy.
//!
//! Runs [`schedule_trace`] — the `FairQueue` the live server uses,
//! driven by a virtual clock with preemption checks only at quantum
//! boundaries — against a three-tenant, mixed-priority scenario and pins
//! the complete event sequence. The trace is a pure function of its
//! inputs (no wall clock, all-integer pass arithmetic), so any change to
//! the scheduling policy shows up as an exact diff in this file.

use mrpic_serve::{FairQueue, QueuedJob};

/// One job of the virtual-clock scenario.
#[derive(Clone, Copy, Debug)]
struct SimJob {
    name: &'static str,
    tenant: &'static str,
    priority: i32,
    /// Service demand in virtual ticks (≙ steps).
    length: u64,
    /// Submission time on the virtual clock.
    arrive: u64,
}

/// Run the scheduling policy against a virtual clock: one executor
/// slot, preemption checks at quantum boundaries only (exactly like the
/// live server), submissions admitted when the virtual clock reaches
/// their arrival tick. Returns the event trace — `submit`, `dispatch`,
/// `resume`, `preempt`, `complete` lines stamped with the virtual time.
///
/// No wall clock is consulted anywhere, so the trace is a pure function
/// of its inputs and can be pinned as a golden schedule.
fn schedule_trace(weights: &[(&str, u64)], jobs: &[SimJob], quantum: u64) -> Vec<String> {
    assert!(quantum > 0, "quantum must be positive");
    let mut q = FairQueue::new();
    for (t, w) in weights {
        q.set_weight(t, *w);
    }
    let mut events = Vec::new();
    let mut remaining: Vec<u64> = jobs.iter().map(|j| j.length).collect();
    let mut admitted = vec![false; jobs.len()];
    let mut dispatched_before = vec![false; jobs.len()];
    let mut vt: u64 = 0;
    let mut running: Option<QueuedJob> = None;

    fn admit(
        q: &mut FairQueue,
        jobs: &[SimJob],
        admitted: &mut [bool],
        vt: u64,
        events: &mut Vec<String>,
    ) {
        for (i, j) in jobs.iter().enumerate() {
            if !admitted[i] && j.arrive <= vt {
                admitted[i] = true;
                q.push(i as u64, j.tenant, j.priority);
                events.push(format!("t={} submit {}", j.arrive, j.name));
            }
        }
    }

    loop {
        admit(&mut q, jobs, &mut admitted, vt, &mut events);
        if running.is_none() {
            match q.pop() {
                Some(qj) => {
                    let i = qj.job_id as usize;
                    let verb = if dispatched_before[i] {
                        "resume"
                    } else {
                        "dispatch"
                    };
                    dispatched_before[i] = true;
                    events.push(format!("t={vt} {verb} {}", jobs[i].name));
                    running = Some(qj);
                }
                None => {
                    // Idle: jump to the next arrival, or stop.
                    let next = jobs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !admitted[*i])
                        .map(|(_, j)| j.arrive)
                        .min();
                    match next {
                        Some(t) => {
                            vt = t;
                            continue;
                        }
                        None => break,
                    }
                }
            }
        }
        let qj = running.clone().expect("a job is running");
        let i = qj.job_id as usize;
        let run = quantum.min(remaining[i]);
        vt += run;
        remaining[i] -= run;
        q.charge(&qj.tenant, run);
        admit(&mut q, jobs, &mut admitted, vt, &mut events);
        if remaining[i] == 0 {
            q.finish(&qj.tenant);
            events.push(format!("t={vt} complete {}", jobs[i].name));
            running = None;
        } else if q.would_preempt(qj.priority, &qj.tenant) {
            events.push(format!("t={vt} preempt {}", jobs[i].name));
            q.requeue(qj);
            running = None;
        }
        // Otherwise the same job keeps its slot for another quantum.
    }
    events
}

/// Three tenants (b pays for double weight), mixed priorities, arrivals
/// staggered so the trace exercises: FIFO within a tenant, stride
/// fairness between a and b, a high-priority arrival preempting a
/// running low-priority job, and an idle lane re-based when it returns.
fn scenario() -> (Vec<(&'static str, u64)>, Vec<SimJob>) {
    let weights = vec![("alice", 1u64), ("bob", 2u64), ("carol", 1u64)];
    let jobs = vec![
        SimJob {
            name: "alice-long",
            tenant: "alice",
            priority: 0,
            length: 30,
            arrive: 0,
        },
        SimJob {
            name: "alice-short",
            tenant: "alice",
            priority: 0,
            length: 10,
            arrive: 0,
        },
        SimJob {
            name: "bob-long",
            tenant: "bob",
            priority: 0,
            length: 30,
            arrive: 0,
        },
        SimJob {
            name: "carol-urgent",
            tenant: "carol",
            priority: 5,
            length: 10,
            arrive: 12,
        },
        SimJob {
            name: "bob-late",
            tenant: "bob",
            priority: 0,
            length: 10,
            arrive: 60,
        },
    ];
    (weights, jobs)
}

#[test]
fn golden_three_tenant_mixed_priority_schedule() {
    let (weights, jobs) = scenario();
    let trace = schedule_trace(&weights, &jobs, 5);
    let expected: Vec<&str> = vec![
        "t=0 submit alice-long",
        "t=0 submit alice-short",
        "t=0 submit bob-long",
        "t=0 dispatch alice-long",
        "t=5 preempt alice-long",
        "t=5 dispatch bob-long",
        "t=12 submit carol-urgent",
        "t=15 preempt bob-long",
        "t=15 dispatch carol-urgent",
        "t=25 complete carol-urgent",
        "t=25 resume alice-long",
        "t=30 preempt alice-long",
        "t=30 resume bob-long",
        "t=45 preempt bob-long",
        "t=45 resume alice-long",
        "t=50 preempt alice-long",
        "t=50 resume bob-long",
        "t=55 complete bob-long",
        "t=55 resume alice-long",
        "t=60 submit bob-late",
        "t=65 preempt alice-long",
        "t=65 dispatch bob-late",
        "t=75 complete bob-late",
        "t=75 resume alice-long",
        "t=80 complete alice-long",
        "t=80 dispatch alice-short",
        "t=90 complete alice-short",
    ];
    assert_eq!(
        trace,
        expected.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        "scheduling policy changed — inspect the diff and re-pin deliberately"
    );
}

#[test]
fn golden_schedule_is_reproducible() {
    let (weights, jobs) = scenario();
    let a = schedule_trace(&weights, &jobs, 5);
    let b = schedule_trace(&weights, &jobs, 5);
    assert_eq!(a, b, "virtual-clock schedule must not depend on wall time");
}

#[test]
fn golden_schedule_properties() {
    let (weights, jobs) = scenario();
    let trace = schedule_trace(&weights, &jobs, 5);
    let pos = |needle: &str| {
        trace
            .iter()
            .position(|e| e == needle)
            .unwrap_or_else(|| panic!("event missing from trace: {needle}"))
    };
    // The high-priority job preempts a running job at the first quantum
    // boundary after its arrival and runs to completion unpreempted.
    assert!(pos("t=15 dispatch carol-urgent") < pos("t=25 complete carol-urgent"));
    let carol_window = &trace[pos("t=15 dispatch carol-urgent")..pos("t=25 complete carol-urgent")];
    assert!(
        !carol_window.iter().any(|e| e.contains("preempt carol")),
        "priority job must not be preempted by lower classes"
    );
    // Weight 2 buys bob roughly double service: bob-long (30 ticks)
    // finishes well before alice-long (30 ticks) despite equal arrival.
    assert!(pos("t=55 complete bob-long") < pos("t=80 complete alice-long"));
    // FIFO within a tenant: alice-short never runs before alice-long
    // completes (same tenant, same priority, later seq).
    assert!(pos("t=80 complete alice-long") < pos("t=80 dispatch alice-short"));
    // Every job completes exactly once.
    for name in [
        "alice-long",
        "alice-short",
        "bob-long",
        "carol-urgent",
        "bob-late",
    ] {
        assert_eq!(
            trace
                .iter()
                .filter(|e| e.ends_with(&format!("complete {name}")))
                .count(),
            1,
            "{name} must complete exactly once"
        );
    }
}
