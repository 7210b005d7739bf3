//! Deterministic weighted-fair job queue.
//!
//! Three-level ordering, all on integers, so a schedule is a pure
//! function of the submission/charge sequence (no wall clock anywhere):
//!
//! 1. **Priority class** — strictly higher `priority` first. A waiting
//!    higher-priority job preempts any running lower-priority job at
//!    its next quantum boundary.
//! 2. **Tenant fair share** — within a class, tenants are stride
//!    scheduled: each tenant lane carries a virtual *pass* that
//!    advances by `ticks * STRIDE_SCALE / weight` whenever one of its
//!    jobs consumes `ticks` of service, and the lane with the lowest
//!    pass runs next. A tenant with weight 2 therefore receives twice
//!    the service of a weight-1 tenant under contention. A lane that
//!    goes idle is re-based to the active minimum when it returns, so
//!    sleeping never banks credit.
//! 3. **Submission order** — within a tenant, FIFO by sequence number.
//!
//! `crates/serve/tests/schedule.rs` drives this policy through a
//! one-slot virtual clock and pins a three-tenant mixed-priority
//! scenario as a golden schedule.

use std::collections::BTreeMap;

/// Pass resolution: one tick of service for a weight-1 tenant.
pub const STRIDE_SCALE: u64 = 1 << 16;

/// A queued (or requeued-after-preemption) job reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueuedJob {
    pub job_id: u64,
    pub tenant: String,
    pub priority: i32,
    /// Submission sequence number (FIFO tie-break within a tenant).
    pub seq: u64,
}

#[derive(Debug, Clone)]
struct Lane {
    weight: u64,
    pass: u64,
    /// Jobs of this tenant currently waiting, parked, or running.
    active: u64,
}

/// The scheduler state: tenant lanes plus the waiting set.
#[derive(Debug, Default)]
pub struct FairQueue {
    lanes: BTreeMap<String, Lane>,
    waiting: Vec<QueuedJob>,
    next_seq: u64,
}

impl FairQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a tenant's fair-share weight (default 1; larger = more
    /// service under contention). Takes effect from the next charge.
    pub fn set_weight(&mut self, tenant: &str, weight: u64) {
        let lane = self.lane_entry(tenant);
        lane.weight = weight.max(1);
    }

    fn lane_entry(&mut self, tenant: &str) -> &mut Lane {
        self.lanes.entry(tenant.to_string()).or_insert(Lane {
            weight: 1,
            pass: 0,
            active: 0,
        })
    }

    /// Smallest pass among lanes with active jobs (the service frontier).
    fn frontier(&self) -> u64 {
        self.lanes
            .values()
            .filter(|l| l.active > 0)
            .map(|l| l.pass)
            .min()
            .unwrap_or(0)
    }

    /// Enqueue a new job; returns the queue entry (keep it — preempted
    /// jobs are requeued with the same entry so FIFO order holds).
    pub fn push(&mut self, job_id: u64, tenant: &str, priority: i32) -> QueuedJob {
        let frontier = self.frontier();
        let lane = self.lane_entry(tenant);
        if lane.active == 0 {
            // A returning idle tenant starts at the frontier: it owes
            // nothing and is owed nothing.
            lane.pass = lane.pass.max(frontier);
        }
        lane.active += 1;
        let qj = QueuedJob {
            job_id,
            tenant: tenant.to_string(),
            priority,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.waiting.push(qj.clone());
        qj
    }

    /// Put a preempted job back in the waiting set (lane stays active).
    pub fn requeue(&mut self, qj: QueuedJob) {
        self.waiting.push(qj);
    }

    fn pass_of(&self, tenant: &str) -> u64 {
        self.lanes.get(tenant).map_or(0, |l| l.pass)
    }

    /// Index of the best waiting job: highest priority, then lowest
    /// tenant pass, then lowest sequence number.
    fn best_index(&self) -> Option<usize> {
        (0..self.waiting.len()).min_by_key(|&i| {
            let j = &self.waiting[i];
            (
                std::cmp::Reverse(j.priority),
                self.pass_of(&j.tenant),
                j.seq,
            )
        })
    }

    /// Remove and return the next job to run.
    pub fn pop(&mut self) -> Option<QueuedJob> {
        let i = self.best_index()?;
        Some(self.waiting.swap_remove(i))
    }

    /// Charge `ticks` of service (steps executed) to a tenant's lane.
    pub fn charge(&mut self, tenant: &str, ticks: u64) {
        let lane = self.lane_entry(tenant);
        lane.pass += ticks.saturating_mul(STRIDE_SCALE) / lane.weight;
    }

    /// A job of this tenant left the system (completed or failed).
    pub fn finish(&mut self, tenant: &str) {
        let lane = self.lane_entry(tenant);
        lane.active = lane.active.saturating_sub(1);
    }

    /// Would the best waiting job be scheduled ahead of a running job
    /// with this priority/tenant? True exactly when the runner should be
    /// preempted at its quantum boundary: a strictly higher priority
    /// class waits, or an equal-priority tenant is owed more service
    /// (lower pass). A tenant never preempts itself — its own jobs are
    /// FIFO.
    pub fn would_preempt(&self, running_priority: i32, running_tenant: &str) -> bool {
        let Some(i) = self.best_index() else {
            return false;
        };
        let best = &self.waiting[i];
        if best.priority != running_priority {
            return best.priority > running_priority;
        }
        best.tenant != running_tenant && self.pass_of(&best.tenant) < self.pass_of(running_tenant)
    }

    /// Remove a still-waiting job (client vanished before dispatch).
    pub fn remove_waiting(&mut self, job_id: u64) -> bool {
        if let Some(i) = self.waiting.iter().position(|j| j.job_id == job_id) {
            let qj = self.waiting.swap_remove(i);
            self.finish(&qj.tenant);
            true
        } else {
            false
        }
    }

    /// Number of jobs waiting for a slot.
    pub fn depth(&self) -> usize {
        self.waiting.len()
    }

    /// `(tenant, pass, active)` for every known lane, in name order.
    pub fn lane_states(&self) -> Vec<(String, u64, u64)> {
        self.lanes
            .iter()
            .map(|(t, l)| (t.clone(), l.pass, l.active))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_a_tenant() {
        let mut q = FairQueue::new();
        q.push(1, "a", 0);
        q.push(2, "a", 0);
        q.push(3, "a", 0);
        assert_eq!(q.pop().unwrap().job_id, 1);
        assert_eq!(q.pop().unwrap().job_id, 2);
        assert_eq!(q.pop().unwrap().job_id, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn priority_beats_fairness_and_order() {
        let mut q = FairQueue::new();
        q.push(1, "a", 0);
        q.push(2, "b", 5);
        q.push(3, "c", 1);
        assert_eq!(q.pop().unwrap().job_id, 2);
        assert_eq!(q.pop().unwrap().job_id, 3);
        assert_eq!(q.pop().unwrap().job_id, 1);
    }

    #[test]
    fn charged_tenant_yields_to_uncharged() {
        let mut q = FairQueue::new();
        q.push(1, "a", 0);
        q.push(2, "b", 0);
        // Tenant a consumed 10 ticks; b is owed service.
        q.charge("a", 10);
        assert_eq!(q.pop().unwrap().job_id, 2);
    }

    #[test]
    fn weight_doubles_service_share() {
        // Equal charge: the weight-2 tenant's pass advances half as fast.
        let mut q = FairQueue::new();
        q.set_weight("heavy", 2);
        q.push(1, "heavy", 0);
        q.push(2, "light", 0);
        q.charge("heavy", 10);
        q.charge("light", 10);
        assert_eq!(q.pop().unwrap().job_id, 1, "heavy lane owed more service");
    }

    #[test]
    fn returning_idle_tenant_cannot_bank_credit() {
        let mut q = FairQueue::new();
        let qa = q.push(1, "a", 0);
        q.charge("a", 100);
        q.finish("a");
        // b arrives much later; a rejoins after it. a's pass must be
        // re-based to the frontier, not its stale value... and vice
        // versa: b must not start at 0 while a sits at 100 ticks.
        q.push(2, "b", 0);
        assert_eq!(q.pass_of("b"), q.frontier());
        let _ = qa;
        let qa2 = q.push(3, "a", 0);
        assert!(q.pass_of("a") >= q.pass_of("b"));
        let _ = qa2;
    }

    #[test]
    fn would_preempt_matches_pop_order() {
        let mut q = FairQueue::new();
        // Running: tenant a at priority 0 with some service consumed.
        q.push(1, "a", 0);
        let ra = q.pop().unwrap();
        q.charge("a", 10);
        assert!(!q.would_preempt(ra.priority, &ra.tenant), "empty queue");
        // Same tenant waiting: never preempts itself.
        q.push(2, "a", 0);
        assert!(!q.would_preempt(ra.priority, &ra.tenant));
        // Different tenant, equal priority: a fresh arrival is re-based
        // to the service frontier, so it does not preempt instantly...
        q.push(3, "b", 0);
        assert!(!q.would_preempt(ra.priority, &ra.tenant));
        // ...but one more charged quantum pushes the runner past it.
        q.charge("a", 10);
        assert!(q.would_preempt(ra.priority, &ra.tenant));
        // Higher priority always preempts.
        let mut q2 = FairQueue::new();
        q2.push(1, "a", 0);
        let r = q2.pop().unwrap();
        q2.push(2, "b", 3);
        q2.charge("b", 1_000_000);
        assert!(q2.would_preempt(r.priority, &r.tenant));
    }

    #[test]
    fn remove_waiting_deactivates_lane() {
        let mut q = FairQueue::new();
        q.push(1, "a", 0);
        assert!(q.remove_waiting(1));
        assert!(!q.remove_waiting(1));
        assert_eq!(q.depth(), 0);
        let lanes = q.lane_states();
        assert_eq!(lanes[0].2, 0, "lane active count back to zero");
    }
}
