//! Dynamic load balancing from measured per-box costs (paper §V-C).
//!
//! The driver measures the wall time spent on each box's particle work
//! every step (the stand-in for the paper's in-situ GPU cost
//! measurement). [`CostTracker`] smooths those samples; `rebalance`
//! builds a new [`DistributionMapping`] and reports whether adopting it
//! clears the improvement threshold — mirroring WarpX's policy of
//! redistributing only when the imbalance gain justifies the particle
//! redistribution traffic.
//!
//! [`LbPolicy`] closes the loop from measurement to decision for the
//! live step loop: it watches the *measured* max/mean imbalance every
//! step, and once the signal has exceeded a threshold for K consecutive
//! steps it evaluates both Knapsack and SFC candidate mappings, pricing
//! each one's migration traffic (actual fab + particle bytes that would
//! move, through the same latency/bandwidth model as
//! `mrpic-cluster`'s `lb_ablation`) *and* its steady-state cross-rank
//! guard-exchange surface against its predicted per-step savings, and
//! adopts the best candidate only when the amortized net gain is
//! positive. The surface term matters: a knapsack packing that
//! scatters box ownership can win the load metric while multiplying
//! the halo bytes every subsequent step pays for. Every evaluation —
//! adopted or not — is emitted as a structured [`LbDecision`] in the
//! step telemetry.

use mrpic_amr::{BoxArray, DistributionMapping, Strategy};
use serde::{Deserialize, Serialize};

/// Exponentially smoothed per-box cost measurements.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CostTracker {
    costs: Vec<f64>,
    alpha: f64,
}

impl CostTracker {
    pub fn new(nboxes: usize) -> Self {
        Self {
            costs: vec![1.0; nboxes],
            alpha: 0.3,
        }
    }

    /// Record one step's measured costs (seconds or any consistent unit).
    ///
    /// A sample whose length disagrees with the tracked box count (an MR
    /// regrid, a fine level appearing) resizes the tracker to match
    /// instead of panicking in the hot loop — new boxes are seeded with
    /// the mean smoothed cost, exactly as [`CostTracker::resize`] does.
    pub fn record(&mut self, sample: &[f64]) {
        if sample.len() != self.costs.len() {
            eprintln!(
                "mrpic: cost tracker saw {} boxes but tracks {}; resizing",
                sample.len(),
                self.costs.len()
            );
            self.resize(sample.len());
        }
        for (c, s) in self.costs.iter_mut().zip(sample) {
            *c = (1.0 - self.alpha) * *c + self.alpha * s.max(1e-12);
        }
    }

    /// Heuristic cost from counts when no timer data exists: the paper's
    /// FOM weighting `alpha N_c + beta N_p` with alpha 0.1 / beta 0.9.
    pub fn record_heuristic(&mut self, cells: &[i64], particles: &[usize]) {
        let sample: Vec<f64> = cells
            .iter()
            .zip(particles)
            .map(|(&c, &p)| 0.1 * c as f64 + 0.9 * p as f64)
            .collect();
        self.record(&sample);
    }

    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Grow or shrink to `nboxes`, seeding new boxes with the current
    /// mean smoothed cost. Seeding with the mean (rather than a flat 1.0,
    /// whose scale is arbitrary next to measured seconds) keeps a regrid
    /// from skewing the first rebalance decision after it.
    pub fn resize(&mut self, nboxes: usize) {
        let seed = if self.costs.is_empty() {
            1.0
        } else {
            self.costs.iter().sum::<f64>() / self.costs.len() as f64
        };
        self.costs.resize(nboxes, seed);
    }
}

/// Which per-box cost signal feeds the live policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum CostSource {
    /// Wall seconds of particle work per box, as timed by the step loop.
    /// The real signal, but run-to-run noisy.
    #[default]
    Measured,
    /// The paper's FOM weighting `0.1 N_cells + 0.9 N_particles` from
    /// deterministic counts — bit-reproducible decisions at the price of
    /// assuming uniform per-particle cost.
    Heuristic,
}

/// Configuration of the online load-balance policy (trigger → predict →
/// adopt). Defaults follow the `lb_ablation` cluster model: 2 µs
/// latency, 25 GB/s bandwidth.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LbPolicyCfg {
    /// Ranks to balance across (1 = serial/threaded run; the policy
    /// still evaluates, using per-box imbalance as its trigger signal).
    pub nranks: usize,
    /// Max/mean imbalance above which a step counts toward the trigger
    /// streak. 1.0 is perfect balance.
    pub threshold: f64,
    /// Consecutive over-threshold steps required before evaluating
    /// candidates — debounces startup transients and one-step spikes.
    pub patience: u64,
    /// Minimum relative imbalance improvement a candidate must predict
    /// (e.g. 0.05 = 5 %) before it is even priced.
    pub min_gain: f64,
    /// Steps over which migration cost is amortized: adopt only when
    /// `per_step_savings * horizon > migration_seconds`.
    pub horizon: u64,
    /// Per-message latency of the migration cost model, seconds.
    pub latency: f64,
    /// Link bandwidth of the migration cost model, bytes/second.
    pub bandwidth: f64,
    /// Steps to wait after an evaluation before re-arming the trigger,
    /// so the smoothed costs can settle into the new mapping.
    pub cooldown: u64,
    /// Cost signal driving both trigger and candidate scoring.
    pub cost_source: CostSource,
    /// Seconds per cost unit, converting tracked costs into predicted
    /// step savings. 1.0 when costs are measured seconds; calibrate for
    /// heuristic FOM units.
    pub cost_scale: f64,
}

impl Default for LbPolicyCfg {
    fn default() -> Self {
        Self {
            nranks: 1,
            threshold: 1.15,
            patience: 3,
            min_gain: 0.05,
            horizon: 50,
            latency: 2.0e-6,
            bandwidth: 25.0e9,
            cooldown: 10,
            cost_source: CostSource::Measured,
            cost_scale: 1.0,
        }
    }
}

/// One candidate mapping considered during an evaluation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LbCandidate {
    /// `"knapsack"` or `"sfc"`.
    pub strategy: String,
    /// Max/mean imbalance the candidate would have under current costs.
    pub predicted_imbalance: f64,
    /// Predicted wall seconds saved per step (max-rank-load reduction).
    pub predicted_step_save: f64,
    /// Total payload bytes that would migrate (fab data + particles).
    pub migration_bytes: u64,
    /// One-time migration cost from the latency/bandwidth model.
    pub predicted_migration_seconds: f64,
    /// Change in the modeled per-step guard-exchange time vs the current
    /// mapping (positive = the candidate creates more cross-rank
    /// surface). A mapping that scatters ownership can erase its
    /// balance win with steady-state halo traffic; this term charges
    /// for that every step of the horizon.
    #[serde(default)]
    pub predicted_exchange_delta_seconds: f64,
    /// `(step_save - exchange_delta) * horizon - migration_seconds`;
    /// adopt requires > 0.
    pub predicted_net_gain: f64,
}

/// A structured record of one policy evaluation, attached to the step
/// telemetry ([`crate::telemetry::StepRecord::lb`]) and mirrored by an
/// `lb_decision` trace span.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LbDecision {
    /// Step at which the evaluation ran.
    pub step: u64,
    /// The measured imbalance that tripped the trigger.
    pub trigger_imbalance: f64,
    /// Every candidate evaluated, in evaluation order.
    pub candidates: Vec<LbCandidate>,
    /// Strategy name of the adopted candidate, `None` when nothing
    /// cleared the `min_gain`/net-gain bar.
    pub adopted: Option<String>,
    /// Bytes actually migrated (0 when not adopted).
    pub bytes_migrated: u64,
}

/// Per-rank communication time of `pair_bytes` = `(src, dst, bytes)`
/// traffic — planned box migrations, or a measured message trace. Each
/// rank pays one `latency` per message-pair touch (send or receive) and
/// moves the heavier of its send and receive volumes at `bandwidth`
/// (full-duplex links overlap the two directions). Returns per-rank
/// seconds.
pub fn comm_times(
    pair_bytes: &[(usize, usize, u64)],
    nranks: usize,
    latency: f64,
    bandwidth: f64,
) -> Vec<f64> {
    let mut sent = vec![0u64; nranks];
    let mut recv = vec![0u64; nranks];
    let mut peers = vec![0usize; nranks];
    for &(s, d, b) in pair_bytes {
        assert!(s < nranks && d < nranks, "rank out of range in traffic");
        sent[s] += b;
        recv[d] += b;
        peers[s] += 1;
        peers[d] += 1;
    }
    (0..nranks)
        .map(|r| peers[r] as f64 * latency + sent[r].max(recv[r]) as f64 / bandwidth)
        .collect()
}

/// Bulk-synchronous cost of `pair_bytes`: the slowest rank of
/// [`comm_times`] gates the step.
pub fn comm_time_model(
    pair_bytes: &[(usize, usize, u64)],
    nranks: usize,
    latency: f64,
    bandwidth: f64,
) -> f64 {
    comm_times(pair_bytes, nranks, latency, bandwidth)
        .into_iter()
        .fold(0.0, f64::max)
}

/// Estimated per-step cross-rank guard-exchange traffic under mapping
/// `dm`, as `(src, dst, bytes)` pairs for [`comm_time_model`]: for
/// every box whose `guard_cells`-grown region overlaps a neighbor
/// owned by a different rank, the neighbor ships the overlap each step
/// (9 field components × 8 bytes per cell — the fill direction of the
/// cached exchange plans; the sum-back direction and particle
/// redistribution scale with the same surface). A relative measure for
/// comparing candidate mappings, not an exact wire-byte count.
pub fn exchange_surface_pairs(
    ba: &BoxArray,
    dm: &DistributionMapping,
    guard_cells: i64,
) -> Vec<(usize, usize, u64)> {
    let nranks = dm.nranks();
    let mut bytes = vec![0u64; nranks * nranks];
    for i in 0..ba.len() {
        let grown = ba.get(i).grow(guard_cells);
        let oi = dm.owner(i);
        for j in 0..ba.len() {
            let oj = dm.owner(j);
            if i == j || oi == oj {
                continue;
            }
            if let Some(ov) = grown.intersect(&ba.get(j)) {
                bytes[oj * nranks + oi] += 8 * 9 * ov.num_cells() as u64;
            }
        }
    }
    let mut pairs = Vec::new();
    for s in 0..nranks {
        for d in 0..nranks {
            let b = bytes[s * nranks + d];
            if b > 0 {
                pairs.push((s, d, b));
            }
        }
    }
    pairs
}

/// Online trigger → predict → adopt policy state. Owned by the
/// simulation; driven once per step from phase 8 of the step loop.
#[derive(Clone, Debug)]
pub struct LbPolicy {
    cfg: LbPolicyCfg,
    /// Consecutive steps the measured imbalance exceeded the threshold.
    hot_streak: u64,
    /// Steps left before the trigger re-arms after an evaluation.
    cooldown_left: u64,
}

impl LbPolicy {
    pub fn new(cfg: LbPolicyCfg) -> Self {
        Self {
            cfg,
            hot_streak: 0,
            cooldown_left: 0,
        }
    }

    pub fn cfg(&self) -> &LbPolicyCfg {
        &self.cfg
    }

    /// Re-target the policy at a different rank count (endpoint
    /// attachment, crash recovery). Resets the trigger state: the old
    /// streak was measured against a mapping that no longer exists.
    pub fn set_nranks(&mut self, nranks: usize) {
        assert!(nranks > 0);
        self.cfg.nranks = nranks;
        self.hot_streak = 0;
        self.cooldown_left = 0;
    }

    /// Feed one step's measured imbalance into the trigger. Returns
    /// `true` when the policy wants a candidate evaluation this step.
    pub fn observe(&mut self, measured: f64) -> bool {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return false;
        }
        if measured > self.cfg.threshold {
            self.hot_streak += 1;
        } else {
            self.hot_streak = 0;
        }
        self.hot_streak >= self.cfg.patience
    }

    /// Evaluate Knapsack and SFC candidates against the current mapping
    /// and pick by predicted net gain. `per_box_bytes[bi]` is the
    /// payload that would move if box `bi` changed owner; `guard_cells`
    /// is the halo width used to price each candidate's steady-state
    /// exchange surface (a scattered mapping pays for its halo traffic
    /// every step, not just the one-time migration). Returns the
    /// [`LbDecision`] for this step's record and the mapping to adopt,
    /// if any; the realized imbalance is the next record's `imbalance`.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate(
        &mut self,
        step: u64,
        trigger_imbalance: f64,
        ba: &BoxArray,
        current: &DistributionMapping,
        costs: &[f64],
        per_box_bytes: &[u64],
        guard_cells: i64,
    ) -> (LbDecision, Option<DistributionMapping>) {
        let cfg = self.cfg;
        let old_loads = current.rank_loads(costs);
        let old_max = old_loads.iter().cloned().fold(0.0, f64::max);
        let cur_exch_s = comm_time_model(
            &exchange_surface_pairs(ba, current, guard_cells),
            cfg.nranks,
            cfg.latency,
            cfg.bandwidth,
        );
        let mut candidates = Vec::with_capacity(2);
        let mut best: Option<(f64, DistributionMapping, String, u64)> = None;
        for (name, strategy) in [
            ("knapsack", Strategy::Knapsack),
            ("sfc", Strategy::SpaceFillingCurve),
        ] {
            let cand = DistributionMapping::build(ba, cfg.nranks, strategy, costs);
            let cand_imb = cand.imbalance(costs);
            let mut pair_bytes = Vec::new();
            let mut migration_bytes = 0u64;
            for bi in 0..ba.len() {
                let (from, to) = (current.owner(bi), cand.owner(bi));
                if from != to {
                    let b = per_box_bytes.get(bi).copied().unwrap_or(0);
                    pair_bytes.push((from, to, b));
                    migration_bytes += b;
                }
            }
            let migrate_s = comm_time_model(&pair_bytes, cfg.nranks, cfg.latency, cfg.bandwidth);
            let cand_loads = cand.rank_loads(costs);
            let cand_max = cand_loads.iter().cloned().fold(0.0, f64::max);
            let step_save = (old_max - cand_max) * cfg.cost_scale;
            let cand_exch_s = comm_time_model(
                &exchange_surface_pairs(ba, &cand, guard_cells),
                cfg.nranks,
                cfg.latency,
                cfg.bandwidth,
            );
            let exch_delta = cand_exch_s - cur_exch_s;
            let net = (step_save - exch_delta) * cfg.horizon as f64 - migrate_s;
            candidates.push(LbCandidate {
                strategy: name.to_string(),
                predicted_imbalance: cand_imb,
                predicted_step_save: step_save,
                migration_bytes,
                predicted_migration_seconds: migrate_s,
                predicted_exchange_delta_seconds: exch_delta,
                predicted_net_gain: net,
            });
            let qualifies = cand_imb < trigger_imbalance * (1.0 - cfg.min_gain) && net > 0.0;
            if qualifies && best.as_ref().is_none_or(|(bn, ..)| net > *bn) {
                best = Some((net, cand, name.to_string(), migration_bytes));
            }
        }
        let (adopted, bytes_migrated, mapping) = match best {
            Some((_, mapping, name, bytes)) => (Some(name), bytes, Some(mapping)),
            None => (None, 0, None),
        };
        self.hot_streak = 0;
        self.cooldown_left = cfg.cooldown.max(1);
        let decision = LbDecision {
            step,
            trigger_imbalance,
            candidates,
            adopted,
            bytes_migrated,
        };
        (decision, mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrpic_amr::{IndexBox, IntVect};

    fn ba() -> BoxArray {
        BoxArray::chop(
            IndexBox::from_size(IntVect::new(64, 64, 1)),
            IntVect::new(16, 16, 1),
        )
    }

    #[test]
    fn smoothing_converges_to_steady_costs() {
        let mut t = CostTracker::new(4);
        for _ in 0..50 {
            t.record(&[4.0, 1.0, 1.0, 1.0]);
        }
        assert!((t.costs()[0] - 4.0).abs() < 1e-3);
        assert!((t.costs()[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn heuristic_uses_fom_weights() {
        let mut t = CostTracker::new(2);
        for _ in 0..100 {
            t.record_heuristic(&[1000, 1000], &[0, 1000]);
        }
        // Box 1 has 0.1*1000 + 0.9*1000 = 1000; box 0 has 100.
        assert!((t.costs()[1] / t.costs()[0] - 10.0).abs() < 0.1);
    }

    #[test]
    fn resize_seeds_new_boxes_with_mean_cost() {
        let mut t = CostTracker::new(2);
        for _ in 0..60 {
            t.record(&[3.0e-3, 1.0e-3]);
        }
        t.resize(4);
        let mean = (t.costs()[0] + t.costs()[1]) / 2.0;
        assert!((t.costs()[2] - mean).abs() < 1e-12);
        assert!((t.costs()[3] - mean).abs() < 1e-12);
        // Empty tracker still gets a sane default.
        let mut e = CostTracker::new(0);
        e.resize(2);
        assert_eq!(e.costs(), &[1.0, 1.0]);
    }

    #[test]
    fn record_resizes_on_mismatched_sample() {
        // A fab count change (MR regrid) used to hard-assert; now the
        // tracker resizes and keeps smoothing.
        let mut t = CostTracker::new(2);
        for _ in 0..60 {
            t.record(&[3.0, 1.0]);
        }
        t.record(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(t.costs().len(), 4);
        // New boxes were seeded with the pre-resize mean (2.0), then
        // smoothed toward the 2.0 sample — still 2.0.
        assert!((t.costs()[2] - 2.0).abs() < 1e-9);
        t.record(&[1.0]);
        assert_eq!(t.costs().len(), 1);
    }

    #[test]
    fn comm_times_charge_latency_and_volume() {
        // Rank 0 talks to both peers, rank 1 only to rank 0.
        let trace = [(0usize, 1usize, 8_000u64), (1, 0, 2_000), (0, 2, 1_000)];
        let t = comm_times(&trace, 3, 1e-6, 1e9);
        // Rank 0: 3 message-pair touches, max(9000 sent, 2000 recv) bytes.
        assert!((t[0] - (3.0 * 1e-6 + 9_000.0 / 1e9)).abs() < 1e-12);
        // Rank 1: 2 touches, max(2000 sent, 8000 recv) bytes.
        assert!((t[1] - (2.0 * 1e-6 + 8_000.0 / 1e9)).abs() < 1e-12);
        // Rank 2 only receives.
        assert!((t[2] - (1.0 * 1e-6 + 1_000.0 / 1e9)).abs() < 1e-12);

        // Dense, lumpy all-pairs traffic at the live policy's defaults.
        let cfg = LbPolicyCfg::default();
        let dense = |nranks: usize| {
            let mut pairs = Vec::new();
            for s in 0..nranks {
                for d in 0..nranks {
                    let b = ((s * 7919 + d * 104729) % 65536) as u64 * 512;
                    if s != d && b > 0 {
                        pairs.push((s, d, b));
                    }
                }
            }
            pairs
        };
        let mut cases = vec![(trace.to_vec(), 3, 1e-6, 1e9), (Vec::new(), 4, 2e-6, 25e9)];
        for nranks in [2usize, 3, 5, 8] {
            cases.push((dense(nranks), nranks, cfg.latency, cfg.bandwidth));
        }
        for (pairs, nranks, lat, bw) in cases {
            let t = comm_times(&pairs, nranks, lat, bw);
            assert_eq!(t.len(), nranks);
            let max = t.iter().copied().fold(0.0, f64::max);
            assert_eq!(
                comm_time_model(&pairs, nranks, lat, bw).to_bits(),
                max.to_bits()
            );
            if pairs.is_empty() {
                assert!(t.iter().all(|&x| x == 0.0));
            } else {
                assert!(max > 0.0);
            }
        }
    }

    #[test]
    fn scattered_ownership_has_larger_exchange_surface() {
        let ba = ba();
        // Round-robin interleaves owners, so nearly every box face is a
        // cross-rank halo; SFC keeps ranks spatially contiguous.
        let rr = DistributionMapping::build(&ba, 4, Strategy::RoundRobin, &[]);
        let sfc = DistributionMapping::build(&ba, 4, Strategy::SpaceFillingCurve, &[1.0; 16]);
        let vol = |pairs: &[(usize, usize, u64)]| pairs.iter().map(|&(_, _, b)| b).sum::<u64>();
        let rr_bytes = vol(&exchange_surface_pairs(&ba, &rr, 2));
        let sfc_bytes = vol(&exchange_surface_pairs(&ba, &sfc, 2));
        assert!(rr_bytes > sfc_bytes, "rr {rr_bytes} vs sfc {sfc_bytes}");
        // One rank owns everything: no cross-rank surface at all.
        let serial = DistributionMapping::build(&ba, 1, Strategy::SpaceFillingCurve, &[]);
        assert!(exchange_surface_pairs(&ba, &serial, 2).is_empty());
        // Wider guards mean strictly more overlap volume.
        assert!(vol(&exchange_surface_pairs(&ba, &rr, 3)) > rr_bytes);
    }

    #[test]
    fn policy_trigger_needs_patience_and_respects_cooldown() {
        let mut p = LbPolicy::new(LbPolicyCfg {
            nranks: 2,
            threshold: 1.2,
            patience: 3,
            cooldown: 2,
            ..LbPolicyCfg::default()
        });
        assert!(!p.observe(1.5));
        assert!(!p.observe(1.5));
        // A calm step resets the streak.
        assert!(!p.observe(1.0));
        assert!(!p.observe(1.5));
        assert!(!p.observe(1.5));
        assert!(p.observe(1.5));
        // Evaluation arms the cooldown; hot steps during it are ignored.
        let ba = ba();
        let dm = DistributionMapping::build(&ba, 2, Strategy::RoundRobin, &[]);
        let costs = vec![1.0; ba.len()];
        p.evaluate(6, 1.5, &ba, &dm, &costs, &vec![0; ba.len()], 2);
        assert!(!p.observe(9.0));
        assert!(!p.observe(9.0));
        // Re-armed: streak builds again from zero.
        assert!(!p.observe(9.0));
        assert!(!p.observe(9.0));
        assert!(p.observe(9.0));
    }

    #[test]
    fn policy_adopts_best_net_gain_and_reports_candidates() {
        let ba = ba();
        let dm = DistributionMapping::build(&ba, 4, Strategy::RoundRobin, &[]);
        let mut costs = vec![1.0; ba.len()];
        for b in dm.boxes_of(0) {
            costs[b] = 100.0;
        }
        let mut p = LbPolicy::new(LbPolicyCfg {
            nranks: 4,
            ..LbPolicyCfg::default()
        });
        let trigger = dm.imbalance(&costs);
        assert!(trigger > 1.15);
        let (d, adopted) = p.evaluate(7, trigger, &ba, &dm, &costs, &vec![1 << 20; ba.len()], 2);
        let mapping = adopted.expect("a 100x hotspot must clear the bar");
        assert!(mapping.imbalance(&costs) < trigger);
        assert_eq!(d.step, 7);
        assert_eq!(d.trigger_imbalance, trigger);
        assert_eq!(d.candidates.len(), 2);
        let name = d.adopted.as_deref().expect("adopted");
        let winner = d.candidates.iter().find(|c| c.strategy == name).unwrap();
        assert!(winner.predicted_net_gain > 0.0);
        assert!(winner.migration_bytes > 0);
        assert_eq!(d.bytes_migrated, winner.migration_bytes);
        // The winner has the best net gain of all qualifying candidates.
        for c in &d.candidates {
            assert!(c.predicted_net_gain <= winner.predicted_net_gain);
        }
    }

    #[test]
    fn policy_declines_when_migration_dwarfs_savings() {
        let ba = ba();
        let dm = DistributionMapping::build(&ba, 4, Strategy::RoundRobin, &[]);
        let mut costs = vec![1.0e-6; ba.len()];
        for b in dm.boxes_of(0) {
            costs[b] = 1.0e-4;
        }
        // Microsecond-scale step savings, no amortization window, and a
        // dial-up link: net gain must come out negative for everything.
        let mut p = LbPolicy::new(LbPolicyCfg {
            nranks: 4,
            horizon: 1,
            bandwidth: 1.0e3,
            ..LbPolicyCfg::default()
        });
        let trigger = dm.imbalance(&costs);
        let (d, adopted) = p.evaluate(3, trigger, &ba, &dm, &costs, &vec![1 << 24; ba.len()], 2);
        assert!(adopted.is_none());
        assert_eq!(d.step, 3);
        assert_eq!(d.adopted, None);
        assert_eq!(d.bytes_migrated, 0);
        assert!(d.candidates.iter().all(|c| c.predicted_net_gain < 0.0));
    }
}
