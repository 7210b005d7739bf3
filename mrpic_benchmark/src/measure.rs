//! The untraced pass: whole rounds of one workload, repeated until the
//! run's `--seconds` are used, folded into the end-to-end metrics.

use crate::decks::Deck;
use crate::library::{self, fom_work};
use crate::probes::Metrics;
use crate::process::{cli_round, serve_round};
use crate::stats::{median, percentile};
use crate::sys;
use crate::workloads::{Ctx, Round, Sizes, Workload, SERVE_BUDGETS, SERVE_BUDGETS_SMALL};
use std::time::Instant;

/// End-to-end metrics: `(name, unit, regression bound as a share of the
/// parent's median, better)`. `BENCHMARK.json` carries the same table;
/// a unit test keeps the two in step.
///
/// The bounds are set by this box, not by taste: ten-seed runs of the
/// same code spread (quartile distance over median) by 3-12 % on the
/// three rate metrics, with whole runs 10-25 % slow when a neighbour
/// on the host is busy, so a tighter bound would reject its own
/// parent. `step_ms_p90`, `first_record_s` and `hi_turnaround_s` spread
/// by more than 10 % and are therefore reported per layer, unbounded
/// (README, "Deviations").
pub const END_TO_END: [(&str, &str, f64, &str); 5] = [
    ("setup_s", "s", 0.25, "lower"),
    ("run_wall_s", "s", 0.25, "lower"),
    ("step_ms_p50", "ms", 0.25, "lower"),
    ("fom_per_s", "1/s", 0.25, "higher"),
    ("peak_rss_mb", "MB", 0.1, "lower"),
];

/// Everything one run reports.
pub struct Outcome {
    /// The metrics of the result object.
    pub metrics: Metrics,
    /// Printed with the report, not part of the result object.
    pub info: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Final `state_digest` of the three MR workloads.
    pub digest: Option<u64>,
    /// `run_wall_s` of each round, in order (how noisy was this run?).
    pub round_wall_s: Vec<f64>,
    pub step_samples: usize,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Operations that count as failed: a problem no single operation owns
/// (a failed cross-check) fails every operation of the workload.
pub fn failed_ops(attempted: u64, failed: u64, problems: &[String]) -> u64 {
    if failed == 0 && !problems.is_empty() {
        attempted
    } else {
        failed
    }
}

/// Eq. 1's per-step numerator of `deck` as built (step 0).
pub fn built_work(deck: Deck, ctx: &Ctx) -> Result<f64, String> {
    let (sim, _) = deck.config(ctx.seed)?.build()?;
    Ok(fom_work(&sim))
}

/// Run `w` for about `seconds` and fold the rounds.
pub fn run(w: Workload, ctx: &Ctx, seconds: f64) -> Result<Outcome, String> {
    let t_run = Instant::now();
    let deck = w.deck();
    let sizes = Sizes::of(deck, ctx.smoke);
    let deck_path = deck.generate(ctx.seed, &ctx.scratch.root)?;
    let mut problems = Vec::new();

    // What the measured rounds are checked against, computed inside the
    // run's time budget but outside any measured interval: the serial
    // library digest for the two other MR paths, Eq. 1's numerator for
    // the process workloads.
    let mut reference_digest = None;
    let mut work = (0.0, 0.0);
    match w {
        Workload::MrHybridDist2 | Workload::CliSocket2 => {
            let serial = library::round(deck, &deck_path, 1, sizes)?;
            problems.extend(
                serial
                    .problems
                    .iter()
                    .map(|p| format!("serial reference: {p}")),
            );
            reference_digest = serial.digest;
            work.0 = serial.fom_work / sizes.timed as f64;
        }
        Workload::ServePreempt => {
            work = (
                built_work(Deck::LwfaWindowF32, ctx)?,
                built_work(Deck::MrHybrid, ctx)?,
            );
        }
        _ => {}
    }

    let mut rounds: Vec<Round> = Vec::new();
    let t_rounds = Instant::now();
    loop {
        let round = match w {
            Workload::CliSocket2 => {
                let dir = ctx.scratch.subdir(&format!("cli{}", rounds.len()))?;
                cli_round(&deck_path, &dir, sizes, work.0)?.round
            }
            Workload::ServePreempt => {
                let dir = ctx.scratch.subdir(&format!("srv{}", rounds.len()))?;
                let budgets = if ctx.smoke {
                    SERVE_BUDGETS_SMALL
                } else {
                    SERVE_BUDGETS
                };
                serve_round(ctx, &dir, budgets, work)?.round
            }
            _ => library::round(deck, &deck_path, w.ranks(), sizes)?,
        };
        rounds.push(round);
        // Whole rounds only: another one starts if it is expected to
        // end (with 15 % slack) inside the run's seconds.
        let per_round = t_rounds.elapsed().as_secs_f64() / rounds.len() as f64;
        if ctx.smoke || t_run.elapsed().as_secs_f64() + 1.15 * per_round > seconds {
            break;
        }
    }

    let mut digest = None;
    for r in &rounds {
        problems.extend(r.problems.iter().cloned());
        if w.shares_mr_digest() {
            if digest.is_some_and(|d| Some(d) != r.digest) {
                problems.push("state_digest differs between rounds of one run".to_string());
            }
            digest = r.digest;
        }
    }
    if reference_digest.is_some() && digest != reference_digest {
        problems.push(format!(
            "state_digest {:016x} differs from the serial library run's {:016x}",
            digest.unwrap_or(0),
            reference_digest.unwrap_or(0)
        ));
    }
    let attempted: u64 = rounds.iter().map(|r| r.ops).sum();
    let failed = failed_ops(attempted, rounds.iter().map(|r| r.failed).sum(), &problems);

    let col = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let steps: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    if steps.is_empty() {
        return Err(format!("{}: no step was timed", w.name()));
    }
    let run_wall = median(&col(|r| r.run_wall_s));
    let peak = match w {
        Workload::CliSocket2 | Workload::ServePreempt => sys::children_peak_rss_mb(),
        _ => sys::self_peak_rss_mb(),
    };
    let mut m = Metrics::default();
    m.put("setup_s", median(&col(|r| r.setup_s)), "s");
    m.put("run_wall_s", run_wall, "s");
    m.put("step_ms_p50", percentile(&steps, 50.0), "ms");
    m.put(
        "fom_per_s",
        median(&col(|r| r.fom_work / r.run_wall_s)),
        "1/s",
    );
    m.put("peak_rss_mb", peak, "MB");
    let mut info = Metrics::default();
    info.put("step_ms_p90", percentile(&steps, 90.0), "ms");
    info.put("first_record_s", median(&col(|r| r.first_record_s)), "s");
    Ok(Outcome {
        metrics: m,
        info,
        attempted,
        failed,
        problems,
        digest,
        round_wall_s: col(|r| r.run_wall_s),
        step_samples: steps.len(),
    })
}
