//! The four library workloads: a `Simulation::step()` (or
//! `DistSim::step()`) loop on a generated deck, timed from outside.

use crate::decks::{self, Deck};
use crate::workloads::{Round, Sizes};
use mrpic::core::sim::Simulation;
use mrpic::dist::DistSim;
use std::path::Path;
use std::time::Instant;

/// Serial stepping, or the same simulation behind `ranks` in-process
/// rank threads over the mem transport.
pub enum Driver {
    Serial(Box<Simulation>),
    Dist(Box<DistSim>),
}

impl Driver {
    pub fn build(deck_path: &Path, ranks: usize) -> Result<Self, String> {
        let (sim, _removals) = decks::load(deck_path)?.build()?;
        Ok(if ranks > 1 {
            Driver::Dist(Box::new(DistSim::in_process(sim, ranks)))
        } else {
            Driver::Serial(Box::new(sim))
        })
    }

    // `let _ =`: the harness must not depend on what `step` returns.
    pub fn step(&mut self) {
        match self {
            Driver::Serial(s) => {
                let _ = s.step();
            }
            Driver::Dist(d) => {
                let _ = d.step();
            }
        }
    }

    pub fn sim(&self) -> &Simulation {
        match self {
            Driver::Serial(s) => s,
            Driver::Dist(d) => &d.sim,
        }
    }

    pub fn into_sim(self) -> Simulation {
        match self {
            Driver::Serial(s) => *s,
            Driver::Dist(d) => {
                let DistSim { sim, .. } = *d;
                sim
            }
        }
    }
}

/// Paper Eq. 1 numerator per step: `0.1·N_c + 0.9·N_p`.
pub fn fom_work(sim: &Simulation) -> f64 {
    0.1 * sim.total_cells() as f64 + 0.9 * sim.total_particles() as f64
}

/// Tolerances for `uniform_plasma`, the one deck with closed-form
/// invariants (periodic, no sources). Measured at seeds 1-3 over the
/// 40 timed steps: relative total-energy drift 7.5e-5 .. 7.6e-5
/// (numerical heating), relative Gauss-residual drift <= 3.5e-16
/// (rounding). Recorded with x10 headroom or more on the energy and
/// three decades on the residual, so a re-ordered summation still
/// passes and a charge-conservation bug (drift >= 1e-6) does not.
const ENERGY_DRIFT_MAX: f64 = 1e-3;
const GAUSS_DRIFT_MAX: f64 = 1e-12;

struct Invariants {
    particles: usize,
    energy: f64,
    gauss: f64,
}

fn invariants(sim: &Simulation) -> Invariants {
    let (fe, ke) = sim.total_energy();
    Invariants {
        particles: sim.total_particles(),
        energy: fe + ke,
        gauss: sim.gauss_residual_norm(),
    }
}

/// Why the state at the end of a round is wrong, if it is.
fn check(deck: Deck, sim: &Simulation, start: &Invariants) -> Vec<String> {
    let mut bad = Vec::new();
    let end = invariants(sim);
    if !end.energy.is_finite() || !end.gauss.is_finite() {
        bad.push(format!(
            "non-finite energy {} or Gauss residual {}",
            end.energy, end.gauss
        ));
    }
    if sim.telemetry.tripped() {
        bad.push("the NaN/Inf guard tripped".to_string());
    }
    if end.particles == 0 {
        bad.push("no particles left".to_string());
    }
    if deck == Deck::UniformPlasma {
        if end.particles != start.particles {
            bad.push(format!(
                "particle count {} -> {} on a periodic domain",
                start.particles, end.particles
            ));
        }
        let de = ((end.energy - start.energy) / start.energy).abs();
        if de.is_nan() || de > ENERGY_DRIFT_MAX {
            bad.push(format!(
                "relative energy drift {de:e} > {ENERGY_DRIFT_MAX:e}"
            ));
        }
        let dg = ((end.gauss - start.gauss) / start.gauss).abs();
        if dg.is_nan() || dg > GAUSS_DRIFT_MAX {
            bad.push(format!(
                "relative Gauss-residual drift {dg:e} > {GAUSS_DRIFT_MAX:e}"
            ));
        }
    }
    bad
}

/// One round: parse + build + warm-up (`setup_s`), then `sizes.timed`
/// individually timed steps, then the correctness checks and digest.
pub fn round(deck: Deck, deck_path: &Path, ranks: usize, sizes: Sizes) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut drv = Driver::build(deck_path, ranks)?;
    drv.step();
    let first_record_s = t0.elapsed().as_secs_f64();
    for _ in 1..sizes.warmup {
        drv.step();
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let start = invariants(drv.sim());
    let work_per_step = fom_work(drv.sim());
    let mut step_ms = Vec::with_capacity(sizes.timed);
    for _ in 0..sizes.timed {
        let t = Instant::now();
        drv.step();
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let run_wall_s = step_ms.iter().sum::<f64>() / 1e3;

    let problems = check(deck, drv.sim(), &start);
    Ok(Round {
        setup_s,
        first_record_s,
        run_wall_s,
        fom_work: work_per_step * sizes.timed as f64,
        ops: sizes.timed as u64,
        failed: if problems.is_empty() {
            0
        } else {
            sizes.timed as u64
        },
        step_ms,
        digest: Some(drv.sim().state_digest()),
        problems,
    })
}
