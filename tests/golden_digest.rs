//! Golden state digests: `Simulation::state_digest` after a fixed number
//! of steps of three tiny 2-D decks is pinned to constants, so any change
//! that moves a single bit of the particle or field state — a kernel
//! re-association, a reordered deposit, a different particle blocking —
//! fails here instead of only in a cross-commit `mrpic_run` comparison.
//!
//! The decks cover the three particle-advance routes: `f64` with more
//! than two 1024-particle chunks per box, `f32_particles` (per-box `f32`
//! field casts and current tiles), and one mesh-refinement patch (aux
//! gather, fine deposit and the transition zone). A deliberate physics
//! change updates the constants in the same commit and says why.

use mrpic::amr::{IndexBox, IntVect};
use mrpic::core::mr::MrConfig;
use mrpic::core::profile::Profile;
use mrpic::core::sim::{Precision, ShapeOrder, Simulation, SimulationBuilder};
use mrpic::core::species::Species;
use mrpic::field::fieldset::Dim;

const STEPS: usize = 8;

/// Thermal periodic plasma in two 32×16 boxes, 6 particles per cell:
/// 3072 particles per box.
fn thermal(precision: Precision) -> Simulation {
    SimulationBuilder::new(Dim::Two)
        .domain(IntVect::new(32, 1, 32), [1.0e-6; 3], [0.0; 3])
        .periodic([true, true, true])
        .max_box(IntVect::new(32, 1, 16))
        .order(ShapeOrder::Quadratic)
        .cfl(0.6)
        .seed(3)
        .precision(precision)
        .add_species(
            Species::electrons("e", Profile::Uniform { n0: 1.0e24 }, [3, 1, 2])
                .with_thermal([1.0e7; 3]),
        )
        .build()
}

/// Drifting thermal plasma under one rr = 2 patch with a transition zone.
fn mr_patch() -> Simulation {
    let mut sim = SimulationBuilder::new(Dim::Two)
        .domain(IntVect::new(48, 1, 32), [0.5e-6; 3], [0.0; 3])
        .periodic([true, true, true])
        .order(ShapeOrder::Quadratic)
        .cfl(0.5)
        .seed(5)
        .add_species(
            Species::electrons("e", Profile::Uniform { n0: 2.0e24 }, [2, 1, 2])
                .with_drift([2.0e6, 0.0, 0.0])
                .with_thermal([3.0e6; 3]),
        )
        .build();
    sim.add_mr_patch(MrConfig {
        patch: IndexBox::new(IntVect::new(12, 0, 8), IntVect::new(36, 1, 24)),
        rr: 2,
        n_transition: 2,
        npml: 6,
        subcycle: false,
    });
    sim
}

fn digest_after(mut sim: Simulation) -> String {
    sim.run(STEPS);
    assert!(!sim.telemetry.tripped(), "golden deck tripped a guard");
    format!("{:016x}", sim.state_digest())
}

#[test]
fn f64_multi_chunk_boxes() {
    let sim = thermal(Precision::F64);
    assert!(sim.parts[0].bufs.iter().all(|b| b.len() > 2048));
    assert_eq!(digest_after(sim), "b24a04f5735a2a6a");
}

#[test]
fn f32_particles() {
    assert_eq!(
        digest_after(thermal(Precision::F32Particles)),
        "2041a651aee39b57"
    );
}

#[test]
fn mr_patch_routes() {
    assert_eq!(digest_after(mr_patch()), "ce8bbc0249e1a094");
}
