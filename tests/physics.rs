//! Cross-crate physics integration tests: laser propagation through MR
//! patches, moving window + MR interplay, and global conservation during
//! laser–plasma interaction.

use mrpic::amr::{IndexBox, IntVect};
use mrpic::core::laser::antenna_for_a0;
use mrpic::core::mr::MrConfig;
use mrpic::core::profile::Profile;
use mrpic::core::sim::{ShapeOrder, SimulationBuilder};
use mrpic::core::species::Species;
use mrpic::field::fieldset::Dim;

/// A vacuum laser pulse crossing the MR patch region must not reflect
/// off the patch interface: the parent solution is independent of the
/// refined levels by construction.
#[test]
fn vacuum_pulse_crosses_mr_patch_without_reflection() {
    let dx = 0.05e-6;
    let build = || {
        SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(256, 1, 16), [dx; 3], [0.0; 3])
            .periodic([false, false, true])
            .pml(8)
            .cfl(0.6)
            .add_laser({
                let mut l = antenna_for_a0(1.0, 0.8e-6, 6.0e-15, 1.0e-6, 0.0, f64::INFINITY);
                l.t_peak = 10.0e-15;
                l
            })
            .build()
    };
    let mut plain = build();
    let mut refined = build();
    refined.add_mr_patch(MrConfig {
        patch: IndexBox::new(IntVect::new(100, 0, 0), IntVect::new(160, 1, 16)),
        rr: 2,
        n_transition: 2,
        npml: 8,
        subcycle: false,
    });
    plain.dt = refined.dt;
    // Run until the pulse has fully crossed the patch region.
    let steps = (30.0e-15 / plain.dt) as usize;
    for _ in 0..steps {
        plain.step();
        refined.step();
    }
    // Parent fields agree everywhere to near machine precision: with no
    // particles the fine/coarse patches hold zero and never feed back.
    let mut max_diff = 0.0f64;
    let mut max_ref = 0.0f64;
    for i in 0..256 {
        let p = IntVect::new(i, 0, 8);
        let (a, b) = (
            plain.fs.e[1].at(0, p).unwrap(),
            refined.fs.e[1].at(0, p).unwrap(),
        );
        max_diff = max_diff.max((a - b).abs());
        max_ref = max_ref.max(a.abs());
    }
    assert!(max_ref > 0.0);
    assert!(
        max_diff < 1e-9 * max_ref,
        "patch disturbed a vacuum pulse: {:.2e} rel",
        max_diff / max_ref
    );
}

/// Moving window and MR together: the patch data slides with the grid
/// and the run stays stable.
#[test]
fn moving_window_with_mr_patch_is_stable() {
    let dx = 0.1e-6;
    let mut sim = SimulationBuilder::new(Dim::Two)
        .domain(IntVect::new(128, 1, 16), [dx; 3], [0.0; 3])
        .periodic([false, false, true])
        .pml(8)
        .cfl(0.6)
        .moving_window(20.0e-15)
        .add_species(Species::electrons(
            "gas",
            Profile::Uniform { n0: 5.0e24 },
            [1, 1, 1],
        ))
        .add_laser({
            let mut l = antenna_for_a0(0.8, 0.8e-6, 5.0e-15, 1.0e-6, 0.0, f64::INFINITY);
            l.t_peak = 8.0e-15;
            l
        })
        .build();
    sim.add_mr_patch(MrConfig {
        patch: IndexBox::new(IntVect::new(48, 0, 0), IntVect::new(80, 1, 16)),
        rr: 2,
        n_transition: 2,
        npml: 6,
        subcycle: false,
    });
    let steps = (60.0e-15 / sim.dt) as usize;
    for _ in 0..steps {
        sim.step();
    }
    assert!(sim.fs.geom.x0[0] > 0.0, "window never moved");
    let peak = sim.fs.e[1].max_abs(0);
    assert!(peak.is_finite() && peak > 0.0);
    // No runaway: fields bounded by a few times the laser amplitude.
    assert!(peak < 10.0 * sim.lasers[0].e0, "instability: {peak:e}");
    // Particles stayed owned by the correct boxes through the shifts.
    let ba = sim.fs.boxarray().clone();
    let geom = sim.fs.geom;
    assert!(sim.parts[0].check_ownership(&ba, &geom));
}

/// Energy accounting during laser absorption: field energy converts to
/// particle kinetic energy; the total (plus PML losses) never grows.
#[test]
fn laser_plasma_energy_budget() {
    let dx = 0.05e-6;
    let nc = mrpic::kernels::constants::critical_density(0.8e-6);
    let mut sim = SimulationBuilder::new(Dim::Two)
        .domain(IntVect::new(192, 1, 32), [dx; 3], [0.0; 3])
        .periodic([false, false, true])
        .pml(8)
        .order(ShapeOrder::Quadratic)
        .cfl(0.6)
        .add_species(Species::electrons(
            "foil",
            Profile::Slab {
                n0: 3.0 * nc,
                axis: 0,
                x0: 6.0e-6,
                x1: 7.0e-6,
            },
            [2, 1, 2],
        ))
        .add_laser({
            let mut l = antenna_for_a0(1.5, 0.8e-6, 6.0e-15, 1.0e-6, 0.8e-6, 1.5e-6);
            l.t_peak = 10.0e-15;
            l
        })
        .build();
    let mut peak_total = 0.0f64;
    let steps = (45.0e-15 / sim.dt) as usize;
    let mut ke_final = 0.0;
    for _ in 0..steps {
        sim.step();
        let (fe, ke) = sim.total_energy();
        peak_total = peak_total.max(fe + ke);
        ke_final = ke;
    }
    // Electrons were heated.
    assert!(ke_final > 0.0);
    let (fe_end, ke_end) = sim.total_energy();
    // After the pulse leaves (PML absorbs it), remaining energy is below
    // the peak: nothing was created from nothing.
    assert!(
        fe_end + ke_end <= 1.02 * peak_total,
        "energy grew: {:.3e} vs peak {:.3e}",
        fe_end + ke_end,
        peak_total
    );
}
