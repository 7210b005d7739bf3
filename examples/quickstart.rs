//! Quickstart: a uniform plasma oscillating at its plasma frequency.
//!
//! Demonstrates the minimal mrpic workflow — build a simulation, step
//! it, read diagnostics — and prints the capability self-check of the
//! paper's Table I.
//!
//! Run with: `cargo run --release --example quickstart`

use mrpic::amr::IntVect;
use mrpic::core::profile::Profile;
use mrpic::core::sim::{ShapeOrder, SimulationBuilder};
use mrpic::core::species::Species;
use mrpic::field::fieldset::Dim;
use mrpic::kernels::constants::plasma_frequency;

fn main() {
    println!("mrpic {} — quickstart\n", mrpic::VERSION);

    // Capability self-check (paper Table I, WarpX column).
    println!("capabilities:");
    for (cap, how) in [
        (
            "high-order particle shapes",
            "ShapeOrder::{Linear,Quadratic,Cubic}",
        ),
        ("moving window", "SimulationBuilder::moving_window"),
        (
            "single-source CPU kernels",
            "mrpic-kernels (generic over f32/f64)",
        ),
        ("dynamic load balancing", "core::balance + LbPolicyCfg"),
        ("mesh refinement", "Simulation::add_mr_patch"),
        ("MR subcycling", "MrConfig { subcycle: true, .. }"),
        ("current smoothing", "SimulationBuilder::filter_passes"),
        ("checkpoint/restart", "core::checkpoint"),
    ] {
        println!("  [x] {cap:<28} {how}");
    }
    println!();

    // A 2-D uniform electron plasma with a small drift: the textbook
    // cold plasma oscillation.
    let n0 = 1.0e25; // m^-3
    let wp = plasma_frequency(n0);
    let dx = 0.5e-6;
    let mut sim = SimulationBuilder::new(Dim::Two)
        .domain(IntVect::new(64, 1, 16), [dx; 3], [0.0; 3])
        .periodic([true, true, true])
        .order(ShapeOrder::Quadratic)
        .cfl(0.5)
        .add_species(
            Species::electrons("electrons", Profile::Uniform { n0 }, [2, 1, 2])
                .with_drift([1.0e6, 0.0, 0.0]),
        )
        .build();

    println!(
        "domain 64x16 cells, {} macroparticles, dt = {:.2e} s",
        sim.total_particles(),
        sim.dt
    );
    println!(
        "expected plasma period: {:.1} steps\n",
        2.0 * std::f64::consts::PI / (wp * sim.dt)
    );

    // Track Ex at a probe over ~2 plasma periods.
    let steps = (2.2 * 2.0 * std::f64::consts::PI / (wp * sim.dt)) as usize;
    let probe = IntVect::new(32, 0, 8);
    let mut trace = Vec::with_capacity(steps);
    for _ in 0..steps {
        sim.step();
        trace.push(sim.fs.e[0].at(0, probe).unwrap());
    }

    // Crude period measurement from mean-crossings.
    let mean: f64 = trace.iter().sum::<f64>() / trace.len() as f64;
    let crossings: Vec<usize> = (1..trace.len())
        .filter(|&i| trace[i - 1] < mean && trace[i] >= mean)
        .collect();
    if crossings.len() >= 2 {
        let period =
            (crossings[crossings.len() - 1] - crossings[0]) as f64 / (crossings.len() - 1) as f64;
        let wp_meas = 2.0 * std::f64::consts::PI / (period * sim.dt);
        println!("measured plasma frequency: {wp_meas:.3e} rad/s");
        println!("analytic  plasma frequency: {wp:.3e} rad/s");
        println!("relative error: {:.2}%", 100.0 * (wp_meas / wp - 1.0).abs());
    } else {
        println!("warning: oscillation not resolved");
    }

    let (fe, ke) = sim.total_energy();
    println!("\nfinal field energy:   {fe:.3e} J");
    println!("final kinetic energy: {ke:.3e} J");
}
