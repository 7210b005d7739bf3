//! `mrpic-core` — the mesh-refined electromagnetic PIC simulation driver.
//!
//! This crate assembles the substrates (`mrpic-amr` meshes, `mrpic-field`
//! Maxwell solve, `mrpic-kernels` particle loops) into the full PIC cycle
//! of the paper's Fig. 3, with the capabilities of its Table I:
//!
//! * high-order particle shapes ([`ShapeOrder`]),
//! * a moving window that follows the laser ([`sim::MovingWindow`]),
//! * dynamic load balancing from measured per-box costs ([`balance`]),
//! * **electromagnetic mesh refinement** ([`mr`]) with collocated
//!   fine/coarse patches, PML termination, current restriction to the
//!   parent and auxiliary-field substitution for the particle gather,
//! * plasma profiles for gas jets, solid foils and the paper's hybrid
//!   solid–gas target ([`profile`]),
//! * a laser antenna with oblique incidence ([`laser`]),
//! * reduced diagnostics: beam charge, spectra, field slices ([`diag`]),
//! * checkpoint/restart ([`checkpoint`]),
//! * the run loop every driver shares, with the process exit contract
//!   ([`run`]).

// Stencil and particle loops index several parallel arrays by the same
// counter; iterator zips would obscure the numerics. Silence the style
// lint crate-wide rather than per-loop.
#![allow(clippy::needless_range_loop)]

pub mod balance;
pub mod checkpoint;
pub mod config;
pub mod diag;
pub mod exchange;
pub mod laser;
pub mod mr;
pub mod particles;
pub mod profile;
pub mod run;
pub mod sim;
pub mod species;
pub mod telemetry;

pub use particles::{ParticleBuf, ParticleContainer};
pub use profile::Profile;
pub use sim::{ShapeOrder, Simulation, SimulationBuilder};
pub use species::Species;
