//! `mrpic-field` — Maxwell field solve on staggered Yee grids.
//!
//! Implements the field half of the PIC cycle (paper Fig. 3):
//!
//! * [`FieldSet`] — the E/B/J state of one mesh level over a box array,
//!   with the Yee staggering conventions shared with `mrpic-kernels`;
//! * [`yee`] — the explicit leapfrog finite-difference time-domain curl
//!   updates in 2-D (x–z) and 3-D, the recipe element (i) of the paper;
//! * [`pml`] — Berenger split-field Perfectly Matched Layers terminating
//!   domain boundaries and mesh-refinement patches (§V-B);
//! * [`energy`] — field-energy diagnostics;
//! * [`cfl`] — Courant time-step limits.

// Stencil and particle loops index several parallel arrays by the same
// counter; iterator zips would obscure the numerics. Silence the style
// lint crate-wide rather than per-loop.
#![allow(clippy::needless_range_loop)]

pub mod cfl;
pub mod energy;
pub mod fieldset;
pub mod filter;
pub mod pml;
pub mod poynting;
pub mod yee;

pub use fieldset::{Dim, FieldSet, GridGeom};
pub use pml::Pml;
