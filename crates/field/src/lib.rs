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
pub mod yee;

pub use fieldset::{Dim, FieldSet, GridGeom};
pub use pml::Pml;

/// Shared helpers of the kernels' bitwise oracle tests.
#[cfg(test)]
pub(crate) mod oracle {
    use mrpic_amr::FabArray;

    /// Overwrite every stored point (guards included) with deterministic
    /// junk: a third signed zeros, the rest spread over many magnitudes.
    pub fn junk_fill(fa: &mut FabArray, seed: u64) {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for fab in fa.fabs_mut() {
            for v in fab.raw_mut() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let sign = if s & 1 == 0 { 1.0 } else { -1.0 };
                *v = match (s >> 1) % 6 {
                    0 | 1 => sign * 0.0,
                    k => {
                        sign * ((s >> 11) as f64 / (1u64 << 53) as f64)
                            * 10f64.powi(k as i32 * 3 - 9)
                    }
                };
            }
        }
    }

    /// Every stored point of `a` and `b` has the same bits.
    pub fn assert_bitwise(a: &FabArray, b: &FabArray, what: &str) {
        assert_eq!(a.nfabs(), b.nfabs(), "{what}: fab count");
        for fi in 0..a.nfabs() {
            let (x, y) = (a.fab(fi).raw(), b.fab(fi).raw());
            assert_eq!(x.len(), y.len(), "{what}: fab {fi} size");
            for (n, (u, v)) in x.iter().zip(y).enumerate() {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "{what}: fab {fi} point {n}: {u:e} vs {v:e}"
                );
            }
        }
    }
}
