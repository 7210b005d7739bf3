//! Field-energy diagnostics.

use crate::fieldset::FieldSet;
use mrpic_kernels::constants::{EPS0, MU0};

/// Total electromagnetic field energy \[J\]:
/// `U = ∫ (eps0/2) E² + 1/(2 mu0) B² dV`, each staggered component
/// integrated on its own lattice (second-order accurate).
pub fn field_energy(fs: &FieldSet) -> f64 {
    let dv = fs.geom.dx[0] * fs.geom.dx[1] * fs.geom.dx[2];
    let mut e2 = 0.0;
    let mut b2 = 0.0;
    for c in 0..3 {
        e2 += fs.e[c].sum_comp_map(0, |v| v * v);
        b2 += fs.b[c].sum_comp_map(0, |v| v * v);
    }
    dv * (0.5 * EPS0 * e2 + 0.5 / MU0 * b2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fieldset::{Dim, GridGeom};
    use mrpic_amr::{BoxArray, IndexBox, IntVect, Periodicity};

    #[test]
    fn uniform_field_energy_is_exact() {
        let dom = IndexBox::from_size(IntVect::new(8, 8, 8));
        let ba = BoxArray::chop(dom, IntVect::splat(4));
        let geom = GridGeom {
            dx: [1.0e-6; 3],
            x0: [0.0; 3],
        };
        let mut fs = FieldSet::new(Dim::Three, ba, geom, Periodicity::all(dom), 1);
        let e0 = 5.0e9;
        for fi in 0..fs.nfabs() {
            fs.e[0].fab_mut(fi).fill(e0);
        }
        // Ex points per periodic volume: with owned-region dedup the total
        // is (8)(9)(9) points; energy density eps0/2 E^2 times dv each.
        let u = field_energy(&fs);
        let pts = (8 * 9 * 9) as f64;
        let want = 0.5 * EPS0 * e0 * e0 * 1.0e-18 * pts;
        assert!((u - want).abs() < 1e-9 * want, "{u} vs {want}");
    }
}
