//! The electromagnetic state of one mesh level.

use mrpic_amr::{BoxArray, CommStats, Fab, FabArray, IndexBox, IntVect, Periodicity, Stagger};
use mrpic_kernels::view::{FieldView, FieldViewMut, Geom};
use serde::{Deserialize, Serialize};

/// Simulation dimensionality. 2-D is the x–z plane with all three vector
/// components retained (2D3V); the y axis has a single cell whose size
/// acts as the slab thickness in charge/current normalization.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dim {
    Two,
    Three,
}

impl Dim {
    /// Axes with real spatial extent.
    pub fn axes(self) -> &'static [usize] {
        match self {
            Dim::Two => &[0, 2],
            Dim::Three => &[0, 1, 2],
        }
    }
}

/// Uniform grid geometry of a level: cell sizes and the physical
/// coordinate of the index-0 grid line per axis.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridGeom {
    pub dx: [f64; 3],
    pub x0: [f64; 3],
}

impl GridGeom {
    /// Physical coordinate of grid line `i` along axis `d`.
    #[inline]
    pub fn node(&self, d: usize, i: i64) -> f64 {
        self.x0[d] + self.dx[d] * i as f64
    }

    /// Physical cell index (floor) of a position along axis `d`.
    #[inline]
    pub fn cell_of(&self, d: usize, x: f64) -> i64 {
        ((x - self.x0[d]) / self.dx[d]).floor() as i64
    }

    /// Kernel geometry (shared origin because indices are global).
    #[inline]
    pub fn kernel_geom(&self) -> Geom {
        Geom {
            xmin: self.x0,
            dx: self.dx,
        }
    }

    /// Geometry refined by integer ratio `r` (same physical origin).
    pub fn refine(&self, r: IntVect) -> GridGeom {
        GridGeom {
            dx: [
                self.dx[0] / r.x as f64,
                self.dx[1] / r.y as f64,
                self.dx[2] / r.z as f64,
            ],
            x0: self.x0,
        }
    }
}

/// Yee staggering of component `c` (0 = x, 1 = y, 2 = z) of E or J.
/// In 2-D the y axis is collapsed to one point (treated as half).
pub fn e_stagger(dim: Dim, c: usize) -> Stagger {
    let mut s = Stagger::efield(c);
    if dim == Dim::Two {
        s.0[1] = false;
    }
    s
}

/// Yee staggering of component `c` of B.
pub fn b_stagger(dim: Dim, c: usize) -> Stagger {
    let mut s = Stagger::bfield(c);
    if dim == Dim::Two {
        s.0[1] = false;
    }
    s
}

/// Nodal staggering (charge density); y collapsed in 2-D.
pub fn rho_stagger(dim: Dim) -> Stagger {
    let mut s = Stagger::NODAL;
    if dim == Dim::Two {
        s.0[1] = false;
    }
    s
}

/// E, B and J of one level over one box array.
#[derive(Clone, Debug)]
pub struct FieldSet {
    pub dim: Dim,
    pub geom: GridGeom,
    pub period: Periodicity,
    pub e: [FabArray; 3],
    pub b: [FabArray; 3],
    pub j: [FabArray; 3],
    pub ngrow: i64,
}

impl FieldSet {
    /// Allocate zeroed fields over `ba`. `ngrow` must cover both the
    /// interpolation reach of the particle shape (order + 1) and the
    /// FDTD stencil (1).
    pub fn new(dim: Dim, ba: BoxArray, geom: GridGeom, period: Periodicity, ngrow: i64) -> Self {
        let gv = guard_vec(dim, ngrow);
        let mk = |st: Stagger| FabArray::new_vec(ba.clone(), st, 1, gv);
        Self {
            dim,
            geom,
            period,
            e: [
                mk(e_stagger(dim, 0)),
                mk(e_stagger(dim, 1)),
                mk(e_stagger(dim, 2)),
            ],
            b: [
                mk(b_stagger(dim, 0)),
                mk(b_stagger(dim, 1)),
                mk(b_stagger(dim, 2)),
            ],
            j: [
                mk(e_stagger(dim, 0)),
                mk(e_stagger(dim, 1)),
                mk(e_stagger(dim, 2)),
            ],
            ngrow,
        }
    }

    #[inline]
    pub fn boxarray(&self) -> &BoxArray {
        self.e[0].boxarray()
    }

    #[inline]
    pub fn nfabs(&self) -> usize {
        self.e[0].nfabs()
    }

    /// Domain cell box (union bounding box of the level).
    pub fn domain(&self) -> IndexBox {
        self.period.domain
    }

    /// Read-only kernel views of all six components of fab `i`.
    pub fn em_views(&self, i: usize) -> mrpic_kernels::gather::EmViews<'_, f64> {
        mrpic_kernels::gather::EmViews {
            ex: fab_view(&self.e[0], i),
            ey: fab_view(&self.e[1], i),
            ez: fab_view(&self.e[2], i),
            bx: fab_view(&self.b[0], i),
            by: fab_view(&self.b[1], i),
            bz: fab_view(&self.b[2], i),
        }
    }

    /// Zero the current arrays (start of a deposition phase).
    pub fn zero_j(&mut self) {
        for c in 0..3 {
            self.j[c].zero();
        }
    }

    /// Guard exchange of the currents after deposition.
    pub fn sum_j_boundaries(&mut self) {
        let period = self.period;
        for c in 0..3 {
            self.j[c].sum_boundary(&period);
        }
    }

    /// Guard exchange of E.
    pub fn fill_e_boundaries(&mut self) {
        let period = self.period;
        for c in 0..3 {
            self.e[c].fill_boundary(&period);
        }
    }

    /// Guard exchange of B.
    pub fn fill_b_boundaries(&mut self) {
        let period = self.period;
        for c in 0..3 {
            self.b[c].fill_boundary(&period);
        }
    }

    /// Shift all field data by `s` cells (moving window) and refresh
    /// guards.
    pub fn shift_window(&mut self, s: IntVect) {
        for c in 0..3 {
            self.e[c].shift_data(s);
            self.b[c].shift_data(s);
            self.j[c].shift_data(s);
        }
        self.fill_e_boundaries();
        self.fill_b_boundaries();
    }

    /// Apply `f` to every field array (E, B and J components).
    pub fn for_each_array(&self, mut f: impl FnMut(&FabArray)) {
        for c in 0..3 {
            f(&self.e[c]);
            f(&self.b[c]);
            f(&self.j[c]);
        }
    }

    /// Drop all cached exchange plans (e.g. after a rebalance).
    pub fn invalidate_plans(&mut self) {
        for c in 0..3 {
            self.e[c].invalidate_plans();
            self.b[c].invalidate_plans();
            self.j[c].invalidate_plans();
        }
    }

    /// Aggregate communication counters across all nine arrays.
    pub fn comm_stats(&self) -> CommStats {
        let mut total = CommStats::default();
        self.for_each_array(|fa| total.merge(&fa.stats()));
        total
    }

    /// Total bytes of field storage (capability/telemetry).
    pub fn bytes(&self) -> usize {
        let sum = |fa: &FabArray| fa.fabs().iter().map(|f| f.bytes()).sum::<usize>();
        self.e.iter().map(&sum).sum::<usize>()
            + self.b.iter().map(&sum).sum::<usize>()
            + self.j.iter().map(&sum).sum::<usize>()
    }
}

/// Guard widths for a dimensionality: 2-D keeps the collapsed y axis a
/// single plane (no guards, no dynamics).
pub fn guard_vec(dim: Dim, ngrow: i64) -> IntVect {
    match dim {
        Dim::Three => IntVect::splat(ngrow),
        Dim::Two => IntVect::new(ngrow, 0, ngrow),
    }
}

/// Build a kernel view of component fab `i` of a fab array.
pub fn fab_view(fa: &FabArray, i: usize) -> FieldView<'_, f64> {
    view_of_fab(fa.fab(i))
}

/// Kernel view of a single fab (component 0).
pub fn view_of_fab(fab: &Fab) -> FieldView<'_, f64> {
    let ix = fab.indexer();
    let st = fab.stagger();
    FieldView {
        data: fab.comp(0),
        lo: ix.lo.to_array(),
        nx: ix.nx,
        nxy: ix.nxy,
        half: [!st.is_nodal(0), !st.is_nodal(1), !st.is_nodal(2)],
    }
}

/// Mutable kernel view of a single fab (component 0).
pub fn view_of_fab_mut(fab: &mut Fab) -> FieldViewMut<'_, f64> {
    let ix = fab.indexer();
    let st = fab.stagger();
    FieldViewMut {
        lo: ix.lo.to_array(),
        nx: ix.nx,
        nxy: ix.nxy,
        half: [!st.is_nodal(0), !st.is_nodal(1), !st.is_nodal(2)],
        data: fab.comp_mut(0),
    }
}

/// Kernel view with the index metadata of `fab` but externally owned
/// data, e.g. a per-box deposition buffer that is reduced into the fab
/// afterwards. `data` must have the fab's component length.
pub fn view_over<'a>(fab: &Fab, data: &'a mut [f64]) -> FieldViewMut<'a, f64> {
    assert_eq!(data.len(), fab.comp(0).len(), "buffer/fab size mismatch");
    let ix = fab.indexer();
    let st = fab.stagger();
    FieldViewMut {
        lo: ix.lo.to_array(),
        nx: ix.nx,
        nxy: ix.nxy,
        half: [!st.is_nodal(0), !st.is_nodal(1), !st.is_nodal(2)],
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrpic_amr::IntVect;

    fn mk3() -> FieldSet {
        let dom = IndexBox::from_size(IntVect::new(8, 8, 8));
        let ba = BoxArray::chop(dom, IntVect::splat(4));
        let geom = GridGeom {
            dx: [1e-6; 3],
            x0: [0.0; 3],
        };
        FieldSet::new(Dim::Three, ba, geom, Periodicity::all(dom), 2)
    }

    #[test]
    fn staggering_follows_yee() {
        let fs = mk3();
        assert_eq!(fs.e[0].stagger(), Stagger::EX);
        assert_eq!(fs.b[2].stagger(), Stagger::BZ);
        assert_eq!(fs.j[1].stagger(), Stagger::EY);
    }

    #[test]
    fn two_d_collapses_y() {
        let dom = IndexBox::from_size(IntVect::new(8, 1, 8));
        let ba = BoxArray::single(dom);
        let geom = GridGeom {
            dx: [1e-6; 3],
            x0: [0.0; 3],
        };
        let fs = FieldSet::new(Dim::Two, ba, geom, Periodicity::none(dom), 2);
        // Every component stores a single y plane per y cell.
        for c in 0..3 {
            assert!(!fs.e[c].stagger().is_nodal(1));
            assert!(!fs.b[c].stagger().is_nodal(1));
        }
        assert_eq!(Dim::Two.axes(), &[0, 2]);
    }

    #[test]
    fn geometry_helpers() {
        let g = GridGeom {
            dx: [0.5, 1.0, 2.0],
            x0: [10.0, 0.0, -4.0],
        };
        assert_eq!(g.node(0, 4), 12.0);
        assert_eq!(g.cell_of(0, 11.9), 3);
        assert_eq!(g.cell_of(2, -3.9), 0);
        let r = g.refine(IntVect::splat(2));
        assert_eq!(r.dx[0], 0.25);
        assert_eq!(r.x0, g.x0);
        let kg = g.kernel_geom();
        assert_eq!(kg.xmin, g.x0);
    }

    #[test]
    fn views_share_layout_with_fabs() {
        let mut fs = mk3();
        fs.e[0].fab_mut(0).set(0, IntVect::new(1, 2, 3), 7.0);
        let v = fs.em_views(0);
        assert_eq!(v.ex.get(1, 2, 3), 7.0);
        assert!(v.ex.half[0] && !v.ex.half[1]);
        assert!(!v.bx.half[0] && v.bx.half[1]);
    }

    #[test]
    fn window_shift_moves_all_fields() {
        let mut fs = mk3();
        let p = IntVect::new(5, 2, 2);
        fs.b[2]
            .fab_mut(fs.boxarray().find_cell(p).unwrap())
            .set(0, p, 3.0);
        fs.shift_window(IntVect::new(2, 0, 0));
        assert_eq!(fs.b[2].at(0, IntVect::new(3, 2, 2)).unwrap(), 3.0);
    }

    #[test]
    fn bytes_accounts_all_arrays() {
        let fs = mk3();
        assert!(fs.bytes() > 9 * 8 * 8 * 8 * 8);
    }
}
