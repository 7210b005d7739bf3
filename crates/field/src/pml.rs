//! Berenger split-field Perfectly Matched Layers.
//!
//! Electromagnetic mesh refinement needs non-reflecting terminations: the
//! fine and coarse patch grids of each MR level — and the simulation
//! domain itself — are "terminated by absorbing layers (e.g. Perfectly
//! Matched Layers) to prevent the reflection of electromagnetic waves"
//! (paper §V-B). This module implements the classic Berenger split-field
//! PML: every E/B component is split into its two curl contributions,
//!
//! ```text
//! d(E_c)_1/dt + r_{a1} (E_c)_1 =  c² ∂B_{a2}/∂a1
//! d(E_c)_2/dt + r_{a2} (E_c)_2 = -c² ∂B_{a1}/∂a2
//! ```
//!
//! (and the analogous pair for B), with a polynomially graded damping
//! rate `r_d = r_max (depth/npml)^m` along each axis that has a layer.
//! Matched electric/magnetic rates guarantee a reflection-free interface
//! in the continuum; the residual discrete reflection is measured by the
//! tests below.
//!
//! The PML lives on a shell of slab boxes around the protected interior
//! region. Interfaces exchange guard data with the interior
//! [`FieldSet`]: the PML sees interior *totals* in its guards (stored as
//! split0 = total, split1 = 0, which is valid because only totals are
//! differentiated), and the interior sees PML totals in its guards.

use crate::fieldset::{b_stagger, e_stagger, Dim, FieldSet, GridGeom};
use mrpic_amr::{BoxArray, CommStats, FabArray, IndexBox, IntVect, Periodicity};
use mrpic_kernels::constants::{C, C2};

/// Default layer thickness in cells.
pub const DEFAULT_NPML: i64 = 12;
/// Polynomial grading exponent.
const GRADE_M: i32 = 3;
/// Target theoretical reflection coefficient.
const R0: f64 = 1.0e-8;

/// Cached interface-exchange plan between the PML shell and the interior
/// field array of one component, keyed by both arrays' layout generations.
#[derive(Clone, Debug)]
struct InterfacePlan {
    pml_gen: u64,
    field_gen: u64,
    /// (pml fab, field fab, region): interior valid -> PML guards.
    to_pml: Vec<(usize, usize, IndexBox)>,
    /// (field fab, pml fab, region): PML valid -> interior guards.
    to_field: Vec<(usize, usize, IndexBox)>,
}

/// The polynomial damping profile of a PML shell: `r_d = r_max (depth /
/// npml)^m` along each axis that carries a layer, zero inside the
/// protected interior.
#[derive(Clone, Copy, Debug)]
struct Grading {
    interior: IndexBox,
    npml: i64,
    /// Axes that carry a layer (non-periodic, spatially extended).
    active: [bool; 3],
    rate_max: [f64; 3],
}

impl Grading {
    /// Damping rate \[1/s\] at staggered coordinate `xi` (cell units)
    /// along axis `d`.
    #[inline]
    fn rate(&self, d: usize, xi: f64) -> f64 {
        if !self.active[d] {
            return 0.0;
        }
        let lo = self.interior.lo[d] as f64;
        let hi = self.interior.hi[d] as f64;
        let depth = (lo - xi).max(xi - hi).max(0.0);
        let frac = (depth / self.npml as f64).min(1.0);
        self.rate_max[d] * frac.powi(GRADE_M)
    }
}

/// Damping factors of one slab along its damping axis for one time step:
/// `rdt[t] = r dt` and `e[t] = exp(-r dt)` at the `t`-th point coordinate
/// of the slab, so a row update evaluates no `powi` or `exp`.
#[derive(Clone, Debug, Default)]
struct DampTable {
    rdt: Vec<f64>,
    e: Vec<f64>,
}

impl DampTable {
    /// Tabulate point coordinates `lo..hi` (staggered by `off`) along `d`.
    fn fill(&mut self, g: &Grading, d: usize, off: f64, lo: i64, hi: i64, dt: f64) {
        self.rdt.clear();
        self.e.clear();
        for p in lo..hi {
            let rdt = g.rate(d, p as f64 + off) * dt;
            self.rdt.push(rdt);
            self.e.push((-rdt).exp());
        }
    }
}

/// A split-field PML shell around a rectangular interior region.
#[derive(Clone, Debug)]
pub struct Pml {
    pub dim: Dim,
    grading: Grading,
    geom: GridGeom,
    shell_period: Periodicity,
    esplit: [FabArray; 3],
    bsplit: [FabArray; 3],
    /// Scratch for the per-slab damping factors of one split update.
    damp: DampTable,
    iface_e: [Option<InterfacePlan>; 3],
    iface_b: [Option<InterfacePlan>; 3],
    /// Wall-clock seconds spent in interface exchanges.
    iface_seconds: f64,
}

impl Pml {
    /// Build a PML of thickness `npml` cells around `interior`, skipping
    /// periodic axes (and y in 2-D).
    pub fn new(
        dim: Dim,
        interior: IndexBox,
        geom: GridGeom,
        periodic: [bool; 3],
        npml: i64,
    ) -> Self {
        assert!(npml >= 4, "PML thinner than 4 cells is ineffective");
        let mut active = [false; 3];
        for &d in dim.axes() {
            active[d] = !periodic[d];
        }
        // Build disjoint slab boxes covering the shell on active axes,
        // corners included.
        let mut slabs = Vec::new();
        let mut core = interior;
        for d in 0..3 {
            if !active[d] {
                continue;
            }
            let mut lo_slab = core;
            lo_slab.hi[d] = core.lo[d];
            lo_slab.lo[d] = core.lo[d] - npml;
            slabs.push(lo_slab);
            let mut hi_slab = core;
            hi_slab.lo[d] = core.hi[d];
            hi_slab.hi[d] = core.hi[d] + npml;
            slabs.push(hi_slab);
            core.lo[d] -= npml;
            core.hi[d] += npml;
        }
        let ba = BoxArray::from_boxes(slabs);
        assert!(!ba.is_empty(), "PML requested but every axis is periodic");
        let shell_period = Periodicity::new(interior, periodic);
        let gv = crate::fieldset::guard_vec(dim, 1);
        let mk_e = |c: usize| FabArray::new_vec(ba.clone(), e_stagger(dim, c), 2, gv);
        let mk_b = |c: usize| FabArray::new_vec(ba.clone(), b_stagger(dim, c), 2, gv);
        let mut rate_max = [0.0; 3];
        for d in 0..3 {
            if active[d] {
                rate_max[d] =
                    C * (GRADE_M as f64 + 1.0) * (1.0 / R0).ln() / (2.0 * npml as f64 * geom.dx[d]);
            }
        }
        Self {
            dim,
            grading: Grading {
                interior,
                npml,
                active,
                rate_max,
            },
            geom,
            shell_period,
            esplit: [mk_e(0), mk_e(1), mk_e(2)],
            bsplit: [mk_b(0), mk_b(1), mk_b(2)],
            damp: DampTable::default(),
            iface_e: [None, None, None],
            iface_b: [None, None, None],
            iface_seconds: 0.0,
        }
    }

    /// Aggregate communication counters over the six split shell arrays,
    /// with the interface-copy seconds folded into `seconds`.
    pub fn comm_stats(&self) -> CommStats {
        let mut total = CommStats::default();
        for c in 0..3 {
            total.merge(&self.esplit[c].stats());
            total.merge(&self.bsplit[c].stats());
        }
        total.seconds += self.iface_seconds;
        total
    }

    /// Drop all cached exchange and interface plans (e.g. after a restart
    /// overwrote the split-field data in place).
    pub fn invalidate_plans(&mut self) {
        for c in 0..3 {
            self.esplit[c].invalidate_plans();
            self.bsplit[c].invalidate_plans();
            self.iface_e[c] = None;
            self.iface_b[c] = None;
        }
    }

    /// Read access to the split E-field shell arrays (checkpointing).
    pub fn esplit(&self) -> &[FabArray; 3] {
        &self.esplit
    }

    /// Read access to the split B-field shell arrays (checkpointing).
    pub fn bsplit(&self) -> &[FabArray; 3] {
        &self.bsplit
    }

    /// Mutable access to the split E-field shell arrays (restore).
    pub fn esplit_mut(&mut self) -> &mut [FabArray; 3] {
        &mut self.esplit
    }

    /// Mutable access to the split B-field shell arrays (restore).
    pub fn bsplit_mut(&mut self) -> &mut [FabArray; 3] {
        &mut self.bsplit
    }

    #[inline]
    pub fn interior(&self) -> IndexBox {
        self.grading.interior
    }

    #[inline]
    pub fn npml(&self) -> i64 {
        self.grading.npml
    }

    pub fn boxarray(&self) -> &BoxArray {
        self.esplit[0].boxarray()
    }

    /// Damping rate \[1/s\] at staggered coordinate `xi` (cell units)
    /// along axis `d`.
    pub fn rate(&self, d: usize, xi: f64) -> f64 {
        self.grading.rate(d, xi)
    }

    /// Advance the split B components by `dt`.
    pub fn advance_b(&mut self, dt: f64) {
        let Pml {
            dim,
            grading,
            geom,
            shell_period,
            esplit,
            bsplit,
            damp,
            ..
        } = self;
        let mut split = SplitUpdate { grading, dt, damp };
        for c in 0..3 {
            let a1 = (c + 1) % 3;
            let a2 = (c + 2) % 3;
            // dB_c/dt = -(dE_{a2}/da1 - dE_{a1}/da2):
            //   split0 <- -dE_{a2}/da1, damped along a1 (forward diff)
            //   split1 <- +dE_{a1}/da2, damped along a2
            if has_axis(*dim, a1) {
                split.advance(
                    &mut bsplit[c],
                    0,
                    a1,
                    &esplit[a2],
                    -dt / geom.dx[a1],
                    IntVect::unit(a1),
                    IntVect::ZERO,
                );
            }
            if has_axis(*dim, a2) {
                split.advance(
                    &mut bsplit[c],
                    1,
                    a2,
                    &esplit[a1],
                    dt / geom.dx[a2],
                    IntVect::unit(a2),
                    IntVect::ZERO,
                );
            }
        }
        for c in 0..3 {
            bsplit[c].fill_boundary(shell_period);
        }
    }

    /// Advance the split E components by `dt` (no current in the PML).
    pub fn advance_e(&mut self, dt: f64) {
        let Pml {
            dim,
            grading,
            geom,
            shell_period,
            esplit,
            bsplit,
            damp,
            ..
        } = self;
        let mut split = SplitUpdate { grading, dt, damp };
        for c in 0..3 {
            let a1 = (c + 1) % 3;
            let a2 = (c + 2) % 3;
            // dE_c/dt = c² (dB_{a2}/da1 - dB_{a1}/da2):
            //   split0 <-  c² dB_{a2}/da1, damped along a1 (backward diff)
            //   split1 <- -c² dB_{a1}/da2, damped along a2
            if has_axis(*dim, a1) {
                split.advance(
                    &mut esplit[c],
                    0,
                    a1,
                    &bsplit[a2],
                    C2 * dt / geom.dx[a1],
                    IntVect::ZERO,
                    -IntVect::unit(a1),
                );
            }
            if has_axis(*dim, a2) {
                split.advance(
                    &mut esplit[c],
                    1,
                    a2,
                    &bsplit[a1],
                    -C2 * dt / geom.dx[a2],
                    IntVect::ZERO,
                    -IntVect::unit(a2),
                );
            }
        }
        for c in 0..3 {
            esplit[c].fill_boundary(shell_period);
        }
    }

    /// Exchange E at the interface: PML guards take interior values,
    /// interior guards take PML totals. Call after the interior E guards
    /// have been filled.
    pub fn exchange_e(&mut self, fs: &mut FieldSet) {
        let t0 = std::time::Instant::now();
        for c in 0..3 {
            exchange_component(&mut self.iface_e[c], &mut self.esplit[c], &mut fs.e[c]);
        }
        self.iface_seconds += t0.elapsed().as_secs_f64();
    }

    /// Exchange B at the interface (see [`Self::exchange_e`]).
    pub fn exchange_b(&mut self, fs: &mut FieldSet) {
        let t0 = std::time::Instant::now();
        for c in 0..3 {
            exchange_component(&mut self.iface_b[c], &mut self.bsplit[c], &mut fs.b[c]);
        }
        self.iface_seconds += t0.elapsed().as_secs_f64();
    }

    /// Shift data with the moving window.
    pub fn shift_window(&mut self, s: IntVect) {
        for c in 0..3 {
            self.esplit[c].shift_data(s);
            self.bsplit[c].shift_data(s);
        }
    }

    /// Total field energy inside the layer (diagnostics: should decay).
    pub fn stored_energy(&self) -> f64 {
        let dv = self.geom.dx[0] * self.geom.dx[1] * self.geom.dx[2];
        let mut e2 = 0.0;
        let mut b2 = 0.0;
        for c in 0..3 {
            for comp in 0..2 {
                e2 += self.esplit[c].sum_comp_map(comp, |v| v * v);
                b2 += self.bsplit[c].sum_comp_map(comp, |v| v * v);
            }
        }
        dv * (0.5 * mrpic_kernels::constants::EPS0 * e2 + 0.5 / mrpic_kernels::constants::MU0 * b2)
    }
}

/// True when the derivative along `axis` exists in dimensionality `dim`
/// (in 2-D every y derivative vanishes *and* the collapsed single-plane
/// arrays must never be offset along y).
#[inline]
fn has_axis(dim: Dim, axis: usize) -> bool {
    dim == Dim::Three || axis != 1
}

/// The damping profile, time step and table scratch shared by the split
/// updates of one half step.
struct SplitUpdate<'a> {
    grading: &'a Grading,
    dt: f64,
    damp: &'a mut DampTable,
}

impl SplitUpdate<'_> {
    /// Exponentially damped update of one split component:
    /// `f' = f e^{-r dt} + D (1 - e^{-r dt}) / (r dt)` with
    /// `D = coef * (tot[p+op] - tot[p+om])` the undamped increment, or
    /// `f' = f + D` where `r dt < 1e-12`. The damping factors come from a
    /// per-slab table along `damp_axis`, so every row is a branch-free
    /// loop (x-damped rows select per point, y/z-damped rows are uniform).
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &mut self,
        dst: &mut FabArray,
        split: usize,
        damp_axis: usize,
        src: &FabArray,
        coef: f64,
        op: IntVect,
        om: IntVect,
    ) {
        let off = dst.stagger().offset(damp_axis);
        let tab = &mut *self.damp;
        for fi in 0..dst.nfabs() {
            let sfab = src.fab(fi);
            let six = sfab.indexer();
            let (s0, s1) = (sfab.comp(0), sfab.comp(1));
            let fab = dst.fab_mut(fi);
            let vb = fab.valid_pts();
            let dix = fab.indexer();
            let data = fab.comp_mut(split);
            let w = (vb.hi.x - vb.lo.x) as usize;
            let tlo = vb.lo[damp_axis];
            tab.fill(self.grading, damp_axis, off, tlo, vb.hi[damp_axis], self.dt);
            for k in vb.lo.z..vb.hi.z {
                for jj in vb.lo.y..vb.hi.y {
                    let drow = dix.at(vb.lo.x, jj, k);
                    let prow = six.at(vb.lo.x + op.x, jj + op.y, k + op.z);
                    let mrow = six.at(vb.lo.x + om.x, jj + om.y, k + om.z);
                    let row = &mut data[drow..drow + w];
                    let (p0, p1) = (&s0[prow..prow + w], &s1[prow..prow + w]);
                    let (m0, m1) = (&s0[mrow..mrow + w], &s1[mrow..mrow + w]);
                    let inc = |i: usize| coef * ((p0[i] + p1[i]) - (m0[i] + m1[i]));
                    if damp_axis == 0 {
                        let (rdt, e) = (&tab.rdt[..w], &tab.e[..w]);
                        for i in 0..w {
                            row[i] = damped(row[i], inc(i), rdt[i], e[i]);
                        }
                        continue;
                    }
                    // The damping coordinate is constant along the row.
                    let t = (if damp_axis == 1 { jj } else { k } - tlo) as usize;
                    let (rdt, e) = (tab.rdt[t], tab.e[t]);
                    if rdt < 1e-12 {
                        for i in 0..w {
                            row[i] += inc(i);
                        }
                    } else {
                        for i in 0..w {
                            row[i] = row[i] * e + inc(i) * (1.0 - e) / rdt;
                        }
                    }
                }
            }
        }
    }
}

/// One damped split point: `v + d_inc` where `rdt < 1e-12`, else
/// `v e + d_inc (1 - e) / rdt`. Both sides are evaluated and selected,
/// so a row of these vectorizes.
#[inline(always)]
fn damped(v: f64, d_inc: f64, rdt: f64, e: f64) -> f64 {
    let decayed = v * e + d_inc * (1.0 - e) / rdt;
    if rdt < 1e-12 {
        v + d_inc
    } else {
        decayed
    }
}

/// Build the interface plan for one component: all (pml, field) region
/// intersections in both directions, in deterministic iteration order.
fn build_interface_plan(pml: &FabArray, field: &FabArray) -> InterfacePlan {
    let mut to_pml = Vec::new();
    for pi in 0..pml.nfabs() {
        let grown = pml.fab(pi).grown_pts();
        for fi in 0..field.nfabs() {
            let valid = field.fab(fi).valid_pts();
            if let Some(region) = valid.intersect(&grown) {
                to_pml.push((pi, fi, region));
            }
        }
    }
    let mut to_field = Vec::new();
    for fi in 0..field.nfabs() {
        let fab = field.fab(fi);
        let guard_pieces = fab.grown_pts().subtract(&fab.valid_pts());
        for piece in &guard_pieces {
            for pi in 0..pml.nfabs() {
                let valid = pml.fab(pi).valid_pts();
                if let Some(region) = valid.intersect(piece) {
                    to_field.push((fi, pi, region));
                }
            }
        }
    }
    InterfacePlan {
        pml_gen: pml.generation(),
        field_gen: field.generation(),
        to_pml,
        to_field,
    }
}

/// Interface exchange for one component: interior valid -> PML guards
/// (split0 = total, split1 = 0) and PML totals -> interior guards. The
/// region plan is cached in `slot` and reused until either array's
/// layout generation changes.
fn exchange_component(slot: &mut Option<InterfacePlan>, pml: &mut FabArray, field: &mut FabArray) {
    let stale = match slot {
        Some(p) => p.pml_gen != pml.generation() || p.field_gen != field.generation(),
        None => true,
    };
    if stale {
        *slot = Some(build_interface_plan(pml, field));
    }
    let plan = slot.as_ref().expect("plan just ensured");
    // Every region lies inside both fabs' point boxes by construction
    // (valid ∩ grown), so the row copies need no clipping. `pml` and
    // `field` are distinct arrays, so they borrow src/dst directly.
    // Interior -> PML guards: split0 = total, split1 = 0, one pass.
    for &(pi, fi, region) in &plan.to_pml {
        let src = field.fab(fi);
        let six = src.indexer();
        let tot = src.comp(0);
        let dst = pml.fab_mut(pi);
        let dix = dst.indexer();
        let (d0, d1) = dst.comp2_mut(0, 1);
        for_rows(&region, |i, j, k, w| {
            let (so, po) = (six.at(i, j, k), dix.at(i, j, k));
            let rows = d0[po..po + w].iter_mut().zip(&mut d1[po..po + w]);
            for ((v0, v1), &t) in rows.zip(&tot[so..so + w]) {
                *v0 = t;
                *v1 = 0.0;
            }
        });
    }
    // PML valid -> interior guards: split0 + split1, one pass.
    for &(fi, pi, region) in &plan.to_field {
        let src = pml.fab(pi);
        let six = src.indexer();
        let (s0, s1) = (src.comp(0), src.comp(1));
        let dst = field.fab_mut(fi);
        let dix = dst.indexer();
        let tot = dst.comp_mut(0);
        for_rows(&region, |i, j, k, w| {
            let (so, po) = (six.at(i, j, k), dix.at(i, j, k));
            let splits = s0[so..so + w].iter().zip(&s1[so..so + w]);
            for (v, (&a, &b)) in tot[po..po + w].iter_mut().zip(splits) {
                *v = a + b;
            }
        });
    }
}

/// Call `f(lo.x, j, k, width)` for every x row of `region`.
#[inline]
fn for_rows(region: &IndexBox, mut f: impl FnMut(i64, i64, i64, usize)) {
    let w = (region.hi.x - region.lo.x) as usize;
    for k in region.lo.z..region.hi.z {
        for j in region.lo.y..region.hi.y {
            f(region.lo.x, j, k, w);
        }
    }
}

/// One full field step of an interior set terminated by this PML
/// (B half / E / B half with all interface exchanges). The PIC driver
/// re-implements this sequence to interleave deposition; the MR patch
/// levels (fine and coarse, per sub-step), the tests and the field-only
/// examples use this helper.
pub fn step_fields_with_pml(fs: &mut FieldSet, pml: &mut Pml, dt: f64) {
    fs.fill_e_boundaries();
    pml.exchange_e(fs);
    crate::yee::advance_b(fs, 0.5 * dt);
    pml.advance_b(0.5 * dt);
    fs.fill_b_boundaries();
    pml.exchange_b(fs);
    crate::yee::advance_e(fs, dt);
    pml.advance_e(dt);
    fs.fill_e_boundaries();
    pml.exchange_e(fs);
    crate::yee::advance_b(fs, 0.5 * dt);
    pml.advance_b(0.5 * dt);
    fs.fill_b_boundaries();
    pml.exchange_b(fs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfl::max_dt;
    use crate::energy::field_energy;
    use mrpic_amr::{BoxArray, IndexBox};

    /// The split update and interface exchange as they were before the
    /// damping tables and one-pass copies: `powi` and `exp` per point,
    /// four region calls per interface row.
    mod reference {
        use super::super::{build_interface_plan, has_axis, Grading, InterfacePlan, Pml};
        use crate::fieldset::FieldSet;
        use mrpic_amr::{FabArray, IntVect};
        use mrpic_kernels::constants::C2;

        #[allow(clippy::too_many_arguments)]
        fn advance_split(
            dst: &mut FabArray,
            split: usize,
            damp_axis: usize,
            src: &FabArray,
            coef: f64,
            op: IntVect,
            om: IntVect,
            g: &Grading,
            dt: f64,
        ) {
            let stag = dst.stagger();
            let off = stag.offset(damp_axis);
            for fi in 0..dst.nfabs() {
                let sfab = src.fab(fi);
                let six = sfab.indexer();
                let (s0, s1) = (sfab.comp(0), sfab.comp(1));
                let fab = dst.fab_mut(fi);
                let vb = fab.valid_pts();
                let dix = fab.indexer();
                let data = fab.comp_mut(split);
                let w = (vb.hi.x - vb.lo.x) as usize;
                for k in vb.lo.z..vb.hi.z {
                    for jj in vb.lo.y..vb.hi.y {
                        let drow = dix.at(vb.lo.x, jj, k);
                        let prow = six.at(vb.lo.x + op.x, jj + op.y, k + op.z);
                        let mrow = six.at(vb.lo.x + om.x, jj + om.y, k + om.z);
                        let row_xi = match damp_axis {
                            1 => jj as f64 + off,
                            2 => k as f64 + off,
                            _ => 0.0,
                        };
                        for i in 0..w {
                            let xi = if damp_axis == 0 {
                                (vb.lo.x + i as i64) as f64 + off
                            } else {
                                row_xi
                            };
                            let r = g.rate(damp_axis, xi);
                            let d_inc = coef
                                * ((s0[prow + i] + s1[prow + i]) - (s0[mrow + i] + s1[mrow + i]));
                            let rdt = r * dt;
                            let v = &mut data[drow + i];
                            if rdt < 1e-12 {
                                *v += d_inc;
                            } else {
                                let e = (-rdt).exp();
                                *v = *v * e + d_inc * (1.0 - e) / rdt;
                            }
                        }
                    }
                }
            }
        }

        pub fn advance_b(pml: &mut Pml, dt: f64) {
            let g = pml.grading;
            for c in 0..3 {
                let (a1, a2) = ((c + 1) % 3, (c + 2) % 3);
                let Pml {
                    esplit,
                    bsplit,
                    geom,
                    dim,
                    ..
                } = &mut *pml;
                let (u1, u2) = (IntVect::unit(a1), IntVect::unit(a2));
                if has_axis(*dim, a1) {
                    let coef = -dt / geom.dx[a1];
                    advance_split(
                        &mut bsplit[c],
                        0,
                        a1,
                        &esplit[a2],
                        coef,
                        u1,
                        IntVect::ZERO,
                        &g,
                        dt,
                    );
                }
                if has_axis(*dim, a2) {
                    let coef = dt / geom.dx[a2];
                    advance_split(
                        &mut bsplit[c],
                        1,
                        a2,
                        &esplit[a1],
                        coef,
                        u2,
                        IntVect::ZERO,
                        &g,
                        dt,
                    );
                }
            }
            for c in 0..3 {
                pml.bsplit[c].fill_boundary(&pml.shell_period);
            }
        }

        pub fn advance_e(pml: &mut Pml, dt: f64) {
            let g = pml.grading;
            for c in 0..3 {
                let (a1, a2) = ((c + 1) % 3, (c + 2) % 3);
                let Pml {
                    esplit,
                    bsplit,
                    geom,
                    dim,
                    ..
                } = &mut *pml;
                let (u1, u2) = (-IntVect::unit(a1), -IntVect::unit(a2));
                if has_axis(*dim, a1) {
                    let coef = C2 * dt / geom.dx[a1];
                    advance_split(
                        &mut esplit[c],
                        0,
                        a1,
                        &bsplit[a2],
                        coef,
                        IntVect::ZERO,
                        u1,
                        &g,
                        dt,
                    );
                }
                if has_axis(*dim, a2) {
                    let coef = -C2 * dt / geom.dx[a2];
                    advance_split(
                        &mut esplit[c],
                        1,
                        a2,
                        &bsplit[a1],
                        coef,
                        IntVect::ZERO,
                        u2,
                        &g,
                        dt,
                    );
                }
            }
            for c in 0..3 {
                pml.esplit[c].fill_boundary(&pml.shell_period);
            }
        }

        fn exchange_component(
            slot: &mut Option<InterfacePlan>,
            pml: &mut FabArray,
            field: &mut FabArray,
        ) {
            let stale = match slot {
                Some(p) => p.pml_gen != pml.generation() || p.field_gen != field.generation(),
                None => true,
            };
            if stale {
                *slot = Some(build_interface_plan(pml, field));
            }
            let plan = slot.as_ref().expect("plan just ensured");
            for &(pi, fi, region) in &plan.to_pml {
                let src = field.fab(fi);
                let dst = pml.fab_mut(pi);
                dst.copy_region_from(src, &region, IntVect::ZERO, 0, 0);
                dst.zero_region(1, &region);
            }
            for &(fi, pi, region) in &plan.to_field {
                let src = pml.fab(pi);
                let dst = field.fab_mut(fi);
                dst.copy_region_from(src, &region, IntVect::ZERO, 0, 0);
                dst.add_region_from(src, &region, IntVect::ZERO, 1, 0);
            }
        }

        pub fn exchange_e(pml: &mut Pml, fs: &mut FieldSet) {
            for c in 0..3 {
                exchange_component(&mut pml.iface_e[c], &mut pml.esplit[c], &mut fs.e[c]);
            }
        }

        pub fn exchange_b(pml: &mut Pml, fs: &mut FieldSet) {
            for c in 0..3 {
                exchange_component(&mut pml.iface_b[c], &mut pml.bsplit[c], &mut fs.b[c]);
            }
        }
    }

    /// A multi-box interior and its PML (layers on every real axis, so
    /// corner slabs exist), every stored value junk heavy in signed zeros.
    fn junk_shell(dim: Dim) -> (FieldSet, Pml) {
        let (interior, max_box, npml) = match dim {
            Dim::Two => (IntVect::new(40, 1, 24), IntVect::new(16, 1, 12), 6),
            Dim::Three => (IntVect::new(14, 12, 10), IntVect::new(7, 6, 10), 4),
        };
        let interior = IndexBox::from_size(interior);
        let geom = GridGeom {
            dx: [1.0e-7, 1.5e-7, 0.8e-7],
            x0: [0.0; 3],
        };
        let ba = BoxArray::chop(interior, max_box);
        let mut fs = FieldSet::new(dim, ba, geom, Periodicity::none(interior), 2);
        let mut pml = Pml::new(dim, interior, geom, [false; 3], npml);
        let mut seed = 100;
        for c in 0..3 {
            for fa in [
                &mut fs.e[c],
                &mut fs.b[c],
                &mut pml.esplit[c],
                &mut pml.bsplit[c],
            ] {
                seed += 1;
                crate::oracle::junk_fill(fa, seed);
            }
        }
        (fs, pml)
    }

    fn assert_shells_bitwise(a: &(FieldSet, Pml), b: &(FieldSet, Pml)) {
        use crate::oracle::assert_bitwise;
        for c in 0..3 {
            assert_bitwise(&a.0.e[c], &b.0.e[c], &format!("e[{c}]"));
            assert_bitwise(&a.0.b[c], &b.0.b[c], &format!("b[{c}]"));
            assert_bitwise(&a.1.esplit[c], &b.1.esplit[c], &format!("esplit[{c}]"));
            assert_bitwise(&a.1.bsplit[c], &b.1.bsplit[c], &format!("bsplit[{c}]"));
        }
    }

    /// The table-driven split update and the one-pass interface copies
    /// store exactly the bits of the per-point `exp` update and the
    /// region copies: 2-D and 3-D shells with corners (3-D: y-damped
    /// rows too), multi-box interiors, for a parent step, a subcycled
    /// rr = 2 patch step, and a step so short that `r dt` falls on both
    /// sides of the 1e-12 cut.
    #[test]
    fn table_update_and_one_pass_exchange_match_reference_bitwise() {
        for dim in [Dim::Two, Dim::Three] {
            let base = junk_shell(dim);
            let g = base.1.grading;
            assert!(g.active.iter().filter(|&&a| a).count() == dim.axes().len());
            let dt = 0.5 * max_dt(dim, &base.0.geom.dx);
            // r dt at the shallowest staggered depth (half a cell) is
            // 1e-13, so the next depths land around the cut.
            let shallow = g.rate(0, g.interior.lo.x as f64 - 0.5);
            let tiny = 1e-13 / shallow;
            let rdts: Vec<f64> = (1..8).map(|h| g.rate(0, -0.5 * h as f64) * tiny).collect();
            assert!(rdts.iter().any(|&r| r > 0.0 && r < 1e-12));
            assert!(rdts.iter().any(|&r| r > 1e-12));
            for step in [dt, dt / 2.0, tiny] {
                let (mut a, mut b) = (base.clone(), base.clone());
                a.1.exchange_e(&mut a.0);
                reference::exchange_e(&mut b.1, &mut b.0);
                assert_shells_bitwise(&a, &b);
                a.1.advance_b(0.5 * step);
                reference::advance_b(&mut b.1, 0.5 * step);
                assert_shells_bitwise(&a, &b);
                a.1.exchange_b(&mut a.0);
                reference::exchange_b(&mut b.1, &mut b.0);
                assert_shells_bitwise(&a, &b);
                a.1.advance_e(step);
                reference::advance_e(&mut b.1, step);
                assert_shells_bitwise(&a, &b);
            }
        }
    }

    #[test]
    fn shell_geometry_covers_active_axes() {
        let interior = IndexBox::from_size(IntVect::new(32, 1, 32));
        let geom = GridGeom {
            dx: [1e-6; 3],
            x0: [0.0; 3],
        };
        let pml = Pml::new(Dim::Two, interior, geom, [false, false, true], 8);
        // Active: x only (z periodic, y collapsed): two slabs of 8x1x32.
        assert_eq!(pml.boxarray().len(), 2);
        assert_eq!(pml.boxarray().total_cells(), 2 * 8 * 32);
        // Corners appear when two axes are active.
        let pml2 = Pml::new(Dim::Two, interior, geom, [false; 3], 8);
        assert_eq!(pml2.boxarray().len(), 4);
        assert_eq!(pml2.boxarray().total_cells(), (48 * 48 - 32 * 32) as i64);
    }

    #[test]
    fn rate_grading() {
        let interior = IndexBox::from_size(IntVect::new(16, 1, 16));
        let geom = GridGeom {
            dx: [1e-6; 3],
            x0: [0.0; 3],
        };
        let pml = Pml::new(Dim::Two, interior, geom, [false, false, true], 8);
        assert_eq!(pml.rate(0, 8.0), 0.0); // inside
        assert!(pml.rate(0, -4.0) > 0.0);
        assert!(pml.rate(0, -8.0) > pml.rate(0, -4.0)); // deeper = stronger
        assert_eq!(pml.rate(2, -4.0), 0.0); // z inactive
        assert!(pml.rate(0, 17.0) > 0.0); // high side
    }

    /// The headline property: an outgoing pulse is absorbed with < 0.1 %
    /// of its energy reflected back into the interior.
    #[test]
    fn absorbs_outgoing_pulse_2d() {
        let n = 128i64;
        let interior = IndexBox::from_size(IntVect::new(n, 1, 16));
        let ba = BoxArray::single(interior);
        let dx = 1.0e-6;
        let geom = GridGeom {
            dx: [dx; 3],
            x0: [0.0; 3],
        };
        // z periodic, x terminated by PML.
        let per = Periodicity::new(interior, [false, false, true]);
        let mut fs = FieldSet::new(Dim::Two, ba, geom, per, 2);
        let mut pml = Pml::new(Dim::Two, interior, geom, [false, false, true], 12);
        let dt = 0.7 * max_dt(Dim::Two, &[dx; 3]);
        // Rightward Gaussian pulse near the right edge.
        let x0 = 80.0 * dx;
        let sig = 6.0 * dx;
        let pulse = |x: f64| (-(x - x0) * (x - x0) / (2.0 * sig * sig)).exp();
        for fi in 0..fs.nfabs() {
            let vb = fs.e[1].fab(fi).valid_pts();
            for p in vb.cells().collect::<Vec<_>>() {
                fs.e[1].fab_mut(fi).set(0, p, pulse(p.x as f64 * dx));
            }
            let vb = fs.b[2].fab(fi).valid_pts();
            for p in vb.cells().collect::<Vec<_>>() {
                let x = (p.x as f64 + 0.5) * dx + C * dt / 2.0;
                fs.b[2].fab_mut(fi).set(0, p, pulse(x) / C);
            }
        }
        let e0 = field_energy(&fs);
        assert!(e0 > 0.0);
        // Pulse needs (128-80)/0.49 cells/step ~ 100 steps to leave; run
        // long enough for any reflection to re-enter the interior.
        let steps = (260.0 / (C * dt / dx)) as usize;
        for _ in 0..steps {
            step_fields_with_pml(&mut fs, &mut pml, dt);
        }
        let e1 = field_energy(&fs);
        assert!(
            e1 < 1.0e-3 * e0,
            "PML reflected too much energy: {e1:e} of {e0:e} ({:.2e})",
            e1 / e0
        );
    }

    #[test]
    fn absorbs_in_3d_smoke() {
        let n = 32i64;
        let interior = IndexBox::from_size(IntVect::splat(n));
        let ba = BoxArray::single(interior);
        let dx = 1.0e-6;
        let geom = GridGeom {
            dx: [dx; 3],
            x0: [0.0; 3],
        };
        let per = Periodicity::new(interior, [false, true, true]);
        let mut fs = FieldSet::new(Dim::Three, ba, geom, per, 2);
        let mut pml = Pml::new(Dim::Three, interior, geom, [false, true, true], 8);
        let dt = 0.6 * max_dt(Dim::Three, &[dx; 3]);
        let x0 = 24.0 * dx;
        let sig = 3.0 * dx;
        let pulse = |x: f64| (-(x - x0) * (x - x0) / (2.0 * sig * sig)).exp();
        for fi in 0..fs.nfabs() {
            let vb = fs.e[1].fab(fi).valid_pts();
            for p in vb.cells().collect::<Vec<_>>() {
                fs.e[1].fab_mut(fi).set(0, p, pulse(p.x as f64 * dx));
            }
            let vb = fs.b[2].fab(fi).valid_pts();
            for p in vb.cells().collect::<Vec<_>>() {
                let x = (p.x as f64 + 0.5) * dx + C * dt / 2.0;
                fs.b[2].fab_mut(fi).set(0, p, pulse(x) / C);
            }
        }
        let e0 = field_energy(&fs);
        for _ in 0..160 {
            step_fields_with_pml(&mut fs, &mut pml, dt);
        }
        let e1 = field_energy(&fs);
        assert!(e1 < 0.02 * e0, "3-D PML leak: {:.2e}", e1 / e0);
    }

    #[test]
    fn pml_energy_decays_after_absorption() {
        let interior = IndexBox::from_size(IntVect::new(64, 1, 8));
        let ba = BoxArray::single(interior);
        let dx = 1.0e-6;
        let geom = GridGeom {
            dx: [dx; 3],
            x0: [0.0; 3],
        };
        let per = Periodicity::new(interior, [false, false, true]);
        let mut fs = FieldSet::new(Dim::Two, ba, geom, per, 2);
        let mut pml = Pml::new(Dim::Two, interior, geom, [false, false, true], 10);
        let dt = 0.7 * max_dt(Dim::Two, &[dx; 3]);
        for fi in 0..fs.nfabs() {
            let vb = fs.e[1].fab(fi).valid_pts();
            for p in vb.cells().collect::<Vec<_>>() {
                let x = p.x as f64;
                fs.e[1]
                    .fab_mut(fi)
                    .set(0, p, (-(x - 56.0) * (x - 56.0) / 18.0).exp());
            }
        }
        // Let the pulse (split, both directions) hit the right layer.
        for _ in 0..40 {
            step_fields_with_pml(&mut fs, &mut pml, dt);
        }
        let mid = pml.stored_energy();
        for _ in 0..200 {
            step_fields_with_pml(&mut fs, &mut pml, dt);
        }
        let late = pml.stored_energy();
        assert!(
            late < 0.1 * mid.max(1e-300),
            "PML stores energy: {mid:e} -> {late:e}"
        );
    }
}
