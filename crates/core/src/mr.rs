//! Electromagnetic mesh refinement (paper §V-B).
//!
//! A refinement patch carries **three** grid sets:
//!
//! * `fine` — the refined grid (ratio `rr`) collocated with the patch,
//!   terminated by its own PML; it sees *only* the current of particles
//!   that evolve inside the patch;
//! * `coarse` — a patch-collocated grid at the *parent* resolution, also
//!   PML-terminated, driven by the restriction of the fine current: it
//!   represents the same interior sources at parent resolution;
//! * `aux` — the auxiliary grid on which the full solution is
//!   reconstructed by linearity: `F(a) = F(r) + I[F(s) − F(c)]`, where
//!   `F(s)` is the parent solution restricted to the patch region and
//!   `I` interpolates parent-resolution data to the fine lattice. The
//!   parent field contains contributions from *all* sources at coarse
//!   resolution; subtracting `F(c)` removes the interior-source part at
//!   coarse resolution and adding `F(r)` reinstates it at fine
//!   resolution.
//!
//! Particles inside the patch deposit to `fine`; the fine current is
//! restricted onto `coarse` and added to the parent, which therefore
//! always holds the complete coarse solution (this is what makes patch
//! *removal* trivial). Particles gather from `aux`, except within a
//! transition zone of `n_transition` coarse cells inside the patch
//! boundary, where they gather from the parent only — mitigating the
//! spurious-force artifacts near the interface.

use mrpic_amr::{BoxArray, CommStats, Fab, FabArray, IndexBox, IntVect, Periodicity};
use mrpic_field::fieldset::{Dim, FieldSet, GridGeom};
use mrpic_field::pml::{step_fields_with_pml, Pml};
use serde::{Deserialize, Serialize};

/// Configuration of one refinement patch.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MrConfig {
    /// Patch region in parent cell indices.
    pub patch: IndexBox,
    /// Refinement ratio (2 is the production value).
    pub rr: i64,
    /// Transition-zone width in parent cells.
    pub n_transition: i64,
    /// PML thickness (in each grid's own cells).
    pub npml: i64,
    /// Subcycle the refined levels: the patch grids advance `rr`
    /// sub-steps of `dt/rr` per parent step, letting the parent keep the
    /// coarse-grid Courant step (the paper's efficiency option, §V-B;
    /// described without time interpolation here — the aux grid is
    /// rebuilt at step boundaries where all levels are synchronized).
    pub subcycle: bool,
}

/// One refinement level.
///
/// Besides the three grid sets, a level caches everything the two
/// per-step MR sweeps need that depends only on the index space: the
/// interpolation plans of `build_aux`, the restriction taps of
/// `couple_currents`, and one small scratch buffer. A moving-window
/// shift moves data but never the index space, and a checkpoint restore
/// writes the fabs in place, so the caches stay valid for the level's
/// lifetime.
#[derive(Clone, Debug)]
pub struct MrLevel {
    pub cfg: MrConfig,
    pub fine: FieldSet,
    pub fine_pml: Pml,
    pub coarse: FieldSet,
    pub coarse_pml: Pml,
    pub aux: FieldSet,
    dim: Dim,
    /// `build_aux` plans: Ex, Ey, Ez, Bx, By, Bz.
    interp: Vec<InterpPlan>,
    /// `couple_currents` restriction taps per J component and axis.
    restrict: [[AxisTaps; 3]; 3],
    /// Level-owned scratch: one `parent − coarse` plane and two
    /// x-interpolated planes for `build_aux`, one restricted row for
    /// `couple_currents`.
    scratch: Vec<f64>,
}

impl MrLevel {
    /// Build a patch on `parent` covering `cfg.patch`.
    pub fn new(parent: &FieldSet, cfg: MrConfig, ngrow: i64) -> Self {
        let dim = parent.dim;
        assert!(
            parent.domain().contains_box(&cfg.patch),
            "patch must lie inside the parent domain"
        );
        let rvec = match dim {
            Dim::Three => IntVect::splat(cfg.rr),
            Dim::Two => IntVect::new(cfg.rr, 1, cfg.rr),
        };
        let fine_box = cfg.patch.refine(rvec);
        let fine_geom = parent.geom.refine(rvec);
        // Patch grids are never periodic: they are PML-terminated.
        let fine_period = Periodicity::none(fine_box);
        let fine = FieldSet::new(
            dim,
            BoxArray::single(fine_box),
            fine_geom,
            fine_period,
            ngrow,
        );
        let fine_pml = Pml::new(dim, fine_box, fine_geom, [false; 3], cfg.npml);
        let coarse_period = Periodicity::none(cfg.patch);
        let coarse = FieldSet::new(
            dim,
            BoxArray::single(cfg.patch),
            parent.geom,
            coarse_period,
            ngrow,
        );
        let coarse_pml = Pml::new(dim, cfg.patch, parent.geom, [false; 3], cfg.npml);
        let aux = FieldSet::new(
            dim,
            BoxArray::single(fine_box),
            fine_geom,
            fine_period,
            ngrow,
        );
        // Margin of parent data needed around the patch for interpolation
        // over the aux guard region.
        let region = collapse_y(cfg.patch.grow(aux.ngrow / cfg.rr + 2), &cfg.patch, dim);
        let interp: Vec<InterpPlan> = (0..6)
            .map(|n| {
                InterpPlan::new(
                    eb(parent, n),
                    eb(&coarse, n).fab(0),
                    eb(&aux, n).fab(0),
                    &region,
                    rvec,
                    dim,
                )
            })
            .collect();
        let restrict = std::array::from_fn(|c| {
            let fab = fine.j[c].fab(0);
            let (stag, store) = (fab.stagger(), fab.grown_pts());
            std::array::from_fn(|d| {
                AxisTaps::new(stag.is_nodal(d), rvec[d], store.lo[d], store.hi[d])
            })
        });
        let scratch_len = interp.iter().map(InterpPlan::scratch_len).max();
        Self {
            cfg,
            fine,
            fine_pml,
            coarse,
            coarse_pml,
            aux,
            dim,
            interp,
            restrict,
            scratch: vec![0.0; scratch_len.unwrap_or(0)],
        }
    }

    /// Refinement ratio as a vector (1 along collapsed y in 2-D).
    pub fn rvec(&self) -> IntVect {
        match self.dim {
            Dim::Three => IntVect::splat(self.cfg.rr),
            Dim::Two => IntVect::new(self.cfg.rr, 1, self.cfg.rr),
        }
    }

    /// Physical bounds of the patch (deposit region).
    pub fn patch_phys(&self, geom: &GridGeom) -> ([f64; 3], [f64; 3]) {
        crate::particles::box_phys_region(geom, &self.cfg.patch)
    }

    /// Physical bounds of the aux-gather region (patch minus transition).
    pub fn gather_phys(&self, geom: &GridGeom) -> ([f64; 3], [f64; 3]) {
        let mut shrink = IntVect::splat(self.cfg.n_transition);
        if self.dim == Dim::Two {
            shrink.y = 0;
        }
        let inner = self.cfg.patch.grow_vec(-shrink);
        crate::particles::box_phys_region(geom, &inner)
    }

    /// Zero the fine current before deposition.
    pub fn zero_j(&mut self) {
        self.fine.zero_j();
    }

    /// After deposition: restrict the fine current onto the coarse patch
    /// and add it onto the parent (both over the patch grown by `margin`
    /// parent cells to catch boundary-straddling deposition clouds).
    ///
    /// Each restricted point is evaluated once, row by row into the
    /// scratch, then copied into the coarse J store and added in every
    /// parent fab whose valid region holds the point.
    pub fn couple_currents(&mut self, parent: &mut FieldSet, margin: i64) {
        let MrLevel {
            cfg,
            fine,
            coarse,
            dim,
            restrict,
            scratch,
            ..
        } = self;
        let region = collapse_y(cfg.patch.grow(margin), &cfg.patch, *dim);
        for c in 0..3 {
            let ffab = fine.j[c].fab(0);
            let pts = ffab.stagger().point_box(&region);
            let nx = pts.size().x as usize;
            if scratch.len() < nx {
                scratch.resize(nx, 0.0);
            }
            let row = &mut scratch[..nx];
            let cfab = coarse.j[c].fab_mut(0);
            for k in pts.lo.z..pts.hi.z {
                for j in pts.lo.y..pts.hi.y {
                    restrict_row(row, pts.lo.x, j, k, ffab, &restrict[c]);
                    let line = IndexBox::new(
                        IntVect::new(pts.lo.x, j, k),
                        IntVect::new(pts.hi.x, j + 1, k + 1),
                    );
                    put_row(cfab, cfab.grown_pts(), &line, row, |_, v| v);
                    for pfab in parent.j[c].fabs_mut() {
                        put_row(pfab, pfab.valid_pts(), &line, row, |d, v| d + v);
                    }
                }
            }
        }
    }

    /// Advance the patch Maxwell systems by one full parent step: one
    /// leapfrog step of `dt` (B half / E / B half), or `rr` sub-steps of
    /// `dt/rr` when subcycling, with the deposited current held constant
    /// across the sub-steps.
    pub fn advance_fields(&mut self, dt: f64) {
        let nsub = if self.cfg.subcycle {
            self.cfg.rr.max(1)
        } else {
            1
        };
        let dt = dt / nsub as f64;
        for _ in 0..nsub {
            step_fields_with_pml(&mut self.fine, &mut self.fine_pml, dt);
            step_fields_with_pml(&mut self.coarse, &mut self.coarse_pml, dt);
        }
    }

    /// Rebuild the auxiliary grid: `aux = fine + I[parent − coarse]`.
    pub fn build_aux(&mut self, parent: &FieldSet) {
        let MrLevel {
            fine,
            coarse,
            aux,
            interp,
            scratch,
            ..
        } = self;
        let auxs = aux.e.iter_mut().chain(&mut aux.b);
        for (n, (plan, afa)) in interp.iter().zip(auxs).enumerate() {
            let (pfa, cfab) = (eb(parent, n), eb(coarse, n).fab(0));
            plan.interpolate(pfa, cfab, eb(fine, n).fab(0), afa.fab_mut(0), scratch);
        }
    }

    /// Shift all patch data with the moving window by `s` parent cells.
    pub fn shift_window(&mut self, s: IntVect) {
        let sf = s * self.rvec();
        for c in 0..3 {
            self.fine.e[c].shift_data(sf);
            self.fine.b[c].shift_data(sf);
            self.fine.j[c].shift_data(sf);
            self.coarse.e[c].shift_data(s);
            self.coarse.b[c].shift_data(s);
            self.coarse.j[c].shift_data(s);
            self.aux.e[c].shift_data(sf);
            self.aux.b[c].shift_data(sf);
        }
        self.fine_pml.shift_window(sf);
        self.coarse_pml.shift_window(s);
        // Geometry origins track the parent's (caller updates those).
        self.fine.geom.x0[0] += s.x as f64 * self.coarse.geom.dx[0];
        self.coarse.geom.x0[0] += s.x as f64 * self.coarse.geom.dx[0];
        self.aux.geom.x0[0] += s.x as f64 * self.coarse.geom.dx[0];
    }

    /// Memory footprint of the level (telemetry: the paper's Fig. 6 cost
    /// accounting counts the patch as extra work while present).
    pub fn bytes(&self) -> usize {
        self.fine.bytes() + self.coarse.bytes() + self.aux.bytes()
    }

    /// Aggregate communication counters across the patch grids and PMLs.
    pub fn comm_stats(&self) -> CommStats {
        let mut total = self.fine.comm_stats();
        total.merge(&self.coarse.comm_stats());
        total.merge(&self.aux.comm_stats());
        total.merge(&self.fine_pml.comm_stats());
        total.merge(&self.coarse_pml.comm_stats());
        total
    }

    /// Drop all cached exchange plans across the patch grids and PMLs
    /// (e.g. after a restart overwrote the field data in place).
    pub fn invalidate_plans(&mut self) {
        self.fine.invalidate_plans();
        self.coarse.invalidate_plans();
        self.aux.invalidate_plans();
        self.fine_pml.invalidate_plans();
        self.coarse_pml.invalidate_plans();
    }
}

/// Field component `n` of a grid set: Ex, Ey, Ez, Bx, By, Bz.
fn eb(fs: &FieldSet, n: usize) -> &FabArray {
    match n {
        0..3 => &fs.e[n],
        _ => &fs.b[n - 3],
    }
}

/// `region` with the collapsed y extent of `patch` in 2-D.
fn collapse_y(mut region: IndexBox, patch: &IndexBox, dim: Dim) -> IndexBox {
    if dim == Dim::Two {
        region.lo.y = patch.lo.y;
        region.hi.y = patch.hi.y;
    }
    region
}

/// How one aux component is interpolated from parent-resolution data.
#[derive(Clone, Debug)]
struct InterpPlan {
    /// The component's points over patch + margin.
    spts: IndexBox,
    /// Disjoint pieces covering `spts`, each filled in one pass.
    fill: Vec<FillPiece>,
    /// Per aux x point: left and right parent columns relative to
    /// `spts.lo.x`, and the right weight.
    tx: Vec<(usize, usize, f64)>,
    /// Per aux y (z) point: lower and upper parent index, upper weight.
    ty: Vec<(i64, i64, f64)>,
    tz: Vec<(i64, i64, f64)>,
}

impl InterpPlan {
    fn new(
        parent: &FabArray,
        coarse: &Fab,
        aux: &Fab,
        region: &IndexBox,
        rvec: IntVect,
        dim: Dim,
    ) -> Self {
        let stag = parent.stagger();
        let spts = stag.point_box(region);
        // `parent − coarse` takes, per point, the parent value the last
        // fab (valid regions over guards) stores there, or zero where no
        // fab does, minus the coarse value where the coarse patch stores
        // one.
        // Claim points in reverse priority order to make that one
        // disjoint piece list.
        let fabs = parent.fabs().iter().enumerate().rev();
        let valid = fabs.clone().map(|(fi, f)| (Some(fi), f.valid_pts()));
        let grown = fabs.map(|(fi, f)| (Some(fi), f.grown_pts()));
        let sources = valid.chain(grown).chain([(None, spts)]);
        let cstore = coarse.grown_pts();
        let mut claimed: Vec<IndexBox> = Vec::new();
        let mut fill = Vec::new();
        for (src, b) in sources {
            let Some(b) = b.intersect(&spts) else {
                continue;
            };
            let mut parts = vec![b];
            for c in &claimed {
                parts = parts.iter().flat_map(|p| p.subtract(c)).collect();
            }
            claimed.push(b);
            for p in parts {
                if let Some(b) = p.intersect(&cstore) {
                    fill.push(FillPiece { b, src, sub: true });
                }
                let outside = p.subtract(&cstore).into_iter();
                fill.extend(outside.map(|b| FillPiece { b, src, sub: false }));
            }
        }
        let apts = aux.grown_pts();
        // fine index -> (left parent index, right parent index, right
        // weight), clamped to `spts` (one-sided at the
        // outermost guard points, which sit behind the PML and never
        // reach particles).
        let table = |d: usize| -> Vec<(i64, i64, f64)> {
            (apts.lo[d]..apts.hi[d])
                .map(|i| {
                    let (i0, w) = if rvec[d] == 1 || (dim == Dim::Two && d == 1) {
                        (i.clamp(spts.lo[d], spts.hi[d] - 1), 0.0)
                    } else {
                        let off = stag.offset(d);
                        let t = (i as f64 + off) / rvec[d] as f64 - off;
                        let fl = t.floor();
                        let i0 = (fl as i64).clamp(spts.lo[d], spts.hi[d] - 2);
                        (i0, (t - i0 as f64).clamp(0.0, 1.0))
                    };
                    (i0, (i0 + 1).min(spts.hi[d] - 1), w)
                })
                .collect()
        };
        let col = |i: i64| (i - spts.lo.x) as usize;
        Self {
            spts,
            fill,
            tx: table(0)
                .into_iter()
                .map(|(i0, i1, w)| (col(i0), col(i1), w))
                .collect(),
            ty: table(1),
            tz: table(2),
        }
    }

    /// Scratch length `interpolate` needs: one plane of `spts`, and two
    /// planes of x-interpolated rows.
    fn scratch_len(&self) -> usize {
        let s = self.spts.size();
        s.y as usize * (s.x as usize + 2 * self.tx.len())
    }

    /// `rows = parent − coarse` over the parent-z plane `k` of `spts`
    /// (rows indexed from `spts.lo`), one write per point.
    fn fill_plane(&self, k: i64, parent: &FabArray, coarse: &Fab, rows: &mut [f64]) {
        let spts = self.spts;
        let sx = spts.size().x as usize;
        let cix = coarse.indexer();
        let cdata = coarse.comp(0);
        for piece in self.fill.iter().filter(|p| p.b.lo.z <= k && k < p.b.hi.z) {
            let b = piece.b;
            let n = (b.hi.x - b.lo.x) as usize;
            let x0 = (b.lo.x - spts.lo.x) as usize;
            let src = piece.src.map(|fi| parent.fab(fi));
            for j in b.lo.y..b.hi.y {
                let out = &mut rows[(j - spts.lo.y) as usize * sx + x0..][..n];
                let p = src.map(|f| &f.comp(0)[f.indexer().at(b.lo.x, j, k)..][..n]);
                let c = piece.sub.then(|| &cdata[cix.at(b.lo.x, j, k)..][..n]);
                match (p, c) {
                    (Some(p), None) => out.copy_from_slice(p),
                    (Some(p), Some(c)) => {
                        for ((o, &p), &c) in out.iter_mut().zip(p).zip(c) {
                            *o = p - c;
                        }
                    }
                    (None, None) => out.fill(0.0),
                    (None, Some(c)) => {
                        for (o, &c) in out.iter_mut().zip(c) {
                            *o = 0.0 - c;
                        }
                    }
                }
            }
        }
    }

    /// `aux = fine + I[parent − coarse]` (parent and coarse share one
    /// lattice, so this is `I[parent] − I[coarse]`), lerping along x, then
    /// y, then z. Each parent-z plane of the difference is built once and
    /// x-interpolated into one of two plane slots (indexed by parent z,
    /// which is monotone in the aux z); the y and z lerps and the fine add
    /// are then straight-line sweeps over whole aux rows.
    fn interpolate(
        &self,
        parent: &FabArray,
        coarse: &Fab,
        fine: &Fab,
        aux: &mut Fab,
        scratch: &mut [f64],
    ) {
        let spts = self.spts;
        let nx = self.tx.len();
        let (sx, ny) = (spts.size().x as usize, spts.size().y as usize);
        let (rows, planes) = scratch.split_at_mut(sx * ny);
        let (slot0, slot1) = planes[..2 * nx * ny].split_at_mut(nx * ny);
        let slots = [slot0, slot1];
        // Parent z index each plane slot currently holds.
        let mut held = [i64::MIN; 2];
        // aux and fine are built over one box with one guard width, so
        // every aux row has its fine row at the same offsets.
        debug_assert_eq!(aux.grown_pts(), fine.grown_pts());
        let apts = aux.grown_pts();
        let ix = aux.indexer();
        let fdata = fine.comp(0);
        let adata = aux.comp_mut(0);
        for (k, &(k0, k1, wz)) in (apts.lo.z..).zip(&self.tz) {
            for kp in [k0, k1] {
                let s = kp.rem_euclid(2) as usize;
                if held[s] != kp {
                    held[s] = kp;
                    self.fill_plane(kp, parent, coarse, rows);
                    let lerped = rows.chunks_exact(sx).zip(slots[s].chunks_exact_mut(nx));
                    for (row, out) in lerped {
                        for (v, &(c0, c1, w)) in out.iter_mut().zip(&self.tx) {
                            let (a, b) = (row[c0], row[c1]);
                            *v = a + w * (b - a);
                        }
                    }
                }
            }
            for (jj, &(j0, j1, wy)) in (apts.lo.y..).zip(&self.ty) {
                let row = |kp: i64, j: i64| {
                    let off = (j - spts.lo.y) as usize * nx;
                    &slots[kp.rem_euclid(2) as usize][off..off + nx]
                };
                let (l00, l10) = (row(k0, j0), row(k0, j1));
                let (l01, l11) = (row(k1, j0), row(k1, j1));
                let at = ix.at(apts.lo.x, jj, k);
                let frow = &fdata[at..at + nx];
                let arow = &mut adata[at..at + nx];
                for t in 0..nx {
                    let v0 = l00[t] + wy * (l10[t] - l00[t]);
                    let v1 = l01[t] + wy * (l11[t] - l01[t]);
                    arow[t] = frow[t] + (v0 + wz * (v1 - v0));
                }
            }
        }
    }
}

/// A box of `parent − coarse` points from one source: parent fab `src`
/// (`0.0` if none stores the points), minus the coarse value if `sub`.
#[derive(Clone, Copy, Debug)]
struct FillPiece {
    b: IndexBox,
    src: Option<usize>,
    sub: bool,
}

/// Restriction stencil along one axis for parent index `p`: nodal
/// components use the (1/4, 1/2, 1/4) full-weighting stencil, half
/// components average the two covering fine points, and a collapsed axis
/// (`r == 1`) copies; a zero weight marks an unused tap.
fn axis_stencil(nodal: bool, r: i64, p: i64) -> ([i64; 3], [f64; 3]) {
    if r == 1 {
        ([p, 0, 0], [1.0, 0.0, 0.0])
    } else if nodal {
        ([r * p - 1, r * p, r * p + 1], [0.25, 0.5, 0.25])
    } else {
        ([r * p, r * p + 1, 0], [0.5, 0.5, 0.0])
    }
}

/// The restriction taps of one parent index along one axis that fall in
/// the fine store: fine indices `first..first + n` with weights `w[..n]`.
#[derive(Clone, Copy, Debug, Default)]
struct Taps {
    first: i64,
    n: usize,
    w: [f64; 3],
}

impl Taps {
    fn iter(&self) -> impl Iterator<Item = (i64, f64)> + '_ {
        (self.first..).zip(&self.w[..self.n]).map(|(i, &w)| (i, w))
    }
}

/// Restriction taps along one axis for every parent index whose stencil
/// can reach the fine store, from `lo` on (no taps outside the table).
#[derive(Clone, Debug)]
struct AxisTaps {
    lo: i64,
    taps: Vec<Taps>,
    /// Parent indices whose whole stencil lies in the store; there the
    /// taps start at `stride * p + off` with weights `wfull[..nfull]`.
    full: (i64, i64),
    stride: i64,
    off: i64,
    nfull: usize,
    wfull: [f64; 3],
}

impl AxisTaps {
    fn new(nodal: bool, r: i64, store_lo: i64, store_hi: i64) -> Self {
        let lo = (store_lo - 1).div_euclid(r) - 1;
        let hi = (store_hi + 1).div_euclid(r) + 2;
        let taps: Vec<Taps> = (lo..hi)
            .map(|p| {
                let (idx, w) = axis_stencil(nodal, r, p);
                let mut t = Taps::default();
                for (&i, &w) in idx.iter().zip(&w) {
                    if w != 0.0 && (store_lo..store_hi).contains(&i) {
                        if t.n == 0 {
                            t.first = i;
                        }
                        t.w[t.n] = w;
                        t.n += 1;
                    }
                }
                t
            })
            .collect();
        let (idx, wfull) = axis_stencil(nodal, r, 0);
        let nfull = wfull.iter().filter(|&&w| w != 0.0).count();
        let is_full = |p: &i64| taps[(p - lo) as usize].n == nfull;
        let full_lo = (lo..hi).find(is_full).unwrap_or(hi);
        let full_hi = (full_lo..hi).find(|p| !is_full(p)).unwrap_or(hi);
        Self {
            lo,
            full: (full_lo, full_hi),
            stride: r,
            off: idx[0],
            nfull,
            wfull,
            taps,
        }
    }

    fn at(&self, p: i64) -> Taps {
        usize::try_from(p - self.lo)
            .ok()
            .and_then(|i| self.taps.get(i).copied())
            .unwrap_or_default()
    }
}

/// Restriction of one parent row: `row[t] = R[fine]` at `(x0 + t, j,
/// k)`. Each point accumulates its in-store taps z-, then y-, then
/// x-major from `0.0`; the combined weights are exact powers of two, so
/// the products match any association order bit for bit. The row is
/// swept once per (z, y) tap pair, the interior (whole stencil in store)
/// as one fixed-stride loop and the edges through the clipped taps.
fn restrict_row(row: &mut [f64], x0: i64, j: i64, k: i64, fine: &Fab, taps: &[AxisTaps; 3]) {
    let fix = fine.indexer();
    let fdata = fine.comp(0);
    let tx = &taps[0];
    let x1 = x0 + row.len() as i64;
    let flo = tx.full.0.clamp(x0, x1);
    let fhi = tx.full.1.clamp(flo, x1);
    let (i0, i1) = ((flo - x0) as usize, (fhi - x0) as usize);
    row.fill(0.0);
    for (kz, wz) in taps[2].at(k).iter() {
        for (jy, wy) in taps[1].at(j).iter() {
            let wzy = wy * wz;
            let frow = &fdata[fix.at(fix.lo.x, jy, kz)..][..fix.nx as usize];
            for i in (x0..flo).chain(fhi..x1) {
                let acc = &mut row[(i - x0) as usize];
                for (ix, wx) in tx.at(i).iter() {
                    *acc += wx * wzy * frow[(ix - fix.lo.x) as usize];
                }
            }
            let base = (tx.stride * flo + tx.off - fix.lo.x) as usize;
            let w = tx.wfull.map(|wx| wx * wzy);
            let interior = &mut row[i0..i1];
            let stride = tx.stride as usize;
            match tx.nfull {
                3 => restrict_taps::<3>(interior, frow, base, stride, w),
                2 => restrict_taps::<2>(interior, frow, base, stride, w),
                _ => restrict_taps::<1>(interior, frow, base, stride, w),
            }
        }
    }
}

/// `dst = f(dst, row)` over the points of the one-row box `line` that
/// lie in `store` (a region of `dst`).
fn put_row(
    dst: &mut Fab,
    store: IndexBox,
    line: &IndexBox,
    row: &[f64],
    f: impl Fn(f64, f64) -> f64,
) {
    let Some(b) = store.intersect(line) else {
        return;
    };
    let ix = dst.indexer();
    let n = (b.hi.x - b.lo.x) as usize;
    let out = &mut dst.comp_mut(0)[ix.at(b.lo.x, b.lo.y, b.lo.z)..][..n];
    let src = &row[(b.lo.x - line.lo.x) as usize..][..n];
    for (d, &v) in out.iter_mut().zip(src) {
        *d = f(*d, v);
    }
}

/// `acc[t] += Σ_s w[s] · f[base + stride·t + s]`, taps in order.
#[inline(always)]
fn restrict_taps<const N: usize>(
    acc: &mut [f64],
    f: &[f64],
    base: usize,
    stride: usize,
    w: [f64; 3],
) {
    for (t, a) in acc.iter_mut().enumerate() {
        let q = &f[base + stride * t..][..N];
        for s in 0..N {
            *a += w[s] * q[s];
        }
    }
}

/// Convenience wrapper so callers need not know fab layout details.
pub fn restriction_margin(order: usize, rr: i64) -> i64 {
    ((order as i64 + 3) + rr - 1) / rr + 1
}

/// Suggest a refinement patch covering the region where a species'
/// per-cell macroparticle weight exceeds `threshold` (a density-based
/// tagging criterion — the paper's dynamic MR places the patch over the
/// high-density target). Returns the tagged bounding box grown by
/// `margin` cells and clipped so the patch (plus its PML shell) fits
/// inside the domain; `None` if nothing exceeds the threshold.
pub fn suggest_patch(
    sim: &crate::sim::Simulation,
    species: usize,
    threshold_weight_per_cell: f64,
    margin: i64,
    npml: i64,
) -> Option<IndexBox> {
    let geom = sim.fs.geom;
    let dom = sim.fs.domain();
    let n = dom.size();
    // Per-cell weight census (x-z for 2-D; full 3-D otherwise).
    let mut weight = vec![0.0f64; (n.x * n.y * n.z) as usize];
    let idx = |c: IntVect| -> Option<usize> {
        if !dom.contains(c) {
            return None;
        }
        Some((((c.z - dom.lo.z) * n.y + (c.y - dom.lo.y)) * n.x + (c.x - dom.lo.x)) as usize)
    };
    for buf in &sim.parts[species].bufs {
        for i in 0..buf.len() {
            let c = IntVect::new(
                geom.cell_of(0, buf.x[i]),
                geom.cell_of(1, buf.y[i]),
                geom.cell_of(2, buf.z[i]),
            );
            if let Some(k) = idx(c) {
                weight[k] += buf.w[i];
            }
        }
    }
    // Tag and take the bounding box.
    let mut lo = IntVect::new(i64::MAX, i64::MAX, i64::MAX);
    let mut hi = IntVect::new(i64::MIN, i64::MIN, i64::MIN);
    let mut any = false;
    for k in dom.lo.z..dom.hi.z {
        for j in dom.lo.y..dom.hi.y {
            for i in dom.lo.x..dom.hi.x {
                let c = IntVect::new(i, j, k);
                if weight[idx(c).unwrap()] > threshold_weight_per_cell {
                    lo = lo.min(c);
                    hi = hi.max(c + IntVect::ONE);
                    any = true;
                }
            }
        }
    }
    if !any {
        return None;
    }
    // Grow by the margin, clip so that patch + PML fits in the domain.
    let mut grow = IntVect::splat(margin);
    let mut clip = IntVect::splat(npml.max(1));
    if sim.dim == Dim::Two {
        grow.y = 0;
        clip.y = 0;
    }
    let patch = IndexBox::new(lo - grow, hi + grow);
    let room = dom.grow_vec(-clip);
    let clipped = patch.intersect(&room)?;
    // In 2-D keep the full collapsed y extent.
    let mut out = clipped;
    if sim.dim == Dim::Two {
        out.lo.y = dom.lo.y;
        out.hi.y = dom.hi.y;
    }
    (!out.is_empty()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrpic_amr::{BoxArray, Stagger};
    use mrpic_field::fieldset::GridGeom;

    fn parent_2d() -> FieldSet {
        let dom = IndexBox::from_size(IntVect::new(64, 1, 32));
        let ba = BoxArray::chop(dom, IntVect::new(32, 1, 32));
        let geom = GridGeom {
            dx: [1.0e-6, 1.0e-6, 1.0e-6],
            x0: [0.0; 3],
        };
        FieldSet::new(
            Dim::Two,
            ba,
            geom,
            Periodicity::new(dom, [false, false, true]),
            4,
        )
    }

    fn patch_cfg() -> MrConfig {
        MrConfig {
            patch: IndexBox::new(IntVect::new(16, 0, 8), IntVect::new(40, 1, 24)),
            rr: 2,
            n_transition: 2,
            npml: 8,
            subcycle: false,
        }
    }

    #[test]
    fn level_geometry() {
        let parent = parent_2d();
        let lvl = MrLevel::new(&parent, patch_cfg(), 4);
        assert_eq!(lvl.fine.geom.dx[0], 0.5e-6);
        assert_eq!(lvl.fine.domain().size(), IntVect::new(48, 1, 32));
        assert_eq!(lvl.coarse.domain(), patch_cfg().patch);
        let (lo, hi) = lvl.patch_phys(&parent.geom);
        assert!((lo[0] - 16.0e-6).abs() < 1e-18);
        assert!((hi[0] - 40.0e-6).abs() < 1e-12);
        let (glo, ghi) = lvl.gather_phys(&parent.geom);
        assert!((glo[0] - 18.0e-6).abs() < 1e-12);
        assert!((ghi[0] - 38.0e-6).abs() < 1e-12);
        assert!(lvl.bytes() > 0);
    }

    #[test]
    fn restriction_preserves_constants() {
        let parent = parent_2d();
        let mut lvl = MrLevel::new(&parent, patch_cfg(), 4);
        // Constant fine J: restriction of a constant must equal it.
        lvl.fine.j[0].fab_mut(0).fill(3.0);
        let stag = lvl.fine.j[0].fab(0).stagger();
        let p = IntVect::new(20, 0, 12);
        let v = restrict_point(lvl.fine.j[0].fab(0), stag, p, lvl.rvec());
        assert!((v - 3.0).abs() < 1e-12);
    }

    #[test]
    fn interp_reproduces_linear_fields() {
        let parent = parent_2d();
        let lvl = MrLevel::new(&parent, patch_cfg(), 4);
        let stag = parent.e[1].stagger(); // Ey: nodal x,z in 2-D
        let region = patch_cfg().patch.grow(3);
        let mut scratch = Fab::new(
            IndexBox::new(
                IntVect::new(region.lo.x, 0, region.lo.z),
                IntVect::new(region.hi.x, 1, region.hi.z),
            ),
            stag,
            1,
            0,
        );
        let pts = scratch.grown_pts();
        for p in pts.cells().collect::<Vec<_>>() {
            scratch.set(0, p, 2.0 * p.x as f64 + 0.5 * p.z as f64);
        }
        // Fine point (x=41, z=20) sits at parent coords (20.5, 10.0).
        let v = interp_point(
            &scratch,
            stag,
            IntVect::new(41, 0, 20),
            lvl.rvec(),
            Dim::Two,
        );
        assert!((v - (2.0 * 20.5 + 0.5 * 10.0)).abs() < 1e-12, "{v}");
    }

    #[test]
    fn couple_currents_adds_to_parent() {
        let mut parent = parent_2d();
        let mut lvl = MrLevel::new(&parent, patch_cfg(), 4);
        lvl.fine.j[2].fab_mut(0).fill(2.0);
        lvl.couple_currents(&mut parent, 2);
        // Parent Jz inside the patch must now be ~2.0 (restriction of a
        // constant), coarse patch too.
        let probe = IntVect::new(24, 0, 16);
        assert!((parent.j[2].at(0, probe).unwrap() - 2.0).abs() < 1e-12);
        assert!((lvl.coarse.j[2].fab(0).get(0, probe) - 2.0).abs() < 1e-12);
        // Far outside the patch: untouched.
        assert_eq!(parent.j[2].at(0, IntVect::new(2, 0, 2)).unwrap(), 0.0);
    }

    #[test]
    fn aux_equals_parent_when_no_fine_sources() {
        // With zero fine/coarse fields, aux = I[parent]: a linear parent
        // field is reproduced exactly on the fine lattice.
        let mut parent = parent_2d();
        for fi in 0..parent.e[1].nfabs() {
            let vb = parent.e[1].fab(fi).grown_pts();
            let fab = parent.e[1].fab_mut(fi);
            for p in vb.cells().collect::<Vec<_>>() {
                fab.set(0, p, p.x as f64 + 2.0 * p.z as f64);
            }
        }
        let mut lvl = MrLevel::new(&parent, patch_cfg(), 4);
        lvl.build_aux(&parent);
        // Check a fine nodal point: fine (34, 18) = parent (17, 9).
        let got = lvl.aux.e[1].fab(0).get(0, IntVect::new(34, 0, 18));
        assert!((got - (17.0 + 2.0 * 9.0)).abs() < 1e-12, "{got}");
        // A half-parent point: fine x=35 = parent x=17.5.
        let got = lvl.aux.e[1].fab(0).get(0, IntVect::new(35, 0, 18));
        assert!((got - (17.5 + 18.0)).abs() < 1e-12, "{got}");
    }

    #[test]
    fn aux_substitution_cancels_coarse_interior_sources() {
        // If coarse == parent inside the patch (same interior source at
        // coarse resolution), aux == fine there.
        let mut parent = parent_2d();
        let mut lvl = MrLevel::new(&parent, patch_cfg(), 4);
        let val = 5.0;
        for fi in 0..parent.b[2].nfabs() {
            parent.b[2].fab_mut(fi).fill(val);
        }
        lvl.coarse.b[2].fab_mut(0).fill(val);
        lvl.fine.b[2].fab_mut(0).fill(7.0);
        lvl.build_aux(&parent);
        let got = lvl.aux.b[2].fab(0).get(0, IntVect::new(40, 0, 20));
        assert!((got - 7.0).abs() < 1e-12, "{got}");
    }

    #[test]
    fn window_shift_moves_patch_data() {
        let parent = parent_2d();
        let mut lvl = MrLevel::new(&parent, patch_cfg(), 4);
        let p = IntVect::new(40, 0, 20);
        lvl.fine.e[1].fab_mut(0).set(0, p, 9.0);
        lvl.shift_window(IntVect::new(1, 0, 0));
        // Fine shifts by rr = 2 cells.
        assert_eq!(lvl.fine.e[1].fab(0).get(0, IntVect::new(38, 0, 20)), 9.0);
        assert_eq!(lvl.fine.geom.x0[0], 1.0e-6);
    }

    // ---- Bitwise oracles: the sweep bodies before the per-level caches.

    #[derive(Clone, Copy)]
    enum FieldKind {
        E,
        B,
    }

    /// `build_aux` as it was before the per-level caches.
    fn build_aux_oracle(lvl: &mut MrLevel, parent: &FieldSet) {
        let MrLevel {
            cfg,
            fine,
            coarse,
            aux,
            dim,
            ..
        } = lvl;
        let dim = *dim;
        let rvec = match dim {
            Dim::Three => IntVect::splat(cfg.rr),
            Dim::Two => IntVect::new(cfg.rr, 1, cfg.rr),
        };
        let margin = aux.ngrow / cfg.rr + 2;
        for (comp, which) in [
            (0usize, FieldKind::E),
            (1, FieldKind::E),
            (2, FieldKind::E),
            (0, FieldKind::B),
            (1, FieldKind::B),
            (2, FieldKind::B),
        ] {
            let (pfa, cfa, ffa, afa) = match which {
                FieldKind::E => (
                    &parent.e[comp],
                    &coarse.e[comp],
                    &fine.e[comp],
                    &mut aux.e[comp],
                ),
                FieldKind::B => (
                    &parent.b[comp],
                    &coarse.b[comp],
                    &fine.b[comp],
                    &mut aux.b[comp],
                ),
            };
            let stag = pfa.stagger();
            let mut region = cfg.patch.grow(margin);
            if dim == Dim::Two {
                region.lo.y = cfg.patch.lo.y;
                region.hi.y = cfg.patch.hi.y;
            }
            let scratch = oracle_scratch(pfa, cfa.fab(0), region);
            let ffab = ffa.fab(0);
            let afab = afa.fab_mut(0);
            let apts = afab.grown_pts();
            let fstore = ffab.grown_pts();
            let aix = afab.indexer();
            let fix = ffab.indexer();
            let six = scratch.indexer();
            let spts = scratch.grown_pts();
            let table = |d: usize| -> Vec<(i64, f64)> {
                (apts.lo[d]..apts.hi[d])
                    .map(|i| {
                        if rvec[d] == 1 || (dim == Dim::Two && d == 1) {
                            return (i.clamp(spts.lo[d], spts.hi[d] - 1), 0.0);
                        }
                        let off = stag.offset(d);
                        let t = (i as f64 + off) / rvec[d] as f64 - off;
                        let fl = t.floor();
                        let i0 = (fl as i64).clamp(spts.lo[d], spts.hi[d] - 2);
                        let w = (t - i0 as f64).clamp(0.0, 1.0);
                        (i0, w)
                    })
                    .collect()
            };
            let tx = table(0);
            let ty = table(1);
            let tz = table(2);
            let sdata = scratch.comp(0);
            let fdata = ffab.comp(0);
            let adata = afab.comp_mut(0);
            let ymax = spts.hi.y - 1;
            let zmax = spts.hi.z - 1;
            for k in apts.lo.z..apts.hi.z {
                let (k0, wz) = tz[(k - apts.lo.z) as usize];
                for jj in apts.lo.y..apts.hi.y {
                    let (j0, wy) = ty[(jj - apts.lo.y) as usize];
                    let arow = aix.at(apts.lo.x, jj, k);
                    let in_frow = fstore.lo.y <= jj
                        && jj < fstore.hi.y
                        && fstore.lo.z <= k
                        && k < fstore.hi.z;
                    let s00 = six.at(spts.lo.x, j0, k0);
                    let s10 = six.at(spts.lo.x, (j0 + 1).min(ymax), k0);
                    let s01 = six.at(spts.lo.x, j0, (k0 + 1).min(zmax));
                    let s11 = six.at(spts.lo.x, (j0 + 1).min(ymax), (k0 + 1).min(zmax));
                    for i in apts.lo.x..apts.hi.x {
                        let (i0, wx) = tx[(i - apts.lo.x) as usize];
                        let col = (i0 - spts.lo.x) as usize;
                        let cup = col + usize::from(i0 + 1 < spts.hi.x);
                        let lerp_x = |row: usize| -> f64 {
                            let a = sdata[row + col];
                            let b = sdata[row + cup];
                            a + wx * (b - a)
                        };
                        let v0 = {
                            let v00 = lerp_x(s00);
                            let v10 = lerp_x(s10);
                            v00 + wy * (v10 - v00)
                        };
                        let v1 = {
                            let v01 = lerp_x(s01);
                            let v11 = lerp_x(s11);
                            v01 + wy * (v11 - v01)
                        };
                        let diff = v0 + wz * (v1 - v0);
                        let fine_v = if in_frow && fstore.lo.x <= i && i < fstore.hi.x {
                            fdata[fix.at(i, jj, k)]
                        } else {
                            0.0
                        };
                        adata[arow + (i - apts.lo.x) as usize] = fine_v + diff;
                    }
                }
            }
        }
    }

    /// The `parent − coarse` scratch of the `build_aux` oracle.
    fn oracle_scratch(pfa: &FabArray, cfab: &Fab, region: IndexBox) -> Fab {
        let mut scratch = Fab::new(region, pfa.stagger(), 1, 0);
        for fi in 0..pfa.nfabs() {
            let src = pfa.fab(fi);
            scratch.copy_region_from(src, &src.grown_pts(), IntVect::ZERO, 0, 0);
        }
        for fi in 0..pfa.nfabs() {
            let src = pfa.fab(fi);
            scratch.copy_region_from(src, &src.valid_pts(), IntVect::ZERO, 0, 0);
        }
        scratch.blend_region_from(cfab, &cfab.grown_pts(), IntVect::ZERO, 0, 0, |d, c| d - c);
        scratch
    }

    /// `couple_currents` as it was before the per-level caches.
    fn couple_currents_oracle(lvl: &mut MrLevel, parent: &mut FieldSet, margin: i64) {
        let rvec = lvl.rvec();
        for c in 0..3 {
            let fine_fab = lvl.fine.j[c].fab(0).clone();
            let stag = fine_fab.stagger();
            let mut region = lvl.cfg.patch.grow(margin);
            if lvl.dim == Dim::Two {
                region.lo.y = lvl.cfg.patch.lo.y;
                region.hi.y = lvl.cfg.patch.hi.y;
            }
            let pts = stag.point_box(&region);
            {
                let cfab = lvl.coarse.j[c].fab_mut(0);
                let store = cfab.grown_pts();
                if let Some(overlap) = store.intersect(&pts) {
                    for p in overlap.cells() {
                        let v = restrict_point(&fine_fab, stag, p, rvec);
                        cfab.set(0, p, v);
                    }
                }
            }
            for fi in 0..parent.j[c].nfabs() {
                let pfab = parent.j[c].fab_mut(fi);
                let store = pfab.valid_pts();
                let Some(overlap) = store.intersect(&pts) else {
                    continue;
                };
                for p in overlap.cells() {
                    let v = restrict_point(&fine_fab, stag, p, rvec);
                    pfab.add(0, p, v);
                }
            }
        }
    }

    /// Restriction: value of a parent-resolution point `p` from fine data.
    fn restrict_point(fine: &Fab, stag: Stagger, p: IntVect, rvec: IntVect) -> f64 {
        let store = fine.grown_pts();
        let mut acc = 0.0;
        let (idx, wts) = axis_restrict_weights(stag, p, rvec);
        for (kz, wz) in idx[2].iter().zip(wts[2].iter()) {
            if *wz == 0.0 {
                continue;
            }
            for (jy, wy) in idx[1].iter().zip(wts[1].iter()) {
                if *wy == 0.0 {
                    continue;
                }
                for (ix, wx) in idx[0].iter().zip(wts[0].iter()) {
                    if *wx == 0.0 {
                        continue;
                    }
                    let q = IntVect::new(*ix, *jy, *kz);
                    if store.contains(q) {
                        acc += wx * wy * wz * fine.get(0, q);
                    }
                }
            }
        }
        acc
    }

    type AxisStencil = ([[i64; 3]; 3], [[f64; 3]; 3]);

    fn axis_restrict_weights(stag: Stagger, p: IntVect, rvec: IntVect) -> AxisStencil {
        let mut idx = [[0i64; 3]; 3];
        let mut wts = [[0.0f64; 3]; 3];
        for d in 0..3 {
            let r = rvec[d];
            if r == 1 {
                idx[d] = [p[d], 0, 0];
                wts[d] = [1.0, 0.0, 0.0];
            } else if stag.is_nodal(d) {
                idx[d] = [r * p[d] - 1, r * p[d], r * p[d] + 1];
                wts[d] = [0.25, 0.5, 0.25];
            } else {
                idx[d] = [r * p[d], r * p[d] + 1, 0];
                wts[d] = [0.5, 0.5, 0.0];
            }
        }
        (idx, wts)
    }

    /// Interpolation: parent-resolution `src` evaluated at fine point `p`
    /// by linear interpolation per axis (the trilinear reference).
    fn interp_point(src: &Fab, stag: Stagger, p: IntVect, rvec: IntVect, dim: Dim) -> f64 {
        let store = src.grown_pts();
        let mut i0 = [0i64; 3];
        let mut w1 = [0.0f64; 3];
        for d in 0..3 {
            let r = rvec[d] as f64;
            if rvec[d] == 1 || (dim == Dim::Two && d == 1) {
                i0[d] = p[d];
                w1[d] = 0.0;
                continue;
            }
            let off = stag.offset(d);
            // Parent-lattice coordinate of the fine point.
            let t = (p[d] as f64 + off) / r - off;
            let fl = t.floor();
            i0[d] = fl as i64;
            w1[d] = t - fl;
        }
        let mut acc = 0.0;
        for cz in 0..2 {
            let wz = if cz == 0 { 1.0 - w1[2] } else { w1[2] };
            if wz == 0.0 {
                continue;
            }
            for cy in 0..2 {
                let wy = if cy == 0 { 1.0 - w1[1] } else { w1[1] };
                if wy == 0.0 {
                    continue;
                }
                for cx in 0..2 {
                    let wx = if cx == 0 { 1.0 - w1[0] } else { w1[0] };
                    if wx == 0.0 {
                        continue;
                    }
                    let q = IntVect::new(i0[0] + cx, i0[1] + cy, i0[2] + cz);
                    if store.contains(q) {
                        acc += wx * wy * wz * src.get(0, q);
                    }
                }
            }
        }
        acc
    }

    /// Deterministic xorshift field values: 3/8 `+0.0`, 3/8 `-0.0`, the
    /// rest uniform in (-1, 1), so lerps and restrictions hit signed-zero
    /// sums often.
    struct Rng(u64);

    impl Rng {
        fn value(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            match self.0 % 8 {
                0..3 => 0.0,
                3..6 => -0.0,
                _ => (self.0 >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0,
            }
        }

        /// Every stored point (guards included) of E, B and J.
        fn fill(&mut self, fs: &mut FieldSet) {
            let arrays = fs.e.iter_mut().chain(&mut fs.b).chain(&mut fs.j);
            for fab in arrays.flat_map(|a| a.fabs_mut()) {
                fab.raw_mut().iter_mut().for_each(|v| *v = self.value());
            }
        }
    }

    fn assert_bits(got: &[FabArray; 3], want: &[FabArray; 3], what: &str) {
        for (c, (g, w)) in got.iter().zip(want).enumerate() {
            for (fi, (gf, wf)) in g.fabs().iter().zip(w.fabs()).enumerate() {
                for (i, (a, b)) in gf.raw().iter().zip(wf.raw()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{what}[{c}] fab {fi} point {i}: {a:e} vs oracle {b:e}"
                    );
                }
            }
        }
    }

    /// Run both sweeps and their oracles on identical random state, three
    /// times on the same level: fresh data, fresh data again (the cached
    /// plans and a dirty scratch are reused), and after a window shift.
    /// Every stored point of aux E/B, coarse J and parent J must match
    /// bit for bit.
    fn check_against_oracles(mut parent: FieldSet, cfg: MrConfig, ngrow: i64, margin: i64) {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut lvl = MrLevel::new(&parent, cfg, ngrow);
        for round in 0..3 {
            if round < 2 {
                rng.fill(&mut parent);
                for fs in [&mut lvl.fine, &mut lvl.coarse, &mut lvl.aux] {
                    rng.fill(fs);
                }
            } else {
                parent.shift_window(IntVect::new(1, 0, 0));
                lvl.shift_window(IntVect::new(1, 0, 0));
            }
            let (mut p_ref, mut l_ref) = (parent.clone(), lvl.clone());
            // The one-pass plane fill equals the oracle's copy/copy/
            // subtract scratch at every point, read by the interpolation
            // or not.
            let aux_margin = lvl.aux.ngrow / cfg.rr + 2;
            let region = collapse_y(cfg.patch.grow(aux_margin), &cfg.patch, lvl.dim);
            for (n, plan) in lvl.interp.iter().enumerate() {
                let (pfa, cfab) = (eb(&parent, n), eb(&lvl.coarse, n).fab(0));
                let want = oracle_scratch(pfa, cfab, region);
                let (spts, sx) = (plan.spts, plan.spts.size().x);
                let mut rows = vec![f64::NAN; (sx * spts.size().y) as usize];
                for k in spts.lo.z..spts.hi.z {
                    plan.fill_plane(k, pfa, cfab, &mut rows);
                    let mut plane = spts;
                    (plane.lo.z, plane.hi.z) = (k, k + 1);
                    for p in plane.cells() {
                        let got = rows[((p.y - spts.lo.y) * sx + p.x - spts.lo.x) as usize];
                        let want = want.get(0, p);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "round {round} comp {n} {p:?}"
                        );
                    }
                }
            }
            lvl.build_aux(&parent);
            build_aux_oracle(&mut l_ref, &p_ref);
            lvl.couple_currents(&mut parent, margin);
            couple_currents_oracle(&mut l_ref, &mut p_ref, margin);
            let tag = |what: &str| format!("round {round} {what}");
            assert_bits(&lvl.aux.e, &l_ref.aux.e, &tag("aux E"));
            assert_bits(&lvl.aux.b, &l_ref.aux.b, &tag("aux B"));
            assert_bits(&lvl.coarse.j, &l_ref.coarse.j, &tag("coarse J"));
            assert_bits(&parent.j, &p_ref.j, &tag("parent J"));
        }
    }

    #[test]
    fn sweeps_match_oracles_2d_multibox() {
        // The x box boundary at 32 cuts through patch + margin.
        check_against_oracles(parent_2d(), patch_cfg(), 4, 4);
    }

    #[test]
    fn sweeps_match_oracles_2d_full_z_patch_and_wide_margin() {
        // The patch spans the periodic z axis (patch + margin leaves the
        // domain), and margin 6 > ngrow 3 makes the coupling region wider
        // than the coarse J store: only its stored part is written.
        let mut cfg = patch_cfg();
        cfg.patch.lo.z = 0;
        cfg.patch.hi.z = 32;
        check_against_oracles(parent_2d(), cfg, 3, 6);
    }

    #[test]
    fn sweeps_match_oracles_3d_multibox() {
        // Box boundaries at x = 16 and y = 12 cut through patch + margin,
        // and the patch touches the non-periodic y = 0 face: with one
        // parent guard, aux guard points interpolate from points no
        // parent fab stores (zero, minus the coarse value).
        let dom = IndexBox::from_size(IntVect::new(32, 24, 24));
        let parent = FieldSet::new(
            Dim::Three,
            BoxArray::chop(dom, IntVect::new(16, 12, 12)),
            GridGeom {
                dx: [1.0e-6; 3],
                x0: [0.0; 3],
            },
            Periodicity::new(dom, [false, false, true]),
            1,
        );
        let cfg = MrConfig {
            patch: IndexBox::new(IntVect::new(10, 0, 8), IntVect::new(22, 12, 16)),
            ..patch_cfg()
        };
        check_against_oracles(parent, cfg, 4, 4);
    }
}
