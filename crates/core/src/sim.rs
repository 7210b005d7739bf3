//! The simulation driver: the full PIC cycle of the paper's Fig. 3.
//!
//! Each step: gather fields onto particles → push momenta (Boris/Vay)
//! and positions (leapfrog) → deposit currents (Esirkepov) → exchange
//! guard sums → advance Maxwell (B half / E / B half, PML-terminated) →
//! redistribute particles → advance the moving window. With mesh
//! refinement enabled, particles inside the patch deposit to the fine
//! grid (restricted onto the coarse patch and the parent) and gather
//! from the auxiliary grid, per §V-B of the paper.

use crate::balance::{self, CostTracker};
use crate::laser::LaserAntenna;
use crate::mr::{MrConfig, MrLevel};
use crate::particles::{ParticleBuf, ParticleContainer};
use crate::species::{inject, Species};
use crate::telemetry::{
    scan_arrays, GuardTrip, PhaseTimes, Probes, SpeciesCount, StepRecord, Telemetry,
};
use mrpic_amr::{
    BoxArray, CommStats, DistributionMapping, Fab, FabArray, IndexBox, IntVect, Periodicity,
    Strategy,
};
use mrpic_field::cfl::dt_at;
use mrpic_field::fieldset::{
    fab_view, guard_vec, rho_stagger, view_of_fab_mut, view_over, Dim, FieldSet, GridGeom,
};
use mrpic_field::pml::Pml;
use mrpic_field::yee;
use mrpic_kernels::deposit::{deposit_rho2, deposit_rho3, JViews};
use mrpic_kernels::gather::{EmOut, EmViews};
use mrpic_kernels::lanes::{Lanes, DEFAULT_LANE_WIDTH};
use mrpic_kernels::push::{gamma_of_u, push_position, push_position2, Pusher};
use mrpic_kernels::real::Real;
use mrpic_kernels::shape::{Cubic, Linear, Quadratic};
use mrpic_kernels::view::{FieldView, FieldViewMut, Geom};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

/// The particle-kernel family the step loop runs.
type L = Lanes<DEFAULT_LANE_WIDTH>;

/// Runtime-selected particle shape order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShapeOrder {
    Linear,
    Quadratic,
    Cubic,
}

impl ShapeOrder {
    pub fn order(self) -> usize {
        match self {
            ShapeOrder::Linear => 1,
            ShapeOrder::Quadratic => 2,
            ShapeOrder::Cubic => 3,
        }
    }

    /// Guard cells needed by gather + Esirkepov deposition.
    pub fn ngrow(self) -> i64 {
        self.order() as i64 + 2
    }
}

/// Dispatch a generic-shape kernel call on a runtime order.
macro_rules! with_shape {
    ($order:expr, $S:ident, $body:expr) => {
        match $order {
            ShapeOrder::Linear => {
                type $S = Linear;
                $body
            }
            ShapeOrder::Quadratic => {
                type $S = Quadratic;
                $body
            }
            ShapeOrder::Cubic => {
                type $S = Cubic;
                $body
            }
        }
    };
}

/// Numeric precision of the particle kernels (paper §V-A mixed-precision
/// mode). `F64` is the bitwise-reproducible default. `F32Particles`
/// stages per-box field windows and particle attributes in `f32`, runs
/// gather / momentum push / deposition in single precision, and keeps
/// positions and the global field state in `f64` (positions lose too
/// much resolution in `f32` once the moving window travels far from the
/// origin; the field solve stays `f64` so Gauss-law conservation is
/// limited only by the deposited currents).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Precision {
    #[default]
    F64,
    F32Particles,
}

impl Precision {
    /// Bytes per scalar in the particle kernels (roofline `wsize`).
    pub fn wsize(self) -> f64 {
        match self {
            Precision::F64 => 8.0,
            Precision::F32Particles => 4.0,
        }
    }
}

/// Moving-window configuration: the grid follows the laser at c along +x
/// starting at `start_time` (paper Table I capability (b)).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MovingWindow {
    pub start_time: f64,
    /// Fractional cells accumulated toward the next shift.
    pub accum: f64,
    /// Inject fresh plasma in the strip exposed at the leading edge.
    pub inject_at_front: bool,
}

/// The paper's load-balance metric over one step's per-rank records:
/// max/mean of each rank's busy seconds. Busy time is particle work
/// plus exchange work *minus* the blocking recv-wait — a rank stalled
/// waiting on a hot neighbor is idle, not loaded, and counting the
/// stall used to bias the reported ratio toward 1.0 exactly when the
/// imbalance was worst. `None` for fewer than two ranks, where the
/// ratio is vacuous.
pub fn rank_imbalance(ranks: &[crate::exchange::RankStepComm]) -> Option<f64> {
    if ranks.len() < 2 {
        return None;
    }
    let busy: Vec<f64> = ranks
        .iter()
        .map(|r| (r.particle_seconds + r.exchange_seconds - r.recv_wait_seconds).max(0.0))
        .collect();
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    let max = busy.iter().fold(0.0f64, |a, &b| a.max(b));
    (mean > 0.0).then(|| max / mean)
}

/// Serial / rayon-threaded fallback for [`StepRecord::imbalance`]: the
/// same max/mean ratio over per-*box* cost instead of per-rank busy
/// time, so single-process runs (where no rank records exist) still
/// feed the LB trigger. `None` for fewer than two boxes or all-zero
/// costs.
///
/// [`StepRecord::imbalance`]: crate::telemetry::StepRecord::imbalance
pub fn box_imbalance(costs: &[f64]) -> Option<f64> {
    if costs.len() < 2 {
        return None;
    }
    let mean = costs.iter().sum::<f64>() / costs.len() as f64;
    let max = costs.iter().fold(0.0f64, |a, &b| a.max(b));
    (mean > 0.0).then(|| max / mean)
}

/// Particles per chunk of the fused advance: gather, push and deposit of
/// one chunk run back to back while its operands are still in L2. A
/// multiple of the lane width, so only a segment's last chunk has a
/// scalar tail.
const CHUNK: usize = 1024;
const _: () = assert!(CHUNK.is_multiple_of(DEFAULT_LANE_WIDTH));

/// Per-thread particle workspace in the kernel precision `T`, reused
/// across boxes and steps. The particle vectors hold one chunk (at most
/// [`CHUNK`] particles), so the workspace does not grow with the box's
/// particle count; only the `f32` field casts and current tiles are
/// grid-sized.
#[derive(Default)]
struct Scratch<T> {
    chunk: ChunkScratch<T>,
    /// `f32` only (empty in `f64` runs, whose kernels borrow the fabs in
    /// place): the guarded field windows of the current gather source,
    /// and the current tiles of one deposit target, summed into the
    /// `f64` fabs once the target's last chunk is deposited.
    fld: [Vec<T>; 6],
    j: [Vec<T>; 3],
}

/// The per-chunk particle vectors of a [`Scratch`].
#[derive(Default)]
struct ChunkScratch<T> {
    /// Gathered per-particle fields (Ex, Ey, Ez, Bx, By, Bz).
    em: [Vec<T>; 6],
    /// Pre-push positions, the deposit's old state.
    x0: [Vec<T>; 3],
    /// Out-of-plane velocity at the half step (2-D deposition).
    vy: Vec<T>,
    /// `f32` staging only (empty in `f64` runs, whose kernels borrow the
    /// particle buffers in place): post-push positions, momenta, weights.
    x1: [Vec<T>; 3],
    u: [Vec<T>; 3],
    w: Vec<T>,
}

/// Per-precision pools of [`Scratch`] workspaces.
#[derive(Default)]
struct ScratchPools {
    f64: Mutex<Vec<Scratch<f64>>>,
    f32: Mutex<Vec<Scratch<f32>>>,
}

/// Checks a [`Scratch`] out of its pool; returns it on drop so worker
/// threads reuse warm buffers across boxes and steps.
struct ScratchGuard<'a, T: Default> {
    pool: &'a Mutex<Vec<Scratch<T>>>,
    sc: Scratch<T>,
}

impl<'a, T: Default> ScratchGuard<'a, T> {
    fn checkout(pool: &'a Mutex<Vec<Scratch<T>>>) -> Self {
        let sc = pool
            .lock()
            .expect("scratch pool poisoned by a panicked box worker")
            .pop()
            .unwrap_or_default();
        Self { pool, sc }
    }
}

impl<T: Default> Drop for ScratchGuard<'_, T> {
    fn drop(&mut self) {
        // A poisoned pool just loses this workspace; never panic in drop.
        if let Ok(mut pool) = self.pool.lock() {
            pool.push(std::mem::take(&mut self.sc));
        }
    }
}

/// Overwrite `dst` with `src` in precision `T`.
fn stage<T: Real>(dst: &mut Vec<T>, src: &[f64]) {
    dst.clear();
    dst.extend(src.iter().map(|&v| T::from_f64(v)));
}

/// How the `f64` simulation state reaches particle kernels running in
/// precision `Self` — the only per-precision code of the particle
/// advance. `f64` borrows particle attributes, field windows and current
/// fabs in place; `f32` casts them into [`Scratch`], writes momenta
/// back, and accumulates its current tiles into the `f64` fabs.
trait KernelReal: Real {
    fn pool(pools: &ScratchPools) -> &Mutex<Vec<Scratch<Self>>>;

    /// `src` as a kernel operand (`scratch` holds the cast copy).
    fn operand<'a>(src: &'a [f64], scratch: &'a mut Vec<Self>) -> &'a [Self];

    /// `src` as a mutable kernel operand; changes reach `src` through
    /// [`KernelReal::write_back`].
    fn operand_mut<'a>(src: &'a mut [f64], scratch: &'a mut Vec<Self>) -> &'a mut [Self];

    /// Store a mutated [`KernelReal::operand_mut`] back into `dst`.
    fn write_back(dst: &mut [f64], scratch: &[Self]);

    /// Make `old` hold the pre-push positions `src` after
    /// [`KernelReal::operand`] staged them there: `f64` copies (the one
    /// copy its advance makes), `f32` already holds the cast.
    fn save_old(src: &[f64], old: &mut Vec<Self>);

    /// The six field windows as kernel views (`scratch` holds the casts).
    fn fields<'a>(src: EmViews<'a, f64>, scratch: &'a mut [Vec<Self>; 6]) -> EmViews<'a, Self>;

    /// The current views `j` as a deposit target (`tiles` holds the
    /// `f32` accumulators).
    fn target<'a>(
        j: [FieldViewMut<'a, f64>; 3],
        tiles: &'a mut [Vec<Self>; 3],
    ) -> DepositTarget<'a, Self>;
}

/// One deposit target in kernel precision `T`: `f64` deposits straight
/// into the current views, `f32` into zeroed tiles that
/// [`DepositTarget::finish`] sums into them after the target's last
/// chunk — once per target, because summing per chunk would round
/// differently.
struct DepositTarget<'a, T> {
    views: JViews<'a, T>,
    /// The `f64` currents the tiles fold into (`f32` only).
    fold_into: Option<[FieldViewMut<'a, f64>; 3]>,
}

impl<T: Real> DepositTarget<'_, T> {
    fn finish(self) {
        let Some(dst) = self.fold_into else { return };
        let JViews { jx, jy, jz } = self.views;
        for (d, t) in dst.into_iter().zip([jx, jy, jz]) {
            for (d, &s) in d.data.iter_mut().zip(t.data.iter()) {
                *d += s.to_f64();
            }
        }
    }
}

impl KernelReal for f64 {
    fn pool(pools: &ScratchPools) -> &Mutex<Vec<Scratch<f64>>> {
        &pools.f64
    }

    fn operand<'a>(src: &'a [f64], _: &'a mut Vec<f64>) -> &'a [f64] {
        src
    }

    fn operand_mut<'a>(src: &'a mut [f64], _: &'a mut Vec<f64>) -> &'a mut [f64] {
        src
    }

    fn write_back(_: &mut [f64], _: &[f64]) {}

    fn save_old(src: &[f64], old: &mut Vec<f64>) {
        old.clear();
        old.extend_from_slice(src);
    }

    fn fields<'a>(src: EmViews<'a, f64>, _: &'a mut [Vec<f64>; 6]) -> EmViews<'a, f64> {
        src
    }

    fn target<'a>(
        [jx, jy, jz]: [FieldViewMut<'a, f64>; 3],
        _: &'a mut [Vec<f64>; 3],
    ) -> DepositTarget<'a, f64> {
        DepositTarget {
            views: JViews { jx, jy, jz },
            fold_into: None,
        }
    }
}

impl KernelReal for f32 {
    fn pool(pools: &ScratchPools) -> &Mutex<Vec<Scratch<f32>>> {
        &pools.f32
    }

    fn operand<'a>(src: &'a [f64], scratch: &'a mut Vec<f32>) -> &'a [f32] {
        stage(scratch, src);
        scratch
    }

    fn operand_mut<'a>(src: &'a mut [f64], scratch: &'a mut Vec<f32>) -> &'a mut [f32] {
        stage(scratch, src);
        scratch
    }

    fn write_back(dst: &mut [f64], scratch: &[f32]) {
        for (d, &s) in dst.iter_mut().zip(scratch) {
            *d = s as f64;
        }
    }

    fn save_old(_: &[f64], _: &mut Vec<f32>) {}

    fn fields<'a>(src: EmViews<'a, f64>, scratch: &'a mut [Vec<f32>; 6]) -> EmViews<'a, f32> {
        fn cast<'a>(src: FieldView<'_, f64>, dst: &'a mut Vec<f32>) -> FieldView<'a, f32> {
            stage(dst, src.data);
            FieldView {
                data: dst,
                lo: src.lo,
                nx: src.nx,
                nxy: src.nxy,
                half: src.half,
            }
        }
        let [f0, f1, f2, f3, f4, f5] = scratch;
        EmViews {
            ex: cast(src.ex, f0),
            ey: cast(src.ey, f1),
            ez: cast(src.ez, f2),
            bx: cast(src.bx, f3),
            by: cast(src.by, f4),
            bz: cast(src.bz, f5),
        }
    }

    fn target<'a>(
        j: [FieldViewMut<'a, f64>; 3],
        tiles: &'a mut [Vec<f32>; 3],
    ) -> DepositTarget<'a, f32> {
        /// A zeroed `f32` tile with the layout of `v`.
        fn tile<'a>(t: &'a mut Vec<f32>, v: &FieldViewMut<'_, f64>) -> FieldViewMut<'a, f32> {
            t.clear();
            t.resize(v.data.len(), 0.0);
            FieldViewMut {
                data: t,
                lo: v.lo,
                nx: v.nx,
                nxy: v.nxy,
                half: v.half,
            }
        }
        let [tx, ty, tz] = tiles;
        DepositTarget {
            views: JViews {
                jx: tile(tx, &j[0]),
                jy: tile(ty, &j[1]),
                jz: tile(tz, &j[2]),
            },
            fold_into: Some(j),
        }
    }
}

/// The first `len` slots of the gathered-field scratch.
fn em_out<T>(em: &mut [Vec<T>; 6], len: usize) -> EmOut<'_, T> {
    let [ex, ey, ez, bx, by, bz] = em;
    EmOut {
        ex: &mut ex[..len],
        ey: &mut ey[..len],
        ez: &mut ez[..len],
        bx: &mut bx[..len],
        by: &mut by[..len],
        bz: &mut bz[..len],
    }
}

/// Lane-blocked field gather at positions `[x, y, z]` (`y` unused in
/// 2-D).
fn gather<T: Real>(
    dim: Dim,
    order: ShapeOrder,
    [x, y, z]: [&[T]; 3],
    geom: &Geom,
    f: &EmViews<'_, T>,
    out: &mut EmOut<'_, T>,
) {
    with_shape!(
        order,
        S,
        match dim {
            Dim::Three => L::gather3::<S, T>(x, y, z, geom, f, out),
            Dim::Two => L::gather2::<S, T>(x, z, geom, f, out),
        }
    )
}

/// Lane-blocked Esirkepov deposition of particles moving from
/// `[x0, y0, z0]` to `[x1, y1, z1]` (`vy` is used in 2-D only).
#[allow(clippy::too_many_arguments)]
fn deposit<T: Real>(
    dim: Dim,
    order: ShapeOrder,
    [x0, y0, z0]: [&[T]; 3],
    [x1, y1, z1]: [&[T]; 3],
    vy: &[T],
    w: &[T],
    q: T,
    dt: T,
    geom: &Geom,
    j: &mut JViews<'_, T>,
) {
    with_shape!(
        order,
        S,
        match dim {
            Dim::Three => L::esirkepov3::<S, T>(x0, y0, z0, x1, y1, z1, w, q, dt, geom, j),
            Dim::Two => L::esirkepov2::<S, T>(x0, z0, x1, z1, vy, w, q, dt, geom, j),
        }
    )
}

/// Physical `[lo, hi)` bounds of a region.
type PhysRegion = ([f64; 3], [f64; 3]);

/// Stable partition of `buf` for MR routing, `[aux gather | transition
/// | outside the patch]`; returns the two pivots. `y` is ignored in 2-D.
fn mr_partition(
    buf: &mut ParticleBuf,
    dim: Dim,
    patch: PhysRegion,
    gather: PhysRegion,
) -> (usize, usize) {
    let inside = |(lo, hi): PhysRegion| {
        move |x: f64, y: f64, z: f64| {
            x >= lo[0]
                && x < hi[0]
                && (dim == Dim::Two || (y >= lo[1] && y < hi[1]))
                && z >= lo[2]
                && z < hi[2]
        }
    };
    buf.partition3(inside(patch), inside(gather))
}

/// Indices of the particle sub-phases in [`BoxTask::laps`].
const GATHER: usize = 0;
const PUSH: usize = 1;
const DEPOSIT: usize = 2;

/// The phases of a step that [`StepClock`] charges. `Particle` is the
/// gather/push/deposit region.
#[derive(Clone, Copy)]
enum Phase {
    Other,
    Sort,
    Particle,
    Sum,
    Maxwell,
    Mr,
    Redistribute,
    Window,
    Lb,
}

impl Phase {
    /// The phase's trace span (`Other` has none) and its seconds in `p`.
    /// The particle region is kept in `deposit` until
    /// [`StepClock::finish`] splits it.
    fn slot(self, p: &mut PhaseTimes) -> (Option<&'static str>, &mut f64) {
        match self {
            Phase::Other => (None, &mut p.other),
            Phase::Sort => (Some("sort"), &mut p.sort),
            Phase::Particle => (Some("particle"), &mut p.deposit),
            Phase::Sum => (Some("sum"), &mut p.sum),
            Phase::Maxwell => (Some("maxwell"), &mut p.maxwell),
            Phase::Mr => (Some("mr"), &mut p.mr),
            Phase::Redistribute => (Some("redistribute"), &mut p.redistribute),
            Phase::Window => (Some("window"), &mut p.window),
            Phase::Lb => (Some("lb"), &mut p.lb),
        }
    }
}

/// The one clock of a step: every instant from its start to
/// [`StepClock::finish`] is charged to exactly one [`Phase`], so the
/// phases partition the step's wall time. The open phase also holds its
/// trace span.
struct StepClock {
    start: Instant,
    mark: Instant,
    open: Phase,
    span: Option<mrpic_trace::SpanGuard>,
    phases: PhaseTimes,
}

impl StepClock {
    fn start() -> Self {
        let now = Instant::now();
        Self {
            start: now,
            mark: now,
            open: Phase::Other,
            span: None,
            phases: PhaseTimes::default(),
        }
    }

    /// Charge the time since the last switch to the open phase, close
    /// its span, then open `next` and its span.
    fn enter(&mut self, next: Phase) {
        let now = Instant::now();
        *self.open.slot(&mut self.phases).1 += now.duration_since(self.mark).as_secs_f64();
        self.mark = now;
        self.span = None;
        self.span = next
            .slot(&mut self.phases)
            .0
            .map(|name| mrpic_trace::span!(name));
        self.open = next;
    }

    /// End the step: its phase times and wall seconds. The particle
    /// region's wall time is split among gather/push/deposit in
    /// proportion to `laps` (the per-box laps summed over boxes), so the
    /// three add up to it at any thread count. `fill` is an attribute
    /// outside the partition.
    fn finish(mut self, laps: [f64; 3], fill: f64) -> (PhaseTimes, f64) {
        self.enter(Phase::Other);
        let mut p = self.phases;
        let (particle, lap_sum) = (p.deposit, laps.iter().sum::<f64>());
        if lap_sum > 0.0 {
            [p.gather, p.push, p.deposit] = laps.map(|l| particle * l / lap_sum);
        }
        p.fill = fill;
        (p, self.mark.duration_since(self.start).as_secs_f64())
    }
}

/// Per-species constants of one particle advance in kernel precision `T`.
struct SpeciesStep<T> {
    dim: Dim,
    order: ShapeOrder,
    pusher: Pusher,
    /// `q dt / 2m`, the momentum-push coefficient.
    qmdt2: T,
    q: T,
    kdt: T,
    dt: f64,
    /// Particles per chunk ([`CHUNK`] in the step loop).
    chunk: usize,
}

/// Laps of one box's particle advance: each lap charges the time since
/// the previous one to a [`GATHER`]/[`PUSH`]/[`DEPOSIT`] sub-phase, so
/// they keep their meaning while they interleave per chunk.
struct Laps<'a> {
    mark: Instant,
    acc: &'a mut [f64; 3],
}

impl Laps<'_> {
    fn lap(&mut self, phase: usize) {
        let now = Instant::now();
        self.acc[phase] += now.duration_since(self.mark).as_secs_f64();
        self.mark = now;
    }
}

/// The fused particle advance of one box.
struct BoxRun<'a, T> {
    step: &'a SpeciesStep<T>,
    buf: &'a mut ParticleBuf,
    sc: &'a mut ChunkScratch<T>,
    laps: Laps<'a>,
}

impl<T: KernelReal> BoxRun<'_, T> {
    /// Advance the particles `range` chunk by chunk. Per chunk: gather
    /// from `fields` (laid out on `fgeom`), push momenta, `vy`, save the
    /// old positions, push positions, deposit into `j` (on `jgeom`). Per
    /// particle the lane kernels do not depend on the blocking, and the
    /// deposits land in ascending particle order, so the result is
    /// bitwise the same at any chunk size.
    fn segment(
        &mut self,
        range: Range<usize>,
        fields: &EmViews<'_, T>,
        fgeom: &Geom,
        j: &mut JViews<'_, T>,
        jgeom: &Geom,
    ) {
        let s = self.step;
        let buf = &mut *self.buf;
        let ChunkScratch {
            em,
            x0: [x0, y0, z0],
            vy,
            x1: [x1_s, y1_s, z1_s],
            u: [ux_s, uy_s, uz_s],
            w: w_s,
        } = &mut *self.sc;
        let mut lo = range.start;
        while lo < range.end {
            let r = lo..range.end.min(lo.saturating_add(s.chunk));
            lo = r.end;
            let len = r.len();
            for v in em.iter_mut() {
                v.resize(len.max(v.len()), T::ZERO);
            }
            vy.resize(len.max(vy.len()), T::ZERO);
            let pos = [
                T::operand(&buf.x[r.clone()], x0),
                T::operand(&buf.y[r.clone()], y0),
                T::operand(&buf.z[r.clone()], z0),
            ];
            gather(s.dim, s.order, pos, fgeom, fields, &mut em_out(em, len));
            self.laps.lap(GATHER);
            // Momentum push, then vy at the half step from the same
            // kernel-precision momenta.
            {
                let ux = T::operand_mut(&mut buf.ux[r.clone()], ux_s);
                let uy = T::operand_mut(&mut buf.uy[r.clone()], uy_s);
                let uz = T::operand_mut(&mut buf.uz[r.clone()], uz_s);
                let [ex, ey, ez, bx, by, bz] = &*em;
                L::push_momentum(
                    s.pusher,
                    ux,
                    uy,
                    uz,
                    &ex[..len],
                    &ey[..len],
                    &ez[..len],
                    &bx[..len],
                    &by[..len],
                    &bz[..len],
                    s.qmdt2,
                );
                for p in 0..len {
                    vy[p] = uy[p] / gamma_of_u(ux[p], uy[p], uz[p]);
                }
            }
            T::write_back(&mut buf.ux[r.clone()], ux_s);
            T::write_back(&mut buf.uy[r.clone()], uy_s);
            T::write_back(&mut buf.uz[r.clone()], uz_s);
            // Keep the old positions for the deposit, then push them
            // (always in f64).
            T::save_old(&buf.x[r.clone()], x0);
            T::save_old(&buf.y[r.clone()], y0);
            T::save_old(&buf.z[r.clone()], z0);
            match s.dim {
                Dim::Three => push_position(
                    &mut buf.x[r.clone()],
                    &mut buf.y[r.clone()],
                    &mut buf.z[r.clone()],
                    &buf.ux[r.clone()],
                    &buf.uy[r.clone()],
                    &buf.uz[r.clone()],
                    s.dt,
                ),
                Dim::Two => push_position2(
                    &mut buf.x[r.clone()],
                    &mut buf.z[r.clone()],
                    &buf.ux[r.clone()],
                    &buf.uy[r.clone()],
                    &buf.uz[r.clone()],
                    s.dt,
                ),
            }
            let x1 = [
                T::operand(&buf.x[r.clone()], x1_s),
                T::operand(&buf.y[r.clone()], y1_s),
                T::operand(&buf.z[r.clone()], z1_s),
            ];
            let w = T::operand(&buf.w[r], w_s);
            self.laps.lap(PUSH);
            deposit(
                s.dim,
                s.order,
                [&x0[..], &y0[..], &z0[..]],
                x1,
                &vy[..len],
                w,
                s.q,
                s.kdt,
                jgeom,
                j,
            );
            self.laps.lap(DEPOSIT);
        }
    }
}

/// Per-box fine-patch deposition buffer. Boxes deposit into their own
/// buffer during the parallel particle loop; buffers are then reduced
/// into the shared fine-grid currents in ascending box order, so the
/// result is bitwise independent of the thread count.
#[derive(Default)]
struct FineJBuf {
    used: bool,
    j: [Vec<f64>; 3],
}

/// One box-parallel particle work item: disjoint mutable pieces of the
/// simulation state for a single (box, particle-buffer) pair.
struct BoxTask<'a> {
    bi: usize,
    buf: &'a mut crate::particles::ParticleBuf,
    jx: &'a mut Fab,
    jy: &'a mut Fab,
    jz: &'a mut Fab,
    fine_j: &'a mut FineJBuf,
    /// Per-box [gather, push, deposit] lap seconds.
    laps: &'a mut [f64; 3],
}

/// Builder for [`Simulation`].
pub struct SimulationBuilder {
    dim: Dim,
    cells: IntVect,
    dx: [f64; 3],
    x0: [f64; 3],
    periodic: [bool; 3],
    cfl: f64,
    order: ShapeOrder,
    npml: Option<i64>,
    max_box: Option<IntVect>,
    window: Option<MovingWindow>,
    lb: Option<balance::LbPolicyCfg>,
    species: Vec<Species>,
    lasers: Vec<LaserAntenna>,
    sort_interval: u64,
    seed: u64,
    filter_passes: usize,
    precision: Precision,
}

impl SimulationBuilder {
    pub fn new(dim: Dim) -> Self {
        Self {
            dim,
            cells: IntVect::new(64, 1, 64),
            dx: [1.0e-6; 3],
            x0: [0.0; 3],
            periodic: [false; 3],
            cfl: 0.7,
            order: ShapeOrder::Quadratic,
            npml: None,
            max_box: None,
            window: None,
            lb: None,
            species: Vec::new(),
            lasers: Vec::new(),
            sort_interval: 50,
            seed: 20220101,
            filter_passes: 0,
            precision: Precision::default(),
        }
    }

    pub fn domain(mut self, cells: IntVect, dx: [f64; 3], x0: [f64; 3]) -> Self {
        if self.dim == Dim::Two {
            assert_eq!(cells.y, 1, "2-D runs use a single y cell");
        }
        self.cells = cells;
        self.dx = dx;
        self.x0 = x0;
        self
    }

    pub fn periodic(mut self, p: [bool; 3]) -> Self {
        self.periodic = p;
        self
    }

    pub fn cfl(mut self, cfl: f64) -> Self {
        self.cfl = cfl;
        self
    }

    pub fn order(mut self, o: ShapeOrder) -> Self {
        self.order = o;
        self
    }

    pub fn pml(mut self, npml: i64) -> Self {
        self.npml = Some(npml);
        self
    }

    pub fn max_box(mut self, mb: IntVect) -> Self {
        self.max_box = Some(mb);
        self
    }

    pub fn moving_window(mut self, start_time: f64) -> Self {
        self.window = Some(MovingWindow {
            start_time,
            accum: 0.0,
            inject_at_front: true,
        });
        self
    }

    /// Enable the online trigger → predict → adopt load-balance policy
    /// ([`balance::LbPolicy`]).
    pub fn load_balance(mut self, cfg: balance::LbPolicyCfg) -> Self {
        self.lb = Some(cfg);
        self
    }

    pub fn add_species(mut self, sp: Species) -> Self {
        self.species.push(sp);
        self
    }

    pub fn add_laser(mut self, l: LaserAntenna) -> Self {
        self.lasers.push(l);
        self
    }

    pub fn sort_interval(mut self, n: u64) -> Self {
        self.sort_interval = n;
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Binomial current-smoothing passes per step (0 = off).
    pub fn filter_passes(mut self, n: usize) -> Self {
        self.filter_passes = n;
        self
    }

    /// Particle-kernel precision mode (see [`Precision`]).
    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = p;
        self
    }

    /// Allocate fields, inject initial plasma, compute dt.
    pub fn build(self) -> Simulation {
        let domain = IndexBox::from_size(self.cells);
        let ba = match self.max_box {
            Some(mb) => BoxArray::chop(domain, mb),
            None => BoxArray::single(domain),
        };
        let geom = GridGeom {
            dx: self.dx,
            x0: self.x0,
        };
        let period = Periodicity::new(domain, self.periodic);
        let ngrow = self.order.ngrow();
        let fs = FieldSet::new(self.dim, ba.clone(), geom, period, ngrow);
        let pml = self
            .npml
            .map(|n| Pml::new(self.dim, domain, geom, self.periodic, n));
        let dt = dt_at(self.dim, &self.dx, self.cfl);
        let mut parts = Vec::new();
        for (si, sp) in self.species.iter().enumerate() {
            let mut pc = ParticleContainer::new(ba.len());
            inject(
                sp,
                self.dim,
                &geom,
                &ba,
                &domain,
                &mut pc,
                self.seed ^ (si as u64),
            );
            parts.push(pc);
        }
        let nranks = self.lb.map(|l| l.nranks).unwrap_or(1);
        let dm = DistributionMapping::build(&ba, nranks, Strategy::SpaceFillingCurve, &[]);
        // Seed the tracker from the fab count, not ba.len(): the step
        // loop records one sample per fab, and the two diverge as soon
        // as an MR level contributes fabs.
        let nfabs = fs.nfabs();
        Simulation {
            dim: self.dim,
            order: self.order,
            cfl: self.cfl,
            fs,
            pml,
            mr: None,
            species: self.species,
            parts,
            lasers: self.lasers,
            window: self.window,
            lb: self.lb.map(balance::LbPolicy::new),
            dm,
            cost: CostTracker::new(nfabs),
            dt,
            time: 0.0,
            istep: 0,
            sort_interval: self.sort_interval,
            seed: self.seed,
            filter_passes: self.filter_passes,
            precision: self.precision,
            scratch: ScratchPools::default(),
            box_seconds: Vec::new(),
            box_laps: Vec::new(),
            fine_j_pool: Vec::new(),
            telemetry: Telemetry::default(),
        }
    }
}

/// A running PIC simulation.
pub struct Simulation {
    pub dim: Dim,
    pub order: ShapeOrder,
    pub cfl: f64,
    pub fs: FieldSet,
    pub pml: Option<Pml>,
    pub mr: Option<MrLevel>,
    pub species: Vec<Species>,
    pub parts: Vec<ParticleContainer>,
    pub lasers: Vec<LaserAntenna>,
    pub window: Option<MovingWindow>,
    /// Online load-balance policy; `None` disables live rebalancing.
    pub lb: Option<balance::LbPolicy>,
    pub dm: DistributionMapping,
    pub cost: CostTracker,
    pub dt: f64,
    pub time: f64,
    pub istep: u64,
    pub sort_interval: u64,
    pub seed: u64,
    /// Binomial current-filter passes per step.
    pub filter_passes: usize,
    /// Particle-kernel precision mode.
    pub precision: Precision,
    /// Per-thread particle workspaces.
    scratch: ScratchPools,
    /// Per-box particle cost of the current step: the sum of its laps,
    /// floored at 1 ns (reused).
    box_seconds: Vec<f64>,
    /// Per-box [gather, push, deposit] lap seconds of the current step.
    box_laps: Vec<[f64; 3]>,
    /// Per-box fine-patch deposition buffers (reused).
    fine_j_pool: Vec<FineJBuf>,
    /// Step records, physics probes, and NaN/Inf guards.
    pub telemetry: Telemetry,
}

impl Simulation {
    /// Attach a mesh-refinement patch (before the first step).
    ///
    /// Without subcycling every level advances at the *fine* Courant
    /// step. With `cfg.subcycle` the parent keeps the coarse step while
    /// the patch grids take `rr` sub-steps — the particle displacement
    /// per step must then stay below one *fine* cell for the Esirkepov
    /// window, which bounds the usable Courant fraction.
    /// Patches may also be added *dynamically* at any step boundary: the
    /// parent always holds the complete coarse solution, and the fresh
    /// fine/coarse grids start at zero — by the linearity construction
    /// all pre-existing field content is attributed to "exterior"
    /// sources, which is exactly consistent.
    pub fn add_mr_patch(&mut self, cfg: MrConfig) {
        assert!(self.mr.is_none(), "one refinement patch at a time");
        assert!(
            self.precision == Precision::F64,
            "mesh refinement requires f64 precision (the fine/coarse \
             linearity construction is not validated in mixed precision)"
        );
        let lvl = MrLevel::new(&self.fs, cfg, self.order.ngrow());
        if cfg.subcycle {
            // c dt < dx_fine = dx/rr requires cfl < sqrt(d)/rr.
            let d = self.dim.axes().len() as f64;
            let max_cfl = d.sqrt() / cfg.rr as f64;
            assert!(
                self.cfl < max_cfl,
                "subcycling at rr = {} needs cfl < {max_cfl:.3}                  (particle moves must stay below one fine cell)",
                cfg.rr
            );
            self.dt = dt_at(self.dim, &self.fs.geom.dx, self.cfl);
        } else {
            self.dt = dt_at(self.dim, &lvl.fine.geom.dx, self.cfl);
        }
        self.mr = Some(lvl);
    }

    /// Remove the refinement patch (the parent holds the complete coarse
    /// solution, so this is safe at any step boundary). Restores the
    /// coarse-grid time step.
    pub fn remove_mr_patch(&mut self) {
        if self.mr.take().is_some() {
            self.dt = dt_at(self.dim, &self.fs.geom.dx, self.cfl);
        }
    }

    /// Total macroparticles.
    pub fn total_particles(&self) -> usize {
        self.parts.iter().map(|p| p.total()).sum()
    }

    /// Total cells including MR patch cells (for FOM-style accounting).
    pub fn total_cells(&self) -> i64 {
        let base = self.fs.boxarray().total_cells();
        match &self.mr {
            Some(lvl) => {
                base + lvl.fine.boxarray().total_cells() + lvl.coarse.boxarray().total_cells()
            }
            None => base,
        }
    }

    /// Total exchange-plan constructions since start. Steady-state steps
    /// must not add to this once plans are warm.
    pub fn plan_builds_total(&self) -> u64 {
        self.comm_stats_total().plan_builds
    }

    /// Aggregate communication counters since construction (parent grids,
    /// PML shells, MR patch grids).
    pub fn comm_stats_total(&self) -> CommStats {
        let mut s = self.fs.comm_stats();
        if let Some(pml) = &self.pml {
            s.merge(&pml.comm_stats());
        }
        if let Some(mr) = &self.mr {
            s.merge(&mr.comm_stats());
        }
        s
    }

    /// NaN/Inf sentinel, run once per sentinel step after the field
    /// advance. The fast path scans only the E arrays of the parent and
    /// (with MR) the aux grids: every upstream non-finite value funnels
    /// into those within at most one step — a bad J enters E through the
    /// E update, a bad B through the next curl, and bad fine/coarse
    /// fields through the per-step aux rebuild. Only a hit pays for the
    /// full rescan that walks the producers in step order (deposit
    /// currents, then the field grids) to attribute the trip to the
    /// phase and grid where the value originated.
    fn sentinel_fields(&self, step: u64) -> Option<GuardTrip> {
        let e_names = ["Ex", "Ey", "Ez"];
        let b_names = ["Bx", "By", "Bz"];
        let j_names = ["Jx", "Jy", "Jz"];
        let scan_e = |e: &[FabArray; 3]| scan_arrays(e_names.into_iter().zip(e.iter()));
        let detected = scan_e(&self.fs.e).is_some()
            || self
                .mr
                .as_ref()
                .is_some_and(|mr| scan_e(&mr.aux.e).is_some());
        if !detected {
            return None;
        }
        let scan_eb = |e: &[FabArray; 3], b: &[FabArray; 3]| {
            scan_e(e).or_else(|| scan_arrays(b_names.into_iter().zip(b.iter())))
        };
        if let Some(j) = scan_arrays(j_names.into_iter().zip(self.fs.j.iter())) {
            return Some(Self::trip(step, "deposit", "parent", j));
        }
        if let Some(h) = scan_eb(&self.fs.e, &self.fs.b) {
            return Some(Self::trip(step, "maxwell", "parent", h));
        }
        if let Some(mr) = &self.mr {
            if let Some(j) = scan_arrays(j_names.into_iter().zip(mr.fine.j.iter())) {
                return Some(Self::trip(step, "deposit", "mr.fine", j));
            }
            for (grid, fs) in [
                ("mr.fine", &mr.fine),
                ("mr.coarse", &mr.coarse),
                ("mr.aux", &mr.aux),
            ] {
                if let Some(h) = scan_eb(&fs.e, &fs.b) {
                    return Some(Self::trip(step, "mr", grid, h));
                }
            }
        }
        None
    }

    fn trip(step: u64, phase: &str, grid: &str, hit: crate::telemetry::SentinelHit) -> GuardTrip {
        GuardTrip {
            step,
            phase: phase.to_string(),
            grid: grid.to_string(),
            component: hit.component,
            box_id: hit.box_id,
        }
    }

    /// Advance one full PIC step (single-rank communication backend).
    pub fn step(&mut self) {
        self.step_with(&mut crate::exchange::LocalComm)
    }

    /// Advance one full PIC step, routing all cross-ownership
    /// communication (guard fills, current sums, particle
    /// redistribution, rebalance adoption) through `comm`. Every
    /// conforming backend produces bitwise identical state — see the
    /// determinism contract on [`crate::exchange::StepComm`]. The
    /// step's result is its [`StepRecord`], the latest entry of
    /// [`Simulation::telemetry`].
    pub fn step_with(&mut self, comm: &mut dyn crate::exchange::StepComm) {
        let step_idx = self.istep;
        comm.begin_step(step_idx);
        let dt = self.dt;
        let comm0 = self.comm_stats_total();
        let sentinel_due = self.telemetry.sentinel_due(step_idx);
        let mut guard: Option<GuardTrip> = None;
        let _step_span = mrpic_trace::span!("step", -1, step_idx);
        let mut clock = StepClock::start();

        // Periodic locality sort.
        clock.enter(Phase::Sort);
        if self.sort_interval > 0 && self.istep.is_multiple_of(self.sort_interval) && self.istep > 0
        {
            let geom = self.fs.geom;
            for pc in &mut self.parts {
                for buf in &mut pc.bufs {
                    buf.sort_by_cell(&geom);
                }
            }
        }

        // 1. Zero currents.
        clock.enter(Phase::Other);
        self.fs.zero_j();
        if let Some(mr) = &mut self.mr {
            mr.zero_j();
        }
        let nfabs = self.fs.nfabs();
        self.box_laps.clear();
        self.box_laps.resize(nfabs, [0.0; 3]);

        // 2. Particle loop: gather, push, deposit (box-parallel).
        clock.enter(Phase::Particle);
        let mut pushed = 0;
        for si in 0..self.species.len() {
            pushed += match self.precision {
                Precision::F64 => self.advance_species::<f64>(si, dt, CHUNK),
                Precision::F32Particles => self.advance_species::<f32>(si, dt, CHUNK),
            };
        }

        // 3. Current exchanges, smoothing and MR coupling.
        clock.enter(Phase::Sum);
        {
            let period = self.fs.period;
            let [j0, j1, j2] = &mut self.fs.j;
            comm.sum_group(&mut [j0, j1, j2], &period);
        }
        if self.filter_passes > 0 {
            mrpic_field::filter::filter_current(&mut self.fs, self.filter_passes);
        }
        if let Some(mr) = &mut self.mr {
            let margin = crate::mr::restriction_margin(self.order.order(), mr.cfg.rr);
            mr.couple_currents(&mut self.fs, margin);
        }

        // 4. Laser antennas (time-centered with J at n + 1/2).
        let t_half = self.time + 0.5 * dt;
        let lasers = std::mem::take(&mut self.lasers);
        for l in &lasers {
            if l.active(&self.fs) {
                l.deposit(&mut self.fs, t_half);
            }
        }
        self.lasers = lasers;

        // 5. Field advance (B half / E / B half) with PML exchanges.
        clock.enter(Phase::Maxwell);
        self.advance_fields(dt, comm);
        clock.enter(Phase::Mr);
        if let Some(mr) = &mut self.mr {
            mr.advance_fields(dt);
            mr.build_aux(&self.fs);
        }

        if sentinel_due {
            clock.enter(Phase::Other);
            guard = self.sentinel_fields(step_idx);
        }

        // 6. Particle redistribution.
        clock.enter(Phase::Redistribute);
        let geom = self.fs.geom;
        let period = self.fs.period;
        let mut deleted = 0;
        for pc in &mut self.parts {
            deleted += comm.redistribute(pc, self.fs.boxarray(), &geom, &period);
        }

        // 7. Moving window.
        clock.enter(Phase::Window);
        self.time += dt;
        self.istep += 1;
        let mut window_shifts = 0;
        if let Some(mut win) = self.window {
            if self.time >= win.start_time {
                win.accum += mrpic_kernels::constants::C * dt / self.fs.geom.dx[0];
                while win.accum >= 1.0 {
                    win.accum -= 1.0;
                    self.shift_window_once(win.inject_at_front);
                    window_shifts += 1;
                }
            }
            self.window = Some(win);
        }

        // 8. Cost tracking & trace-driven dynamic load balancing. A
        // box's cost is the sum of its laps.
        clock.enter(Phase::Lb);
        self.box_seconds.clear();
        self.box_seconds
            .extend(self.box_laps.iter().map(|l| (l[0] + l[1] + l[2]).max(1e-9)));
        match self.lb.as_ref().map(|p| p.cfg().cost_source) {
            Some(balance::CostSource::Heuristic) => {
                let ba = self.fs.boxarray();
                let cells: Vec<i64> = ba.iter().map(|b| b.num_cells()).collect();
                let particles: Vec<usize> = (0..ba.len())
                    .map(|bi| self.parts.iter().map(|pc| pc.bufs[bi].len()).sum())
                    .collect();
                self.cost.record_heuristic(&cells, &particles);
            }
            _ => self.cost.record(&self.box_seconds),
        }
        comm.note_box_seconds(&self.box_seconds);
        // The per-rank records are complete once the box seconds are
        // attributed; drain them here so *this* step's measurement can
        // drive the rebalance trigger. (Migration traffic from an
        // adoption below is accounted to the next step's records.)
        let rank_records = comm.take_rank_records();
        let fault_stats = comm.take_fault_stats();
        // Telemetry imbalance, two provenances: per-rank busy time when
        // rank records exist, per-box cost max/mean otherwise.
        let imbalance = rank_imbalance(&rank_records).or_else(|| box_imbalance(&self.box_seconds));
        let mut lb_decision: Option<balance::LbDecision> = None;
        let mut rebalances = 0;
        // Take the policy out of `self` so candidate evaluation can
        // borrow the rest of the simulation state.
        if let Some(mut policy) = self.lb.take() {
            // Trigger signal: the measured wall-clock metric, except in
            // heuristic mode where the mapping imbalance over FOM costs
            // keeps decisions bit-reproducible across runs.
            let trigger_metric = match policy.cfg().cost_source {
                balance::CostSource::Heuristic => self.dm.imbalance(self.cost.costs()),
                balance::CostSource::Measured => {
                    imbalance.unwrap_or_else(|| self.dm.imbalance(self.cost.costs()))
                }
            };
            if policy.observe(trigger_metric) {
                let _dspan = mrpic_trace::span!("lb_decision", -1, step_idx);
                let per_box_bytes = self.migration_bytes_per_box();
                let (decision, adopt) = policy.evaluate(
                    step_idx,
                    trigger_metric,
                    self.fs.boxarray(),
                    &self.dm,
                    self.cost.costs(),
                    &per_box_bytes,
                    self.fs.ngrow,
                );
                if let Some(mapping) = adopt {
                    rebalances += 1;
                    // Physically migrate fab data and particle tiles to
                    // the new owners (a no-op in a single address space).
                    comm.adopt_mapping(&self.dm, &mapping, &mut self.fs, &mut self.parts);
                    // Ownership changed: conservatively drop cached plans.
                    self.fs.invalidate_plans();
                    self.dm = mapping;
                }
                lb_decision = Some(decision);
            }
            self.lb = Some(policy);
        }

        clock.enter(Phase::Other);
        let comm_delta = self.comm_stats_total().delta_since(&comm0);

        let probes = self.telemetry.probes_due(step_idx).then(|| Probes {
            field_energy: mrpic_field::energy::field_energy(&self.fs),
            gauss_residual: self.gauss_residual_norm(),
        });
        let particles = self
            .species
            .iter()
            .enumerate()
            .map(|(si, sp)| SpeciesCount {
                name: sp.name.clone(),
                count: self.parts[si].total() as u64,
            })
            .collect();
        let laps = self.box_laps.iter().fold([0.0; 3], |a, l| {
            [a[0] + l[GATHER], a[1] + l[PUSH], a[2] + l[DEPOSIT]]
        });
        let (phases, seconds) = clock.finish(laps, comm_delta.seconds);
        let rec = StepRecord {
            step: step_idx,
            time: self.time,
            dt,
            seconds,
            phases,
            comm: comm_delta,
            particles,
            pushed: pushed as u64,
            deleted: deleted as u64,
            window_shifts,
            rebalances,
            probes,
            guard,
            rank_count: (!rank_records.is_empty()).then_some(rank_records.len()),
            ranks: rank_records,
            faults: fault_stats,
            imbalance,
            lb: lb_decision,
            precision: self.precision,
        };
        if comm.drained() {
            self.telemetry.discard(rec);
        } else {
            self.telemetry.record(rec);
        }
    }

    /// Order-fixed FNV-1a digest of the complete physics state: step
    /// and time, every parent-level fab, the MR patch's fine/coarse/aux
    /// fields, and every particle component, all hashed as raw `f64`
    /// bits. Two runs whose digests agree hold bitwise-identical state
    /// (up to hash collision); `mrpic_run` writes it to `summary.json`
    /// so separate OS processes — e.g. the socket-transport rank mesh —
    /// can prove state equivalence without sharing an address space.
    pub fn state_digest(&self) -> u64 {
        fn fnv(h: &mut u64, v: u64) {
            *h ^= v;
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        fn fnv_fs(h: &mut u64, fs: &FieldSet) {
            for fa in fs.e.iter().chain(&fs.b).chain(&fs.j) {
                for bi in 0..fa.nfabs() {
                    for v in fa.fab(bi).raw() {
                        fnv(h, v.to_bits());
                    }
                }
            }
        }
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        fnv(&mut h, self.istep);
        fnv(&mut h, self.time.to_bits());
        fnv_fs(&mut h, &self.fs);
        if let Some(mr) = &self.mr {
            fnv_fs(&mut h, &mr.fine);
            fnv_fs(&mut h, &mr.coarse);
            fnv_fs(&mut h, &mr.aux);
        }
        for pc in &self.parts {
            for buf in &pc.bufs {
                fnv(&mut h, buf.len() as u64);
                for comp in [&buf.x, &buf.y, &buf.z, &buf.ux, &buf.uy, &buf.uz, &buf.w] {
                    for v in comp {
                        fnv(&mut h, v.to_bits());
                    }
                }
            }
        }
        h
    }

    /// Payload bytes that would move if each box changed owner: the
    /// nine parent-level fab raw slices plus every species' 7-`f64`
    /// particle tuples — the exact wire format of the `mrpic-dist`
    /// migration frames, so the policy's migration pricing matches what
    /// an adoption actually ships.
    fn migration_bytes_per_box(&self) -> Vec<u64> {
        let nboxes = self.fs.nfabs();
        let mut out = vec![0u64; nboxes];
        for (bi, b) in out.iter_mut().enumerate() {
            for fa in self.fs.e.iter().chain(&self.fs.b).chain(&self.fs.j) {
                *b += 8 * fa.fab(bi).raw().len() as u64;
            }
            for pc in &self.parts {
                *b += 8 * 7 * pc.bufs[bi].len() as u64;
            }
        }
        out
    }

    /// Max-norm of the Gauss-law residual `div E - rho/eps0` over interior
    /// nodes, with charge deposited at the simulation's shape order.
    ///
    /// The Esirkepov + Yee combination conserves this residual pointwise,
    /// so it should hold its initial value to near machine precision; a
    /// drift flags a charge-conservation bug. Sources that bypass
    /// Esirkepov (laser antenna currents) legitimately move it near their
    /// injection plane. Nodes within `order + 3` cells of a domain edge
    /// are excluded (PML, window injection, and deposition clouds
    /// straddling the boundary).
    pub fn gauss_residual_norm(&self) -> f64 {
        let dim = self.dim;
        let order = self.order;
        let geom = self.fs.geom;
        let kg = geom.kernel_geom();
        let ngrow = guard_vec(dim, order.ngrow());
        // Fresh array: its CommStats are dropped with it, so the probe
        // does not pollute the step's comm delta.
        let mut rho = FabArray::new_vec(self.fs.boxarray().clone(), rho_stagger(dim), 1, ngrow);
        for (si, pc) in self.parts.iter().enumerate() {
            let q = self.species[si].charge;
            for (bi, buf) in pc.bufs.iter().enumerate() {
                if buf.is_empty() {
                    continue;
                }
                let mut view = view_of_fab_mut(rho.fab_mut(bi));
                with_shape!(
                    order,
                    S,
                    match dim {
                        Dim::Three => deposit_rho3::<S, f64>(
                            &buf.x, &buf.y, &buf.z, &buf.w, q, &kg, &mut view,
                        ),
                        Dim::Two =>
                            deposit_rho2::<S, f64>(&buf.x, &buf.z, &buf.w, q, &kg, &mut view,),
                    }
                );
            }
        }
        rho.sum_boundary(&self.fs.period);
        let eps0 = mrpic_kernels::constants::EPS0;
        let dom = self.fs.domain();
        let m = order.ngrow() + 1;
        let mut max_resid = 0.0f64;
        for bi in 0..self.fs.nfabs() {
            let fab = rho.fab(bi);
            // Point boxes are half-open; clip to inclusive node ranges at
            // least `m` nodes inside the domain (nodes span lo..=dom.hi).
            let vb = fab.valid_pts();
            let lo = IntVect::new(
                vb.lo.x.max(dom.lo.x + m),
                if dim == Dim::Two {
                    vb.lo.y
                } else {
                    vb.lo.y.max(dom.lo.y + m)
                },
                vb.lo.z.max(dom.lo.z + m),
            );
            let hi = IntVect::new(
                (vb.hi.x - 1).min(dom.hi.x - m),
                if dim == Dim::Two {
                    vb.hi.y - 1
                } else {
                    (vb.hi.y - 1).min(dom.hi.y - m)
                },
                (vb.hi.z - 1).min(dom.hi.z - m),
            );
            let (ex, ey, ez) = (
                self.fs.e[0].fab(bi),
                self.fs.e[1].fab(bi),
                self.fs.e[2].fab(bi),
            );
            for k in lo.z..=hi.z {
                for jy in lo.y..=hi.y {
                    for i in lo.x..=hi.x {
                        let p = IntVect::new(i, jy, k);
                        let mut dive = (ex.get(0, p) - ex.get(0, IntVect::new(i - 1, jy, k)))
                            / geom.dx[0]
                            + (ez.get(0, p) - ez.get(0, IntVect::new(i, jy, k - 1))) / geom.dx[2];
                        if dim == Dim::Three {
                            dive +=
                                (ey.get(0, p) - ey.get(0, IntVect::new(i, jy - 1, k))) / geom.dx[1];
                        }
                        let r = fab.get(0, p);
                        max_resid = max_resid.max((dive - r / eps0).abs());
                    }
                }
            }
        }
        max_resid
    }

    /// Gather/push/deposit for one species, box-parallel, with the
    /// particle kernels running in precision `T` (`f64`, or `f32` for
    /// [`Precision::F32Particles`]); [`KernelReal`] holds the only
    /// per-precision code. Every (box, particle-buffer) pair is an
    /// independent work item with disjoint `&mut` views of the parent
    /// currents. Within a box the whole advance runs on one chunk of at
    /// most `chunk` particles at a time ([`BoxRun::segment`]), over three
    /// contiguous segments with a fixed gather source and deposit
    /// target each. Fine-patch deposition goes to per-box buffers reduced
    /// in ascending box order afterwards, and the per-box laps
    /// live on the work items, so the physics *and* the accounting are
    /// bitwise independent of the thread count.
    fn advance_species<T: KernelReal>(&mut self, si: usize, dt: f64, chunk: usize) -> usize {
        let sp = &self.species[si];
        let step = SpeciesStep {
            dim: self.dim,
            order: self.order,
            pusher: sp.pusher,
            qmdt2: T::from_f64(sp.charge * dt / (2.0 * sp.mass)),
            q: T::from_f64(sp.charge),
            kdt: T::from_f64(dt),
            dt,
            chunk,
        };
        let geom = self.fs.geom.kernel_geom();
        // MR routing regions in physical coordinates.
        let mr_regions = self
            .mr
            .as_ref()
            .map(|mr| (mr.patch_phys(&self.fs.geom), mr.gather_phys(&self.fs.geom)));
        let nboxes = self.fs.nfabs();
        self.fine_j_pool.resize_with(nboxes, FineJBuf::default);
        // Split the state into disjoint borrows: E/B shared (gather
        // source), J components mutable per box (deposition target).
        let mr = self.mr.as_ref();
        let FieldSet { e, b, j, .. } = &mut self.fs;
        let (e, b) = (&*e, &*b);
        let [jx_arr, jy_arr, jz_arr] = j;
        let mut pushed = 0usize;
        let mut tasks: Vec<BoxTask<'_>> = Vec::with_capacity(nboxes);
        {
            let mut jxs = jx_arr.fabs_mut().iter_mut();
            let mut jys = jy_arr.fabs_mut().iter_mut();
            let mut jzs = jz_arr.fabs_mut().iter_mut();
            let mut fine = self.fine_j_pool.iter_mut();
            let mut laps = self.box_laps.iter_mut();
            for (bi, buf) in self.parts[si].bufs.iter_mut().enumerate() {
                let jx = jxs.next().expect("J layout matches particle boxes");
                let jy = jys.next().expect("J layout matches particle boxes");
                let jz = jzs.next().expect("J layout matches particle boxes");
                let fine_j = fine.next().expect("pool sized to nboxes");
                let laps = laps.next().expect("box_laps sized to nboxes");
                if buf.is_empty() {
                    continue;
                }
                pushed += buf.len();
                tasks.push(BoxTask {
                    bi,
                    buf,
                    jx,
                    jy,
                    jz,
                    fine_j,
                    laps,
                });
            }
        }
        let pool = T::pool(&self.scratch);
        tasks.par_iter_mut().for_each_init(
            || ScratchGuard::checkout(pool),
            |guard, task| {
                let _box_span = mrpic_trace::span!("box", -1, task.bi);
                let t0 = Instant::now();
                let Scratch {
                    chunk: sc,
                    fld,
                    j: tiles,
                } = &mut guard.sc;
                let n = task.buf.len();
                let (c_aux, c_fine) = match mr_regions {
                    Some((patch, gather)) => mr_partition(task.buf, step.dim, patch, gather),
                    None => (0, 0),
                };
                let mut run = BoxRun {
                    step: &step,
                    buf: &mut *task.buf,
                    sc,
                    laps: Laps {
                        mark: t0,
                        acc: &mut *task.laps,
                    },
                };
                run.laps.lap(GATHER);
                let bi = task.bi;
                let parent = EmViews {
                    ex: fab_view(&e[0], bi),
                    ey: fab_view(&e[1], bi),
                    ez: fab_view(&e[2], bi),
                    bx: fab_view(&b[0], bi),
                    by: fab_view(&b[1], bi),
                    bz: fab_view(&b[2], bi),
                };
                // [0, c_fine) deposits to the per-box fine buffer (reduced
                // in box order after the loop), the rest to this box's J
                // fabs.
                let mut fine = (c_fine > 0).then(|| {
                    let mr = mr.expect("partitioned => MR present");
                    task.fine_j.used = true;
                    let fine_fabs = [
                        mr.fine.j[0].fab(0),
                        mr.fine.j[1].fab(0),
                        mr.fine.j[2].fab(0),
                    ];
                    for (buf, fab) in task.fine_j.j.iter_mut().zip(fine_fabs) {
                        buf.clear();
                        buf.resize(fab.comp(0).len(), 0.0);
                    }
                    let [fjx, fjy, fjz] = &mut task.fine_j.j;
                    let target = T::target(
                        [
                            view_over(fine_fabs[0], fjx),
                            view_over(fine_fabs[1], fjy),
                            view_over(fine_fabs[2], fjz),
                        ],
                        tiles,
                    );
                    (target, mr.fine.geom.kernel_geom())
                });
                run.laps.lap(DEPOSIT);
                // [0, c_aux) gathers from the MR aux grid.
                if c_aux > 0 {
                    let mr = mr.expect("partitioned => MR present");
                    let (target, fine_geom) = fine.as_mut().expect("c_aux <= c_fine");
                    run.segment(
                        0..c_aux,
                        &T::fields(mr.aux.em_views(0), fld),
                        &mr.aux.geom.kernel_geom(),
                        &mut target.views,
                        fine_geom,
                    );
                }
                // [c_aux, n) gathers from the parent.
                let parent = (c_aux < n).then(|| T::fields(parent, fld));
                run.laps.lap(GATHER);
                if c_aux < c_fine {
                    let (target, fine_geom) = fine.as_mut().expect("c_fine > 0");
                    run.segment(
                        c_aux..c_fine,
                        parent.as_ref().expect("c_aux < n"),
                        &geom,
                        &mut target.views,
                        fine_geom,
                    );
                }
                if let Some((target, _)) = fine {
                    target.finish();
                    run.laps.lap(DEPOSIT);
                }
                if c_fine < n {
                    let mut target = T::target(
                        [
                            view_of_fab_mut(task.jx),
                            view_of_fab_mut(task.jy),
                            view_of_fab_mut(task.jz),
                        ],
                        tiles,
                    );
                    run.laps.lap(DEPOSIT);
                    run.segment(
                        c_fine..n,
                        parent.as_ref().expect("c_aux <= c_fine < n"),
                        &geom,
                        &mut target.views,
                        &geom,
                    );
                    target.finish();
                    run.laps.lap(DEPOSIT);
                }
            },
        );
        drop(tasks);
        // Deterministic ordered reduction of the fine-patch deposition:
        // ascending box index, independent of which thread ran which box.
        if let Some(mr) = self.mr.as_mut() {
            for slot in self.fine_j_pool.iter_mut() {
                if !slot.used {
                    continue;
                }
                slot.used = false;
                for c in 0..3 {
                    let dst = mr.fine.j[c].fab_mut(0).comp_mut(0);
                    for (d, s) in dst.iter_mut().zip(slot.j[c].iter()) {
                        *d += *s;
                    }
                }
            }
        }
        pushed
    }

    /// Full leapfrog field advance with PML interface exchanges. Guard
    /// fills of E and B go through `comm`; the Yee updates and the
    /// (rank-colocated, paper §V-C) PML exchanges stay local.
    fn advance_fields(&mut self, dt: f64, comm: &mut dyn crate::exchange::StepComm) {
        fn fill3(
            comm: &mut dyn crate::exchange::StepComm,
            arrays: &mut [FabArray; 3],
            period: &Periodicity,
        ) {
            let [a0, a1, a2] = arrays;
            comm.fill_group(&mut [a0, a1, a2], period);
        }
        let period = self.fs.period;
        let fs = &mut self.fs;
        fill3(comm, &mut fs.e, &period);
        if let Some(pml) = &mut self.pml {
            pml.exchange_e(fs);
        }
        yee::advance_b(fs, 0.5 * dt);
        if let Some(pml) = &mut self.pml {
            pml.advance_b(0.5 * dt);
        }
        fill3(comm, &mut fs.b, &period);
        if let Some(pml) = &mut self.pml {
            pml.exchange_b(fs);
        }
        yee::advance_e(fs, dt);
        if let Some(pml) = &mut self.pml {
            pml.advance_e(dt);
        }
        fill3(comm, &mut fs.e, &period);
        if let Some(pml) = &mut self.pml {
            pml.exchange_e(fs);
        }
        yee::advance_b(fs, 0.5 * dt);
        if let Some(pml) = &mut self.pml {
            pml.advance_b(0.5 * dt);
        }
        fill3(comm, &mut fs.b, &period);
        if let Some(pml) = &mut self.pml {
            pml.exchange_b(fs);
        }
    }

    /// Shift the window by one cell along +x.
    fn shift_window_once(&mut self, inject_front: bool) {
        let shift = IntVect::new(1, 0, 0);
        self.fs.shift_window(shift);
        if let Some(pml) = &mut self.pml {
            pml.shift_window(shift);
        }
        if let Some(mr) = &mut self.mr {
            mr.shift_window(shift);
        }
        self.fs.geom.x0[0] += self.fs.geom.dx[0];
        // Drop particles that fell off the trailing edge, re-own the rest.
        let geom = self.fs.geom;
        let period = self.fs.period;
        let cut = geom.node(0, self.fs.domain().lo.x);
        for pc in &mut self.parts {
            pc.drop_behind(cut);
            pc.redistribute(self.fs.boxarray(), &geom, &period);
        }
        // Inject fresh plasma in the newly exposed leading strip.
        if inject_front {
            let dom = self.fs.domain();
            let strip = IndexBox::new(IntVect::new(dom.hi.x - 1, dom.lo.y, dom.lo.z), dom.hi);
            for (si, sp) in self.species.iter().enumerate() {
                inject(
                    sp,
                    self.dim,
                    &geom,
                    self.fs.boxarray(),
                    &strip,
                    &mut self.parts[si],
                    self.seed ^ (si as u64) ^ self.istep.wrapping_mul(0x9E3779B97F4A7C15),
                );
            }
        }
    }

    /// Field + particle energy (diagnostics).
    pub fn total_energy(&self) -> (f64, f64) {
        let fe = mrpic_field::energy::field_energy(&self.fs);
        let mut ke = 0.0;
        for (si, pc) in self.parts.iter().enumerate() {
            let m = self.species[si].mass;
            for buf in &pc.bufs {
                for i in 0..buf.len() {
                    ke +=
                        buf.w[i] * crate::diag::kinetic_energy(m, buf.ux[i], buf.uy[i], buf.uz[i]);
                }
            }
        }
        (fe, ke)
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Drop every cached exchange plan (parent grids, PML shells, MR
    /// patch). Required whenever field data or ownership changed under
    /// the caches — a checkpoint restore rewrote state in place, or a
    /// crash recovery shrank the rank set and rebuilt the distribution
    /// mapping.
    pub fn invalidate_all_plans(&mut self) {
        self.fs.invalidate_plans();
        if let Some(pml) = &mut self.pml {
            pml.invalidate_plans();
        }
        if let Some(mr) = &mut self.mr {
            mr.invalidate_plans();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use mrpic_kernels::constants::{plasma_frequency, C, EPS0, Q_E};

    /// Cold plasma oscillation: displace all electrons slightly and watch
    /// the current oscillate at the plasma frequency.
    #[test]
    fn plasma_oscillation_frequency() {
        let n0 = 1.0e25;
        let wp = plasma_frequency(n0);
        let dx = 0.5e-6;
        let mut sim = SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(32, 1, 8), [dx; 3], [0.0; 3])
            .periodic([true, true, true])
            .order(ShapeOrder::Quadratic)
            .cfl(0.5)
            .add_species(
                Species::electrons("e", Profile::Uniform { n0 }, [2, 1, 2])
                    .with_drift([1.0e6, 0.0, 0.0]),
            )
            .build();
        // Track Ex at a probe: should oscillate at wp.
        let mut exs: Vec<f64> = Vec::new();
        let steps = (2.5 * 2.0 * std::f64::consts::PI / wp / sim.dt) as usize;
        for _ in 0..steps {
            sim.step();
            exs.push(sim.fs.e[0].at(0, IntVect::new(16, 0, 4)).unwrap());
        }
        // The oscillation is (1 - cos)-like: detect upward crossings of
        // the mean value.
        let mean: f64 = exs.iter().sum::<f64>() / exs.len() as f64;
        let mut crossings = Vec::new();
        for i in 1..exs.len() {
            if exs[i - 1] < mean && exs[i] >= mean {
                crossings.push(i as f64);
            }
        }
        assert!(crossings.len() >= 2, "no oscillation seen");
        let period_steps =
            (crossings.last().unwrap() - crossings[0]) / (crossings.len() - 1) as f64;
        let wp_meas = 2.0 * std::f64::consts::PI / (period_steps * sim.dt);
        assert!(
            (wp_meas / wp - 1.0).abs() < 0.05,
            "measured wp {wp_meas:e} vs {wp:e}"
        );
    }

    /// A uniform drifting plasma is force-free (current is uniform): the
    /// total energy must stay nearly constant.
    #[test]
    fn uniform_plasma_energy_conservation() {
        let mut sim = SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(16, 1, 16), [1.0e-6; 3], [0.0; 3])
            .periodic([true, true, true])
            .order(ShapeOrder::Cubic)
            .add_species(
                Species::electrons("e", Profile::Uniform { n0: 1.0e24 }, [2, 1, 2])
                    .with_thermal([1.0e7; 3]),
            )
            .build();
        let (fe0, ke0) = sim.total_energy();
        sim.run(100);
        let (fe1, ke1) = sim.total_energy();
        let tot0 = fe0 + ke0;
        let tot1 = fe1 + ke1;
        assert!(
            (tot1 - tot0).abs() < 0.02 * tot0,
            "energy drift {tot0:e} -> {tot1:e}"
        );
    }

    /// Gauss's law is preserved by the Esirkepov + Yee combination:
    /// div E - rho/eps0 stays at its initial value to near machine
    /// precision.
    #[test]
    fn gauss_law_preservation() {
        let mut sim = SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(16, 1, 16), [1.0e-6; 3], [0.0; 3])
            .periodic([true, true, true])
            .order(ShapeOrder::Quadratic)
            .add_species(
                Species::electrons("e", Profile::Uniform { n0: 1.0e24 }, [2, 1, 1])
                    .with_thermal([3.0e7, 3.0e7, 3.0e7]),
            )
            .seed(5)
            .build();
        let gauss_residual = |sim: &Simulation| -> f64 {
            // rho from particles with the same quadratic shape.
            let dom = sim.fs.domain();
            let geom = sim.fs.geom;
            let n = dom.size();
            // Margin absorbs deposition clouds of the periodic images
            // (each image is a full domain length away).
            let m = n.x.max(n.z) + 5;
            let (mx, mz) = (n.x + 1 + 2 * m, n.z + 1 + 2 * m);
            let npts = (mx * mz) as usize;
            let mut rho = vec![0.0; npts];
            {
                let mut view = mrpic_kernels::view::FieldViewMut {
                    data: &mut rho,
                    lo: [-m, 0, -m],
                    nx: mx,
                    // Single y plane: the z stride equals the x row.
                    nxy: mx,
                    half: [false; 3],
                };
                // Wrap periodic images by depositing each particle at
                // its wrapped plus shifted copies near the edges.
                let kg = geom.kernel_geom();
                for buf in &sim.parts[0].bufs {
                    for img_x in [-1.0, 0.0, 1.0] {
                        for img_z in [-1.0, 0.0, 1.0] {
                            let lx = n.x as f64 * geom.dx[0];
                            let lz = n.z as f64 * geom.dx[2];
                            let xs: Vec<f64> = buf.x.iter().map(|v| v + img_x * lx).collect();
                            let zs: Vec<f64> = buf.z.iter().map(|v| v + img_z * lz).collect();
                            mrpic_kernels::deposit::deposit_rho2::<Quadratic, f64>(
                                &xs, &zs, &buf.w, -Q_E, &kg, &mut view,
                            );
                        }
                    }
                }
            }
            // div E at interior nodes minus rho/eps0 (2-D: x and z).
            let mut max_resid = 0.0f64;
            for k in 1..n.z {
                for i in 1..n.x {
                    let p = IntVect::new(i, 0, k);
                    let dive = (sim.fs.e[0].at(0, p).unwrap()
                        - sim.fs.e[0].at(0, IntVect::new(i - 1, 0, k)).unwrap())
                        / geom.dx[0]
                        + (sim.fs.e[2].at(0, p).unwrap()
                            - sim.fs.e[2].at(0, IntVect::new(i, 0, k - 1)).unwrap())
                            / geom.dx[2];
                    let r = rho[((k + m) * mx + (i + m)) as usize];
                    max_resid = max_resid.max((dive - r / EPS0).abs());
                }
            }
            max_resid
        };
        let r0 = gauss_residual(&sim);
        sim.run(25);
        let r1 = gauss_residual(&sim);
        // Scale: typical rho/eps0 magnitude.
        let scale = 1.0e24 * Q_E / EPS0 * 1.0e-6; // n q dx / eps0 ~ div E scale
        assert!(
            (r1 - r0).abs() < 1e-6 * scale,
            "Gauss residual drifted: {r0:e} -> {r1:e} (scale {scale:e})"
        );
    }

    /// The moving window keeps a vacuum laser pulse inside the domain.
    #[test]
    fn moving_window_follows_pulse() {
        let dx = 0.1e-6;
        // The window must start only after the pulse has detached from
        // the (lab-fixed) antenna: a window moving at c from t = 0 would
        // outrun light emitted at a fixed plane.
        let mut sim = SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(128, 1, 8), [dx; 3], [0.0; 3])
            .periodic([false, false, true])
            .pml(8)
            .cfl(0.7)
            .moving_window(18.0e-15)
            .add_laser(crate::laser::antenna_for_a0(
                0.5,
                0.8e-6,
                5.0e-15,
                16.0 * dx,
                0.0,
                f64::INFINITY,
            ))
            .build();
        sim.lasers[0].t_peak = 8.0e-15;
        let steps = 400;
        for _ in 0..steps {
            sim.step();
        }
        // After many shifts the pulse must still be in the window with
        // its peak amplitude roughly preserved.
        assert!(sim.fs.geom.x0[0] > 10.0 * dx, "window never moved");
        let peak = sim.fs.e[1].max_abs(0);
        let e0 = sim.lasers[0].e0;
        assert!(
            peak > 0.6 * e0,
            "pulse lost by the window: {peak:e} vs {e0:e}"
        );
    }

    /// Relativistic beam in vacuum: ballistic motion across the domain.
    #[test]
    fn ballistic_beam_in_vacuum() {
        let mut sim = SimulationBuilder::new(Dim::Three)
            .domain(IntVect::new(24, 8, 8), [1.0e-6; 3], [0.0; 3])
            .periodic([true, true, true])
            .order(ShapeOrder::Linear)
            .build();
        // One macroparticle, gamma ~ 10 along x.
        let g: f64 = 10.0;
        let u = C * (g * g - 1.0).sqrt();
        sim.parts = vec![ParticleContainer::new(sim.fs.nfabs())];
        sim.species = vec![Species::electrons(
            "beam",
            Profile::Uniform { n0: 0.0 },
            [1, 1, 1],
        )];
        sim.parts[0].bufs[0].push(2.5e-6, 4.5e-6, 4.5e-6, u, 0.0, 0.0, 1.0);
        let x_start = 2.5e-6;
        let steps = 40;
        for _ in 0..steps {
            sim.step();
        }
        let v = u / g;
        let expect = x_start + v * sim.dt * steps as f64;
        let l = 24.0e-6;
        let expect_wrapped = expect - l * ((expect / l).floor());
        // Find the particle.
        let mut found = None;
        for buf in &sim.parts[0].bufs {
            if buf.len() == 1 {
                found = Some(buf.x[0]);
            }
        }
        let x = found.expect("particle lost");
        assert!(
            (x - expect_wrapped).abs() < 1e-2 * l,
            "x = {x:e}, expect {expect_wrapped:e}"
        );
        assert_eq!(sim.total_particles(), 1);
    }

    #[test]
    fn step_record_populated() {
        let mut sim = SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(16, 1, 16), [1.0e-6; 3], [0.0; 3])
            .periodic([true, true, true])
            .add_species(Species::electrons(
                "e",
                Profile::Uniform { n0: 1.0e24 },
                [1, 1, 1],
            ))
            .build();
        sim.step();
        let rec = sim.telemetry.last().expect("step record");
        assert_eq!(rec.pushed, 16 * 16);
        let ph = rec.phases;
        assert!(ph.gather + ph.push + ph.deposit > 0.0);
        assert!(ph.maxwell > 0.0);
        assert_eq!(sim.istep, 1);
    }

    /// Thermal periodic plasma, 3 particles per cell, in `max_box` boxes.
    fn thermal_deck(cells: IntVect, max_box: IntVect, precision: Precision) -> Simulation {
        SimulationBuilder::new(Dim::Two)
            .domain(cells, [0.5e-6; 3], [0.0; 3])
            .periodic([true, true, true])
            .max_box(max_box)
            .order(ShapeOrder::Quadratic)
            .cfl(0.5)
            .seed(9)
            .precision(precision)
            .add_species(
                Species::electrons("e", Profile::Uniform { n0: 2.0e24 }, [1, 1, 3])
                    .with_thermal([1.0e7; 3]),
            )
            .build()
    }

    /// Every particle vector of both scratch pools.
    fn pooled_particle_vec_capacities(sim: &Simulation) -> Vec<usize> {
        fn caps<T>(pool: &Mutex<Vec<Scratch<T>>>, out: &mut Vec<usize>) {
            for sc in pool.lock().unwrap().iter() {
                let ChunkScratch {
                    em,
                    x0,
                    vy,
                    x1,
                    u,
                    w,
                } = &sc.chunk;
                let vecs = em.iter().chain(x0).chain(x1).chain(u).chain([vy, w]);
                out.extend(vecs.map(Vec::capacity));
            }
        }
        let mut out = Vec::new();
        caps(&sim.scratch.f64, &mut out);
        caps(&sim.scratch.f32, &mut out);
        out
    }

    /// The fused advance is bitwise independent of the chunk size: one
    /// whole-box chunk, [`CHUNK`], and an odd 37 that puts seams inside
    /// lane blocks. The `f64` deck's box holds > 3·CHUNK particles under
    /// an MR patch whose pivots are not multiples of the lane width, so
    /// every segment ends in a scalar tail at every chunk size; the
    /// `f32` deck (MR is `f64`-only) folds its per-box current tile
    /// after chunks of every size.
    #[test]
    fn advance_is_bitwise_independent_of_chunk_size() {
        let cells = IntVect::new(64, 1, 64);
        let advanced = |precision: Precision, chunk: usize| {
            let mut sim = thermal_deck(cells, cells, precision);
            if precision == Precision::F64 {
                sim.add_mr_patch(MrConfig {
                    patch: IndexBox::new(IntVect::new(16, 0, 16), IntVect::new(45, 1, 43)),
                    rr: 2,
                    n_transition: 2,
                    npml: 6,
                    subcycle: false,
                });
            }
            // Two full steps leave nonzero fields on every grid.
            sim.run(2);
            sim.fs.zero_j();
            let n = sim.parts[0].bufs[0].len();
            assert!(n > 3 * CHUNK, "{n} particles");
            if let Some(mr) = &mut sim.mr {
                mr.zero_j();
                let (patch, gather) = (mr.patch_phys(&sim.fs.geom), mr.gather_phys(&sim.fs.geom));
                let (c_aux, c_fine) =
                    mr_partition(&mut sim.parts[0].bufs[0], Dim::Two, patch, gather);
                assert!(0 < c_aux && c_aux < c_fine && c_fine < n);
                assert!(c_aux % DEFAULT_LANE_WIDTH != 0 && c_fine % DEFAULT_LANE_WIDTH != 0);
            }
            let dt = sim.dt;
            match precision {
                Precision::F64 => sim.advance_species::<f64>(0, dt, chunk),
                Precision::F32Particles => sim.advance_species::<f32>(0, dt, chunk),
            };
            sim
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Particle arrays, then parent J, then fine J.
        let state = |sim: &Simulation| {
            let b = &sim.parts[0].bufs[0];
            let mut s: Vec<Vec<u64>> = [&b.x, &b.y, &b.z, &b.ux, &b.uy, &b.uz, &b.w]
                .map(|v| bits(v))
                .into();
            s.extend((0..3).map(|c| bits(sim.fs.j[c].fab(0).raw())));
            if let Some(mr) = &sim.mr {
                s.extend((0..3).map(|c| bits(mr.fine.j[c].fab(0).raw())));
            }
            s
        };
        for precision in [Precision::F64, Precision::F32Particles] {
            let whole = state(&advanced(precision, usize::MAX));
            assert!(whole[7..].iter().all(|j| j.iter().any(|&x| x != 0)));
            for chunk in [CHUNK, 37] {
                assert!(
                    state(&advanced(precision, chunk)) == whole,
                    "{precision:?}: chunk {chunk} moved bits"
                );
            }
        }
    }

    /// The per-thread scratch holds one chunk, not one box: after steps
    /// of decks with > 4·CHUNK particles per box, no pooled particle
    /// vector has grown past [`CHUNK`].
    #[test]
    fn scratch_particle_vectors_stay_chunk_sized() {
        for precision in [Precision::F64, Precision::F32Particles] {
            let cells = IntVect::new(64, 1, 64);
            let mut sim = thermal_deck(cells, IntVect::new(64, 1, 32), precision);
            assert!(sim.parts[0].bufs.iter().all(|b| b.len() > 4 * CHUNK));
            sim.run(2);
            let caps = pooled_particle_vec_capacities(&sim);
            assert!(!caps.is_empty(), "{precision:?}: no scratch was pooled");
            assert!(
                caps.iter().all(|&c| c <= CHUNK),
                "{precision:?}: scratch capacities {caps:?}"
            );
        }
    }
}
