//! Property tests: the lane-blocked kernels are bitwise identical to
//! the scalar reference kernels for random particle sets straddling
//! box edges, in both kernel precisions (`f64` and `f32`).
//!
//! Positions are biased toward the extremes of the legal range, so
//! stencil windows routinely touch the first and last stored rows —
//! the exact spot where a top-edge off-by-one in the interior check
//! would read/write one past a row with unchecked indexing. The
//! deposit tests additionally give `jx` a one-point-shorter x extent:
//! legal for the scalar kernel (its jx sweep writes one fewer x point)
//! but failing the lane layer's conservative containment check, so
//! whole blocks genuinely take the boundary scalar-fallback path.

use mrpic_kernels::deposit::{esirkepov2, esirkepov3, JViews};
use mrpic_kernels::gather::{gather2, gather3, EmOut, EmViews};
use mrpic_kernels::lanes::Lanes;
use mrpic_kernels::real::Real;
use mrpic_kernels::shape::{dual, Cubic, Linear, Quadratic, Shape};
use mrpic_kernels::view::{FieldView, FieldViewMut, Geom};
use proptest::prelude::*;

const NX: i64 = 16;
const NY: i64 = 12;
const NZ: i64 = 14;
const LO: [i64; 3] = [-3, -2, -4];

fn geom() -> Geom {
    // Unit cells anchored at 0: cell coordinate == position.
    Geom {
        xmin: [0.0; 3],
        dx: [1.0; 3],
    }
}

fn fill<T: Real>(seed: u64, n: usize) -> Vec<T> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            T::from_f64((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        })
        .collect()
}

/// Bit pattern of a kernel result: `f32 -> f64` is exact and
/// injective, so equal patterns mean bitwise-equal values in either
/// precision.
fn bits<T: Real>(v: T) -> u64 {
    v.to_f64().to_bits()
}

/// Unit-interval coordinate biased toward the edges of the range: 20%
/// exactly 0, 20% exactly 1, the rest uniform.
fn edge_u() -> impl Strategy<Value = f64> {
    (0usize..10, 0.0..1.0f64).prop_map(|(k, u)| match k {
        0 | 1 => 0.0,
        2 | 3 => 1.0,
        _ => u,
    })
}

/// Nudge `xi` until both stagger variants' windows fit `[lo, lo+ext)`;
/// edge-touching values are kept as-is. Runs in the kernel precision,
/// so the clamped value is exactly what the kernels see.
fn clamp_gather<S: Shape, T: Real>(xi: f64, lo: i64, ext: i64) -> T {
    let mut xi = T::from_f64(xi);
    loop {
        let (i_n, _) = S::eval::<T>(xi);
        let (i_h, _) = S::eval::<T>(xi - T::HALF);
        let mn = i_n.min(i_h);
        let mx = i_n.max(i_h);
        if mn >= lo && mx + S::SUPPORT as i64 <= lo + ext {
            return xi;
        }
        xi += if mn < lo { T::HALF } else { -T::HALF };
    }
}

/// Nudge an old/new position pair until the dual (Esirkepov) window
/// fits `[lo, lo+ext)`, preserving the displacement.
fn clamp_pair<S: Shape, T: Real>(a: f64, b: f64, lo: i64, ext: i64) -> (T, T) {
    let len = S::SUPPORT as i64 + 1;
    let (mut a, mut b) = (T::from_f64(a), T::from_f64(b));
    loop {
        let (anc, _, _) = dual::<S, T>(a, b);
        if anc >= lo && anc + len <= lo + ext {
            return (a, b);
        }
        let d = if anc < lo { T::HALF } else { -T::HALF };
        a += d;
        b += d;
    }
}

fn view<T: Real>(data: &[T], half: [bool; 3]) -> FieldView<'_, T> {
    FieldView {
        data,
        lo: LO,
        nx: NX,
        nxy: NX * NY,
        half,
    }
}

fn em_views<T: Real>(store: &[Vec<T>; 6]) -> EmViews<'_, T> {
    EmViews {
        ex: view(&store[0], [true, false, false]),
        ey: view(&store[1], [false, true, false]),
        ez: view(&store[2], [false, false, true]),
        bx: view(&store[3], [false, true, true]),
        by: view(&store[4], [true, false, true]),
        bz: view(&store[5], [true, true, false]),
    }
}

/// J views; `jx` is one point shorter along x (its own strides and
/// data), which is what drives blocks onto the scalar fallback.
fn j_views<T: Real>(store: &mut [Vec<T>; 3]) -> JViews<'_, T> {
    let [jx, jy, jz] = store;
    JViews {
        jx: FieldViewMut {
            data: jx,
            lo: LO,
            nx: NX - 1,
            nxy: (NX - 1) * NY,
            half: [true, false, false],
        },
        jy: FieldViewMut {
            data: jy,
            lo: LO,
            nx: NX,
            nxy: NX * NY,
            half: [false, true, false],
        },
        jz: FieldViewMut {
            data: jz,
            lo: LO,
            nx: NX,
            nxy: NX * NY,
            half: [false, false, true],
        },
    }
}

fn j_store<T: Real>() -> [Vec<T>; 3] {
    [
        vec![T::ZERO; ((NX - 1) * NY * NZ) as usize],
        vec![T::ZERO; (NX * NY * NZ) as usize],
        vec![T::ZERO; (NX * NY * NZ) as usize],
    ]
}

fn run_gather<S: Shape, T: Real, const W: usize>(us: &[(f64, f64, f64)], dim2: bool) {
    let store: [Vec<T>; 6] = std::array::from_fn(|i| fill(77 + i as u64, (NX * NY * NZ) as usize));
    let f = em_views(&store);
    let g = geom();
    let n = us.len();
    let mut x = Vec::new();
    let mut y = Vec::new();
    let mut z = Vec::new();
    for &(ux, uy, uz) in us {
        x.push(clamp_gather::<S, T>(
            LO[0] as f64 + ux * NX as f64,
            LO[0],
            NX,
        ));
        y.push(clamp_gather::<S, T>(
            LO[1] as f64 + uy * NY as f64,
            LO[1],
            NY,
        ));
        z.push(clamp_gather::<S, T>(
            LO[2] as f64 + uz * NZ as f64,
            LO[2],
            NZ,
        ));
    }
    let mut a = vec![vec![T::ZERO; n]; 6];
    let mut b = vec![vec![T::ZERO; n]; 6];
    let run = |o: &mut Vec<Vec<T>>, lanes: bool| {
        let [o0, o1, o2, o3, o4, o5] = &mut o[..] else {
            unreachable!()
        };
        let mut out = EmOut {
            ex: o0,
            ey: o1,
            ez: o2,
            bx: o3,
            by: o4,
            bz: o5,
        };
        match (dim2, lanes) {
            (false, false) => gather3::<S, T>(&x, &y, &z, &g, &f, &mut out),
            (false, true) => Lanes::<W>::gather3::<S, T>(&x, &y, &z, &g, &f, &mut out),
            (true, false) => gather2::<S, T>(&x, &z, &g, &f, &mut out),
            (true, true) => Lanes::<W>::gather2::<S, T>(&x, &z, &g, &f, &mut out),
        }
    };
    run(&mut a, false);
    run(&mut b, true);
    for c in 0..6 {
        for p in 0..n {
            assert_eq!(bits(a[c][p]), bits(b[c][p]), "comp {c} particle {p}");
        }
    }
}

#[allow(clippy::type_complexity)]
fn run_deposit<S: Shape, T: Real, const W: usize>(
    parts: &[((f64, f64, f64), (f64, f64, f64), f64)],
    dim2: bool,
) {
    let g = geom();
    let (mut x0, mut y0, mut z0) = (Vec::new(), Vec::new(), Vec::new());
    let (mut x1, mut y1, mut z1) = (Vec::new(), Vec::new(), Vec::new());
    let mut w = Vec::new();
    let mut vy = Vec::new();
    for &((ux, uy, uz), (dx, dy, dz), wt) in parts {
        let (a, b) = clamp_pair::<S, T>(
            LO[0] as f64 + ux * NX as f64,
            LO[0] as f64 + ux * NX as f64 + dx,
            LO[0],
            NX,
        );
        x0.push(a);
        x1.push(b);
        let (a, b) = clamp_pair::<S, T>(
            LO[1] as f64 + uy * NY as f64,
            LO[1] as f64 + uy * NY as f64 + dy,
            LO[1],
            NY,
        );
        y0.push(a);
        y1.push(b);
        let (a, b) = clamp_pair::<S, T>(
            LO[2] as f64 + uz * NZ as f64,
            LO[2] as f64 + uz * NZ as f64 + dz,
            LO[2],
            NZ,
        );
        z0.push(a);
        z1.push(b);
        w.push(T::from_f64(1.0 + wt));
        vy.push(T::from_f64(1e6 * (wt - 0.5)));
    }
    let q = T::from_f64(1.6e-19);
    let dt = T::from_f64(1e-9);
    let mut sa = j_store::<T>();
    let mut sb = j_store::<T>();
    if dim2 {
        let mut j = j_views(&mut sa);
        esirkepov2::<S, T>(&x0, &z0, &x1, &z1, &vy, &w, q, dt, &g, &mut j);
        let mut j = j_views(&mut sb);
        Lanes::<W>::esirkepov2::<S, T>(&x0, &z0, &x1, &z1, &vy, &w, q, dt, &g, &mut j);
    } else {
        let mut j = j_views(&mut sa);
        esirkepov3::<S, T>(&x0, &y0, &z0, &x1, &y1, &z1, &w, q, dt, &g, &mut j);
        let mut j = j_views(&mut sb);
        Lanes::<W>::esirkepov3::<S, T>(&x0, &y0, &z0, &x1, &y1, &z1, &w, q, dt, &g, &mut j);
    }
    for c in 0..3 {
        for i in 0..sa[c].len() {
            assert_eq!(bits(sa[c][i]), bits(sb[c][i]), "comp {c} cell {i}");
        }
    }
}

fn units() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec((edge_u(), edge_u(), edge_u()), 1..40)
}

#[allow(clippy::type_complexity)]
fn moves() -> impl Strategy<Value = Vec<((f64, f64, f64), (f64, f64, f64), f64)>> {
    let d = -0.45..0.45f64;
    prop::collection::vec(
        (
            (edge_u(), edge_u(), edge_u()),
            (d.clone(), d.clone(), d),
            0.0..1.0f64,
        ),
        1..40,
    )
}

proptest! {
    // ~48 cases per precision.
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn gather_bitwise_at_edges(
        us in units(),
        order in 1usize..4,
        dim2 in any::<bool>(),
        single in any::<bool>(),
    ) {
        match (order, single) {
            (1, false) => run_gather::<Linear, f64, 4>(&us, dim2),
            (2, false) => run_gather::<Quadratic, f64, 8>(&us, dim2),
            (_, false) => run_gather::<Cubic, f64, 16>(&us, dim2),
            (1, true) => run_gather::<Linear, f32, 4>(&us, dim2),
            (2, true) => run_gather::<Quadratic, f32, 8>(&us, dim2),
            (_, true) => run_gather::<Cubic, f32, 16>(&us, dim2),
        }
    }

    #[test]
    fn deposit_bitwise_at_edges(
        parts in moves(),
        order in 1usize..4,
        dim2 in any::<bool>(),
        single in any::<bool>(),
    ) {
        match (order, single) {
            (1, false) => run_deposit::<Linear, f64, 8>(&parts, dim2),
            (2, false) => run_deposit::<Quadratic, f64, 4>(&parts, dim2),
            (_, false) => run_deposit::<Cubic, f64, 16>(&parts, dim2),
            (1, true) => run_deposit::<Linear, f32, 8>(&parts, dim2),
            (2, true) => run_deposit::<Quadratic, f32, 4>(&parts, dim2),
            (_, true) => run_deposit::<Cubic, f32, 16>(&parts, dim2),
        }
    }
}
