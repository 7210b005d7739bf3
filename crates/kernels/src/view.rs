//! Lightweight grid views passed to kernels.
//!
//! Kernels are agnostic of the mesh container: they see a flat slice, the
//! point-box lower corner, strides, and the per-axis staggering. The
//! driver crate builds these from `mrpic_amr::Fab`s.

use crate::real::Real;

/// Geometry of the region a kernel works in.
#[derive(Clone, Copy, Debug)]
pub struct Geom {
    /// Physical coordinate of the index-0 grid line, per axis \[m\].
    pub xmin: [f64; 3],
    /// Cell size per axis \[m\].
    pub dx: [f64; 3],
}

impl Geom {
    /// Particle position -> cell coordinate along axis `d`.
    #[inline(always)]
    pub fn xi<T: Real>(&self, d: usize, x: T) -> T {
        (x - T::from_f64(self.xmin[d])) * T::from_f64(1.0 / self.dx[d])
    }

    /// Cell volume \[m³\].
    #[inline(always)]
    pub fn dv(&self) -> f64 {
        self.dx[0] * self.dx[1] * self.dx[2]
    }
}

/// Read-only staggered field component.
#[derive(Clone, Copy)]
pub struct FieldView<'a, T> {
    pub data: &'a [T],
    /// Lower corner of the stored point box (including guards).
    pub lo: [i64; 3],
    /// x stride is 1; these are the y and z strides.
    pub nx: i64,
    pub nxy: i64,
    /// Per-axis: `true` = half (points at `(i + 1/2) dx`).
    pub half: [bool; 3],
}

impl<'a, T: Real> FieldView<'a, T> {
    #[inline(always)]
    pub fn idx(&self, i: i64, j: i64, k: i64) -> usize {
        ((k - self.lo[2]) * self.nxy + (j - self.lo[1]) * self.nx + (i - self.lo[0])) as usize
    }

    #[inline(always)]
    pub fn get(&self, i: i64, j: i64, k: i64) -> T {
        self.data[self.idx(i, j, k)]
    }

    /// Stagger offset of axis `d` in cell units (0.0 nodal, 0.5 half).
    #[inline(always)]
    pub fn off(&self, d: usize) -> f64 {
        if self.half[d] {
            0.5
        } else {
            0.0
        }
    }

    /// Stored points per axis, derived from the strides and data length.
    #[inline(always)]
    pub fn extent(&self) -> [i64; 3] {
        [
            self.nx,
            self.nxy / self.nx,
            self.data.len() as i64 / self.nxy,
        ]
    }
}

/// Mutable staggered field component (deposition target).
pub struct FieldViewMut<'a, T> {
    pub data: &'a mut [T],
    pub lo: [i64; 3],
    pub nx: i64,
    pub nxy: i64,
    pub half: [bool; 3],
}

impl<'a, T: Real> FieldViewMut<'a, T> {
    #[inline(always)]
    pub fn idx(&self, i: i64, j: i64, k: i64) -> usize {
        ((k - self.lo[2]) * self.nxy + (j - self.lo[1]) * self.nx + (i - self.lo[0])) as usize
    }

    #[inline(always)]
    pub fn add(&mut self, i: i64, j: i64, k: i64, v: T) {
        let ix = self.idx(i, j, k);
        self.data[ix] += v;
    }

    /// Fused accumulate: `self[i,j,k] += a * v` with a single rounding
    /// (one FMA instruction on targets that have it).
    #[inline(always)]
    pub fn madd(&mut self, i: i64, j: i64, k: i64, a: T, v: T) {
        let ix = self.idx(i, j, k);
        self.data[ix] = a.mul_add(v, self.data[ix]);
    }

    #[inline(always)]
    pub fn off(&self, d: usize) -> f64 {
        if self.half[d] {
            0.5
        } else {
            0.0
        }
    }

    /// Stored points per axis, derived from the strides and data length.
    #[inline(always)]
    pub fn extent(&self) -> [i64; 3] {
        [
            self.nx,
            self.nxy / self.nx,
            self.data.len() as i64 / self.nxy,
        ]
    }

    /// Reborrow as read-only.
    #[inline]
    pub fn as_view(&self) -> FieldView<'_, T> {
        FieldView {
            data: self.data,
            lo: self.lo,
            nx: self.nx,
            nxy: self.nxy,
            half: self.half,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_cell_coordinates() {
        let g = Geom {
            xmin: [1.0, 0.0, -2.0],
            dx: [0.5, 1.0, 0.25],
        };
        assert_eq!(g.xi::<f64>(0, 2.0), 2.0);
        assert_eq!(g.xi::<f64>(2, -1.0), 4.0);
        assert_eq!(g.dv(), 0.125);
    }

    #[test]
    fn view_indexing_matches_layout() {
        // 3x2x2 points, lo = (-1, 0, 0)
        let data: Vec<f64> = (0..12).map(|v| v as f64).collect();
        let v = FieldView {
            data: &data,
            lo: [-1, 0, 0],
            nx: 3,
            nxy: 6,
            half: [true, false, false],
        };
        assert_eq!(v.get(-1, 0, 0), 0.0);
        assert_eq!(v.get(1, 0, 0), 2.0);
        assert_eq!(v.get(-1, 1, 0), 3.0);
        assert_eq!(v.get(-1, 0, 1), 6.0);
        assert_eq!(v.off(0), 0.5);
        assert_eq!(v.off(1), 0.0);
    }

    #[test]
    fn mut_view_accumulates() {
        let mut data = vec![0.0f64; 8];
        let mut v = FieldViewMut {
            data: &mut data,
            lo: [0, 0, 0],
            nx: 2,
            nxy: 4,
            half: [false; 3],
        };
        v.add(1, 1, 1, 2.0);
        v.add(1, 1, 1, 3.0);
        assert_eq!(v.as_view().get(1, 1, 1), 5.0);
    }
}
