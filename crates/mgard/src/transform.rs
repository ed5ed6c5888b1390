//! Tensor-product multilevel (re)decomposition over 1D/2D/3D arrays.
//!
//! Each level applies the 1D transform of [`crate::line`] along every
//! dimension of the current active grid. Recomposition replays levels
//! and axes in exactly reverse order, making the whole transform exactly
//! invertible up to floating-point roundoff — the property MDR relies on
//! for near-lossless refactoring.
//!
//! # Lane-batched axis pass
//!
//! All lines of one axis pass are independent. Instead of transforming
//! them one at a time, a pass gathers `LANES` (16) adjacent lines into a
//! tile whose row `i` holds element `i` of every line (`tile[i][lane]`),
//! runs each step of the 1D transform as a loop over the lanes of a row,
//! and scatters the tile back. The serial Thomas recurrences still walk
//! the rows in order, but each step now updates sixteen independent lines
//! at once, which the compiler turns into vector instructions without
//! ISA-specific code.
//!
//! Every lane performs exactly the operations of
//! [`decompose_line`](crate::line::decompose_line) /
//! [`recompose_line`](crate::line::recompose_line), in the same order, on
//! the same values (Rust never contracts `a * b + c` into a fused
//! multiply-add). The mass-matrix factorization does not depend on the
//! data, so it is computed once per pass and every lane divides or
//! multiplies by the same pivots the per-line code computes. The result
//! is bit-identical to transforming each line on its own.

use crate::grid::Hierarchy;
use crate::Real;
use rayon::prelude::*;

/// Lines per tile. Sixteen `f32` lanes fill four SSE or two AVX registers.
const LANES: usize = 16;

/// Shared mutable base pointer for disjoint parallel batch updates.
///
/// Soundness: each batch of one axis pass touches a disjoint set of
/// elements (its lines differ from every other line in at least one
/// non-axis coordinate).
struct SyncPtr<F>(*mut F);
// SAFETY: the pointer targets the caller's buffer for the duration of one
// axis pass; each worker touches only its own batch's elements.
unsafe impl<F> Send for SyncPtr<F> {}
// SAFETY: concurrent access is confined to disjoint element sets (lines
// of one axis pass never share an element), so no location races.
unsafe impl<F> Sync for SyncPtr<F> {}

impl<F> SyncPtr<F> {
    /// # Safety
    /// `i` must be in bounds of the buffer and belong to the caller's batch.
    // SAFETY: caller must pass an in-bounds `i` belonging to its own batch.
    #[inline]
    unsafe fn read(&self, i: usize) -> F
    where
        F: Copy,
    {
        *self.0.add(i)
    }
    /// # Safety
    /// `i` must be in bounds of the buffer and belong to the caller's batch.
    // SAFETY: caller must pass an in-bounds `i` belonging to its own batch.
    #[inline]
    unsafe fn write(&self, i: usize, v: F) {
        *self.0.add(i) = v;
    }
}

/// Thomas factorization of the coarse mass matrix for `nc` nodes:
/// diagonal `2/3, 4/3, …, 4/3, 2/3`, off-diagonal `1/3` (see
/// [`crate::line`]). It depends only on `nc`, so one copy serves every
/// line of a pass.
struct MassFactors<F> {
    /// Forward-sweep pivots `m_i`; decompose divides by them, exactly as
    /// [`thomas_solve`](crate::line::thomas_solve) does.
    m: Vec<F>,
    /// Pivot reciprocals `1/m_i`; recompose multiplies by them, exactly
    /// as the per-line cached solve does.
    inv_m: Vec<F>,
    /// Back-substitution multipliers `off/m_i`.
    c: Vec<F>,
}

impl<F: Real> MassFactors<F> {
    fn new(nc: usize) -> Self {
        let one = F::from_f64(1.0);
        let off = F::from_f64(1.0 / 3.0);
        let interior = F::from_f64(4.0 / 3.0);
        let boundary = F::from_f64(2.0 / 3.0);
        let mut f = MassFactors {
            m: Vec::with_capacity(nc),
            inv_m: Vec::with_capacity(nc),
            c: Vec::with_capacity(nc),
        };
        for i in 0..nc {
            let d = if i == 0 || i + 1 == nc {
                boundary
            } else {
                interior
            };
            let m = if i == 0 { d } else { d - off * f.c[i - 1] };
            f.m.push(m);
            f.inv_m.push(one / m);
            f.c.push(off / m);
        }
        f
    }
}

/// `out[l] = op(out[l], a[l])` over the lanes of one tile row.
#[inline(always)]
fn lanes_with<F: Copy, const W: usize>(out: &mut [F; W], a: &[F; W], op: impl Fn(F, F) -> F) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = op(*o, x);
    }
}

/// `out[l] = op(out[l], a[l], b[l])` over the lanes of one tile row.
#[inline(always)]
fn lanes_with2<F: Copy, const W: usize>(
    out: &mut [F; W],
    a: &[F; W],
    b: &[F; W],
    op: impl Fn(F, F, F) -> F,
) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = op(*o, x, y);
    }
}

/// Odd rows become `op(d, pred)`, where `pred` interpolates the even
/// neighbours (one-sided past the end of an even-length line). The even
/// rows are read, never written.
fn apply_prediction<F: Real, const W: usize>(tile: &mut [[F; W]], op: impl Fn(F, F) -> F) {
    let n = tile.len();
    let half = F::from_f64(0.5);
    for i in 0..n / 2 {
        let left = tile[2 * i];
        if 2 * i + 2 < n {
            let right = tile[2 * i + 2];
            lanes_with2(&mut tile[2 * i + 1], &left, &right, |d, a, b| {
                op(d, (a + b) * half)
            });
        } else {
            lanes_with(&mut tile[2 * i + 1], &left, &op);
        }
    }
}

/// The L2 correction of the even rows: `rhs` receives `M⁻¹ r` for the
/// load `r_j = ½(d_{j−1} + d_j)` of the odd rows, and each even row `j`
/// becomes `update(v_j, w_j)`. The forward sweep applies pivot `i` as
/// `pivot(x, pivots[i])`, so each direction rounds it as its per-line
/// reference does; `c` holds the back-substitution multipliers.
fn correct_coarse<F: Real, const W: usize>(
    tile: &mut [[F; W]],
    rhs: &mut [[F; W]],
    pivots: &[F],
    c: &[F],
    pivot: impl Fn(F, F) -> F,
    update: impl Fn(F, F) -> F,
) {
    let nf = tile.len() / 2;
    let half = F::from_f64(0.5);
    let off = F::from_f64(1.0 / 3.0);
    // Missing neighbours are zero, and the zero is still added as in the
    // per-line code, so a `-0.0` detail rounds the same way.
    let zero = [F::ZERO; W];
    for (j, r) in rhs.iter_mut().enumerate() {
        let dl = if j >= 1 { &tile[2 * j - 1] } else { &zero };
        let dr = if j < nf { &tile[2 * j + 1] } else { &zero };
        lanes_with2(r, dl, dr, |_, a, b| (a + b) * half);
    }
    // Forward sweep.
    let p0 = pivots[0];
    for r in rhs[0].iter_mut() {
        *r = pivot(*r, p0);
    }
    for i in 1..rhs.len() {
        let (prev, pi) = (rhs[i - 1], pivots[i]);
        lanes_with(&mut rhs[i], &prev, |r, p| pivot(r - off * p, pi));
    }
    // Back substitution.
    for i in (0..rhs.len() - 1).rev() {
        let (next, ci) = (rhs[i + 1], c[i]);
        lanes_with(&mut rhs[i], &next, |r, x| r - ci * x);
    }
    for (j, w) in rhs.iter().enumerate() {
        lanes_with(&mut tile[2 * j], w, &update);
    }
}

/// [`decompose_line`](crate::line::decompose_line) on every lane of
/// `tile` (`n = tile.len() ≥ 3` rows); `rhs` holds `ceil(n/2)` rows.
fn decompose_lanes<F: Real, const W: usize>(
    tile: &mut [[F; W]],
    rhs: &mut [[F; W]],
    f: &MassFactors<F>,
    correct: bool,
) {
    apply_prediction(tile, |d, pred| d - pred);
    if correct {
        // Divide by the pivots, as `thomas_solve` does.
        correct_coarse(tile, rhs, &f.m, &f.c, |x, m| x / m, |v, w| v + w);
    }
}

/// [`recompose_line`](crate::line::recompose_line) on every lane of
/// `tile` (`n = tile.len() ≥ 3` rows); `rhs` holds `ceil(n/2)` rows.
fn recompose_lanes<F: Real, const W: usize>(
    tile: &mut [[F; W]],
    rhs: &mut [[F; W]],
    f: &MassFactors<F>,
    correct: bool,
) {
    if correct {
        // Multiply by the cached reciprocals, as the per-line solve does.
        correct_coarse(tile, rhs, &f.inv_m, &f.c, |x, inv| x * inv, |v, w| v - w);
    }
    apply_prediction(tile, |d, pred| d + pred);
}

/// What the batches of one axis pass share: the buffer, the level's
/// geometry and the factorization.
struct AxisPass<'a, F> {
    data: SyncPtr<F>,
    /// Active extent per dimension.
    dims: &'a [usize],
    /// Element stride between active nodes per dimension (original-grid
    /// units × row-major stride).
    elem_strides: &'a [usize],
    axis: usize,
    num_lines: usize,
    factors: MassFactors<F>,
    decompose_dir: bool,
    correct: bool,
}

impl<F: Real> AxisPass<'_, F> {
    /// Flat offset of line `id`'s first element: `id` read as a mixed-radix
    /// number over the non-axis dimensions, last dimension fastest, so
    /// consecutive ids are neighbours in memory.
    fn line_base(&self, id: usize) -> usize {
        let mut rem = id;
        let mut base = 0usize;
        for d in (0..self.dims.len()).rev() {
            if d != self.axis {
                base += (rem % self.dims[d]) * self.elem_strides[d];
                rem /= self.dims[d];
            }
        }
        base
    }

    /// Split the lines into batches of `W` and run them, spreading the
    /// batches across the installed thread pool.
    fn run<const W: usize>(&self) {
        let n = self.dims[self.axis];
        let nc = n.div_ceil(2);
        (0..self.num_lines.div_ceil(W))
            .into_par_iter()
            .for_each_init(
                || (vec![[F::ZERO; W]; n], vec![[F::ZERO; W]; nc]),
                |(tile, rhs), batch| self.run_batch(batch * W, tile, rhs),
            );
    }

    /// Gather lines `first..` (up to `W` of them) into `tile`, transform
    /// every lane, and scatter the real lanes back. Lanes past the last
    /// line are zeroed, transformed, and dropped.
    fn run_batch<const W: usize>(&self, first: usize, tile: &mut [[F; W]], rhs: &mut [[F; W]]) {
        let count = W.min(self.num_lines - first);
        let axis_stride = self.elem_strides[self.axis];
        let mut bases = [0usize; W];
        for (l, b) in bases.iter_mut().enumerate().take(count) {
            *b = self.line_base(first + l);
        }
        for (i, row) in tile.iter_mut().enumerate() {
            let off = i * axis_stride;
            for (slot, &b) in row.iter_mut().zip(&bases).take(count) {
                // SAFETY: lines `first..first + count` belong to this batch
                // only; `b + off` is in bounds by construction.
                *slot = unsafe { self.data.read(b + off) };
            }
            row[count..].fill(F::ZERO);
        }
        if self.decompose_dir {
            decompose_lanes(tile, rhs, &self.factors, self.correct);
        } else {
            recompose_lanes(tile, rhs, &self.factors, self.correct);
        }
        for (i, row) in tile.iter().enumerate() {
            let off = i * axis_stride;
            for (&v, &b) in row.iter().zip(&bases).take(count) {
                // SAFETY: the same indices the gather above read — disjoint
                // across batches and in bounds by construction.
                unsafe { self.data.write(b + off, v) };
            }
        }
    }
}

/// One axis pass over the active grid at a level.
///
/// `dims`: active extent per dimension; `elem_strides`: element stride
/// between active nodes per dimension (original-grid units × row-major
/// stride).
fn axis_pass<F: Real>(
    data: &mut [F],
    dims: &[usize],
    elem_strides: &[usize],
    axis: usize,
    decompose_dir: bool,
    correct: bool,
) {
    let n = dims[axis];
    if n < 3 {
        return;
    }
    let pass = AxisPass {
        data: SyncPtr(data.as_mut_ptr()),
        dims,
        elem_strides,
        axis,
        num_lines: (0..dims.len())
            .filter(|&d| d != axis)
            .map(|d| dims[d])
            .product(),
        factors: MassFactors::new(n.div_ceil(2)),
        decompose_dir,
        correct,
    };
    // A pass too small to fill one tile runs its lines one lane wide, so
    // a single long line never pays for fifteen empty lanes.
    if pass.num_lines >= LANES {
        pass.run::<LANES>();
    } else {
        pass.run::<1>();
    }
}

fn level_geometry(h: &Hierarchy, l: usize) -> (Vec<usize>, Vec<usize>) {
    let dims = h.shape_at_level(l);
    let row_major = h.strides();
    let elem_strides: Vec<usize> = (0..h.ndims())
        .map(|d| h.stride_at_level(d, l) * row_major[d])
        .collect();
    (dims, elem_strides)
}

/// Decompose `data` (row-major, shape `h.shape`) in place through all
/// levels of `h`. Even/odd interleaving keeps every coefficient at its
/// original position; use [`crate::levels::extract_levels`] to pull the
/// per-level groups out.
///
/// `correct` enables the L2 projection correction (MGARD); without it the
/// transform is plain hierarchical interpolation.
///
/// # Panics
/// Panics if `data.len()` does not match the hierarchy.
pub fn decompose<F: Real>(data: &mut [F], h: &Hierarchy, correct: bool) {
    assert_eq!(
        data.len(),
        h.len(),
        "data length must match hierarchy shape"
    );
    for l in 0..h.levels {
        let (dims, elem_strides) = level_geometry(h, l);
        for axis in 0..h.ndims() {
            axis_pass(data, &dims, &elem_strides, axis, true, correct);
        }
    }
}

/// Exact inverse of [`decompose`].
pub fn recompose<F: Real>(data: &mut [F], h: &Hierarchy, correct: bool) {
    recompose_to_level(data, h, correct, 0);
}

/// Partially recompose down to `target_level` (0 = full grid): only the
/// levels coarser than the target are inverted, leaving a valid nodal
/// representation on the level-`target_level` active grid. This is the
/// *resolution-progressive* access mode of the MDR line: a coarse
/// rendering needs neither the finer coefficients nor the finer
/// recomposition passes.
///
/// # Panics
/// Panics if `data` does not match the hierarchy or `target_level`
/// exceeds the hierarchy depth.
pub fn recompose_to_level<F: Real>(
    data: &mut [F],
    h: &Hierarchy,
    correct: bool,
    target_level: usize,
) {
    assert_eq!(
        data.len(),
        h.len(),
        "data length must match hierarchy shape"
    );
    assert!(
        target_level <= h.levels,
        "level {target_level} beyond hierarchy"
    );
    for l in (target_level..h.levels).rev() {
        let (dims, elem_strides) = level_geometry(h, l);
        for axis in (0..h.ndims()).rev() {
            axis_pass(data, &dims, &elem_strides, axis, false, correct);
        }
    }
}

/// Gather the active grid of `level` into a dense row-major array of
/// shape [`Hierarchy::shape_at_level`].
pub fn extract_active_grid<F: Real>(data: &[F], h: &Hierarchy, level: usize) -> Vec<F> {
    assert_eq!(
        data.len(),
        h.len(),
        "data length must match hierarchy shape"
    );
    assert!(level <= h.levels, "level {level} beyond hierarchy");
    let nd = h.ndims();
    let dims = h.shape_at_level(level);
    let row_major = h.strides();
    let strides: Vec<usize> = (0..nd)
        .map(|d| h.stride_at_level(d, level) * row_major[d])
        .collect();
    let count: usize = dims.iter().product();
    let mut out = Vec::with_capacity(count);
    let mut coord = vec![0usize; nd];
    for _ in 0..count {
        let flat: usize = coord.iter().zip(&strides).map(|(&c, &s)| c * s).sum();
        out.push(data[flat]);
        for d in (0..nd).rev() {
            coord[d] += 1;
            if coord[d] < dims[d] {
                break;
            }
            coord[d] = 0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_3d(nx: usize, ny: usize, nz: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(nx * ny * nz);
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    let (xf, yf, zf) = (x as f64, y as f64, z as f64);
                    v.push((xf * 0.3).sin() * (yf * 0.17).cos() + 0.05 * (zf * 0.9).sin());
                }
            }
        }
        v
    }

    #[test]
    fn roundtrip_1d() {
        for n in [3usize, 16, 17, 100, 257] {
            let h = Hierarchy::full(&[n]);
            let orig: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin() * 5.0).collect();
            let mut data = orig.clone();
            decompose(&mut data, &h, true);
            recompose(&mut data, &h, true);
            for (a, b) in orig.iter().zip(&data) {
                assert!((a - b).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn roundtrip_2d_non_square() {
        let h = Hierarchy::full(&[33, 20]);
        let orig = field_3d(33, 20, 1);
        let mut data = orig.clone();
        decompose(&mut data, &h, true);
        recompose(&mut data, &h, true);
        for (a, b) in orig.iter().zip(&data) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn roundtrip_3d_odd_even_mix() {
        for shape in [[9usize, 8, 7], [17, 17, 17], [5, 32, 11]] {
            let h = Hierarchy::full(&shape);
            let orig = field_3d(shape[0], shape[1], shape[2]);
            let mut data = orig.clone();
            decompose(&mut data, &h, true);
            recompose(&mut data, &h, true);
            for (a, b) in orig.iter().zip(&data) {
                assert!((a - b).abs() < 1e-10, "shape={shape:?}");
            }
        }
    }

    #[test]
    fn roundtrip_without_correction() {
        let h = Hierarchy::full(&[33, 33]);
        let orig = field_3d(33, 33, 1);
        let mut data = orig.clone();
        decompose(&mut data, &h, false);
        recompose(&mut data, &h, false);
        for (a, b) in orig.iter().zip(&data) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn trilinear_field_decomposes_to_coarse_only() {
        // A multilinear function is reproduced exactly by interpolation, so
        // every detail coefficient must vanish (correction included: the
        // projection of zero detail is zero).
        let (nx, ny) = (17, 9);
        let h = Hierarchy::full(&[nx, ny]);
        let mut data: Vec<f64> = Vec::new();
        for x in 0..nx {
            for y in 0..ny {
                data.push(2.0 * x as f64 - 3.0 * y as f64 + 0.25 * (x * y) as f64 + 1.0);
            }
        }
        decompose(&mut data, &h, true);
        // Positions with any odd level-0 coordinate are level-0 details.
        for x in 0..nx {
            for y in 0..ny {
                if x % 2 == 1 || y % 2 == 1 {
                    let v = data[x * ny + y];
                    assert!(v.abs() < 1e-9, "detail at ({x},{y}) = {v}");
                }
            }
        }
    }

    #[test]
    fn decomposition_concentrates_energy_in_coarse_levels() {
        let h = Hierarchy::full(&[65, 65]);
        let orig = field_3d(65, 65, 1);
        let mut data = orig.clone();
        decompose(&mut data, &h, true);
        // Detail coefficients (any odd coordinate) must be small relative
        // to the smooth field's range.
        let mut max_detail = 0.0f64;
        for x in 0..65 {
            for y in 0..65 {
                if x % 2 == 1 || y % 2 == 1 {
                    max_detail = max_detail.max(data[x * 65 + y].abs());
                }
            }
        }
        let range = orig.iter().cloned().fold(f64::MIN, f64::max)
            - orig.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max_detail < 0.05 * range,
            "max detail {max_detail} vs range {range}"
        );
    }

    #[test]
    fn degenerate_shapes_pass_through() {
        for shape in [vec![1usize], vec![2, 2], vec![1, 1, 5]] {
            let h = Hierarchy::full(&shape);
            let n: usize = shape.iter().product();
            let orig: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut data = orig.clone();
            decompose(&mut data, &h, true);
            recompose(&mut data, &h, true);
            for (a, b) in orig.iter().zip(&data) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic]
    fn wrong_length_panics() {
        let h = Hierarchy::full(&[4, 4]);
        let mut data = vec![0.0f64; 15];
        decompose(&mut data, &h, true);
    }

    #[test]
    fn partial_recompose_reproduces_coarse_grid() {
        // Recomposing to level l and sampling the active grid must equal
        // recomposing fully and subsampling... NOT in general (coarse nodal
        // values are projections, not samples) — but recompose_to_level(0)
        // must equal recompose, and each target level must round-trip
        // against its own decompose prefix.
        let h = Hierarchy::full(&[17, 17]);
        let orig = field_3d(17, 17, 1);
        let mut full = orig.clone();
        decompose(&mut full, &h, true);

        let mut a = full.clone();
        recompose_to_level(&mut a, &h, true, 0);
        let mut b = full.clone();
        recompose(&mut b, &h, true);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }

        // Level-l grid from partial recompose == decompose run for only
        // the coarser levels (the level-l nodal representation).
        for level in 1..=h.levels {
            let mut partial = full.clone();
            recompose_to_level(&mut partial, &h, true, level);
            let coarse = extract_active_grid(&partial, &h, level);
            assert_eq!(coarse.len(), h.len_at_level(level));

            // Reference: decompose the original only down to `level`.
            let mut reference = orig.clone();
            for l in 0..level {
                let (dims, elem_strides) = level_geometry(&h, l);
                for axis in 0..h.ndims() {
                    axis_pass(&mut reference, &dims, &elem_strides, axis, true, true);
                }
            }
            let ref_coarse = extract_active_grid(&reference, &h, level);
            for (x, y) in coarse.iter().zip(&ref_coarse) {
                assert!((x - y).abs() < 1e-10, "level {level}");
            }
        }
    }

    #[test]
    fn extract_active_grid_level_zero_is_identity() {
        let h = Hierarchy::full(&[9, 8]);
        let data: Vec<f64> = (0..72).map(|i| i as f64).collect();
        assert_eq!(extract_active_grid(&data, &h, 0), data);
    }

    #[test]
    fn extract_active_grid_strides_correctly() {
        let h = Hierarchy::full(&[5, 5]);
        let data: Vec<f64> = (0..25).map(|i| i as f64).collect();
        let coarse = extract_active_grid(&data, &h, 1); // 3x3: indices 0,2,4
        assert_eq!(
            coarse,
            vec![0.0, 2.0, 4.0, 10.0, 12.0, 14.0, 20.0, 22.0, 24.0]
        );
    }
}
