//! The lane-batched multilevel transform is bit-identical to the 1-D
//! reference transform applied line by line.
//!
//! `hpmdr_mgard::{decompose, recompose_to_level}` gather sixteen lines
//! into a tile and run the 1-D steps across the lanes. Every lane must
//! compute exactly what `decompose_line` / `recompose_line` compute for
//! its line, so the coefficients and every partial reconstruction are
//! compared with `to_bits` equality, on the scalar and the parallel
//! backends.

use hpmdr_core::{Backend, ExecCtx, ParallelBackend, ScalarBackend};
use hpmdr_mgard::line::{decompose_line, recompose_line, LineScratch};
use hpmdr_mgard::{Hierarchy, Real};
use proptest::prelude::*;

/// One axis pass of the reference: every line of `axis` on the level's
/// active grid, gathered and transformed on its own.
fn reference_pass<F: Real>(
    data: &mut [F],
    h: &Hierarchy,
    level: usize,
    axis: usize,
    decompose: bool,
    correct: bool,
) {
    let dims = h.shape_at_level(level);
    let row_major = h.strides();
    let strides: Vec<usize> = (0..h.ndims())
        .map(|d| h.stride_at_level(d, level) * row_major[d])
        .collect();
    let n = dims[axis];
    let mut scratch = LineScratch::with_capacity(n);
    let mut line = vec![F::ZERO; n];
    let mut coord = vec![0usize; dims.len()];
    for _ in 0..dims.iter().product::<usize>() {
        if coord[axis] == 0 {
            let base: usize = coord.iter().zip(&strides).map(|(c, s)| c * s).sum();
            for (i, v) in line.iter_mut().enumerate() {
                *v = data[base + i * strides[axis]];
            }
            if decompose {
                decompose_line(&mut line, &mut scratch, correct);
            } else {
                recompose_line(&mut line, &mut scratch, correct);
            }
            for (i, &v) in line.iter().enumerate() {
                data[base + i * strides[axis]] = v;
            }
        }
        for d in (0..dims.len()).rev() {
            coord[d] += 1;
            if coord[d] < dims[d] {
                break;
            }
            coord[d] = 0;
        }
    }
}

fn reference_decompose<F: Real>(data: &mut [F], h: &Hierarchy, correct: bool) {
    for l in 0..h.levels {
        for axis in 0..h.ndims() {
            reference_pass(data, h, l, axis, true, correct);
        }
    }
}

fn reference_recompose_to_level<F: Real>(
    data: &mut [F],
    h: &Hierarchy,
    correct: bool,
    target: usize,
) {
    for l in (target..h.levels).rev() {
        for axis in (0..h.ndims()).rev() {
            reference_pass(data, h, l, axis, false, correct);
        }
    }
}

/// Deterministic values mixing smooth data, signed zeros, tiny and large
/// magnitudes, so rounding differences show up. With `sparse`, nearly all
/// values are `±0.0`: the sign of a zero survives the transform only if
/// every `0 + (-0)` the reference evaluates is evaluated too.
fn values(len: usize, seed: u64, sparse: bool) -> Vec<f64> {
    let mut s = seed | 1;
    (0..len)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let u = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            match (s % 11, sparse) {
                (0..=4, true) => 0.0,
                (_, true) if s.is_multiple_of(23) => u,
                (_, true) | (1, false) => -0.0,
                (0, false) => 0.0,
                (2, false) => u * 1e-30,
                (3, false) => u * 1e6,
                _ => (i as f64 * 0.37).sin() * 4.0 + u,
            }
        })
        .collect()
}

fn bits<F: Real>(v: &[F]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

/// Compare decompose and every `recompose_to_level` target of both
/// backends against the reference, for one element type.
fn check<F: Real>(shape: &[usize], raw: &[f64], correct: bool) {
    let h = Hierarchy::full(shape);
    let orig: Vec<F> = raw.iter().map(|&v| F::from_f64(v)).collect();
    let ctx = ExecCtx::default();
    let scalar = ScalarBackend::new();
    let parallel = ParallelBackend::with_threads(3);

    let mut want = orig.clone();
    reference_decompose(&mut want, &h, correct);
    let mut a = orig.clone();
    scalar.decompose(&ctx, &mut a, &h, correct);
    let mut b = orig;
    parallel.decompose(&ctx, &mut b, &h, correct);
    let ctx_msg = format!("shape={shape:?} correct={correct}");
    assert_eq!(bits(&a), bits(&want), "scalar decompose {ctx_msg}");
    assert_eq!(bits(&b), bits(&want), "parallel decompose {ctx_msg}");

    for target in 0..=h.levels {
        let mut r = want.clone();
        reference_recompose_to_level(&mut r, &h, correct, target);
        let mut a = want.clone();
        scalar.recompose_to_level(&ctx, &mut a, &h, correct, target);
        let mut b = want.clone();
        parallel.recompose_to_level(&ctx, &mut b, &h, correct, target);
        assert_eq!(bits(&a), bits(&r), "scalar level {target} {ctx_msg}");
        assert_eq!(bits(&b), bits(&r), "parallel level {target} {ctx_msg}");
    }
}

fn check_all(shape: &[usize], seed: u64) {
    for sparse in [false, true] {
        let raw = values(shape.iter().product(), seed, sparse);
        for correct in [true, false] {
            check::<f32>(shape, &raw, correct);
            check::<f64>(shape, &raw, correct);
        }
    }
}

#[test]
fn batched_transform_matches_reference_on_edge_shapes() {
    // Extents 1, 2, 3, odd and even; line counts below, at, just above
    // and well away from a multiple of the 16-lane tile.
    let shapes: [&[usize]; 18] = [
        &[1],
        &[2],
        &[3],
        &[4],
        &[17],
        &[100],
        &[1, 1, 5],
        &[2, 3],
        &[3, 2],
        &[16, 16],
        &[17, 3],
        &[3, 17],
        &[33, 18],
        &[31, 47],
        &[2, 2, 2],
        &[9, 8, 7],
        &[5, 32, 11],
        &[17, 17, 17],
    ];
    for (i, shape) in shapes.iter().enumerate() {
        check_all(shape, 0x9e37_79b9 + i as u64);
    }
}

fn extent() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2usize),
        Just(3usize),
        4usize..=9,
        10usize..=40
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_transform_matches_reference(
        shape in prop::collection::vec(extent(), 1..=3),
        seed in any::<u64>(),
    ) {
        // Keep debug-build runs short: shrink the largest axis of an
        // oversized draw instead of skipping the case.
        let mut shape = shape;
        while shape.iter().product::<usize>() > 12_000 {
            let big = (0..shape.len()).max_by_key(|&d| shape[d]).unwrap();
            shape[big] = shape[big].div_ceil(2);
        }
        check_all(&shape, seed);
    }
}
