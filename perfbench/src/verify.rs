//! Correctness gates. They run outside the timed windows; every failure
//! counts in the run's `failed` total.

use crate::common::{extract, max_abs_diff, Outcome};
use crate::fields::{Data, Field};
use hpmdr_core::prelude::{
    open_store, Approximation, Backend, Query, Region, Scope, SharedReader, SimdBackend, Store,
    Target,
};
use hpmdr_mgard::Real;
use std::path::Path;
use std::sync::Arc;

/// Relative bound the store round trip is checked at.
const ROUND_TRIP_REL: f64 = 1e-5;

/// Largest minus smallest value.
pub fn value_range(values: impl IntoIterator<Item = f64>) -> f64 {
    let (lo, hi) = values
        .into_iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
    if hi >= lo {
        hi - lo
    } else {
        0.0
    }
}

/// Check `approx`, the answer to `query` over `original` (row-major in
/// `shape`): its shape, and its L∞ error against its own reported bound
/// and against the requested bound (`abs_target`, already resolved).
/// Rounding the answer to its storage type may add one unit in the last
/// place of the largest value.
pub fn check_answer<F: Real>(
    original: &[F],
    shape: &[usize],
    query: &Query,
    abs_target: f64,
    approx: &Approximation<F>,
) -> Result<(), String> {
    let (expect, region) = match &query.scope {
        Scope::Full => (original.to_vec(), Region::whole(shape)),
        Scope::Region(r) => (extract(original, shape, r), r.clone()),
        Scope::Resolution(_) => return Err("resolution scopes are not checked".to_string()),
    };
    if approx.shape != region.extent {
        return Err(format!(
            "answer shape {:?}, expected {:?}",
            approx.shape, region.extent
        ));
    }
    let err = max_abs_diff(
        expect.iter().map(|v| v.to_f64()),
        approx.data.iter().map(|v| v.to_f64()),
    );
    let largest = expect.iter().map(|v| v.to_f64().abs()).fold(0.0, f64::max);
    let ulp = if std::mem::size_of::<F>() == 8 {
        f64::EPSILON
    } else {
        f64::from(f32::EPSILON)
    };
    let slack = largest * ulp;
    if err > approx.achieved + slack {
        return Err(format!(
            "L-inf error {err:e} exceeds the reported bound {:e}",
            approx.achieved
        ));
    }
    if !approx.exhausted && approx.achieved > abs_target {
        return Err(format!(
            "reported bound {:e} misses the target {abs_target:e}",
            approx.achieved
        ));
    }
    Ok(())
}

/// Reopen the store at `dir` and check that it round-trips `field`: its
/// shape and type, and a full-domain retrieve within its bound.
pub fn check_store(dir: &Path, field: &Field) -> Result<(), String> {
    fn run<F>(dir: &Path, data: &[F], shape: &[usize]) -> Result<(), String>
    where
        F: hpmdr_bitplane::BitplaneFloat + Real + Default,
    {
        let store = open_store(dir).map_err(|e| format!("reopen: {e}"))?;
        let meta = store.meta();
        if meta.grid.shape != shape || meta.dtype != F::TYPE_NAME {
            return Err(format!(
                "reopened as {:?} {}, written as {shape:?} {}",
                meta.grid.shape,
                meta.dtype,
                F::TYPE_NAME
            ));
        }
        let abs_target = ROUND_TRIP_REL * meta.value_range();
        let reader = SharedReader::with_backend(Arc::from(store), SimdBackend::new());
        let query = Query::full(Target::Rel(ROUND_TRIP_REL));
        let approx = reader
            .retrieve::<F>(&query)
            .map_err(|e| format!("retrieve: {e}"))?;
        check_answer(data, shape, &query, abs_target, &approx)
    }
    match &field.data {
        Data::F32(v) => run(dir, v, &field.shape),
        Data::F64(v) => run(dir, v, &field.shape),
    }
}

/// Answer every one of `queries` (relative targets) with `reader`, check
/// each answer against `original` (row-major in `shape`) in `out`, and
/// return them as the references later answers must match bit for bit.
pub fn references<B: Backend>(
    reader: &SharedReader<B>,
    queries: &[Query],
    original: &[f32],
    shape: &[usize],
    out: &mut Outcome,
) -> Result<Vec<Approximation<f32>>, String> {
    let range = reader.store().meta().value_range();
    let mut answers = Vec::new();
    for q in queries {
        let Target::Rel(rel) = q.target else {
            return Err(format!("{q:?}: references need relative targets"));
        };
        let approx = reader
            .retrieve::<f32>(q)
            .map_err(|e| format!("{q:?}: {e}"))?;
        let verdict = check_answer(original, shape, q, rel * range, &approx);
        out.check(verdict.is_ok(), || {
            format!("reference {q:?}: {}", verdict.clone().unwrap_err())
        });
        answers.push(approx);
    }
    Ok(answers)
}
