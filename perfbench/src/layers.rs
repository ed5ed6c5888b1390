//! The per-layer metrics of a traced run.
//!
//! Every workload reports the same list (`BENCHMARK.json` names it);
//! a layer a workload does not reach reads 0. Span-derived values are
//! per operation of the workload — per ingest, or per request — so runs
//! of different length compare directly.

use crate::common::{Outcome, MB};
use crate::trace::{Layer, Summary};
use std::collections::BTreeMap;

/// Every per-layer metric: name and unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mgard.decompose.ms", "ms"),
    ("mgard.decompose.calls", "count"),
    ("bitplane.encode.ms", "ms"),
    ("bitplane.encode.mb_in", "MB"),
    ("lossless.compress.ms", "ms"),
    ("lossless.compress.ratio", "ratio"),
    ("exec.map_batch.self_ms", "ms"),
    ("core.source.read_ms", "ms"),
    ("core.ingest.self_ms", "ms"),
    ("core.ingest.peak_staged_mb", "MB"),
    ("mgard.recompose.ms", "ms"),
    ("mgard.recompose.calls", "count"),
    ("lossless.decode.ms", "ms"),
    ("lossless.decode.units", "count"),
    ("bitplane.materialize.ms", "ms"),
    ("bitplane.materialize.calls", "count"),
    ("core.retrieve.self_ms", "ms"),
    ("core.store.fetch_ms", "ms"),
    ("core.store.requests", "count"),
    ("core.store.mb", "MB"),
    ("core.stream.self_ms", "ms"),
    ("core.stream.frames", "count"),
    ("lossless.decode.stream_redecode_ratio", "ratio"),
    ("mgard.recompose.stream_ratio", "ratio"),
    ("qoi.iterations", "count"),
    ("qoi.recompose_melems", "Melem"),
    ("qoi.fetched_mb", "MB"),
    ("core.cache.hit_rate", "ratio"),
    ("core.cache.extensions", "count"),
    ("netstore.requests", "count"),
    ("netstore.transfer_mb", "MB"),
    ("netstore.wasted_mb", "MB"),
    ("netstore.retries", "count"),
    ("server.frames_per_request", "count"),
    ("server.accepted", "count"),
    ("server.shed", "count"),
    ("loadgen.lateness_p90_ms", "ms"),
    ("tracing.reconcile_gap_pct", "%"),
    ("tracing.overhead_pct", "%"),
];

/// Values a workload measures itself rather than from spans.
#[derive(Debug, Default)]
pub struct Extras(BTreeMap<&'static str, f64>);

impl Extras {
    /// Set metric `name` (must be listed in [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Add every per-layer metric to `out`: span-derived ones from
/// `summary` over `ops` operations, the rest from `extras` (0 if unset).
/// Also notes the nesting and reconciliation checks; a violation fails
/// the run.
pub fn report(out: &mut Outcome, summary: &Summary, ops: u64, extras: &Extras) {
    let per_op = |v: f64| if ops == 0 { 0.0 } else { v / ops as f64 };
    let l = |layer| summary.layer(layer);
    let total_ms = |layer| per_op(ms(l(layer).total_ns));
    let self_ms = |layer| per_op(ms(l(layer).self_ns));
    let calls = |layer| per_op(l(layer).calls as f64);
    let compress = l(Layer::Compress);
    let gap = if summary.op_wall_ns == 0 {
        0.0
    } else {
        (summary.op_wall_ns - summary.op_child_ns) as f64 / summary.op_wall_ns as f64 * 100.0
    };
    let derived = [
        ("mgard.decompose.ms", total_ms(Layer::Decompose)),
        ("mgard.decompose.calls", calls(Layer::Decompose)),
        ("bitplane.encode.ms", total_ms(Layer::Encode)),
        (
            "bitplane.encode.mb_in",
            per_op(l(Layer::Encode).bytes_in as f64 / MB),
        ),
        ("lossless.compress.ms", total_ms(Layer::Compress)),
        (
            "lossless.compress.ratio",
            if compress.bytes_out == 0 {
                0.0
            } else {
                compress.bytes_in as f64 / compress.bytes_out as f64
            },
        ),
        ("exec.map_batch.self_ms", self_ms(Layer::MapBatch)),
        ("core.source.read_ms", total_ms(Layer::SourceRead)),
        ("core.ingest.self_ms", self_ms(Layer::Ingest)),
        ("mgard.recompose.ms", total_ms(Layer::Recompose)),
        ("mgard.recompose.calls", calls(Layer::Recompose)),
        ("lossless.decode.ms", total_ms(Layer::Decode)),
        (
            "lossless.decode.units",
            per_op(l(Layer::Decode).items as f64),
        ),
        ("bitplane.materialize.ms", total_ms(Layer::Materialize)),
        ("bitplane.materialize.calls", calls(Layer::Materialize)),
        ("core.retrieve.self_ms", self_ms(Layer::Retrieve)),
        ("core.store.fetch_ms", total_ms(Layer::StoreFetch)),
        (
            "core.store.requests",
            per_op(l(Layer::StoreFetch).items as f64),
        ),
        (
            "core.store.mb",
            per_op(l(Layer::StoreFetch).bytes_out as f64 / MB),
        ),
        ("core.stream.self_ms", self_ms(Layer::Stream)),
        ("tracing.reconcile_gap_pct", gap),
    ];
    out.note(format!(
        "trace: {} operations, {:.3} ms wall, {:.3} ms covered by child spans ({gap:.2}% \
         unattributed), {} stream spans, {} nesting violations, {} reconciliation violations",
        summary.ops,
        ms(summary.op_wall_ns),
        ms(summary.op_child_ns),
        l(Layer::Stream).calls,
        summary.nesting_violations,
        summary.reconcile_violations,
    ));
    let mb = |bytes: u64| per_op(bytes as f64 / MB);
    out.note(format!(
        "kernel bytes per operation, computed from array and payload sizes (not measured \
         traffic): decompose {:.3} MB, recompose {:.3} MB, encode in {:.3} MB, compress \
         {:.3} -> {:.3} MB, decode {:.3} -> {:.3} MB, materialize out {:.3} MB",
        mb(l(Layer::Decompose).bytes_in),
        mb(l(Layer::Recompose).bytes_in),
        mb(l(Layer::Encode).bytes_in),
        mb(compress.bytes_in),
        mb(compress.bytes_out),
        mb(l(Layer::Decode).bytes_in),
        mb(l(Layer::Decode).bytes_out),
        mb(l(Layer::Materialize).bytes_out),
    ));
    out.check(summary.nesting_violations == 0, || {
        format!(
            "{} child spans escape their parent",
            summary.nesting_violations
        )
    });
    out.check(summary.reconcile_violations == 0, || {
        format!(
            "{} operations have more child time than wall time",
            summary.reconcile_violations
        )
    });
    for (name, unit) in PER_LAYER {
        let value = extras.0.get(name).copied().unwrap_or_else(|| {
            derived
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |&(_, v)| v)
        });
        out.metric(name, value, unit, ops);
    }
}
