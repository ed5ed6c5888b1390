//! # hpmdr-perfbench — the repository's benchmark
//!
//! Three workloads drive HP-MDR through its public API the way a user
//! would: `refactor` (streaming ingest into sharded stores), `retrieve`
//! (one in-process client mixing one-shot, progressive and QoI-controlled
//! retrievals) and `serve` (an open loop against the progressive server
//! over a cached loopback HTTP store). An untraced run reports end-to-end
//! metrics; a traced run wraps the `Backend`, `Store` and `ChunkSource`
//! seams ([`wrap`]) and reports per-layer metrics ([`layers`]). Every
//! run checks its answers ([`verify`]). See `README.md` beside this
//! crate for how to run it and how to read it.

pub mod common;
pub mod fields;
pub mod layers;
pub mod refactor;
pub mod retrieve;
pub mod serve;
pub mod trace;
pub mod verify;
pub mod wrap;

use common::{Outcome, RunOpts};
use hpmdr_core::prelude::SimdBackend;
use wrap::Traced;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["refactor", "retrieve", "serve"];

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mbps", "MB/s"),
    ("ops_per_s", "1/s"),
    ("bytes_ratio", "ratio"),
    ("small_ms", "ms"),
    ("large_ms", "ms"),
    ("alt_small_ms", "ms"),
    ("alt_large_ms", "ms"),
];

/// Run workload `name`: on `SimdBackend`, wrapped in [`Traced`] when
/// `opts.trace` is set.
pub fn run(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = match (name, opts.trace) {
        ("refactor", false) => refactor::run::<SimdBackend>(opts),
        ("refactor", true) => refactor::run::<Traced<SimdBackend>>(opts),
        ("retrieve", false) => retrieve::run::<SimdBackend>(opts),
        ("retrieve", true) => retrieve::run::<Traced<SimdBackend>>(opts),
        ("serve", _) => serve::run(opts),
        _ => Err(format!(
            "unknown workload {name:?} (expected one of {WORKLOADS:?})"
        )),
    }?;
    if !opts.trace {
        let rss = common::peak_rss_mb().ok_or("cannot read the peak RSS")?;
        out.metric("peak_rss_mb", rss, "MB", 1);
    }
    Ok(out)
}
