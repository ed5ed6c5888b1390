//! `refactor`: streaming `Mdr::ingest` of fixed fields into sharded
//! stores on disk — the write path, where decompose, encode and compress
//! do nearly all the work.

use crate::common::{hash_dir, remove_dir, timed_setup, Outcome, RunOpts, Samples, MB};
use crate::fields::{self, Data, Field};
use crate::layers::{self, Extras};
use crate::trace::{self, Layer, Summary};
use crate::verify::check_store;
use crate::wrap::TracedSource;
use hpmdr_core::prelude::{Backend, IngestReport, Mdr, MdrConfig, MdrError, SliceSource};
use std::path::Path;
use std::time::{Duration, Instant};

/// Ingest `field` into a new store at `dir`; with `traced` the ingest is
/// one operation span and its source is wrapped.
pub fn ingest<B: Backend>(
    mdr: &Mdr<B>,
    field: &Field,
    dir: &Path,
    traced: bool,
) -> Result<IngestReport, MdrError> {
    fn run<B: Backend, F>(
        mdr: &Mdr<B>,
        data: &[F],
        shape: &[usize],
        dir: &Path,
        traced: bool,
    ) -> Result<IngestReport, MdrError>
    where
        F: hpmdr_bitplane::BitplaneFloat + hpmdr_mgard::Real + Default + Sync,
    {
        let source = SliceSource::new(data, shape)?;
        if traced {
            trace::op(Layer::Ingest, || mdr.ingest(TracedSource(source), dir))
        } else {
            mdr.ingest(source, dir)
        }
    }
    match &field.data {
        Data::F32(v) => run(mdr, v, &field.shape, dir, traced),
        Data::F64(v) => run(mdr, v, &field.shape, dir, traced),
    }
}

/// The `Mdr` handle every refactor and store in the benchmark uses.
pub fn handle<B: Backend>(chunk: &[usize]) -> Mdr<B> {
    MdrConfig::new().chunked(chunk).build_with(B::default())
}

/// Run the workload.
pub fn run<B: Backend>(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let shape = &opts.scale.refactor_shape;
    let generated = Instant::now();
    let inputs = [
        fields::jhtdb_velocity(shape, 0),
        fields::nyx_density(shape),
        fields::miranda_density(shape),
    ];
    out.note(format!(
        "inputs generated in {:.3} s",
        generated.elapsed().as_secs_f64()
    ));
    let host = crate::common::Host::probe();
    for f in &inputs {
        out.note(format!(
            "input {} {:?} {}: working set {}",
            f.name,
            f.shape,
            f.data.dtype(),
            host.fit(f.data.bytes())
        ));
    }

    // Set-up: build the handle and write one reference store per field.
    let refs: Vec<_> = (0..inputs.len())
        .map(|k| opts.work.join(format!("ref{k}")))
        .collect();
    let (mdr, setup_s) = timed_setup(opts.scale.setup_reps, || {
        let mdr = handle::<B>(&opts.scale.chunk);
        for (field, dir) in inputs.iter().zip(&refs) {
            remove_dir(dir)?;
            ingest(&mdr, field, dir, false).map_err(|e| format!("reference ingest: {e}"))?;
        }
        Ok(mdr)
    })?;
    let mut ref_hashes = Vec::new();
    for (field, dir) in inputs.iter().zip(&refs) {
        let verdict = check_store(dir, field);
        out.check(verdict.is_ok(), || {
            format!(
                "reference store of {}: {}",
                field.name,
                verdict.clone().unwrap_err()
            )
        });
        ref_hashes.push(hash_dir(dir)?);
    }

    // The seed rotates the order the fields are cycled in.
    let rotation = (opts.seed % inputs.len() as u64) as usize;
    out.note(format!(
        "request sequence: seed={} cycle starts at {}",
        opts.seed, inputs[rotation].name
    ));
    trace::set_enabled(opts.trace);
    let mut summary = Summary::default();
    // Ingest latency of each field, and of each whole cycle: one snapshot
    // of all three variables.
    let mut per_field = vec![Samples::default(); inputs.len()];
    let mut cycles = Samples::default();
    let mut cycle_ms = 0.0;
    let (mut bytes_in, mut bytes_stored) = (0u64, 0u64);
    let mut peak_staged = 0usize;
    let window = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    // Whole cycles only, so every run ingests the fields equally often.
    let mut i = 0usize;
    while !i.is_multiple_of(inputs.len()) || start.elapsed() < window {
        let k = (rotation + i) % inputs.len();
        let field = &inputs[k];
        let dir = opts.work.join(format!("run{}", i % 2));
        remove_dir(&dir)?;
        let t0 = Instant::now();
        let report = ingest(&mdr, field, &dir, opts.trace);
        let took = t0.elapsed();
        summary.absorb(&trace::drain());
        i += 1;
        cycle_ms += took.as_secs_f64() * 1e3;
        if i.is_multiple_of(inputs.len()) {
            cycles.push_ms(std::mem::take(&mut cycle_ms));
        }
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("ingest of {}: {e}", field.name));
                continue;
            }
        };
        let same = hash_dir(&dir)? == ref_hashes[k];
        out.check(same, || {
            format!(
                "store of {} differs from its verified reference",
                field.name
            )
        });
        per_field[k].push(took);
        bytes_in += field.data.bytes();
        bytes_stored += report.bytes_written as u64;
        peak_staged = peak_staged.max(report.peak_staged_bytes);
    }
    trace::set_enabled(false);

    let ingests: u64 = per_field.iter().map(Samples::len).sum();
    let busy_s = per_field.iter().map(Samples::sum).sum::<f64>() / 1e3;
    out.note(format!(
        "ingests: {ingests} in {} cycles, {busy_s:.3} s of ingest wall",
        cycles.len()
    ));
    if per_field.iter().any(Samples::is_empty) {
        return Err("not every field was ingested in the window".to_string());
    }
    let mbps = bytes_in as f64 / MB / busy_s;
    let stored_ratio = bytes_stored as f64 / bytes_in as f64;
    out.note(format!("refactor_mbps = {mbps:.4} MB/s (n={ingests})"));
    out.note(format!("stored_ratio = {stored_ratio:.6} (n={ingests})"));
    for (field, s) in inputs.iter().zip(&per_field) {
        out.note(format!(
            "{} {}: trimmed mean {:.4} ms, p10 {:.4} ms, p50 {:.4} ms (n={})",
            field.name,
            field.data.dtype(),
            s.trimmed_mean(),
            s.quantile(0.1),
            s.quantile(0.5),
            s.len()
        ));
    }

    if opts.trace {
        let overhead = overhead_pct(&mdr, &inputs, &opts.work)?;
        let mut extras = Extras::default();
        extras.set("core.ingest.peak_staged_mb", peak_staged as f64 / MB);
        extras.set("tracing.overhead_pct", overhead);
        layers::report(&mut out, &summary, ingests, &extras);
    } else {
        out.metric("setup_s", setup_s, "s", opts.scale.setup_reps as u64);
        // One cycle with every field at its trimmed mean.
        let typical = |k: usize| per_field[k].trimmed_mean();
        let cycle_s = (0..inputs.len()).map(typical).sum::<f64>() / 1e3;
        let cycle_mb = inputs.iter().map(|f| f.data.bytes()).sum::<u64>() as f64 / MB;
        out.metric("mbps", cycle_mb / cycle_s, "MB/s", ingests);
        out.metric("ops_per_s", inputs.len() as f64 / cycle_s, "1/s", ingests);
        out.metric("bytes_ratio", stored_ratio, "ratio", ingests);
        // Fields: 0 turbulent f32, 1 lognormal f32, 2 sharp-interface f64.
        out.metric("small_ms", typical(1), "ms", per_field[1].len());
        out.metric("large_ms", typical(2), "ms", per_field[2].len());
        out.metric("alt_small_ms", typical(0), "ms", per_field[0].len());
        out.metric("alt_large_ms", cycles.trimmed_mean(), "ms", cycles.len());
    }
    Ok(out)
}

/// How much longer traced ingests take than untraced ones, in percent:
/// ingests of every field alternate with recording off and on.
fn overhead_pct<B: Backend>(mdr: &Mdr<B>, inputs: &[Field], work: &Path) -> Result<f64, String> {
    let dir = work.join("overhead");
    let (mut off, mut on) = (0.0, 0.0);
    for _ in 0..2 {
        for field in inputs {
            for traced in [false, true] {
                remove_dir(&dir)?;
                trace::set_enabled(traced);
                let t0 = Instant::now();
                ingest(mdr, field, &dir, traced).map_err(|e| e.to_string())?;
                let took = t0.elapsed().as_secs_f64();
                trace::set_enabled(false);
                drop(trace::drain());
                *if traced { &mut on } else { &mut off } += took;
            }
        }
    }
    Ok((on / off - 1.0) * 100.0)
}
