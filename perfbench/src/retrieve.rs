//! `retrieve`: one closed-loop in-process client running a seeded mix of
//! one-shot retrieves, progressive streams drained to their final frame,
//! and multi-variable QoI-controlled retrievals — the read path, where
//! recompose, decode and materialize dominate.

use crate::common::{
    fnv1a, max_abs_diff, remove_dir, timed_setup, Host, Outcome, RunOpts, Samples, MB,
};
use crate::fields::{self, Data};
use crate::layers::{self, Extras};
use crate::refactor::{handle, ingest};
use crate::trace::{self, Layer, Summary};
use crate::verify::{references, value_range};
use crate::wrap::TracedStore;
use hpmdr_core::prelude::{
    open_store, Approximation, Artifact, Backend, EbEstimator, MdrConfig, MdrError, QoiExpr, Query,
    Refactored, Region, SharedReader, SimdBackend, Store, Target,
};
use hpmdr_core::{retrieve_with_multi_qoi_control, MultiQoiRetrievalOutcome};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relative L∞ targets of one-shot and stream requests. One target keeps
/// every request kind frequent enough for its trimmed mean to repeat.
pub const TARGETS: [f64; 1] = [1e-4];
/// Per block, class and target: full-domain requests, then region
/// requests. Sorted by cost, a class's requests are its regions, then
/// its full-domain requests; with these counts the pooled p50 falls
/// three quarters into the regions and the p90 inside the full-domain
/// run, both well away from the boundary between them.
const SCOPES_PER_TARGET: [usize; 2] = [4, 8];
/// QoI tolerances, relative to the QoI's value range over the field.
const QOI_TAUS: [f64; 3] = [1e-3, 1e-4, 1e-5];
/// Per block and tolerance: QoI requests on each triplet (large, small).
const QOI_PER_TAU: [usize; 2] = [1, 2];
/// Blocks generated per run (more than any window completes).
const BLOCKS: usize = 256;
/// Reference stream for the deterministic waste ratios.
const WASTE_REL: f64 = 1e-6;

/// Which request classes a sequence mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// One-shot retrieves.
    pub oneshot: bool,
    /// Progressive streams.
    pub stream: bool,
    /// QoI-controlled retrievals.
    pub qoi: bool,
}

/// The `retrieve` workload's mix.
pub const RETRIEVE_MIX: Mix = Mix {
    oneshot: true,
    stream: true,
    qoi: true,
};

/// One request of the sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `SharedReader::retrieve` of query `q`.
    OneShot(usize),
    /// `SharedReader::stream` of query `q`, drained to its final frame.
    Stream(usize),
    /// QoI-controlled retrieval on triplet `set` at tolerance index `tau`.
    Qoi { set: usize, tau: usize },
}

/// Uniform index below `n`.
fn below(rng: &mut impl RngCore, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// A seeded request sequence over a distinct-query table, made of
/// blocks: each block holds every kind of request in fixed proportion
/// (class × scope size × target), shuffled by the seed, so any run of
/// whole blocks has exactly the same mix whatever the seed.
#[derive(Debug, Clone)]
pub struct Sequence {
    /// Distinct one-shot/stream queries: per scope (full domain first,
    /// then one region per chunk), one per target.
    pub queries: Vec<Query>,
    /// Requests, in order.
    pub requests: Vec<Request>,
    /// Requests per block.
    pub block: usize,
}

impl Sequence {
    /// The sequence for `seed` over a domain of `shape` stored in chunks
    /// of `chunk`, with region extent `roi`, the classes of `mix`, and
    /// QoI requests over `qoi_sets` triplets (the first one larger).
    ///
    /// Each region sits in the middle of one chunk, so every region
    /// touches exactly one chunk and costs about the same wherever it
    /// sits; the seed picks among them.
    pub fn generate(
        seed: u64,
        shape: &[usize],
        chunk: &[usize],
        roi: &[usize],
        mix: Mix,
        qoi_sets: usize,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let starts: Vec<Vec<usize>> = shape
            .iter()
            .zip(chunk)
            .zip(roi)
            .map(|((&n, &c), &e)| {
                (0..n / c)
                    .map(|k| k * c + c.saturating_sub(e) / 2)
                    .collect()
            })
            .collect();
        let mut scopes = vec![None];
        let mut corner = vec![0usize; shape.len()];
        loop {
            let start: Vec<usize> = corner.iter().zip(&starts).map(|(&i, s)| s[i]).collect();
            scopes.push(Some(Region::new(&start, roi)));
            let Some(d) = (0..shape.len())
                .rev()
                .find(|&d| corner[d] + 1 < starts[d].len())
            else {
                break;
            };
            corner[d] += 1;
            corner[d + 1..].iter_mut().for_each(|i| *i = 0);
        }
        let regions = scopes.len() - 1;
        let queries = scopes
            .iter()
            .flat_map(|scope| {
                TARGETS.map(|t| match scope {
                    None => Query::full(Target::Rel(t)),
                    Some(r) => Query::region(Target::Rel(t), r.clone()),
                })
            })
            .collect();

        let mut requests = Vec::new();
        let mut block = Vec::new();
        for _ in 0..BLOCKS {
            block.clear();
            for (on, make) in [
                (mix.oneshot, Request::OneShot as fn(usize) -> Request),
                (mix.stream, Request::Stream),
            ] {
                for t in 0..TARGETS.len() {
                    for _ in 0..SCOPES_PER_TARGET[0] {
                        block.extend(on.then(|| make(t)));
                    }
                    for _ in 0..SCOPES_PER_TARGET[1] {
                        let scope = 1 + below(&mut rng, regions);
                        block.extend(on.then(|| make(scope * TARGETS.len() + t)));
                    }
                }
            }
            for tau in 0..QOI_TAUS.len() {
                for (set, &n) in QOI_PER_TAU.iter().enumerate().take(qoi_sets) {
                    block.extend(
                        (0..n)
                            .filter(|_| mix.qoi)
                            .map(|_| Request::Qoi { set, tau }),
                    );
                }
            }
            for i in (1..block.len()).rev() {
                block.swap(i, below(&mut rng, i + 1));
            }
            requests.extend_from_slice(&block);
        }
        Sequence {
            queries,
            requests,
            block: block.len(),
        }
    }

    /// Hash of the whole sequence, to show two runs asked the same.
    pub fn hash(&self) -> u64 {
        fnv1a(format!("{:?}|{:?}", self.queries, self.requests).as_bytes())
    }
}

/// Requests replayed with recording off and on to measure the tracing
/// overhead.
const OVERHEAD_PAIRS: usize = 30;

/// A velocity triplet refactored monolithically, with its QoI values.
struct QoiSet {
    elems: usize,
    vars: Vec<Refactored>,
    /// Kinetic energy of the original field, per point.
    energy: Vec<f64>,
    range: f64,
}

fn kinetic_energy(vars: &[Vec<f64>]) -> Vec<f64> {
    let expr = QoiExpr::kinetic_energy(3);
    (0..vars[0].len())
        .map(|i| expr.eval(&[vars[0][i], vars[1][i], vars[2][i]]))
        .collect()
}

/// Everything the timed loop reads from.
struct Ready<B: Backend> {
    reader: SharedReader<B>,
    qoi: Vec<QoiSet>,
    seq: Sequence,
    /// Verified answer to each of `seq.queries`.
    references: Vec<Approximation<f32>>,
}

/// Generate, set up (timed), and build the references.
fn prepare<B: Backend>(opts: &RunOpts, out: &mut Outcome) -> Result<(Ready<B>, f64), String> {
    let scale = &opts.scale;
    let host = Host::probe();
    let field = fields::jhtdb_velocity(&scale.store_shape, 0);
    let Data::F32(original) = &field.data else {
        return Err("store field must be f32".to_string());
    };
    let triplets: Vec<Vec<Vec<f32>>> = scale
        .qoi_shapes
        .iter()
        .map(|s| {
            (0..3)
                .map(|axis| match fields::jhtdb_velocity(s, axis).data {
                    Data::F32(v) => v,
                    Data::F64(v) => v.into_iter().map(|x| x as f32).collect(),
                })
                .collect()
        })
        .collect();
    out.note(format!(
        "store {} {:?} f32: full domain {}, region {:?} {}",
        field.name,
        field.shape,
        host.fit(field.data.bytes()),
        scale.roi,
        host.fit(scale.roi.iter().product::<usize>() as u64 * 4)
    ));
    for s in &scale.qoi_shapes {
        let bytes = 3 * 4 * s.iter().product::<usize>() as u64;
        out.note(format!(
            "qoi triplet {s:?}: working set {}",
            host.fit(bytes)
        ));
    }

    // Set-up: ingest and open the store, refactor the QoI triplets.
    let dir = opts.work.join("store");
    let ((reader, qoi_vars), setup_s) = timed_setup(scale.setup_reps, || {
        let mdr = handle::<B>(&scale.chunk);
        remove_dir(&dir)?;
        ingest(&mdr, &field, &dir, false).map_err(|e| format!("ingest: {e}"))?;
        let store = open_store(&dir).map_err(|e| format!("open: {e}"))?;
        let store: Arc<dyn Store> = if opts.trace {
            Arc::new(TracedStore::new(store))
        } else {
            Arc::from(store)
        };
        let mono = MdrConfig::new().build_with(B::default());
        let mut qoi = Vec::new();
        for (triplet, shape) in triplets.iter().zip(&scale.qoi_shapes) {
            let mut vars = Vec::new();
            for v in triplet {
                match mono.refactor(v, shape).map_err(|e| e.to_string())? {
                    Artifact::Monolithic(r) => vars.push(r),
                    Artifact::Chunked(_) => return Err("expected a monolithic artifact".into()),
                }
            }
            qoi.push(vars);
        }
        Ok((mdr.shared_reader(store), qoi))
    })?;
    let qoi = qoi_vars
        .into_iter()
        .zip(&triplets)
        .map(|(vars, comps)| {
            let comps: Vec<Vec<f64>> = comps
                .iter()
                .map(|c| c.iter().map(|&x| f64::from(x)).collect())
                .collect();
            let energy = kinetic_energy(&comps);
            QoiSet {
                elems: energy.len(),
                vars,
                range: value_range(energy.iter().copied()),
                energy,
            }
        })
        .collect();
    let seq = Sequence::generate(
        opts.seed,
        &scale.store_shape,
        &scale.chunk,
        &scale.roi,
        RETRIEVE_MIX,
        scale.qoi_shapes.len(),
    );
    out.note(format!(
        "request sequence: seed={} hash={:016x} ({} distinct queries)",
        opts.seed,
        seq.hash(),
        seq.queries.len()
    ));
    // References come from the unwrapped backend over the unwrapped store.
    let plain = SharedReader::with_backend(
        Arc::from(open_store(&dir).map_err(|e| e.to_string())?),
        SimdBackend::new(),
    );
    let references = references(&plain, &seq.queries, original, &field.shape, out)?;
    let ready = Ready {
        reader,
        qoi,
        seq,
        references,
    };
    Ok((ready, setup_s))
}

/// Run the workload.
pub fn run<B: Backend>(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (ready, setup_s) = prepare::<B>(opts, &mut out)?;
    let seq = &ready.seq;

    trace::set_enabled(opts.trace);
    let mut summary = Summary::default();
    let mut tally = Tally::default();
    let mut blocks = 0usize;
    let window = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    // Whole blocks only, so every run measures the same mix.
    for (i, &req) in seq.requests.iter().enumerate() {
        if i % seq.block == 0 {
            if start.elapsed() >= window {
                break;
            }
            blocks += 1;
        }
        let t0 = Instant::now();
        let answer = execute(&ready, req, opts.trace);
        let took = t0.elapsed();
        summary.absorb(&trace::drain());
        match answer {
            Ok(answer) => {
                let verdict = check(&ready, req, &answer);
                out.check(verdict.is_ok(), || {
                    format!("{req:?}: {}", verdict.clone().unwrap_err())
                });
                tally.count(&ready, req, &answer, took);
            }
            Err(e) => out.check(false, || format!("{req:?}: {e}")),
        }
    }
    trace::set_enabled(false);
    let requests = tally.requests();
    if requests == 0 {
        return Err("no request completed in the window".to_string());
    }
    let busy_s = tally.busy_s;
    out.note(format!(
        "requests: {requests} in {blocks} blocks, {busy_s:.3} s ({} one-shot, {} stream, {} qoi): \
         {:.4}/s, {:.4} MB/s closed loop",
        tally.oneshot.len(),
        tally.last.len(),
        tally.qoi.len(),
        requests as f64 / busy_s,
        tally.rebuilt as f64 / MB / busy_s
    ));
    for (name, s, q) in [
        ("query_p50_ms", &tally.oneshot, 0.5),
        ("query_p90_ms", &tally.oneshot, 0.9),
        ("first_frame_p50_ms", &tally.first, 0.5),
        ("first_frame_p90_ms", &tally.first, 0.9),
        ("stream_p50_ms", &tally.last, 0.5),
        ("stream_p90_ms", &tally.last, 0.9),
        ("qoi_p50_ms", &tally.qoi, 0.5),
    ] {
        out.note(format!("{name} = {:.4} ms (n={})", s.quantile(q), s.len()));
    }
    for (kind, s) in &tally.kinds {
        out.note(format!(
            "{kind:?}: trimmed mean {:.4} ms, p10 {:.4} ms, p50 {:.4} ms (n={})",
            s.trimmed_mean(),
            s.quantile(0.1),
            s.quantile(0.5),
            s.len()
        ));
    }
    let fetch_ratio = tally.fetched as f64 / tally.rebuilt as f64;
    out.note(format!("fetch_ratio = {fetch_ratio:.6} (n={requests})"));

    if opts.trace {
        let mut extras = Extras::default();
        let per = |v: f64, n: u64| if n == 0 { 0.0 } else { v / n as f64 };
        let (streams, qois) = (tally.last.len(), tally.qoi.len());
        extras.set("core.stream.frames", per(tally.frames as f64, streams));
        extras.set("qoi.iterations", per(tally.qoi_iterations as f64, qois));
        extras.set("qoi.recompose_melems", per(tally.qoi_melems, qois));
        extras.set("qoi.fetched_mb", per(tally.qoi_fetched as f64 / MB, qois));
        let (units, calls) = waste_ratios(&ready.reader)?;
        out.note(format!(
            "stream waste at rel {WASTE_REL:e}, full domain: units decoded {units:.4}x, \
             recompose calls {calls:.4}x the one-shot's"
        ));
        extras.set("lossless.decode.stream_redecode_ratio", units);
        extras.set("mgard.recompose.stream_ratio", calls);
        extras.set("tracing.overhead_pct", overhead_pct(&ready)?);
        layers::report(&mut out, &summary, requests, &extras);
    } else {
        out.metric("setup_s", setup_s, "s", opts.scale.setup_reps as u64);
        // The window's requests, each at its kind's trimmed mean.
        let typical_s = tally
            .kinds
            .values()
            .map(|s| s.len() as f64 * s.trimmed_mean())
            .sum::<f64>()
            / 1e3;
        out.metric(
            "mbps",
            tally.rebuilt as f64 / MB / typical_s,
            "MB/s",
            requests,
        );
        out.metric("ops_per_s", requests as f64 / typical_s, "1/s", requests);
        out.metric("bytes_ratio", fetch_ratio, "ratio", requests);
        for (name, kind) in [
            ("small_ms", Kind::Once { full: false }),
            ("large_ms", Kind::Once { full: true }),
            ("alt_small_ms", Kind::Stream { full: false }),
            ("alt_large_ms", Kind::Stream { full: true }),
        ] {
            let s = tally.kinds.get(&kind).cloned().unwrap_or_default();
            out.metric(name, s.trimmed_mean(), "ms", s.len());
        }
    }
    Ok(out)
}

/// What one request returned.
enum Answer {
    /// A one-shot approximation.
    Once(Approximation<f32>),
    /// A drained stream: milliseconds to each frame, each frame's bound,
    /// and the final frame.
    Stream {
        frame_ms: Vec<f64>,
        achieved: Vec<f64>,
        last: Approximation<f32>,
    },
    /// A QoI-controlled retrieval.
    Qoi(MultiQoiRetrievalOutcome),
}

fn op<R>(traced: bool, layer: Layer, f: impl FnOnce() -> R) -> R {
    if traced {
        trace::op(layer, f)
    } else {
        f()
    }
}

/// Run one request; with `traced`, each library call is an operation
/// span.
fn execute<B: Backend>(ready: &Ready<B>, req: Request, traced: bool) -> Result<Answer, MdrError> {
    let t0 = Instant::now();
    match req {
        Request::OneShot(q) => {
            let a = op(traced, Layer::Retrieve, || {
                ready.reader.retrieve::<f32>(&ready.seq.queries[q])
            })?;
            Ok(Answer::Once(a))
        }
        Request::Stream(q) => {
            let mut stream = op(traced, Layer::Stream, || {
                ready.reader.stream::<f32>(&ready.seq.queries[q])
            })?;
            let (mut frame_ms, mut achieved) = (Vec::new(), Vec::new());
            while let Some(frame) = op(traced, Layer::Stream, || stream.refine_next())? {
                frame_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                achieved.push(frame.approximation.achieved);
                if frame.is_final {
                    return Ok(Answer::Stream {
                        frame_ms,
                        achieved,
                        last: frame.approximation,
                    });
                }
            }
            Err(MdrError::InvalidQuery(
                "stream ended without a final frame".to_string(),
            ))
        }
        Request::Qoi { set, tau } => {
            let s = &ready.qoi[set];
            let vars: Vec<&Refactored> = s.vars.iter().collect();
            let qois = [(QoiExpr::kinetic_energy(3), QOI_TAUS[tau] * s.range)];
            let outcome = op(traced, Layer::Qoi, || {
                retrieve_with_multi_qoi_control::<f32>(&vars, &qois, EbEstimator::Mape { c: 10.0 })
            });
            Ok(Answer::Qoi(outcome))
        }
    }
}

/// Bit-identity of two answers: data, shape, bound and exhaustion.
pub fn same(got: &Approximation<f32>, want: &Approximation<f32>) -> Result<(), String> {
    let bits = |a: &Approximation<f32>| a.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    if got.shape != want.shape
        || got.achieved.to_bits() != want.achieved.to_bits()
        || got.exhausted != want.exhausted
        || bits(got) != bits(want)
    {
        return Err("answer differs from the verified one-shot reference".to_string());
    }
    Ok(())
}

/// Check one answer: one-shots and final frames against the verified
/// references, stream bounds monotone, QoI error within its tolerance.
fn check<B: Backend>(ready: &Ready<B>, req: Request, answer: &Answer) -> Result<(), String> {
    match (req, answer) {
        (Request::OneShot(q), Answer::Once(a)) => same(a, &ready.references[q]),
        (Request::Stream(q), Answer::Stream { achieved, last, .. }) => {
            if achieved.windows(2).any(|w| w[1] > w[0]) {
                return Err(format!("stream bounds do not tighten: {achieved:?}"));
            }
            same(last, &ready.references[q])
        }
        (Request::Qoi { set, tau }, Answer::Qoi(outcome)) => {
            let s = &ready.qoi[set];
            let tau = QOI_TAUS[tau] * s.range;
            let err = max_abs_diff(s.energy.iter().copied(), kinetic_energy(&outcome.vars));
            if outcome.exhausted || err > tau {
                return Err(format!(
                    "QoI error {err:e} against tolerance {tau:e} (exhausted: {})",
                    outcome.exhausted
                ));
            }
            Ok(())
        }
        _ => Err("answer of the wrong kind".to_string()),
    }
}

/// What a request does. Requests of one kind do the same work (regions
/// differ only in which chunk they sit in), so the spread within a kind
/// is the host's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    /// One-shot retrieve, over the full domain or a region.
    Once { full: bool },
    /// Stream drained to its final frame, over the full domain or a
    /// region.
    Stream { full: bool },
    /// QoI-controlled retrieval on one triplet at one tolerance.
    Qoi { set: usize, tau: usize },
}

impl Kind {
    fn of(req: Request) -> Self {
        // Query indices start with the full domain at every target.
        let full = |q: usize| q < TARGETS.len();
        match req {
            Request::OneShot(q) => Kind::Once { full: full(q) },
            Request::Stream(q) => Kind::Stream { full: full(q) },
            Request::Qoi { set, tau } => Kind::Qoi { set, tau },
        }
    }
}

/// Totals over the window.
#[derive(Debug, Default)]
struct Tally {
    /// Latency of every request, by kind.
    kinds: BTreeMap<Kind, Samples>,
    oneshot: Samples,
    first: Samples,
    last: Samples,
    qoi: Samples,
    busy_s: f64,
    fetched: u64,
    rebuilt: u64,
    frames: u64,
    qoi_iterations: u64,
    qoi_melems: f64,
    qoi_fetched: u64,
}

impl Tally {
    fn requests(&self) -> u64 {
        self.oneshot.len() + self.last.len() + self.qoi.len()
    }

    fn count<B: Backend>(
        &mut self,
        ready: &Ready<B>,
        req: Request,
        answer: &Answer,
        took: Duration,
    ) {
        self.busy_s += took.as_secs_f64();
        self.kinds.entry(Kind::of(req)).or_default().push(took);
        match (req, answer) {
            (_, Answer::Once(a)) => {
                self.oneshot.push(took);
                self.fetched += a.bytes_fetched as u64;
                self.rebuilt += (a.data.len() * 4) as u64;
            }
            (_, Answer::Stream { frame_ms, last, .. }) => {
                self.first.push_ms(frame_ms[0]);
                self.last.push(took);
                self.fetched += last.bytes_fetched as u64;
                self.rebuilt += (last.data.len() * 4) as u64;
                self.frames += frame_ms.len() as u64;
            }
            (Request::Qoi { set, .. }, Answer::Qoi(outcome)) => {
                self.qoi.push(took);
                self.fetched += outcome.fetched_bytes as u64;
                self.rebuilt += (3 * ready.qoi[set].elems * 4) as u64;
                self.qoi_iterations += outcome.iterations as u64;
                self.qoi_melems += outcome.recompose_elements as f64 / 1e6;
                self.qoi_fetched += outcome.fetched_bytes as u64;
            }
            _ => {}
        }
    }
}

/// Units decoded and recompose calls of a full-domain stream, as
/// multiples of the one-shot retrieve of the same query. Both counts are
/// fixed by the archive, so the ratios repeat exactly.
fn waste_ratios<B: Backend>(reader: &SharedReader<B>) -> Result<(f64, f64), String> {
    let query = Query::full(Target::Rel(WASTE_REL));
    let counts = |run: &dyn Fn() -> Result<(), MdrError>| -> Result<(u64, u64), String> {
        trace::set_enabled(true);
        let result = run();
        trace::set_enabled(false);
        let mut summary = Summary::default();
        summary.absorb(&trace::drain());
        result.map_err(|e| e.to_string())?;
        Ok((
            summary.layer(Layer::Decode).items,
            summary.layer(Layer::Recompose).calls,
        ))
    };
    let once = counts(&|| reader.retrieve::<f32>(&query).map(drop))?;
    let streamed = counts(&|| {
        let mut stream = reader.stream::<f32>(&query)?;
        while stream.refine_next()?.is_some() {}
        Ok(())
    })?;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    Ok((ratio(streamed.0, once.0), ratio(streamed.1, once.1)))
}

/// How much longer traced requests take than untraced ones, in percent:
/// the first requests of the sequence run in pairs, recording off and on,
/// alternating which goes first.
fn overhead_pct<B: Backend>(ready: &Ready<B>) -> Result<f64, String> {
    let (mut off, mut on) = (0.0, 0.0);
    for (i, &req) in ready.seq.requests.iter().take(OVERHEAD_PAIRS).enumerate() {
        for traced in [i % 2 == 1, i % 2 == 0] {
            trace::set_enabled(traced);
            let t0 = Instant::now();
            let answer = execute(ready, req, traced);
            let took = t0.elapsed().as_secs_f64();
            trace::set_enabled(false);
            drop(trace::drain());
            answer.map_err(|e| e.to_string())?;
            *if traced { &mut on } else { &mut off } += took;
        }
    }
    Ok((on / off - 1.0) * 100.0)
}
