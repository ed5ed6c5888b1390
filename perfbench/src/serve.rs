//! `serve`: an open loop of progressive requests against a
//! `ProgressiveServer` whose dataset is a `CachedStore` over a
//! `RemoteStore` reading the loopback HTTP shard server. The cache
//! budget is a quarter of the store, so it keeps missing. This is the
//! only workload that reaches the cache, `netstore`, the wire protocol
//! and admission; the server runs its built-in single-threaded
//! `ScalarBackend`.

use crate::common::{
    dir_bytes, median, quantile, remove_dir, timed_setup, Host, Outcome, RunOpts, MB,
};
use crate::fields::{self, Data};
use crate::layers::{self, Extras};
use crate::refactor::{handle, ingest};
use crate::retrieve::{same, Mix, Request, Sequence, TARGETS};
use crate::trace::{self, Layer, Summary};
use crate::verify::references;
use crate::wrap::TracedStore;
use hpmdr_core::prelude::{
    open_store, Approximation, RemoteStore, SharedReader, SimdBackend, Store,
};
use hpmdr_netstore::server::LoopbackShardServer;
use hpmdr_server::client::{ProgressiveClient, ServerEvent};
use hpmdr_server::protocol::QueryRequest;
use hpmdr_server::{ProgressiveServer, Registry, ServerConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Keep-alive connections of the load generator.
const CONNECTIONS: usize = 2;
/// Offered rate of the fixed-rate blocks, requests per second; well
/// below capacity on the reference host.
const FIXED_RATE: f64 = 15.0;
/// Share of the measured window given to the rounds (a fixed-rate block,
/// then a closed-loop block); the rate ladder gets the rest.
const ROUNDS_SHARE: f64 = 0.75;
/// Seconds of closed-loop warm-up before anything is measured, so the
/// cache reaches its steady state.
const WARMUP_S: f64 = 3.0;
/// Rungs of the rate ladder.
const RUNGS: usize = 5;
/// Limit on the final-frame p90 a ladder rung must meet.
const P90_LIMIT_MS: f64 = 500.0;
/// Requests replayed with recording off and on for the overhead.
const OVERHEAD_PAIRS: usize = 20;
/// Name the dataset is registered under.
const DATASET: &str = "field";

/// The mix of `serve`: progressive streams only.
const SERVE_MIX: Mix = Mix {
    oneshot: false,
    stream: true,
    qoi: false,
};

/// One served request.
#[derive(Debug)]
struct Served {
    /// Position in the request sequence.
    index: usize,
    /// How late the generator sent it.
    lateness_ms: f64,
    /// Due time to the first frame.
    first_ms: f64,
    /// Due time to the final frame.
    final_ms: f64,
    /// Bytes of the final frame's values.
    bytes: u64,
    /// Why it failed, if it did.
    error: Option<String>,
}

/// The running system.
struct Serving {
    server: ProgressiveServer,
    clients: Vec<ProgressiveClient>,
    /// The backing store, kept for its counters in a traced run.
    remote: Option<Arc<RemoteStore>>,
    // Dropped last: the server's store reads from it.
    _shards: LoopbackShardServer,
}

/// Drives requests at the system: the wire form and verified answer of
/// every distinct query, the query of each request in sequence order,
/// and the position reached.
struct Load {
    serving: Serving,
    wire: Vec<QueryRequest>,
    references: Vec<Approximation<f32>>,
    order: Vec<usize>,
    block: usize,
    next: usize,
}

fn deadline() -> Instant {
    Instant::now() + Duration::from_secs(60)
}

/// Send `req` on `client` and drain its frames, timing from `due`; check
/// that bounds tighten and that the final frame matches `reference`.
fn request(
    client: &mut ProgressiveClient,
    req: &QueryRequest,
    reference: &Approximation<f32>,
    index: usize,
    due: Instant,
) -> Served {
    let ms = |t: Instant| t.duration_since(due).as_secs_f64() * 1e3;
    let mut served = Served {
        index,
        lateness_ms: ms(Instant::now()),
        first_ms: f64::NAN,
        final_ms: f64::NAN,
        bytes: 0,
        error: None,
    };
    let mut achieved = Vec::new();
    let result = (|| {
        client
            .send_query(req, deadline())
            .map_err(|e| e.to_string())?;
        loop {
            let event = client
                .next_event::<f32>(deadline())
                .map_err(|e| e.to_string())?;
            let f = match event {
                ServerEvent::Reject(r) => {
                    return Err(format!("rejected: {:?} {}", r.code, r.message))
                }
                ServerEvent::Frame(f) => f,
            };
            let now = Instant::now();
            if achieved.is_empty() {
                served.first_ms = ms(now);
            }
            achieved.push(f.header.achieved);
            if !f.header.is_final {
                continue;
            }
            served.final_ms = ms(now);
            served.bytes = (f.data.len() * 4) as u64;
            if achieved.windows(2).any(|w| w[1] > w[0]) {
                return Err(format!("frame bounds do not tighten: {achieved:?}"));
            }
            let got = Approximation {
                data: f.data,
                shape: f.header.shape,
                achieved: f.header.achieved,
                bytes_fetched: 0,
                exhausted: f.header.exhausted,
            };
            return same(&got, reference);
        }
    })();
    served.error = result.err();
    served
}

impl Load {
    /// Send the next `total` requests over every connection: at `rate`
    /// per second (open loop, each timed from when it was due), or back
    /// to back when `rate` is `None` (closed loop, timed from sending).
    fn run(&mut self, rate: Option<f64>, total: usize) -> Vec<Served> {
        let first = self.next;
        self.next += total;
        let claimed = AtomicUsize::new(0);
        let results = Mutex::new(Vec::with_capacity(total));
        let start = Instant::now() + Duration::from_millis(5);
        let (wire, references, order) = (&self.wire, &self.references, &self.order);
        std::thread::scope(|s| {
            for client in self.serving.clients.iter_mut() {
                s.spawn(|| loop {
                    // ORDERING: the counter only hands out distinct indices.
                    let i = claimed.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let due = match rate {
                        Some(rate) => start + Duration::from_secs_f64(i as f64 / rate),
                        None => Instant::now(),
                    };
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let index = first + i;
                    let q = order[index % order.len()];
                    let span = trace::begin(Layer::Wire);
                    let served = request(client, &wire[q], &references[q], index, due);
                    trace::end(span, 0, served.bytes, 1);
                    results
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .push(served);
                });
            }
        });
        results.into_inner().unwrap_or_else(|p| p.into_inner())
    }

    /// `n` rounded up to whole blocks of the sequence.
    fn whole_blocks(&self, n: usize) -> usize {
        n.div_ceil(self.block) * self.block
    }

    /// Move to the start of the next block.
    fn align(&mut self) {
        self.next = self.whole_blocks(self.next);
    }
}

/// `q`-quantile of `f` over the requests of `phase` that succeeded.
fn q_of(phase: &[&Served], f: impl Fn(&Served) -> f64, q: f64) -> f64 {
    let values: Vec<f64> = phase
        .iter()
        .filter(|s| s.error.is_none())
        .map(|s| f(s))
        .collect();
    quantile(&values, q)
}

/// Whether a phase met the latency limit without a growing backlog: no
/// request failed, the final-frame p90 is within the limit, and the
/// generator was not still falling behind in the phase's last quarter.
fn passes(phase: &[Served]) -> bool {
    let mut by_index: Vec<&Served> = phase.iter().collect();
    by_index.sort_by_key(|s| s.index);
    let tail = &by_index[by_index.len() * 3 / 4..];
    phase.iter().all(|s| s.error.is_none())
        && q_of(&by_index, |s| s.final_ms, 0.9) <= P90_LIMIT_MS
        && q_of(tail, |s| s.lateness_ms, 0.5) <= P90_LIMIT_MS / 4.0
}

/// Count every request of a phase in the run's checks.
fn record(out: &mut Outcome, phase: &[Served]) {
    for s in phase {
        out.check(s.error.is_none(), || s.error.clone().unwrap_or_default());
    }
}

/// Ingest the store and start everything; the timed set-up.
fn start(opts: &RunOpts, field: &fields::Field) -> Result<Serving, String> {
    let dir = opts.work.join("store");
    remove_dir(&dir)?;
    let mdr = handle::<SimdBackend>(&opts.scale.serve_chunk);
    ingest(&mdr, field, &dir, false).map_err(|e| format!("ingest: {e}"))?;
    let shards = LoopbackShardServer::serve(&dir).map_err(|e| e.to_string())?;
    let remote = RemoteStore::open_url(&shards.url()).map_err(|e| e.to_string())?;
    let budget = (dir_bytes(&dir)? / 4) as usize;
    let mut registry = Registry::new();
    let remote = if opts.trace {
        let traced = TracedStore::new(remote);
        let handle = Arc::clone(&traced.0);
        registry.register(DATASET, Box::new(traced), budget);
        Some(handle)
    } else {
        registry.register(DATASET, Box::new(remote), budget);
        None
    };
    let server =
        ProgressiveServer::serve(registry, ServerConfig::default()).map_err(|e| e.to_string())?;
    let clients = (0..CONNECTIONS)
        .map(|_| ProgressiveClient::connect(server.addr()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(Serving {
        server,
        clients,
        remote,
        _shards: shards,
    })
}

/// Run the workload.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scale = &opts.scale;
    let field = fields::jhtdb_velocity(&scale.serve_shape, 0);
    let Data::F32(original) = &field.data else {
        return Err("serve field must be f32".to_string());
    };
    let (serving, setup_s) = timed_setup(scale.setup_reps, || start(opts, &field))?;
    let dir = opts.work.join("store");
    let store_bytes = dir_bytes(&dir)?;
    out.note(format!(
        "store {} {:?} f32: {} stored, cache budget {} B; region {:?}",
        field.name,
        field.shape,
        Host::probe().fit(store_bytes),
        store_bytes / 4,
        scale.serve_roi
    ));

    let seq = Sequence::generate(
        opts.seed,
        &scale.serve_shape,
        &scale.serve_chunk,
        &scale.serve_roi,
        SERVE_MIX,
        0,
    );
    out.note(format!(
        "request sequence: seed={} hash={:016x} ({} distinct queries), {CONNECTIONS} connections",
        opts.seed,
        seq.hash(),
        seq.queries.len()
    ));
    // References: in-process one-shots over the local store; every
    // served final frame must match one bit for bit.
    let local = SharedReader::new(Arc::from(open_store(&dir).map_err(|e| e.to_string())?));
    let mut load = Load {
        serving,
        wire: seq
            .queries
            .iter()
            .map(|q| QueryRequest::new(DATASET, "f32", q))
            .collect(),
        references: references(&local, &seq.queries, original, &field.shape, &mut out)?,
        order: seq
            .requests
            .iter()
            .filter_map(|r| match *r {
                Request::Stream(q) => Some(q),
                _ => None,
            })
            .collect(),
        block: seq.block,
        next: 0,
    };

    let warm_until = Instant::now() + Duration::from_secs_f64(WARMUP_S);
    while Instant::now() < warm_until {
        let warm = load.run(None, load.block);
        record(&mut out, &warm);
    }

    // Measured phases, each a whole number of blocks so every run offers
    // the same mix. Rounds alternate a block at the fixed rate with a
    // block sent closed loop, so both latency and capacity are sampled
    // across the whole window rather than in one stretch of it; the
    // ladder follows. A traced run records the rounds.
    trace::set_enabled(opts.trace);
    drop(trace::drain());
    let remote_counters = |load: &Load| {
        load.serving.remote.as_ref().map(|r| {
            [
                r.requests(),
                r.transfer_bytes(),
                r.wasted_bytes(),
                r.retries(),
            ]
        })
    };
    let before = load.serving.server.stats();
    let remote_before = remote_counters(&load);
    load.align();
    let window_start = Instant::now();
    let rounds_until = window_start + Duration::from_secs_f64(opts.seconds * ROUNDS_SHARE);
    let (mut fixed, mut probe) = (Vec::new(), Vec::new());
    // Per closed-loop block: requests per second and MB per second.
    let (mut probe_rates, mut probe_mbps) = (Vec::new(), Vec::new());
    while probe_rates.is_empty() || Instant::now() < rounds_until {
        fixed.extend(load.run(Some(FIXED_RATE), load.block));
        let t0 = Instant::now();
        let burst = load.run(None, load.block);
        let took = t0.elapsed().as_secs_f64();
        probe_rates.push(burst.len() as f64 / took);
        probe_mbps.push(burst.iter().map(|s| s.bytes as f64).sum::<f64>() / MB / took);
        probe.extend(burst);
    }
    let after_rounds = load.serving.server.stats();
    let remote_after = remote_counters(&load);
    let mut summary = Summary::default();
    summary.absorb(&trace::drain());
    trace::set_enabled(false);
    record(&mut out, &fixed);
    record(&mut out, &probe);
    let capacity = median(&probe_rates);
    let mbps = median(&probe_mbps);
    out.note(format!(
        "capacity: {} requests closed loop in {} blocks, median {capacity:.3}/s, {mbps:.4} MB/s",
        probe.len(),
        probe_rates.len()
    ));

    // The ladder bisects [½, 1] × capacity for the highest rate whose
    // final-frame p90 meets the limit with no growing backlog.
    let rung_s = ((opts.seconds - window_start.elapsed().as_secs_f64()) / RUNGS as f64).max(1.0);
    let mut max_qps = if passes(&fixed) { FIXED_RATE } else { 0.0 };
    let mut served_bytes: f64 = fixed.iter().chain(&probe).map(|s| s.bytes as f64).sum();
    let (mut lo, mut hi) = (capacity / 2.0, capacity);
    for _ in 0..RUNGS {
        let rate = (lo + hi) / 2.0;
        let rung = load.run(
            Some(rate),
            load.whole_blocks((rate * rung_s).round() as usize),
        );
        record(&mut out, &rung);
        served_bytes += rung.iter().map(|s| s.bytes as f64).sum::<f64>();
        let pass = passes(&rung);
        let all: Vec<&Served> = rung.iter().collect();
        out.note(format!(
            "ladder rung {rate:.3}/s: {} requests, final p90 {:.3} ms, {}",
            rung.len(),
            q_of(&all, |s| s.final_ms, 0.9),
            if pass { "pass" } else { "fail" }
        ));
        if pass {
            max_qps = max_qps.max(rate);
            lo = rate;
        } else {
            hi = rate;
        }
    }
    if max_qps == 0.0 {
        return Err("no offered rate met the latency limit".to_string());
    }
    // Cache behaviour depends on the request order, so the fetch ratio
    // pools every measured request.
    let after = load.serving.server.stats();
    let fetched = after.datasets[0].bytes_fetched - before.datasets[0].bytes_fetched;
    let fetch_ratio = fetched as f64 / served_bytes;

    // Latencies of the fixed-rate blocks, pooled and per scope.
    let n = fixed.len() as u64;
    let all: Vec<&Served> = fixed.iter().collect();
    let is_full = |s: &Served| load.order[s.index % load.order.len()] < TARGETS.len();
    let (full, region): (Vec<&Served>, Vec<&Served>) = all.iter().partition(|s| is_full(s));
    let lateness_p90 = q_of(&all, |s| s.lateness_ms, 0.9);
    out.note(format!(
        "fixed rate {FIXED_RATE}/s: {n} requests ({} full domain, {} region), generator \
         lateness p90 {lateness_p90:.4} ms",
        full.len(),
        region.len()
    ));
    for (name, v) in [
        ("first_frame_p50_ms", q_of(&all, |s| s.first_ms, 0.5)),
        ("first_frame_p90_ms", q_of(&all, |s| s.first_ms, 0.9)),
        ("stream_p50_ms", q_of(&all, |s| s.final_ms, 0.5)),
        ("stream_p90_ms", q_of(&all, |s| s.final_ms, 0.9)),
    ] {
        out.note(format!("{name} = {v:.4} ms (n={n})"));
    }
    out.note(format!(
        "max_qps = {max_qps:.4} 1/s (final p90 <= {P90_LIMIT_MS} ms, {RUNGS} rungs of {rung_s:.2} s)"
    ));
    out.note(format!("fetch_ratio = {fetch_ratio:.6}"));

    if opts.trace {
        // Per request of the rounds, fixed-rate and closed-loop alike.
        let n = (fixed.len() + probe.len()) as u64;
        let per = |v: f64| v / n as f64;
        let (d0, d1) = (&before.datasets[0], &after_rounds.datasets[0]);
        let mut extras = Extras::default();
        let (hits, misses) = (d1.hits - d0.hits, d1.misses - d0.misses);
        extras.set(
            "core.cache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        extras.set(
            "core.cache.extensions",
            per((d1.extensions - d0.extensions) as f64),
        );
        if let (Some(a), Some(b)) = (remote_before, remote_after) {
            extras.set("netstore.requests", per((b[0] - a[0]) as f64));
            extras.set("netstore.transfer_mb", per((b[1] - a[1]) as f64 / MB));
            extras.set("netstore.wasted_mb", per((b[2] - a[2]) as f64 / MB));
            extras.set("netstore.retries", (b[3] - a[3]) as f64);
        }
        let accepted = after_rounds.accepted - before.accepted;
        extras.set(
            "server.frames_per_request",
            (after_rounds.served_frames - before.served_frames) as f64 / accepted.max(1) as f64,
        );
        extras.set("server.accepted", accepted as f64);
        extras.set("server.shed", (after_rounds.shed - before.shed) as f64);
        extras.set("loadgen.lateness_p90_ms", lateness_p90);
        extras.set("tracing.overhead_pct", overhead_pct(&mut load)?);
        out.note(format!(
            "wire: {:.4} ms per request from send to final frame, {:.4} ms of it in backing \
             store fetches",
            per(summary.layer(Layer::Wire).total_ns as f64 / 1e6),
            per(summary.layer(Layer::StoreFetch).total_ns as f64 / 1e6)
        ));
        layers::report(&mut out, &summary, n, &extras);
    } else {
        out.metric("setup_s", setup_s, "s", scale.setup_reps as u64);
        out.metric("mbps", mbps, "MB/s", probe.len() as u64);
        out.metric("ops_per_s", capacity, "1/s", probe.len() as u64);
        out.metric("bytes_ratio", fetch_ratio, "ratio", n);
        let (first, last) = (|s: &Served| s.first_ms, |s: &Served| s.final_ms);
        let (nr, nf) = (region.len() as u64, full.len() as u64);
        out.metric("small_ms", q_of(&region, first, 0.5), "ms", nr);
        out.metric("large_ms", q_of(&full, first, 0.5), "ms", nf);
        out.metric("alt_small_ms", q_of(&region, last, 0.5), "ms", nr);
        out.metric("alt_large_ms", q_of(&full, last, 0.5), "ms", nf);
    }
    Ok(out)
}

/// How much longer requests take with the store wrapper recording than
/// without, in percent: the sequence's first requests run back to back
/// on one connection, recording off and on, alternating which goes
/// first.
fn overhead_pct(load: &mut Load) -> Result<f64, String> {
    let (mut off, mut on) = (0.0, 0.0);
    let client = &mut load.serving.clients[0];
    for (i, &q) in load.order.iter().take(OVERHEAD_PAIRS).enumerate() {
        for traced in [i % 2 == 1, i % 2 == 0] {
            trace::set_enabled(traced);
            let served = request(
                client,
                &load.wire[q],
                &load.references[q],
                i,
                Instant::now(),
            );
            trace::set_enabled(false);
            if let Some(e) = served.error {
                return Err(e);
            }
            *if traced { &mut on } else { &mut off } += served.final_ms;
        }
    }
    drop(trace::drain());
    Ok((on / off - 1.0) * 100.0)
}
