//! Self-tests of the benchmark: the wrappers change nothing, spans nest,
//! per-operation child time reconciles with wall time, the correctness
//! gates bite, and every workload reports every promised metric.

use hpmdr_core::prelude::{open_store, Query, Region, SharedReader, SimdBackend, Store, Target};
use hpmdr_perfbench::common::{hash_dir, Outcome, RunOpts, Scale};
use hpmdr_perfbench::fields::{self, Data};
use hpmdr_perfbench::layers::PER_LAYER;
use hpmdr_perfbench::refactor::{handle, ingest};
use hpmdr_perfbench::retrieve::{same, Request, Sequence, RETRIEVE_MIX, TARGETS};
use hpmdr_perfbench::trace::{self, Layer, SpanRec, Summary};
use hpmdr_perfbench::verify::check_store;
use hpmdr_perfbench::wrap::{Traced, TracedStore};
use hpmdr_perfbench::{END_TO_END, WORKLOADS};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// The span recorder is process-wide: tests that record take this lock.
static RECORDER: Mutex<()> = Mutex::new(());

fn recorder() -> MutexGuard<'static, ()> {
    RECORDER.lock().unwrap_or_else(|p| p.into_inner())
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test scratch dir");
    dir
}

fn queries(shape: &[usize]) -> Vec<Query> {
    let region = Region::new(&[2, 3, 1], &[6, 5, 7]);
    [1e-2, 1e-4, 1e-6]
        .into_iter()
        .flat_map(|t| {
            [
                Query::full(Target::Rel(t)),
                Query::region(Target::Rel(t), region.clone()),
            ]
        })
        .chain([Query::full(Target::Lossless)])
        .filter(|_| shape.len() == 3)
        .collect()
}

#[test]
fn wrapped_backend_and_store_give_identical_stores_and_answers() {
    let _guard = recorder();
    let dir = scratch("identical");
    let field = fields::jhtdb_velocity(&[20, 18, 16], 0);
    let chunk = [8, 8, 8];

    let plain_dir = dir.join("plain");
    ingest(&handle::<SimdBackend>(&chunk), &field, &plain_dir, false).expect("plain ingest");
    trace::set_enabled(true);
    let traced_dir = dir.join("traced");
    let traced = handle::<Traced<SimdBackend>>(&chunk);
    ingest(&traced, &field, &traced_dir, true).expect("traced ingest");
    assert_eq!(
        hash_dir(&plain_dir).unwrap(),
        hash_dir(&traced_dir).unwrap(),
        "stores written through the wrappers are byte-identical"
    );

    let plain = SharedReader::with_backend(
        Arc::from(open_store(&plain_dir).unwrap()),
        SimdBackend::new(),
    );
    let wrapped =
        traced.shared_reader(Arc::new(TracedStore::new(open_store(&traced_dir).unwrap())));
    for q in queries(&field.shape) {
        let want = plain.retrieve::<f32>(&q).unwrap();
        same(&wrapped.retrieve::<f32>(&q).unwrap(), &want).expect("one-shot identical");
        let mut stream = wrapped.stream::<f32>(&q).unwrap();
        let mut last = None;
        while let Some(frame) = stream.refine_next().unwrap() {
            last = Some(frame.approximation);
        }
        same(&last.expect("a final frame"), &want).expect("final frame identical");
    }
    trace::set_enabled(false);
    let spans = trace::drain();
    assert!(spans.iter().any(|s| s.layer == Layer::Decompose));
    assert!(spans.iter().any(|s| s.layer == Layer::StoreFetch));
    assert!(spans.iter().any(|s| s.layer == Layer::Materialize));
}

#[test]
fn child_spans_nest_and_reconcile_with_their_operation() {
    let _guard = recorder();
    let dir = scratch("nesting");
    let field = fields::nyx_density(&[20, 18, 16]);
    let mdr = handle::<Traced<SimdBackend>>(&[8, 8, 8]);
    trace::set_enabled(true);
    ingest(&mdr, &field, &dir.join("s"), true).unwrap();
    let reader = mdr.shared_reader(Arc::new(TracedStore::new(
        open_store(&dir.join("s")).unwrap(),
    )));
    for q in queries(&field.shape) {
        trace::op(Layer::Retrieve, || reader.retrieve::<f32>(&q)).unwrap();
        let mut stream = trace::op(Layer::Stream, || reader.stream::<f32>(&q)).unwrap();
        while trace::op(Layer::Stream, || stream.refine_next())
            .unwrap()
            .is_some()
        {}
    }
    trace::set_enabled(false);
    let spans = trace::drain();
    let by_id = |id| spans.iter().find(|s: &&SpanRec| s.id == id);
    let mut checked = 0;
    for s in &spans {
        if s.parent != 0 {
            let p = by_id(s.parent).expect("parent recorded");
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "{s:?} in {p:?}"
            );
            checked += 1;
        }
        if s.op != 0 && s.op != s.id {
            let op = by_id(s.op).expect("operation recorded");
            assert!(op.start_ns <= s.start_ns && s.end_ns <= op.end_ns);
        }
    }
    assert!(checked > 100, "only {checked} nested spans");

    let mut summary = Summary::default();
    summary.absorb(&spans);
    assert_eq!(summary.nesting_violations, 0);
    assert_eq!(summary.reconcile_violations, 0);
    assert!(summary.ops >= 3 && summary.op_child_ns <= summary.op_wall_ns);
    // Per layer, self time never exceeds total time.
    for stat in summary.layers.values() {
        assert!(stat.self_ns <= stat.total_ns);
    }
    // The reconciliation gap is what the operations did themselves.
    let own: u64 = [Layer::Ingest, Layer::Retrieve, Layer::Stream]
        .iter()
        .map(|&l| summary.layer(l).self_ns)
        .sum();
    assert_eq!(own, summary.op_wall_ns - summary.op_child_ns);
}

#[test]
fn summary_flags_children_that_escape_their_parent() {
    let span = |id, parent, op, start_ns, end_ns| SpanRec {
        id,
        parent,
        op,
        layer: if id == op {
            Layer::Retrieve
        } else {
            Layer::Decode
        },
        start_ns,
        end_ns,
        bytes_in: 0,
        bytes_out: 0,
        items: 1,
    };
    let mut ok = Summary::default();
    ok.absorb(&[
        span(1, 0, 1, 0, 100),
        span(2, 1, 1, 10, 40),
        span(3, 1, 1, 50, 90),
    ]);
    assert_eq!((ok.nesting_violations, ok.reconcile_violations), (0, 0));
    assert_eq!(ok.layer(Layer::Retrieve).self_ns, 30);
    assert_eq!(ok.op_child_ns, 70);

    let mut bad = Summary::default();
    bad.absorb(&[span(1, 0, 1, 0, 100), span(2, 1, 1, 10, 140)]);
    assert!(bad.nesting_violations > 0);
    let mut overfull = Summary::default();
    overfull.absorb(&[
        span(1, 0, 1, 0, 100),
        span(2, 1, 1, 0, 80),
        span(3, 1, 1, 20, 100),
    ]);
    assert_eq!(overfull.reconcile_violations, 1);
}

#[test]
fn store_check_rejects_a_damaged_store() {
    let dir = scratch("damaged");
    let field = fields::miranda_density(&[20, 18, 16]);
    ingest(&handle::<SimdBackend>(&[8, 8, 8]), &field, &dir, false).unwrap();
    check_store(&dir, &field).expect("intact store passes");
    let shard = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "shard"))
        .max_by_key(|p| std::fs::metadata(p).unwrap().len())
        .expect("a shard file");
    let mut bytes = std::fs::read(&shard).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid..].iter_mut().for_each(|b| *b ^= 0x5a);
    std::fs::write(&shard, bytes).unwrap();
    assert!(
        check_store(&dir, &field).is_err(),
        "damaged store must fail"
    );
}

#[test]
fn sequences_repeat_per_seed_and_blocks_hold_a_fixed_mix() {
    let gen = |seed| {
        Sequence::generate(
            seed,
            &[96, 96, 96],
            &[32, 32, 32],
            &[24, 24, 24],
            RETRIEVE_MIX,
            2,
        )
    };
    let (a, b, c) = (gen(7), gen(7), gen(8));
    assert_eq!(a.hash(), b.hash());
    assert_ne!(a.hash(), c.hash());
    assert_eq!(
        a.queries.len(),
        (1 + 27) * TARGETS.len(),
        "full domain plus one region per chunk"
    );
    let census = |blk: &[Request]| {
        let mut n = [0usize; 4];
        for r in blk {
            match *r {
                Request::OneShot(q) | Request::Stream(q) if q < TARGETS.len() => n[0] += 1,
                Request::OneShot(_) => n[1] += 1,
                Request::Stream(_) => n[2] += 1,
                Request::Qoi { .. } => n[3] += 1,
            }
        }
        n
    };
    let first = census(&a.requests[..a.block]);
    assert_eq!(first, [8, 8, 8, 9]);
    for blk in a.requests.chunks(a.block).chain(c.requests.chunks(c.block)) {
        assert_eq!(census(blk), first);
    }
}

fn run_tiny(workload: &str, trace_on: bool) -> Outcome {
    let opts = RunOpts {
        seed: 3,
        seconds: 0.5,
        trace: trace_on,
        work: scratch(&format!("{workload}-{trace_on}")),
        scale: Scale::tiny(),
    };
    let out = hpmdr_perfbench::run(workload, &opts).expect("workload runs");
    assert_eq!(out.failed, 0, "{workload}: {:?}", out.notes);
    assert!(out.attempted > 0);
    out
}

#[test]
fn every_workload_reports_every_metric_it_promises() {
    let _guard = recorder();
    for workload in WORKLOADS {
        for (trace_on, names) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = run_tiny(workload, trace_on);
            for (name, unit) in names {
                let m = out
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(m.unit, *unit);
                assert!(m.value.is_finite(), "{workload}: {name} = {}", m.value);
                if !trace_on {
                    assert!(m.value > 0.0, "{workload}: {name} = {}", m.value);
                }
            }
        }
    }
}

/// Names listed under `key` in `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let section = &json[start..];
    let end = section.find(']').expect("list closes");
    section[..end]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').unwrap() + 1..];
            rest[..rest.find('"').unwrap()].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(listed(&json, "workloads"), WORKLOADS.map(String::from));
    assert_eq!(listed(&json, "end_to_end"), names(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), names(PER_LAYER));
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = &json[json.find(&format!("\"name\": \"{name}\"")).unwrap()..];
        let entry = &entry[..entry.find('}').unwrap()];
        assert!(entry.contains(&format!("\"unit\": \"{unit}\"")), "{name}");
    }
    let _ = Data::F32(Vec::new()).dtype();
    let _: &dyn Store;
}
