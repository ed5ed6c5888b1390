//! In-memory span recorder for the benchmark's layer wrappers.
//!
//! A span is one call across a layer boundary: its layer, start and end
//! on a process-wide monotonic clock, the span that caused it, and the
//! bytes and items it handled. Spans are kept in memory and folded into a
//! [`Summary`] by the benchmark between operations, so nothing is written
//! while a measurement runs.
//!
//! Two kinds of span exist. An *operation* span ([`op`]) wraps one
//! public entry point the benchmark calls (an ingest, a retrieve, one
//! `refine_next`, one QoI-controlled retrieval); while it is open every
//! span on any thread is tagged with its id, so work the library hands
//! to its own threads (ingest's reader and writer) is still attributed.
//! A *layer* span ([`begin`]) wraps one call into a layer; it nests in
//! the span open on its own thread.
//!
//! Recording is off until [`set_enabled`] turns it on; an off recorder
//! costs one relaxed atomic load per wrapped call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layer boundaries the wrappers time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// `Backend::decompose` (multilevel forward transform).
    Decompose,
    /// `Backend::recompose_to_level` (inverse transform).
    Recompose,
    /// `Backend::encode_group` (bitplane encode).
    Encode,
    /// `Backend::compress_units` (hybrid lossless compress).
    Compress,
    /// `Backend::decode_units` (lossless decode of unit prefixes).
    Decode,
    /// `Backend::materialize` (bitplanes back to floats).
    Materialize,
    /// `Backend::map_batch` (chunk fan-out).
    MapBatch,
    /// `ChunkSource::read_chunk` (ingest input).
    SourceRead,
    /// `Store::load_units` / `Store::load_chunk` (payload fetch).
    StoreFetch,
    /// Operation: `Mdr::ingest`.
    Ingest,
    /// Operation: `SharedReader::retrieve`.
    Retrieve,
    /// Operation: `SharedReader::stream` or one `refine_next`.
    Stream,
    /// Operation: `retrieve_with_multi_qoi_control`.
    Qoi,
    /// One request over the server's wire, client side.
    Wire,
}

impl Layer {
    /// Dotted metric prefix: crate, then boundary.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Decompose => "mgard.decompose",
            Layer::Recompose => "mgard.recompose",
            Layer::Encode => "bitplane.encode",
            Layer::Compress => "lossless.compress",
            Layer::Decode => "lossless.decode",
            Layer::Materialize => "bitplane.materialize",
            Layer::MapBatch => "exec.map_batch",
            Layer::SourceRead => "core.source",
            Layer::StoreFetch => "core.store",
            Layer::Ingest => "core.ingest",
            Layer::Retrieve => "core.retrieve",
            Layer::Stream => "core.stream",
            Layer::Qoi => "qoi.control",
            Layer::Wire => "server.wire",
        }
    }
}

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id (never 0).
    pub id: u64,
    /// Span open on the same thread when this one began (0: none).
    pub parent: u64,
    /// Operation span open anywhere when this one began (0: none); an
    /// operation span carries its own id.
    pub op: u64,
    /// Boundary crossed.
    pub layer: Layer,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Bytes handed to the layer.
    pub bytes_in: u64,
    /// Bytes the layer produced.
    pub bytes_out: u64,
    /// Items handled (units decoded, requests issued, batch items, …).
    pub items: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static CURRENT_OP: AtomicU64 = AtomicU64::new(0);
static LOG: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    // ORDERING: a switch read by wrappers; it publishes no other data.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    // ORDERING: see `set_enabled`.
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; finish it with [`end`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    op: u64,
    layer: Layer,
    start_ns: u64,
    is_op: bool,
}

fn open(layer: Layer, is_op: bool) -> Option<Open> {
    if !enabled() {
        return None;
    }
    // ORDERING: ids only need to be unique.
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let op = if is_op {
        // ORDERING: the benchmark opens operations from one thread and
        // joins the library's threads before closing them.
        CURRENT_OP.store(id, Ordering::Relaxed);
        id
    } else {
        CURRENT_OP.load(Ordering::Relaxed)
    };
    Some(Open {
        id,
        parent,
        op,
        layer,
        start_ns: now_ns(),
        is_op,
    })
}

/// Open a layer span on this thread (`None` while recording is off).
pub fn begin(layer: Layer) -> Option<Open> {
    open(layer, false)
}

/// Open an operation span: every span begun on any thread until it ends
/// is attributed to it. Operations must not overlap.
fn begin_op(layer: Layer) -> Option<Open> {
    open(layer, true)
}

/// Close `span`, recording what it handled.
pub fn end(span: Option<Open>, bytes_in: u64, bytes_out: u64, items: u64) {
    let Some(span) = span else { return };
    let end_ns = now_ns();
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(pos) = s.iter().rposition(|&id| id == span.id) {
            s.truncate(pos);
        }
    });
    if span.is_op {
        // ORDERING: see `open`.
        CURRENT_OP.store(0, Ordering::Relaxed);
    }
    let rec = SpanRec {
        id: span.id,
        parent: span.parent,
        op: span.op,
        layer: span.layer,
        start_ns: span.start_ns,
        end_ns,
        bytes_in,
        bytes_out,
        items,
    };
    LOG.lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .push(rec);
}

/// Run `f` as one operation span.
pub fn op<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let span = begin_op(layer);
    let out = f();
    end(span, 0, 0, 1);
    out
}

/// Take every span recorded so far.
pub fn drain() -> Vec<SpanRec> {
    std::mem::take(&mut *LOG.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
}

/// Totals of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self time: duration minus what child spans cover.
    pub self_ns: u64,
    /// Summed input bytes.
    pub bytes_in: u64,
    /// Summed output bytes.
    pub bytes_out: u64,
    /// Summed items.
    pub items: u64,
}

/// Spans folded per layer, with the nesting and reconciliation checks.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Per-layer totals.
    pub layers: BTreeMap<Layer, LayerStat>,
    /// Operation spans folded.
    pub ops: u64,
    /// Summed operation wall time.
    pub op_wall_ns: u64,
    /// Summed time covered by the operations' child spans (union over
    /// threads, clipped to the operation).
    pub op_child_ns: u64,
    /// Spans that end outside their parent (or their operation).
    pub nesting_violations: u64,
    /// Operations whose same-thread children sum past the operation's
    /// own wall time.
    pub reconcile_violations: u64,
}

impl Summary {
    /// Stats of `layer` (zero when it never ran).
    pub fn layer(&self, layer: Layer) -> LayerStat {
        self.layers.get(&layer).copied().unwrap_or_default()
    }

    /// Fold a batch of spans. Every span of an operation must be in the
    /// same batch as the operation itself (drain between operations).
    pub fn absorb(&mut self, spans: &[SpanRec]) {
        let by_id: BTreeMap<u64, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
        // Same-thread nesting: a span's self time excludes its children.
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
                match by_id.get(&s.parent) {
                    Some(p) if p.start_ns <= s.start_ns && s.end_ns <= p.end_ns => {}
                    _ => self.nesting_violations += 1,
                }
            }
        }
        // Operations: children are the spans tagged with the op that have
        // no parent on their thread other than the op itself; on other
        // threads they may overlap, so the op covers their union.
        let mut intervals: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            if s.op != 0 && s.op != s.id && (s.parent == s.op || s.parent == 0) {
                intervals
                    .entry(s.op)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        for s in spans {
            let nested = child_ns.get(&s.id).copied().unwrap_or(0);
            let own = if s.op == s.id {
                let children = intervals.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
                let escaped = children
                    .iter()
                    .filter(|&&(a, b)| a < s.start_ns || b > s.end_ns)
                    .count();
                self.nesting_violations += escaped as u64;
                // Children on the op's own thread run one after another,
                // so together they cannot outlast it.
                if nested > s.dur_ns() {
                    self.reconcile_violations += 1;
                }
                let covered = union_within(children, s.start_ns, s.end_ns);
                self.ops += 1;
                self.op_wall_ns += s.dur_ns();
                self.op_child_ns += covered;
                s.dur_ns() - covered
            } else {
                s.dur_ns().saturating_sub(nested)
            };
            let stat = self.layers.entry(s.layer).or_default();
            stat.calls += 1;
            stat.total_ns += s.dur_ns();
            stat.self_ns += own;
            stat.bytes_in += s.bytes_in;
            stat.bytes_out += s.bytes_out;
            stat.items += s.items;
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_within(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_within(&[(0, 10), (5, 15), (20, 30)], 8, 25), 12);
        assert_eq!(union_within(&[], 0, 10), 0);
    }
}
