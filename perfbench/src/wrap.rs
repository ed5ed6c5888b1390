//! Timing wrappers around the public seams every layer is reached
//! through: [`Backend`], [`Store`] and [`ChunkSource`].
//!
//! Each wrapper forwards to the wrapped value and records one span per
//! call while [`trace`] is on. [`Traced`] overrides exactly the kernels
//! [`SimdBackend`](hpmdr_exec::SimdBackend) runs and leaves
//! `encode_and_compress` on the trait default, as `SimdBackend` does: the
//! default calls `self.encode_group` and `self.compress_units`, so the
//! wrapped backend runs the same code and still splits bitplane time
//! from lossless time.

use crate::trace::{self, Layer};
use hpmdr_bitplane::native::ProgressiveDecoder;
use hpmdr_bitplane::{BitplaneChunk, BitplaneFloat, Layout, Reconstruction};
use hpmdr_core::prelude::{
    Backend, ChunkSource, ChunkedRefactored, ExecCtx, MdrError, Refactored, Region, RetrievalPlan,
    Store,
};
use hpmdr_exec::{DecodeError, StreamView};
use hpmdr_lossless::{CompressedGroup, HybridCompressor};
use hpmdr_mgard::{Hierarchy, Real};
use std::path::Path;
use std::sync::Arc;

fn bytes_of<T>(items: &[T]) -> u64 {
    std::mem::size_of_val(items) as u64
}

/// A [`Backend`] that times every kernel of the backend it wraps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traced<B>(pub B);

impl<B: Backend> Backend for Traced<B> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn threads(&self) -> usize {
        self.0.threads()
    }

    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        self.0.install(f)
    }

    fn decompose<F: Real>(&self, ctx: &ExecCtx, data: &mut [F], h: &Hierarchy, correction: bool) {
        let span = trace::begin(Layer::Decompose);
        self.0.decompose(ctx, data, h, correction);
        trace::end(span, bytes_of(data), 0, 1);
    }

    fn recompose_to_level<F: Real>(
        &self,
        ctx: &ExecCtx,
        data: &mut [F],
        h: &Hierarchy,
        correction: bool,
        level: usize,
    ) {
        let span = trace::begin(Layer::Recompose);
        self.0.recompose_to_level(ctx, data, h, correction, level);
        trace::end(span, bytes_of(data), 0, 1);
    }

    fn encode_group<F: BitplaneFloat>(
        &self,
        ctx: &ExecCtx,
        group: &[F],
        planes: usize,
        layout: Layout,
    ) -> BitplaneChunk {
        let span = trace::begin(Layer::Encode);
        let chunk = self.0.encode_group(ctx, group, planes, layout);
        trace::end(span, bytes_of(group), 0, 1);
        chunk
    }

    fn compress_units(
        &self,
        ctx: &ExecCtx,
        chunk: &BitplaneChunk,
        group_size: usize,
        compressor: &HybridCompressor,
    ) -> Vec<CompressedGroup> {
        let span = trace::begin(Layer::Compress);
        let units = self.0.compress_units(ctx, chunk, group_size, compressor);
        let raw: usize = units.iter().map(|u| u.original_len).sum();
        let stored: usize = units.iter().map(|u| u.payload.len()).sum();
        trace::end(span, raw as u64, stored as u64, units.len() as u64);
        units
    }

    fn decode_units(
        &self,
        ctx: &ExecCtx,
        stream: StreamView<'_>,
        take_units: usize,
        compressor: &HybridCompressor,
        dtype: &str,
    ) -> Result<BitplaneChunk, DecodeError> {
        let span = trace::begin(Layer::Decode);
        let taken = &stream.units[..take_units.min(stream.units.len())];
        let stored: usize = taken.iter().map(|u| u.payload.len()).sum();
        let raw: usize = taken.iter().map(|u| u.original_len).sum();
        let out = self
            .0
            .decode_units(ctx, stream, take_units, compressor, dtype);
        trace::end(span, stored as u64, raw as u64, taken.len() as u64);
        out
    }

    fn map_batch<T, R, F>(&self, ctx: &ExecCtx, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Send + Sync,
    {
        let span = trace::begin(Layer::MapBatch);
        let out = self.0.map_batch(ctx, items, f);
        trace::end(span, 0, 0, items.len() as u64);
        out
    }

    fn materialize<F: BitplaneFloat>(
        &self,
        ctx: &ExecCtx,
        decoder: &ProgressiveDecoder,
        chunk: &BitplaneChunk,
        recon: Reconstruction,
    ) -> Vec<F> {
        let span = trace::begin(Layer::Materialize);
        let out = self.0.materialize(ctx, decoder, chunk, recon);
        trace::end(span, 0, bytes_of(&out), 1);
        out
    }
}

/// A [`Store`] that times every fetch of the store it wraps. It holds
/// the store through an [`Arc`] so the caller keeps a typed handle for
/// the store's own counters.
pub struct TracedStore<S>(pub Arc<S>);

impl<S: Store> TracedStore<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        TracedStore(Arc::new(inner))
    }

    fn timed<R>(&self, fetch: impl FnOnce() -> Result<R, MdrError>) -> Result<R, MdrError> {
        let span = trace::begin(Layer::StoreFetch);
        let before = (self.0.bytes_fetched(), self.0.requests());
        let out = fetch();
        // Deltas of the store's own counters: exact for one client, an
        // approximation when several fetch concurrently.
        let bytes = self.0.bytes_fetched().saturating_sub(before.0);
        let requests = self.0.requests().saturating_sub(before.1);
        trace::end(span, 0, bytes as u64, requests as u64);
        out
    }
}

impl<S: Store> Store for TracedStore<S> {
    fn flavor(&self) -> &'static str {
        self.0.flavor()
    }

    fn meta(&self) -> &ChunkedRefactored {
        self.0.meta()
    }

    fn load_units(
        &self,
        chunk: usize,
        group: usize,
        skip: usize,
        take: usize,
    ) -> Result<Vec<Vec<u8>>, MdrError> {
        self.timed(|| self.0.load_units(chunk, group, skip, take))
    }

    fn load_chunk(&self, c: usize, plan: &RetrievalPlan) -> Result<Refactored, MdrError> {
        self.timed(|| self.0.load_chunk(c, plan))
    }

    fn bytes_fetched(&self) -> usize {
        self.0.bytes_fetched()
    }

    fn requests(&self) -> usize {
        self.0.requests()
    }

    fn open(path: &Path) -> Result<Self, MdrError> {
        S::open(path).map(TracedStore::new)
    }
}

/// A [`ChunkSource`] that times every chunk read of the source it wraps.
pub struct TracedSource<S>(pub S);

impl<F, S: ChunkSource<F>> ChunkSource<F> for TracedSource<S> {
    fn shape(&self) -> &[usize] {
        self.0.shape()
    }

    fn read_chunk(&mut self, c: usize, region: &Region) -> Result<Vec<F>, MdrError> {
        let span = trace::begin(Layer::SourceRead);
        let out = self.0.read_chunk(c, region);
        let bytes = out.as_ref().map_or(0, |v| bytes_of(v));
        trace::end(span, 0, bytes, 1);
        out
    }
}
