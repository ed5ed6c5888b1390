//! Shared pieces of the workloads: run options, results, samples, input
//! fields, hashing and host facts.

use hpmdr_core::prelude::{Isa, Region, SimdBackend};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Bytes per reported megabyte.
pub const MB: f64 = 1e6;

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Seed of the workload's request sequence.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Scratch directory the run owns (created and removed by the run).
    pub work: PathBuf,
    /// Input sizes.
    pub scale: Scale,
}

/// Input sizes of every workload; [`Scale::full`] is the benchmark's,
/// [`Scale::tiny`] lets tests run the same code in milliseconds.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Shape of each refactor input field.
    pub refactor_shape: Vec<usize>,
    /// Chunk extent of every sharded store.
    pub chunk: Vec<usize>,
    /// Shape of the field the retrieve and serve stores hold.
    pub store_shape: Vec<usize>,
    /// Extent of a region-of-interest scope.
    pub roi: Vec<usize>,
    /// Shapes of the QoI velocity triplets (one larger than L2, one
    /// smaller).
    pub qoi_shapes: Vec<Vec<usize>>,
    /// Shape of the field the serve store holds.
    pub serve_shape: Vec<usize>,
    /// Chunk extent of the serve store.
    pub serve_chunk: Vec<usize>,
    /// Region extent of serve requests.
    pub serve_roi: Vec<usize>,
    /// Times the set-up is repeated to take its median.
    pub setup_reps: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            refactor_shape: vec![128, 128, 128],
            chunk: vec![32, 32, 32],
            store_shape: vec![96, 96, 96],
            roi: vec![24, 24, 24],
            qoi_shapes: vec![vec![80, 80, 80], vec![40, 40, 40]],
            serve_shape: vec![48, 48, 48],
            serve_chunk: vec![16, 16, 16],
            serve_roi: vec![12, 12, 12],
            setup_reps: 5,
        }
    }

    /// Test sizes.
    pub fn tiny() -> Self {
        Scale {
            refactor_shape: vec![20, 18, 16],
            chunk: vec![8, 8, 8],
            store_shape: vec![20, 18, 16],
            roi: vec![6, 6, 6],
            qoi_shapes: vec![vec![12, 10, 8], vec![8, 8, 8]],
            serve_shape: vec![20, 18, 16],
            serve_chunk: vec![8, 8, 8],
            serve_roi: vec![6, 6, 6],
            setup_reps: 1,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: u64,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (measured window, ladder and checks of their
    /// answers).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Record a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one operation, failed or not; a failure also gets a note.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// The metric named `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Share of a request kind's slowest samples its trimmed mean leaves out.
///
/// The in-process workloads report a kind's latency as this trimmed
/// mean. Requests of one kind do the same work, so what spreads them is
/// the shared host. A mean moves in proportion to how long the host was
/// slow during the run, where a quantile jumps between the host's fast
/// and slow states; dropping the slowest tenth keeps one stall from
/// moving it.
pub const TRIM: f64 = 0.1;

/// Latency samples of one request class, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Add one duration.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    /// Add one value in milliseconds.
    pub fn push_ms(&mut self, ms: f64) {
        self.0.push(ms);
    }

    /// Sample count.
    pub fn len(&self) -> u64 {
        self.0.len() as u64
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile (0..=1) by linear interpolation between closest
    /// ranks; `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    /// Mean of the samples without the slowest [`TRIM`] share of them;
    /// `NaN` when empty.
    pub fn trimmed_mean(&self) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        // At least one sample stays, so only an empty set gives NaN.
        let keep = ((v.len() as f64 * (1.0 - TRIM)).round() as usize).max(1);
        v.truncate(keep);
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The `q`-quantile of `values` (linear interpolation); `NaN` if empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Run `setup` `reps` times (at least once) and return the last result
/// with the median set-up time in seconds. Earlier results are dropped
/// before the next repetition starts, so each one starts cold.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let value = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    let value = last.ok_or("set-up produced nothing")?;
    Ok((value, median(&times)))
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of every file directly inside `dir`, in name order, with names.
pub fn hash_dir(dir: &Path) -> Result<u64, String> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    names.sort();
    let mut acc = Vec::new();
    for p in names {
        let bytes = std::fs::read(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
        acc.extend_from_slice(p.file_name().map_or(&[][..], |n| n.as_encoded_bytes()));
        acc.extend_from_slice(&fnv1a(&bytes).to_le_bytes());
    }
    Ok(fnv1a(&acc))
}

/// Total bytes of the files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        total += entry.metadata().map_err(|e| e.to_string())?.len();
    }
    Ok(total)
}

/// Remove `dir` if it exists.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", dir.display())),
    }
}

/// Largest `|a - b|` over two equally long arrays.
pub fn max_abs_diff(a: impl IntoIterator<Item = f64>, b: impl IntoIterator<Item = f64>) -> f64 {
    a.into_iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// `region` cut out of a row-major field of `shape`.
pub fn extract<T: Copy>(field: &[T], shape: &[usize], region: &Region) -> Vec<T> {
    let nd = shape.len();
    let mut strides = vec![1usize; nd];
    for d in (0..nd.saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * shape[d + 1];
    }
    let n: usize = region.extent.iter().product();
    let mut out = Vec::with_capacity(n);
    let mut idx = vec![0usize; nd];
    for _ in 0..n {
        let off: usize = (0..nd)
            .map(|d| (region.start[d] + idx[d]) * strides[d])
            .sum();
        out.push(field[off]);
        for d in (0..nd).rev() {
            idx[d] += 1;
            if idx[d] < region.extent[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

/// Peak resident set of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / MB)
}

/// Cache size in bytes of the given level, read from `/sys`.
fn cache_bytes(level: u32) -> Option<u64> {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let Some(lvl) = read("level") else { break };
        if lvl.trim() != level.to_string() || read("type")?.trim() == "Instruction" {
            continue;
        }
        let size = read("size")?;
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1024 * 1024),
                None => (size, 1),
            },
        };
        return num.parse::<u64>().ok().map(|n| n * mult);
    }
    None
}

/// Host facts every result depends on.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Instruction set `SimdBackend` dispatches to.
    pub isa: Isa,
    /// L2 bytes per core, when `/sys` reports it.
    pub l2: Option<u64>,
    /// L3 bytes, when `/sys` reports it.
    pub l3: Option<u64>,
}

impl Host {
    /// Probe this host.
    pub fn probe() -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            isa: SimdBackend::new().isa(),
            l2: cache_bytes(2),
            l3: cache_bytes(3),
        }
    }

    /// One line for the report.
    pub fn describe(&self) -> String {
        let mib = |b: Option<u64>| b.map_or("unknown".to_string(), |b| format!("{} KiB", b / 1024));
        format!(
            "host: nproc={} isa={:?} L2={} L3={}",
            self.nproc,
            self.isa,
            mib(self.l2),
            mib(self.l3)
        )
    }

    /// `bytes` against the caches, for the working-set lines.
    pub fn fit(&self, bytes: u64) -> String {
        let mut s = format!("{:.2} MiB", bytes as f64 / 1048576.0);
        if let Some(l2) = self.l2 {
            let _ = write!(s, " ({} L2", if bytes > l2 { ">" } else { "<=" });
            if let Some(l3) = self.l3 {
                let _ = write!(s, ", {} L3", if bytes > l3 { ">" } else { "<=" });
            }
            s.push(')');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_drops_the_slowest_tenth() {
        let mut s = Samples::default();
        assert!(s.trimmed_mean().is_nan());
        s.push_ms(7.0);
        assert_eq!(s.trimmed_mean(), 7.0);
        let mut s = Samples::default();
        for ms in [10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 500.0] {
            s.push_ms(ms);
        }
        assert_eq!(s.trimmed_mean(), 5.555555555555555);
    }
}
