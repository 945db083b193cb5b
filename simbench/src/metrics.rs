//! Measurement plumbing shared by the workloads: timed windows, latency
//! percentiles, the simulated-totals digest and the result line.

use flexagon_core::ExecutionReport;
use flexagon_sparse::{CompressedMatrix, MajorOrder};
use std::time::Instant;

/// Timing of one op in a timed window.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Host seconds from the op's start to its reply.
    pub secs: f64,
    /// Whether the op completed and produced an output.
    pub ok: bool,
}

/// What one timed window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Ops issued.
    pub attempted: u64,
    /// Ops that failed (typed error, connection error or panic).
    pub failed: u64,
    /// One latency sample per op (or per batch, where the workload says so).
    pub samples: Vec<OpSample>,
    /// Host seconds from the first op's start to the last op's end.
    pub elapsed_s: f64,
}

impl Window {
    /// Counts the op behind latency sample `i`, which covers `ops` ops, as
    /// failed because its output failed a check; it then ranks slower than
    /// every success.
    pub fn fail_op(&mut self, i: usize, ops: u64) {
        if std::mem::replace(&mut self.samples[i].ok, false) {
            self.failed += ops;
        }
    }

    /// Completed ops per host second.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed_s
    }

    /// Latency samples in ms, failures ranked after every success.
    fn ranked_ms(&self) -> Vec<f64> {
        let slowest_ok = self
            .samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.secs)
            .fold(0.0, f64::max);
        let mut keyed: Vec<(bool, f64)> = self
            .samples
            .iter()
            .map(|s| {
                if s.ok {
                    (false, s.secs * 1e3)
                } else {
                    (true, s.secs.max(slowest_ok) * 1e3)
                }
            })
            .collect();
        keyed.sort_by(|x, y| x.partial_cmp(y).expect("latencies are finite"));
        keyed.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Median latency in ms.
    pub fn p50_ms(&self) -> f64 {
        nearest_rank(&self.ranked_ms(), 0.5)
    }

    /// The tail latency in ms, with the percentile it is taken at.
    pub fn tail_ms(&self) -> (f64, f64) {
        let q = tail_quantile(self.samples.len());
        (nearest_rank(&self.ranked_ms(), q), q)
    }
}

/// The tail percentile a sample of `n` supports: p99, or the highest
/// percentile that still has at least ten samples beyond it, never below
/// the median.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99)
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    nearest_rank(&v, 0.5)
}

/// Runs `setup` `reps` times and returns the median host seconds together
/// with the last repetition's value, which the timed window then uses.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let value = setup();
        secs.push(t0.elapsed().as_secs_f64());
        // Dropping the previous repetition's value is not timed.
        kept = Some(value);
    }
    (median(&secs), kept.expect("at least one setup repetition"))
}

/// FNV-1a (64-bit) over a stream of byte strings.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` (and a separator) into the digest.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Simulated totals of one workload's distinct inputs. Simulated counts
/// are deterministic, so these must repeat exactly across runs, traced or
/// not, and across any change that only speeds up the simulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimTotals {
    /// Cycles per system: CPU, SIGMA-like, Sparch-like, GAMMA-like,
    /// Flexagon.
    pub cycles: [u64; 5],
    /// Flexagon on-chip bytes.
    pub onchip_bytes: u64,
    /// Flexagon off-chip bytes.
    pub offchip_bytes: u64,
    /// Flexagon STR-cache hits.
    pub cache_hits: u64,
    /// Flexagon STR-cache lookups.
    pub cache_lookups: u64,
    /// FNV-1a over every serialized report, in input order.
    pub digest: u64,
}

impl SimTotals {
    /// Adds one Flexagon report's traffic and cache counts.
    pub fn add_flexagon(&mut self, r: &ExecutionReport) {
        self.cycles[4] += r.total_cycles;
        self.onchip_bytes += r.onchip_bytes();
        self.offchip_bytes += r.offchip_bytes();
        self.cache_hits += r.cache.hits();
        self.cache_lookups += r.cache.total();
    }

    /// Appends the per-layer `sim.*` metrics.
    pub fn push_metrics(&self, m: &mut Metrics) {
        for (name, cycles) in ["cpu", "sigma", "sparch", "gamma", "flexagon"]
            .iter()
            .zip(self.cycles)
        {
            m.push(&format!("sim.cycles.{name}"), cycles as f64, "cycles");
        }
        m.push("sim.onchip_mb", mib(self.onchip_bytes), "MiB");
        m.push("sim.offchip_mb", mib(self.offchip_bytes), "MiB");
        let miss_rate = if self.cache_lookups == 0 {
            0.0
        } else {
            (self.cache_lookups - self.cache_hits) as f64 / self.cache_lookups as f64
        };
        m.push("sim.cache_miss_rate", miss_rate, "ratio");
        // 53 bits, so the JSON number is exact.
        m.push("sim.digest", (self.digest >> 11) as f64, "hash");
    }

    /// One human-readable line.
    pub fn summary(&self) -> String {
        format!(
            "cycles cpu={} sigma={} sparch={} gamma={} flexagon={} onchip={}B offchip={}B \
             cache={}/{} digest={:016x}",
            self.cycles[0],
            self.cycles[1],
            self.cycles[2],
            self.cycles[3],
            self.cycles[4],
            self.onchip_bytes,
            self.offchip_bytes,
            self.cache_hits,
            self.cache_lookups,
            self.digest
        )
    }
}

/// Bytes to MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Named metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    /// Prints one `name = value unit` line per metric.
    pub fn print_lines(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<28} {value:>18} {unit}");
        }
    }

    /// The metrics as the JSON object of the result line. A non-finite
    /// value has no JSON form and is reported as `None`.
    pub fn to_json(&self) -> Option<String> {
        let mut parts = Vec::with_capacity(self.0.len());
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return None;
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Some(format!("{{{}}}", parts.join(", ")))
    }
}

/// Compares `c` against the reference product: same non-zero structure,
/// values within a relative tolerance (f32 sums in a different order).
pub fn matches_reference(c: &CompressedMatrix, want: &CompressedMatrix) -> bool {
    let triplets = |m: &CompressedMatrix| {
        let csr = m.converted(MajorOrder::Row);
        let mut v: Vec<(u32, u32, f32)> = csr
            .fibers()
            .flat_map(|(row, fiber)| {
                fiber
                    .iter()
                    .map(move |e| (row, e.coord, e.value))
                    .collect::<Vec<_>>()
            })
            .filter(|&(_, _, v)| v != 0.0)
            .collect();
        v.sort_by_key(|&(r, col, _)| (r, col));
        v
    };
    if (c.rows(), c.cols()) != (want.rows(), want.cols()) {
        return false;
    }
    let (got, want) = (triplets(c), triplets(want));
    got.len() == want.len()
        && got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.0 == w.0 && g.1 == w.1 && (g.2 - w.2).abs() <= 1e-3 * (1.0 + w.2.abs()))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Machine-wide CPU time and the part of it the hypervisor gave to other
/// guests (steal), in clock ticks, from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    Some((ticks.iter().take(8).sum(), *ticks.get(7)?))
}

/// Share of the machine's CPU time stolen since `since`, a reading of
/// [`cpu_ticks`]; 0 when `/proc/stat` cannot be read.
pub fn steal_share(since: Option<(u64, u64)>) -> f64 {
    match (since, cpu_ticks()) {
        (Some(before), Some(after)) => {
            (after.1 - before.1) as f64 / (after.0 - before.0).max(1) as f64
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(5000), 0.99);
        assert_eq!(tail_quantile(1000), 0.99);
        assert!((tail_quantile(100) - 0.9).abs() < 1e-12);
        assert_eq!(tail_quantile(8), 0.5);
    }

    #[test]
    fn failures_rank_slowest() {
        let w = Window {
            attempted: 3,
            failed: 1,
            samples: vec![
                OpSample {
                    secs: 0.003,
                    ok: true,
                },
                OpSample {
                    secs: 0.001,
                    ok: false,
                },
                OpSample {
                    secs: 0.002,
                    ok: true,
                },
            ],
            elapsed_s: 1.0,
        };
        assert_eq!(w.ranked_ms(), vec![2.0, 3.0, 3.0]);
        assert_eq!(w.ops_per_s(), 2.0);
    }
}
