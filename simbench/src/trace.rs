//! Span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer's public function, kept in memory, and written out as JSON lines
//! once the run ends. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Parent id of a span that has none.
pub const ROOT: u64 = 0;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Self time: span time not covered by child spans.
    pub busy_s: f64,
    /// Whole span time, children included.
    pub span_s: f64,
    /// Summed time of direct children.
    pub child_s: f64,
    /// Number of spans.
    pub calls: u64,
}

/// In-memory span store, shared by the workload's threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserves a span id, for a span whose children start before it ends.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved `id`.
    pub fn record(&self, id: u64, name: &'static str, parent: u64, start: Instant, end: Instant) {
        let span = Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span store lock").push(span);
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent spans of its own.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, parent, start, Instant::now());
        out
    }

    /// Records back-to-back child spans of `parent` that start at `start`,
    /// one per `(name, duration)`.
    pub fn record_stages(&self, parent: u64, start: Instant, stages: &[(&'static str, Duration)]) {
        let mut at = start;
        for &(name, d) in stages {
            let id = self.id();
            self.record(id, name, parent, at, at + d);
            at += d;
        }
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let spans = self.spans.lock().expect("span store lock");
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter() {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for s in spans.iter() {
            let span_ns = s.end_ns.saturating_sub(s.start_ns);
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let child_ns: u64 = kids.iter().map(|&(a, b)| b.saturating_sub(a)).sum();
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            let t = out.entry(s.name).or_default();
            t.busy_s += (span_ns - covered) as f64 * 1e-9;
            t.span_s += span_ns as f64 * 1e-9;
            t.child_s += child_ns as f64 * 1e-9;
            t.calls += 1;
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store lock").iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
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
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(covered_ns(&[(10, 20), (15, 30), (40, 50)], 0, 100), 30);
        assert_eq!(covered_ns(&[(0, 200)], 50, 100), 50);
        assert_eq!(covered_ns(&[], 0, 100), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        let s = Instant::now();
        let parent = t.id();
        t.record_stages(parent, s, &[("child", Duration::from_millis(3))]);
        t.record(parent, "parent", ROOT, s, s + Duration::from_millis(5));
        let totals = t.totals();
        assert!((totals["parent"].busy_s - 0.002).abs() < 1e-9);
        assert!((totals["parent"].child_s - 0.003).abs() < 1e-9);
        assert_eq!(totals["child"].calls, 1);
    }
}
