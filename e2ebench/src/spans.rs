//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! the crates' public functions: the program itself is not instrumented.
//! Each span carries its name, start and end (ns since the run began), the
//! span that was open when it started, the run id shared by every span of
//! one process, and how many units of work it covers. Spans stay in memory
//! and are written out as JSON lines when the run ends; the per-layer
//! metrics are computed from them.

use spotbid_bench::timing::stats_from_samples;
use spotbid_json::Json;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work the span covers (calls, bids, requests).
    pub items: u64,
}

/// The recorder. A disabled recorder runs every closure untouched and
/// records nothing, so the untraced run pays nothing for it.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    run_id: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool, run_id: u64, epoch: Instant) -> Self {
        Spans {
            enabled,
            run_id,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` covering `items` units of work.
    /// Spans opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &str, items: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            items,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span timed elsewhere (e.g. a request from its due time to
    /// its reply), as a child of the currently open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, items: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            id: self.spans.len(),
            parent: self.open.last().copied(),
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            items,
        });
    }

    /// Times `f` in spans of a batch of calls each, until `budget` has
    /// passed and at least five spans were taken. The batch doubles, untimed,
    /// until it lasts 100 µs, which keeps a span's own cost out of the
    /// figure and a probe to at most `budget` / 100 µs spans.
    pub fn probe<T>(&mut self, name: &str, budget: Duration, mut f: impl FnMut() -> T) {
        let t0 = Instant::now();
        let mut batch = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            if t.elapsed() >= Duration::from_micros(100) || batch >= 1 << 20 {
                break;
            }
            batch *= 2;
        }
        let mut taken = 0;
        while taken < 5 || t0.elapsed() < budget {
            self.span(name, batch, |_| {
                for _ in 0..batch {
                    black_box(f());
                }
            });
            taken += 1;
        }
    }

    /// Per-item durations (ns) of every span named `name`.
    pub fn per_item_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / s.items.max(1) as f64)
            .collect()
    }

    /// Median per-item duration (ns) of the spans named `name`, through
    /// `spotbid_bench::timing`'s outlier-trimmed statistics.
    ///
    /// # Panics
    ///
    /// If no such span was recorded (a probe the run forgot to take).
    pub fn median_ns(&self, name: &str) -> f64 {
        let samples = self.per_item_ns(name);
        assert!(!samples.is_empty(), "no spans named {name}");
        stats_from_samples(samples, 1).median_ns
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in &self.spans {
            let mut m = BTreeMap::new();
            m.insert("run".to_owned(), Json::Str(format!("{:016x}", self.run_id)));
            m.insert("id".to_owned(), Json::Num(s.id as f64));
            m.insert(
                "parent".to_owned(),
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            );
            m.insert("name".to_owned(), Json::Str(s.name.clone()));
            m.insert("start_ns".to_owned(), Json::Num(s.start_ns as f64));
            m.insert("end_ns".to_owned(), Json::Num(s.end_ns as f64));
            m.insert("items".to_owned(), Json::Num(s.items as f64));
            out.push_str(&spotbid_json::to_string(&Json::Obj(m)));
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}
