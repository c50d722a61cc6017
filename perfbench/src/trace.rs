//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans are kept in memory and written out once,
//! as JSON lines, when a traced run ends. Untraced runs keep no spans;
//! [`Tracer::timed`] still returns the measured duration either way.

use crate::Args;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; [`ROOT`] when a span has no parent.
pub type SpanId = usize;

/// Parent id of top-level spans.
pub const ROOT: SpanId = usize::MAX;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: SpanId,
    request: u64,
}

/// The span recorder of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded (the traced run).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; `end` closes it.
    fn begin(&self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        let start_us = self.now_us();
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    fn end(&self, id: SpanId) {
        if id == ROOT {
            return;
        }
        let end_us = self.now_us();
        self.spans.lock().expect("span lock")[id].end_us = end_us;
    }

    /// Runs `f` inside a span and returns its result with its wall time
    /// in seconds.
    pub fn timed<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent, request);
        let start = Instant::now();
        let out = f(id);
        let secs = start.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    /// Writes every span to `.bench_build/perfbench/spans-<workload>-<seed>.jsonl`
    /// under the working directory. No-op for untraced runs.
    pub fn write_out(&self, args: &Args) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let dir = std::path::Path::new(".bench_build").join("perfbench");
        std::fs::create_dir_all(&dir)?;
        let spans = self.spans.lock().expect("span lock");
        let mut text = String::with_capacity(spans.len() * 96);
        for (id, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            text.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"request\":{}}}\n",
                s.name, s.start_us, s.end_us, s.request
            ));
        }
        let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, text)?;
        eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        );
        Ok(())
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
