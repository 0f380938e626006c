//! In-memory spans for the traced run.
//!
//! Spans are recorded from the harness's own files, around each call into a
//! layer's public function: name, start, end, the span that caused it, and
//! the job they belong to. A span reads the clock itself when it opens and
//! when it closes, in the traced run only, so what tracing costs and what
//! the spans leave uncovered are measured, not constructed. Spans stay in
//! memory while the workload runs and are written out once, at exit. Spans
//! inside the program are a later issue; until then what sits inside `rpc`
//! is split by differential replay (see `layers.rs`).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifier of a span within one [`Tracer`]; 0 is "no parent".
pub type SpanId = u32;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `cloud.protocol.job_encode`.
    pub name: &'static str,
    /// The job this span belongs to; spans of one job share it.
    pub job: u64,
    /// This span's id (1-based).
    pub id: SpanId,
    /// The enclosing span, or 0 for a root.
    pub parent: SpanId,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span sink owned by one thread; merge several with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch` (share one epoch between the
    /// tracers of one run so their spans line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now and returns its id; it stays zero-length until
    /// [`Tracer::end`] closes it.
    pub fn begin(&mut self, name: &'static str, job: u64, parent: SpanId) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            job,
            id,
            parent,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Duration of span `id` in milliseconds.
    pub fn ms(&self, id: SpanId) -> f64 {
        self.spans[id as usize - 1].ms()
    }

    /// Records a child of `parent` whose duration the callee reported
    /// itself (a layer that times its own inner step), starting `offset_s`
    /// seconds into the parent.
    pub fn reported_child(
        &mut self,
        name: &'static str,
        parent: SpanId,
        offset_s: f64,
        seconds: f64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        let Span { job, start_ns, .. } = self.spans[parent as usize - 1];
        let start_ns = start_ns + (offset_s.max(0.0) * 1e9) as u64;
        self.spans.push(Span {
            name,
            job,
            id,
            parent,
            start_ns,
            end_ns: start_ns + (seconds.max(0.0) * 1e9) as u64,
        });
        id
    }

    /// Moves `other`'s spans into this tracer, re-basing ids and parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        for mut s in other.spans {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            self.spans.push(s);
        }
    }

    /// Per span named `root`: its self time — the duration minus what its
    /// direct children cover — as a share of the duration.
    pub fn unattributed_shares(&self, root: &str) -> Vec<f64> {
        let mut child_ms = vec![0.0f64; self.spans.len() + 1];
        for s in &self.spans {
            child_ms[s.parent as usize] += s.ms();
        }
        self.spans
            .iter()
            .filter(|s| s.name == root && s.end_ns > s.start_ns)
            .map(|s| (s.ms() - child_ms[s.id as usize]) / s.ms())
            .collect()
    }

    /// Writes the spans as tab-separated text: one header line, one span
    /// per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tjob\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `call` inside a span named `name` under `parent` when there is a
/// tracer, and bare when there is none; returns the span's id (0 untraced).
pub fn spanned<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    job: u64,
    parent: SpanId,
    call: impl FnOnce() -> R,
) -> (R, SpanId) {
    match tracer {
        Some(t) => {
            let id = t.begin(name, job, parent);
            let out = call();
            t.end(id);
            (out, id)
        }
        None => (call(), 0),
    }
}
