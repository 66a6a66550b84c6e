//! In-memory spans for the traced run.
//!
//! Each span records a name, its start and end, the span that caused it and
//! the job it belongs to. Spans stay in memory while the workload runs and
//! are written out once, at the end; a layer's self time is its duration
//! minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id, in order of creation.
    pub id: u64,
    /// The enclosing span, `None` for a root.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `topology.view_build`.
    pub name: String,
    /// Fingerprint of the job the span belongs to, if any.
    pub job: Option<String>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// further spans.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        job: Option<&str>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        // The id only has to be unique; it publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the log")
            .push(Span {
                id,
                parent,
                name: name.to_string(),
                job: job.map(str::to_string),
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span recorder panicked while holding the log")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Durations in seconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Total seconds of every span called `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    durations(spans, name).iter().sum()
}

/// Checks that every span has a recorded parent that encloses it.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for span in spans {
        if span.end_ns < span.start_ns {
            return Err(format!(
                "span {} `{}` ends before it starts",
                span.id, span.name
            ));
        }
        let Some(parent_id) = span.parent else {
            continue;
        };
        let parent = by_id
            .get(&parent_id)
            .ok_or_else(|| format!("span {} `{}` has no parent {parent_id}", span.id, span.name))?;
        if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
            return Err(format!(
                "span {} `{}` is not inside its parent `{}`",
                span.id, span.name, parent.name
            ));
        }
    }
    Ok(())
}

/// Self time in seconds of every span, by id: its duration minus the union
/// of its children's intervals (children of one parent may overlap when
/// they ran on different threads).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut intervals = children.remove(&span.id).unwrap_or_default();
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for (start, end) in intervals {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            (span.id, own as f64 / 1e9)
        })
        .collect()
}

/// Per span name: how many spans, their total seconds and their total self
/// seconds.
pub fn layer_summary(spans: &[Span]) -> BTreeMap<String, (usize, f64, f64)> {
    let own = self_times(spans);
    let mut summary: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for span in spans {
        let entry = summary.entry(span.name.clone()).or_default();
        entry.0 += 1;
        entry.1 += span.secs();
        entry.2 += own[&span.id];
    }
    summary
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let job = s
            .job
            .as_ref()
            .map_or("null".to_string(), |j| format!("\"{j}\""));
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"job\":{job},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
