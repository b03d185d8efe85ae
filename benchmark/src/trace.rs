//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! Spans live in memory until the run ends and are then written out as
//! tab-separated lines. A span's self time is its duration minus the time
//! its child spans cover; a layer's self time is the sum over its spans.
//! The layer of a span is the part of its name before the first `.`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub query: Option<u64>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span store of one traced pass.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// The query this thread is running, when the benchmark knows it.
    static QUERY: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[self.index].end_ns = end;
        }
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
    }
}

/// Mark the query the calling thread runs from now on (`None` = unknown).
pub fn set_query(query: Option<u64>) {
    QUERY.with(|q| q.set(query));
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`, child of the innermost open span of this
    /// thread.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let query = QUERY.with(Cell::get);
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name,
                query,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Record an already-finished interval (for times a layer reports
    /// itself, such as a scheduler ticket's queue and run time).
    pub fn record(&self, name: &'static str, query: Option<u64>, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.lock().expect("span store poisoned").push(Span {
            name,
            query,
            parent: None,
            start_ns,
            end_ns,
        });
    }

    /// Total duration of every span named `name`, ns, and how many there are.
    pub fn total(&self, name: &str) -> (u64, u64) {
        let spans = self.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + (s.end_ns - s.start_ns), n + 1))
    }

    /// Self time per span name, ns: duration minus the time covered by the
    /// span's children (children of one span run one after another on its
    /// thread, so their durations add up).
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// Write every span as `id parent query name start_us end_us`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tquery\tname\tstart_us\tend_us")?;
        let spans = self.spans.lock().expect("span store poisoned");
        for (i, s) in spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{:.3}\t{:.3}",
                opt(s.parent.map(|p| p as u64)),
                opt(s.query),
                s.name,
                s.start_ns as f64 / 1000.0,
                s.end_ns as f64 / 1000.0
            )?;
        }
        out.flush()
    }
}

/// Open a span on `tracer` when tracing is on.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.enter(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.enter("exec.execute");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = tracer.enter("model.call");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        let by_name = tracer.self_ns_by_name();
        let (total_exec, n) = tracer.total("exec.execute");
        assert_eq!(n, 1);
        assert!(by_name["model.call"] >= 5_000_000);
        assert_eq!(by_name["exec.execute"] + by_name["model.call"], total_exec);
        let spans = tracer.spans.lock().unwrap();
        assert_eq!(spans[1].parent, Some(0));
    }
}
