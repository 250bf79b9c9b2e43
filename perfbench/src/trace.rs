//! Host-time span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! each crate, kept in memory with parent links, and written out once at
//! the end as a Chrome trace. A span's self time is its duration minus the
//! time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: u64,
    /// Median duration, ns.
    pub median_ns: f64,
}

/// [`SpanStats`] by span name.
pub type SpanTable = BTreeMap<&'static str, SpanStats>;

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder with room for `capacity` spans, reserved up front so
    /// recording does not allocate inside the measured loop.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` as a child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    #[inline]
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Totals, self times and median durations per span name.
    pub fn stats(&self) -> SpanTable {
        assert!(self.open.is_empty(), "every span is closed");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = SpanTable::new();
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child);
            durations.entry(s.name).or_default().push(dur as f64);
        }
        for (name, d) in durations {
            out.get_mut(name).expect("same names").median_ns = crate::stats::median(&d);
        }
        out
    }

    /// The first `limit` spans as a Chrome trace (complete `X` events on
    /// one track, in start order; nesting follows from the intervals).
    pub fn chrome_trace(&self, limit: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"benchmark\"}}",
        );
        for s in self.spans.iter().take(limit) {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_trace_validates() {
        let mut t = Tracer::with_capacity(8);
        t.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let st = t.stats();
        assert_eq!(st["outer"].count, 2);
        assert_eq!(st["inner"].count, 1);
        assert_eq!(
            st["outer"].self_ns,
            st["outer"].total_ns - st["inner"].total_ns
        );
        bionic_telemetry::validate_chrome_trace(&t.chrome_trace(usize::MAX)).unwrap();
    }
}
