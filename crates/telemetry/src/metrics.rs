//! Named counters and gauges with per-component scoping.
//!
//! The registry is a scope → name nested `BTreeMap`, so every iteration —
//! and therefore every CSV export — is in one deterministic `(scope,
//! name)` order regardless of insertion order or job count. Collection
//! runs at the end of a run and at failure snapshots, and also once per
//! snapshot window in windowed drivers (`run_hybrid` collects every
//! 200 µs of sim time), so it is on a per-window hot path: overwriting a
//! metric that already exists looks it up by `&str` and allocates
//! nothing. Only a metric's first sample allocates its key strings.

use std::collections::BTreeMap;

/// A metric sample: a monotonic count or a point-in-time level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count (events, bytes, ops).
    Counter(u64),
    /// A point-in-time level (occupancy fraction, joules, bandwidth).
    Gauge(f64),
}

impl MetricValue {
    /// Render for CSV: counters as integers, gauges with six fractional
    /// digits (fixed width keeps exports byte-stable across platforms).
    pub fn render(&self) -> String {
        match self {
            MetricValue::Counter(v) => format!("{v}"),
            MetricValue::Gauge(v) => format!("{v:.6}"),
        }
    }
}

/// A deterministic registry of `(scope, name) -> value` metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    values: BTreeMap<String, BTreeMap<String, MetricValue>>,
    len: usize,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set counter `scope/name` to `v` (overwrites any prior sample).
    pub fn counter(&mut self, scope: &str, name: &str, v: u64) {
        self.set(scope, name, MetricValue::Counter(v));
    }

    /// Set gauge `scope/name` to `v` (overwrites any prior sample).
    pub fn gauge(&mut self, scope: &str, name: &str, v: f64) {
        self.set(scope, name, MetricValue::Gauge(v));
    }

    fn set(&mut self, scope: &str, name: &str, v: MetricValue) {
        let names = match self.values.get_mut(scope) {
            Some(names) => names,
            None => self.values.entry(scope.to_string()).or_default(),
        };
        match names.get_mut(name) {
            Some(slot) => *slot = v,
            None => {
                names.insert(name.to_string(), v);
                self.len += 1;
            }
        }
    }

    /// Look up one metric.
    pub fn get(&self, scope: &str, name: &str) -> Option<MetricValue> {
        self.values.get(scope)?.get(name).copied()
    }

    /// Look up a counter, defaulting to 0 when absent or a gauge.
    pub fn counter_value(&self, scope: &str, name: &str) -> u64 {
        match self.get(scope, name) {
            Some(MetricValue::Counter(v)) => v,
            _ => 0,
        }
    }

    /// Number of recorded metrics.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate `(scope, name, value)` in deterministic `(scope, name)`
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, MetricValue)> {
        self.values.iter().flat_map(|(scope, names)| {
            names
                .iter()
                .map(move |(name, v)| (scope.as_str(), name.as_str(), *v))
        })
    }

    /// Render the whole registry as a `scope,name,value` CSV (with header,
    /// trailing newline, rows in deterministic order).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("scope,name,value\n");
        for (scope, name, value) in self.iter() {
            out.push_str(scope);
            out.push(',');
            out.push_str(name);
            out.push(',');
            out.push_str(&value.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rows_are_sorted_regardless_of_insertion_order() {
        let mut m = MetricsRegistry::new();
        m.counter("wal", "flushes", 3);
        m.counter("engine", "committed", 10);
        m.gauge("fabric", "occupancy", 0.5);
        let csv = m.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines,
            vec![
                "scope,name,value",
                "engine,committed,10",
                "fabric,occupancy,0.500000",
                "wal,flushes,3",
            ]
        );
    }

    #[test]
    fn overwrite_and_lookup() {
        let mut m = MetricsRegistry::new();
        m.counter("engine", "submitted", 1);
        m.counter("engine", "submitted", 2);
        assert_eq!(m.counter_value("engine", "submitted"), 2);
        assert_eq!(m.counter_value("engine", "missing"), 0);
        assert_eq!(m.len(), 1);
    }
}
