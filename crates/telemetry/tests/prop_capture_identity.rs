//! Byte-identity of the registry and snapshot exports against the
//! `String`-keyed algorithms they replaced.
//!
//! [`MetricsRegistry`] stores samples in a scope → name nested map and
//! [`SnapshotHub`] interns keys and diffs counters in a merge walk. Both
//! must produce exactly what the original code did: registry rows sorted
//! by `(scope, name)` whatever the insertion and overwrite order, and
//! snapshot CSV/JSON equal to a capture that keyed everything by freshly
//! allocated `(String, String)` pairs. The reference capture is kept below.

use bionic_sim::time::SimTime;
use bionic_telemetry::export::fmt_us;
use bionic_telemetry::{MetricValue, MetricsRegistry, SnapshotHub, WindowValue};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Scopes and names chosen so that prefixes and `/` separators exercise
/// the ordering (`a` < `a/b` < `ab`).
const SCOPES: [&str; 4] = ["a", "a/b", "ab", "engine"];
const NAMES: [&str; 4] = ["x", "x_y", "xy", "committed"];

/// One registry write: `(scope, name, is_counter, value)`.
type Op = (usize, usize, bool, u64);

fn op() -> impl Strategy<Value = Op> {
    (0..SCOPES.len(), 0..NAMES.len(), 0u8..3, 0u64..1_000_000)
        .prop_map(|(scope, name, kind, value)| (scope, name, kind != 0, value))
}

/// The sample an op writes.
fn sample(&(_, _, is_counter, value): &Op) -> MetricValue {
    if is_counter {
        MetricValue::Counter(value)
    } else {
        MetricValue::Gauge(value as f64 / 7.0)
    }
}

fn apply(m: &mut MetricsRegistry, o: &Op) {
    let (scope, name) = (SCOPES[o.0], NAMES[o.1]);
    match sample(o) {
        MetricValue::Counter(v) => m.counter(scope, name, v),
        MetricValue::Gauge(v) => m.gauge(scope, name, v),
    }
}

fn render(v: &WindowValue) -> String {
    match v {
        WindowValue::Delta(d) => format!("{d}"),
        WindowValue::Level(l) => format!("{l:.6}"),
    }
}

/// One reference window: index, start, end and owned-string rows.
type ReferenceWindow = (u64, SimTime, SimTime, Vec<(String, String, WindowValue)>);

/// The original `String`-keyed capture: previous counters in a
/// `BTreeMap<(String, String), u64>`, rows as owned string pairs.
#[derive(Default)]
struct ReferenceHub {
    prev: BTreeMap<(String, String), u64>,
    windows: Vec<ReferenceWindow>,
    cursor: SimTime,
}

impl ReferenceHub {
    fn capture(&mut self, end: SimTime, metrics: &MetricsRegistry) {
        let start = self.cursor;
        let end = end.max(start);
        let mut rows = Vec::new();
        for (scope, name, value) in metrics.iter() {
            let wv = match value {
                MetricValue::Counter(cur) => {
                    let key = (scope.to_string(), name.to_string());
                    let prev = self.prev.insert(key, cur).unwrap_or(0);
                    WindowValue::Delta(cur as i64 - prev as i64)
                }
                MetricValue::Gauge(level) => WindowValue::Level(level),
            };
            rows.push((scope.to_string(), name.to_string(), wv));
        }
        self.windows
            .push((self.windows.len() as u64, start, end, rows));
        self.cursor = end;
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("window,start_us,end_us,scope,name,kind,value\n");
        for (index, start, end, rows) in &self.windows {
            for (scope, name, value) in rows {
                let kind = match value {
                    WindowValue::Delta(_) => "delta",
                    WindowValue::Level(_) => "level",
                };
                out.push_str(&format!(
                    "{},{},{},{},{},{},{}\n",
                    index,
                    fmt_us(start.as_ps()),
                    fmt_us(end.as_ps()),
                    scope,
                    name,
                    kind,
                    render(value)
                ));
            }
        }
        out
    }

    fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (index, start, end, rows)) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"window\":{},\"start_us\":\"{}\",\"end_us\":\"{}\",\"metrics\":{{",
                index,
                fmt_us(start.as_ps()),
                fmt_us(end.as_ps())
            ));
            for (j, (scope, name, value)) in rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{scope}/{name}\":{}", render(value)));
            }
            out.push_str("}}");
        }
        out.push(']');
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Registry order is `(scope, name)` order and the last write wins,
    // whatever order the writes and overwrites came in.
    #[test]
    fn registry_iterates_in_sorted_key_order(ops in prop::collection::vec(op(), 0..60)) {
        let mut m = MetricsRegistry::new();
        let mut reference: BTreeMap<(String, String), MetricValue> = BTreeMap::new();
        for o in &ops {
            apply(&mut m, o);
            let key = (SCOPES[o.0].to_string(), NAMES[o.1].to_string());
            reference.insert(key, sample(o));
        }
        let got: Vec<(String, String, MetricValue)> = m
            .iter()
            .map(|(s, n, v)| (s.to_string(), n.to_string(), v))
            .collect();
        let want: Vec<(String, String, MetricValue)> = reference
            .iter()
            .map(|((s, n), v)| (s.clone(), n.clone(), *v))
            .collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(m.len(), reference.len());
        prop_assert_eq!(m.is_empty(), reference.is_empty());
        let mut csv = String::from("scope,name,value\n");
        for ((s, n), v) in &reference {
            csv.push_str(&format!("{s},{n},{}\n", v.render()));
        }
        prop_assert_eq!(m.to_csv(), csv);
        for ((s, n), v) in &reference {
            prop_assert_eq!(m.get(s, n), Some(*v));
        }
    }

    // Interned capture ≡ String-keyed capture, byte for byte, with keys
    // that first appear mid-run (their first delta counts from 0),
    // counters that move backwards, gauges, keys that switch kind, and
    // captures from a fresh registry that lacks keys the hub has seen.
    #[test]
    fn interned_capture_matches_string_keyed_reference(
        steps in prop::collection::vec(
            (prop::collection::vec(op(), 0..8), 0u8..6),
            1..25,
        ),
        window_ns in 1u64..5_000,
    ) {
        let window = SimTime::from_ns(window_ns as f64);
        let mut hub = SnapshotHub::new(window);
        let mut reference = ReferenceHub::default();
        let mut m = MetricsRegistry::new();
        for (i, (ops, reset)) in steps.iter().enumerate() {
            if *reset == 0 {
                m = MetricsRegistry::new();
            }
            for o in ops {
                apply(&mut m, o);
            }
            let end = window * (i as u64 + 1);
            hub.capture(end, &m);
            reference.capture(end, &m);
        }
        prop_assert_eq!(hub.len(), reference.windows.len());
        prop_assert_eq!(hub.to_csv(), reference.to_csv());
        prop_assert_eq!(hub.to_json(), reference.to_json());
        // The per-key lookups agree with the rows they index.
        for (w, (_, _, _, rows)) in hub.windows().zip(&reference.windows) {
            for (scope, name, value) in rows {
                match value {
                    WindowValue::Delta(d) => prop_assert_eq!(w.counter_delta(scope, name), *d),
                    WindowValue::Level(l) => prop_assert_eq!(w.gauge_level(scope, name), Some(*l)),
                }
            }
        }
    }
}
