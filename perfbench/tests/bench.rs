//! The benchmark's own tests: determinism of every workload, the metric
//! set `BENCHMARK.json` names, and the traced run's Chrome trace.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::reference::Reference;
use perfbench::workloads::{rep, Size, Workload};
use perfbench::{parse_args, result_json, run, Args, END_TO_END, PER_LAYER};

/// `(name, unit)` of every metric listed under `section` in the
/// repository's `BENCHMARK.json` (a flat, hand-written file: each metric
/// object carries `"name"` then `"unit"`).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("{section} missing"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn args(w: Workload, seed: u64, trace: bool) -> Args {
    Args {
        workload: w,
        seed,
        seconds: 0.01,
        trace,
    }
}

#[test]
fn every_workload_repeats_exactly_at_one_seed() {
    for w in Workload::ALL {
        let a = rep(w, 5, Size::Short, true, None, None);
        let b = rep(w, 5, Size::Short, true, None, None);
        assert!(a.errors.is_empty(), "{}: {:?}", w.name(), a.errors);
        assert_eq!(a.failed, 0, "{}", w.name());
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_eq!(a.sim, b.sim, "{}", w.name());
        assert_eq!(a.counters, b.counters, "{}", w.name());
        assert!(a.sim.txn_per_s > 0.0 && a.sim.p50_us > 0.0, "{}", w.name());
    }
}

#[test]
fn another_seed_changes_the_model_and_passes_every_check() {
    for w in Workload::ALL {
        let a = rep(w, 5, Size::Short, false, None, None);
        let b = rep(w, 6, Size::Short, false, None, None);
        assert!(b.errors.is_empty(), "{}: {:?}", w.name(), b.errors);
        assert_ne!(a.digest, b.digest, "{}", w.name());
    }
}

#[test]
fn reference_kernel_laps_leave_the_model_unchanged() {
    let reference = Reference::new();
    for w in Workload::ALL {
        let plain = rep(w, 5, Size::Short, false, None, None);
        let timed = rep(w, 5, Size::Short, false, None, Some(&reference));
        assert_eq!(plain.digest, timed.digest, "{}", w.name());
        assert!(plain.laps.is_empty() && plain.ref_ms.is_empty());
        assert!(!timed.laps.is_empty(), "{}", w.name());
        assert_eq!(timed.ref_ms.len(), timed.laps.len() + 1, "{}", w.name());
        assert!(timed.laps.iter().chain(&timed.ref_ms).all(|&x| x > 0.0));
    }
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for (section, trace, table) in [
        ("end_to_end", false, &END_TO_END[..]),
        ("per_layer", true, &PER_LAYER[..]),
    ] {
        let names = declared(section);
        assert_eq!(names.len(), table.len(), "{section}");
        let o = run(&args(Workload::TatpHot, 3, trace), Size::Short);
        assert!(o.correct, "{:?}", o.errors);
        let line = result_json(&o);
        for (name, unit) in names {
            let needle = format!("\"{name}\": {{\"value\": ");
            let at = line
                .find(&needle)
                .unwrap_or_else(|| panic!("{name} missing from {line}"));
            let object = &line[at..at + line[at..].find('}').expect("closed object")];
            assert!(
                object.ends_with(&format!("\"unit\": \"{unit}\"")),
                "{name} is not printed in {unit}: {object}"
            );
        }
    }
}

#[test]
fn traced_runs_write_valid_chrome_traces_and_keep_the_model() {
    for w in Workload::ALL {
        let o = run(&args(w, 4, true), Size::Short);
        assert!(o.correct, "{}: {:?}", w.name(), o.errors);
        let path = o.trace_path.expect("traced runs write a trace");
        let text = std::fs::read_to_string(&path).expect("trace written");
        bionic_telemetry::validate_chrome_trace(&text).expect("valid Chrome trace");
        let value = |name: &str| o.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert!(value("workloads.gen_ns_per_txn") > 0.0, "{}", w.name());
        assert!(value("core.submit_ns_per_txn") > 0.0, "{}", w.name());
    }
}

#[test]
fn bad_arguments_are_refused() {
    let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
    assert!(parse("--workload tatp-hot --seed 1 --seconds 2 --trace 1").is_ok());
    assert!(parse("--workload nope").is_err());
    assert!(parse("--seed 1").is_err());
    assert!(parse("--workload tatp-hot --trace 2").is_err());
    assert!(parse("--workload tatp-hot --seconds 0").is_err());
    assert!(parse("--workload tatp-hot --bogus 1").is_err());
}
