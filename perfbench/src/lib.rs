//! The repository benchmark: host speed and modelled performance of the
//! bionic DBMS simulator on four workloads. See `perfbench/README.md`.
//!
//! A run repeats one workload ([`workloads::rep`]) until `--seconds` have
//! passed, at least [`MIN_REPS`] times after a first, checking repetition,
//! and reports medians of host times scaled by the [`reference`] kernel
//! timed between laps. With `--trace 1` it alternates untraced and traced
//! repetitions and reports the per-layer metrics instead.

mod alloc;
mod layers;
pub mod reference;
mod stats;
mod trace;
pub mod workloads;

use reference::Reference;
use stats::median;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{SpanStats, SpanTable, Tracer};
use workloads::{Rep, Size, Workload, DEFAULT_SEED};

/// Fewest repetitions in a run: set-up and host time are medians of at
/// least this many samples.
const MIN_REPS: usize = 3;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("host_txn_per_s", "txn/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_txn_per_s", "txn/s"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_joules_per_txn", "J"),
];

/// Per-layer metrics (`--trace 1`), with units. A metric whose layer the
/// workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("workloads.gen_ns_per_txn", "ns"),
    ("core.submit_ns_per_txn", "ns"),
    ("core.placement_tick_ns", "ns"),
    ("scan.scan_us", "us"),
    ("overlay.query_range_ns", "ns"),
    ("telemetry.collect_ns", "ns"),
    ("cluster.execute_single_ns", "ns"),
    ("cluster.execute_cross_ns", "ns"),
    ("cluster.verify_s", "s"),
    ("btree.get_ns", "ns"),
    ("wal.append_ref_ns", "ns"),
    ("storage.page_hit_ns", "ns"),
    ("sim.histogram_new_us", "us"),
    ("sim.histogram_record_ns", "ns"),
    ("core.allocs_per_txn", "count"),
    ("trace.overhead_frac", "ratio"),
    ("btree.probes_per_txn", "count"),
    ("btree.nodes_per_probe", "count"),
    ("wal.appends_per_txn", "count"),
    ("wal.bytes_per_txn", "B"),
    ("wal.flushes_per_txn", "count"),
    ("storage.pool_hits_per_txn", "count"),
    ("storage.pool_misses_per_txn", "count"),
    ("storage.dirty_evictions", "count"),
    ("queue.ops_per_txn", "count"),
    ("overlay.merges", "count"),
    ("sim.sg_accesses_per_txn", "count"),
    ("sim.pcie_transfers_per_txn", "count"),
    ("sim.arbiter_oltp_queued_us", "us"),
    ("sim.arbiter_oltp_wait_events", "count"),
    ("scan.scans", "count"),
    ("overlay.cache_hit_frac", "ratio"),
    ("core.fault_retries_per_txn", "count"),
    ("core.fault_fallbacks_per_txn", "count"),
    ("core.breaker_opens", "count"),
    ("core.placement_shed_windows", "count"),
    ("core.placement_brownout_windows", "count"),
    ("core.placement_transitions", "count"),
    ("telemetry.windows", "count"),
    ("cluster.msgs_per_txn", "count"),
    ("cluster.msgs_lost_frac", "ratio"),
    ("cluster.in_doubt_resolved", "count"),
    ("cluster.global_abort_frac", "ratio"),
    ("cluster.recoveries", "count"),
    ("host.calibration_ms", "ms"),
    ("trace.spans", "count"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Host seconds to keep repeating for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

/// Parse `--workload NAME --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run reports.
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Transactions offered across the timed phases.
    pub attempted: u64,
    /// Transactions interrupted or lost (all of them when a check failed).
    pub failed: u64,
    /// `(name, value, unit)` in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Failed checks.
    pub errors: Vec<String>,
    /// Model digest of the first repetition.
    pub digest: u64,
    /// Repetitions run (untraced and traced).
    pub reps: usize,
    /// The reference kernel's median time in this run, ms.
    pub calibration_ms: f64,
    /// Where the traced run wrote its Chrome trace.
    pub trace_path: Option<String>,
    /// Host txn/s of every repetition (untraced, then traced), in order.
    pub host_per_rep: Vec<f64>,
}

/// The digest recorded for `w` at [`DEFAULT_SEED`] and full size.
fn recorded_digest(w: Workload) -> Option<u64> {
    include_str!("../digests.txt").lines().find_map(|l| {
        let (name, hex) = l.split_once(' ')?;
        if name != w.name() {
            return None;
        }
        u64::from_str_radix(hex.trim().trim_start_matches("0x"), 16).ok()
    })
}

/// Checks every run makes across its repetitions: each repetition's own
/// checks, identical model digests, `sim_*` values and counters across
/// repetitions, and (at the default seed) the recorded digest.
fn cross_checks(args: &Args, size: Size, reps: &[&Rep], errors: &mut Vec<String>) {
    let first = reps[0];
    for r in reps {
        errors.extend(r.errors.iter().cloned());
        if r.digest != first.digest || r.sim != first.sim || r.counters != first.counters {
            errors.push(format!(
                "repetitions disagree: digest {:#018x} vs {:#018x}",
                r.digest, first.digest
            ));
        }
    }
    if args.seed == DEFAULT_SEED && size == Size::Full {
        match recorded_digest(args.workload) {
            Some(d) if d != first.digest => errors.push(format!(
                "model digest {:#018x} differs from the recorded {d:#018x}",
                first.digest
            )),
            Some(_) => {}
            None => errors.push(format!("no digest recorded for {}", args.workload.name())),
        }
    }
}

/// Run the benchmark as `args` asks.
pub fn run(args: &Args, size: Size) -> Outcome {
    if args.trace {
        return run_traced(args, size);
    }
    let start = Instant::now();
    // The first repetition runs the table checks and reads `peak_rss_mb`;
    // it is not timed against the kernel, whose maps are built after it
    // so that they are not counted in the peak.
    let first = workloads::rep(args.workload, args.seed, size, true, None, None);
    let reference = Reference::new();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let r = workloads::rep(
            args.workload,
            args.seed,
            size,
            false,
            None,
            Some(&reference),
        );
        reps.push(r);
    }
    let all: Vec<&Rep> = std::iter::once(&first).chain(&reps).collect();
    let mut errors = Vec::new();
    cross_checks(args, size, &all, &mut errors);
    let (host, setup) = scaled(&reps);
    let kernel_ms: Vec<f64> = reps.iter().flat_map(|r| r.ref_ms.iter().copied()).collect();
    let calibration_ms = median(&kernel_ms);
    let values = [
        median(&host),
        median(&setup),
        first.peak_rss_mb,
        first.sim.txn_per_s,
        first.sim.p50_us,
        first.sim.p99_us,
        first.sim.joules_per_txn,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    finish(all, errors, metrics, calibration_ms, None)
}

/// Host rates of every lap and set-up times of every repetition, scaled
/// to the machine on which the reference kernel takes
/// [`reference::NOMINAL_MS`]: a lap by the mean of the kernel timings
/// just before and just after it, a set-up by the timing that follows it.
fn scaled(reps: &[Rep]) -> (Vec<f64>, Vec<f64>) {
    let nominal = reference::NOMINAL_MS;
    let host = reps
        .iter()
        .flat_map(|r| {
            r.laps
                .iter()
                .zip(r.ref_ms.windows(2))
                .map(|(rate, k)| rate * (k[0] + k[1]) / 2.0 / nominal)
        })
        .collect();
    let setup = reps
        .iter()
        .map(|r| r.setup_s * nominal / r.ref_ms[0])
        .collect();
    (host, setup)
}

fn finish(
    reps: Vec<&Rep>,
    mut errors: Vec<String>,
    mut metrics: Vec<(&'static str, f64, &'static str)>,
    calibration_ms: f64,
    trace_path: Option<String>,
) -> Outcome {
    for (name, v, _) in &mut metrics {
        if !v.is_finite() {
            errors.push(format!("{name} is not finite"));
            *v = 0.0;
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.txns).sum();
    let host_per_rep = reps.iter().map(|r| r.txns as f64 / r.host_s).collect();

    let correct = errors.is_empty();
    Outcome {
        correct,
        attempted,
        failed: if correct {
            reps.iter().map(|r| r.failed).sum()
        } else {
            attempted
        },
        metrics,
        errors,
        digest: reps[0].digest,
        reps: reps.len(),
        calibration_ms,
        trace_path,
        host_per_rep,
    }
}

/// The traced run: pairs of an untraced and a traced repetition until
/// `--seconds` have passed (at least one pair), then the layer probes.
fn run_traced(args: &Args, size: Size) -> Outcome {
    let reference = Reference::new();
    let calibration_ms = median(&(0..5).map(|_| reference.time_ms()).collect::<Vec<_>>());
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, SpanTable)> = Vec::new();
    let mut chrome = String::new();
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let checks = plain.is_empty();
        let r = workloads::rep(args.workload, args.seed, size, checks, None, None);
        // Room for every span of a repetition, so recording never
        // reallocates inside the measured loop.
        let mut tr = Tracer::with_capacity(3 * r.txns as usize + 100_000);
        plain.push(r);
        let t = workloads::rep(args.workload, args.seed, size, false, Some(&mut tr), None);
        if chrome.is_empty() {
            chrome = tr.chrome_trace(TRACE_EXPORT_SPANS);
        }
        traced.push((t, tr.stats()));
    }
    let mut errors = Vec::new();
    let all: Vec<&Rep> = plain.iter().chain(traced.iter().map(|(r, _)| r)).collect();
    cross_checks(args, size, &all, &mut errors);

    let first = &plain[0];
    let txns = first.txns as f64;
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    m.extend(first.counters.iter().copied());

    // Host spans: each metric is the median over traced repetitions.
    let over = |f: &dyn Fn(&SpanTable) -> f64| {
        median(&traced.iter().map(|(_, s)| f(s)).collect::<Vec<_>>())
    };
    let stat = |s: &SpanTable, name: &str, f: fn(&SpanStats) -> f64| s.get(name).map_or(0.0, f);
    let total = |x: &SpanStats| x.total_ns as f64;
    let mean = |x: &SpanStats| x.total_ns as f64 / x.count as f64;
    let median_of = |x: &SpanStats| x.median_ns;
    m.insert(
        "workloads.gen_ns_per_txn",
        over(&|s| stat(s, "workloads.gen", total) / txns),
    );
    m.insert(
        "core.submit_ns_per_txn",
        over(&|s| {
            (stat(s, "core.submit", |x| x.self_ns as f64)
                + stat(s, "cluster.execute_single", total)
                + stat(s, "cluster.execute_cross", total))
                / txns
        }),
    );
    m.insert(
        "core.placement_tick_ns",
        over(&|s| stat(s, "core.placement_tick", mean)),
    );
    m.insert("scan.scan_us", over(&|s| stat(s, "scan.scan", mean)) / 1e3);
    m.insert(
        "overlay.query_range_ns",
        over(&|s| stat(s, "overlay.query_range", mean)),
    );
    m.insert(
        "telemetry.collect_ns",
        over(&|s| stat(s, "telemetry.collect", mean)),
    );
    m.insert(
        "cluster.execute_single_ns",
        over(&|s| stat(s, "cluster.execute_single", median_of)),
    );
    m.insert(
        "cluster.execute_cross_ns",
        over(&|s| stat(s, "cluster.execute_cross", median_of)),
    );
    m.insert(
        "cluster.verify_s",
        over(&|s| stat(s, "cluster.verify_atomicity", total)) / 1e9,
    );
    m.insert(
        "trace.spans",
        traced[0].1.values().map(|x| x.count as f64).sum(),
    );

    // Host witnesses and tracing overhead.
    let rate = |reps: &mut dyn Iterator<Item = &Rep>| {
        median(&reps.map(|r| r.txns as f64 / r.host_s).collect::<Vec<_>>())
    };
    let untraced_rate = rate(&mut plain.iter());
    let traced_rate = rate(&mut traced.iter().map(|(r, _)| r));
    m.insert("trace.overhead_frac", 1.0 - traced_rate / untraced_rate);
    m.insert(
        "core.allocs_per_txn",
        median(
            &plain
                .iter()
                .map(|r| r.allocs as f64 / txns)
                .collect::<Vec<_>>(),
        ),
    );
    m.insert("host.calibration_ms", calibration_ms);

    // Layer probes, sized from this workload.
    m.insert(
        "btree.get_ns",
        layers::btree_get_ns(&traced[0].0.keys, args.seed),
    );
    let wal_bytes_per_append = m["wal.bytes_per_txn"] / m["wal.appends_per_txn"].max(1e-9);
    m.insert(
        "wal.append_ref_ns",
        layers::wal_append_ref_ns(wal_bytes_per_append),
    );
    m.insert("storage.page_hit_ns", layers::page_hit_ns());
    let (new_us, record_ns) = layers::histogram_costs();
    m.insert("sim.histogram_new_us", new_us);
    m.insert("sim.histogram_record_ns", record_ns);

    // The Chrome trace: the first traced repetition's first spans.
    if let Err(e) = bionic_telemetry::validate_chrome_trace(&chrome) {
        errors.push(format!("chrome trace: {e}"));
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!(
        "{dir}/trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    );
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, chrome)) {
        errors.push(format!("writing {path}: {e}"));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, m[name], unit))
        .collect();
    finish(all, errors, metrics, calibration_ms, Some(path))
}

/// Spans written to the Chrome trace file (all spans feed the metrics).
const TRACE_EXPORT_SPANS: usize = 20_000;

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
