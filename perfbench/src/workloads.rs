//! The four benchmark workloads.
//!
//! One *repetition* builds fresh state from the seed (timed as set-up),
//! optionally warms up, runs a fixed number of transactions through the
//! public driver (timed as the host phase), then reads the exact counters
//! and the model digest and runs the correctness checks. Every repetition
//! at one seed is the same simulation, so its counters, `sim_*` values
//! and digest repeat exactly; only host times vary.

use crate::alloc::allocs;
use crate::reference::Reference;
use crate::stats::{fnv1a, interp_quantile_us, median, peak_rss_mb};
use crate::trace::Tracer;
use bionic_cluster::{Cluster, ClusterConfig, NetConfig};
use bionic_core::engine::Engine;
use bionic_core::ops::TxnProgram;
use bionic_core::{EngineConfig, PlacementConfig, PlacementReport};
use bionic_scan::predicate::{CmpOp, ColPredicate, ScanRequest};
use bionic_scan::scanner::{scan_dispatch_with, scan_software_with, ScanEval, ScannerConfig};
use bionic_sim::fault::HwFaultConfig;
use bionic_sim::stats::Summary;
use bionic_sim::time::SimTime;
use bionic_telemetry::{MetricValue, MetricsRegistry, SnapshotHub};
use bionic_workloads::hybrid::{analytics_table, check_conservation, run_hybrid, HybridConfig};
use bionic_workloads::tatp::{self, TatpConfig, TatpGenerator};
use bionic_workloads::tpcc::{self, TpccConfig};
use bionic_workloads::{
    run, run_batched_pooled, ClusterTxn, PooledSource, WorkloadKind, WorkloadReport,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The seed whose model digests are recorded in `digests.txt`.
pub const DEFAULT_SEED: u64 = 42;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E8's hot loop: batched pooled TATP on the bionic engine.
    TatpHot,
    /// TPC-C on the software engine through single submit: the write path.
    TpccWrite,
    /// E15's fault arm: hybrid TATP + scans with faults and placement.
    HybridDegraded,
    /// Partitioned TATP on a 4-node cluster over a lossy network.
    Cluster2pc,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 4] = [
        Workload::TatpHot,
        Workload::TpccWrite,
        Workload::HybridDegraded,
        Workload::Cluster2pc,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TatpHot => "tatp-hot",
            Workload::TpccWrite => "tpcc-write",
            Workload::HybridDegraded => "hybrid-degraded",
            Workload::Cluster2pc => "cluster-2pc",
        }
    }

    /// Parse a [`Workload::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run length of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// What the benchmark measures.
    Full,
    /// A few thousand transactions, for the benchmark's own tests.
    Short,
}

/// Timed transactions per repetition.
fn txns(w: Workload, size: Size) -> u64 {
    match (w, size) {
        (Workload::TatpHot, Size::Full) => 200_000,
        (Workload::TpccWrite, Size::Full) => 20_000,
        (Workload::HybridDegraded, Size::Full) => 200_000,
        (Workload::Cluster2pc, Size::Full) => 1_000_000,
        (Workload::TpccWrite, Size::Short) => 1_000,
        (_, Size::Short) => 3_000,
    }
}

/// Modelled end-to-end figures of one repetition (simulated time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    /// Committed transactions per simulated second.
    pub txn_per_s: f64,
    /// Median commit latency, µs.
    pub p50_us: f64,
    /// p99 commit latency, µs.
    pub p99_us: f64,
    /// Modelled energy per committed transaction, J.
    pub joules_per_txn: f64,
}

/// Everything one repetition yields.
pub struct Rep {
    /// Host seconds to build the engine(s) and load the population.
    pub setup_s: f64,
    /// Host seconds of the timed phase (reference kernel timings
    /// excluded).
    pub host_s: f64,
    /// Host txn/s of each lap of the timed phase: one lap per
    /// `txns / LAPS_PER_REP` transactions, or the whole phase where the
    /// driver is one call. Empty unless a reference kernel was given.
    pub laps: Vec<f64>,
    /// Reference kernel ms at the start of the timed phase and after
    /// every lap (`laps.len() + 1` values).
    pub ref_ms: Vec<f64>,
    /// Transactions offered in the timed phase.
    pub txns: u64,
    /// Of those, transactions interrupted or lost.
    pub failed: u64,
    /// Allocations made during the timed phase.
    pub allocs: u64,
    /// Peak resident memory of the process so far, MiB, read after the
    /// timed phase and before the integrity checks (which build their own
    /// copies of every table).
    pub peak_rss_mb: f64,
    /// Modelled end-to-end figures.
    pub sim: Sim,
    /// Exact per-layer counts, read after the timed phase.
    pub counters: Vec<(&'static str, f64)>,
    /// Model digest: registry CSV + report counts and latency summary.
    pub digest: u64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// The workload's largest key set (traced repetitions only), for the
    /// B-tree layer probe.
    pub keys: Vec<i64>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Laps a timed phase is cut into, so a run holds many host-rate samples
/// even when its repetitions are few and long.
const LAPS_PER_REP: u64 = 20;

/// Host-time laps through a timed phase, each bracketed by timings of the
/// reference kernel so that its rate can be scaled by the machine's speed
/// at that moment. [`Laps::tick`] once per transaction closes a lap every
/// `txns / LAPS_PER_REP` transactions; the only work per transaction is a
/// counter increment, and the buffers are allocated up front. Without a
/// reference kernel (traced repetitions) it records nothing.
struct Laps<'a> {
    reference: Option<&'a Reference>,
    every: u64,
    n: u64,
    last: Instant,
    kernel_s: f64,
    rates: Vec<f64>,
    ref_ms: Vec<f64>,
}

impl<'a> Laps<'a> {
    fn new(txns: u64, reference: Option<&'a Reference>) -> Self {
        let cap = LAPS_PER_REP as usize + 2;
        Laps {
            reference,
            every: (txns / LAPS_PER_REP).max(1),
            n: 0,
            last: Instant::now(),
            kernel_s: 0.0,
            rates: Vec::with_capacity(cap),
            ref_ms: Vec::with_capacity(cap),
        }
    }

    /// Time the kernel, then start the next lap.
    fn kernel(&mut self) {
        if let Some(r) = self.reference {
            let ms = r.time_ms();
            self.kernel_s += ms / 1e3;
            self.ref_ms.push(ms);
        }
        self.last = Instant::now();
    }

    /// Close a lap of `n` transactions and start the next.
    fn lap(&mut self, n: u64) {
        if self.reference.is_some() {
            self.rates.push(n as f64 / secs(self.last));
        }
        self.kernel();
    }

    #[inline]
    fn tick(&mut self) {
        self.n += 1;
        if self.n == self.every {
            self.lap(self.every);
            self.n = 0;
        }
    }
}

/// Run one repetition of `w` at `seed`. `checks` adds the full table
/// integrity checks (the slow ones); `tracer` records host spans around
/// every call into the simulator's crates; `reference` times the
/// reference kernel between the laps of the timed phase.
pub fn rep(
    w: Workload,
    seed: u64,
    size: Size,
    checks: bool,
    tracer: Option<&mut Tracer>,
    reference: Option<&Reference>,
) -> Rep {
    let txns = txns(w, size);
    match w {
        Workload::TatpHot => tatp_hot(seed, txns, checks, tracer, reference),
        Workload::TpccWrite => tpcc_write(seed, txns, checks, tracer, reference),
        Workload::HybridDegraded => hybrid_degraded(seed, txns, checks, tracer, reference),
        Workload::Cluster2pc => cluster_2pc(seed, txns, checks, tracer, reference),
    }
}

// ---------------------------------------------------------------------
// Exact layer counters.

/// A `collect_metrics` registry as numbers (counters and gauges alike),
/// summed over nodes.
#[derive(Debug, Clone, Default)]
struct Counts(BTreeMap<(String, String), f64>);

impl Counts {
    fn add(&mut self, m: &MetricsRegistry) {
        for (scope, name, v) in m.iter() {
            *self.0.entry((scope.into(), name.into())).or_default() += match v {
                MetricValue::Counter(c) => c as f64,
                MetricValue::Gauge(g) => g,
            };
        }
    }

    /// What accrued since `before` (every metric used is cumulative).
    fn since(mut self, before: &Counts) -> Counts {
        for (k, v) in &before.0 {
            *self.0.entry(k.clone()).or_default() -= v;
        }
        self
    }

    fn get(&self, scope: &str, name: &str) -> f64 {
        self.0
            .get(&(scope.to_string(), name.to_string()))
            .copied()
            .unwrap_or(0.0)
    }

    /// `name` summed over every scope starting with `prefix`.
    fn sum(&self, prefix: &str, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|((s, n), _)| s.starts_with(prefix) && n == name)
            .fold(0.0, |acc, (_, v)| acc + v)
    }

    fn per_layer(&self, txns: u64) -> Vec<(&'static str, f64)> {
        let per = |v: f64| v / txns as f64;
        let probes = self.get("engine", "probes");
        vec![
            ("btree.probes_per_txn", per(probes)),
            (
                "btree.nodes_per_probe",
                self.get("engine", "probe_nodes_visited") / probes.max(1.0),
            ),
            ("wal.appends_per_txn", per(self.get("wal", "appends"))),
            ("wal.bytes_per_txn", per(self.get("wal", "tail_lsn"))),
            ("wal.flushes_per_txn", per(self.get("wal", "flushes"))),
            (
                "storage.pool_hits_per_txn",
                per(self.get("bufferpool", "hits")),
            ),
            (
                "storage.pool_misses_per_txn",
                per(self.get("bufferpool", "misses")),
            ),
            (
                "storage.dirty_evictions",
                self.get("bufferpool", "dirty_evictions"),
            ),
            (
                "queue.ops_per_txn",
                per(self.get("queue", "sw_ops") + self.get("queue", "hw_ops")),
            ),
            ("overlay.merges", self.get("engine", "merges")),
            (
                "sim.sg_accesses_per_txn",
                per(self.get("sg-dram", "accesses")),
            ),
            (
                "sim.pcie_transfers_per_txn",
                per(self.get("link/pcie", "transfers")),
            ),
            (
                "sim.arbiter_oltp_queued_us",
                self.get("arbiter/sg", "oltp_queued_us"),
            ),
            (
                "sim.arbiter_oltp_wait_events",
                self.get("arbiter/sg", "oltp_wait_events"),
            ),
            (
                "core.fault_retries_per_txn",
                per(self.sum("fault/", "retries")),
            ),
            (
                "core.fault_fallbacks_per_txn",
                per(self.sum("fault/", "fallbacks")),
            ),
            ("core.breaker_opens", self.sum("fault/", "breaker_opens")),
            (
                "core.placement_shed_windows",
                self.get("placement", "shed_windows"),
            ),
            (
                "core.placement_brownout_windows",
                self.get("placement", "brownout_windows"),
            ),
            (
                "core.placement_transitions",
                self.get("placement", "transitions"),
            ),
        ]
    }
}

fn collect(engine: &mut Engine) -> Counts {
    engine.collect_metrics();
    let mut c = Counts::default();
    c.add(engine.tel.metrics());
    c
}

fn check_tables(engine: &mut Engine, errors: &mut Vec<String>) {
    for t in 0..engine.table_count() as u32 {
        if let Err(e) = engine.verify_table_integrity(t) {
            errors.push(format!("table integrity: {e}"));
        }
    }
}

/// Keys of the engine's largest table.
fn largest_keys(engine: &mut Engine) -> Vec<i64> {
    let largest = (0..engine.table_count() as u32)
        .max_by_key(|&t| engine.row_count(t))
        .expect("workloads load at least one table");
    engine
        .scan_table(largest)
        .into_iter()
        .map(|(k, _)| k)
        .collect()
}

/// What a single-engine driver call reports: from a `WorkloadReport`, or
/// from the traced hybrid loop.
struct Observed {
    submitted: u64,
    committed: u64,
    aborted: u64,
    latency: Summary,
    throughput: f64,
    joules_per_txn: f64,
}

impl From<&WorkloadReport> for Observed {
    fn from(r: &WorkloadReport) -> Self {
        Observed {
            submitted: r.submitted,
            committed: r.committed,
            aborted: r.aborted,
            latency: r.latency,
            throughput: r.throughput_per_sec,
            joules_per_txn: r.joules_per_txn,
        }
    }
}

/// Host measurements of one repetition.
struct Timed {
    setup_s: f64,
    host_s: f64,
    laps: Vec<f64>,
    ref_ms: Vec<f64>,
    allocs: u64,
}

impl Timed {
    /// The timed phase that started at `t1` ends now: its host time
    /// without the kernel timings, and its laps.
    fn end(setup_s: f64, t1: Instant, laps: Laps, a0: u64) -> Self {
        let allocs = allocs() - a0;
        Timed {
            setup_s,
            host_s: secs(t1) - laps.kernel_s,
            laps: laps.rates,
            ref_ms: laps.ref_ms,
            allocs,
        }
    }
}

/// Finish a single-engine repetition after its timed phase: the exact
/// counters accrued since `before`, transaction accounting, `sim_*`
/// figures from the engine's latency histogram, the digest (registry CSV,
/// `obs` and the workload-specific `extra`), peak memory and, with
/// `checks`, the table integrity checks.
#[allow(clippy::too_many_arguments)]
fn engine_rep(
    engine: &mut Engine,
    txns: u64,
    timed: Timed,
    before: &Counts,
    obs: &Observed,
    extra: &str,
    checks: bool,
    traced: bool,
) -> Rep {
    let mut errors = Vec::new();
    let (submitted, committed, aborted) = (obs.submitted, obs.committed, obs.aborted);
    if submitted != txns {
        errors.push(format!("submitted {submitted} of {txns} transactions"));
    }
    if committed + aborted != submitted {
        errors.push(format!(
            "{submitted} submitted but {committed} committed + {aborted} aborted: interrupted or lost"
        ));
    }
    let counts = collect(engine).since(before);
    let text = format!(
        "{}{submitted}|{committed}|{aborted}|{}|{:?}|{:?}|{extra}",
        engine.tel.metrics().to_csv(),
        obs.latency,
        obs.throughput,
        obs.joules_per_txn
    );
    let hist = &engine.stats.latency;
    let sim = Sim {
        txn_per_s: obs.throughput,
        p50_us: interp_quantile_us(hist, 0.50),
        p99_us: interp_quantile_us(hist, 0.99),
        joules_per_txn: obs.joules_per_txn,
    };
    let peak_rss_mb = peak_rss_mb();
    if checks {
        check_tables(engine, &mut errors);
    }
    Rep {
        setup_s: timed.setup_s,
        host_s: timed.host_s,
        laps: timed.laps,
        ref_ms: timed.ref_ms,
        txns,
        failed: txns.saturating_sub(committed + aborted),
        allocs: timed.allocs,
        peak_rss_mb,
        sim,
        counters: counts.per_layer(txns),
        digest: fnv1a(&text),
        errors,
        keys: if traced {
            largest_keys(engine)
        } else {
            Vec::new()
        },
    }
}

// ---------------------------------------------------------------------
// tatp-hot

/// A [`PooledSource`] that records a span around every generator call.
struct TimedSource<'a> {
    inner: &'a mut TatpGenerator,
    tr: &'a mut Tracer,
}

impl PooledSource for TimedSource<'_> {
    fn next_label(&mut self) -> &'static str {
        let id = self.tr.begin("workloads.gen");
        let label = self.inner.next_label();
        self.tr.end(id);
        label
    }

    fn fill(&mut self, prog: &mut TxnProgram) {
        let id = self.tr.begin("workloads.gen");
        self.inner.fill(prog);
        self.tr.end(id);
    }
}

/// A [`PooledSource`] that ticks the lap clock once per transaction.
struct LapSource<'a, 'b> {
    inner: &'a mut TatpGenerator,
    laps: &'a mut Laps<'b>,
}

impl PooledSource for LapSource<'_, '_> {
    fn next_label(&mut self) -> &'static str {
        self.laps.tick();
        self.inner.next_label()
    }

    fn fill(&mut self, prog: &mut TxnProgram) {
        self.inner.fill(prog);
    }
}

const TATP_HOT_SUBSCRIBERS: i64 = 10_000;
const TATP_HOT_BATCH: usize = 32;
const TATP_HOT_WARMUP: u64 = 4_000;
const TATP_HOT_ARRIVAL_US: f64 = 1.0;

fn tatp_hot(
    seed: u64,
    txns: u64,
    checks: bool,
    tracer: Option<&mut Tracer>,
    reference: Option<&Reference>,
) -> Rep {
    let ia = SimTime::from_us(TATP_HOT_ARRIVAL_US);
    let t0 = Instant::now();
    let wl = TatpConfig {
        subscribers: TATP_HOT_SUBSCRIBERS,
        seed,
    };
    let mut engine = Engine::new(EngineConfig::bionic().with_seed(seed));
    let tables = tatp::load(&mut engine, &wl);
    let mut generator = TatpGenerator::new(wl, tables);
    let setup_s = secs(t0);

    run_batched_pooled(
        &mut engine,
        TATP_HOT_WARMUP,
        ia,
        TATP_HOT_BATCH,
        &mut generator,
    );
    let before = collect(&mut engine);
    let traced = tracer.is_some();
    let mut laps = Laps::new(txns, reference);
    let a0 = allocs();
    let t1 = Instant::now();
    laps.kernel();
    let report = match tracer {
        None => {
            let mut src = LapSource {
                inner: &mut generator,
                laps: &mut laps,
            };
            run_batched_pooled(&mut engine, txns, ia, TATP_HOT_BATCH, &mut src)
        }
        Some(tr) => {
            let id = tr.begin("core.submit");
            let mut src = TimedSource {
                inner: &mut generator,
                tr,
            };
            let r = run_batched_pooled(&mut engine, txns, ia, TATP_HOT_BATCH, &mut src);
            src.tr.end(id);
            r
        }
    };
    let timed = Timed::end(setup_s, t1, laps, a0);
    engine_rep(
        &mut engine,
        txns,
        timed,
        &before,
        &(&report).into(),
        "",
        checks,
        traced,
    )
}

// ---------------------------------------------------------------------
// tpcc-write

const TPCC_WAREHOUSES: i64 = 4;
const TPCC_ARRIVAL_US: f64 = 20.0;

fn tpcc_write(
    seed: u64,
    txns: u64,
    checks: bool,
    tracer: Option<&mut Tracer>,
    reference: Option<&Reference>,
) -> Rep {
    let ia = SimTime::from_us(TPCC_ARRIVAL_US);
    let t0 = Instant::now();
    let cfg = TpccConfig {
        warehouses: TPCC_WAREHOUSES,
        seed,
        ..Default::default()
    };
    let mut engine = Engine::new(EngineConfig::software().with_seed(seed));
    let (_, mut generator) = tpcc::load(&mut engine, &cfg);
    let setup_s = secs(t0);

    let before = collect(&mut engine);
    let traced = tracer.is_some();
    let mut laps = Laps::new(txns, reference);
    let a0 = allocs();
    let t1 = Instant::now();
    laps.kernel();
    let report = match tracer {
        None => run(&mut engine, txns, ia, || {
            laps.tick();
            let (t, p) = generator.next();
            (t.label(), p)
        }),
        Some(tr) => {
            let id = tr.begin("core.submit");
            let r = run(&mut engine, txns, ia, || {
                let g = tr.begin("workloads.gen");
                let (t, p) = generator.next();
                tr.end(g);
                (t.label(), p)
            });
            tr.end(id);
            r
        }
    };
    let timed = Timed::end(setup_s, t1, laps, a0);
    engine_rep(
        &mut engine,
        txns,
        timed,
        &before,
        &(&report).into(),
        "",
        checks,
        traced,
    )
}

// ---------------------------------------------------------------------
// hybrid-degraded

const HYBRID_SUBSCRIBERS: i64 = 20_000;
const HYBRID_SCAN_ROWS: usize = 500_000;
const HYBRID_ARRIVAL_US: f64 = 2.0;
const HYBRID_SCAN_PRESSURE: f64 = 0.3;
const HYBRID_FAULT_BP: u32 = 500;
const HYBRID_WINDOW_US: f64 = 200.0;
const HYBRID_SETUP_PROBES: usize = 3;

fn hybrid_configs(seed: u64, txns: u64) -> (EngineConfig, HybridConfig) {
    let engine = EngineConfig::bionic()
        .with_seed(seed)
        .with_hw_faults(HwFaultConfig::uniform(HYBRID_FAULT_BP))
        .with_placement(PlacementConfig::default());
    let hybrid = HybridConfig {
        tatp: TatpConfig {
            subscribers: HYBRID_SUBSCRIBERS,
            seed,
        },
        txns,
        inter_arrival: SimTime::from_us(HYBRID_ARRIVAL_US),
        scan_pressure: HYBRID_SCAN_PRESSURE,
        scan_rows: HYBRID_SCAN_ROWS,
        range_queries: true,
        software_scans: false,
        snapshot_window: Some(SimTime::from_us(HYBRID_WINDOW_US)),
    };
    (engine, hybrid)
}

/// The scan `run_hybrid` issues (1 % selectivity over `qty`, projecting
/// key and price); the traced loop must issue the very same one.
fn scan_request() -> ScanRequest {
    ScanRequest {
        predicates: vec![ColPredicate::new(1, CmpOp::Lt, 10)],
        projection: vec![0, 2],
        ..Default::default()
    }
}

/// The report fields a hybrid repetition checks and digests, from either
/// `run_hybrid` or the traced loop.
struct HybridOut {
    obs: Observed,
    scans: u64,
    scan_matches: u64,
    queries: u64,
    cache_hits: u64,
    windows: usize,
    placement: Option<PlacementReport>,
}

fn hybrid_degraded(
    seed: u64,
    txns: u64,
    checks: bool,
    tracer: Option<&mut Tracer>,
    reference: Option<&Reference>,
) -> Rep {
    let (ecfg, hcfg) = hybrid_configs(seed, txns);

    // `run_hybrid` loads its own population, so set-up is timed on the
    // same calls it makes before its arrival loop, on throwaway engines:
    // the median of a few, because a repetition is long and a run holds
    // only a handful of them.
    let setups: Vec<f64> = (0..HYBRID_SETUP_PROBES)
        .map(|_| {
            let t0 = Instant::now();
            let mut e = Engine::new(ecfg.clone());
            e.enable_attribution();
            e.platform.enable_contention();
            black_box(tatp::load(&mut e, &hcfg.tatp));
            let table = analytics_table(hcfg.scan_rows);
            black_box(ScanEval::compute(&table, &scan_request()));
            let s = secs(t0);
            drop((e, table));
            s
        })
        .collect();
    let setup_s = median(&setups);

    let mut engine = Engine::new(ecfg);
    engine.enable_attribution();
    let traced = tracer.is_some();
    let mut laps = Laps::new(txns, reference);
    let a0 = allocs();
    let t1 = Instant::now();
    laps.kernel();
    let out = match tracer {
        None => {
            let r = run_hybrid(&mut engine, &hcfg);
            HybridOut {
                obs: (&r.oltp).into(),
                scans: r.scans,
                scan_matches: r.scan_matches,
                queries: r.queries,
                cache_hits: r.query_cache_hits,
                windows: r.snapshots.as_ref().map_or(0, |h| h.len()),
                placement: r.placement,
            }
        }
        Some(tr) => hybrid_traced(&mut engine, &hcfg, tr),
    };
    // `run_hybrid` is one call: the whole phase is one lap.
    laps.lap(txns);
    let timed = Timed::end(setup_s, t1, laps, a0);
    let extra = format!(
        "{}|{}|{}|{}|{}|{:?}",
        out.scans, out.scan_matches, out.queries, out.cache_hits, out.windows, out.placement
    );
    // A fresh engine: its counters (load included) all accrued in `run_hybrid`.
    let before = Counts::default();
    let mut rep = engine_rep(
        &mut engine,
        txns,
        timed,
        &before,
        &out.obs,
        &extra,
        checks,
        traced,
    );
    if let Err(e) = check_conservation(&engine) {
        rep.errors.push(format!("arbiter conservation: {e}"));
    }
    let per_scan = (hcfg.scan_rows / 100) as u64;
    if out.scan_matches != out.scans * per_scan {
        rep.errors.push(format!(
            "{} scans matched {} rows, expected {per_scan} each",
            out.scans, out.scan_matches
        ));
    }
    rep.counters.extend([
        ("scan.scans", out.scans as f64),
        (
            "overlay.cache_hit_frac",
            out.cache_hits as f64 / out.queries.max(1) as f64,
        ),
        ("telemetry.windows", out.windows as f64),
    ]);
    rep
}

/// `run_hybrid`'s arrival loop, driven from here so that every layer call
/// it makes gets its own span. It makes the same public calls in the same
/// order, so its report and the model digest must equal `run_hybrid`'s;
/// the traced run checks that they do.
fn hybrid_traced(engine: &mut Engine, cfg: &HybridConfig, tr: &mut Tracer) -> HybridOut {
    engine.platform.enable_contention();
    let tables = tatp::load(engine, &cfg.tatp);
    let subscriber_table = tables.subscriber;
    let mut generator = TatpGenerator::new(cfg.tatp.clone(), tables);
    let scan_table = analytics_table(cfg.scan_rows);
    let req = scan_request();
    let scanner_cfg = ScannerConfig::default();
    let scan_eval = ScanEval::compute(&scan_table, &req);
    let pred_bytes = cfg.scan_rows as u64 * req.predicate_width(&scan_table) as u64;
    let scan_period = SimTime::from_secs(pred_bytes as f64 / (cfg.scan_pressure * 80e9));

    let energy_before = engine.platform.energy.clone();
    let committed_before = engine.stats.committed;
    let submitted_before = engine.stats.submitted;
    let aborted_before = engine.stats.aborted;
    let cache_before = engine.result_cache_stats();
    let base = engine.stats.last_completion;
    let mut hub = cfg.snapshot_window.map(SnapshotHub::new);
    let (mut scans, mut scan_matches, mut queries) = (0u64, 0u64, 0u64);
    let (mut txn_i, mut scan_i) = (0u64, 0u64);
    while txn_i < cfg.txns {
        let txn_at = cfg.inter_arrival * txn_i;
        let scan_at = scan_period * scan_i;
        if let Some(hub) = hub.as_mut() {
            let next_arrival = txn_at.min(scan_at);
            while hub.due(next_arrival) {
                let end = hub.cursor() + hub.window();
                let id = tr.begin("telemetry.collect");
                engine.collect_metrics();
                hub.capture(end, engine.tel.metrics());
                tr.end(id);
            }
        }
        if txn_at <= scan_at {
            let g = tr.begin("workloads.gen");
            let (_, prog) = generator.next_ref();
            tr.end(g);
            let s = tr.begin("core.submit");
            engine.submit(prog, base + txn_at);
            tr.end(s);
            txn_i += 1;
        } else {
            tr.span("core.placement_tick", || {
                engine.placement_tick(base + scan_at)
            });
            let id = tr.begin("scan.scan");
            let out = if engine.placement_scan_software() {
                scan_software_with(
                    &mut engine.platform,
                    &scan_table,
                    &req,
                    base + scan_at,
                    &scan_eval,
                )
            } else {
                let (platform, scan_unit) = engine.scan_parts();
                scan_dispatch_with(
                    platform,
                    &scan_table,
                    &req,
                    base + scan_at,
                    &scanner_cfg,
                    scan_unit,
                    &scan_eval,
                )
            };
            tr.end(id);
            let wait = out.sg_wait + out.link_wait;
            if !wait.is_zero() {
                engine.mark_scan_arbiter_wait(base + scan_at, base + scan_at + wait);
            }
            scans += 1;
            scan_matches += out.matches.len() as u64;
            scan_i += 1;
            if cfg.range_queries {
                let lo = (scan_i as i64 * 37) % cfg.tatp.subscribers;
                let hi = (lo + 64).min(cfg.tatp.subscribers);
                tr.span("overlay.query_range", || {
                    engine.query_range(subscriber_table, lo, hi, None, out.done)
                });
                queries += 1;
            }
        }
    }

    let committed = engine.stats.committed - committed_before;
    let elapsed = engine.stats.last_completion.saturating_sub(base);
    if let Some(hub) = hub.as_mut() {
        let id = tr.begin("telemetry.collect");
        engine.collect_metrics();
        while hub.due(elapsed) {
            let end = hub.cursor() + hub.window();
            hub.capture(end, engine.tel.metrics());
        }
        if elapsed > hub.cursor() || hub.is_empty() {
            hub.capture(elapsed.max(hub.cursor()), engine.tel.metrics());
        }
        tr.end(id);
    }
    let energy = engine.platform.energy.since(&energy_before);
    HybridOut {
        obs: Observed {
            submitted: engine.stats.submitted - submitted_before,
            committed,
            aborted: engine.stats.aborted - aborted_before,
            latency: engine.stats.latency.summary(),
            throughput: if elapsed.is_zero() {
                0.0
            } else {
                committed as f64 / elapsed.as_secs()
            },
            joules_per_txn: if committed == 0 {
                0.0
            } else {
                energy.total().as_j() / committed as f64
            },
        },
        scans,
        scan_matches,
        queries,
        cache_hits: engine.result_cache_stats().hits - cache_before.hits,
        windows: hub.as_ref().map_or(0, |h| h.len()),
        placement: engine.placement_report(),
    }
}

// ---------------------------------------------------------------------
// cluster-2pc

const CLUSTER_NODES: usize = 4;
const CLUSTER_CROSS_BP: u32 = 2_500;
const CLUSTER_ARRIVAL_US: f64 = 50.0;
/// E16's lossy interconnect: drop, duplicate, delay and partition rates in
/// basis points.
const CLUSTER_NET_BP: (u32, u32, u32, u32) = (1_500, 800, 1_000, 300);

fn cluster_2pc(
    seed: u64,
    txns: u64,
    checks: bool,
    mut tracer: Option<&mut Tracer>,
    reference: Option<&Reference>,
) -> Rep {
    let ia = SimTime::from_us(CLUSTER_ARRIVAL_US);
    let t0 = Instant::now();
    let (drop, dup, delay, part) = CLUSTER_NET_BP;
    let net = NetConfig::healthy(seed).with_rates(drop, dup, delay, part);
    let mut cluster = Cluster::new(ClusterConfig::new(
        CLUSTER_NODES,
        EngineConfig::bionic().with_seed(seed),
        net,
    ));
    let mut wl = cluster.load_small(WorkloadKind::Tatp, CLUSTER_CROSS_BP, seed);
    let setup_s = secs(t0);

    let mut laps = Laps::new(txns, reference);
    let a0 = allocs();
    let t1 = Instant::now();
    laps.kernel();
    let mut at = SimTime::ZERO;
    match tracer.as_deref_mut() {
        None => {
            for _ in 0..txns {
                laps.tick();
                let txn = wl.next();
                cluster.execute(txn, at);
                at += ia;
            }
            cluster.end_of_run(at);
        }
        Some(tr) => {
            for _ in 0..txns {
                let txn = tr.span("workloads.gen", || wl.next());
                let name = match txn {
                    ClusterTxn::Single { .. } => "cluster.execute_single",
                    ClusterTxn::Cross { .. } => "cluster.execute_cross",
                };
                tr.span(name, || cluster.execute(txn, at));
                at += ia;
            }
            tr.span("cluster.end_of_run", || cluster.end_of_run(at));
        }
    }
    let Timed {
        host_s,
        laps,
        ref_ms,
        allocs,
        ..
    } = Timed::end(setup_s, t1, laps, a0);

    let mut errors = Vec::new();
    let verdict = match tracer.as_deref_mut() {
        None => cluster.verify_atomicity(),
        Some(tr) => tr.span("cluster.verify_atomicity", || cluster.verify_atomicity()),
    };
    if let Err(e) = verdict {
        errors.push(format!("atomicity: {e}"));
    }
    let r = cluster.report();
    let accounted = r.global_committed + r.global_aborted + r.single_committed + r.single_aborted;
    if accounted != txns {
        errors.push(format!(
            "{txns} transactions offered but {accounted} committed or aborted: interrupted or lost"
        ));
    }
    let registry = cluster.merged_metrics();
    let peak_rss_mb = peak_rss_mb();
    let mut counts = Counts::default();
    for node in &mut cluster.nodes {
        counts.add(node.engine.tel.metrics());
        if checks {
            check_tables(&mut node.engine, &mut errors);
        }
    }
    let digest = fnv1a(&format!("{}{r:?}", registry.to_csv()));
    let committed = r.global_committed + r.single_committed;
    let global = r.global_committed + r.global_aborted;
    let mut counters = counts.per_layer(txns);
    counters.extend([
        ("cluster.msgs_per_txn", r.net.sent as f64 / txns as f64),
        (
            "cluster.msgs_lost_frac",
            (r.net.dropped + r.net.partitioned) as f64 / r.net.sent.max(1) as f64,
        ),
        ("cluster.in_doubt_resolved", r.in_doubt_resolved as f64),
        (
            "cluster.global_abort_frac",
            r.global_aborted as f64 / global.max(1) as f64,
        ),
        ("cluster.recoveries", r.recoveries as f64),
    ]);
    let keys = if tracer.is_some() {
        largest_keys(&mut cluster.nodes[0].engine)
    } else {
        Vec::new()
    };
    Rep {
        setup_s,
        host_s,
        laps,
        ref_ms,
        txns,
        failed: txns.saturating_sub(accounted),
        allocs,
        peak_rss_mb,
        sim: Sim {
            txn_per_s: r.throughput_per_sec(),
            p50_us: r.commit_p50.as_us(),
            p99_us: r.commit_p99.as_us(),
            joules_per_txn: r.joules / committed.max(1) as f64,
        },
        counters,
        digest,
        errors,
        keys,
    }
}
