//! Arbiter conservation properties (the E13 acceptance invariant).
//!
//! Whatever traffic mix the hybrid engine throws at a shared path, the
//! arbiter must neither create nor lose bandwidth: every window's grants
//! stay within capacity and sum per-client to exactly the grand total,
//! and no request finishes faster than its uncontended wire time.
//!
//! The dense window ledger is also checked differentially against the
//! original `BTreeMap` ledger, kept below as an oracle: every grant and
//! every reported statistic must be bit-identical.

use bionic_sim::arbiter::{Grant, SharedBandwidth};
use bionic_sim::time::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The arbiter as first written: one `BTreeMap` entry per window touched
/// and an O(windows) occupancy sum. Kept only as the oracle the dense
/// ledger must reproduce bit for bit.
mod oracle {
    use super::*;

    const ACTIVITY_HORIZON: u64 = 2;

    struct Window {
        total: u64,
        per_client: Vec<u64>,
    }

    pub struct BTreeBandwidth {
        bytes_per_sec: f64,
        window: SimTime,
        capacity: u64,
        weights: Vec<u64>,
        weight_sum: u64,
        windows: BTreeMap<u64, Window>,
        pub per_client_bytes: Vec<u64>,
        pub total_bytes: u64,
        max_fill: u64,
        pub requests: u64,
        pub queued_total: SimTime,
        pub per_client_queued: Vec<SimTime>,
        pub per_client_wait_events: Vec<u64>,
    }

    impl BTreeBandwidth {
        pub fn new(bytes_per_sec: f64, window: SimTime, weights: &[u64]) -> Self {
            let capacity = (bytes_per_sec * window.as_secs()).round() as u64;
            BTreeBandwidth {
                bytes_per_sec,
                window,
                capacity,
                weights: weights.to_vec(),
                weight_sum: weights.iter().sum(),
                windows: BTreeMap::new(),
                per_client_bytes: vec![0; weights.len()],
                total_bytes: 0,
                max_fill: 0,
                requests: 0,
                queued_total: SimTime::ZERO,
                per_client_queued: vec![SimTime::ZERO; weights.len()],
                per_client_wait_events: vec![0; weights.len()],
            }
        }

        fn contended(&self, client: usize, w: u64) -> bool {
            let lo = w.saturating_sub(ACTIVITY_HORIZON);
            self.windows
                .range(lo..=w)
                .any(|(_, win)| win.total > win.per_client[client])
        }

        pub fn request(&mut self, client: usize, arrive: SimTime, bytes: u64) -> Grant {
            self.requests += 1;
            if bytes == 0 {
                return Grant {
                    done: arrive,
                    queued: SimTime::ZERO,
                };
            }
            let quota = (self.capacity * self.weights[client] / self.weight_sum).max(1);
            let mut w = arrive.as_ps() / self.window.as_ps();
            let mut remaining = bytes;
            let mut last_fill = 0u64;
            while remaining > 0 {
                let capped = self.contended(client, w);
                let n_clients = self.weights.len();
                let win = self.windows.entry(w).or_insert_with(|| Window {
                    total: 0,
                    per_client: vec![0; n_clients],
                });
                let free = self.capacity - win.total;
                let allowed = if capped {
                    free.min(quota.saturating_sub(win.per_client[client]))
                } else {
                    free
                };
                let take = remaining.min(allowed);
                if take > 0 {
                    win.total += take;
                    win.per_client[client] += take;
                    self.per_client_bytes[client] += take;
                    self.total_bytes += take;
                    remaining -= take;
                    last_fill = win.total;
                    self.max_fill = self.max_fill.max(win.total);
                }
                if remaining > 0 {
                    w += 1;
                }
            }
            let drained = SimTime::from_ps(w * self.window.as_ps())
                + self.window * (last_fill as f64 / self.capacity as f64);
            let floor = arrive + SimTime::from_secs(bytes as f64 / self.bytes_per_sec);
            let done = drained.max(floor);
            let queued = done - floor;
            self.queued_total += queued;
            self.per_client_queued[client] += queued;
            if !queued.is_zero() {
                self.per_client_wait_events[client] += 1;
            }
            Grant { done, queued }
        }

        pub fn max_fill_frac(&self) -> f64 {
            self.max_fill as f64 / self.capacity as f64
        }

        pub fn mean_fill_frac(&self) -> f64 {
            if self.windows.is_empty() {
                return 0.0;
            }
            let sum: u64 = self.windows.values().map(|w| w.total).sum();
            sum as f64 / (self.capacity as f64 * self.windows.len() as f64)
        }

        pub fn windows_touched(&self) -> usize {
            self.windows.len()
        }

        pub fn check_conservation(&self) -> Result<(), String> {
            let mut recomputed = vec![0u64; self.weights.len()];
            for (idx, win) in &self.windows {
                if win.total > self.capacity {
                    return Err(format!("window {idx} over capacity"));
                }
                if win.per_client.iter().sum::<u64>() != win.total {
                    return Err(format!("window {idx} per-client sum"));
                }
                for (c, b) in win.per_client.iter().enumerate() {
                    recomputed[c] += b;
                }
            }
            if recomputed != self.per_client_bytes
                || self.per_client_bytes.iter().sum::<u64>() != self.total_bytes
            {
                return Err("ledgers disagree".into());
            }
            Ok(())
        }
    }
}

#[derive(Debug, Clone)]
struct Req {
    client: usize,
    gap_ns: u64,
    bytes: u64,
}

fn req(clients: usize) -> impl Strategy<Value = Req> {
    (0..clients, 0u64..50_000, 0u64..2_000_000).prop_map(|(client, gap_ns, bytes)| Req {
        client,
        gap_ns,
        bytes,
    })
}

#[derive(Debug, Clone)]
struct MixedReq {
    client: usize,
    gap_ns: u64,
    bytes: u64,
    back: bool,
}

/// Both clients; small, zero-byte and window-saturating sizes; forward
/// gaps and occasional backward (out-of-order) arrivals.
fn mixed_req() -> impl Strategy<Value = MixedReq> {
    (
        0..2usize,
        0u64..20_000,
        prop_oneof![Just(0u64), 1u64..4_096, 100_000u64..2_000_000],
        0u8..5,
    )
        .prop_map(|(client, gap_ns, bytes, back)| MixedReq {
            client,
            gap_ns,
            bytes,
            back: back == 0,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bandwidth_is_conserved_across_any_traffic_mix(
        reqs in prop::collection::vec(req(3), 1..120),
        w1 in 1u64..5,
        w2 in 1u64..5,
        w3 in 1u64..5,
    ) {
        let mut arb = SharedBandwidth::new(80e9, SimTime::from_us(5.0), &[w1, w2, w3]);
        let mut at = SimTime::ZERO;
        let mut offered = [0u64; 3];
        for r in &reqs {
            at += SimTime::from_ns(r.gap_ns as f64);
            let grant = arb.request(r.client, at, r.bytes);
            offered[r.client] += r.bytes;
            // No request beats the speed of the wire.
            prop_assert!(grant.done >= at + arb.wire_time(r.bytes));
            prop_assert!(grant.queued >= SimTime::ZERO);
        }
        // Every offered byte was granted somewhere, to the right client.
        for (c, bytes) in offered.iter().enumerate() {
            prop_assert_eq!(arb.client_bytes(c), *bytes);
        }
        prop_assert_eq!(arb.total_bytes(), offered.iter().sum::<u64>());
        // No window overbooked, ledgers agree with the window sums.
        prop_assert!(arb.max_fill_frac() <= 1.0 + 1e-12);
        if let Err(e) = arb.check_conservation() {
            return Err(TestCaseError::fail(e));
        }
    }

    #[test]
    fn out_of_order_submission_gives_order_independent_ledgers(
        reqs in prop::collection::vec(req(2), 1..60),
    ) {
        // Submit the same timestamped requests in two different orders:
        // per-window grants may differ (arbitration is first-come within a
        // window), but conservation must hold in both and total bytes per
        // client must match.
        let build = |order: &[Req]| {
            let arb = SharedBandwidth::two_client(80e9, SimTime::from_us(5.0));
            let mut at = SimTime::ZERO;
            let mut stamped: Vec<(usize, SimTime, u64)> = Vec::new();
            for r in order {
                at += SimTime::from_ns(r.gap_ns as f64);
                stamped.push((r.client, at, r.bytes));
            }
            (arb.clone(), stamped)
        };
        let (proto, stamped) = build(&reqs);
        let mut fwd = proto.clone();
        for (c, at, b) in &stamped {
            fwd.request(*c, *at, *b);
        }
        let mut rev = proto;
        for (c, at, b) in stamped.iter().rev() {
            rev.request(*c, *at, *b);
        }
        for arb in [&fwd, &rev] {
            if let Err(e) = arb.check_conservation() {
                return Err(TestCaseError::fail(e));
            }
        }
        prop_assert_eq!(fwd.client_bytes(0), rev.client_bytes(0));
        prop_assert_eq!(fwd.client_bytes(1), rev.client_bytes(1));
        prop_assert_eq!(fwd.total_bytes(), rev.total_bytes());
    }

    #[test]
    fn dense_ledger_matches_the_btree_oracle(
        reqs in prop::collection::vec(mixed_req(), 1..150),
        start_us in prop_oneof![Just(0u64), 1u64..100_000],
        w_oltp in 1u64..4,
        w_olap in 1u64..4,
    ) {
        // 40 KB windows (8 GB/s, 5 us): 2 MB requests saturate dozens of
        // windows, so capping, full windows and zero-take visits all occur.
        let window = SimTime::from_us(5.0);
        let weights = [w_oltp, w_olap];
        let mut dense = SharedBandwidth::new(8e9, window, &weights);
        let mut oracle = oracle::BTreeBandwidth::new(8e9, window, &weights);
        let mut at = SimTime::from_us(start_us as f64);
        for r in &reqs {
            // A backward step models functional-order submission: the
            // request arrives earlier than ones already booked (possibly
            // before the first window the ledger spans).
            let arrive = if r.back {
                at.saturating_sub(SimTime::from_ns(r.gap_ns as f64 * 20.0))
            } else {
                at += SimTime::from_ns(r.gap_ns as f64);
                at
            };
            let got = dense.request(r.client, arrive, r.bytes);
            let want = oracle.request(r.client, arrive, r.bytes);
            prop_assert_eq!(got.done, want.done);
            prop_assert_eq!(got.queued, want.queued);
            prop_assert_eq!(
                dense.mean_fill_frac().to_bits(),
                oracle.mean_fill_frac().to_bits()
            );
            prop_assert_eq!(dense.windows_touched(), oracle.windows_touched());
        }
        prop_assert_eq!(dense.max_fill_frac().to_bits(), oracle.max_fill_frac().to_bits());
        prop_assert_eq!(dense.queued_total(), oracle.queued_total);
        prop_assert_eq!(dense.requests(), oracle.requests);
        prop_assert_eq!(dense.total_bytes(), oracle.total_bytes);
        for c in 0..2 {
            prop_assert_eq!(dense.client_bytes(c), oracle.per_client_bytes[c]);
            prop_assert_eq!(dense.client_queued(c), oracle.per_client_queued[c]);
            prop_assert_eq!(dense.client_wait_events(c), oracle.per_client_wait_events[c]);
        }
        prop_assert_eq!(dense.check_conservation().is_ok(), oracle.check_conservation().is_ok());
        if let Err(e) = dense.check_conservation() {
            return Err(TestCaseError::fail(e));
        }
    }
}
