//! Small numeric helpers: medians, the model digest, interpolated
//! percentiles and peak memory.

use bionic_sim::stats::Histogram;
use bionic_sim::time::SimTime;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over `text`: the model digest. Any change to a simulated
/// statistic changes the text it is computed from, and so the digest.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Quantile `q` of a latency histogram in microseconds, interpolated
/// linearly inside the containing bucket by the rank's position among the
/// bucket's samples.
///
/// [`Histogram::quantile`] returns the bucket's lower bound, which is
/// constant across seeds whenever the percentile stays in one ~1.6 %-wide
/// bucket; interpolation keeps the reported value a continuous function of
/// the samples. Only the histogram's public `quantile` is used: the bucket
/// is the run of ranks that share its floor, and its upper edge is the
/// next occupied bucket's floor (adjacent at the dense p50/p99 of these
/// runs).
pub fn interp_quantile_us(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // Rank r (1-based) maps to the q that `quantile` rounds up to r.
    let at = |r: u64| h.quantile((r as f64 - 0.5) / n as f64).as_ps();
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let floor = at(rank);
    // First and last rank in this bucket (quantile is monotone in rank).
    let (mut lo, mut hi) = (1u64, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at(mid) < floor {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at(mid) > floor {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let upper = if last < n {
        at(last + 1)
    } else {
        h.max().as_ps()
    };
    let frac = (rank - first) as f64 / (last - first + 1) as f64;
    SimTime::from_ps(floor).as_us()
        + frac * (SimTime::from_ps(upper).as_us() - SimTime::from_ps(floor).as_us())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn interpolated_quantile_stays_inside_its_bucket_and_moves_with_samples() {
        let mut h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(SimTime::from_ns(50_000.0 + (i % 997) as f64));
        }
        let floor = h.quantile(0.5).as_us();
        let p50 = interp_quantile_us(&h, 0.5);
        assert!(p50 >= floor && p50 < floor * 1.02, "{p50} vs {floor}");
        // One more sample near the median shifts the interpolated value
        // while the bucket floor stays put.
        h.record(SimTime::from_ns(50_400.0));
        assert_eq!(h.quantile(0.5).as_us(), floor);
        assert_ne!(interp_quantile_us(&h, 0.5), p50);
    }
}
