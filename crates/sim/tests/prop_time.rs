//! `SimTime`'s float constructors round exactly like `f64::round`.
//!
//! Every `from_*` constructor and `SimTime * f64` must give the same
//! picosecond count as `(x * scale).round() as u64` — the definition the
//! simulator's cost model was calibrated against — for every input: NaN,
//! infinities, negatives, values past `u64::MAX`, and the ties and
//! near-ties where a rounding shortcut would go wrong.

use bionic_sim::time::SimTime;
use proptest::prelude::*;

/// The reference: what every constructor computed with libm `round`.
fn reference(x: f64) -> u64 {
    x.round() as u64
}

fn check_all(x: f64) {
    let bits = x.to_bits();
    assert_eq!(
        SimTime::from_ns(x).as_ps(),
        reference(x * 1e3),
        "from_ns({x:e}) {bits:#x}"
    );
    assert_eq!(
        SimTime::from_us(x).as_ps(),
        reference(x * 1e6),
        "from_us({x:e}) {bits:#x}"
    );
    assert_eq!(
        SimTime::from_ms(x).as_ps(),
        reference(x * 1e9),
        "from_ms({x:e}) {bits:#x}"
    );
    assert_eq!(
        SimTime::from_secs(x).as_ps(),
        reference(x * 1e12),
        "from_secs({x:e}) {bits:#x}"
    );
    for ps in [0u64, 1, 3, 999, 1 << 40, u64::MAX] {
        assert_eq!(
            (SimTime::from_ps(ps) * x).as_ps(),
            reference(ps as f64 * x),
            "{ps} ps * {x:e} {bits:#x}"
        );
    }
}

/// Doubles whose magnitude lands where rounding is non-trivial: a random
/// mantissa under an exponent from 2^-3 to 2^54, either sign.
fn interesting() -> impl Strategy<Value = f64> {
    (any::<u64>(), 1020u64..1078, any::<bool>()).prop_map(|(m, e, neg)| {
        let bits = (u64::from(neg) << 63) | (e << 52) | (m & ((1 << 52) - 1));
        f64::from_bits(bits)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn constructors_round_like_f64_round_on_any_bit_pattern(bits in any::<u64>()) {
        check_all(f64::from_bits(bits));
    }

    #[test]
    fn constructors_round_like_f64_round_near_the_rounding_range(x in interesting()) {
        check_all(x);
        // Ties and their neighbours, scaled down so every constructor's
        // product lands on or next to a half.
        let tie = x.trunc() + 0.5;
        for v in [tie, f64::from_bits(tie.to_bits() + 1), f64::from_bits(tie.to_bits() - 1)] {
            check_all(v);
            check_all(v / 1e3);
            check_all(v / 1e12);
        }
    }
}
