//! NaN-safe total ordering for `f64` comparison on the allocation hot path.
//!
//! SbQA's query allocation is specified to be a pure function of
//! `(registry state, seed)`, and every ranking step in the workspace sorts or
//! selects by some `f64` score (satisfaction, utilization, bids). The two
//! idiomatic float-comparison escapes both break that contract:
//!
//! * `partial_cmp(..).unwrap()` panics the mediator on the first NaN, and
//! * `partial_cmp(..).unwrap_or(Ordering::Equal)` makes NaN compare *equal to
//!   everything*, which is not transitive — the resulting sort order then
//!   depends on element positions and the standard library's sort
//!   implementation rather than on the data.
//!
//! [`f64_total_cmp`] is the single comparator every ranking site is expected
//! to use (the `float-ordering` rule of `sbqa-lint` rejects raw
//! `.partial_cmp(..)` calls in library code). It is [`f64::total_cmp`] with
//! one adjustment: `-0.0` and `+0.0` compare equal, exactly as they did under
//! `partial_cmp`, so adopting it cannot reorder any historical golden output.
//! NaN values order deterministically at the extremes (`-NaN` below
//! `-infinity`, `+NaN` above `+infinity`) instead of nondeterministically in
//! the middle.

use std::cmp::Ordering;

/// Compares two `f64` values under a deterministic total order.
///
/// Properties:
///
/// * agrees with `partial_cmp` for every pair of non-NaN operands, including
///   `-0.0 == +0.0` (so swapping it in preserves byte-identical outputs on
///   NaN-free data);
/// * total and transitive even when NaN appears: `-NaN < -∞` and `+∞ < +NaN`,
///   so a stray NaN score ranks deterministically instead of panicking
///   (`unwrap`) or corrupting the sort (`unwrap_or(Equal)`).
///
/// ```
/// use std::cmp::Ordering;
/// use sbqa_types::float_ord::f64_total_cmp;
///
/// assert_eq!(f64_total_cmp(1.0, 2.0), Ordering::Less);
/// assert_eq!(f64_total_cmp(-0.0, 0.0), Ordering::Equal);
/// assert_eq!(f64_total_cmp(f64::NAN, f64::INFINITY), Ordering::Greater);
/// ```
#[must_use]
pub fn f64_total_cmp(a: f64, b: f64) -> Ordering {
    // Maps `-0.0` to `+0.0` by comparison, so the only place this differs
    // from raw `total_cmp` is the signed-zero pair. Not `x + 0.0`: that
    // leaves a NaN's sign to the arithmetic — LLVM folds `-NaN + 0.0` to
    // `+NaN` at compile time while x86 keeps the sign at run time — and the
    // order of a NaN would then depend on inlining and the build profile.
    let zero = |x: f64| if x == 0.0 { 0.0 } else { x };
    zero(a).total_cmp(&zero(b))
}

/// Sorts a slice of `f64` ascending under [`f64_total_cmp`].
pub fn sort_ascending(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| f64_total_cmp(*a, *b));
}

/// Sorts a slice of `f64` descending under [`f64_total_cmp`].
pub fn sort_descending(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| f64_total_cmp(*b, *a));
}

#[cfg(test)]
mod tests {
    use std::hint::black_box;

    use super::*;

    #[test]
    fn agrees_with_partial_cmp_on_ordinary_values() {
        let samples = [
            -f64::INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.25,
            1.0,
            f64::INFINITY,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    f64_total_cmp(a, b),
                    a.partial_cmp(&b).expect("samples are not NaN"),
                    "mismatch for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn nan_orders_at_the_extremes() {
        assert_eq!(f64_total_cmp(f64::NAN, f64::INFINITY), Ordering::Greater);
        assert_eq!(f64_total_cmp(-f64::NAN, -f64::INFINITY), Ordering::Less);
        assert_eq!(f64_total_cmp(f64::NAN, f64::NAN), Ordering::Equal);
        // The same pairs through `black_box`, which the optimiser cannot
        // fold: the run-time path must order NaN exactly as the folded one.
        let cmp = |a: f64, b: f64| f64_total_cmp(black_box(a), black_box(b));
        assert_eq!(cmp(f64::NAN, f64::INFINITY), Ordering::Greater);
        assert_eq!(cmp(-f64::NAN, -f64::INFINITY), Ordering::Less);
        assert_eq!(cmp(f64::NAN, f64::NAN), Ordering::Equal);
        assert_eq!(cmp(-0.0, 0.0), Ordering::Equal);
    }

    #[test]
    fn transitive_even_with_nan() {
        let mut values = [1.0, f64::NAN, -0.0, -f64::NAN, 0.5, f64::INFINITY];
        sort_ascending(&mut values);
        for pair in values.windows(2) {
            assert_ne!(f64_total_cmp(pair[0], pair[1]), Ordering::Greater);
        }
        sort_descending(&mut values);
        for pair in values.windows(2) {
            assert_ne!(f64_total_cmp(pair[0], pair[1]), Ordering::Less);
        }
    }

    #[test]
    fn signed_zero_compares_equal() {
        assert_eq!(f64_total_cmp(-0.0, 0.0), Ordering::Equal);
        assert_eq!(f64_total_cmp(0.0, -0.0), Ordering::Equal);
    }
}
