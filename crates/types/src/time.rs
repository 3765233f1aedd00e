//! Virtual time for the discrete-event simulation.
//!
//! The paper's prototype used SimJava; our substitute keeps its own virtual
//! clock. Time is represented as a non-negative `f64` number of *virtual
//! seconds*; the unit is arbitrary but consistent across the workspace
//! (query service times, network latencies and inter-arrival times are all
//! expressed in it).

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point in virtual time, in seconds since the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
#[serde(transparent)]
pub struct VirtualTime(f64);

/// A span of virtual time, in seconds. Always non-negative.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
#[serde(transparent)]
pub struct Duration(f64);

impl VirtualTime {
    /// The origin of the simulation.
    pub const ZERO: VirtualTime = VirtualTime(0.0);

    /// Creates a time point; negative or NaN inputs are clamped to zero.
    #[must_use]
    pub fn new(seconds: f64) -> Self {
        if seconds.is_nan() || seconds < 0.0 {
            return Self::ZERO;
        }
        Self(seconds)
    }

    /// Seconds since the origin.
    #[must_use]
    pub const fn seconds(self) -> f64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is later.
    #[must_use]
    pub fn since(self, earlier: VirtualTime) -> Duration {
        Duration::new(self.0 - earlier.0)
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0.0);

    /// Creates a duration; negative or NaN inputs are clamped to zero.
    #[must_use]
    pub fn new(seconds: f64) -> Self {
        if seconds.is_nan() || seconds < 0.0 {
            return Self::ZERO;
        }
        Self(seconds)
    }

    /// The span expressed in seconds.
    #[must_use]
    pub const fn seconds(self) -> f64 {
        self.0
    }

    /// Scales the duration by a non-negative factor.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Duration {
        Duration::new(self.0 * factor)
    }
}

impl Eq for VirtualTime {}
impl Eq for Duration {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl PartialOrd for VirtualTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VirtualTime {
    fn cmp(&self, other: &Self) -> Ordering {
        crate::float_ord::f64_total_cmp(self.0, other.0)
    }
}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl PartialOrd for Duration {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Duration {
    fn cmp(&self, other: &Self) -> Ordering {
        crate::float_ord::f64_total_cmp(self.0, other.0)
    }
}

impl Add<Duration> for VirtualTime {
    type Output = VirtualTime;

    fn add(self, rhs: Duration) -> Self::Output {
        VirtualTime::new(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for VirtualTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<VirtualTime> for VirtualTime {
    type Output = Duration;

    fn sub(self, rhs: VirtualTime) -> Self::Output {
        Duration::new(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Self::Output {
        Duration::new(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Self {
        let mut total = Duration::ZERO;
        for d in iter {
            total += d;
        }
        total
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_rejects_negative_and_nan() {
        assert_eq!(VirtualTime::new(-1.0), VirtualTime::ZERO);
        assert_eq!(VirtualTime::new(f64::NAN), VirtualTime::ZERO);
        assert_eq!(Duration::new(-0.5), Duration::ZERO);
        assert_eq!(Duration::new(f64::NAN), Duration::ZERO);
    }

    #[test]
    fn arithmetic_is_consistent() {
        let t0 = VirtualTime::new(10.0);
        let d = Duration::new(2.5);
        let t1 = t0 + d;
        assert_eq!(t1.seconds(), 12.5);
        assert_eq!((t1 - t0).seconds(), 2.5);
        assert_eq!(t1.since(t0).seconds(), 2.5);
        // Subtraction saturates rather than going negative.
        assert_eq!((t0 - t1), Duration::ZERO);
    }

    #[test]
    fn ordering_and_sums() {
        assert!(VirtualTime::new(1.0) < VirtualTime::new(2.0));
        let total: Duration = [Duration::new(1.0), Duration::new(2.0)].into_iter().sum();
        assert_eq!(total.seconds(), 3.0);
        assert_eq!(Duration::new(2.0).scaled(1.5).seconds(), 3.0);
        assert_eq!(Duration::new(2.0).scaled(-1.0), Duration::ZERO);
    }

    #[test]
    fn add_assign_advances_clock() {
        let mut t = VirtualTime::ZERO;
        t += Duration::new(4.0);
        t += Duration::new(0.5);
        assert_eq!(t.seconds(), 4.5);
    }

    proptest! {
        #[test]
        fn prop_times_never_negative(raw in proptest::num::f64::ANY) {
            prop_assert!(VirtualTime::new(raw).seconds() >= 0.0);
            prop_assert!(Duration::new(raw).seconds() >= 0.0);
        }

        #[test]
        fn prop_add_then_subtract_round_trips(base in 0.0f64..1e9, delta in 0.0f64..1e6) {
            let t0 = VirtualTime::new(base);
            let d = Duration::new(delta);
            let diff = ((t0 + d) - t0).seconds();
            prop_assert!((diff - delta).abs() < 1e-6);
        }
    }
}
