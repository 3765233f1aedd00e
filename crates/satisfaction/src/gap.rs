//! A cheap, windowed signal of the consumer/provider satisfaction gap.
//!
//! The paper's self-adaptation pitch is that the mediator should *observe*
//! how far apart the two sides' satisfaction drifts and react — Equation 2
//! already does this per pair for ω, and the adaptive-`kn` controller
//! (`sbqa_core::adaptive`) does it per capability class for the exploration
//! width. Both need the same input: a per-mediation **gap sample**, cheap
//! enough for the zero-allocation hot path.
//!
//! [`GapSample`] is that input: the satisfaction of the issuing consumer and
//! the mean satisfaction of the consulted providers (the set `Kn`), read at
//! mediation time. SbQA's allocator already fetches both values to resolve ω
//! (Equation 2), so producing a sample costs one addition per consulted
//! provider and one division — no extra registry reads.
//!
//! [`GapWindow`] smooths the samples: a fixed-capacity ring with running
//! sums, so recording is O(1), the windowed means are O(1) reads, and the
//! window never allocates after construction. The window is deliberately a
//! pure function of the sample stream — no clocks, no randomness — which is
//! what lets controllers built on it keep golden outputs byte-stable.

use serde::{Deserialize, Serialize};

/// One mediation's view of both sides' satisfaction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GapSample {
    /// Satisfaction of the issuing consumer, in `[0, 1]`.
    pub consumer: f64,
    /// Mean satisfaction of the consulted providers (the set `Kn`),
    /// in `[0, 1]`.
    pub provider: f64,
}

impl GapSample {
    /// Builds a sample from the two sides' satisfaction values, clamping
    /// non-finite inputs to the neutral `0.5`.
    #[must_use]
    pub fn new(consumer: f64, provider: f64) -> Self {
        let sane = |v: f64| {
            if v.is_finite() {
                v.clamp(0.0, 1.0)
            } else {
                0.5
            }
        };
        Self {
            consumer: sane(consumer),
            provider: sane(provider),
        }
    }

    /// Builds the instantaneous per-mediation sample from pre-accumulated
    /// unit-interval gains: `consumer_gain` is the sum of `(CIq[p] + 1) / 2`
    /// over the *selected* providers (normalised by `q.n` per Definition 1 —
    /// missing results count as zero), `provider_gain` the sum of
    /// `(PIq[p] + 1) / 2` over the selected providers (normalised by the
    /// number of *consulted* providers: every rejected proposal contributes
    /// a zero, the per-proposal Definition-2 reading).
    ///
    /// This is the normalisation SbQA's allocator goes through for its
    /// instantaneous samples. A mediation that consulted nobody reports the
    /// neutral `0.5` on the provider side.
    #[must_use]
    pub fn from_sums(
        consumer_gain: f64,
        required_results: usize,
        provider_gain: f64,
        consulted: usize,
    ) -> Self {
        let consumer = consumer_gain / required_results.max(1) as f64;
        let provider = if consulted == 0 {
            0.5
        } else {
            provider_gain / consulted as f64
        };
        Self::new(consumer, provider)
    }

    /// The signed gap `consumer − provider`: positive when consumers are the
    /// better-served side, negative when providers are.
    #[must_use]
    pub fn gap(&self) -> f64 {
        self.consumer - self.provider
    }
}

/// A fixed-capacity sliding window of [`GapSample`]s with O(1) means.
///
/// The ring keeps the last `capacity` samples and maintains running sums of
/// both sides, so recording evicts-and-adds in constant time and the means
/// are single divisions. All state is a pure function of the recorded
/// sample stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GapWindow {
    samples: Vec<GapSample>,
    /// Position the next sample overwrites once the ring is full.
    head: usize,
    capacity: usize,
    consumer_sum: f64,
    provider_sum: f64,
}

impl GapWindow {
    /// Creates a window remembering the last `capacity` samples (raised to 1
    /// if 0). The ring buffer is allocated up front so recording never
    /// allocates.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            samples: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            consumer_sum: 0.0,
            provider_sum: 0.0,
        }
    }

    /// The configured window length.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of samples currently in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no sample has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Records a sample, evicting the oldest one once the window is full.
    pub fn record(&mut self, sample: GapSample) {
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
        } else {
            let evicted = std::mem::replace(&mut self.samples[self.head], sample);
            self.head = (self.head + 1) % self.capacity;
            self.consumer_sum -= evicted.consumer;
            self.provider_sum -= evicted.provider;
        }
        self.consumer_sum += sample.consumer;
        self.provider_sum += sample.provider;
    }

    /// Windowed mean of the consumer side, or 0.5 (neutral) if empty.
    #[must_use]
    pub fn consumer_mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.5;
        }
        (self.consumer_sum / self.samples.len() as f64).clamp(0.0, 1.0)
    }

    /// Windowed mean of the provider side, or 0.5 (neutral) if empty.
    #[must_use]
    pub fn provider_mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.5;
        }
        (self.provider_sum / self.samples.len() as f64).clamp(0.0, 1.0)
    }

    /// Windowed mean of the signed gap `consumer − provider`; 0 if empty.
    #[must_use]
    pub fn gap(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.consumer_mean() - self.provider_mean()
    }

    /// Empties the window (running sums are reset exactly, so long-lived
    /// windows shed any accumulated floating-point drift at each clear).
    pub fn clear(&mut self) {
        self.samples.clear();
        self.head = 0;
        self.consumer_sum = 0.0;
        self.provider_sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_gap_is_signed() {
        let sample = GapSample::new(0.9, 0.4);
        assert!((sample.gap() - 0.5).abs() < 1e-12);
        let sample = GapSample::new(0.2, 0.8);
        assert!((sample.gap() + 0.6).abs() < 1e-12);
    }

    #[test]
    fn sample_sanitises_degenerate_inputs() {
        let sample = GapSample::new(f64::NAN, 7.0);
        assert_eq!(sample.consumer, 0.5);
        assert_eq!(sample.provider, 1.0);
        let sample = GapSample::new(-3.0, f64::INFINITY);
        assert_eq!(sample.consumer, 0.0);
        assert_eq!(sample.provider, 0.5);
    }

    #[test]
    fn from_sums_is_the_shared_normalisation() {
        // Consumer required 2 results and got providers with intentions 1
        // and 0: (1 + 0.5) / 2 = 0.75, the Definition 1 value. Three
        // proposals, those two performed and one rejected: (1 + 0.5) / 3.
        let sample = GapSample::from_sums(1.5, 2, 1.5, 3);
        assert!((sample.consumer - 0.75).abs() < 1e-12);
        assert!((sample.provider - 0.5).abs() < 1e-12);
        // Nobody consulted: the provider side is neutral, and a zero q.n
        // behaves like 1.
        let sample = GapSample::from_sums(0.9, 0, 0.0, 0);
        assert!((sample.consumer - 0.9).abs() < 1e-12);
        assert_eq!(sample.provider, 0.5);
    }

    #[test]
    fn window_slides_and_keeps_exact_means() {
        let mut window = GapWindow::new(2);
        assert!(window.is_empty());
        assert_eq!(window.gap(), 0.0);
        assert_eq!(window.consumer_mean(), 0.5);

        window.record(GapSample::new(1.0, 0.0));
        assert_eq!(window.len(), 1);
        assert!((window.gap() - 1.0).abs() < 1e-12);

        window.record(GapSample::new(0.5, 0.5));
        assert!((window.consumer_mean() - 0.75).abs() < 1e-12);
        assert!((window.provider_mean() - 0.25).abs() < 1e-12);

        // Third sample evicts the first: means cover (0.5, 0.5), (0.0, 1.0).
        window.record(GapSample::new(0.0, 1.0));
        assert_eq!(window.len(), 2);
        assert!((window.consumer_mean() - 0.25).abs() < 1e-12);
        assert!((window.provider_mean() - 0.75).abs() < 1e-12);
        assert!((window.gap() + 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_eviction_cycles_past_capacity() {
        let mut window = GapWindow::new(3);
        for i in 0..10 {
            let v = f64::from(i) / 10.0;
            window.record(GapSample::new(v, 0.0));
        }
        // Survivors are the last three: 0.7, 0.8, 0.9.
        assert_eq!(window.len(), 3);
        assert!((window.consumer_mean() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn window_capacity_is_sanitised_and_clear_resets() {
        let mut window = GapWindow::new(0);
        assert_eq!(window.capacity(), 1);
        window.record(GapSample::new(0.9, 0.1));
        window.record(GapSample::new(0.1, 0.9));
        assert_eq!(window.len(), 1);
        assert!((window.gap() + 0.8).abs() < 1e-12);
        window.clear();
        assert!(window.is_empty());
        assert_eq!(window.gap(), 0.0);
    }

    #[test]
    fn recording_never_allocates_after_construction() {
        let mut window = GapWindow::new(8);
        let base_capacity = window.samples.capacity();
        for i in 0..1000 {
            window.record(GapSample::new((i % 10) as f64 / 10.0, 0.3));
        }
        assert_eq!(window.samples.capacity(), base_capacity);
    }
}
