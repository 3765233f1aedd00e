//! Response-time accounting.
//!
//! Every scenario reports response times next to satisfaction: SbQA's thesis
//! is that satisfying participants does not have to cost much performance in
//! captive environments and actually *wins* performance in autonomous ones
//! (because capacity stays online). [`ResponseTimeStats`] collects completed
//! and starved queries and produces the columns used by the scenario tables.

use sbqa_types::{Duration, QueryOutcome, VirtualTime};

use crate::summary::Summary;

/// Collector for query response times and completion counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResponseTimeStats {
    completed: Summary,
    starved: u64,
    unfinished: u64,
    last_completion: Option<VirtualTime>,
}

impl ResponseTimeStats {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed query's response time.
    pub fn record_response(&mut self, response_time: Duration) {
        self.completed.record(response_time.seconds());
    }

    /// Records a query that could not be allocated at all.
    pub fn record_starved(&mut self) {
        self.starved += 1;
    }

    /// Records a query that was allocated but never completed before the end
    /// of the run (still in a provider queue).
    pub fn record_unfinished(&mut self) {
        self.unfinished += 1;
    }

    /// Records a [`QueryOutcome`], dispatching to the appropriate counter.
    pub fn record_outcome(&mut self, outcome: &QueryOutcome) {
        if outcome.starved {
            self.record_starved();
            return;
        }
        match outcome.response_time() {
            Some(rt) => {
                self.record_response(rt);
                self.last_completion = match self.last_completion {
                    Some(prev) => Some(prev.max(outcome.completed_at.unwrap_or(prev))),
                    None => outcome.completed_at,
                };
            }
            None => self.record_unfinished(),
        }
    }

    /// Number of completed queries.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed.count()
    }

    /// Number of queries the mediator could not place.
    #[must_use]
    pub fn starved(&self) -> u64 {
        self.starved
    }

    /// Number of allocated-but-unfinished queries.
    #[must_use]
    pub fn unfinished(&self) -> u64 {
        self.unfinished
    }

    /// Total number of observed queries.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.completed() + self.starved + self.unfinished
    }

    /// Mean response time of completed queries, in virtual seconds.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.completed.mean()
    }

    /// Median response time of completed queries.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.completed.median()
    }

    /// 95th-percentile response time of completed queries.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.completed.percentile(0.95)
    }

    /// Maximum response time of completed queries.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.completed.max()
    }

    /// Fraction of queries that completed.
    #[must_use]
    pub fn completion_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        self.completed() as f64 / total as f64
    }

    /// Throughput in completed queries per virtual second, measured against
    /// the supplied run length.
    #[must_use]
    pub fn throughput(&self, run_length: Duration) -> f64 {
        if run_length.seconds() <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / run_length.seconds()
    }

    /// Access to the underlying response-time summary.
    #[must_use]
    pub fn summary(&self) -> &Summary {
        &self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_types::{ConsumerId, ProviderId, QueryId};

    fn outcome(issued: f64, completed: Option<f64>, starved: bool) -> QueryOutcome {
        QueryOutcome {
            query: QueryId::new(1),
            consumer: ConsumerId::new(1),
            performed_by: if starved {
                vec![]
            } else {
                vec![ProviderId::new(1)]
            },
            issued_at: VirtualTime::new(issued),
            completed_at: completed.map(VirtualTime::new),
            starved,
        }
    }

    #[test]
    fn records_and_classifies_outcomes() {
        let mut stats = ResponseTimeStats::new();
        stats.record_outcome(&outcome(0.0, Some(2.0), false));
        stats.record_outcome(&outcome(1.0, Some(5.0), false));
        stats.record_outcome(&outcome(2.0, None, false));
        stats.record_outcome(&outcome(3.0, None, true));

        assert_eq!(stats.completed(), 2);
        assert_eq!(stats.unfinished(), 1);
        assert_eq!(stats.starved(), 1);
        assert_eq!(stats.total(), 4);
        assert!((stats.mean() - 3.0).abs() < 1e-12);
        assert!((stats.completion_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_benign_defaults() {
        let stats = ResponseTimeStats::new();
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.mean(), 0.0);
        assert_eq!(stats.completion_rate(), 1.0);
        assert_eq!(stats.throughput(Duration::new(100.0)), 0.0);
    }

    #[test]
    fn throughput_uses_run_length() {
        let mut stats = ResponseTimeStats::new();
        for i in 0..10 {
            stats.record_outcome(&outcome(i as f64, Some(i as f64 + 1.0), false));
        }
        assert!((stats.throughput(Duration::new(20.0)) - 0.5).abs() < 1e-12);
        assert_eq!(stats.throughput(Duration::ZERO), 0.0);
    }

    #[test]
    fn percentiles_track_tail_latency() {
        let mut stats = ResponseTimeStats::new();
        for rt in [1.0, 1.0, 1.0, 1.0, 50.0] {
            stats.record_response(Duration::new(rt));
        }
        assert!(stats.p95() >= stats.median());
        assert_eq!(stats.max(), 50.0);
    }
}
