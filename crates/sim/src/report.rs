//! Simulation reports.
//!
//! A [`SimulationReport`] gathers everything a scenario needs to print its
//! tables and curves: response-time statistics, the satisfaction analysis
//! over time, load-balance indicators, and the participant head-count
//! (who stayed, who left) that Scenario 4 is really about.

use serde::{Deserialize, Serialize};

use sbqa_core::PlanCacheStats;
use sbqa_metrics::{LoadBalanceReport, ResponseTimeStats, TimeSeries};
use sbqa_satisfaction::SatisfactionAnalysis;
use sbqa_types::ProviderId;

/// How many participants the run started with and kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ParticipantCounts {
    /// Consumers present at the start of the run.
    pub initial_consumers: usize,
    /// Providers present at the start of the run.
    pub initial_providers: usize,
    /// Consumers still online at the end of the run.
    pub final_consumers: usize,
    /// Providers still online at the end of the run.
    pub final_providers: usize,
}

/// The full outcome of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Name of the allocation technique that was simulated.
    pub technique: String,
    /// Length of the run in virtual seconds.
    pub duration: f64,
    /// Master seed of the run.
    pub seed: u64,
    /// Number of queries issued by consumers during the run.
    pub queries_issued: u64,
    /// Response-time and completion statistics.
    pub response: ResponseTimeStats,
    /// Satisfaction snapshots over time.
    pub satisfaction: SatisfactionAnalysis,
    /// Per-provider number of queries performed, for load-balance analysis.
    pub queries_per_provider: Vec<(ProviderId, u64)>,
    /// Per-provider capacity, aligned with `queries_per_provider`.
    pub provider_capacities: Vec<(ProviderId, f64)>,
    /// Participant head-counts at the start and end of the run.
    pub participants: ParticipantCounts,
    /// Fraction of the initial aggregate provider capacity still online at
    /// the end of the run — the "total system capacity" the paper argues
    /// satisfaction-aware allocation preserves.
    pub capacity_retention: f64,
    /// Named time series sampled during the run (satisfaction, response
    /// times, online providers), the analogue of the demo's live plots.
    pub series: Vec<TimeSeries>,
    /// Final satisfaction of every consumer still online at the end of the
    /// run (departed consumers are absent).
    pub consumer_final_satisfaction: Vec<(sbqa_types::ConsumerId, f64)>,
    /// Final satisfaction of every provider still online at the end of the
    /// run (departed providers are absent).
    pub provider_final_satisfaction: Vec<(ProviderId, f64)>,
    /// Counters of the mediator's candidate-plan cache at the end of the
    /// run (all zero for single-capability workloads, which never merge).
    pub plan_cache: PlanCacheStats,
}

impl SimulationReport {
    /// Mean consumer satisfaction at the end of the run (last snapshot), or
    /// 0 if nothing was sampled.
    #[must_use]
    pub fn final_consumer_satisfaction(&self) -> f64 {
        self.satisfaction
            .latest()
            .map_or(0.0, |snap| snap.consumers.mean)
    }

    /// Mean provider satisfaction at the end of the run (last snapshot), or
    /// 0 if nothing was sampled.
    #[must_use]
    pub fn final_provider_satisfaction(&self) -> f64 {
        self.satisfaction
            .latest()
            .map_or(0.0, |snap| snap.providers.mean)
    }

    /// Load-balance report over queries performed per provider, normalised
    /// by provider capacity.
    #[must_use]
    pub fn load_balance(&self) -> LoadBalanceReport {
        let loads: Vec<f64> = self
            .queries_per_provider
            .iter()
            .map(|(_, n)| *n as f64)
            .collect();
        let capacities: Vec<f64> = self.provider_capacities.iter().map(|(_, c)| *c).collect();
        LoadBalanceReport::from_loads_and_capacities(&loads, &capacities)
    }

    /// Throughput in completed queries per virtual second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.response
            .throughput(sbqa_types::Duration::new(self.duration))
    }

    /// Looks up a named time series.
    #[must_use]
    pub fn series_named(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name == name)
    }

    /// The final satisfaction of a specific provider, if it is still online
    /// at the end of the run (departed providers return `None`).
    #[must_use]
    pub fn provider_satisfaction_of(&self, provider: ProviderId) -> Option<f64> {
        self.provider_final_satisfaction
            .iter()
            .find(|(id, _)| *id == provider)
            .map(|(_, s)| *s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_metrics::TimeSeries;
    use sbqa_satisfaction::{SatisfactionAnalysis, SatisfactionSnapshot, SideSummary};
    use sbqa_types::VirtualTime;

    fn snapshot(at: f64, consumer_mean: f64, provider_mean: f64) -> SatisfactionSnapshot {
        SatisfactionSnapshot {
            at: VirtualTime::new(at),
            consumers: SideSummary {
                count: 2,
                mean: consumer_mean,
                min: consumer_mean,
                max: consumer_mean,
                std_dev: 0.0,
                fraction_below_threshold: 0.0,
            },
            providers: SideSummary {
                count: 3,
                mean: provider_mean,
                min: provider_mean,
                max: provider_mean,
                std_dev: 0.0,
                fraction_below_threshold: 0.0,
            },
        }
    }

    fn report() -> SimulationReport {
        let mut analysis = SatisfactionAnalysis::new("SbQA");
        analysis.push(snapshot(10.0, 0.9, 0.2));
        analysis.push(snapshot(20.0, 0.8, 0.6));

        let mut series = TimeSeries::new("online_providers");
        series.push(VirtualTime::new(10.0), 3.0);
        series.push(VirtualTime::new(20.0), 2.0);

        SimulationReport {
            technique: "SbQA".to_string(),
            duration: 20.0,
            seed: 1,
            queries_issued: 10,
            response: ResponseTimeStats::new(),
            satisfaction: analysis,
            queries_per_provider: vec![
                (ProviderId::new(1), 4),
                (ProviderId::new(2), 4),
                (ProviderId::new(3), 2),
            ],
            provider_capacities: vec![
                (ProviderId::new(1), 2.0),
                (ProviderId::new(2), 2.0),
                (ProviderId::new(3), 1.0),
            ],
            participants: ParticipantCounts {
                initial_consumers: 2,
                initial_providers: 4,
                final_consumers: 2,
                final_providers: 3,
            },
            capacity_retention: 0.8,
            series: vec![series],
            consumer_final_satisfaction: vec![(sbqa_types::ConsumerId::new(1), 0.8)],
            provider_final_satisfaction: vec![(ProviderId::new(1), 0.6)],
            plan_cache: PlanCacheStats::default(),
        }
    }

    #[test]
    fn per_participant_satisfaction_lookup() {
        let r = report();
        assert_eq!(r.provider_satisfaction_of(ProviderId::new(1)), Some(0.6));
        assert_eq!(r.provider_satisfaction_of(ProviderId::new(99)), None);
    }

    #[test]
    fn final_satisfaction_reads_last_snapshot() {
        let r = report();
        assert!((r.final_consumer_satisfaction() - 0.8).abs() < 1e-12);
        assert!((r.final_provider_satisfaction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn load_balance_normalises_by_capacity() {
        let r = report();
        let balance = r.load_balance();
        assert_eq!(balance.providers, 3);
        // Per-capacity loads are 2, 2, 2: perfectly balanced.
        assert!(balance.gini.abs() < 1e-12);
    }

    #[test]
    fn series_lookup() {
        let r = report();
        assert!(r.series_named("online_providers").is_some());
        assert!(r.series_named("missing").is_none());
    }

    #[test]
    fn throughput_uses_duration() {
        let mut r = report();
        r.response.record_response(sbqa_types::Duration::new(1.0));
        r.response.record_response(sbqa_types::Duration::new(2.0));
        assert!((r.throughput() - 0.1).abs() < 1e-12);
    }
}
