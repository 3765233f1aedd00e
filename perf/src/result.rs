//! The metric catalogue, the result file and `compare`.
//!
//! The catalogue here is the single source of metric names, units,
//! directions and bounds; `BENCHMARK.json` at the repository root repeats it
//! for the driver and a test holds the two together.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::stats::median;
use crate::trace::StageRow;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: defined on every workload, bounded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's value by which the metric may get worse.
    pub bound: f64,
}

/// The eight end-to-end metrics.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "served_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "consumer_satisfaction",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "provider_satisfaction",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A per-layer metric: traced mode only, unbounded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    /// Metric name; its prefix is the module it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload (written
    /// before measuring; see the README's interaction notes).
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// The per-layer metrics, in report order.
pub const PER_LAYER: [PerLayer; 54] = {
    use Better::{Higher, Lower};
    [
        layer(
            "service.router.assign_ns",
            "ns",
            Lower,
            "nothing visible; canary",
        ),
        layer(
            "service.ring.push_pop_ns",
            "ns",
            Lower,
            "latency_p50_us, throughput_qps on open_single",
        ),
        layer(
            "service.ingest.enqueue_ns",
            "ns",
            Lower,
            "latency_p50_us on open_single",
        ),
        layer(
            "service.ingest.blocked_share",
            "ratio",
            Lower,
            "throughput_qps on overload_ladder, open_single saturation",
        ),
        layer(
            "service.ingest.gen_late_p99_us",
            "us",
            Lower,
            "validity of open_single latency",
        ),
        layer(
            "service.ingest.p99_us.rate80k",
            "us",
            Lower,
            "latency rising before throughput saturates",
        ),
        layer(
            "service.ingest.tax_ns",
            "ns",
            Lower,
            "throughput_qps, latency_* on open_single, overload_ladder",
        ),
        layer(
            "service.sharded.tax_ns",
            "ns",
            Lower,
            "throughput_qps on sync_multicap_churn",
        ),
        layer(
            "service.failover.tax_ns",
            "ns",
            Lower,
            "throughput_qps, latency_p99_us on replicated_failover",
        ),
        layer(
            "service.failover.checkpoint_ms",
            "ms",
            Lower,
            "throughput_qps, latency_p99_us, peak_rss_mb on replicated_failover",
        ),
        layer(
            "service.failover.promote_ms",
            "ms",
            Lower,
            "throughput_qps on replicated_failover",
        ),
        layer(
            "service.failover.replayed_queries",
            "count",
            Lower,
            "explains promote_ms",
        ),
        layer(
            "service.ingest.allocs_per_query",
            "count",
            Lower,
            "throughput_qps, peak_rss_mb on threaded workloads",
        ),
        layer(
            "core.mediator.allocs_per_query",
            "count",
            Lower,
            "throughput_qps on all",
        ),
        layer("core.degrade.observe_ns", "ns", Lower, "canary"),
        layer(
            "core.degrade.tier_normal",
            "count",
            Higher,
            "consumer_satisfaction on overload_ladder",
        ),
        layer(
            "core.degrade.tier_shrink",
            "count",
            Lower,
            "consumer_satisfaction on overload_ladder",
        ),
        layer(
            "core.degrade.tier_baseline",
            "count",
            Lower,
            "consumer_satisfaction on overload_ladder",
        ),
        layer(
            "core.degrade.shed",
            "count",
            Lower,
            "served_share on overload_ladder",
        ),
        layer(
            "core.degrade.transitions",
            "count",
            Lower,
            "served_share on overload_ladder",
        ),
        layer(
            "core.registry.resolve_single_ns",
            "ns",
            Lower,
            "nothing visible; canary",
        ),
        layer(
            "core.registry.resolve_hit_ns",
            "ns",
            Lower,
            "throughput_qps on sync_multicap_churn",
        ),
        layer(
            "core.registry.resolve_cold_ns",
            "ns",
            Lower,
            "throughput_qps, latency_p99_us on sync_multicap_churn; no move on open_single",
        ),
        layer(
            "core.registry.plan_hit_rate",
            "ratio",
            Higher,
            "throughput_qps on sync_multicap_churn",
        ),
        layer(
            "core.registry.plan_stale_rebuilds",
            "count",
            Lower,
            "throughput_qps on sync_multicap_churn",
        ),
        layer(
            "core.registry.plan_evictions",
            "count",
            Lower,
            "throughput_qps on sync_multicap_churn",
        ),
        layer(
            "core.registry.mean_pq",
            "count",
            Higher,
            "explains resolve_cold_ns",
        ),
        layer(
            "core.registry.update_load_ns",
            "ns",
            Lower,
            "throughput_qps on sync_multicap_churn, replicated_failover",
        ),
        layer(
            "core.registry.set_online_ns",
            "ns",
            Lower,
            "throughput_qps on sync_multicap_churn",
        ),
        layer(
            "core.registry.unregister_register_ns",
            "ns",
            Lower,
            "throughput_qps on sync_multicap_churn",
        ),
        layer("core.registry.register_ns", "ns", Lower, "setup_s on all"),
        layer(
            "core.knbest.select_ns",
            "ns",
            Lower,
            "throughput_qps, latency_p50_us on open_single",
        ),
        layer(
            "core.scoring.score_ns",
            "ns",
            Lower,
            "throughput_qps on open_single",
        ),
        layer(
            "oracle.intentions_ns",
            "ns",
            Lower,
            "the harness's own cost; subtract it",
        ),
        layer(
            "core.ranking.rank_ns",
            "ns",
            Lower,
            "throughput_qps on open_single",
        ),
        layer(
            "core.mediator.allocate_ns",
            "ns",
            Lower,
            "throughput_qps on open_single",
        ),
        layer(
            "core.mediator.submit_ns",
            "ns",
            Lower,
            "the per-query floor under every workload",
        ),
        layer(
            "core.mediator.submit_ns.10k",
            "ns",
            Lower,
            "the floor at 10 000 providers",
        ),
        layer(
            "core.mediator.submit_ns.1m",
            "ns",
            Lower,
            "the floor at 1 000 000 providers",
        ),
        layer(
            "core.mediator.stage_sum_ratio",
            "ratio",
            Higher,
            "trust in the stage table; must sit in [0.85, 1.15]",
        ),
        layer(
            "satisfaction.record_ns",
            "ns",
            Lower,
            "throughput_qps on open_single",
        ),
        layer(
            "replication.log.append_ns",
            "ns",
            Lower,
            "throughput_qps on replicated_failover",
        ),
        layer(
            "replication.standby.catch_up_ns_per_delta",
            "ns",
            Lower,
            "throughput_qps on replicated_failover",
        ),
        layer(
            "replication.log.depth_max",
            "count",
            Lower,
            "peak_rss_mb on replicated_failover",
        ),
        layer("replication.standby.lag_max", "count", Lower, "promote_ms"),
        layer(
            "metrics.latency.record_ns",
            "ns",
            Lower,
            "throughput_qps on threaded workloads",
        ),
        layer(
            "metrics.latency.percentiles_ms",
            "ms",
            Lower,
            "finish time, peak_rss_mb on threaded workloads",
        ),
        layer(
            "sim.runner.queries_per_s",
            "1/s",
            Higher,
            "guards the simulator kernel",
        ),
        layer(
            "boinc.s4.consumer_sat_sbqa",
            "ratio",
            Higher,
            "guards the paper's claim in the simulator",
        ),
        layer(
            "boinc.s4.provider_sat_sbqa",
            "ratio",
            Higher,
            "guards the paper's claim in the simulator",
        ),
        layer(
            "trace.replay_ns",
            "ns",
            Lower,
            "what a query costs through the traced pipeline",
        ),
        layer("trace.clock_ns", "ns", Lower, "how far to trust the rest"),
        layer(
            "trace.overhead_share",
            "ratio",
            Lower,
            "how far to trust the rest",
        ),
        layer(
            "trace.spans",
            "count",
            Higher,
            "spans recorded by the replay",
        ),
    ]
};

/// One metric's value in a result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Unit.
    pub unit: String,
    /// The reported value. A timing: the run's least-disturbed composite
    /// (`workloads::Composite`; set-up: the fastest world build). Anything
    /// else: the reading itself, equal on every segment.
    pub value: f64,
    /// Median over the segments.
    pub median: f64,
    /// Smallest segment reading.
    pub min: f64,
    /// Largest segment reading.
    pub max: f64,
    /// Every segment's reading, in run order.
    pub readings: Vec<f64>,
    /// A timing estimated twice more, from the run's even-numbered and from
    /// its odd-numbered segments alone. Empty for anything else.
    pub halves: Vec<f64>,
    /// Samples behind one segment's reading (latency samples, calls timed…).
    pub samples: u64,
}

impl Metric {
    /// A metric from its reported value and its segment readings (at least
    /// one).
    #[must_use]
    pub fn new(unit: &str, value: f64, readings: Vec<f64>, samples: u64) -> Self {
        let min = readings.iter().copied().fold(f64::INFINITY, f64::min);
        let max = readings.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            unit: unit.to_string(),
            value,
            median: median(&readings).unwrap_or(f64::NAN),
            min,
            max,
            readings,
            halves: Vec::new(),
            samples,
        }
    }

    /// The same metric with the two half-run estimates of a timing.
    #[must_use]
    pub fn with_halves(mut self, halves: Vec<f64>) -> Self {
        self.halves = halves;
        self
    }

    /// How far apart the two half-run estimates are, as a share of the
    /// reported value: 0 where there are not two. Each half had half the
    /// chances to read a piece undisturbed, so the halves differ by more than
    /// two whole runs would; when they differ by more than the metric's
    /// bound, the value is not resolved.
    #[must_use]
    pub fn halves_gap(&self) -> f64 {
        match self.halves.as_slice() {
            [a, b] => (a - b).abs() / self.value.abs().max(f64::MIN_POSITIVE),
            _ => 0.0,
        }
    }
}

/// Everything one workload's process reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Every correctness gate passed.
    pub correct: bool,
    /// Queries offered over all segments.
    pub attempted: u64,
    /// Queries that starved or errored (a query the armed ladder sheds is a
    /// designed outcome and shows in `served_share`, not here).
    pub failed: u64,
    /// The end-to-end metrics (untraced run).
    pub end_to_end: BTreeMap<String, Metric>,
    /// The per-layer metrics (traced run; empty otherwise).
    pub per_layer: BTreeMap<String, Metric>,
    /// Readings that fall out of the untraced run: validity notes and counts.
    pub notes: BTreeMap<String, f64>,
    /// The correctness gates that ran.
    pub gates: Vec<String>,
    /// The traced run's stage table (empty otherwise).
    pub stage_table: Vec<StageRow>,
}

/// A whole suite run: what `perf/results/<label>.json` holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    /// Label of the run.
    pub label: String,
    /// Host name of the box the numbers come from.
    pub box_name: String,
    /// Cores the box offers; no workload runs more threads than this.
    pub nproc: u64,
    /// The `--seed`.
    pub seed: u64,
    /// The `--seconds` budget the query counts were scaled from.
    pub seconds: u64,
    /// `false` for `--quick` runs: their numbers compare with nothing.
    pub comparable: bool,
    /// One entry per workload.
    pub workloads: Vec<WorkloadResult>,
}

/// The last stdout line of a driver run: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, each metric `{"value", "unit"}`.
#[must_use]
pub fn driver_line(result: &WorkloadResult, traced: bool) -> String {
    let metrics = if traced {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct, result.attempted, result.failed
    );
    for (index, (name, metric)) in metrics.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            metric.value, metric.unit
        );
    }
    out.push_str("}}");
    out
}

/// Human-readable metrics of one workload.
#[must_use]
pub fn render(result: &WorkloadResult) -> String {
    let mut out = format!(
        "== {} (attempted {}, failed {}, correct {})\n",
        result.workload, result.attempted, result.failed, result.correct
    );
    let mut section = |title: &str, names: &[&str], metrics: &BTreeMap<String, Metric>| {
        if metrics.is_empty() {
            return;
        }
        let _ = writeln!(
            out,
            "  {title:<42} {:>14} {:<6} {:>14} {:>14} {:>14} {:>4} {:>9}  halves",
            "value", "unit", "median", "min", "max", "segs", "samples"
        );
        for name in names {
            if let Some(m) = metrics.get(*name) {
                let halves: Vec<String> = m.halves.iter().map(|h| format!("{h:.4}")).collect();
                let _ = writeln!(
                    out,
                    "  {name:<42} {:>14.4} {:<6} {:>14.4} {:>14.4} {:>14.4} {:>4} {:>9}  {}",
                    m.value,
                    m.unit,
                    m.median,
                    m.min,
                    m.max,
                    m.readings.len(),
                    m.samples,
                    halves.join(" / ")
                );
            }
        }
    };
    let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    section("end-to-end", &names, &result.end_to_end);
    let names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    section("per-layer (traced)", &names, &result.per_layer);
    for (name, value) in &result.notes {
        let _ = writeln!(out, "  note {name} = {value}");
    }
    for gate in &result.gates {
        let _ = writeln!(out, "  gate ok: {gate}");
    }
    out
}

/// How one `(workload, metric)` pair compares between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and on both sides the two halves of the run agree
    /// within the bound.
    Unchanged,
    /// Better by more than the bound, or every segment of B beats every
    /// segment of A.
    Improved,
    /// On one side the two halves of the run disagree by more than the
    /// bound: the pair decides nothing.
    Unresolved,
    /// B's value is worse than A's by more than the bound.
    Regression,
}

impl Verdict {
    /// The word printed in the table.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// Applies one end-to-end metric's bound to a pair of readings.
#[must_use]
pub fn verdict(spec: &EndToEnd, a: &Metric, b: &Metric) -> Verdict {
    let base = a.value.abs().max(f64::MIN_POSITIVE);
    // Positive = B is worse, as a share of A's value.
    let worse = match spec.better {
        Better::Lower => (b.value - a.value) / base,
        Better::Higher => (a.value - b.value) / base,
    };
    if worse > spec.bound {
        return Verdict::Regression;
    }
    let every_b_beats_every_a = match spec.better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    if a.halves_gap().max(b.halves_gap()) > spec.bound {
        if every_b_beats_every_a {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse < -spec.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The comparison table of two result files and its worst verdict.
///
/// # Errors
///
/// A file that is not comparable (`--quick`), or two files that do not hold
/// the same workloads and metrics.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Result<(String, Vec<Verdict>), String> {
    for file in [a, b] {
        if !file.comparable {
            return Err(format!("{} is a --quick run: not comparable", file.label));
        }
    }
    if (a.seed, a.seconds) != (b.seed, b.seconds) {
        return Err(format!(
            "{} (seed {}, {} s) and {} (seed {}, {} s) did not run the same inputs",
            a.label, a.seed, a.seconds, b.label, b.seed, b.seconds
        ));
    }
    let mut out = format!(
        "A = {} ({}, nproc {})   B = {} ({}, nproc {})\n",
        a.label, a.box_name, a.nproc, b.label, b.box_name, b.nproc
    );
    let _ = writeln!(
        out,
        "{:<20} {:<22} {:>12} {:>12} {:>25} {:>12} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A value",
        "A median",
        "A [min, max]",
        "B value",
        "B median",
        "B [min, max]",
        "B vs A",
        "bound"
    );
    let mut verdicts = Vec::new();
    for wa in &a.workloads {
        let wb = b
            .workloads
            .iter()
            .find(|w| w.workload == wa.workload)
            .ok_or_else(|| format!("{} has no workload {}", b.label, wa.workload))?;
        for spec in &END_TO_END {
            let missing =
                |file: &ResultFile| format!("{}: {} lacks {}", file.label, wa.workload, spec.name);
            let ma = wa.end_to_end.get(spec.name).ok_or_else(|| missing(a))?;
            let mb = wb.end_to_end.get(spec.name).ok_or_else(|| missing(b))?;
            let v = verdict(spec, ma, mb);
            let change = (mb.value - ma.value) / ma.value.abs().max(f64::MIN_POSITIVE);
            let _ = writeln!(
                out,
                "{:<20} {:<22} {:>12.4} {:>12.4} {:>25} {:>12.4} {:>12.4} {:>25} {:>+7.1}% {:>5.0}%  {}",
                wa.workload,
                spec.name,
                ma.value,
                ma.median,
                format!("[{:.4}, {:.4}]", ma.min, ma.max),
                mb.value,
                mb.median,
                format!("[{:.4}, {:.4}]", mb.min, mb.max),
                change * 100.0,
                spec.bound * 100.0,
                v.word()
            );
            verdicts.push(v);
        }
    }
    Ok((out, verdicts))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Any JSON value: the vendored serde parses into `Value` but does not
    /// deserialize *as* one.
    struct Raw(serde::Value);

    impl Deserialize for Raw {
        fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
            Ok(Raw(value.clone()))
        }
    }

    /// A lower-is-better timing: the value (which one half of the run
    /// reads too), the other half's estimate, and the worst segment.
    fn metric(value: f64, other_half: f64, worst: f64) -> Metric {
        Metric::new("x", value, vec![other_half, value, worst], 1000)
            .with_halves(vec![value, other_half])
    }

    /// A higher-is-better timing, likewise.
    fn rate(value: f64, other_half: f64, worst: f64) -> Metric {
        Metric::new("x", value, vec![other_half, worst, value], 1000)
            .with_halves(vec![value, other_half])
    }

    fn file(label: &str, throughput: Metric, p99: Metric) -> ResultFile {
        let mut end_to_end: BTreeMap<String, Metric> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), metric(1.0, 1.0, 1.0)))
            .collect();
        end_to_end.insert("throughput_qps".into(), throughput);
        end_to_end.insert("latency_p99_us".into(), p99);
        ResultFile {
            label: label.into(),
            box_name: "test-box".into(),
            nproc: 2,
            seed: 42,
            seconds: 16,
            comparable: true,
            workloads: vec![WorkloadResult {
                workload: "open_single".into(),
                correct: true,
                attempted: 10,
                end_to_end,
                gates: vec!["a gate".into()],
                ..WorkloadResult::default()
            }],
        }
    }

    #[test]
    fn readings_are_summarised_beside_the_value() {
        let cost = metric(980.25, 1000.0, 4000.0);
        assert_eq!(
            (cost.value, cost.median, cost.min, cost.max),
            (980.25, 1000.0, 980.25, 4000.0)
        );
        assert!((cost.halves_gap() - 19.75 / 980.25).abs() < 1e-12);
        let speed = rate(150.0, 140.0, 90.0);
        assert_eq!((speed.value, speed.median), (150.0, 140.0));
        assert!((speed.halves_gap() - 10.0 / 150.0).abs() < 1e-12);
        // A composite sits below every whole segment and both halves.
        let composite =
            Metric::new("us", 90.0, vec![120.0, 99.0, 110.0], 3).with_halves(vec![93.0, 102.0]);
        assert_eq!((composite.value, composite.min), (90.0, 99.0));
        assert!((composite.halves_gap() - 0.1).abs() < 1e-12);
        assert_eq!(Metric::new("x", 3.0, vec![3.0], 1).halves_gap(), 0.0);
    }

    #[test]
    fn result_file_round_trips_through_json() {
        let original = file("a", rate(100.0, 99.0, 97.5), metric(980.25, 990.0, 1000.0));
        let json = serde_json::to_string(&original).unwrap();
        let back: ResultFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn compare_flags_regression_improvement_and_unresolved() {
        let a = file("a", rate(100.0, 99.0, 98.0), metric(1000.0, 1010.0, 1020.0));
        // Throughput down 30 % (> 25 %): regression. p99 down 40 %: improved.
        let b = file("b", rate(70.0, 69.0, 68.0), metric(600.0, 610.0, 620.0));
        let (table, verdicts) = compare(&a, &b).unwrap();
        assert_eq!(
            verdicts
                .iter()
                .filter(|v| **v == Verdict::Regression)
                .count(),
            1
        );
        assert_eq!(
            verdicts.iter().filter(|v| **v == Verdict::Improved).count(),
            1
        );
        assert!(table.contains("REGRESSION") && table.contains("improved"));

        // Same value, but the other half of the run reads 40 % lower: the
        // pair is unresolved, not unchanged.
        let noisy = file(
            "noisy",
            rate(100.0, 60.0, 50.0),
            metric(1000.0, 1010.0, 1020.0),
        );
        let (_, verdicts) = compare(&a, &noisy).unwrap();
        assert_eq!(
            verdicts
                .iter()
                .filter(|v| **v == Verdict::Unresolved)
                .count(),
            1
        );
        assert!(!verdicts.contains(&Verdict::Regression));

        // One disturbed segment does not make a pair unresolved.
        let one_burst = file(
            "burst",
            rate(100.0, 99.0, 40.0),
            metric(1000.0, 1010.0, 9000.0),
        );
        let (_, verdicts) = compare(&a, &one_burst).unwrap();
        assert!(verdicts.iter().all(|v| *v == Verdict::Unchanged));

        // Halves that disagree still resolve when every B segment beats
        // every A segment.
        let faster = file(
            "faster",
            rate(240.0, 150.0, 140.0),
            metric(1000.0, 1010.0, 1020.0),
        );
        let (_, verdicts) = compare(&a, &faster).unwrap();
        assert!(!verdicts.contains(&Verdict::Unresolved));
        assert_eq!(
            verdicts.iter().filter(|v| **v == Verdict::Improved).count(),
            1
        );

        let (_, verdicts) = compare(&a, &a).unwrap();
        assert!(verdicts.iter().all(|v| *v == Verdict::Unchanged));
    }

    #[test]
    fn compare_refuses_quick_runs_and_other_inputs() {
        let a = file("a", metric(1.0, 1.0, 1.0), metric(1.0, 1.0, 1.0));
        let mut quick = a.clone();
        quick.comparable = false;
        assert!(compare(&a, &quick).is_err());
        let mut other_seed = a.clone();
        other_seed.seed = 7;
        assert!(compare(&a, &other_seed).is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let result = &file("a", rate(100.0, 99.0, 98.0), metric(1.0, 1.0, 1.0)).workloads[0];
        let line = driver_line(result, false);
        let Raw(parsed) = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str().unwrap())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"throughput_qps\": {\"value\": 100.0, \"unit\": \"x\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// `BENCHMARK.json` at the repository root repeats the catalogue for the
    /// driver; this holds the two together.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let Raw(root) = serde_json::from_str(&text).unwrap();
        let field = |value: &serde::Value, key: &str| -> serde::Value {
            serde::__find(value.as_map().unwrap(), key).unwrap().clone()
        };
        let text_of =
            |value: &serde::Value, key: &str| field(value, key).as_str().unwrap().to_string();

        let end_to_end = field(&root, "end_to_end");
        let listed = end_to_end.as_seq().unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, spec) in listed.iter().zip(&END_TO_END) {
            assert_eq!(text_of(entry, "name"), spec.name);
            assert_eq!(text_of(entry, "unit"), spec.unit);
            assert_eq!(text_of(entry, "better"), spec.better.word());
            let bound: f64 = serde::Deserialize::from_value(&field(entry, "bound")).unwrap();
            assert!((bound - spec.bound).abs() < 1e-12, "{}", spec.name);
        }
        let per_layer = field(&root, "per_layer");
        let listed = per_layer.as_seq().unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, spec) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(text_of(entry, "name"), spec.name);
            assert_eq!(text_of(entry, "unit"), spec.unit);
            assert_eq!(text_of(entry, "better"), spec.better.word());
        }
        let workloads = field(&root, "workloads");
        let names: Vec<String> = workloads
            .as_seq()
            .unwrap()
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        let expected: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, expected);
    }
}
