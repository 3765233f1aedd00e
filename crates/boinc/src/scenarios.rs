//! The seven demonstration scenarios (Section IV of the paper), packaged as
//! runnable experiment presets.
//!
//! Each scenario fixes a population, an environment (captive or autonomous)
//! and a set of allocation techniques, runs one simulation per technique on
//! *the same* population and seed, and returns the per-technique reports so
//! the harness can print the comparison tables and CSV curves.
//!
//! | Scenario | Environment | Techniques | What it demonstrates |
//! |---|---|---|---|
//! | S1 | captive | Capacity, Economic | the satisfaction model applies to any technique |
//! | S2 | autonomous | Capacity, Economic | dissatisfaction predicts departures |
//! | S3 | captive | SbQA, Capacity, Economic | SbQA is competitive even in captive settings |
//! | S4 | autonomous | SbQA, Capacity, Economic | SbQA preserves volunteers and hence capacity |
//! | S5 | captive | SbQA, Capacity, Economic | SbQA adapts when participants care about performance |
//! | S6 | autonomous | SbQA(kn, ω) grid | kn and ω adapt the process to the application |
//! | S7 | autonomous | SbQA, Capacity, Economic | a participant with its own objectives is served best by SQLB |

use sbqa_baselines::build_allocator;
use sbqa_core::intention::ProviderIntentionStrategy;
use sbqa_core::SbqaAllocator;
use sbqa_metrics::{CsvWriter, Table};
use sbqa_sim::{DeparturePolicy, SimulationBuilder, SimulationConfig, SimulationReport};
use sbqa_types::{AllocationPolicyKind, OmegaPolicy, SbqaResult};

use crate::interactive::InteractiveParticipant;
use crate::population::{BoincPopulation, PopulationConfig, ProjectBehaviour};

/// Identifier of a demonstration scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioId {
    /// Satisfaction model applied to the baselines, captive environment.
    S1,
    /// Baselines in an autonomous environment (departures by dissatisfaction).
    S2,
    /// SbQA vs baselines, captive environment.
    S3,
    /// SbQA vs baselines, autonomous environment.
    S4,
    /// Adaptation to participants' expectations (performance-driven intentions).
    S5,
    /// Application adaptability: sweep of `kn` and ω.
    S6,
    /// A scripted participant with its own objectives across mediations.
    S7,
}

impl ScenarioId {
    /// All scenarios in order.
    #[must_use]
    pub const fn all() -> [ScenarioId; 7] {
        [
            ScenarioId::S1,
            ScenarioId::S2,
            ScenarioId::S3,
            ScenarioId::S4,
            ScenarioId::S5,
            ScenarioId::S6,
            ScenarioId::S7,
        ]
    }

    /// Scenario number (1-based, as in the paper).
    #[must_use]
    pub const fn number(self) -> usize {
        match self {
            ScenarioId::S1 => 1,
            ScenarioId::S2 => 2,
            ScenarioId::S3 => 3,
            ScenarioId::S4 => 4,
            ScenarioId::S5 => 5,
            ScenarioId::S6 => 6,
            ScenarioId::S7 => 7,
        }
    }

    /// Short title used in report headers.
    #[must_use]
    pub const fn title(self) -> &'static str {
        match self {
            ScenarioId::S1 => "Satisfaction model: baselines in a captive environment",
            ScenarioId::S2 => "Satisfaction model: baselines in an autonomous environment",
            ScenarioId::S3 => "Query allocation: SbQA vs baselines, captive environment",
            ScenarioId::S4 => "Query allocation: SbQA vs baselines, autonomous environment",
            ScenarioId::S5 => "Adaptation to participants' expectations (performance-driven)",
            ScenarioId::S6 => "Application adaptability: varying kn and omega",
            ScenarioId::S7 => "Playing a BOINC participant with its own objectives",
        }
    }
}

/// The result of running one technique inside a scenario.
#[derive(Debug, Clone)]
// sbqa-lint: allow(dead-pub, "the element of ScenarioOutcome::results; result_for and the golden tests read it unnamed")
pub struct TechniqueResult {
    /// Label of the technique (or SbQA variant).
    pub label: String,
    /// The full simulation report.
    pub report: SimulationReport,
    /// For Scenario 7: the scripted participant's final satisfaction
    /// (`None` means it departed before the end of the run).
    pub focus_satisfaction: Option<f64>,
}

/// The result of a whole scenario: one entry per technique, on the same
/// population and seed.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Which scenario was run.
    pub id: ScenarioId,
    /// Per-technique results.
    pub results: Vec<TechniqueResult>,
}

impl ScenarioOutcome {
    /// Renders the scenario's comparison table — the textual analogue of the
    /// demo GUI's result panel.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            format!("Scenario {} — {}", self.id.number(), self.id.title()),
            &[
                "technique",
                "consumer sat",
                "provider sat",
                "mean resp (s)",
                "p95 resp (s)",
                "completed",
                "starved",
                "providers kept",
                "capacity kept",
                "load gini",
                "focus sat",
            ],
        );
        for result in &self.results {
            let report = &result.report;
            table.add_row(&[
                result.label.clone(),
                Table::num(report.final_consumer_satisfaction()),
                Table::num(report.final_provider_satisfaction()),
                Table::num(report.response.mean()),
                Table::num(report.response.p95()),
                report.response.completed().to_string(),
                report.response.starved().to_string(),
                format!(
                    "{}/{}",
                    report.participants.final_providers, report.participants.initial_providers
                ),
                Table::num(report.capacity_retention),
                Table::num(report.load_balance().gini),
                result
                    .focus_satisfaction
                    .map_or_else(|| "-".to_string(), Table::num),
            ]);
        }
        table
    }

    /// Renders every technique's time series as long-format CSV
    /// (`series,time,value`), the analogue of the demo's on-line plots
    /// (Figure 2b).
    #[must_use]
    pub fn series_csv(&self) -> String {
        let mut all = Vec::new();
        for result in &self.results {
            for series in &result.report.series {
                let mut named = series.clone();
                named.name = format!("{}/{}", series.name, result.label);
                all.push(named);
            }
        }
        CsvWriter::render_series(&all)
    }

    /// Looks up the result of a technique by label.
    #[must_use]
    pub fn result_for(&self, label: &str) -> Option<&TechniqueResult> {
        self.results.iter().find(|r| r.label == label)
    }
}

/// A runnable scenario: identifier plus the population and simulation
/// configuration it uses.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which of the seven scenarios this is.
    pub id: ScenarioId,
    /// The BOINC population to generate.
    pub population: PopulationConfig,
    /// The simulation configuration (duration, departures, mediator config).
    pub sim: SimulationConfig,
}

impl Scenario {
    /// The full-size preset used by the benchmark harness
    /// (200 volunteers, 300 virtual seconds).
    #[must_use]
    pub fn new(id: ScenarioId) -> Self {
        Self::sized(id, 200, 300.0, 60.0)
    }

    /// A reduced preset for tests and quick demos
    /// (40 volunteers, 80 virtual seconds).
    #[must_use]
    pub fn quick(id: ScenarioId) -> Self {
        Self::sized(id, 40, 80.0, 10.0)
    }

    /// Builds a preset with explicit scale parameters.
    #[must_use]
    pub fn sized(
        id: ScenarioId,
        volunteers: usize,
        duration: f64,
        arrival_rate_per_project: f64,
    ) -> Self {
        let mut population = PopulationConfig::default()
            .with_volunteers(volunteers)
            .with_arrival_rate(arrival_rate_per_project);
        population.mean_work_units = 1.0;

        let departure = match id {
            ScenarioId::S1 | ScenarioId::S3 | ScenarioId::S5 => DeparturePolicy::Captive,
            ScenarioId::S2 | ScenarioId::S4 | ScenarioId::S6 | ScenarioId::S7 => {
                DeparturePolicy::paper_autonomous()
            }
        };

        // Scenario 5: participants compute their intentions from performance
        // signals only.
        if id == ScenarioId::S5 {
            population = population
                .with_project_behaviour(ProjectBehaviour::ResponseTimeDriven)
                .with_volunteer_strategy(ProviderIntentionStrategy::LoadDriven {
                    acceptable_backlog: 4.0,
                });
        }

        let sim = SimulationConfig {
            duration,
            sample_interval: (duration / 30.0).max(1.0),
            departure,
            ..SimulationConfig::default()
        };

        Self {
            id,
            population,
            sim,
        }
    }

    /// The standard techniques compared by this scenario (Scenario 6 builds
    /// its own SbQA variants instead).
    #[must_use]
    fn techniques(&self) -> Vec<AllocationPolicyKind> {
        match self.id {
            ScenarioId::S1 | ScenarioId::S2 => vec![
                AllocationPolicyKind::Capacity,
                AllocationPolicyKind::Economic,
            ],
            ScenarioId::S3 | ScenarioId::S4 | ScenarioId::S5 | ScenarioId::S7 => vec![
                AllocationPolicyKind::SbQA,
                AllocationPolicyKind::Capacity,
                AllocationPolicyKind::Economic,
            ],
            ScenarioId::S6 => Vec::new(),
        }
    }

    /// Runs the scenario and collects one result per technique (or per SbQA
    /// variant for Scenario 6).
    pub fn run(&self) -> SbqaResult<ScenarioOutcome> {
        match self.id {
            ScenarioId::S6 => self.run_adaptability_grid(),
            ScenarioId::S7 => self.run_interactive(),
            _ => self.run_standard(),
        }
    }

    fn build_population(&self) -> BoincPopulation {
        BoincPopulation::generate(&self.population)
    }

    fn run_one(
        &self,
        label: String,
        allocator: Box<dyn sbqa_core::QueryAllocator>,
        population: &BoincPopulation,
        sim: &SimulationConfig,
    ) -> SbqaResult<TechniqueResult> {
        let report = SimulationBuilder::new(sim.clone())
            .allocator(allocator)
            .consumers(population.consumers.iter().cloned())
            .providers(population.providers.iter().cloned())
            .run()?;
        Ok(TechniqueResult {
            label,
            report,
            focus_satisfaction: None,
        })
    }

    fn run_standard(&self) -> SbqaResult<ScenarioOutcome> {
        let population = self.build_population();
        let mut results = Vec::new();
        for kind in self.techniques() {
            let allocator = build_allocator(kind, &self.sim.system, self.sim.seed)?;
            results.push(self.run_one(
                kind.label().to_string(),
                allocator,
                &population,
                &self.sim,
            )?);
        }
        Ok(ScenarioOutcome {
            id: self.id,
            results,
        })
    }

    /// Scenario 6: sweep `kn` (with adaptive ω) and ω (with the default `kn`)
    /// to show how the process adapts to the application.
    fn run_adaptability_grid(&self) -> SbqaResult<ScenarioOutcome> {
        let population = self.build_population();
        let mut results = Vec::new();

        let kn_values = [1usize, 2, 4, 8, 16];
        for kn in kn_values {
            let system = self
                .sim
                .system
                .clone()
                .with_knbest(self.sim.system.knbest_k.max(kn), kn);
            let sim = self.sim.clone().with_system(system.clone());
            let allocator = Box::new(SbqaAllocator::new(system, self.sim.seed)?);
            results.push(self.run_one(
                format!("SbQA[kn={kn},w=adaptive]"),
                allocator,
                &population,
                &sim,
            )?);
        }

        let omega_values = [0.0, 0.25, 0.5, 0.75, 1.0];
        for omega in omega_values {
            let system = self
                .sim
                .system
                .clone()
                .with_omega(OmegaPolicy::Fixed(omega));
            let sim = self.sim.clone().with_system(system.clone());
            let allocator = Box::new(SbqaAllocator::new(system, self.sim.seed)?);
            results.push(self.run_one(
                format!("SbQA[kn={},w={omega:.2}]", self.sim.system.knbest_kn),
                allocator,
                &population,
                &sim,
            )?);
        }

        // A capacity baseline anchors the grid.
        let capacity = build_allocator(
            AllocationPolicyKind::Capacity,
            &self.sim.system,
            self.sim.seed,
        )?;
        results.push(self.run_one(
            AllocationPolicyKind::Capacity.label().to_string(),
            capacity,
            &population,
            &self.sim,
        )?);

        Ok(ScenarioOutcome {
            id: self.id,
            results,
        })
    }

    /// Scenario 7: inject a devoted volunteer and report how each mediation
    /// serves it.
    fn run_interactive(&self) -> SbqaResult<ScenarioOutcome> {
        let mut population = self.build_population();
        let project_ids: Vec<_> = population.projects.iter().map(|p| p.id).collect();
        // The scripted volunteer only wants to work for the *unpopular*
        // project — the objective the load- and price-driven mediations are
        // least likely to honour by accident.
        let beloved = population
            .projects
            .last()
            .map_or(sbqa_types::ConsumerId::new(0), |p| p.id);
        let participant = InteractiveParticipant::devoted_volunteer(9_999, beloved, &project_ids);
        participant.inject(&mut population);

        let mut results = Vec::new();
        for kind in self.techniques() {
            let allocator = build_allocator(kind, &self.sim.system, self.sim.seed)?;
            let mut result =
                self.run_one(kind.label().to_string(), allocator, &population, &self.sim)?;
            result.focus_satisfaction = participant.satisfaction_in(&result.report);
            results.push(result);
        }
        Ok(ScenarioOutcome {
            id: self.id,
            results,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_ids_enumerate_and_describe() {
        assert_eq!(ScenarioId::all().len(), 7);
        for (i, id) in ScenarioId::all().iter().enumerate() {
            assert_eq!(id.number(), i + 1);
            assert!(!id.title().is_empty());
        }
    }

    #[test]
    fn captive_and_autonomous_environments_match_the_paper() {
        for id in [ScenarioId::S1, ScenarioId::S3, ScenarioId::S5] {
            assert!(!Scenario::quick(id).sim.departure.is_autonomous());
        }
        for id in [
            ScenarioId::S2,
            ScenarioId::S4,
            ScenarioId::S6,
            ScenarioId::S7,
        ] {
            assert!(Scenario::quick(id).sim.departure.is_autonomous());
        }
    }

    #[test]
    fn technique_lists_match_the_paper() {
        assert_eq!(Scenario::quick(ScenarioId::S1).techniques().len(), 2);
        assert_eq!(Scenario::quick(ScenarioId::S3).techniques().len(), 3);
        assert!(Scenario::quick(ScenarioId::S6).techniques().is_empty());
    }

    #[test]
    fn scenario_one_runs_and_reports_both_baselines() {
        let outcome = Scenario::quick(ScenarioId::S1).run().unwrap();
        assert_eq!(outcome.id, ScenarioId::S1);
        assert_eq!(outcome.results.len(), 2);
        assert!(outcome.result_for("Capacity").is_some());
        assert!(outcome.result_for("Economic").is_some());
        assert!(outcome.result_for("SbQA").is_none());
        for result in &outcome.results {
            assert!(result.report.queries_issued > 0);
            assert!(result.report.response.completed() > 0);
        }
        let table = outcome.table();
        assert!(table.render().contains("Capacity"));
        let csv = outcome.series_csv();
        assert!(csv.contains("consumer_satisfaction/Capacity"));
    }

    #[test]
    fn scenario_three_includes_sbqa_and_stays_captive() {
        let outcome = Scenario::quick(ScenarioId::S3).run().unwrap();
        assert_eq!(outcome.results.len(), 3);
        for result in &outcome.results {
            assert_eq!(
                result.report.participants.final_providers,
                result.report.participants.initial_providers,
                "captive environments keep every provider"
            );
        }
    }

    #[test]
    fn scenario_seven_reports_the_focus_participant() {
        let outcome = Scenario::quick(ScenarioId::S7).run().unwrap();
        assert_eq!(outcome.results.len(), 3);
        // The focus satisfaction column is present (Some) unless the
        // participant departed under that mediation, which is itself a
        // meaningful outcome.
        assert!(outcome
            .results
            .iter()
            .any(|r| r.focus_satisfaction.is_some() || r.label != "SbQA"));
        let table = outcome.table();
        assert!(table.render().contains("focus sat"));
    }
}
