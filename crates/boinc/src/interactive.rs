//! The "play a BOINC participant" scenario support (Scenario 7).
//!
//! In the demo, people in the audience set their own preferences and watch
//! how the different mediations treat them. The programmatic equivalent is an
//! [`InteractiveParticipant`]: a single scripted volunteer (provider) with
//! explicit preferences, injected into an otherwise ordinary population. The
//! scenario then reports how well each mediation served *that* participant —
//! the paper's claim being that only the SQLB mediation (used by SbQA) lets
//! it reach its objectives regardless of what those objectives are.

use serde::{Deserialize, Serialize};

use sbqa_core::intention::{ProviderIntentionStrategy, ProviderProfile};
use sbqa_sim::{ProviderSpec, SimulationReport};
use sbqa_types::{CapabilitySet, ConsumerId, Intention, ProviderId};

use crate::population::BoincPopulation;

/// A scripted volunteer with explicit preferences.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InteractiveParticipant {
    /// Identity it will use inside the simulation.
    pub id: u64,
    /// Preferences towards the three projects — project consumer-id to
    /// intention.
    pub project_preferences: Vec<(ConsumerId, Intention)>,
    /// Capacity donated.
    pub capacity: f64,
}

impl InteractiveParticipant {
    /// A volunteer that only wants to work for one specific project and
    /// refuses everything else — the sharpest objective a demo attendee can
    /// set, and the one load-oblivious baselines serve worst.
    #[must_use]
    pub fn devoted_volunteer(id: u64, beloved_project: ConsumerId, others: &[ConsumerId]) -> Self {
        let mut prefs = vec![(beloved_project, Intention::MAX)];
        for other in others {
            if *other != beloved_project {
                prefs.push((*other, Intention::MIN));
            }
        }
        Self {
            id,
            project_preferences: prefs,
            capacity: 2.0,
        }
    }

    /// The provider id this participant uses.
    #[must_use]
    pub fn provider_id(&self) -> ProviderId {
        ProviderId::new(self.id)
    }

    /// Injects the participant into a generated population: it is appended
    /// to the volunteer list with a *pure preference* intention strategy
    /// (its stated objective is exactly its preference, un-blended with
    /// load).
    pub fn inject(&self, population: &mut BoincPopulation) {
        let mut profile =
            ProviderProfile::new(ProviderIntentionStrategy::Preference, Intention::MIN);
        for (project, preference) in &self.project_preferences {
            profile.set_consumer_preference(*project, *preference);
        }
        let capabilities: CapabilitySet =
            population.projects.iter().map(|p| p.capability).collect();
        population.providers.push(ProviderSpec::new(
            self.provider_id(),
            capabilities,
            self.capacity,
            profile,
        ));
    }

    /// Reads this participant's final satisfaction out of a simulation
    /// report. `None` means the participant departed before the end (which,
    /// for the purposes of Scenario 7, is the strongest possible failure of
    /// the mediation).
    #[must_use]
    pub fn satisfaction_in(&self, report: &SimulationReport) -> Option<f64> {
        report.provider_satisfaction_of(self.provider_id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;

    #[test]
    fn devoted_volunteer_loves_one_project_and_rejects_the_rest() {
        let participant = InteractiveParticipant::devoted_volunteer(
            9_999,
            ConsumerId::new(2),
            &[ConsumerId::new(0), ConsumerId::new(1), ConsumerId::new(2)],
        );
        assert_eq!(participant.project_preferences.len(), 3);
        assert_eq!(
            participant.project_preferences[0],
            (ConsumerId::new(2), Intention::MAX)
        );
        assert!(participant
            .project_preferences
            .iter()
            .filter(|(id, _)| *id != ConsumerId::new(2))
            .all(|(_, i)| *i == Intention::MIN));
    }

    #[test]
    fn injection_appends_a_volunteer_serving_every_project() {
        let mut population =
            BoincPopulation::generate(&PopulationConfig::default().with_volunteers(10));
        let providers_before = population.providers.len();

        let volunteer = InteractiveParticipant::devoted_volunteer(
            9_999,
            population.projects[2].id,
            &population.projects.iter().map(|p| p.id).collect::<Vec<_>>(),
        );
        volunteer.inject(&mut population);
        assert_eq!(population.providers.len(), providers_before + 1);
        let injected = population.providers.last().unwrap();
        assert_eq!(injected.id, ProviderId::new(9_999));
        // The injected volunteer can serve every project.
        for project in &population.projects {
            assert!(injected.capabilities.contains(project.capability));
        }
    }

    #[test]
    fn satisfaction_lookup_reads_the_provider_row() {
        use sbqa_metrics::ResponseTimeStats;
        use sbqa_satisfaction::SatisfactionAnalysis;

        let mut population =
            BoincPopulation::generate(&PopulationConfig::default().with_volunteers(5));
        let volunteer = InteractiveParticipant::devoted_volunteer(
            9_999,
            population.projects[0].id,
            &population.projects.iter().map(|p| p.id).collect::<Vec<_>>(),
        );
        volunteer.inject(&mut population);

        // Build a fake report with that provider present.
        let report = SimulationReport {
            technique: "SbQA".into(),
            duration: 1.0,
            seed: 0,
            queries_issued: 0,
            response: ResponseTimeStats::new(),
            satisfaction: SatisfactionAnalysis::new("SbQA"),
            queries_per_provider: vec![],
            provider_capacities: vec![],
            participants: Default::default(),
            capacity_retention: 1.0,
            series: vec![],
            consumer_final_satisfaction: vec![],
            provider_final_satisfaction: vec![(ProviderId::new(9_999), 0.7)],
            plan_cache: Default::default(),
        };
        assert_eq!(volunteer.satisfaction_in(&report), Some(0.7));
        let absent =
            InteractiveParticipant::devoted_volunteer(1_234, population.projects[0].id, &[]);
        assert_eq!(absent.satisfaction_in(&report), None);
    }
}
