//! Assembly of the full BOINC population: three projects plus a volunteer
//! population, ready to drop into the simulator.

use serde::{Deserialize, Serialize};

use sbqa_core::intention::{ConsumerIntentionStrategy, ConsumerProfile, ProviderIntentionStrategy};
use sbqa_sim::{ConsumerSpec, ProviderSpec, SimRng};
use sbqa_types::{Capability, ConsumerId, Intention};

use crate::project::{Project, ProjectKind};
use crate::replication::ReplicationPolicy;
use crate::volunteer::{VolunteerConfig, VolunteerGenerator};

/// How the projects (consumers) compute their intentions towards volunteers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ProjectBehaviour {
    /// Reputation-driven static preferences (the default demo behaviour):
    /// each volunteer gets a reputation drawn at population-build time and
    /// every project prefers reputable volunteers.
    #[default]
    ReputationDriven,
    /// The Scenario 5 behaviour: projects only care about response times.
    ResponseTimeDriven,
}

/// Parameters of the generated population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of volunteers.
    pub volunteers: usize,
    /// Volunteer generation parameters (capacity range, hybrid weights).
    pub volunteer: VolunteerConfig,
    /// Work units issued per virtual second, per project.
    pub arrival_rate_per_project: f64,
    /// Mean work-unit size, per project.
    pub mean_work_units: f64,
    /// Replication policy used by every project.
    pub replication: ReplicationPolicy,
    /// How projects compute their intentions.
    pub project_behaviour: ProjectBehaviour,
    /// Overrides the volunteers' intention strategy (None keeps the default
    /// hybrid preference/load behaviour).
    pub volunteer_strategy: Option<ProviderIntentionStrategy>,
    /// Seed for the population draw (independent from the simulation seed).
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            volunteers: 200,
            volunteer: VolunteerConfig::default(),
            arrival_rate_per_project: 20.0,
            mean_work_units: 0.2,
            replication: ReplicationPolicy::Fixed(1),
            project_behaviour: ProjectBehaviour::ReputationDriven,
            volunteer_strategy: None,
            seed: 7,
        }
    }
}

impl PopulationConfig {
    /// Builder-style volunteer-count override.
    #[must_use]
    pub fn with_volunteers(mut self, volunteers: usize) -> Self {
        self.volunteers = volunteers;
        self
    }

    /// Builder-style arrival-rate override.
    #[must_use]
    pub fn with_arrival_rate(mut self, rate: f64) -> Self {
        self.arrival_rate_per_project = rate;
        self
    }

    /// Builder-style project-behaviour override.
    #[must_use]
    pub fn with_project_behaviour(mut self, behaviour: ProjectBehaviour) -> Self {
        self.project_behaviour = behaviour;
        self
    }

    /// Builder-style volunteer-strategy override.
    #[must_use]
    pub fn with_volunteer_strategy(mut self, strategy: ProviderIntentionStrategy) -> Self {
        self.volunteer_strategy = Some(strategy);
        self
    }

    /// Builder-style replication override.
    #[must_use]
    pub fn with_replication(mut self, replication: ReplicationPolicy) -> Self {
        self.replication = replication;
        self
    }

    /// Builder-style seed override.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A fully generated population.
#[derive(Debug, Clone)]
pub struct BoincPopulation {
    /// The three demo projects.
    pub projects: Vec<Project>,
    /// Consumer specs for the simulator, one per project.
    pub consumers: Vec<ConsumerSpec>,
    /// Provider specs for the simulator, one per volunteer.
    pub providers: Vec<ProviderSpec>,
}

impl BoincPopulation {
    /// Generates the demo population: SETI@home (popular), proteins@home
    /// (normal) and Einstein@home (unpopular) plus `config.volunteers`
    /// volunteers attached to all three.
    #[must_use]
    pub fn generate(config: &PopulationConfig) -> Self {
        let mut rng = SimRng::new(config.seed);
        let replication = config.replication.replicas();

        let projects: Vec<Project> = ProjectKind::all()
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                Project::demo(ConsumerId::new(i as u64), *kind, Capability::new(i as u8))
                    .with_arrival_rate(config.arrival_rate_per_project)
                    .with_mean_work(config.mean_work_units)
                    .with_replication(replication)
            })
            .collect();

        let generator = VolunteerGenerator::new(config.volunteer);
        let providers = generator.generate_population(
            1_000,
            config.volunteers,
            &projects,
            config.volunteer_strategy,
            &mut rng,
        );

        // Assign every volunteer a reputation; reputation-driven projects use
        // it as their preference towards that volunteer.
        let reputations: Vec<(sbqa_types::ProviderId, Intention)> = providers
            .iter()
            .map(|p| (p.id, Intention::new(rng.uniform_in(-0.2, 1.0))))
            .collect();

        let consumers: Vec<ConsumerSpec> = projects
            .iter()
            .map(|project| {
                let profile = match config.project_behaviour {
                    ProjectBehaviour::ReputationDriven => {
                        let mut profile = ConsumerProfile::new(
                            ConsumerIntentionStrategy::Preference,
                            Intention::new(0.3),
                        );
                        for (provider, reputation) in &reputations {
                            profile.set_preference(*provider, *reputation);
                        }
                        profile
                    }
                    ProjectBehaviour::ResponseTimeDriven => Project::response_time_profile(),
                };
                project.to_consumer_spec(profile)
            })
            .collect();

        Self {
            projects,
            consumers,
            providers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_three_projects_and_requested_volunteers() {
        let population =
            BoincPopulation::generate(&PopulationConfig::default().with_volunteers(50));
        assert_eq!(population.projects.len(), 3);
        assert_eq!(population.consumers.len(), 3);
        assert_eq!(population.providers.len(), 50);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = PopulationConfig::default().with_volunteers(20).with_seed(9);
        let a = BoincPopulation::generate(&config);
        let b = BoincPopulation::generate(&config);
        assert_eq!(a.providers.len(), b.providers.len());
        for (pa, pb) in a.providers.iter().zip(b.providers.iter()) {
            assert_eq!(pa.id, pb.id);
            assert_eq!(pa.capacity, pb.capacity);
        }
        let c = BoincPopulation::generate(&config.clone().with_seed(10));
        let identical = a
            .providers
            .iter()
            .zip(c.providers.iter())
            .all(|(x, y)| x.capacity == y.capacity);
        assert!(!identical, "different seeds should differ somewhere");
    }

    #[test]
    fn reputation_driven_projects_have_per_volunteer_preferences() {
        let population =
            BoincPopulation::generate(&PopulationConfig::default().with_volunteers(10));
        for consumer in &population.consumers {
            assert_eq!(consumer.profile.explicit_preferences(), 10);
        }
    }

    #[test]
    fn response_time_behaviour_skips_reputation_preferences() {
        let population = BoincPopulation::generate(
            &PopulationConfig::default()
                .with_volunteers(10)
                .with_project_behaviour(ProjectBehaviour::ResponseTimeDriven),
        );
        for consumer in &population.consumers {
            assert_eq!(consumer.profile.explicit_preferences(), 0);
            assert!(matches!(
                consumer.profile.strategy,
                ConsumerIntentionStrategy::ResponseTimeDriven { .. }
            ));
        }
    }

    #[test]
    fn replication_policy_propagates_to_projects() {
        let population = BoincPopulation::generate(
            &PopulationConfig::default()
                .with_volunteers(5)
                .with_replication(ReplicationPolicy::Fixed(3)),
        );
        for consumer in &population.consumers {
            assert_eq!(consumer.replication, 3);
        }
        for project in &population.projects {
            assert_eq!(project.replication, 3);
        }
    }

    #[test]
    fn volunteer_strategy_override_reaches_every_provider() {
        let population = BoincPopulation::generate(
            &PopulationConfig::default()
                .with_volunteers(8)
                .with_volunteer_strategy(ProviderIntentionStrategy::LoadDriven {
                    acceptable_backlog: 2.0,
                }),
        );
        for provider in &population.providers {
            assert!(matches!(
                provider.profile.strategy,
                ProviderIntentionStrategy::LoadDriven { .. }
            ));
        }
    }
}
