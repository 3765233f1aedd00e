//! Volunteer (provider) generation.
//!
//! Volunteers donate heterogeneous computational resources and hold
//! per-project preferences drawn from the projects' popularity classes: a
//! popular project is liked by most volunteers, an unpopular one by few. The
//! generated [`ProviderSpec`]s carry those preferences in their intention
//! profile so any allocation technique runs against the same population.

use serde::{Deserialize, Serialize};

use sbqa_core::intention::{ProviderIntentionStrategy, ProviderProfile};
use sbqa_sim::{ProviderSpec, SimRng};
use sbqa_types::{CapabilitySet, Intention, ProviderId};

use crate::project::Project;

/// Parameters of the volunteer population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VolunteerConfig {
    /// Lowest volunteer capacity (work units per virtual second).
    pub min_capacity: f64,
    /// Highest volunteer capacity.
    pub max_capacity: f64,
    /// Weight of static preferences in the volunteers' hybrid intention
    /// strategy (`1.0` = pure preference, `0.0` = pure load).
    pub preference_weight: f64,
    /// Backlog (in virtual seconds) a volunteer considers acceptable before
    /// its load-driven component starts refusing work.
    pub acceptable_backlog: f64,
}

impl Default for VolunteerConfig {
    fn default() -> Self {
        Self {
            min_capacity: 0.5,
            max_capacity: 4.0,
            preference_weight: 0.7,
            acceptable_backlog: 4.0,
        }
    }
}

/// Generates volunteers with preferences drawn from project popularity.
#[derive(Debug, Clone)]
pub struct VolunteerGenerator {
    config: VolunteerConfig,
}

impl VolunteerGenerator {
    /// Creates a generator.
    #[must_use]
    pub fn new(config: VolunteerConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &VolunteerConfig {
        &self.config
    }

    /// Generates one volunteer attached to every given project.
    ///
    /// The volunteer advertises the union of the projects' capabilities (in
    /// BOINC terms, it installed every project's application), has a capacity
    /// drawn uniformly from the configured range, and holds a preference per
    /// project drawn from the project's popularity class.
    #[must_use]
    pub fn generate(
        &self,
        id: ProviderId,
        projects: &[Project],
        strategy: Option<ProviderIntentionStrategy>,
        rng: &mut SimRng,
    ) -> ProviderSpec {
        let strategy = strategy.unwrap_or(ProviderIntentionStrategy::Hybrid {
            preference_weight: self.config.preference_weight,
            acceptable_backlog: self.config.acceptable_backlog,
        });
        let mut profile = ProviderProfile::new(strategy, Intention::NEUTRAL);

        let mut capabilities = CapabilitySet::new();
        for project in projects {
            capabilities.insert(project.capability);
            let enthusiastic = rng.chance(project.kind.enthusiasm_probability());
            let base = if enthusiastic {
                project.kind.enthusiastic_preference()
            } else {
                project.kind.reluctant_preference()
            };
            // Small per-volunteer jitter so the population is not a set of
            // identical clones.
            let jitter = rng.uniform_in(-0.1, 0.1);
            profile.set_consumer_preference(project.id, Intention::new(base + jitter));
        }

        let capacity = rng.uniform_in(self.config.min_capacity, self.config.max_capacity);
        ProviderSpec::new(id, capabilities, capacity, profile)
    }

    /// Generates `count` volunteers with ids starting at `first_id`.
    #[must_use]
    pub fn generate_population(
        &self,
        first_id: u64,
        count: usize,
        projects: &[Project],
        strategy: Option<ProviderIntentionStrategy>,
        rng: &mut SimRng,
    ) -> Vec<ProviderSpec> {
        (0..count)
            .map(|i| {
                self.generate(
                    ProviderId::new(first_id + i as u64),
                    projects,
                    strategy,
                    rng,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::ProjectKind;
    use sbqa_types::{Capability, ConsumerId};

    fn projects() -> Vec<Project> {
        vec![
            Project::demo(ConsumerId::new(0), ProjectKind::Popular, Capability::new(0)),
            Project::demo(ConsumerId::new(1), ProjectKind::Normal, Capability::new(1)),
            Project::demo(
                ConsumerId::new(2),
                ProjectKind::Unpopular,
                Capability::new(2),
            ),
        ]
    }

    #[test]
    fn generated_volunteers_cover_all_project_capabilities() {
        let generator = VolunteerGenerator::new(VolunteerConfig::default());
        let mut rng = SimRng::new(1);
        let spec = generator.generate(ProviderId::new(100), &projects(), None, &mut rng);
        for p in projects() {
            assert!(spec.capabilities.contains(p.capability));
        }
        assert!(spec.capacity >= 0.5 && spec.capacity <= 4.0);
    }

    #[test]
    fn popularity_shapes_mean_preferences() {
        let generator = VolunteerGenerator::new(VolunteerConfig::default());
        let mut rng = SimRng::new(2);
        let projects = projects();
        let population = generator.generate_population(100, 400, &projects, None, &mut rng);

        // Measure the mean preference per project by probing the profiles
        // with a query from each project on an idle volunteer (pure
        // preference strategy would be cleaner, but the hybrid profile at
        // zero backlog blends with a +1 load signal, preserving order).
        let mean_pref = |project: &Project| -> f64 {
            population
                .iter()
                .map(|v| {
                    let q = sbqa_types::Query::builder(
                        sbqa_types::QueryId::new(0),
                        project.id,
                        project.capability,
                    )
                    .build();
                    v.profile.intention_for(&q, 0.0).value()
                })
                .sum::<f64>()
                / population.len() as f64
        };

        let popular = mean_pref(&projects[0]);
        let normal = mean_pref(&projects[1]);
        let unpopular = mean_pref(&projects[2]);
        assert!(
            popular > normal && normal > unpopular,
            "expected popularity ordering, got {popular:.3} / {normal:.3} / {unpopular:.3}"
        );
    }

    #[test]
    fn population_ids_are_sequential_and_unique() {
        let generator = VolunteerGenerator::new(VolunteerConfig::default());
        let mut rng = SimRng::new(3);
        let population = generator.generate_population(500, 20, &projects(), None, &mut rng);
        let ids: Vec<u64> = population.iter().map(|v| v.id.raw()).collect();
        let expected: Vec<u64> = (500..520).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn explicit_strategy_overrides_default_hybrid() {
        let generator = VolunteerGenerator::new(VolunteerConfig::default());
        let mut rng = SimRng::new(4);
        let spec = generator.generate(
            ProviderId::new(1),
            &projects(),
            Some(ProviderIntentionStrategy::LoadDriven {
                acceptable_backlog: 1.0,
            }),
            &mut rng,
        );
        assert!(matches!(
            spec.profile.strategy,
            ProviderIntentionStrategy::LoadDriven { .. }
        ));
    }
}
