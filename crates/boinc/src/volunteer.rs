//! Volunteer (provider) generation.
//!
//! Volunteers donate heterogeneous computational resources and hold
//! per-project preferences drawn from the projects' popularity classes: a
//! popular project is liked by most volunteers, an unpopular one by few. The
//! generated [`ProviderSpec`]s carry those preferences in their intention
//! profile so any allocation technique runs against the same population.

use sbqa_core::intention::{ProviderIntentionStrategy, ProviderProfile};
use sbqa_sim::{ProviderSpec, SimRng};
use sbqa_types::{CapabilitySet, Intention, ProviderId};

use crate::project::Project;

/// Lowest volunteer capacity (work units per virtual second).
const MIN_CAPACITY: f64 = 0.5;

/// Highest volunteer capacity.
const MAX_CAPACITY: f64 = 4.0;

/// Weight of static preferences in the volunteers' hybrid intention strategy
/// (`1.0` = pure preference, `0.0` = pure load).
const PREFERENCE_WEIGHT: f64 = 0.7;

/// Backlog (in virtual seconds) a volunteer considers acceptable before its
/// load-driven component starts refusing work.
const ACCEPTABLE_BACKLOG: f64 = 4.0;

/// Generates one volunteer attached to every given project.
///
/// The volunteer advertises the union of the projects' capabilities (in
/// BOINC terms, it installed every project's application), has a capacity
/// drawn uniformly from 0.5 to 4.0 work units per virtual second, and holds a
/// preference per project drawn from the project's popularity class. Without
/// a `strategy` it blends preference and load (a hybrid at weight 0.7 with a
/// 4-second acceptable backlog).
#[must_use]
pub fn generate(
    id: ProviderId,
    projects: &[Project],
    strategy: Option<ProviderIntentionStrategy>,
    rng: &mut SimRng,
) -> ProviderSpec {
    let strategy = strategy.unwrap_or(ProviderIntentionStrategy::Hybrid {
        preference_weight: PREFERENCE_WEIGHT,
        acceptable_backlog: ACCEPTABLE_BACKLOG,
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

    let capacity = rng.uniform_in(MIN_CAPACITY, MAX_CAPACITY);
    ProviderSpec::new(id, capabilities, capacity, profile)
}

/// Generates `count` volunteers with ids starting at `first_id`.
#[must_use]
pub fn generate_population(
    first_id: u64,
    count: usize,
    projects: &[Project],
    strategy: Option<ProviderIntentionStrategy>,
    rng: &mut SimRng,
) -> Vec<ProviderSpec> {
    (0..count)
        .map(|i| {
            generate(
                ProviderId::new(first_id + i as u64),
                projects,
                strategy,
                rng,
            )
        })
        .collect()
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
        let mut rng = SimRng::new(1);
        let spec = generate(ProviderId::new(100), &projects(), None, &mut rng);
        for p in projects() {
            assert!(spec.capabilities.contains(p.capability));
        }
        assert!(spec.capacity >= MIN_CAPACITY && spec.capacity <= MAX_CAPACITY);
    }

    #[test]
    fn popularity_shapes_mean_preferences() {
        let mut rng = SimRng::new(2);
        let projects = projects();
        let population = generate_population(100, 400, &projects, None, &mut rng);

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
        let mut rng = SimRng::new(3);
        let population = generate_population(500, 20, &projects(), None, &mut rng);
        let ids: Vec<u64> = population.iter().map(|v| v.id.raw()).collect();
        let expected: Vec<u64> = (500..520).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn explicit_strategy_overrides_default_hybrid() {
        let mut rng = SimRng::new(4);
        let spec = generate(
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
