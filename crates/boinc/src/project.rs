//! BOINC projects (the consumers of the demonstration).

use serde::{Deserialize, Serialize};

use sbqa_core::intention::{ConsumerIntentionStrategy, ConsumerProfile};
use sbqa_sim::ConsumerSpec;
use sbqa_types::{Capability, ConsumerId, Intention};

/// How popular a project is among the volunteer population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProjectKind {
    /// "The majority of providers want to collaborate in this project"
    /// (SETI@home in the demo).
    Popular,
    /// "A great number, but not most, of providers want to collaborate"
    /// (proteins@home).
    Normal,
    /// "Most providers desire to collaborate […] with a small fraction of
    /// computational resources" (Einstein@home).
    Unpopular,
}

impl ProjectKind {
    /// All kinds in the order the demo lists them.
    #[must_use]
    pub const fn all() -> [ProjectKind; 3] {
        [
            ProjectKind::Popular,
            ProjectKind::Normal,
            ProjectKind::Unpopular,
        ]
    }

    /// The demo project name associated with the kind.
    #[must_use]
    const fn demo_name(self) -> &'static str {
        match self {
            ProjectKind::Popular => "SETI@home",
            ProjectKind::Normal => "proteins@home",
            ProjectKind::Unpopular => "Einstein@home",
        }
    }

    /// Probability that a volunteer *likes* this project (drawn per
    /// volunteer); the complementary case gives the project a low or negative
    /// preference.
    #[must_use]
    pub const fn enthusiasm_probability(self) -> f64 {
        match self {
            ProjectKind::Popular => 0.8,
            ProjectKind::Normal => 0.5,
            ProjectKind::Unpopular => 0.2,
        }
    }

    /// Preference expressed by an enthusiastic volunteer towards the project.
    #[must_use]
    pub const fn enthusiastic_preference(self) -> f64 {
        match self {
            ProjectKind::Popular => 0.9,
            ProjectKind::Normal => 0.7,
            ProjectKind::Unpopular => 0.5,
        }
    }

    /// Preference expressed by an unenthusiastic volunteer. The unpopular
    /// project is still *tolerated* (small positive fraction of resources),
    /// matching the demo description.
    #[must_use]
    pub const fn reluctant_preference(self) -> f64 {
        match self {
            ProjectKind::Popular => 0.2,
            ProjectKind::Normal => 0.0,
            ProjectKind::Unpopular => -0.4,
        }
    }
}

/// A BOINC project: a consumer that issues replicated work units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Project {
    /// The consumer identity of the project.
    pub id: ConsumerId,
    /// Human-readable name.
    pub name: String,
    /// Popularity class.
    pub kind: ProjectKind,
    /// Capability its work units require (every volunteer that "attached" to
    /// the project advertises it).
    pub capability: Capability,
    /// Work units issued per virtual second.
    pub arrival_rate: f64,
    /// Mean size of a work unit.
    pub mean_work_units: f64,
    /// Result-validation replication factor (`q.n`).
    pub replication: usize,
}

impl Project {
    /// Creates a project of the given kind with the demo defaults.
    #[must_use]
    pub fn demo(id: ConsumerId, kind: ProjectKind, capability: Capability) -> Self {
        Self {
            id,
            name: kind.demo_name().to_string(),
            kind,
            capability,
            arrival_rate: 1.0,
            mean_work_units: 1.0,
            replication: 1,
        }
    }

    /// Overrides the arrival rate (work units per virtual second).
    #[must_use]
    pub fn with_arrival_rate(mut self, rate: f64) -> Self {
        self.arrival_rate = rate;
        self
    }

    /// Overrides the replication factor.
    #[must_use]
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication.max(1);
        self
    }

    /// Overrides the mean work-unit size.
    #[must_use]
    pub fn with_mean_work(mut self, work: f64) -> Self {
        self.mean_work_units = work;
        self
    }

    /// Builds the simulator consumer spec for this project.
    ///
    /// `profile` decides how the project ranks volunteers (default:
    /// reputation-like static preferences, neutral by default; Scenario 5
    /// replaces it with a response-time-driven profile).
    #[must_use]
    pub fn to_consumer_spec(&self, profile: ConsumerProfile) -> ConsumerSpec {
        ConsumerSpec::new(
            self.id,
            self.capability,
            self.arrival_rate,
            self.mean_work_units,
            self.replication,
            profile,
        )
    }

    /// The Scenario 5 profile: the project only cares about response times.
    #[must_use]
    pub fn response_time_profile() -> ConsumerProfile {
        ConsumerProfile::new(
            ConsumerIntentionStrategy::ResponseTimeDriven {
                acceptable_backlog: 2.0,
            },
            Intention::NEUTRAL,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_names_and_probabilities_are_ordered_by_popularity() {
        assert_eq!(ProjectKind::Popular.demo_name(), "SETI@home");
        assert_eq!(ProjectKind::Normal.demo_name(), "proteins@home");
        assert_eq!(ProjectKind::Unpopular.demo_name(), "Einstein@home");
        assert!(
            ProjectKind::Popular.enthusiasm_probability()
                > ProjectKind::Normal.enthusiasm_probability()
        );
        assert!(
            ProjectKind::Normal.enthusiasm_probability()
                > ProjectKind::Unpopular.enthusiasm_probability()
        );
        assert_eq!(ProjectKind::all().len(), 3);
    }

    #[test]
    fn preferences_are_valid_intentions() {
        for kind in ProjectKind::all() {
            assert!((-1.0..=1.0).contains(&kind.enthusiastic_preference()));
            assert!((-1.0..=1.0).contains(&kind.reluctant_preference()));
            assert!(kind.enthusiastic_preference() > kind.reluctant_preference());
        }
    }

    #[test]
    fn builder_overrides_apply_and_spec_conversion_works() {
        let project = Project::demo(ConsumerId::new(1), ProjectKind::Popular, Capability::new(2))
            .with_arrival_rate(3.0)
            .with_replication(2)
            .with_mean_work(0.5);
        assert_eq!(project.arrival_rate, 3.0);
        assert_eq!(project.replication, 2);
        assert_eq!(project.mean_work_units, 0.5);

        let spec = project.to_consumer_spec(ConsumerProfile::default());
        assert_eq!(spec.id, ConsumerId::new(1));
        assert_eq!(
            spec.requirement,
            sbqa_types::CapabilityRequirement::single(Capability::new(2))
        );
        assert_eq!(spec.arrival_rate, 3.0);
        assert_eq!(spec.replication, 2);
    }

    #[test]
    fn replication_is_at_least_one() {
        let project = Project::demo(ConsumerId::new(1), ProjectKind::Normal, Capability::new(0))
            .with_replication(0);
        assert_eq!(project.replication, 1);
    }
}
