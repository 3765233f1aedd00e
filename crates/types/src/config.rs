//! Shared configuration primitives.
//!
//! Each crate has its own configuration structure (the mediator, the
//! simulator, the workload generator); this module holds the pieces that are
//! shared across them so that scenario descriptions can be serialised as a
//! single document.

use serde::{Deserialize, Serialize};

use crate::error::{SbqaError, SbqaResult};

/// How the mediator chooses the balancing parameter ω of Definition 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum OmegaPolicy {
    /// Self-adapting ω computed from the satisfaction gap (Equation 2):
    /// `ω = ((δs(c) − δs(p)) + 1) / 2`. This is the SbQA default.
    #[default]
    Adaptive,
    /// A fixed, application-chosen ω in `[0, 1]`. `0` means "only the
    /// consumer's intention matters" (cooperative providers, quality of
    /// results first); `1` means "only the provider's intention matters".
    Fixed(f64),
}

impl OmegaPolicy {
    /// Validates the policy, rejecting fixed values outside `[0, 1]` or
    /// non-finite.
    pub fn validate(self) -> SbqaResult<()> {
        match self {
            OmegaPolicy::Adaptive => Ok(()),
            OmegaPolicy::Fixed(w) => {
                if w.is_finite() && (0.0..=1.0).contains(&w) {
                    Ok(())
                } else {
                    Err(SbqaError::invalid_config(format!(
                        "fixed omega must lie in [0, 1], got {w}"
                    )))
                }
            }
        }
    }
}

/// The allocation strategies available in this reproduction.
///
/// `SbQA` is the paper's contribution; the others are the baselines used in
/// the evaluation scenarios plus two sanity baselines (random, round-robin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum AllocationPolicyKind {
    /// Satisfaction-based query allocation (KnBest + SQLB scoring).
    #[default]
    SbQA,
    /// Capacity-based allocation: queries go to the least-utilized capable
    /// providers, weighted by capacity (BOINC's behaviour, \[9\] in the paper).
    Capacity,
    /// Economic allocation: Mariposa-style bidding, lowest bid wins (\[13\]).
    Economic,
    /// Uniformly random selection among capable providers.
    Random,
    /// Round-robin over capable providers.
    RoundRobin,
    /// Shortest-queue-first (pure load-based) allocation.
    LoadBased,
}

impl AllocationPolicyKind {
    /// All policy kinds, in the order reports list them.
    #[must_use]
    pub const fn all() -> [AllocationPolicyKind; 6] {
        [
            AllocationPolicyKind::SbQA,
            AllocationPolicyKind::Capacity,
            AllocationPolicyKind::Economic,
            AllocationPolicyKind::Random,
            AllocationPolicyKind::RoundRobin,
            AllocationPolicyKind::LoadBased,
        ]
    }

    /// Short label used in experiment tables.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            AllocationPolicyKind::SbQA => "SbQA",
            AllocationPolicyKind::Capacity => "Capacity",
            AllocationPolicyKind::Economic => "Economic",
            AllocationPolicyKind::Random => "Random",
            AllocationPolicyKind::RoundRobin => "RoundRobin",
            AllocationPolicyKind::LoadBased => "LoadBased",
        }
    }

    /// The three policies compared in the paper's scenarios.
    #[must_use]
    pub const fn paper_policies() -> [AllocationPolicyKind; 3] {
        [
            AllocationPolicyKind::SbQA,
            AllocationPolicyKind::Capacity,
            AllocationPolicyKind::Economic,
        ]
    }
}

/// System-level configuration shared by the mediator and the simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Length `k` of the interaction window used for satisfaction
    /// (the "k last interactions" of Section II). The paper assumes all
    /// participants use the same value.
    pub satisfaction_window: usize,
    /// Number of providers drawn at random by KnBest (the set `K`).
    pub knbest_k: usize,
    /// Number of least-utilized providers retained by KnBest (the set `Kn`).
    pub knbest_kn: usize,
    /// The ε of Definition 3, preventing zero scores when an intention equals 1.
    pub epsilon: f64,
    /// How ω is chosen.
    pub omega: OmegaPolicy,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            satisfaction_window: 50,
            knbest_k: 20,
            knbest_kn: 4,
            // The paper states ε > 0 is "usually set to 1".
            epsilon: 1.0,
            omega: OmegaPolicy::Adaptive,
        }
    }
}

impl SystemConfig {
    /// Validates the configuration against the domains stated in the paper.
    pub fn validate(&self) -> SbqaResult<()> {
        if self.satisfaction_window == 0 {
            return Err(SbqaError::invalid_config(
                "satisfaction window k must be at least 1",
            ));
        }
        if self.knbest_k == 0 {
            return Err(SbqaError::invalid_config("KnBest k must be at least 1"));
        }
        if self.knbest_kn == 0 {
            return Err(SbqaError::invalid_config("KnBest kn must be at least 1"));
        }
        if self.knbest_kn > self.knbest_k {
            return Err(SbqaError::invalid_config(format!(
                "KnBest kn ({}) cannot exceed k ({})",
                self.knbest_kn, self.knbest_k
            )));
        }
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(SbqaError::invalid_config(format!(
                "epsilon must be a positive finite number, got {}",
                self.epsilon
            )));
        }
        self.omega.validate()
    }

    /// Returns a copy with a different ω policy.
    #[must_use]
    pub fn with_omega(mut self, omega: OmegaPolicy) -> Self {
        self.omega = omega;
        self
    }

    /// Returns a copy with different KnBest parameters.
    #[must_use]
    pub fn with_knbest(mut self, k: usize, kn: usize) -> Self {
        self.knbest_k = k;
        self.knbest_kn = kn;
        self
    }

    /// Returns a copy with a different satisfaction window.
    #[must_use]
    pub fn with_window(mut self, k: usize) -> Self {
        self.satisfaction_window = k;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SystemConfig::default().validate().unwrap();
    }

    #[test]
    fn omega_policy_validation() {
        OmegaPolicy::Adaptive.validate().unwrap();
        OmegaPolicy::Fixed(0.0).validate().unwrap();
        OmegaPolicy::Fixed(1.0).validate().unwrap();
        assert!(OmegaPolicy::Fixed(1.5).validate().is_err());
        assert!(OmegaPolicy::Fixed(-0.1).validate().is_err());
        assert!(OmegaPolicy::Fixed(f64::NAN).validate().is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad_window = SystemConfig {
            satisfaction_window: 0,
            ..SystemConfig::default()
        };
        assert!(bad_window.validate().is_err());

        let bad_kn = SystemConfig::default().with_knbest(4, 8);
        assert!(bad_kn.validate().is_err());

        let zero_k = SystemConfig::default().with_knbest(0, 0);
        assert!(zero_k.validate().is_err());

        let bad_eps = SystemConfig {
            epsilon: 0.0,
            ..SystemConfig::default()
        };
        assert!(bad_eps.validate().is_err());
    }

    #[test]
    fn builder_style_updates() {
        let cfg = SystemConfig::default()
            .with_knbest(10, 3)
            .with_window(25)
            .with_omega(OmegaPolicy::Fixed(0.25));
        assert_eq!(cfg.knbest_k, 10);
        assert_eq!(cfg.knbest_kn, 3);
        assert_eq!(cfg.satisfaction_window, 25);
        assert_eq!(cfg.omega, OmegaPolicy::Fixed(0.25));
        cfg.validate().unwrap();
    }

    #[test]
    fn policy_labels_are_unique() {
        let labels: Vec<&str> = AllocationPolicyKind::all()
            .iter()
            .map(|p| p.label())
            .collect();
        let mut deduped = labels.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(labels.len(), deduped.len());
        assert_eq!(AllocationPolicyKind::paper_policies().len(), 3);
    }
}
