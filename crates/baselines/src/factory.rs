//! Allocator factory.
//!
//! The scenario harnesses describe which technique to run with an
//! [`AllocationPolicyKind`]; this module turns that description into a boxed
//! [`QueryAllocator`], so the simulator never needs to know the concrete
//! types.

use sbqa_core::{QueryAllocator, SbqaAllocator};
use sbqa_types::{AllocationPolicyKind, SbqaResult, SystemConfig};

use crate::capacity::CapacityAllocator;
use crate::economic::EconomicAllocator;
use crate::random_alloc::RandomAllocator;

/// Builds the allocator for a policy kind.
///
/// `config` is used by SbQA (KnBest parameters, ε, ω policy) and by the
/// baselines for their consideration-window size (kept equal to SbQA's `kn`
/// so the satisfaction accounting is comparable across techniques). `seed`
/// feeds the techniques that use randomness (SbQA's KnBest draw and the
/// random baseline).
pub fn build_allocator(
    kind: AllocationPolicyKind,
    config: &SystemConfig,
    seed: u64,
) -> SbqaResult<Box<dyn QueryAllocator>> {
    config.validate()?;
    let consideration = config.knbest_kn;
    Ok(match kind {
        AllocationPolicyKind::SbQA => Box::new(SbqaAllocator::new(config.clone(), seed)?),
        AllocationPolicyKind::Capacity => {
            Box::new(CapacityAllocator::new().with_consideration(consideration))
        }
        AllocationPolicyKind::Economic => {
            Box::new(EconomicAllocator::new().with_consideration(consideration))
        }
        AllocationPolicyKind::Random => Box::new(RandomAllocator::new(seed)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_kind_builds_and_reports_its_label() {
        let config = SystemConfig::default();
        for kind in AllocationPolicyKind::all() {
            let allocator = build_allocator(kind, &config, 42).unwrap();
            assert_eq!(allocator.name(), kind.label());
        }
    }

    #[test]
    fn invalid_configuration_is_rejected_for_every_kind() {
        let bad = SystemConfig {
            knbest_kn: 10,
            knbest_k: 2,
            ..SystemConfig::default()
        };
        for kind in AllocationPolicyKind::all() {
            assert!(build_allocator(kind, &bad, 0).is_err());
        }
    }
}
