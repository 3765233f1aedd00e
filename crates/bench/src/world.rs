//! What the service-level harnesses (`scenario_sharded`, `scenario_failover`,
//! `scenario_overload`, `scenario_adaptive`) share: the population they
//! register and the scale their flags resolve to.

use sbqa_core::intention::{ConsumerProfile, ProviderProfile};
use sbqa_sim::{ConsumerSpec, ProviderSpec};
use sbqa_types::{
    Capability, CapabilityRequirement, CapabilitySet, ConsumerId, ProviderId, SystemConfig,
};

use crate::cli::HarnessOptions;

/// Capability classes the population spreads over.
pub const CLASSES: u8 = 8;

fn set(classes: &[u8]) -> CapabilitySet {
    CapabilitySet::from_capabilities(classes.iter().copied().map(Capability::new))
}

/// Overlapping capability profiles: each provider advertises its base class
/// plus, for thirds/fifths of the population, one or two neighbours, so
/// multi-class merges see non-empty intersections on every shard.
/// `capacity` maps a provider's position to its capacity.
pub fn providers_with(count: usize, capacity: impl Fn(u64) -> f64) -> Vec<ProviderSpec> {
    (0..count as u64)
        .map(|i| {
            let base = (i % u64::from(CLASSES)) as u8;
            let mut caps = CapabilitySet::singleton(Capability::new(base));
            if i % 3 == 0 {
                caps.insert(Capability::new((base + 1) % CLASSES));
            }
            if i % 5 == 0 {
                caps.insert(Capability::new((base + 2) % CLASSES));
            }
            ProviderSpec::new(
                ProviderId::new(1_000 + i),
                caps,
                capacity(i),
                ProviderProfile::default(),
            )
        })
        .collect()
}

/// [`providers_with`] capacities cycling through 1–4.
#[must_use]
pub fn providers(count: usize) -> Vec<ProviderSpec> {
    providers_with(count, |i| 1.0 + (i % 4) as f64)
}

/// Four consumers (≈ 30 queries per virtual second): two plain
/// single-capability issuers, one conjunctive and one disjunctive
/// multi-capability issuer.
#[must_use]
pub fn consumers() -> Vec<ConsumerSpec> {
    let consumer = |id, class, rate, replication| {
        ConsumerSpec::new(
            ConsumerId::new(id),
            Capability::new(class),
            rate,
            1.0,
            replication,
            ConsumerProfile::default(),
        )
    };
    vec![
        consumer(1, 0, 10.0, 1),
        consumer(2, 3, 10.0, 2),
        consumer(3, 1, 5.0, 1).with_requirement(CapabilityRequirement::All(set(&[1, 2]))),
        consumer(4, 4, 5.0, 1).with_requirement(CapabilityRequirement::Any(set(&[4, 5, 6]))),
    ]
}

/// The scale of a service-level run: the `--providers`, `--queries`,
/// `--shards`, `--batch`, `--seed`, `--k` and `--kn` flags over a harness's
/// presets.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Providers to register.
    pub providers: usize,
    /// Queries to stream.
    pub queries: usize,
    /// Shard counts: swept by `scenario_sharded`, first one used elsewhere.
    pub shards: Vec<usize>,
    /// Queries per batch.
    pub batch: usize,
    /// Seed of the stream, the routing, the allocators and the oracle.
    pub seed: u64,
    /// KnBest's `k`.
    pub k: usize,
    /// KnBest's `kn`.
    pub kn: usize,
}

impl Scale {
    /// Resolves the flags against a harness's `[quick, full]` presets.
    #[must_use]
    pub fn new(
        options: &HarnessOptions,
        providers: [usize; 2],
        queries: [usize; 2],
        shards: &[usize],
        batch: usize,
    ) -> Self {
        let preset = |sizes: [usize; 2]| sizes[usize::from(!options.quick)];
        Self {
            providers: options.volunteers.unwrap_or(preset(providers)),
            queries: options.queries.unwrap_or(preset(queries)),
            shards: options.shards.clone().unwrap_or_else(|| shards.to_vec()),
            batch: options.batch.unwrap_or(batch),
            seed: options.seed.unwrap_or(42),
            k: options.knbest_k.unwrap_or(20),
            kn: options.knbest_kn.unwrap_or(4),
        }
    }

    /// The presets of the three mediation-service harnesses: 2 000 / 100 000
    /// providers, 5 000 / 50 000 queries, batches of 64.
    #[must_use]
    pub fn service(options: &HarnessOptions, shards: &[usize]) -> Self {
        Self::new(options, [2_000, 100_000], [5_000, 50_000], shards, 64)
    }

    /// The SbQA configuration at this scale's `k` and `kn`.
    #[must_use]
    pub fn system(&self) -> SystemConfig {
        SystemConfig::default().with_knbest(self.k, self.kn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(args: &[&str]) -> HarnessOptions {
        HarnessOptions::parse(args.iter().map(|s| (*s).to_string())).unwrap()
    }

    #[test]
    fn scale_resolves_presets_and_overrides() {
        let full = Scale::service(&options(&[]), &[1, 2, 4, 8]);
        assert_eq!((full.providers, full.queries), (100_000, 50_000));
        assert_eq!(full.shards, [1, 2, 4, 8]);
        assert_eq!((full.batch, full.seed, full.k, full.kn), (64, 42, 20, 4));

        let quick = Scale::service(
            &options(&["--quick", "--queries", "9", "--shards", "3", "--kn", "2"]),
            &[2],
        );
        assert_eq!((quick.providers, quick.queries), (2_000, 9));
        assert_eq!(quick.shards, [3]);
        assert_eq!(quick.system().knbest_kn, 2);
    }

    #[test]
    fn population_overlaps_classes_and_keeps_ids_ascending() {
        let providers = providers(30);
        assert!(providers.windows(2).all(|pair| pair[0].id < pair[1].id));
        assert_eq!(providers[0].capabilities.len(), 3, "a third and a fifth");
        assert_eq!(providers[1].capabilities.len(), 1);
        assert_eq!(consumers().len(), 4);
    }
}
