//! Shared experiment execution for the binaries and the shape tests.

use crate::paper;
use siot_graph::generate::features::synthesize_features;
use siot_graph::generate::social::SocialNetKind;
use siot_graph::SocialGraph;
use siot_sim::scenario::mutuality::{self, MutualityConfig, MutualityOutcome};
use siot_sim::scenario::transitivity::{self, TransitivityConfig, TransitivityOutcome};
use siot_sim::SearchMethod;

/// The default seed every binary uses (override with `SIOT_SEED`).
pub const DEFAULT_SEED: u64 = 42;

/// Reads the seed from the `SIOT_SEED` environment variable, defaulting to
/// [`DEFAULT_SEED`].
pub fn seed_from_env() -> u64 {
    std::env::var("SIOT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SEED)
}

/// Generates one evaluation network.
pub fn network(kind: SocialNetKind, seed: u64) -> SocialGraph {
    kind.generate(seed)
}

/// Fig. 7: mutuality rates for every network × θ.
pub fn fig7(seed: u64) -> Vec<(SocialNetKind, f64, MutualityOutcome)> {
    let mut out = Vec::new();
    for kind in SocialNetKind::ALL {
        let g = network(kind, seed);
        for &theta in &paper::FIG7_THETAS {
            let cfg = MutualityConfig { theta, seed, ..Default::default() };
            out.push((kind, theta, mutuality::run(&g, &cfg)));
        }
    }
    out
}

/// One cell of the Fig. 9–11 sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The network.
    pub kind: SocialNetKind,
    /// The transfer method.
    pub method: SearchMethod,
    /// Total characteristics in the network.
    pub n_characteristics: usize,
    /// The measured rates.
    pub outcome: TransitivityOutcome,
}

/// Figs. 9–11: the full (network × method × characteristics) sweep.
pub fn transitivity_sweep(seed: u64) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for kind in SocialNetKind::ALL {
        let g = network(kind, seed);
        for &n_chars in &paper::CHARACTERISTIC_SWEEP {
            let cfg = TransitivityConfig {
                n_characteristics: n_chars,
                // every 2-characteristic combination exists as a task type,
                // so the exact-match baseline starves as the alphabet grows
                extra_pair_tasks: n_chars * (n_chars - 1) / 2,
                seed,
                ..Default::default()
            };
            for method in SearchMethod::ALL {
                cells.push(SweepCell {
                    kind,
                    method,
                    n_characteristics: n_chars,
                    outcome: transitivity::run(&g, method, &cfg),
                });
            }
        }
    }
    cells
}

/// Table 2 / Fig. 12: transitivity with node-property characteristics.
pub fn feature_transitivity(seed: u64) -> Vec<(SocialNetKind, SearchMethod, TransitivityOutcome)> {
    let mut out = Vec::new();
    for kind in SocialNetKind::ALL {
        let (g, community) = kind.generate_with_communities(seed);
        let features = synthesize_features(&community, 6, 0.45, seed ^ 0xfea7);
        let cfg = TransitivityConfig { seed, ..Default::default() };
        for method in SearchMethod::ALL {
            out.push((kind, method, transitivity::run_with_features(&g, method, &cfg, &features)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_env_parsing() {
        // no env var set in tests: default
        assert_eq!(seed_from_env(), DEFAULT_SEED);
    }

    #[test]
    fn networks_generate() {
        for kind in SocialNetKind::ALL {
            let g = network(kind, 1);
            assert!(g.node_count() > 200);
        }
    }
}
