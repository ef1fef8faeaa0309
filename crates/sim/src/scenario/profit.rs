//! Fig. 13 — trustworthiness updated with delegation results (§5.6).
//!
//! Every potential trustee has hidden actual success rate, gain, damage and
//! cost. Trustors repeatedly delegate, update their records with β = 0.1,
//! and realize net profit. Strategy 1 selects by success rate alone;
//! strategy 2 selects by expected net profit (Eq. 23). The paper shows
//! strategy 2 converging to visibly higher profit — strategy 1 can even go
//! negative on Facebook and Twitter.

use crate::agent::{AgentId, Roles};
use crate::metrics::mean;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;
use siot_core::context::Context;
use siot_core::delegation::{CompletedDelegation, DelegationOutcome};
use siot_core::goal::Goal;
use siot_core::policy::{HighestSuccessRate, MaxNetProfit, SelectionPolicy};
use siot_core::record::{ForgettingFactors, Observation, TrustRecord};
use siot_core::store::TrustEngine;
use siot_core::task::{CharacteristicId, Task, TaskId};
use siot_graph::traversal::bfs_distances_bounded;
use siot_graph::SocialGraph;

/// The experiment has one implicit task type; records are keyed by the
/// `(trustor, trustee)` pair.
const PROFIT_TASK: TaskId = TaskId(0);

/// Candidate-selection strategy for Fig. 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// "First strategy": highest expected success rate.
    SuccessRateOnly,
    /// "Second strategy": Eq. 23 expected net profit.
    NetProfit,
}

impl Strategy {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::SuccessRateOnly => "first strategy",
            Strategy::NetProfit => "second strategy",
        }
    }
}

/// Parameters of the profit experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfitConfig {
    /// Number of delegation iterations (paper: 3000).
    pub iterations: usize,
    /// Forgetting factor β (paper: 0.1).
    pub beta: f64,
    /// Search horizon for candidate trustees.
    pub search_hops: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ProfitConfig {
    fn default() -> Self {
        // β as history weight 0.9 — the paper's figures' time constant
        // (see ForgettingFactors::figures)
        ProfitConfig { iterations: 3000, beta: 0.9, search_hops: 2, seed: 42 }
    }
}

/// The hidden truth about one trustee.
#[derive(Debug, Clone, Copy)]
struct ActualBehavior {
    success_rate: f64,
    gain: f64,
    damage: f64,
    cost: f64,
}

/// One trustor's fixed candidate slate and its view of their records.
struct Slate {
    trustor: AgentId,
    candidates: Vec<AgentId>,
    /// `records[i]`: the engine's record about `(trustor, candidates[i])`.
    records: Vec<TrustRecord>,
}

/// The experiment's state between iterations.
struct Experiment {
    rng: SmallRng,
    betas: ForgettingFactors,
    actuals: Vec<ActualBehavior>,
    slates: Vec<Slate>,
    /// One engine holds every trustor's view, keyed by the (trustor,
    /// trustee) pair — the shape a coordinator-side deployment would use.
    engine: TrustEngine<(AgentId, AgentId)>,
    profit_task: Task,
}

impl Experiment {
    fn new(g: &SocialGraph, cfg: &ProfitConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let roles = Roles::paper_split(g, cfg.seed ^ 0x9f17);

        // hidden actuals per trustee
        let actuals: Vec<ActualBehavior> = (0..g.node_count())
            .map(|_| ActualBehavior {
                success_rate: rng.gen_range(0.0..1.0),
                gain: rng.gen_range(0.0..1.0),
                damage: rng.gen_range(0.0..1.0),
                cost: rng.gen_range(0.0..1.0),
            })
            .collect();

        // candidate slates (fixed per trustor) and per-pair records
        let mut engine: TrustEngine<(AgentId, AgentId)> = TrustEngine::new();
        let mut slates = Vec::new();
        for &trustor in roles.trustors() {
            let dist = bfs_distances_bounded(g, trustor, cfg.search_hops);
            let candidates: Vec<AgentId> = roles
                .trustees()
                .iter()
                .copied()
                .filter(|t| *t != trustor && dist[t.index()] != u32::MAX)
                .collect();
            if candidates.is_empty() {
                continue;
            }
            for &c in &candidates {
                // Initial expectations are optimistic (the paper initializes
                // expectations at their best, §5.7): every candidate gets
                // explored before the trustor settles, so the profit series
                // rises over the first several hundred iterations as records
                // converge to the trustees' actual behaviour (Eqs. 19-22).
                engine.seed_record(
                    (trustor, c),
                    PROFIT_TASK,
                    TrustRecord::with_priors(1.0, 1.0, 0.0, 0.0),
                );
            }
            let records = candidates
                .iter()
                .map(|&c| {
                    engine.record((trustor, c), PROFIT_TASK).expect("record seeded just above")
                })
                .collect();
            slates.push(Slate { trustor, candidates, records });
        }

        Experiment {
            rng,
            betas: ForgettingFactors::uniform(cfg.beta),
            actuals,
            slates,
            engine,
            profit_task: Task::uniform(PROFIT_TASK, [CharacteristicId(0)]).expect("non-empty"),
        }
    }

    /// One iteration: every trustor delegates once. Returns the mean
    /// realized net profit.
    fn step(&mut self, strategy: Strategy) -> f64 {
        let mut profits = Vec::with_capacity(self.slates.len());
        let mut picks = Vec::with_capacity(self.slates.len());
        let mut completed: Vec<CompletedDelegation<(AgentId, AgentId)>> =
            Vec::with_capacity(self.slates.len());
        for slate in &self.slates {
            // score candidates under the strategy
            let pick = match strategy {
                Strategy::SuccessRateOnly => HighestSuccessRate.select(&slate.records),
                Strategy::NetProfit => MaxNetProfit.select(&slate.records),
            }
            .expect("slates are non-empty");
            picks.push(pick);
            let trustee = slate.candidates[pick];
            let actual = self.actuals[trustee.index()];

            // realize the outcome
            let rng = &mut self.rng;
            let succeeded = rng.gen_bool(actual.success_rate);
            let profit =
                if succeeded { actual.gain - actual.cost } else { -actual.damage - actual.cost };
            profits.push(profit);

            // Post-evaluation observation (Eqs. 19–22). The trustor
            // measures QoS-style rates (continuous, lightly noisy), not a
            // single success bit — a delegation exposes throughput/latency/
            // cost figures whose long-run means are the trustee's actuals.
            let jitter =
                |x: f64, rng: &mut SmallRng| (x + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0);
            let obs = Observation {
                success_rate: jitter(actual.success_rate, rng),
                gain: jitter(actual.gain, rng),
                damage: jitter(actual.damage, rng),
                cost: jitter(actual.cost, rng),
            };

            // the strategy has already decided, so the session is
            // committed: the experiment measures convergence, not the
            // goal gate
            let active = self
                .engine
                .delegate(
                    (slate.trustor, trustee),
                    &self.profit_task,
                    Goal::ANY,
                    Context::amicable(PROFIT_TASK),
                )
                .activate(&self.engine);
            completed.push(
                active
                    .finish(DelegationOutcome::observed(obs))
                    .expect("jittered observations are clamped to the unit range"),
            );
        }
        // One batched storage pass per iteration: each (trustor, trustee)
        // record is unique, so deferring the folds preserves the semantics
        // while the engine amortizes the lookups. The receipts carry the
        // acked post-fold records, and each trustor committed exactly one,
        // so refreshing the picked slot from its receipt keeps every slate
        // equal to the engine's state without reading it back.
        let receipts = self.engine.commit_batch_receipts(completed, &self.betas);
        for ((slate, pick), receipt) in self.slates.iter_mut().zip(picks).zip(receipts) {
            debug_assert_eq!(receipt.trustee, (slate.trustor, slate.candidates[pick]));
            slate.records[pick] = receipt.record;
        }
        mean(&profits)
    }
}

/// Runs the experiment; returns the average realized net profit per
/// iteration (one entry per iteration).
pub fn run(g: &SocialGraph, strategy: Strategy, cfg: &ProfitConfig) -> Vec<f64> {
    let mut experiment = Experiment::new(g, cfg);
    (0..cfg.iterations).map(|_| experiment.step(strategy)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use siot_graph::generate::social::SocialNetKind;

    fn tail_mean(series: &[f64]) -> f64 {
        let tail = &series[series.len().saturating_sub(200)..];
        mean(tail)
    }

    #[test]
    fn net_profit_strategy_converges_higher() {
        let g = SocialNetKind::Twitter.generate(7);
        let cfg = ProfitConfig { iterations: 800, ..Default::default() };
        let s1 = run(&g, Strategy::SuccessRateOnly, &cfg);
        let s2 = run(&g, Strategy::NetProfit, &cfg);
        assert_eq!(s1.len(), 800);
        assert!(
            tail_mean(&s2) > tail_mean(&s1) + 0.1,
            "second strategy must win clearly: {} vs {}",
            tail_mean(&s2),
            tail_mean(&s1)
        );
    }

    #[test]
    fn success_rate_strategy_can_be_unprofitable() {
        // picking by success rate ignores damage/cost; the converged profit
        // hovers near zero (the paper even shows negative values).
        let g = SocialNetKind::Facebook.generate(7);
        let cfg = ProfitConfig { iterations: 600, ..Default::default() };
        let s1 = run(&g, Strategy::SuccessRateOnly, &cfg);
        assert!(tail_mean(&s1) < 0.2, "gotta be mediocre, got {}", tail_mean(&s1));
    }

    #[test]
    fn profit_improves_with_learning() {
        let g = SocialNetKind::Twitter.generate(9);
        let cfg = ProfitConfig { iterations: 600, ..Default::default() };
        let s2 = run(&g, Strategy::NetProfit, &cfg);
        let early = mean(&s2[..50]);
        let late = tail_mean(&s2);
        assert!(late > early, "learning must help: early {early} late {late}");
    }

    #[test]
    fn deterministic() {
        let g = SocialNetKind::Twitter.generate(3);
        let cfg = ProfitConfig { iterations: 50, ..Default::default() };
        assert_eq!(run(&g, Strategy::NetProfit, &cfg), run(&g, Strategy::NetProfit, &cfg));
    }

    #[test]
    fn slates_track_the_engine_bit_for_bit() {
        let g = SocialNetKind::Twitter.generate(3);
        let cfg = ProfitConfig { iterations: 20, ..Default::default() };
        for strategy in [Strategy::SuccessRateOnly, Strategy::NetProfit] {
            let mut experiment = Experiment::new(&g, &cfg);
            for _ in 0..cfg.iterations {
                experiment.step(strategy);
            }
            let bits = |r: &TrustRecord| {
                (r.s_hat.to_bits(), r.g_hat.to_bits(), r.d_hat.to_bits(), r.c_hat.to_bits())
            };
            let mut moved = 0;
            for slate in &experiment.slates {
                for (&c, view) in slate.candidates.iter().zip(&slate.records) {
                    let stored = experiment
                        .engine
                        .record((slate.trustor, c), PROFIT_TASK)
                        .expect("seeded for every slate member");
                    assert_eq!(bits(view), bits(&stored), "{:?} -> {c:?}", slate.trustor);
                    assert_eq!(view.interactions, stored.interactions);
                    moved += usize::from(stored.interactions > 0);
                }
            }
            assert!(moved > 0, "{} folded no delegation", strategy.name());
        }
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::SuccessRateOnly.name(), "first strategy");
        assert_eq!(Strategy::NetProfit.name(), "second strategy");
    }
}
