//! Trust-related attack models.
//!
//! The paper motivates its model partly by the attacks studied in the IoT
//! trust literature it builds on (§2, Chen et al. \[17\]): self-promotion,
//! bad-mouthing, ballot-stuffing and opportunistic service. This module
//! implements them against the clarified model so the defences can be
//! measured:
//!
//! * **self-promotion** — a trustee advertises inflated quality; defeated
//!   by post-evaluation on *observed* outcomes (Eqs. 19–22), not claims;
//! * **bad-mouthing** — a recommender reports dishonestly low trust about
//!   good trustees; contained by the ω₁ recommendation gate once the
//!   recommender's recommendation trust is downgraded;
//! * **ballot-stuffing** — a recommender inflates reports about bad
//!   trustees (collusion); contained the same way;
//! * **opportunistic service** — an agent behaves well until its
//!   trustworthiness is established, then degrades; contained by
//!   continuous updates with a finite memory β.

use rand::rngs::SmallRng;
use rand::Rng;
use siot_core::context::Context;
use siot_core::delegation::DelegationOutcome;
use siot_core::goal::Goal;
use siot_core::record::{ForgettingFactors, Observation};
use siot_core::store::TrustStore;
use siot_core::task::{CharacteristicId, Task, TaskId};
use siot_core::transitivity::two_hop;
use siot_core::tw::Normalizer;

/// Attack archetypes from the IoT trust literature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attack {
    /// Advertises `claimed` quality while delivering `actual`.
    SelfPromotion {
        /// Advertised quality.
        claimed: f64,
        /// Delivered quality.
        actual: f64,
    },
    /// Reports `reported` about peers whose true quality is `actual`.
    BadMouthing {
        /// The dishonest recommendation value.
        reported: f64,
    },
    /// Inflates reports about colluders to `reported`.
    BallotStuffing {
        /// The inflated recommendation value.
        reported: f64,
    },
    /// Behaves at `good` quality for `honeymoon` interactions, then at
    /// `bad`.
    OpportunisticService {
        /// Quality during the honeymoon.
        good: f64,
        /// Quality afterwards.
        bad: f64,
        /// Length of the honeymoon in interactions.
        honeymoon: u64,
    },
}

impl Attack {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Attack::SelfPromotion { .. } => "self-promotion",
            Attack::BadMouthing { .. } => "bad-mouthing",
            Attack::BallotStuffing { .. } => "ballot-stuffing",
            Attack::OpportunisticService { .. } => "opportunistic-service",
        }
    }

    /// The quality an attacker delivers on its `n`-th interaction.
    fn delivered_quality(&self, n: u64, rng: &mut SmallRng) -> f64 {
        match *self {
            Attack::SelfPromotion { actual, .. } => jitter(actual, rng),
            Attack::OpportunisticService { good, bad, honeymoon } => {
                jitter(if n < honeymoon { good } else { bad }, rng)
            }
            // recommendation attacks execute honestly when (rarely) chosen
            Attack::BadMouthing { .. } | Attack::BallotStuffing { .. } => jitter(0.6, rng),
        }
    }

    /// The quality an attacker *advertises*.
    fn advertised_quality(&self) -> f64 {
        match *self {
            Attack::SelfPromotion { claimed, .. } => claimed,
            Attack::OpportunisticService { good, .. } => good,
            _ => 0.6,
        }
    }
}

fn jitter(x: f64, rng: &mut SmallRng) -> f64 {
    (x + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0)
}

/// Outcome of one attack-resilience run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceOutcome {
    /// Mean realized quality per delegation under the proposed model.
    pub proposed_quality: f64,
    /// Mean realized quality when the trustor believes advertisements.
    pub naive_quality: f64,
    /// Fraction of delegations that went to the attacker (proposed model).
    pub attacker_share_proposed: f64,
    /// Fraction of delegations that went to the attacker (naive model).
    pub attacker_share_naive: f64,
}

/// The trustor's engine peers in the resilience duel.
const HONEST: u8 = 0;
/// See [`HONEST`].
const ATTACKER: u8 = 1;

/// Self-promotion / opportunistic-service resilience: one trustor, one
/// honest trustee (quality `honest_quality`), one attacker. The proposed
/// trustor scores by its *own* post-evaluation records; the naive trustor
/// scores by advertised quality.
///
/// Every interaction of the proposed trustor is a full delegation session
/// (`delegate → evaluate → execute`) against its [`TrustStore`], so the
/// defence works off engine state only — including the **interaction
/// count**, which is what lets the opportunistic attacker's phase switch
/// be pinned to its record rather than to hidden bookkeeping.
pub fn execution_attack_resilience(
    attack: Attack,
    honest_quality: f64,
    interactions: u64,
    seed: u64,
) -> ResilienceOutcome {
    use rand::SeedableRng;
    let betas = ForgettingFactors::figures();
    let mut rng = SmallRng::seed_from_u64(seed);
    let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).expect("non-empty");

    let mut proposed_sum = 0.0;
    let mut naive_sum = 0.0;
    let mut attacker_picks_proposed = 0u64;
    let mut attacker_picks_naive = 0u64;

    // the proposed trustor's whole memory lives in its engine
    let mut engine: TrustStore<u8> = TrustStore::new();

    for i in 0..interactions {
        // --- proposed: optimistic first trials, then Eq. 23 scores -----
        let score = |engine: &TrustStore<u8>, peer: u8| {
            engine
                .record(peer, task.id())
                .map_or(0.85, |rec| Normalizer::UNIT.apply(rec.expected_net_profit()))
        };
        let pick_attacker = score(&engine, ATTACKER) > score(&engine, HONEST);
        let peer = if pick_attacker { ATTACKER } else { HONEST };
        let q = if pick_attacker {
            attacker_picks_proposed += 1;
            // the attacker's phase is driven by the engine-visible count
            let n = engine.record(ATTACKER, task.id()).map_or(0, |r| r.interactions);
            attack.delivered_quality(n, &mut rng)
        } else {
            jitter(honest_quality, &mut rng)
        };
        let active =
            engine.delegate(peer, &task, Goal::ANY, Context::amicable(task.id())).activate(&engine);
        let obs = Observation { success_rate: q, gain: q, damage: 1.0 - q, cost: 0.1 };
        active
            .execute(&mut engine, DelegationOutcome::observed(obs), &betas)
            .expect("qualities are clamped to the unit range");
        proposed_sum += q;

        // --- naive: believes advertisements forever --------------------
        let naive_picks_attacker = attack.advertised_quality() > honest_quality;
        let nq = if naive_picks_attacker {
            attacker_picks_naive += 1;
            // the naive trustor's attacker has its own interaction count i
            attack.delivered_quality(i, &mut rng)
        } else {
            jitter(honest_quality, &mut rng)
        };
        naive_sum += nq;
    }

    ResilienceOutcome {
        proposed_quality: proposed_sum / interactions as f64,
        naive_quality: naive_sum / interactions as f64,
        attacker_share_proposed: attacker_picks_proposed as f64 / interactions as f64,
        attacker_share_naive: attacker_picks_naive as f64 / interactions as f64,
    }
}

/// Measures how much a poisoned recommender can shift a two-hop estimate
/// before and after the trustor downgrades its recommendation trust.
///
/// Returns `(estimate_trusting_attacker, estimate_after_downgrade)` where
/// the second uses the ω₁-gated fallback (no transfer → direct experience
/// only, here the prior 0.5).
pub fn recommendation_attack_impact(
    true_quality: f64,
    reported: f64,
    rec_trust_before: f64,
    omega1: f64,
) -> (f64, f64) {
    let _ = true_quality;
    let poisoned = two_hop(rec_trust_before, reported);
    let after = if rec_trust_before < omega1 {
        0.5 // transfer blocked: fall back to ignorance, not poison
    } else {
        poisoned
    };
    (poisoned, after)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn names() {
        assert_eq!(Attack::SelfPromotion { claimed: 1.0, actual: 0.1 }.name(), "self-promotion");
        assert_eq!(Attack::BadMouthing { reported: 0.0 }.name(), "bad-mouthing");
        assert_eq!(Attack::BallotStuffing { reported: 1.0 }.name(), "ballot-stuffing");
        assert_eq!(
            Attack::OpportunisticService { good: 0.9, bad: 0.1, honeymoon: 5 }.name(),
            "opportunistic-service"
        );
    }

    #[test]
    fn self_promotion_defeated_by_post_evaluation() {
        let attack = Attack::SelfPromotion { claimed: 0.99, actual: 0.2 };
        let out = execution_attack_resilience(attack, 0.8, 200, 42);
        // the naive trustor believes the claim forever
        assert!(out.attacker_share_naive > 0.99, "{out:?}");
        assert!(out.naive_quality < 0.3, "{out:?}");
        // the proposed trustor tries the attacker, observes, and leaves
        assert!(out.attacker_share_proposed < 0.15, "{out:?}");
        assert!(out.proposed_quality > 0.7, "{out:?}");
    }

    #[test]
    fn opportunistic_service_contained_by_finite_memory() {
        let attack = Attack::OpportunisticService { good: 0.95, bad: 0.1, honeymoon: 10 };
        let out = execution_attack_resilience(attack, 0.8, 400, 7);
        // the attacker wins the honeymoon, then the EWMA catches the drop
        assert!(out.attacker_share_proposed < 0.25, "{out:?}");
        assert!(out.proposed_quality > 0.65, "{out:?}");
        // naive keeps trusting the honeymoon reputation
        assert!(out.naive_quality < out.proposed_quality, "{out:?}");
    }

    #[test]
    fn delivered_quality_follows_phase() {
        let attack = Attack::OpportunisticService { good: 0.9, bad: 0.1, honeymoon: 3 };
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(attack.delivered_quality(0, &mut rng) > 0.7);
        assert!(attack.delivered_quality(2, &mut rng) > 0.7);
        assert!(attack.delivered_quality(3, &mut rng) < 0.3);
    }

    #[test]
    fn recommendation_gate_blocks_poison() {
        // a still-trusted attacker (rec trust 0.9) reports 0.05 about a
        // 0.9-quality peer: the estimate is ruined
        let (poisoned, _) = recommendation_attack_impact(0.9, 0.05, 0.9, 0.6);
        assert!(poisoned < 0.2, "trusting the attacker ruins the estimate: {poisoned}");
        // once recommendation trust is downgraded below ω₁, the transfer is
        // blocked and the trustor falls back to ignorance instead of poison
        let (_, after) = recommendation_attack_impact(0.9, 0.05, 0.3, 0.6);
        assert_eq!(after, 0.5, "gated transfer falls back to ignorance");
        // an honest recommender (rec trust 0.9) passes the gate
        let (_, open) = recommendation_attack_impact(0.9, 0.85, 0.9, 0.6);
        assert!(open > 0.7);
    }

    #[test]
    fn eq7_inverts_reports_of_distrusted_recommenders() {
        // a quirk worth documenting: below 0.5 recommendation trust, Eq. 7
        // reads a slanderous report as weak positive evidence — the lie of
        // a known liar carries information
        let inverted = two_hop(0.3, 0.05);
        assert!(inverted > 0.5, "{inverted}");
    }
}
