//! The delegation session: the paper's six-ingredient trust *process*
//! (§3.2–§3.4) as a typed-state lifecycle over the
//! [`TrustEngine`].
//!
//! Lin & Dong's central claim is that trust is a process — **trustor**,
//! **trustee**, **goal**, **trustworthiness evaluation**,
//! **decision/action/result**, and **context** — not a scalar lookup. This
//! module encodes that process in the type system, so "evaluate before
//! decide before act before feed back" is the *only* expressible order:
//!
//! ```text
//! TrustEngine::delegate(trustee, task, goal, context)
//!        │                                 (trustor = the engine's owner)
//!        ▼
//! DelegationRequest ──evaluate(&engine)──▶ EvaluatedDelegation
//!        builders: referrals, gates,             │ carries Trustworthiness,
//!        prior, committed                        │ expectation, basis
//!                                                ▼ into_decision()
//!                              ┌─────────── Decision ───────────┐
//!                              ▼                                ▼
//!                    Decision::Delegate(active)        Decision::Decline
//!                              │                       (reason; no handle,
//!            execute(outcome)  │  finish(outcome)       no feedback possible)
//!                              ▼
//!                    CompletedDelegation ──commit / commit_batch──▶ backend
//! ```
//!
//! * **Evaluation** (§3.3) resolves trustworthiness in the paper's
//!   preference order: the direct `(trustee, task)` record (Eq. 18), then
//!   Eq. 4 characteristic inference, then the transitivity fallback over
//!   caller-supplied [`Referral`] paths gated by
//!   [`TransitivityGates`] (Eqs. 7/11), then an optional explicit prior.
//! * **Decision** (§3.4) tests the expectation against the goal with
//!   [`Goal::permits`]: the expected result must be inside the goal box and
//!   profitable. Experiments that must keep delegating regardless (e.g. the
//!   Fig. 13 convergence study) opt out with
//!   [`DelegationRequest::committed`].
//! * **Action/result + feedback** are fused: executing the session consumes
//!   it and atomically folds the validated [`Observation`], the §4.1
//!   mutuality usage-log entry, and the §4.5 environment sample (the
//!   context's indicator is removed via Eq. 29 before blending) through the
//!   storage backend. A session is consumed exactly once — double-counting
//!   an outcome is unrepresentable, and [`Observation::validate`] rejects
//!   NaN / out-of-range feedback before anything is folded.
//!
//! The raw engine mutators (`observe`, `insert_record`, `usage_log_mut`)
//! remain available as a documented escape hatch for benches and for
//! seeding state that predates the process; everything that models a live
//! interaction should go through a session.

use crate::backend::TrustBackend;
use crate::context::Context;
use crate::error::TrustError;
use crate::goal::Goal;
use crate::record::{ForgettingFactors, Observation, TrustRecord};
use crate::store::TrustEngine;
use crate::task::{Task, TaskId};
use crate::transitivity::{chain, TransitivityGates};
use crate::tw::Trustworthiness;

/// One transitivity-fallback path: scalar per-hop trust toward the
/// requested task, recommendation links first, the execution link (toward
/// the trustee itself) last. Gated by [`TransitivityGates`] and combined
/// with the Eq. 7 chain during evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Referral {
    links: Vec<f64>,
}

impl Referral {
    /// A referral path from per-hop trust values (recommendations first,
    /// execution last). Empty paths never qualify.
    pub fn new(links: impl Into<Vec<f64>>) -> Self {
        Referral { links: links.into() }
    }

    /// A single-hop referral: only the execution link, e.g. an estimate a
    /// trustee search already transferred and combined.
    pub fn execution(tw: f64) -> Self {
        Referral { links: vec![tw] }
    }

    /// The per-hop links.
    pub fn links(&self) -> &[f64] {
        &self.links
    }

    /// Eq. 7 chain value if the path clears the gates, `None` otherwise.
    fn passing_value(&self, gates: &TransitivityGates) -> Option<f64> {
        let (&execution, recommendations) = self.links.split_last()?;
        if !gates.pass(recommendations, execution) {
            return None;
        }
        Some(chain(&self.links))
    }
}

/// How the trustor arrived at its trustworthiness estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvaluationBasis {
    /// A direct `(trustee, task)` record existed (Eq. 18).
    Direct,
    /// Eq. 4 inference from experiences on analogous tasks.
    Inferred,
    /// A gated transitivity referral (Eqs. 7/11).
    Referred,
    /// The caller-supplied prior ([`DelegationRequest::with_prior`]).
    Prior,
    /// Nothing to go on: the neutral ignorance expectation.
    NoInformation,
}

/// Why an evaluated request was declined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclineReason {
    /// No record, no inference, no passing referral, no prior.
    NoTrustInformation,
    /// Referral paths were supplied but every one failed the ω₁/ω₂ gates.
    ReferralsGated,
    /// The expectation falls outside the goal box (§3.4 alignment).
    GoalMisaligned,
    /// Aligned, but the expected net profit (Eq. 23) is not positive.
    Unprofitable,
}

/// A delegation request: the six ingredients captured, evaluation pending.
///
/// Created by [`TrustEngine::delegate`]; the trustor is the engine's
/// owner. Configure the evaluation with the builder methods, then call
/// [`DelegationRequest::evaluate`].
#[derive(Debug, Clone)]
pub struct DelegationRequest<P> {
    pub(crate) trustee: P,
    pub(crate) task: Task,
    pub(crate) goal: Goal,
    pub(crate) context: Context,
    pub(crate) gates: TransitivityGates,
    pub(crate) referrals: Vec<Referral>,
    pub(crate) prior: Option<TrustRecord>,
    pub(crate) committed: bool,
}

impl<P: Copy + Ord> DelegationRequest<P> {
    /// A request built without an engine in hand — the entry point for
    /// callers that talk to a trust service through a
    /// [`TrustApi`](crate::service::TrustApi) handle instead of owning a
    /// `TrustEngine` (the handle's
    /// [`evaluate`](crate::service::TrustApi::evaluate) runs the
    /// evaluation inside the service). Engine-owning callers keep using
    /// [`TrustEngine::delegate`], which is this plus the engine as the
    /// implied trustor.
    pub fn new(trustee: P, task: &Task, goal: Goal, context: Context) -> Self {
        DelegationRequest {
            trustee,
            task: task.clone(),
            goal,
            // the session is always about the delegated task; only the
            // environment half of the supplied context is kept
            context: Context::new(task.id(), context.environment),
            gates: TransitivityGates::default_gates(),
            referrals: Vec::new(),
            prior: None,
            committed: false,
        }
    }

    /// The peer this request would delegate to — the routing key: the
    /// sharded service tier hashes it to pick the owning shard.
    pub fn trustee(&self) -> P {
        self.trustee
    }

    /// Adds one transitivity-fallback referral path.
    pub fn with_referral(mut self, referral: Referral) -> Self {
        self.referrals.push(referral);
        self
    }

    /// Replaces the ω₁/ω₂ gates used for referral paths (default:
    /// [`TransitivityGates::default_gates`]).
    pub fn with_gates(mut self, gates: TransitivityGates) -> Self {
        self.gates = gates;
        self
    }

    /// Expectation to fall back on when the trustee is a stranger (no
    /// record, no inference, no passing referral). The paper's experiments
    /// initialize expectations at their optimum (§5.7) so strangers get
    /// explored.
    pub fn with_prior(mut self, prior: TrustRecord) -> Self {
        self.prior = Some(prior);
        self
    }

    /// Forces the decision to delegate regardless of the goal check. The
    /// trustworthiness evaluation still runs and the goal is still used to
    /// judge fulfilment of the realized outcome — only the accept/decline
    /// gate is bypassed. For experiments that study post-evaluation
    /// convergence and must keep delegating even at negative expectation.
    pub fn committed(mut self) -> Self {
        self.committed = true;
        self
    }

    /// [`Self::committed`] + [`Self::evaluate`] + the inevitable
    /// [`Decision::Delegate`] unwrap, in one step — the shorthand for
    /// experiment loops where the decision was already made upstream and
    /// only the feedback half of the lifecycle is needed.
    pub fn activate<B: TrustBackend<P>>(self, engine: &TrustEngine<P, B>) -> ActiveDelegation<P> {
        match self.committed().evaluate(engine).into_decision() {
            Decision::Delegate(active) => active,
            Decision::Decline { .. } => unreachable!("committed sessions always delegate"),
        }
    }

    /// Runs the §3.3 trustworthiness evaluation against the trustor's
    /// engine: direct record → Eq. 4 inference → gated referral fallback →
    /// prior, in that order.
    pub fn evaluate<B: TrustBackend<P>>(
        self,
        engine: &TrustEngine<P, B>,
    ) -> EvaluatedDelegation<P> {
        let referrals_supplied = !self.referrals.is_empty();
        let resolved: Option<(TrustRecord, Trustworthiness, EvaluationBasis)> = if let Some(rec) =
            engine.record(self.trustee, self.task.id())
        {
            Some((rec, rec.trustworthiness(engine.normalizer()), EvaluationBasis::Direct))
        } else if let Ok(tw) = engine.infer(self.trustee, &self.task) {
            Some((scalar_expectation(tw), Trustworthiness::new(tw), EvaluationBasis::Inferred))
        } else if let Some(tw) = self
            .referrals
            .iter()
            .filter_map(|r| r.passing_value(&self.gates))
            .fold(None, |best: Option<f64>, v| Some(best.map_or(v, |b| b.max(v))))
        {
            Some((scalar_expectation(tw), Trustworthiness::new(tw), EvaluationBasis::Referred))
        } else {
            self.prior
                .map(|rec| (rec, rec.trustworthiness(engine.normalizer()), EvaluationBasis::Prior))
        };

        let (expectation, trustworthiness, basis) = resolved.unwrap_or((
            TrustRecord::neutral(),
            Trustworthiness::HALF,
            EvaluationBasis::NoInformation,
        ));

        // §3.4: delegate iff the expected result is aligned with the goal
        // and profitable (Goal::permits, decomposed to name the reason)
        let verdict = if self.committed {
            Ok(())
        } else if basis == EvaluationBasis::NoInformation {
            Err(if referrals_supplied {
                DeclineReason::ReferralsGated
            } else {
                DeclineReason::NoTrustInformation
            })
        } else if !self.goal.aligned(&expectation) {
            Err(DeclineReason::GoalMisaligned)
        } else if expectation.expected_net_profit() <= 0.0 {
            Err(DeclineReason::Unprofitable)
        } else {
            Ok(())
        };

        EvaluatedDelegation {
            trustee: self.trustee,
            task: self.task.id(),
            goal: self.goal,
            context: self.context,
            expectation,
            trustworthiness,
            basis,
            verdict,
        }
    }
}

/// Scalar estimates (inference, referrals) become an expectation record
/// with the estimate as expected success and the remaining components at
/// their neutral extremes — the same embedding the §5.5 knowledge bases
/// use, under which [`Goal::permits`] reduces to
/// `tw ≥ min_success ∧ tw > 0`.
fn scalar_expectation(tw: f64) -> TrustRecord {
    TrustRecord::with_priors(tw, 1.0, 0.0, 0.0)
}

/// The evaluated session: trustworthiness and decision computed, feedback
/// still locked behind [`EvaluatedDelegation::into_decision`].
#[derive(Debug)]
pub struct EvaluatedDelegation<P> {
    pub(crate) trustee: P,
    pub(crate) task: TaskId,
    pub(crate) goal: Goal,
    pub(crate) context: Context,
    pub(crate) expectation: TrustRecord,
    pub(crate) trustworthiness: Trustworthiness,
    pub(crate) basis: EvaluationBasis,
    pub(crate) verdict: Result<(), DeclineReason>,
}

impl<P: Copy + Ord> EvaluatedDelegation<P> {
    /// The trustee under evaluation.
    pub fn trustee(&self) -> P {
        self.trustee
    }

    /// The task being delegated.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// The session's context (task type + environment).
    pub fn context(&self) -> Context {
        self.context
    }

    /// The evaluated trustworthiness (Eq. 18, or the scalar estimate).
    pub fn trustworthiness(&self) -> Trustworthiness {
        self.trustworthiness
    }

    /// The expectation record the decision was made against.
    pub fn expectation(&self) -> &TrustRecord {
        &self.expectation
    }

    /// How the estimate was obtained.
    pub fn basis(&self) -> EvaluationBasis {
        self.basis
    }

    /// Whether the decision will be to delegate.
    pub fn would_delegate(&self) -> bool {
        self.verdict.is_ok()
    }

    /// Consumes the evaluation into the §3.4 decision. Only the
    /// [`Decision::Delegate`] arm carries an [`ActiveDelegation`] — a
    /// declined session has no handle to feed an outcome through.
    pub fn into_decision(self) -> Decision<P> {
        match self.verdict {
            Ok(()) => Decision::Delegate(ActiveDelegation {
                trustee: self.trustee,
                task: self.task,
                goal: self.goal,
                context: self.context,
                expectation: self.expectation,
            }),
            Err(reason) => Decision::Decline { reason, trustworthiness: self.trustworthiness },
        }
    }
}

/// The trustor's decision over an evaluated request.
#[derive(Debug)]
pub enum Decision<P> {
    /// Delegate: the returned session is the only handle through which the
    /// outcome can be fed back.
    Delegate(ActiveDelegation<P>),
    /// Decline: the delegation does not happen and no feedback is possible.
    Decline {
        /// Why the request was declined.
        reason: DeclineReason,
        /// The trustworthiness the evaluation produced.
        trustworthiness: Trustworthiness,
    },
}

/// What the trustor observed from the executed delegation, plus how the
/// counterpart used the relationship (the §4.1 mutuality ingredient).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelegationOutcome {
    /// The observed `(S, G, D, C)` of this delegation.
    pub observation: Observation,
    /// Whether the interaction was a legitimate use of resources.
    pub resource_use: ResourceUse,
}

impl DelegationOutcome {
    /// A fully successful delegation with the given gain and cost.
    pub fn succeeded(gain: f64, cost: f64) -> Self {
        Self::observed(Observation::success(gain, cost))
    }

    /// A failed delegation with the given damage and cost.
    pub fn failed(damage: f64, cost: f64) -> Self {
        Self::observed(Observation::failure(damage, cost))
    }

    /// An outcome from a raw observation (QoS-style fractional rates).
    pub fn observed(observation: Observation) -> Self {
        DelegationOutcome { observation, resource_use: ResourceUse::Responsive }
    }

    /// Marks the interaction as an abusive use of resources (it will be
    /// folded into the usage log that backs reverse evaluation).
    pub fn abusive(mut self) -> Self {
        self.resource_use = ResourceUse::Abusive;
        self
    }
}

/// How the counterpart used the relationship during one delegation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceUse {
    /// Legitimate, responsive use.
    Responsive,
    /// Abuse (resource misuse, malicious exploitation, wasted windows).
    Abusive,
}

/// An accepted, in-flight delegation — the one-shot handle for feedback.
///
/// Deliberately neither `Clone` nor `Copy`: executing (or finishing) the
/// session consumes it, so an outcome can be counted exactly once.
#[derive(Debug)]
pub struct ActiveDelegation<P> {
    trustee: P,
    task: TaskId,
    goal: Goal,
    context: Context,
    expectation: TrustRecord,
}

impl<P: Copy + Ord> ActiveDelegation<P> {
    /// The trustee executing the task.
    pub fn trustee(&self) -> P {
        self.trustee
    }

    /// The delegated task.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// The session's context.
    pub fn context(&self) -> Context {
        self.context
    }

    /// The expectation the delegation was accepted under.
    pub fn expectation(&self) -> &TrustRecord {
        &self.expectation
    }

    /// Validates the outcome and seals the session for committing —
    /// the deferred-feedback path for callers that batch many completed
    /// sessions through [`TrustEngine::commit_batch`]. Nothing is folded
    /// yet; an invalid observation consumes the session without side
    /// effects.
    pub fn finish(self, outcome: DelegationOutcome) -> Result<CompletedDelegation<P>, TrustError> {
        outcome.observation.validate()?;
        Ok(CompletedDelegation {
            trustee: self.trustee,
            task: self.task,
            goal: self.goal,
            context: self.context,
            observation: outcome.observation,
            resource_use: outcome.resource_use,
        })
    }

    /// Consumes the session and atomically folds the outcome back through
    /// the engine: the Eq. 19–22 record update (with the context's
    /// environment removed per Eqs. 25–29), plus the mutuality usage-log
    /// entry. Validation happens before anything is folded.
    pub fn execute<B: TrustBackend<P>>(
        self,
        engine: &mut TrustEngine<P, B>,
        outcome: DelegationOutcome,
        betas: &ForgettingFactors,
    ) -> Result<DelegationReceipt<P>, TrustError> {
        let completed = self.finish(outcome)?;
        Ok(engine.commit(completed, betas))
    }
}

/// A finished, validated delegation awaiting its commit. Constructed only
/// by [`ActiveDelegation::finish`] and consumed by
/// [`TrustEngine::commit`] / [`TrustEngine::commit_batch`] — not clonable,
/// so the outcome cannot be folded twice.
#[derive(Debug)]
pub struct CompletedDelegation<P> {
    pub(crate) trustee: P,
    pub(crate) task: TaskId,
    pub(crate) goal: Goal,
    pub(crate) context: Context,
    pub(crate) observation: Observation,
    pub(crate) resource_use: ResourceUse,
}

impl<P: Copy + Ord> CompletedDelegation<P> {
    /// The trustee that executed.
    pub fn trustee(&self) -> P {
        self.trustee
    }

    /// The delegated task.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// The validated observation to be folded.
    pub fn observation(&self) -> &Observation {
        &self.observation
    }

    /// The session's context.
    pub fn context(&self) -> Context {
        self.context
    }

    /// Whether the interaction was a legitimate resource use.
    pub fn responsive(&self) -> bool {
        self.resource_use == ResourceUse::Responsive
    }

    /// §3.4: whether the *actual* result fulfilled the goal (`R ⊆ Goal`).
    /// The observation's success rate above ½ counts as success.
    pub fn fulfilled(&self) -> bool {
        self.goal.fulfilled_by(
            self.observation.success_rate > 0.5,
            self.observation.gain,
            self.observation.damage,
            self.observation.cost,
        )
    }
}

/// What a committed delegation left behind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelegationReceipt<P> {
    /// The trustee the outcome was about.
    pub trustee: P,
    /// The delegated task.
    pub task: TaskId,
    /// The `(trustee, task)` record after the fold.
    pub record: TrustRecord,
    /// Eq. 18 trustworthiness of the post-fold record.
    pub trustworthiness: Trustworthiness,
    /// Whether the actual result fulfilled the goal (`R ⊆ Goal`, §3.4).
    pub fulfilled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ShardedBackend;
    use crate::environment::EnvIndicator;
    use crate::task::CharacteristicId;

    fn task(id: u32, cs: &[u32]) -> Task {
        Task::uniform(TaskId(id), cs.iter().map(|&i| CharacteristicId(i))).unwrap()
    }

    fn engine_with_history() -> TrustEngine<u32> {
        let mut e: TrustEngine<u32> = TrustEngine::new();
        e.register_task(task(0, &[0]));
        e.register_task(task(1, &[1]));
        let betas = ForgettingFactors::uniform(0.0);
        // peer 1: strong direct record on task 0, coverage of both chars
        e.observe(1, TaskId(0), &Observation::success(0.9, 0.1), &betas);
        e.observe(1, TaskId(1), &Observation::success(0.8, 0.1), &betas);
        // peer 2: weak record
        e.observe(2, TaskId(0), &Observation::failure(0.9, 0.5), &betas);
        e
    }

    #[test]
    fn direct_basis_and_accept() {
        let e = engine_with_history();
        let t = task(0, &[0]);
        let s = e.delegate(1, &t, Goal::profitable(), Context::amicable(t.id())).evaluate(&e);
        assert_eq!(s.basis(), EvaluationBasis::Direct);
        assert!(s.would_delegate());
        assert!(s.trustworthiness().value() > 0.5);
        assert!(matches!(s.into_decision(), Decision::Delegate(_)));
    }

    #[test]
    fn unprofitable_record_declines() {
        let e = engine_with_history();
        let t = task(0, &[0]);
        let s = e.delegate(2, &t, Goal::profitable(), Context::amicable(t.id())).evaluate(&e);
        assert_eq!(s.basis(), EvaluationBasis::Direct);
        assert!(!s.would_delegate());
        match s.into_decision() {
            Decision::Decline { reason, .. } => assert_eq!(reason, DeclineReason::Unprofitable),
            Decision::Delegate(_) => panic!("unprofitable expectation must decline"),
        }
    }

    #[test]
    fn misaligned_goal_declines() {
        let e = engine_with_history();
        let t = task(0, &[0]);
        // peer 1's gain expectation is 0.9 — a goal demanding 0.95 is out
        let picky = Goal { min_success: 0.0, min_gain: 0.95, max_damage: 1.0, max_cost: 1.0 };
        let s = e.delegate(1, &t, picky, Context::amicable(t.id())).evaluate(&e);
        match s.into_decision() {
            Decision::Decline { reason, .. } => assert_eq!(reason, DeclineReason::GoalMisaligned),
            Decision::Delegate(_) => panic!("goal box must decline"),
        }
    }

    #[test]
    fn inference_fallback() {
        let e = engine_with_history();
        // peer 1 never did the combined task, but both characteristics are
        // covered by its experiences
        let combined = task(7, &[0, 1]);
        let s = e
            .delegate(1, &combined, Goal::profitable(), Context::amicable(combined.id()))
            .evaluate(&e);
        assert_eq!(s.basis(), EvaluationBasis::Inferred);
        assert!(s.trustworthiness().value() > 0.6);
        assert!(s.would_delegate());
    }

    #[test]
    fn referral_fallback_respects_gates() {
        let e: TrustEngine<u32> = TrustEngine::new();
        let t = task(3, &[5]);
        let ctx = Context::amicable(t.id());
        // passing path: recommendation 0.9, execution 0.8
        let s = e
            .delegate(9, &t, Goal::profitable(), ctx)
            .with_referral(Referral::new([0.9, 0.8]))
            .evaluate(&e);
        assert_eq!(s.basis(), EvaluationBasis::Referred);
        let expected = crate::transitivity::two_hop(0.9, 0.8);
        assert!((s.trustworthiness().value() - expected).abs() < 1e-12);
        assert!(s.would_delegate());

        // the same path with a recommendation below ω₁ is gated out
        let s = e
            .delegate(9, &t, Goal::profitable(), ctx)
            .with_referral(Referral::new([0.4, 0.8]))
            .with_gates(TransitivityGates { omega1: 0.5, omega2: 0.5 })
            .evaluate(&e);
        assert_eq!(s.basis(), EvaluationBasis::NoInformation);
        match s.into_decision() {
            Decision::Decline { reason, .. } => assert_eq!(reason, DeclineReason::ReferralsGated),
            Decision::Delegate(_) => panic!("gated referral must not delegate"),
        }
    }

    #[test]
    fn best_passing_referral_wins() {
        let e: TrustEngine<u32> = TrustEngine::new();
        let t = task(3, &[5]);
        let s = e
            .delegate(9, &t, Goal::profitable(), Context::amicable(t.id()))
            .with_referral(Referral::execution(0.6))
            .with_referral(Referral::execution(0.85))
            .with_gates(TransitivityGates::OPEN)
            .evaluate(&e);
        assert!((s.trustworthiness().value() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn stranger_declines_unless_prior_or_committed() {
        let e: TrustEngine<u32> = TrustEngine::new();
        let t = task(0, &[0]);
        let ctx = Context::amicable(t.id());

        let s = e.delegate(5, &t, Goal::profitable(), ctx).evaluate(&e);
        match s.into_decision() {
            Decision::Decline { reason, trustworthiness } => {
                assert_eq!(reason, DeclineReason::NoTrustInformation);
                assert_eq!(trustworthiness, Trustworthiness::HALF);
            }
            Decision::Delegate(_) => panic!("stranger without prior must decline"),
        }

        let s = e
            .delegate(5, &t, Goal::profitable(), ctx)
            .with_prior(TrustRecord::with_priors(1.0, 1.0, 0.0, 0.0))
            .evaluate(&e);
        assert_eq!(s.basis(), EvaluationBasis::Prior);
        assert!(s.would_delegate());

        let s = e.delegate(5, &t, Goal::profitable(), ctx).committed().evaluate(&e);
        assert_eq!(s.basis(), EvaluationBasis::NoInformation);
        assert!(s.would_delegate(), "committed bypasses the decision gate");
    }

    #[test]
    fn activate_is_committed_evaluate_delegate() {
        let mut e: TrustEngine<u32> = TrustEngine::new();
        let t = task(0, &[0]);
        let active = e.delegate(3, &t, Goal::profitable(), Context::amicable(t.id())).activate(&e);
        assert_eq!(active.trustee(), 3);
        active
            .execute(&mut e, DelegationOutcome::succeeded(0.8, 0.1), &ForgettingFactors::figures())
            .unwrap();
        assert_eq!(e.record(3, t.id()).unwrap().interactions, 1);
        assert_eq!(e.usage_log(3).responsive, 1);
    }

    #[test]
    fn execute_folds_record_and_usage_log() {
        let mut e = engine_with_history();
        let t = task(0, &[0]);
        let before = e.record(1, t.id()).unwrap();
        let s = e.delegate(1, &t, Goal::profitable(), Context::amicable(t.id())).evaluate(&e);
        let Decision::Delegate(active) = s.into_decision() else { panic!("accepts") };
        let receipt = active
            .execute(&mut e, DelegationOutcome::succeeded(0.7, 0.2), &ForgettingFactors::figures())
            .unwrap();
        let after = e.record(1, t.id()).unwrap();
        assert_eq!(after.interactions, before.interactions + 1);
        assert_eq!(receipt.record, after);
        assert!(receipt.fulfilled);
        assert_eq!(e.usage_log(1).responsive, 1);
        assert_eq!(e.usage_log(1).abusive, 0);
    }

    #[test]
    fn abusive_outcome_reaches_the_usage_log() {
        let mut e: TrustEngine<u32> = TrustEngine::new();
        let t = task(0, &[0]);
        let s = e
            .delegate(4, &t, Goal::profitable(), Context::amicable(t.id()))
            .committed()
            .evaluate(&e);
        let Decision::Delegate(active) = s.into_decision() else { panic!("committed") };
        let receipt = active
            .execute(
                &mut e,
                DelegationOutcome::failed(0.8, 0.3).abusive(),
                &ForgettingFactors::figures(),
            )
            .unwrap();
        assert!(!receipt.fulfilled);
        assert_eq!(e.usage_log(4).abusive, 1);
        assert_eq!(e.record(4, t.id()).unwrap().interactions, 1);
    }

    #[test]
    fn invalid_outcome_folds_nothing() {
        let mut e = engine_with_history();
        let t = task(0, &[0]);
        let before = e.record(1, t.id()).unwrap();
        let s = e.delegate(1, &t, Goal::profitable(), Context::amicable(t.id())).evaluate(&e);
        let Decision::Delegate(active) = s.into_decision() else { panic!("accepts") };
        let bad = DelegationOutcome::observed(Observation {
            success_rate: f64::NAN,
            gain: 0.5,
            damage: 0.5,
            cost: 0.5,
        });
        let err = active.execute(&mut e, bad, &ForgettingFactors::figures()).unwrap_err();
        assert!(matches!(err, TrustError::OutOfUnitRange { what: "success_rate", .. }));
        assert_eq!(e.record(1, t.id()).unwrap(), before, "atomic: nothing folded");
        assert_eq!(e.usage_log(1).total(), 0);
    }

    #[test]
    fn environment_removed_at_feedback() {
        let mut e: TrustEngine<u32> = TrustEngine::new();
        let t = task(0, &[0]);
        let hostile = Context::new(t.id(), EnvIndicator::saturating(0.4));
        let s = e.delegate(2, &t, Goal::profitable(), hostile).committed().evaluate(&e);
        let Decision::Delegate(active) = s.into_decision() else { panic!("committed") };
        // competence 0.8 perceived through E = 0.4 as 0.32
        let outcome = DelegationOutcome::observed(Observation {
            success_rate: 0.32,
            gain: 0.0,
            damage: 0.0,
            cost: 0.0,
        });
        active.execute(&mut e, outcome, &ForgettingFactors::uniform(0.0)).unwrap();
        let rec = e.record(2, t.id()).unwrap();
        assert!((rec.s_hat - 0.8).abs() < 1e-12, "Eq. 29 removal: {}", rec.s_hat);
    }

    #[test]
    fn commit_batch_equals_sequential_commits() {
        let t = task(0, &[0]);
        let betas = ForgettingFactors::figures();
        let make = |e: &TrustEngine<u32, ShardedBackend<u32>>,
                    peer: u32,
                    q: f64|
         -> CompletedDelegation<u32> {
            let s = e
                .delegate(peer, &t, Goal::profitable(), Context::amicable(t.id()))
                .committed()
                .evaluate(e);
            let Decision::Delegate(active) = s.into_decision() else { panic!("committed") };
            active
                .finish(DelegationOutcome::observed(Observation {
                    success_rate: q,
                    gain: q,
                    damage: 1.0 - q,
                    cost: 0.1,
                }))
                .unwrap()
        };

        let mut seq: TrustEngine<u32, ShardedBackend<u32>> = TrustEngine::new();
        let mut batched: TrustEngine<u32, ShardedBackend<u32>> = TrustEngine::new();
        let mut pending = Vec::new();
        for i in 0..60u32 {
            let (peer, q) = (i % 7, (i % 10) as f64 / 9.0);
            let c = make(&seq, peer, q);
            seq.commit(c, &betas);
            pending.push(make(&batched, peer, q));
            // interleave flushes so later sessions see partially-committed
            // state, exactly like the sequential engine
            if pending.len() == 12 {
                batched.commit_batch(std::mem::take(&mut pending), &betas);
            }
        }
        batched.commit_batch(pending, &betas);
        assert_eq!(seq.record_count(), batched.record_count());
        for peer in seq.known_peers() {
            assert_eq!(seq.record(peer, t.id()), batched.record(peer, t.id()));
            assert_eq!(seq.usage_log(peer), batched.usage_log(peer));
        }
    }

    #[test]
    fn context_is_normalized_to_the_delegated_task() {
        let e: TrustEngine<u32> = TrustEngine::new();
        let t = task(3, &[0]);
        // caller passes a context about a *different* task: the session
        // re-anchors it on the delegated one
        let s = e
            .delegate(1, &t, Goal::profitable(), Context::amicable(TaskId(999)))
            .committed()
            .evaluate(&e);
        assert_eq!(s.context().task, TaskId(3));
    }
}
