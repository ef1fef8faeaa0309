//! The four-component trust record and its EWMA updates (§4.4, Eqs. 18–22).
//!
//! The trustor does not keep a single number per trustee: it keeps the
//! expected success rate `Ŝ`, gain `Ĝ`, damage `D̂` and cost `Ĉ` of
//! delegating a task. After every delegation the four expectations are
//! blended with the freshly observed values using per-component forgetting
//! factors `β` (Eqs. 19–22); the scalar trustworthiness of Eq. 18 is derived
//! on demand.

use crate::error::TrustError;
use crate::tw::{Normalizer, Trustworthiness};

/// What the trustor observed from one delegation (all in `[0, 1]`).
///
/// `success_rate` is 1.0/0.0 for a single success/failure, or a fraction
/// for batched observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Observed success rate `S`.
    pub success_rate: f64,
    /// Observed gain `G` (realized when the task succeeds).
    pub gain: f64,
    /// Observed damage `D` (suffered when the task fails).
    pub damage: f64,
    /// Observed cost `C` (paid either way).
    pub cost: f64,
}

impl Observation {
    /// A fully successful delegation with the given gain and cost.
    pub fn success(gain: f64, cost: f64) -> Self {
        Observation { success_rate: 1.0, gain, damage: 0.0, cost }
    }

    /// A failed delegation with the given damage and cost.
    pub fn failure(damage: f64, cost: f64) -> Self {
        Observation { success_rate: 0.0, gain: 0.0, damage, cost }
    }

    /// Validates that every component lies in `[0, 1]`.
    pub fn validate(&self) -> Result<(), TrustError> {
        for (what, v) in [
            ("success_rate", self.success_rate),
            ("gain", self.gain),
            ("damage", self.damage),
            ("cost", self.cost),
        ] {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(TrustError::OutOfUnitRange { what, value: v });
            }
        }
        Ok(())
    }
}

/// Per-component forgetting factors `β` of Eqs. 19–22.
///
/// The paper notes β *"can be set to different values in the above four
/// updating equations"*, hence one factor per component. `β` close to 1
/// means long memory (slow adaptation); close to 0 means the latest
/// observation dominates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForgettingFactors {
    /// β for the success rate (Eq. 19).
    pub success: f64,
    /// β for the gain (Eq. 20).
    pub gain: f64,
    /// β for the damage (Eq. 21).
    pub damage: f64,
    /// β for the cost (Eq. 22).
    pub cost: f64,
}

impl ForgettingFactors {
    /// The same β for all four components (the evaluation uses β = 0.1).
    pub fn uniform(beta: f64) -> Self {
        ForgettingFactors { success: beta, gain: beta, damage: beta, cost: beta }
    }

    /// The paper's *stated* evaluation setting, β = 0.1 everywhere.
    ///
    /// Note: with Eq. 19's form `x̂ = β·x̂′ + (1−β)·x`, β = 0.1 weighs the
    /// newest observation at 0.9 and converges within 2–3 updates — yet the
    /// paper's Figs. 13–16 all show convergence over tens to hundreds of
    /// iterations ("it takes quite some time ... to converge"). The
    /// figures' time constants correspond to a *history* weight of 0.9,
    /// i.e. [`ForgettingFactors::figures`]. The reproduction therefore
    /// uses `figures()`; this constructor keeps the stated value so the
    /// gap between the paper's text and its figures stays explicit.
    pub fn paper() -> Self {
        Self::uniform(0.1)
    }

    /// The forgetting factor that reproduces the paper's figures: history
    /// weighted at 0.9, newest observation at 0.1 (see [`Self::paper`]).
    pub fn figures() -> Self {
        Self::uniform(0.9)
    }
}

/// The trustor's record about one `(trustee, task)` pair:
/// `(Ŝ, Ĝ, D̂, Ĉ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustRecord {
    /// Expected success rate `Ŝ_{X←Y}(τ)`.
    pub s_hat: f64,
    /// Expected gain `Ĝ_{X←Y}(τ)`.
    pub g_hat: f64,
    /// Expected damage `D̂_{X←Y}(τ)`.
    pub d_hat: f64,
    /// Expected cost `Ĉ_{X←Y}(τ)`.
    pub c_hat: f64,
    /// Number of delegations folded into this record.
    pub interactions: u64,
}

impl TrustRecord {
    /// A fresh record with explicit priors.
    pub fn with_priors(s: f64, g: f64, d: f64, c: f64) -> Self {
        TrustRecord {
            s_hat: s.clamp(0.0, 1.0),
            g_hat: g.clamp(0.0, 1.0),
            d_hat: d.clamp(0.0, 1.0),
            c_hat: c.clamp(0.0, 1.0),
            interactions: 0,
        }
    }

    /// The optimistic prior the paper's Fig. 15 experiment uses: expected
    /// success 1, neutral gain/damage/cost.
    pub fn optimistic() -> Self {
        TrustRecord::with_priors(1.0, 0.5, 0.5, 0.5)
    }

    /// An ignorance prior: everything at 0.5.
    pub fn neutral() -> Self {
        TrustRecord::with_priors(0.5, 0.5, 0.5, 0.5)
    }

    /// Initializes a record from the first observation. Eq. 19 blends the
    /// observation with a *historical* expectation; on first contact there
    /// is no history, so the observation itself becomes the expectation.
    pub fn from_first_observation(obs: &Observation) -> Self {
        TrustRecord {
            s_hat: obs.success_rate.clamp(0.0, 1.0),
            g_hat: obs.gain.clamp(0.0, 1.0),
            d_hat: obs.damage.clamp(0.0, 1.0),
            c_hat: obs.cost.clamp(0.0, 1.0),
            interactions: 1,
        }
    }

    /// Eqs. 19–22: `x̂ ← β·x̂′ + (1−β)·x` for each of the four components.
    pub fn update(&mut self, obs: &Observation, betas: &ForgettingFactors) {
        self.s_hat = blend(self.s_hat, obs.success_rate, betas.success);
        self.g_hat = blend(self.g_hat, obs.gain, betas.gain);
        self.d_hat = blend(self.d_hat, obs.damage, betas.damage);
        self.c_hat = blend(self.c_hat, obs.cost, betas.cost);
        self.interactions += 1;
    }

    /// Raw expected net profit `Ŝ·Ĝ − (1−Ŝ)·D̂ − Ĉ` (the objective of
    /// Eq. 23, the bracket of Eq. 18).
    pub fn expected_net_profit(&self) -> f64 {
        self.s_hat * self.g_hat - (1.0 - self.s_hat) * self.d_hat - self.c_hat
    }

    /// Eq. 18: normalized post-evaluation trustworthiness
    /// `N[Ŝ·Ĝ − (1−Ŝ)·D̂ − Ĉ]`.
    pub fn trustworthiness(&self, normalizer: Normalizer) -> Trustworthiness {
        normalizer.trustworthiness(self.expected_net_profit())
    }
}

impl Default for TrustRecord {
    fn default() -> Self {
        TrustRecord::neutral()
    }
}

/// One EWMA step: `β·old + (1−β)·new`, clamped to `[0, 1]`.
#[inline]
pub(crate) fn blend(old: f64, new: f64, beta: f64) -> f64 {
    let beta = beta.clamp(0.0, 1.0);
    (beta * old + (1.0 - beta) * new).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_constructors() {
        let s = Observation::success(0.8, 0.1);
        assert_eq!(s.success_rate, 1.0);
        assert_eq!(s.damage, 0.0);
        let f = Observation::failure(0.7, 0.2);
        assert_eq!(f.success_rate, 0.0);
        assert_eq!(f.gain, 0.0);
        assert!(s.validate().is_ok());
        assert!(f.validate().is_ok());
    }

    #[test]
    fn observation_validation() {
        let bad = Observation { success_rate: 1.2, gain: 0.5, damage: 0.5, cost: 0.5 };
        assert!(matches!(
            bad.validate(),
            Err(TrustError::OutOfUnitRange { what: "success_rate", .. })
        ));
        let nan = Observation { success_rate: 0.5, gain: f64::NAN, damage: 0.5, cost: 0.5 };
        assert!(nan.validate().is_err());
    }

    #[test]
    fn ewma_converges_to_constant_observation() {
        let mut rec = TrustRecord::neutral();
        let betas = ForgettingFactors::uniform(0.1);
        let obs = Observation { success_rate: 0.8, gain: 0.9, damage: 0.1, cost: 0.2 };
        for _ in 0..100 {
            rec.update(&obs, &betas);
        }
        assert!((rec.s_hat - 0.8).abs() < 1e-6);
        assert!((rec.g_hat - 0.9).abs() < 1e-6);
        assert!((rec.d_hat - 0.1).abs() < 1e-6);
        assert!((rec.c_hat - 0.2).abs() < 1e-6);
        assert_eq!(rec.interactions, 100);
    }

    #[test]
    fn single_update_matches_formula() {
        let mut rec = TrustRecord::with_priors(1.0, 0.5, 0.5, 0.5);
        rec.update(&Observation::failure(1.0, 1.0), &ForgettingFactors::uniform(0.9));
        // Ŝ = 0.9·1.0 + 0.1·0.0
        assert!((rec.s_hat - 0.9).abs() < 1e-12);
        // D̂ = 0.9·0.5 + 0.1·1.0
        assert!((rec.d_hat - 0.55).abs() < 1e-12);
    }

    #[test]
    fn beta_one_never_moves_beta_zero_jumps() {
        let mut frozen = TrustRecord::neutral();
        frozen.update(&Observation::success(1.0, 0.0), &ForgettingFactors::uniform(1.0));
        assert_eq!(frozen, TrustRecord { interactions: 1, ..TrustRecord::neutral() });

        let mut jumpy = TrustRecord::neutral();
        jumpy.update(&Observation::success(1.0, 0.0), &ForgettingFactors::uniform(0.0));
        assert_eq!(jumpy.s_hat, 1.0);
        assert_eq!(jumpy.g_hat, 1.0);
        assert_eq!(jumpy.c_hat, 0.0);
    }

    #[test]
    fn per_component_betas_are_independent() {
        let betas = ForgettingFactors { success: 1.0, gain: 0.0, damage: 0.5, cost: 0.9 };
        let mut rec = TrustRecord::neutral();
        rec.update(&Observation { success_rate: 0.0, gain: 1.0, damage: 1.0, cost: 1.0 }, &betas);
        assert_eq!(rec.s_hat, 0.5, "β=1 freezes");
        assert_eq!(rec.g_hat, 1.0, "β=0 jumps");
        assert!((rec.d_hat - 0.75).abs() < 1e-12);
        assert!((rec.c_hat - 0.55).abs() < 1e-12);
    }

    #[test]
    fn net_profit_extremes() {
        let perfect = TrustRecord::with_priors(1.0, 1.0, 1.0, 0.0);
        assert!((perfect.expected_net_profit() - 1.0).abs() < 1e-12);
        assert_eq!(perfect.trustworthiness(Normalizer::UNIT), Trustworthiness::ONE);

        let awful = TrustRecord::with_priors(0.0, 1.0, 1.0, 1.0);
        assert!((awful.expected_net_profit() + 2.0).abs() < 1e-12);
        assert_eq!(awful.trustworthiness(Normalizer::UNIT), Trustworthiness::ZERO);
    }

    #[test]
    fn priors_clamped() {
        let rec = TrustRecord::with_priors(2.0, -1.0, 0.5, 0.5);
        assert_eq!(rec.s_hat, 1.0);
        assert_eq!(rec.g_hat, 0.0);
    }

    #[test]
    fn default_is_neutral() {
        assert_eq!(TrustRecord::default(), TrustRecord::neutral());
    }

    #[test]
    fn paper_betas() {
        let b = ForgettingFactors::paper();
        assert_eq!(b.success, 0.1);
        assert_eq!(b.cost, 0.1);
    }
}
