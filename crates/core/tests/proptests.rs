//! Property-based tests on the trust-model invariants.

use proptest::prelude::*;
use siot_core::backend::TrustBackend;
use siot_core::environment::{cannikin, remove_influence, EnvIndicator};
use siot_core::prelude::*;
use siot_core::record::TrustRecord;

fn unit() -> impl Strategy<Value = f64> {
    0.0..=1.0f64
}

mod common;
use common::tmpdir;

/// One step of the durable-equivalence interleavings: every mutation class
/// the engine exposes — raw observe, env-aware observe, executed sessions
/// (which also advance usage logs), record seeds, and usage-log seeds.
type DurabilityStep = (u32, u32, u32, Observation, f64, u32);

fn durability_steps(max_len: usize) -> impl Strategy<Value = Vec<DurabilityStep>> {
    prop::collection::vec(
        (0u32..5, 0u32..8, 0u32..3, observation(), 0.05..=1.0f64, 0u32..3),
        1..max_len,
    )
}

/// Applies one interleaving to an engine over any backend.
fn apply_durability_steps<B: TrustBackend<u32>>(
    engine: &mut TrustEngine<u32, B>,
    steps: &[DurabilityStep],
    betas: &ForgettingFactors,
) {
    for &(kind, peer, tasknum, ref obs, env, flag) in steps {
        let tid = TaskId(tasknum);
        match kind {
            0 => engine.observe(peer, tid, obs, betas),
            1 => {
                let envs = [EnvIndicator::new(env).expect("generated in (0, 1]")];
                engine.observe_with_environment(peer, tid, obs, &envs, betas);
            }
            2 => {
                let task = Task::uniform(tid, [CharacteristicId(0)]).expect("non-empty");
                let ctx = Context::new(tid, EnvIndicator::new(env).expect("in range"));
                let active = engine.delegate(peer, &task, Goal::ANY, ctx).activate(engine);
                let outcome = DelegationOutcome::observed(*obs);
                let outcome = if flag == 1 { outcome.abusive() } else { outcome };
                active.execute(engine, outcome, betas).expect("generated in-range");
            }
            3 => engine.seed_record(
                peer,
                tid,
                TrustRecord::with_priors(obs.success_rate, obs.gain, obs.damage, obs.cost),
            ),
            _ => {
                engine.seed_usage_log(peer, || UsageLog {
                    responsive: flag as u64,
                    abusive: (flag % 2) as u64,
                });
            }
        }
    }
}

/// Bit-level equality of two engines' records, usage logs, and derived
/// trustworthiness.
fn engines_bit_identical<A: TrustBackend<u32>, B: TrustBackend<u32>>(
    x: &TrustEngine<u32, A>,
    y: &TrustEngine<u32, B>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(x.record_count(), y.record_count());
    prop_assert_eq!(x.known_peers(), y.known_peers());
    // usage logs can exist for peers without records (seeded-only), so the
    // sweep covers the whole generated peer space, not just known_peers
    for peer in 0..8u32 {
        prop_assert_eq!(x.usage_log(peer), y.usage_log(peer));
        for task in 0..3 {
            let tid = TaskId(task);
            let (a, b) = (x.record(peer, tid), y.record(peer, tid));
            prop_assert_eq!(a.is_some(), b.is_some());
            if let (Some(ra), Some(rb)) = (a, b) {
                prop_assert_eq!(ra.s_hat.to_bits(), rb.s_hat.to_bits());
                prop_assert_eq!(ra.g_hat.to_bits(), rb.g_hat.to_bits());
                prop_assert_eq!(ra.d_hat.to_bits(), rb.d_hat.to_bits());
                prop_assert_eq!(ra.c_hat.to_bits(), rb.c_hat.to_bits());
                prop_assert_eq!(ra.interactions, rb.interactions);
                let ta = x.trustworthiness(peer, tid).expect("record exists").value();
                let tb = y.trustworthiness(peer, tid).expect("record exists").value();
                prop_assert_eq!(ta.to_bits(), tb.to_bits());
            }
        }
    }
    Ok(())
}

fn observation() -> impl Strategy<Value = Observation> {
    (unit(), unit(), unit(), unit()).prop_map(|(s, g, d, c)| Observation {
        success_rate: s,
        gain: g,
        damage: d,
        cost: c,
    })
}

proptest! {
    // ---- Eq. 7 two-hop combiner -------------------------------------

    #[test]
    fn two_hop_closed_on_unit_interval(a in unit(), b in unit()) {
        let t = two_hop(a, b);
        prop_assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn two_hop_symmetric(a in unit(), b in unit()) {
        prop_assert!((two_hop(a, b) - two_hop(b, a)).abs() < 1e-12);
    }

    #[test]
    fn two_hop_perfect_link_is_identity(a in unit()) {
        prop_assert!((two_hop(1.0, a) - a).abs() < 1e-12);
    }

    #[test]
    fn two_hop_broken_link_inverts(a in unit()) {
        prop_assert!((two_hop(0.0, a) - (1.0 - a)).abs() < 1e-12);
    }

    #[test]
    fn chain_closed_on_unit_interval(tws in prop::collection::vec(unit(), 0..8)) {
        let t = chain(&tws);
        prop_assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn traditional_chain_never_exceeds_eq7_on_distrust(
        a in 0.0..=0.5f64, b in 0.0..=0.5f64
    ) {
        // the mistrust-agreement term only adds information
        prop_assert!(two_hop(a, b) >= traditional_chain(&[a, b]) - 1e-12);
    }

    // ---- EWMA updates (Eqs. 19–22) -----------------------------------

    #[test]
    fn record_components_stay_in_unit_range(
        obs_seq in prop::collection::vec(observation(), 1..30),
        beta in unit(),
    ) {
        let mut rec = TrustRecord::neutral();
        let betas = ForgettingFactors::uniform(beta);
        for obs in &obs_seq {
            rec.update(obs, &betas);
            for v in [rec.s_hat, rec.g_hat, rec.d_hat, rec.c_hat] {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
        prop_assert_eq!(rec.interactions, obs_seq.len() as u64);
    }

    #[test]
    fn update_moves_toward_observation(obs in observation(), beta in 0.0..0.999f64) {
        let mut rec = TrustRecord::neutral();
        let before = rec.s_hat;
        rec.update(&obs, &ForgettingFactors::uniform(beta));
        // the new estimate lies between the prior and the observation
        let lo = before.min(obs.success_rate) - 1e-12;
        let hi = before.max(obs.success_rate) + 1e-12;
        prop_assert!(rec.s_hat >= lo && rec.s_hat <= hi);
    }

    #[test]
    fn net_profit_bounded(obs in observation()) {
        let mut rec = TrustRecord::neutral();
        rec.update(&obs, &ForgettingFactors::paper());
        let p = rec.expected_net_profit();
        prop_assert!((-2.0..=1.0).contains(&p));
    }

    // ---- Normalizer (Eq. 18) ------------------------------------------

    #[test]
    fn normalizer_output_in_target_range(raw in -5.0..5.0f64) {
        let u = Normalizer::UNIT.apply(raw);
        prop_assert!((0.0..=1.0).contains(&u));
        let s = Normalizer::SIGNED.apply(raw);
        prop_assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn normalizer_monotone(a in -2.0..=1.0f64, b in -2.0..=1.0f64) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Normalizer::UNIT.apply(lo) <= Normalizer::UNIT.apply(hi) + 1e-12);
    }

    // ---- Inference (Eq. 4) --------------------------------------------

    #[test]
    fn inference_is_convex_combination(
        tws in prop::collection::vec(unit(), 1..6),
    ) {
        // experienced tasks each with one shared characteristic
        let tasks: Vec<Task> = (0..tws.len())
            .map(|i| {
                Task::uniform(TaskId(i as u32), [CharacteristicId(0), CharacteristicId(i as u32 + 1)])
                    .unwrap()
            })
            .collect();
        let experiences: Vec<Experience> = tasks
            .iter()
            .zip(&tws)
            .map(|(t, &tw)| Experience::new(t, tw))
            .collect();
        let new_task = Task::uniform(TaskId(99), [CharacteristicId(0)]).unwrap();
        let inferred = infer_task(&new_task, &experiences).unwrap();
        let lo = tws.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = tws.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(inferred >= lo - 1e-9 && inferred <= hi + 1e-9);
    }

    #[test]
    fn task_weights_always_sum_to_one(
        weights in prop::collection::vec(0.01..10.0f64, 1..10)
    ) {
        let task = Task::new(
            TaskId(0),
            weights.iter().enumerate().map(|(i, &w)| (CharacteristicId(i as u32), w)),
        )
        .unwrap();
        let sum: f64 = task.characteristics().iter().map(|&(_, w)| w).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    // ---- Environment removal (Eq. 29) ---------------------------------

    #[test]
    fn removal_closed_and_amplifying(x in unit(), e in 0.05..=1.0f64) {
        let env = [EnvIndicator::new(e).unwrap()];
        let r = remove_influence(x, &env);
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert!(r >= x - 1e-12, "removal can only credit, not punish");
    }

    #[test]
    fn cannikin_is_min(es in prop::collection::vec(0.05..=1.0f64, 1..6)) {
        let envs: Vec<EnvIndicator> =
            es.iter().map(|&e| EnvIndicator::new(e).unwrap()).collect();
        let m = cannikin(&envs).value();
        let lo = es.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!((m - lo).abs() < 1e-12);
    }

    // ---- Mutuality ------------------------------------------------------

    #[test]
    fn reverse_tw_strictly_inside_unit(r in 0u64..500, a in 0u64..500) {
        let log = UsageLog { responsive: r, abusive: a };
        let tw = log.reverse_trustworthiness().value();
        prop_assert!(tw > 0.0 && tw < 1.0, "Laplace smoothing keeps it open");
    }

    #[test]
    fn more_abuse_never_raises_reverse_tw(r in 0u64..100, a in 0u64..100) {
        let base = UsageLog { responsive: r, abusive: a };
        let worse = UsageLog { responsive: r, abusive: a + 1 };
        prop_assert!(
            worse.reverse_trustworthiness().value() <= base.reverse_trustworthiness().value()
        );
    }

    // ---- Storage backends ----------------------------------------------

    #[test]
    fn backends_produce_bit_identical_trustworthiness(
        steps in prop::collection::vec(
            (0u32..12, 0u32..4, observation(), 0.0..=1.0f64, 0u32..2),
            1..60,
        ),
        beta in unit(),
    ) {
        // Any identical sequence of observe / observe_with_environment
        // calls must leave the BTree- and sharded-backed engines with
        // bit-identical state: storage must never touch the arithmetic.
        let mut bt: TrustEngine<u32, BTreeBackend<u32>> = TrustEngine::new();
        let mut sh: TrustEngine<u32, ShardedBackend<u32>> = TrustEngine::new();
        let betas = ForgettingFactors::uniform(beta);
        for &(peer, task, ref obs, env, env_aware) in &steps {
            let tid = TaskId(task);
            if env_aware == 1 {
                let envs = [EnvIndicator::saturating(env)];
                bt.observe_with_environment(peer, tid, obs, &envs, &betas);
                sh.observe_with_environment(peer, tid, obs, &envs, &betas);
            } else {
                bt.observe(peer, tid, obs, &betas);
                sh.observe(peer, tid, obs, &betas);
            }
        }
        prop_assert_eq!(bt.record_count(), sh.record_count());
        prop_assert_eq!(bt.known_peers(), sh.known_peers());
        for peer in bt.known_peers() {
            for task in 0..4 {
                let tid = TaskId(task);
                let (a, b) = (bt.record(peer, tid), sh.record(peer, tid));
                prop_assert_eq!(a.is_some(), b.is_some());
                if let (Some(ra), Some(rb)) = (a, b) {
                    // bit-level equality of every component…
                    prop_assert_eq!(ra.s_hat.to_bits(), rb.s_hat.to_bits());
                    prop_assert_eq!(ra.g_hat.to_bits(), rb.g_hat.to_bits());
                    prop_assert_eq!(ra.d_hat.to_bits(), rb.d_hat.to_bits());
                    prop_assert_eq!(ra.c_hat.to_bits(), rb.c_hat.to_bits());
                    prop_assert_eq!(ra.interactions, rb.interactions);
                    // …and of the derived Eq. 18 value
                    let ta = bt.trustworthiness(peer, tid).unwrap().value();
                    let tb = sh.trustworthiness(peer, tid).unwrap().value();
                    prop_assert_eq!(ta.to_bits(), tb.to_bits());
                }
            }
        }
    }

    #[test]
    fn batched_observe_equals_sequential(
        steps in prop::collection::vec((0u32..8, 0u32..3, observation()), 1..40),
        beta in unit(),
    ) {
        let betas = ForgettingFactors::uniform(beta);
        let batch: Vec<(u32, TaskId, Observation)> =
            steps.iter().map(|&(p, t, ref o)| (p, TaskId(t), *o)).collect();
        let mut seq: TrustEngine<u32, ShardedBackend<u32>> = TrustEngine::new();
        for &(p, t, ref o) in &batch {
            seq.observe(p, t, o, &betas);
        }
        let mut fused: TrustEngine<u32, ShardedBackend<u32>> = TrustEngine::new();
        fused.observe_batch(&batch, &betas).expect("unit-range observations");
        prop_assert_eq!(seq.record_count(), fused.record_count());
        for &(p, t, _) in &batch {
            prop_assert_eq!(seq.record(p, t), fused.record(p, t));
        }
    }

    // ---- Delegation-session lifecycle ----------------------------------

    #[test]
    fn session_feedback_equals_raw_observe_on_both_backends(
        steps in prop::collection::vec(
            (0u32..8, 0u32..3, observation(), 0.05..=1.0f64, 0u32..2),
            1..40,
        ),
        beta in unit(),
    ) {
        // One `delegate → evaluate → execute` session must leave the engine
        // bit-identical to the equivalent raw `observe_with_environment` +
        // usage-log calls — on the B-tree AND sharded backends — and fold
        // each outcome exactly once (no double counting).
        fn run_sessions<B: TrustBackend<u32>>(
            steps: &[(u32, u32, Observation, f64, u32)],
            betas: &ForgettingFactors,
        ) -> TrustEngine<u32, B> {
            let mut engine: TrustEngine<u32, B> = TrustEngine::new();
            for &(peer, tasknum, ref obs, env, abusive) in steps {
                let task = Task::uniform(TaskId(tasknum), [CharacteristicId(0)]).unwrap();
                let context = Context::new(task.id(), EnvIndicator::new(env).unwrap());
                let active = engine.delegate(peer, &task, Goal::ANY, context).activate(&engine);
                let outcome = DelegationOutcome::observed(*obs);
                let outcome = if abusive == 1 { outcome.abusive() } else { outcome };
                active.execute(&mut engine, outcome, betas).expect("generated in-range");
            }
            engine
        }
        fn run_raw<B: TrustBackend<u32>>(
            steps: &[(u32, u32, Observation, f64, u32)],
            betas: &ForgettingFactors,
        ) -> TrustEngine<u32, B> {
            let mut engine: TrustEngine<u32, B> = TrustEngine::new();
            for &(peer, tasknum, ref obs, env, abusive) in steps {
                let envs = [EnvIndicator::new(env).unwrap()];
                engine.observe_with_environment(peer, TaskId(tasknum), obs, &envs, betas);
                let log = engine.usage_log_mut(peer);
                if abusive == 1 { log.record_abusive() } else { log.record_responsive() }
            }
            engine
        }

        fn bit_identical<A: TrustBackend<u32>, B: TrustBackend<u32>>(
            x: &TrustEngine<u32, A>,
            y: &TrustEngine<u32, B>,
        ) -> Result<(), TestCaseError> {
            prop_assert_eq!(x.record_count(), y.record_count());
            prop_assert_eq!(x.known_peers(), y.known_peers());
            for peer in x.known_peers() {
                prop_assert_eq!(x.usage_log(peer), y.usage_log(peer));
                for task in 0..3 {
                    let tid = TaskId(task);
                    let (a, b) = (x.record(peer, tid), y.record(peer, tid));
                    prop_assert_eq!(a.is_some(), b.is_some());
                    if let (Some(ra), Some(rb)) = (a, b) {
                        prop_assert_eq!(ra.s_hat.to_bits(), rb.s_hat.to_bits());
                        prop_assert_eq!(ra.g_hat.to_bits(), rb.g_hat.to_bits());
                        prop_assert_eq!(ra.d_hat.to_bits(), rb.d_hat.to_bits());
                        prop_assert_eq!(ra.c_hat.to_bits(), rb.c_hat.to_bits());
                        prop_assert_eq!(ra.interactions, rb.interactions);
                    }
                }
            }
            Ok(())
        }

        let betas = ForgettingFactors::uniform(beta);
        let sess_bt = run_sessions::<BTreeBackend<u32>>(&steps, &betas);
        let raw_bt = run_raw::<BTreeBackend<u32>>(&steps, &betas);
        let sess_sh = run_sessions::<ShardedBackend<u32>>(&steps, &betas);
        let raw_sh = run_raw::<ShardedBackend<u32>>(&steps, &betas);
        bit_identical(&sess_bt, &raw_bt)?;
        bit_identical(&sess_bt, &sess_sh)?;
        bit_identical(&sess_bt, &raw_sh)?;

        // double-count-free: interactions and log totals equal the number
        // of executed sessions, exactly
        let total_interactions: u64 = sess_bt
            .known_peers()
            .iter()
            .flat_map(|&p| (0..3).map(move |t| (p, TaskId(t))))
            .filter_map(|(p, t)| sess_bt.record(p, t))
            .map(|r| r.interactions)
            .sum();
        prop_assert_eq!(total_interactions, steps.len() as u64);
        let total_logged: u64 =
            sess_bt.known_peers().iter().map(|&p| sess_bt.usage_log(p).total()).sum();
        prop_assert_eq!(total_logged, steps.len() as u64);
    }

    #[test]
    fn commit_batch_equals_sequential_execute(
        steps in prop::collection::vec((0u32..6, 0u32..2, observation()), 1..30),
        beta in unit(),
    ) {
        let betas = ForgettingFactors::uniform(beta);
        let task_of = |t: u32| Task::uniform(TaskId(t), [CharacteristicId(0)]).unwrap();

        let mut seq: TrustEngine<u32, ShardedBackend<u32>> = TrustEngine::new();
        let mut batched: TrustEngine<u32, ShardedBackend<u32>> = TrustEngine::new();
        let mut pending = Vec::new();
        for &(peer, t, ref obs) in &steps {
            let task = task_of(t);
            let ctx = Context::amicable(task.id());
            let open = |e: &TrustEngine<u32, ShardedBackend<u32>>| {
                e.delegate(peer, &task, Goal::ANY, ctx).activate(e)
            };
            open(&seq)
                .execute(&mut seq, DelegationOutcome::observed(*obs), &betas)
                .expect("in-range");
            pending.push(
                open(&batched).finish(DelegationOutcome::observed(*obs)).expect("in-range"),
            );
        }
        batched.commit_batch(pending, &betas);

        prop_assert_eq!(seq.record_count(), batched.record_count());
        for peer in seq.known_peers() {
            prop_assert_eq!(seq.usage_log(peer), batched.usage_log(peer));
            for t in 0..2 {
                prop_assert_eq!(seq.record(peer, TaskId(t)), batched.record(peer, TaskId(t)));
            }
        }
    }

    // ---- Durable storage -------------------------------------------------

    #[test]
    fn log_backend_bit_identical_to_btree(
        steps in durability_steps(50),
        beta in unit(),
    ) {
        // Any interleaving of observe / env-observe / session / seed /
        // usage-log ops leaves the durable backend's engine bit-identical
        // to the B-tree engine: journaling must never touch the arithmetic.
        let betas = ForgettingFactors::uniform(beta);
        let mut bt: TrustEngine<u32, BTreeBackend<u32>> = TrustEngine::new();
        let mut lg: TrustEngine<u32, LogBackend<u32>> = TrustEngine::new();
        apply_durability_steps(&mut bt, &steps, &betas);
        apply_durability_steps(&mut lg, &steps, &betas);
        engines_bit_identical(&bt, &lg)?;
    }
}

proptest! {
    // fewer cases: each runs a full create → close → reopen cycle on disk
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn log_backend_reopen_bit_identical(
        steps in durability_steps(40),
        beta in unit(),
        compact_midway in 0u32..2,
    ) {
        // The same interleaving, but the durable engine is closed (dropped
        // without an explicit flush) and reopened — optionally with a
        // compaction in the middle. Recovery must land on the exact
        // bit-identical state, usage logs included, with nothing
        // double-counted.
        let betas = ForgettingFactors::uniform(beta);
        let mut reference: TrustEngine<u32, BTreeBackend<u32>> = TrustEngine::new();
        apply_durability_steps(&mut reference, &steps, &betas);

        let dir = tmpdir("reopen");
        {
            let mut durable: DurableTrustStore<u32> =
                TrustEngine::open(&dir).expect("fresh dir opens");
            let split = steps.len() / 2;
            apply_durability_steps(&mut durable, &steps[..split], &betas);
            if compact_midway == 1 {
                durable.compact().expect("compaction succeeds");
            }
            apply_durability_steps(&mut durable, &steps[split..], &betas);
            engines_bit_identical(&reference, &durable)?;
            // dropped here: no explicit flush — drop-persistence is part
            // of the contract
        }
        let reopened: DurableTrustStore<u32> =
            TrustEngine::open(&dir).expect("reopen after clean drop");
        engines_bit_identical(&reference, &reopened)?;

        // …and a second cycle stays stable (replay is idempotent)
        drop(reopened);
        let again: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("second reopen");
        engines_bit_identical(&reference, &again)?;
        drop(again);
        std::fs::remove_dir_all(&dir).expect("scratch dir removable");
    }
}
