//! The distributed trust knowledge of the network (§5.5 setup).
//!
//! Each node has experienced a small set of task types; for every node, its
//! graph neighbours hold scalar trustworthiness records about those tasks
//! that *"approach its actual capability"*. The transitivity search walks
//! these records.
//!
//! Every holder's records live in its own [`TrustEngine`], so the storage
//! layer is pluggable: [`Knowledge::seed`] uses the deterministic B-tree
//! backend, [`Knowledge::seed_in`] accepts any
//! [`siot_core::backend::TrustBackend`] — the sharded backend for
//! high-peer-count networks, or whatever a later PR plugs in.

use crate::agent::AgentId;
use crate::tasks::TaskPool;
use rand::rngs::SmallRng;
use rand::Rng;
use siot_core::backend::{BTreeBackend, TrustBackend};
use siot_core::context::Context;
use siot_core::delegation::DelegationOutcome;
use siot_core::goal::Goal;
use siot_core::infer::Experience;
use siot_core::record::{ForgettingFactors, Observation, TrustRecord};
use siot_core::store::TrustEngine;
use siot_core::task::{CharacteristicId, Task, TaskId};
use siot_graph::SocialGraph;

/// The scalar records of §5.5 ride in a full [`TrustRecord`]: the scalar
/// trustworthiness goes to `Ŝ` (read back via [`TrustRecord::s_hat`]), the
/// remaining components sit at their neutral extremes.
fn scalar_record(tw: f64) -> TrustRecord {
    TrustRecord::with_priors(tw.clamp(0.0, 1.0), 1.0, 0.0, 0.0)
}

/// Ground truth plus the records neighbours hold about each other.
#[derive(Debug, Clone)]
pub struct Knowledge<B: TrustBackend<AgentId> = BTreeBackend<AgentId>> {
    /// Per-node, per-characteristic actual competence in `[0, 1]`.
    competence: Vec<Vec<f64>>,
    /// Tasks each node has experienced (sorted).
    experienced: Vec<Vec<TaskId>>,
    /// `records[holder]`: the holder's trust engine over its peers.
    records: Vec<TrustEngine<AgentId, B>>,
    /// `rec_trust[holder]`: `(peer, TW(Rτ))` rows sorted by peer — the
    /// recommendation trustworthiness the holder grants each neighbour.
    rec_trust: Vec<Vec<(AgentId, f64)>>,
    n_characteristics: usize,
}

impl Knowledge<BTreeBackend<AgentId>> {
    /// [`Knowledge::seed_in`] with the deterministic default backend.
    pub fn seed(
        g: &SocialGraph,
        pool: &TaskPool,
        tasks_per_node: usize,
        noise: f64,
        rng: &mut SmallRng,
    ) -> Self {
        Self::seed_in(g, pool, tasks_per_node, noise, rng)
    }
}

impl<B: TrustBackend<AgentId>> Knowledge<B> {
    /// Seeds the network: competence per (node, characteristic), two (or
    /// `tasks_per_node`) experienced tasks per node, and neighbour records
    /// equal to the true task competence plus uniform noise `±noise`.
    pub fn seed_in(
        g: &SocialGraph,
        pool: &TaskPool,
        tasks_per_node: usize,
        noise: f64,
        rng: &mut SmallRng,
    ) -> Self {
        let n = g.node_count();
        let n_chars = pool.n_characteristics();
        let competence: Vec<Vec<f64>> =
            (0..n).map(|_| (0..n_chars).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let experienced: Vec<Vec<TaskId>> =
            (0..n).map(|_| pool.sample_experienced(tasks_per_node, rng)).collect();

        let mut records: Vec<TrustEngine<AgentId, B>> =
            (0..n).map(|_| TrustEngine::new()).collect();
        let mut rec_trust: Vec<Vec<(AgentId, f64)>> =
            g.nodes().map(|holder| Vec::with_capacity(g.degree(holder))).collect();
        for holder in g.nodes() {
            for &peer in g.neighbors(holder) {
                for &tid in &experienced[peer.index()] {
                    let truth = task_competence(&competence[peer.index()], pool.task(tid));
                    let observed = (truth + rng.gen_range(-noise..=noise)).clamp(0.0, 1.0);
                    records[holder.index()].seed_record(peer, tid, scalar_record(observed));
                }
                // honest networks recommend reliably: TW(Rτ) is high but
                // not perfect (§4.3 gates filter on it with ω₁); the
                // adjacency list is sorted, so this appends
                upsert(&mut rec_trust[holder.index()], peer, rng.gen_range(0.75..0.95));
            }
        }
        Knowledge { competence, experienced, records, rec_trust, n_characteristics: n_chars }
    }

    /// Replaces the experienced-task assignment (used by the Table 2
    /// variant where node features dictate experience).
    pub fn set_experienced(&mut self, experienced: Vec<Vec<TaskId>>) {
        assert_eq!(experienced.len(), self.experienced.len());
        self.experienced = experienced;
    }

    /// Re-derives neighbour records after [`Self::set_experienced`].
    pub fn reseed_records(
        &mut self,
        g: &SocialGraph,
        pool: &TaskPool,
        noise: f64,
        rng: &mut SmallRng,
    ) {
        for e in self.records.iter_mut() {
            e.clear_records();
        }
        for holder in g.nodes() {
            for &peer in g.neighbors(holder) {
                for &tid in &self.experienced[peer.index()] {
                    let truth = task_competence(&self.competence[peer.index()], pool.task(tid));
                    let observed = (truth + rng.gen_range(-noise..=noise)).clamp(0.0, 1.0);
                    self.records[holder.index()].seed_record(peer, tid, scalar_record(observed));
                }
            }
        }
    }

    /// The actual competence of `a` on `task` (mean of its characteristic
    /// competences, weighted by the task's weights).
    pub fn actual_task_competence(&self, a: AgentId, task: &Task) -> f64 {
        task_competence(&self.competence[a.index()], task)
    }

    /// Actual competence of `a` on a single characteristic.
    pub fn actual_characteristic_competence(&self, a: AgentId, c: CharacteristicId) -> f64 {
        self.competence[a.index()][c.0 as usize]
    }

    /// Tasks `a` has experienced.
    pub fn experienced(&self, a: AgentId) -> &[TaskId] {
        &self.experienced[a.index()]
    }

    /// Whether `a`'s experienced tasks cover every characteristic of `task`.
    pub fn covers_all(&self, a: AgentId, task: &Task, pool: &TaskPool) -> bool {
        task.characteristic_ids().all(|c| self.covers_characteristic(a, c, pool))
    }

    /// Whether `a`'s experienced tasks cover characteristic `c`.
    pub fn covers_characteristic(&self, a: AgentId, c: CharacteristicId, pool: &TaskPool) -> bool {
        self.experienced[a.index()].iter().any(|&tid| pool.task(tid).has_characteristic(c))
    }

    /// Whether `a` experienced exactly this task type.
    pub fn experienced_exactly(&self, a: AgentId, task: TaskId) -> bool {
        self.experienced[a.index()].binary_search(&task).is_ok()
    }

    /// The holder's trust engine — every record `holder` keeps lives here.
    pub fn engine(&self, holder: AgentId) -> &TrustEngine<AgentId, B> {
        &self.records[holder.index()]
    }

    /// The scalar record `holder` keeps about `(peer, task)`.
    pub fn record(&self, holder: AgentId, peer: AgentId, task: TaskId) -> Option<f64> {
        self.records[holder.index()].record(peer, task).map(|r| r.s_hat)
    }

    /// Rewrites the scalar report `holder` keeps about `(peer, task)` —
    /// used by the attack models (a bad-mouthing recommender rewrites its
    /// reports).
    ///
    /// The rewrite is routed through an executed delegation session with
    /// β = 0 (the lie replaces the history wholesale), so the record's
    /// **interaction count still increments**: a recommender whose reports
    /// mutate without corresponding growth in interactions is exactly the
    /// burst signature defenses can look for, which raw overwrites used to
    /// erase.
    pub fn set_record(&mut self, holder: AgentId, peer: AgentId, task: TaskId, tw: f64) {
        let engine = &mut self.records[holder.index()];
        // the task definition only scopes the session; a forged report
        // needs no characteristic structure
        let forged_task = Task::uniform(task, [CharacteristicId(0)]).expect("non-empty");
        let claimed =
            Observation { success_rate: tw.clamp(0.0, 1.0), gain: 1.0, damage: 0.0, cost: 0.0 };
        engine
            .delegate(peer, &forged_task, Goal::ANY, Context::amicable(task))
            .activate(engine)
            .execute(engine, DelegationOutcome::observed(claimed), &ForgettingFactors::uniform(0.0))
            .expect("forged observations are clamped to the unit range");
    }

    /// Recommendation trustworthiness `TW_{holder←peer}(Rτ)` — how much
    /// `holder` trusts `peer`'s recommendations. `None` for non-neighbours.
    pub fn recommendation_trust(&self, holder: AgentId, peer: AgentId) -> Option<f64> {
        let row = &self.rec_trust[holder.index()];
        row.binary_search_by_key(&peer, |&(p, _)| p).ok().map(|i| row[i].1)
    }

    /// Overrides one recommendation-trust value (used by attack models:
    /// a bad-mouthing or ballot-stuffing peer loses recommendation trust).
    pub fn set_recommendation_trust(&mut self, holder: AgentId, peer: AgentId, tw: f64) {
        upsert(&mut self.rec_trust[holder.index()], peer, tw.clamp(0.0, 1.0));
    }

    /// All of `holder`'s experiences about `peer` as `(task, tw)` pairs
    /// suitable for Eq. 4 inference.
    pub fn experiences<'p>(
        &self,
        holder: AgentId,
        peer: AgentId,
        pool: &'p TaskPool,
    ) -> Vec<Experience<'p>> {
        let mut out = Vec::new();
        self.records[holder.index()]
            .for_each_record(peer, |tid, rec| out.push(Experience::new(pool.task(tid), rec.s_hat)));
        out
    }

    /// Size of the characteristic alphabet.
    pub fn n_characteristics(&self) -> usize {
        self.n_characteristics
    }
}

/// Overwrites `peer`'s entry in a sorted row, or inserts it in order.
fn upsert(row: &mut Vec<(AgentId, f64)>, peer: AgentId, tw: f64) {
    match row.binary_search_by_key(&peer, |&(p, _)| p) {
        Ok(i) => row[i].1 = tw,
        Err(i) => row.insert(i, (peer, tw)),
    }
}

/// Weighted-average competence of a characteristic-competence vector on a
/// task.
fn task_competence(char_competence: &[f64], task: &Task) -> f64 {
    task.characteristics().iter().map(|&(c, w)| w * char_competence[c.0 as usize]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use siot_core::backend::ShardedBackend;
    use siot_graph::GraphBuilder;

    fn setup() -> (SocialGraph, TaskPool, Knowledge) {
        let g = GraphBuilder::new().edges([(0, 1), (1, 2), (2, 3)]).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let pool = TaskPool::generate(4, 4, &mut rng);
        let k = Knowledge::seed(&g, &pool, 2, 0.05, &mut rng);
        (g, pool, k)
    }

    #[test]
    fn records_exist_only_between_neighbours() {
        let (g, _, k) = setup();
        let n0 = AgentId::from(0u32);
        let n2 = AgentId::from(2u32);
        // 0 and 2 are not adjacent
        assert!(!g.has_edge(n0, n2));
        for &tid in k.experienced(n2) {
            assert!(k.record(n0, n2, tid).is_none());
        }
        // 0 and 1 are adjacent: records exist for 1's experienced tasks
        let n1 = AgentId::from(1u32);
        for &tid in k.experienced(n1) {
            assert!(k.record(n0, n1, tid).is_some());
        }
    }

    #[test]
    fn records_approach_truth() {
        let (_, pool, k) = setup();
        let n1 = AgentId::from(1u32);
        let n0 = AgentId::from(0u32);
        for &tid in k.experienced(n1) {
            let truth = k.actual_task_competence(n1, pool.task(tid));
            let rec = k.record(n0, n1, tid).unwrap();
            assert!((rec - truth).abs() <= 0.05 + 1e-9);
        }
    }

    #[test]
    fn coverage_checks_follow_experience() {
        let (_, pool, k) = setup();
        let a = AgentId::from(0u32);
        for &tid in k.experienced(a) {
            assert!(k.experienced_exactly(a, tid));
            for c in pool.task(tid).characteristic_ids() {
                assert!(k.covers_characteristic(a, c, &pool));
            }
            assert!(k.covers_all(a, pool.task(tid), &pool));
        }
        assert!(!k.experienced_exactly(a, TaskId(9999)));
    }

    #[test]
    fn experiences_list_matches_records() {
        let (_, pool, k) = setup();
        let holder = AgentId::from(1u32);
        let peer = AgentId::from(0u32);
        let exp = k.experiences(holder, peer, &pool);
        assert_eq!(exp.len(), k.experienced(peer).len());
    }

    #[test]
    fn task_competence_is_weighted_average() {
        let comp = vec![0.2, 0.8];
        let t =
            Task::new(TaskId(0), [(CharacteristicId(0), 1.0), (CharacteristicId(1), 3.0)]).unwrap();
        let got = task_competence(&comp, &t);
        assert!((got - (0.25 * 0.2 + 0.75 * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn reseed_after_set_experienced() {
        let (g, pool, mut k) = setup();
        let n = g.node_count();
        let new_exp: Vec<Vec<TaskId>> = (0..n).map(|_| vec![TaskId(0)]).collect();
        let mut rng = SmallRng::seed_from_u64(9);
        k.set_experienced(new_exp);
        k.reseed_records(&g, &pool, 0.0, &mut rng);
        let n0 = AgentId::from(0u32);
        let n1 = AgentId::from(1u32);
        assert_eq!(k.experienced(n1), &[TaskId(0)]);
        let rec = k.record(n0, n1, TaskId(0)).unwrap();
        let truth = k.actual_task_competence(n1, pool.task(TaskId(0)));
        assert!((rec - truth).abs() < 1e-12, "zero noise copies the truth");
    }

    #[test]
    fn record_rewrites_are_sessions_that_raise_interaction_counts() {
        let (g, _, mut k) = setup();
        let holder = AgentId::from(0u32);
        let peer = AgentId::from(1u32);
        assert!(g.has_edge(holder, peer));
        let tid = k.experienced(peer)[0];
        let before = k.engine(holder).record(peer, tid).expect("seeded").interactions;

        k.set_record(holder, peer, tid, 0.05);
        assert_eq!(k.record(holder, peer, tid), Some(0.05), "the lie lands in full");
        let after = k.engine(holder).record(peer, tid).expect("still there");
        assert_eq!(after.interactions, before + 1, "rewrites leave an interaction trace");

        // a second rewrite keeps counting — the burst is visible
        k.set_record(holder, peer, tid, 0.9);
        assert_eq!(k.engine(holder).record(peer, tid).unwrap().interactions, before + 2);
    }

    #[test]
    fn recommendation_trust_overrides_keep_rows_sorted() {
        let (_, _, mut k) = setup();
        let [n0, n1, n2, n3] = [0u32, 1, 2, 3].map(AgentId::from);
        // 0's only neighbour is 1: its seeded entry is overwritten in place
        assert!(k.recommendation_trust(n0, n1).is_some());
        k.set_recommendation_trust(n0, n1, 0.1);
        assert_eq!(k.recommendation_trust(n0, n1), Some(0.1));
        assert_eq!(k.rec_trust[0].len(), 1);

        // non-neighbours are unknown until set, then land in sorted position
        assert_eq!(k.recommendation_trust(n0, n3), None);
        assert_eq!(k.recommendation_trust(n0, n2), None);
        k.set_recommendation_trust(n0, n3, 0.3);
        k.set_recommendation_trust(n0, n2, 2.0);
        assert_eq!(k.recommendation_trust(n0, n3), Some(0.3));
        assert_eq!(k.recommendation_trust(n0, n2), Some(1.0), "values are clamped");
        let peers: Vec<AgentId> = k.rec_trust[0].iter().map(|&(p, _)| p).collect();
        assert_eq!(peers, [n1, n2, n3]);
        assert_eq!(k.recommendation_trust(n0, n0), None);
    }

    #[test]
    fn sharded_backend_sees_identical_records() {
        // the same seed sequence through either backend yields the same
        // knowledge base — storage must not leak into the semantics
        let g = GraphBuilder::new().edges([(0, 1), (1, 2), (2, 3), (0, 3)]).build().unwrap();
        let pool = TaskPool::generate(4, 4, &mut SmallRng::seed_from_u64(2));
        let kb: Knowledge = Knowledge::seed(&g, &pool, 2, 0.05, &mut SmallRng::seed_from_u64(7));
        let ks: Knowledge<ShardedBackend<AgentId>> =
            Knowledge::seed_in(&g, &pool, 2, 0.05, &mut SmallRng::seed_from_u64(7));
        for holder in g.nodes() {
            for peer in g.nodes() {
                for &tid in ks.experienced(peer) {
                    assert_eq!(kb.record(holder, peer, tid), ks.record(holder, peer, tid));
                }
                assert_eq!(
                    kb.recommendation_trust(holder, peer),
                    ks.recommendation_trust(holder, peer)
                );
            }
            assert_eq!(kb.engine(holder).record_count(), ks.engine(holder).record_count());
        }
    }
}
