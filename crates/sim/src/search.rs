//! Trustee discovery over the social graph (§4.3 / §5.5).
//!
//! A trustor floods a delegation request along qualified social links. The
//! paper's transitivity model distinguishes *recommendation* trust
//! `TW(Rτ)` — carried by every intermediate link and gated by ω₁ — from
//! *execution* trust, which only the final link toward the trustee carries
//! (gated by ω₂). The three methods differ in which links qualify and how
//! estimates combine:
//!
//! * **Traditional** (Eq. 5): only links whose record matches the *exact*
//!   task type qualify; estimates multiply along the path, unrestricted
//!   (no gates — the paper's point is precisely that existing models
//!   transit trust without restriction).
//! * **Conservative** (Eqs. 8–11): intermediates must understand the whole
//!   request (their experienced tasks cover *all* its characteristics);
//!   the final link's estimate comes from Eq. 4 inference; hops combine
//!   with Eq. 7.
//! * **Aggressive** (Eqs. 12–17): each characteristic travels its own
//!   paths (intermediates only need to cover *that* characteristic); the
//!   trustee needs all characteristics covered by its own experience, and
//!   the per-characteristic estimates recombine with Eq. 17.
//!
//! The search also counts *inquired nodes* — every node the request
//! reaches — which is the overhead metric of Fig. 12.
//!
//! # Cost model
//!
//! A search's cost is its floods' edge visits: trust math is a few ns per
//! edge (Eq. 7 is two products and a sum), so what matters is what an edge
//! visit reads. Coverage is a bit mask per node, computed once per search engine,
//! so every context check is one AND against the task's mask. The execution
//! link reads the holder's records about the peer into one scratch buffer
//! reused across the flood's edges, and a recommendation link is a binary
//! search in the holder's sorted row. Each flood reports the nodes it
//! reached, so the aggressive method's inquiry overhead is the union of its
//! per-characteristic floods plus the conservative flood whose candidates
//! it merges — no flood runs twice.

use crate::agent::AgentId;
use crate::knowledge::Knowledge;
use crate::tasks::TaskPool;
use siot_core::backend::{BTreeBackend, TrustBackend};
use siot_core::infer::{infer_characteristic, infer_task, Experience};
use siot_core::task::{Task, TaskId};
use siot_core::transitivity::{two_hop, TransitivityGates};
use siot_graph::SocialGraph;

/// The three trust-transfer methods compared in §5.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchMethod {
    /// Exact-task-only transfer, Eq. 5 product chains, no gates.
    Traditional,
    /// All characteristics along one path (Eqs. 8–11).
    Conservative,
    /// Characteristics along different paths (Eqs. 12–17).
    Aggressive,
}

impl SearchMethod {
    /// All methods in the paper's comparison order.
    pub const ALL: [SearchMethod; 3] =
        [SearchMethod::Traditional, SearchMethod::Conservative, SearchMethod::Aggressive];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SearchMethod::Traditional => "Traditional",
            SearchMethod::Conservative => "Conservative",
            SearchMethod::Aggressive => "Aggressive",
        }
    }
}

/// A discovered potential trustee with its transferred trust estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The potential trustee.
    pub trustee: AgentId,
    /// Transferred trustworthiness estimate for the requested task.
    pub estimate: f64,
}

/// Result of one trustee search.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchOutcome {
    /// Potential trustees, sorted by descending estimate (ties by id).
    pub candidates: Vec<Candidate>,
    /// Number of distinct nodes the request reached (search overhead).
    pub inquired: usize,
}

impl SearchOutcome {
    /// The best candidate, if any.
    pub fn best(&self) -> Option<Candidate> {
        self.candidates.first().copied()
    }
}

/// Trustee search engine bound to one network's knowledge.
pub struct TrusteeSearch<'a, B: TrustBackend<AgentId> = BTreeBackend<AgentId>> {
    graph: &'a SocialGraph,
    knowledge: &'a Knowledge<B>,
    pool: &'a TaskPool,
    /// Per node: the characteristics its experienced tasks cover, one bit
    /// per characteristic.
    coverage: Vec<u64>,
    /// ω₁/ω₂ gates applied to recommendation / execution hops of the
    /// proposed methods (the traditional baseline is always ungated).
    pub gates: TransitivityGates,
    /// Maximum path length in hops (trustee at most this far).
    pub max_hops: usize,
}

/// Per-method behaviour of one flood.
struct FloodSpec<'s, 'a> {
    /// May `v` relay the request (context restriction)?
    relay_ok: &'s dyn Fn(AgentId) -> bool,
    /// Recommendation trust for the hop `u → v` (intermediate links).
    rec_tw: &'s dyn Fn(AgentId, AgentId) -> Option<f64>,
    /// Execution trust for the final hop `u → v` (trustee link).
    exec_tw: &'s dyn Fn(AgentId, AgentId, &mut Scratch<'a>) -> Option<f64>,
    /// May `v` be the executing trustee (context restriction)?
    trustee_ok: &'s dyn Fn(AgentId) -> bool,
    combine: Combine,
    gates: TransitivityGates,
}

/// Buffer one flood reuses for a holder's experiences with a peer.
type Scratch<'a> = Vec<Experience<'a>>;

/// What one flood (or the aggressive method's floods together) found.
struct Flood {
    /// Best transferred estimate per node that qualifies as a candidate.
    estimates: Vec<Option<f64>>,
    /// Every node the request reached.
    reached: Vec<bool>,
}

impl Flood {
    fn outcome(self) -> SearchOutcome {
        let mut candidates: Vec<Candidate> = self
            .estimates
            .iter()
            .enumerate()
            .filter_map(|(i, v)| {
                v.map(|estimate| Candidate { trustee: AgentId::from(i as u32), estimate })
            })
            .collect();
        sort_candidates(&mut candidates);
        let inquired = self.reached.iter().filter(|&&r| r).count();
        SearchOutcome { candidates, inquired }
    }
}

impl<'a, B: TrustBackend<AgentId>> TrusteeSearch<'a, B> {
    /// Creates a search engine with paper-style defaults: ω₁ = 0.6 and
    /// ω₂ = 0.3 ("preset trustworthiness with relatively high values",
    /// §4.3) and a 3-hop search horizon.
    pub fn new(graph: &'a SocialGraph, knowledge: &'a Knowledge<B>, pool: &'a TaskPool) -> Self {
        let coverage = graph
            .nodes()
            .map(|v| {
                knowledge
                    .experienced(v)
                    .iter()
                    .fold(0, |m, &tid| m | characteristic_mask(pool.task(tid)))
            })
            .collect();
        TrusteeSearch {
            graph,
            knowledge,
            pool,
            coverage,
            gates: TransitivityGates { omega1: 0.6, omega2: 0.3 },
            max_hops: 3,
        }
    }

    /// Runs the search for `trustor` requesting `task`.
    ///
    /// `is_trustee` restricts which nodes may serve as trustees (role
    /// assignment); any node may act as an intermediate.
    pub fn find(
        &self,
        method: SearchMethod,
        trustor: AgentId,
        task: TaskId,
        is_trustee: &dyn Fn(AgentId) -> bool,
    ) -> SearchOutcome {
        match method {
            SearchMethod::Traditional => {
                let record = |u: AgentId, v: AgentId| self.knowledge.record(u, v, task);
                self.flood(
                    trustor,
                    is_trustee,
                    &FloodSpec {
                        relay_ok: &|v| self.knowledge.experienced_exactly(v, task),
                        rec_tw: &record,
                        exec_tw: &|u, v, _| record(u, v),
                        trustee_ok: &|v| self.knowledge.experienced_exactly(v, task),
                        combine: Combine::Product,
                        gates: TransitivityGates::OPEN,
                    },
                )
                .outcome()
            }
            SearchMethod::Conservative => self.conservative(trustor, task, is_trustee).outcome(),
            SearchMethod::Aggressive => self.aggressive(trustor, task, is_trustee).outcome(),
        }
    }

    /// Whether `v`'s experience covers every characteristic in `mask`.
    fn covers(&self, v: AgentId, mask: u64) -> bool {
        self.coverage[v.index()] & mask == mask
    }

    /// `u`'s records about `v` as Eq. 4 experiences, filled into `scratch`.
    fn experiences<'s>(
        &self,
        u: AgentId,
        v: AgentId,
        scratch: &'s mut Scratch<'a>,
    ) -> &'s [Experience<'a>] {
        scratch.clear();
        self.knowledge.engine(u).for_each_record(v, |tid, rec| {
            scratch.push(Experience::new(self.pool.task(tid), rec.s_hat))
        });
        scratch
    }

    /// Conservative method: one flood whose relays and trustee all cover
    /// the whole task.
    fn conservative(
        &self,
        trustor: AgentId,
        task: TaskId,
        is_trustee: &dyn Fn(AgentId) -> bool,
    ) -> Flood {
        let t = self.pool.task(task);
        let whole = characteristic_mask(t);
        self.flood(
            trustor,
            is_trustee,
            &FloodSpec {
                relay_ok: &|v| self.covers(v, whole),
                rec_tw: &|u, v| self.knowledge.recommendation_trust(u, v),
                exec_tw: &|u, v, scratch| infer_task(t, self.experiences(u, v, scratch)).ok(),
                trustee_ok: &|v| self.covers(v, whole),
                combine: Combine::Eq7,
                gates: self.gates,
            },
        )
    }

    /// One BFS flood carrying a single estimate.
    fn flood(
        &self,
        trustor: AgentId,
        is_trustee: &dyn Fn(AgentId) -> bool,
        spec: &FloodSpec<'_, 'a>,
    ) -> Flood {
        let n = self.graph.node_count();
        // best recommendation-path value per node (all hops cleared ω₁)
        let mut rec_val: Vec<Option<f64>> = vec![None; n];
        let mut cand_val: Vec<Option<f64>> = vec![None; n];
        let mut reached = vec![false; n];
        let mut scratch = Vec::new();
        rec_val[trustor.index()] = Some(1.0);
        let mut frontier = vec![trustor];
        let mut next = Vec::new();

        for _hop in 0..self.max_hops {
            for &u in &frontier {
                let base = rec_val[u.index()].expect("frontier nodes have values");
                for &v in self.graph.neighbors(u) {
                    if v == trustor {
                        continue;
                    }
                    // v as final trustee: the ω₂ gate applies to the full
                    // transferred estimate (recommendation chain folded
                    // with the execution link)
                    if is_trustee(v) && (spec.trustee_ok)(v) {
                        if let Some(tw) = (spec.exec_tw)(u, v, &mut scratch) {
                            reached[v.index()] = true;
                            let est = spec.combine.apply(base, tw);
                            if est >= spec.gates.omega2
                                && cand_val[v.index()].is_none_or(|c| est > c)
                            {
                                cand_val[v.index()] = Some(est);
                            }
                        }
                    }
                    // v as recommender for further hops
                    if (spec.relay_ok)(v) {
                        if let Some(tw) = (spec.rec_tw)(u, v) {
                            reached[v.index()] = true;
                            if tw >= spec.gates.omega1 {
                                let est = spec.combine.apply(base, tw);
                                if rec_val[v.index()].is_none_or(|c| est > c) {
                                    let first_visit = rec_val[v.index()].is_none();
                                    rec_val[v.index()] = Some(est);
                                    if first_visit {
                                        next.push(v);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
            if frontier.is_empty() {
                break;
            }
        }

        Flood { estimates: cand_val, reached }
    }

    /// Aggressive method: one flood per characteristic, then Eq. 17
    /// recombination per trustee, merged with the conservative flood.
    /// Inquiry overhead is the union of nodes all those floods reached.
    fn aggressive(
        &self,
        trustor: AgentId,
        task: TaskId,
        is_trustee: &dyn Fn(AgentId) -> bool,
    ) -> Flood {
        let t = self.pool.task(task);
        let whole = characteristic_mask(t);
        let n = self.graph.node_count();
        let mut inquired_union = vec![false; n];
        // per characteristic: (weight, candidate estimates)
        let mut per_char: Vec<(f64, Vec<Option<f64>>)> = Vec::new();

        for &(c, w) in t.characteristics() {
            let bit = 1u64 << c.0;
            let sub = self.flood(
                trustor,
                is_trustee,
                &FloodSpec {
                    relay_ok: &|v| self.covers(v, bit),
                    rec_tw: &|u, v| self.knowledge.recommendation_trust(u, v),
                    exec_tw: &|u, v, scratch| {
                        infer_characteristic(c, self.experiences(u, v, scratch))
                    },
                    // the trustee itself must cover the *whole* task
                    // (Eq. 12's union condition)
                    trustee_ok: &|v| self.covers(v, whole),
                    combine: Combine::Eq7,
                    // ω₂ is applied below to the Eq. 17 combined estimate,
                    // not per characteristic — this keeps the aggressive
                    // candidate set a superset of the conservative one
                    // (Eq. 7 is affine in the execution link, so a
                    // conservative candidate's estimate equals its
                    // weight-combined per-characteristic estimates)
                    gates: TransitivityGates { omega1: self.gates.omega1, omega2: 0.0 },
                },
            );
            union_into(&mut inquired_union, &sub.reached);
            per_char.push((w, sub.estimates));
        }

        let mut est_by_node: Vec<Option<f64>> = vec![None; n];
        'outer: for v in 0..n {
            let mut est = 0.0;
            for (w, vals) in &per_char {
                match vals[v] {
                    Some(e) => est += w * e,
                    None => continue 'outer,
                }
            }
            if est >= self.gates.omega2 {
                est_by_node[v] = Some(est);
            }
        }

        // The aggressive scheme subsumes the conservative one (Eq. 12
        // relaxes Eq. 8: a single path covering everything is one valid
        // per-characteristic routing), so merge in the conservative
        // candidates. This matters because Eq. 7 is not monotone in its
        // recommendation argument when the execution link sits below 0.5 —
        // without the merge, a candidate could pass the conservative ω₂
        // gate yet miss the aggressive one.
        let cons = self.conservative(trustor, task, is_trustee);
        for (slot, cand) in est_by_node.iter_mut().zip(cons.estimates) {
            if let Some(e) = cand {
                if slot.is_none_or(|cur| e > cur) {
                    *slot = Some(e);
                }
            }
        }
        union_into(&mut inquired_union, &cons.reached);

        Flood { estimates: est_by_node, reached: inquired_union }
    }
}

/// The characteristics of `task` as a coverage mask.
fn characteristic_mask(task: &Task) -> u64 {
    task.characteristic_ids().fold(0, |m, c| m | 1 << c.0)
}

fn union_into(acc: &mut [bool], reached: &[bool]) {
    for (a, &r) in acc.iter_mut().zip(reached) {
        *a |= r;
    }
}

/// How per-hop estimates combine along a path.
#[derive(Debug, Clone, Copy)]
enum Combine {
    /// Eq. 5 product (traditional).
    Product,
    /// Eq. 7 combination (proposed).
    Eq7,
}

impl Combine {
    fn apply(self, acc: f64, hop: f64) -> f64 {
        match self {
            Combine::Product => acc * hop,
            Combine::Eq7 => two_hop(acc, hop),
        }
    }
}

fn sort_candidates(candidates: &mut [Candidate]) {
    candidates.sort_by(|a, b| {
        b.estimate
            .partial_cmp(&a.estimate)
            .expect("estimates are never NaN")
            .then(a.trustee.cmp(&b.trustee))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use siot_core::task::TaskId;
    use siot_graph::GraphBuilder;

    /// Line graph 0-1-2-3 where every node experienced every task; noise 0.
    fn line_world(n_chars: usize) -> (SocialGraph, TaskPool, Knowledge) {
        let g = GraphBuilder::new().edges([(0, 1), (1, 2), (2, 3)]).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let pool = TaskPool::generate(n_chars, n_chars, &mut rng);
        let mut k = Knowledge::seed(&g, &pool, 2, 0.0, &mut rng);
        // give every node full experience so coverage never blocks
        let all: Vec<_> = pool.tasks().iter().map(|t| t.id()).collect();
        k.set_experienced(vec![all.clone(); g.node_count()]);
        k.reseed_records(&g, &pool, 0.0, &mut rng);
        (g, pool, k)
    }

    fn open_search<'a>(
        g: &'a SocialGraph,
        k: &'a Knowledge,
        pool: &'a TaskPool,
    ) -> TrusteeSearch<'a> {
        let mut s = TrusteeSearch::new(g, k, pool);
        s.gates = TransitivityGates::OPEN;
        s
    }

    #[test]
    fn coverage_masks_agree_with_knowledge() {
        let g = GraphBuilder::new().edges([(0, 1), (1, 2), (2, 3), (3, 4)]).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(13);
        let pool = TaskPool::generate(6, 6, &mut rng);
        let k = Knowledge::seed(&g, &pool, 2, 0.05, &mut rng);
        let search = TrusteeSearch::new(&g, &k, &pool);
        for v in g.nodes() {
            for t in pool.tasks() {
                let whole = characteristic_mask(t);
                assert_eq!(search.covers(v, whole), k.covers_all(v, t, &pool), "{v:?} {t:?}");
                for c in t.characteristic_ids() {
                    assert_eq!(
                        search.covers(v, 1 << c.0),
                        k.covers_characteristic(v, c, &pool),
                        "{v:?} {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_methods_find_direct_neighbour() {
        let (g, pool, k) = line_world(4);
        let search = open_search(&g, &k, &pool);
        let task = pool.tasks()[0].id();
        for method in SearchMethod::ALL {
            let out = search.find(method, AgentId::from(0u32), task, &|_| true);
            assert!(
                out.candidates.iter().any(|c| c.trustee == AgentId::from(1u32)),
                "{} must find the direct neighbour",
                method.name()
            );
        }
    }

    #[test]
    fn hop_limit_bounds_reach() {
        let (g, pool, k) = line_world(4);
        let mut search = open_search(&g, &k, &pool);
        search.max_hops = 1;
        let task = pool.tasks()[0].id();
        let out = search.find(SearchMethod::Conservative, AgentId::from(0u32), task, &|_| true);
        assert!(out.candidates.iter().all(|c| c.trustee == AgentId::from(1u32)));
        search.max_hops = 3;
        let out = search.find(SearchMethod::Conservative, AgentId::from(0u32), task, &|_| true);
        assert!(out.candidates.iter().any(|c| c.trustee == AgentId::from(3u32)));
    }

    #[test]
    fn trustee_filter_respected() {
        let (g, pool, k) = line_world(4);
        let search = open_search(&g, &k, &pool);
        let task = pool.tasks()[0].id();
        let only3 = |a: AgentId| a == AgentId::from(3u32);
        let out = search.find(SearchMethod::Conservative, AgentId::from(0u32), task, &only3);
        assert_eq!(out.candidates.len(), 1);
        assert_eq!(out.candidates[0].trustee, AgentId::from(3u32));
    }

    #[test]
    fn traditional_narrower_than_conservative() {
        // nodes experienced only 2 of many tasks: exact-match search finds
        // fewer (or equal) candidates than characteristic coverage.
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (1, 4)])
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let pool = TaskPool::generate(4, 6, &mut rng);
        let k = Knowledge::seed(&g, &pool, 2, 0.05, &mut rng);
        let search = open_search(&g, &k, &pool);
        let everyone = |_: AgentId| true;
        let mut trad_total = 0usize;
        let mut cons_total = 0usize;
        for t in pool.tasks() {
            let trad =
                search.find(SearchMethod::Traditional, AgentId::from(0u32), t.id(), &everyone);
            let cons =
                search.find(SearchMethod::Conservative, AgentId::from(0u32), t.id(), &everyone);
            trad_total += trad.candidates.len();
            cons_total += cons.candidates.len();
        }
        assert!(trad_total <= cons_total, "trad {trad_total} vs cons {cons_total}");
    }

    #[test]
    fn aggressive_finds_split_coverage() {
        // 0-1-3 and 0-2-3: node 1 knows char a only, node 2 char b only,
        // node 3 experienced both. Conservative cannot route (no single
        // path covers both), aggressive can.
        let g = GraphBuilder::new().edges([(0, 1), (0, 2), (1, 3), (2, 3)]).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let pool = TaskPool::generate(2, 1, &mut rng); // τ0={a0}, τ1={a1}, pair
        let mut k = Knowledge::seed(&g, &pool, 1, 0.0, &mut rng);
        let pair_id =
            pool.tasks().iter().find(|t| t.len() == 2).expect("pool has the pair task").id();
        k.set_experienced(vec![
            vec![],                     // trustor
            vec![TaskId(0)],            // covers a0 only
            vec![TaskId(1)],            // covers a1 only
            vec![TaskId(0), TaskId(1)], // trustee covers both
        ]);
        k.reseed_records(&g, &pool, 0.0, &mut rng);
        let search = open_search(&g, &k, &pool);
        let everyone = |_: AgentId| true;

        let cons = search.find(SearchMethod::Conservative, AgentId::from(0u32), pair_id, &everyone);
        assert!(
            cons.candidates.is_empty(),
            "no single path covers both characteristics: {:?}",
            cons.candidates
        );
        let aggr = search.find(SearchMethod::Aggressive, AgentId::from(0u32), pair_id, &everyone);
        assert_eq!(aggr.candidates.len(), 1);
        assert_eq!(aggr.candidates[0].trustee, AgentId::from(3u32));
    }

    #[test]
    fn aggressive_inquires_at_least_as_many() {
        let (g, pool, k) = line_world(5);
        let search = open_search(&g, &k, &pool);
        let everyone = |_: AgentId| true;
        let task = pool.random_pair_task(&mut SmallRng::seed_from_u64(2));
        let cons = search.find(SearchMethod::Conservative, AgentId::from(0u32), task, &everyone);
        let aggr = search.find(SearchMethod::Aggressive, AgentId::from(0u32), task, &everyone);
        assert!(aggr.inquired >= cons.inquired);
    }

    #[test]
    fn candidates_sorted_descending() {
        let (g, pool, k) = line_world(4);
        let search = open_search(&g, &k, &pool);
        let task = pool.tasks()[0].id();
        let out = search.find(SearchMethod::Conservative, AgentId::from(0u32), task, &|_| true);
        for w in out.candidates.windows(2) {
            assert!(w[0].estimate >= w[1].estimate);
        }
        assert_eq!(out.best().map(|c| c.trustee), out.candidates.first().map(|c| c.trustee));
    }

    #[test]
    fn gates_prune_candidates() {
        let (g, pool, k) = line_world(4);
        let mut search = open_search(&g, &k, &pool);
        let task = pool.tasks()[0].id();
        let open = search.find(SearchMethod::Conservative, AgentId::from(0u32), task, &|_| true);
        search.gates = TransitivityGates { omega1: 0.999, omega2: 0.999 };
        let gated = search.find(SearchMethod::Conservative, AgentId::from(0u32), task, &|_| true);
        assert!(gated.candidates.len() <= open.candidates.len());
    }

    #[test]
    fn traditional_ignores_gates() {
        let (g, pool, k) = line_world(4);
        let mut search = open_search(&g, &k, &pool);
        let task = pool.tasks()[0].id();
        let open = search.find(SearchMethod::Traditional, AgentId::from(0u32), task, &|_| true);
        search.gates = TransitivityGates { omega1: 0.999, omega2: 0.999 };
        let gated = search.find(SearchMethod::Traditional, AgentId::from(0u32), task, &|_| true);
        assert_eq!(open, gated, "the unrestricted baseline has no gates");
    }

    #[test]
    fn recommendation_trust_carries_intermediate_hops() {
        // 0-1-2: zero out node 0's recommendation trust toward 1 and the
        // conservative search can no longer reach node 2.
        let (g, pool, mut k) = line_world(4);
        let task = pool.tasks()[0].id();
        k.set_recommendation_trust(AgentId::from(0u32), AgentId::from(1u32), 0.0);
        let mut search = TrusteeSearch::new(&g, &k, &pool);
        search.gates = TransitivityGates { omega1: 0.5, omega2: 0.0 };
        let out = search.find(SearchMethod::Conservative, AgentId::from(0u32), task, &|_| true);
        // node 1 (direct, execution link) is still a candidate, but the
        // request is never relayed beyond it
        assert!(out.candidates.iter().any(|c| c.trustee == AgentId::from(1u32)));
        assert!(!out.candidates.iter().any(|c| c.trustee.index() >= 2));
    }

    #[test]
    fn empty_outcome_default() {
        let out = SearchOutcome::default();
        assert!(out.best().is_none());
        assert_eq!(out.inquired, 0);
    }
}
