//! Community-structured social-network generator.
//!
//! Substitutes the SNAP ego-network extracts the paper uses for connectivity
//! (Table 1). Real ego-network extracts have a two-tier structure: a handful
//! of large, dense *core* communities (the ego's main circles) and many
//! small *satellite* clusters attached to the core by one or two links. The
//! generator plants exactly that: scale-free-ish core communities grown with
//! endpoint-bag preferential attachment and triadic closure, ring-local
//! bridges between core communities (macro-locality stretches the average
//! path length), weakly-attached satellites (which Louvain keeps as separate
//! communities, matching the paper's community counts), and short peripheral
//! tendrils (which stretch the diameter).
//!
//! Node/edge counts match the paper exactly; the remaining six statistics
//! are matched approximately: average degree within 0.01, diameter within 3
//! hops, average path length within 1, clustering within 0.08, modularity
//! within 0.1 and community count within 4. The `table1` bin prints measured
//! beside paper values.

use crate::error::GraphError;
use crate::graph::{NodeId, SocialGraph};
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

/// Parameters of the community-structured generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SocialNetConfig {
    /// Total node count (core + satellites + tendrils).
    pub nodes: usize,
    /// Exact total edge count.
    pub edges: usize,
    /// Number of large, dense core communities.
    pub core_communities: usize,
    /// Number of small satellite communities (weakly attached to the core).
    pub satellites: usize,
    /// Inclusive satellite size range.
    pub satellite_size: (usize, usize),
    /// Fraction of the total edge budget placed inside core communities.
    pub intra_fraction: f64,
    /// Probability that an intra-community edge closes a triangle.
    pub closure_prob: f64,
    /// Core community-size skew (power-law exponent; 0 = equal sizes).
    pub size_skew: f64,
    /// Edge probability inside a satellite cluster (first row always kept
    /// for connectivity).
    pub satellite_density: f64,
    /// Nodes reserved for two peripheral chains stretching the diameter.
    pub tendril_nodes: usize,
}

/// The three evaluation networks of the paper (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SocialNetKind {
    /// Facebook sub-network: 347 nodes, 5038 edges.
    Facebook,
    /// Google+ sub-network: 358 nodes, 4178 edges.
    GooglePlus,
    /// Twitter sub-network: 244 nodes, 2478 edges.
    Twitter,
}

impl SocialNetKind {
    /// All three networks, in the order the paper lists them.
    pub const ALL: [SocialNetKind; 3] =
        [SocialNetKind::Facebook, SocialNetKind::GooglePlus, SocialNetKind::Twitter];

    /// Human-readable name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SocialNetKind::Facebook => "Facebook",
            SocialNetKind::GooglePlus => "Google+",
            SocialNetKind::Twitter => "Twitter",
        }
    }

    /// Generator preset tuned against the Table 1 statistics.
    pub fn config(self) -> SocialNetConfig {
        match self {
            SocialNetKind::Facebook => SocialNetConfig {
                nodes: 347,
                edges: 5038,
                core_communities: 12,
                satellites: 29,
                satellite_size: (3, 6),
                intra_fraction: 0.60,
                closure_prob: 0.70,
                size_skew: 0.45,
                satellite_density: 0.75,
                tendril_nodes: 9,
            },
            SocialNetKind::GooglePlus => SocialNetConfig {
                nodes: 358,
                edges: 4178,
                core_communities: 10,
                satellites: 17,
                satellite_size: (3, 8),
                intra_fraction: 0.56,
                closure_prob: 0.56,
                size_skew: 0.40,
                satellite_density: 0.70,
                tendril_nodes: 10,
            },
            SocialNetKind::Twitter => SocialNetConfig {
                nodes: 244,
                edges: 2478,
                core_communities: 7,
                satellites: 13,
                satellite_size: (3, 6),
                intra_fraction: 0.53,
                closure_prob: 0.18,
                size_skew: 0.40,
                satellite_density: 0.40,
                tendril_nodes: 4,
            },
        }
    }

    /// Generates the network with this kind's preset.
    pub fn generate(self, seed: u64) -> SocialGraph {
        self.config().generate(seed).expect("presets are valid configurations")
    }

    /// Generates the network plus planted community labels.
    pub fn generate_with_communities(self, seed: u64) -> (SocialGraph, Vec<u32>) {
        self.config().generate_with_communities(seed).expect("presets are valid configurations")
    }
}

impl SocialNetConfig {
    /// Total planted communities (core + satellites).
    pub fn communities(&self) -> usize {
        self.core_communities + self.satellites
    }

    /// Generates a graph with exactly `self.nodes` nodes and `self.edges`
    /// edges, plus the planted community labels (core communities first,
    /// then satellites; tendril nodes inherit their attach community).
    pub fn generate_with_communities(
        &self,
        seed: u64,
    ) -> Result<(SocialGraph, Vec<u32>), GraphError> {
        self.validate()?;
        let mut rng = SmallRng::seed_from_u64(seed);

        // --- node layout -------------------------------------------------
        let sat_sizes: Vec<usize> = (0..self.satellites)
            .map(|_| rng.gen_range(self.satellite_size.0..=self.satellite_size.1))
            .collect();
        let sat_total: usize = sat_sizes.iter().sum();
        let core_total = self
            .nodes
            .checked_sub(sat_total + self.tendril_nodes)
            .filter(|&c| c >= self.core_communities * 8)
            .ok_or_else(|| {
                GraphError::InvalidGenerator("not enough nodes for core communities".into())
            })?;
        let core_sizes = heterogeneous_sizes(core_total, self.core_communities, self.size_skew, 8);

        let mut g = SocialGraph::with_nodes(self.nodes);
        let mut community = vec![0u32; self.nodes];
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut next = 0u32;
        for (c, &s) in core_sizes.iter().chain(sat_sizes.iter()).enumerate() {
            let mut m = Vec::with_capacity(s);
            for _ in 0..s {
                community[next as usize] = c as u32;
                m.push(next);
                next += 1;
            }
            members.push(m);
        }
        let core_nodes = core_total; // ids [0, core_total) are core

        // Degree-proportional endpoint bag over *core* nodes only.
        let mut bag: Vec<u32> = Vec::with_capacity(2 * self.edges);
        let mut budget = self.edges;
        let add = |g: &mut SocialGraph, bag: &mut Vec<u32>, a: u32, b: u32, core: usize| -> bool {
            if a == b {
                return false;
            }
            match g.add_edge(NodeId(a), NodeId(b)) {
                Ok(true) => {
                    if (a as usize) < core {
                        bag.push(a);
                    }
                    if (b as usize) < core {
                        bag.push(b);
                    }
                    true
                }
                _ => false,
            }
        };

        // --- 1. core: random recursive tree per community ------------------
        for m in members.iter().take(self.core_communities) {
            for (i, &v) in m.iter().enumerate().skip(1) {
                let t = m[rng.gen_range(0..i)];
                if add(&mut g, &mut bag, v, t, core_nodes) {
                    budget -= 1;
                }
            }
        }

        // --- 2. chain over core communities (macro-locality) ---------------
        for c in 1..self.core_communities {
            let a = members[c][rng.gen_range(0..members[c].len())];
            let b = members[c - 1][rng.gen_range(0..members[c - 1].len())];
            if add(&mut g, &mut bag, a, b, core_nodes) {
                budget -= 1;
            }
        }

        // --- 3. satellites: dense micro-cluster + 1-2 links into the core --
        for (si, m) in members.iter().enumerate().skip(self.core_communities) {
            // near-clique inside
            for (i, &v) in m.iter().enumerate() {
                for &w in &m[i + 1..] {
                    if budget > 0 && (i == 0 || rng.gen_bool(self.satellite_density)) {
                        // i == 0 row guarantees connectivity of the satellite
                        if add(&mut g, &mut bag, v, w, core_nodes) {
                            budget -= 1;
                        }
                    }
                }
            }
            // anchor into a core community (round-robin for spread)
            let target = (si - self.core_communities) % self.core_communities;
            let links = 1 + usize::from(rng.gen_bool(0.4));
            for _ in 0..links {
                let a = m[rng.gen_range(0..m.len())];
                let b = members[target][rng.gen_range(0..members[target].len())];
                if budget > 0 && add(&mut g, &mut bag, a, b, core_nodes) {
                    budget -= 1;
                }
            }
        }

        // --- 4. tendrils ----------------------------------------------------
        let mut tendril_next = (self.nodes - self.tendril_nodes) as u32;
        for half in 0..2usize {
            let len = if half == 0 {
                self.tendril_nodes / 2
            } else {
                self.tendril_nodes - self.tendril_nodes / 2
            };
            if len == 0 {
                continue;
            }
            // anchor the chains at ring-opposite communities so the two
            // tendril tips realize the worst-case path (diameter)
            let attach_comm = if half == 0 { 0 } else { self.core_communities / 2 };
            let attach = members[attach_comm][rng.gen_range(0..members[attach_comm].len())];
            let mut prev = attach;
            for _ in 0..len {
                community[tendril_next as usize] = community[attach as usize];
                if budget > 0 && add(&mut g, &mut bag, prev, tendril_next, core_nodes) {
                    budget -= 1;
                }
                prev = tendril_next;
                tendril_next += 1;
            }
        }

        // --- 5. fill the remaining budget inside the core ------------------
        let intra_total = (self.intra_fraction * self.edges as f64).round() as usize;
        let intra_so_far =
            g.edges().filter(|&(a, b)| community[a.index()] == community[b.index()]).count();
        let mut intra_left = intra_total.saturating_sub(intra_so_far).min(budget);
        let mut inter_left = budget - intra_left;

        let mut stall = 0usize;
        while intra_left + inter_left > 0 {
            let want_intra = intra_left > 0
                && (inter_left == 0 || rng.gen_range(0..intra_left + inter_left) < intra_left);
            let placed = if want_intra {
                self.place_intra(&mut g, &mut bag, &community, &members, core_nodes, &mut rng)
            } else {
                self.place_inter(&mut g, &mut bag, &members, &mut rng)
            };
            if placed {
                if want_intra {
                    intra_left -= 1;
                } else {
                    inter_left -= 1;
                }
                stall = 0;
            } else {
                stall += 1;
                if stall > 5_000 {
                    // Saturated somewhere; dump the remaining budget into
                    // uniform random core pairs so the edge count stays exact.
                    let mut rest = intra_left + inter_left;
                    let mut guard = 0usize;
                    while rest > 0 && guard < 1_000_000 {
                        let a = rng.gen_range(0..core_nodes as u32);
                        let b = rng.gen_range(0..core_nodes as u32);
                        if add(&mut g, &mut bag, a, b, core_nodes) {
                            rest -= 1;
                        }
                        guard += 1;
                    }
                    intra_left = 0;
                    inter_left = 0;
                }
            }
        }

        Ok((g, community))
    }

    /// Generates just the graph (community labels discarded).
    pub fn generate(&self, seed: u64) -> Result<SocialGraph, GraphError> {
        self.generate_with_communities(seed).map(|(g, _)| g)
    }

    fn validate(&self) -> Result<(), GraphError> {
        let max_edges = self.nodes * self.nodes.saturating_sub(1) / 2;
        if self.core_communities == 0 {
            return Err(GraphError::InvalidGenerator("need at least one core community".into()));
        }
        if self.satellite_size.0 < 2 || self.satellite_size.0 > self.satellite_size.1 {
            return Err(GraphError::InvalidGenerator("bad satellite size range".into()));
        }
        let sat_max = self.satellites * self.satellite_size.1;
        if self.nodes < self.core_communities * 8 + sat_max + self.tendril_nodes {
            return Err(GraphError::InvalidGenerator(
                "not enough nodes for core (8/community) + satellites + tendrils".into(),
            ));
        }
        if self.edges < self.nodes || self.edges > max_edges {
            return Err(GraphError::InvalidGenerator(format!(
                "edge budget {} outside [{}, {max_edges}]",
                self.edges, self.nodes
            )));
        }
        for (name, v) in [
            ("intra_fraction", self.intra_fraction),
            ("closure_prob", self.closure_prob),
            ("satellite_density", self.satellite_density),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(GraphError::InvalidGenerator(format!("{name} = {v} outside [0, 1]")));
            }
        }
        Ok(())
    }

    /// Places one core intra-community edge; triadic closure with
    /// probability `closure_prob`, otherwise a degree-biased pair.
    fn place_intra(
        &self,
        g: &mut SocialGraph,
        bag: &mut Vec<u32>,
        community: &[u32],
        members: &[Vec<u32>],
        core_nodes: usize,
        rng: &mut SmallRng,
    ) -> bool {
        let u = bag[rng.gen_range(0..bag.len())];
        let c = community[u as usize] as usize;
        if c >= self.core_communities {
            return false; // satellites stay sparse
        }
        let partner = if rng.gen_bool(self.closure_prob) {
            // close a triangle: neighbour-of-neighbour inside the community.
            // Tendril nodes share the attach community's label but must stay
            // chains, so only core nodes qualify at both steps.
            let same: Vec<u32> = g
                .neighbors(NodeId(u))
                .iter()
                .map(|n| n.0)
                .filter(|&v| (v as usize) < core_nodes && community[v as usize] == c as u32)
                .collect();
            if same.is_empty() {
                return false;
            }
            let v = same[rng.gen_range(0..same.len())];
            let nn: Vec<u32> = g
                .neighbors(NodeId(v))
                .iter()
                .map(|n| n.0)
                .filter(|&w| {
                    w != u && (w as usize) < core_nodes && community[w as usize] == c as u32
                })
                .collect();
            if nn.is_empty() {
                return false;
            }
            nn[rng.gen_range(0..nn.len())]
        } else {
            members[c][rng.gen_range(0..members[c].len())]
        };
        if partner == u || g.has_edge(NodeId(u), NodeId(partner)) {
            return false;
        }
        g.add_edge(NodeId(u), NodeId(partner)).expect("validated pair");
        bag.push(u);
        bag.push(partner);
        true
    }

    /// Places one inter-community edge between *core* communities with ring
    /// locality (nearby communities are likelier partners).
    fn place_inter(
        &self,
        g: &mut SocialGraph,
        bag: &mut Vec<u32>,
        members: &[Vec<u32>],
        rng: &mut SmallRng,
    ) -> bool {
        let k = self.core_communities;
        if k < 2 {
            return false;
        }
        let a = bag[rng.gen_range(0..bag.len())];
        let ca = community_of(members, a);
        if ca >= k {
            return false;
        }
        // geometric ring offset: P(d) ∝ 0.5^d
        let mut d = 1usize;
        while d < k - 1 && rng.gen_bool(0.5) {
            d += 1;
        }
        let cb = if rng.gen_bool(0.5) { (ca + d) % k } else { (ca + k - (d % k)) % k };
        if cb == ca {
            return false;
        }
        let b = members[cb][rng.gen_range(0..members[cb].len())];
        if a == b || g.has_edge(NodeId(a), NodeId(b)) {
            return false;
        }
        g.add_edge(NodeId(a), NodeId(b)).expect("validated pair");
        bag.push(a);
        bag.push(b);
        true
    }
}

/// Community index of node `v` by scanning member offsets (contiguous layout).
fn community_of(members: &[Vec<u32>], v: u32) -> usize {
    // nodes are laid out contiguously per community, so a linear scan over
    // community boundaries is enough (and communities are few).
    let mut start = 0u32;
    for (c, m) in members.iter().enumerate() {
        let end = start + m.len() as u32;
        if v < end {
            return c;
        }
        start = end;
    }
    members.len()
}

/// Heterogeneous sizes: weight of community `i` is `(i+1)^(-skew)`, scaled
/// to `total`, with the given minimum size.
fn heterogeneous_sizes(total: usize, k: usize, skew: f64, min_size: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..k).map(|i| ((i + 1) as f64).powf(-skew)).collect();
    let wsum: f64 = weights.iter().sum();
    let mut sizes: Vec<usize> = weights
        .iter()
        .map(|w| ((w / wsum) * total as f64).floor().max(min_size as f64) as usize)
        .collect();
    let assigned: usize = sizes.iter().sum();
    if assigned < total {
        sizes[0] += total - assigned;
    } else {
        let mut excess = assigned - total;
        for s in sizes.iter_mut() {
            let take = (*s - min_size).min(excess);
            *s -= take;
            excess -= take;
            if excess == 0 {
                break;
            }
        }
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::connected_components;

    #[test]
    fn heterogeneous_sizes_sum_and_minimum() {
        for (total, k, skew, min) in [(240, 8, 0.45, 8), (250, 7, 0.4, 8), (160, 6, 0.4, 8)] {
            let sizes = heterogeneous_sizes(total, k, skew, min);
            assert_eq!(sizes.iter().sum::<usize>(), total);
            assert!(sizes.iter().all(|&s| s >= min), "{sizes:?}");
        }
    }

    #[test]
    fn exact_node_and_edge_counts() {
        for kind in SocialNetKind::ALL {
            let cfg = kind.config();
            let g = kind.generate(1);
            assert_eq!(g.node_count(), cfg.nodes, "{}", kind.name());
            assert_eq!(g.edge_count(), cfg.edges, "{}", kind.name());
        }
    }

    #[test]
    fn generated_networks_are_connected() {
        for kind in SocialNetKind::ALL {
            let g = kind.generate(7);
            let (_, comps) = connected_components(&g);
            assert_eq!(comps, 1, "{} must be connected", kind.name());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SocialNetKind::Twitter.generate(5);
        let b = SocialNetKind::Twitter.generate(5);
        assert!(a.edges().zip(b.edges()).all(|(x, y)| x == y));
    }

    #[test]
    fn different_seeds_differ() {
        let a = SocialNetKind::Twitter.generate(5);
        let b = SocialNetKind::Twitter.generate(6);
        assert!(a.edges().zip(b.edges()).any(|(x, y)| x != y));
    }

    #[test]
    fn planted_communities_cover_all_nodes() {
        let cfg = SocialNetKind::Facebook.config();
        let (g, community) = cfg.generate_with_communities(3).unwrap();
        assert_eq!(community.len(), g.node_count());
        let max = *community.iter().max().unwrap() as usize;
        assert!(max < cfg.communities());
    }

    #[test]
    fn community_of_contiguous_layout() {
        let members = vec![vec![0, 1, 2], vec![3, 4], vec![5]];
        assert_eq!(community_of(&members, 0), 0);
        assert_eq!(community_of(&members, 2), 0);
        assert_eq!(community_of(&members, 3), 1);
        assert_eq!(community_of(&members, 5), 2);
        assert_eq!(community_of(&members, 6), 3, "past-the-end sentinel");
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = SocialNetKind::Twitter.config();
        cfg.core_communities = 0;
        assert!(cfg.generate(0).is_err());
        let mut cfg = SocialNetKind::Twitter.config();
        cfg.edges = 10; // below node count
        assert!(cfg.generate(0).is_err());
        let mut cfg = SocialNetKind::Twitter.config();
        cfg.intra_fraction = 1.2;
        assert!(cfg.generate(0).is_err());
        let mut cfg = SocialNetKind::Twitter.config();
        cfg.satellite_size = (5, 3);
        assert!(cfg.generate(0).is_err());
        let mut cfg = SocialNetKind::Twitter.config();
        cfg.satellites = 100; // too many nodes consumed
        assert!(cfg.generate(0).is_err());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(SocialNetKind::Facebook.name(), "Facebook");
        assert_eq!(SocialNetKind::GooglePlus.name(), "Google+");
        assert_eq!(SocialNetKind::Twitter.name(), "Twitter");
    }
}
