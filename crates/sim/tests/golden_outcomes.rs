//! Golden digests of the paper's evaluation outcomes.
//!
//! Every figure the evaluation reproduces — the Figs. 9–12 transitivity
//! sweep, the Fig. 13 profit series and the Fig. 7 mutuality rates — is
//! hashed bit for bit into one digest per figure. A change to the search,
//! the knowledge base or the scenario drivers that claims to leave the
//! outcomes alone must leave these constants alone.
//!
//! The hash is a hand-rolled FNV-1a over little-endian words: std's
//! `DefaultHasher` is not guaranteed stable across toolchains. Rates enter
//! as `f64::to_bits`, counts as `u64`.
//!
//! The tier-1 test runs a Twitter-only slice that stays fast in a debug
//! build. The ignored test runs the `paper_sim` benchmark workload's exact
//! configuration on seeds 42 and 7; run it in release:
//!
//! ```text
//! cargo test --release -p siot-sim --test golden_outcomes -- --include-ignored
//! ```

use siot_graph::generate::social::SocialNetKind;
use siot_sim::scenario::mutuality::{self, MutualityConfig, MutualityOutcome};
use siot_sim::scenario::profit::{self, ProfitConfig, Strategy};
use siot_sim::scenario::transitivity::{self, TransitivityConfig, TransitivityOutcome};
use siot_sim::SearchMethod;

/// The benchmark's networks are generated once from this seed; the run seed
/// draws everything else.
const GRAPH_SEED: u64 = 42;
const THETAS: [f64; 3] = [0.0, 0.3, 0.6];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn transitivity(&mut self, o: &TransitivityOutcome) {
        self.f64(o.success_rate);
        self.f64(o.unavailable_rate);
        self.f64(o.avg_potential_trustees);
        self.u64(o.inquired_per_trustor.len() as u64);
        for &i in &o.inquired_per_trustor {
            self.u64(i as u64);
        }
        self.u64(o.executed_delegations as u64);
    }

    fn series(&mut self, s: &[f64]) {
        self.u64(s.len() as u64);
        for &v in s {
            self.f64(v);
        }
    }

    fn mutuality(&mut self, o: &MutualityOutcome) {
        self.f64(o.success_rate);
        self.f64(o.unavailable_rate);
        self.f64(o.abuse_rate);
    }
}

/// One digest per figure family.
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    transitivity: u64,
    profit: u64,
    mutuality: u64,
}

struct Slice<'a> {
    networks: &'a [SocialNetKind],
    alphabets: &'a [usize],
    profit_iterations: usize,
}

fn digests(slice: &Slice<'_>, seed: u64) -> Digests {
    let graphs: Vec<_> = slice.networks.iter().map(|k| k.generate(GRAPH_SEED)).collect();

    let mut h = Fnv::new();
    for g in &graphs {
        for &n_chars in slice.alphabets {
            // the benchmark's sweep: one request per trustor, and every
            // 2-characteristic combination exists as a task type
            let cfg = TransitivityConfig {
                n_characteristics: n_chars,
                extra_pair_tasks: n_chars * (n_chars - 1) / 2,
                requests_per_trustor: 1,
                seed,
                ..Default::default()
            };
            for method in SearchMethod::ALL {
                h.transitivity(&transitivity::run(g, method, &cfg));
            }
        }
    }
    let transitivity = h.0;

    let mut h = Fnv::new();
    for g in &graphs {
        for strategy in [Strategy::SuccessRateOnly, Strategy::NetProfit] {
            let cfg =
                ProfitConfig { iterations: slice.profit_iterations, seed, ..Default::default() };
            h.series(&profit::run(g, strategy, &cfg));
        }
    }
    let profit = h.0;

    let mut h = Fnv::new();
    for g in &graphs {
        for theta in THETAS {
            h.mutuality(&mutuality::run(g, &MutualityConfig { theta, seed, ..Default::default() }));
        }
    }
    let mutuality = h.0;

    Digests { transitivity, profit, mutuality }
}

fn check(slice: &Slice<'_>, seed: u64, want: Digests) {
    let got = digests(slice, seed);
    assert_eq!(got, want, "seed {seed}: outcomes moved, digests now {got:#x?}");
}

#[test]
fn twitter_slice_outcomes_are_pinned() {
    let slice =
        Slice { networks: &[SocialNetKind::Twitter], alphabets: &[4, 7], profit_iterations: 30 };
    let want = Digests {
        transitivity: 0x549b_b2fc_49a4_00f8,
        profit: 0x072c_4c3d_09db_f1ca,
        mutuality: 0x43d3_0fcf_cde6_6e3d,
    };
    check(&slice, 42, want);
}

#[test]
#[ignore = "the full paper_sim configuration; run in release"]
fn paper_sim_outcomes_are_pinned() {
    let slice =
        Slice { networks: &SocialNetKind::ALL, alphabets: &[4, 5, 6, 7], profit_iterations: 150 };
    let want_42 = Digests {
        transitivity: 0x56fd_2f47_d895_70da,
        profit: 0x300c_1c45_447b_cc9e,
        mutuality: 0x3845_6bba_0c91_0d13,
    };
    check(&slice, 42, want_42);
    let want_7 = Digests {
        transitivity: 0xaa63_90c5_2d9f_a7ec,
        profit: 0x12e1_07cf_14d5_a701,
        mutuality: 0xab58_8db0_3fb5_dc65,
    };
    check(&slice, 7, want_7);
}
