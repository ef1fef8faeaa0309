//! Behavioural ablations of the model's design choices — the Eq. 7
//! two-hop combiner, characteristic-level inference, Cannikin environment
//! aggregation, Louvain community detection, the reverse-evaluation θ and
//! the three transfer methods: what each of the paper's ingredients buys,
//! measured by swapping one piece for its baseline.

use siot_bench::fmt::{f2, pct, Table};
use siot_bench::runner::seed_from_env;
use siot_core::environment::{cannikin, mean_env, EnvIndicator};
use siot_core::prelude::*;
use siot_graph::community::label_propagation;
use siot_graph::community::louvain::Louvain;
use siot_graph::generate::social::SocialNetKind;
use siot_graph::metrics::modularity;
use siot_sim::scenario::mutuality::{self, MutualityConfig};
use siot_sim::scenario::transitivity::{run, TransitivityConfig};
use siot_sim::SearchMethod;

fn main() {
    let seed = seed_from_env();
    eq7_vs_product();
    inference_vs_whole_task();
    cannikin_vs_mean();
    louvain_vs_label_prop(seed);
    transitivity_methods(seed);
    theta_sweep(seed);
}

/// Eq. 7 keeps the mistrust-agreement term the product rule drops.
fn eq7_vs_product() {
    let mut t = Table::new(
        "Ablation: Eq. 7 two-hop combiner vs Eq. 5 product",
        &["link A", "link B", "Eq. 7", "product", "difference"],
    );
    for (a, b) in [(0.9, 0.9), (0.9, 0.5), (0.5, 0.5), (0.2, 0.8), (0.2, 0.2)] {
        let eq7 = two_hop(a, b);
        let product = traditional_chain(&[a, b]);
        t.row(&[f2(a), f2(b), f2(eq7), f2(product), f2(eq7 - product)]);
    }
    t.print();
    println!("agreeing mistrust (0.2, 0.2) is information under Eq. 7, noise under the product\n");
}

/// Characteristic-level inference vs refusing unseen task types.
fn inference_vs_whole_task() {
    let gps = Task::uniform(TaskId(0), [CharacteristicId(0)]).expect("non-empty");
    let img = Task::uniform(TaskId(1), [CharacteristicId(1)]).expect("non-empty");
    let exp = [Experience::new(&gps, 0.9), Experience::new(&img, 0.7)];
    let traffic =
        Task::uniform(TaskId(2), [CharacteristicId(0), CharacteristicId(1)]).expect("non-empty");
    let mut t = Table::new(
        "Ablation: characteristic inference vs whole-task records",
        &["model", "trust toward unseen task"],
    );
    t.row(&["whole-task (no transfer)".into(), "unknown (delegation refused)".into()]);
    t.row(&[
        "characteristic-based (Eq. 4)".into(),
        f2(infer_task(&traffic, &exp).expect("covered")),
    ]);
    t.print();
    println!();
}

/// Cannikin (min) vs mean environment aggregation under one weak relay.
fn cannikin_vs_mean() {
    let envs = [
        EnvIndicator::saturating(1.0),
        EnvIndicator::saturating(1.0),
        EnvIndicator::saturating(0.25),
    ];
    let observed = 0.2; // a competent (0.8) trustee throttled by the weak relay
    let mut t = Table::new(
        "Ablation: Cannikin (min) vs mean environment aggregation (Eq. 29)",
        &["aggregation", "indicator", "corrected estimate", "true competence"],
    );
    for (name, agg) in [("cannikin", cannikin(&envs)), ("mean", mean_env(&envs))] {
        let corrected = (observed / agg.value()).clamp(0.0, 1.0);
        t.row(&[name.into(), f2(agg.value()), f2(corrected), f2(0.8)]);
    }
    t.print();
    println!("the worst link dominates the outcome, so min[·] reconstructs competence; mean under-credits\n");
}

/// Community detection choice behind the Table 1 rows.
fn louvain_vs_label_prop(seed: u64) {
    let mut t = Table::new(
        "Ablation: Louvain vs label propagation (Table 1 communities)",
        &["network", "louvain Q", "louvain #", "label-prop Q", "label-prop #"],
    );
    for kind in SocialNetKind::ALL {
        let g = kind.generate(seed);
        let lv = Louvain::new(seed).run(&g);
        let lp = label_propagation(&g, seed, 100);
        let lp_q = modularity(&g, &lp);
        let lp_count = lp.iter().copied().max().map_or(0, |m| m as usize + 1);
        t.row(&[
            kind.name().into(),
            f2(lv.modularity),
            lv.community_count().to_string(),
            f2(lp_q),
            lp_count.to_string(),
        ]);
    }
    t.print();
    println!();
}

/// Extension beyond Fig. 7: a fine θ sweep exposing the full
/// abuse-vs-availability trade-off curve of the reverse evaluation.
fn theta_sweep(seed: u64) {
    let g = SocialNetKind::Twitter.generate(seed);
    let mut t = Table::new(
        "Extension: fine θ sweep of the reverse evaluation (Twitter)",
        &["theta", "success", "unavailable", "abuse"],
    );
    for theta in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8] {
        let out = mutuality::run(
            &g,
            &MutualityConfig { theta, seed, requests_per_trustor: 5, ..Default::default() },
        );
        t.row(&[f2(theta), pct(out.success_rate), pct(out.unavailable_rate), pct(out.abuse_rate)]);
    }
    t.print();
    println!("the operating point is a policy choice: θ≈0.3 halves abuse at ~12% unavailability\n");
}

/// The three transfer methods head-to-head at one sweep point.
fn transitivity_methods(seed: u64) {
    let g = SocialNetKind::Twitter.generate(seed);
    let cfg = TransitivityConfig {
        n_characteristics: 6,
        extra_pair_tasks: 15,
        seed,
        ..Default::default()
    };
    let mut t = Table::new(
        "Ablation: trust-transfer method (Twitter, 6 characteristics)",
        &["method", "success", "unavailable", "potential trustees"],
    );
    for method in SearchMethod::ALL {
        let out = run(&g, method, &cfg);
        t.row(&[
            method.name().into(),
            pct(out.success_rate),
            pct(out.unavailable_rate),
            f2(out.avg_potential_trustees),
        ]);
    }
    t.print();
}
