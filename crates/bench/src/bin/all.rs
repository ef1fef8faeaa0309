//! Runs the entire evaluation and writes CSV dumps into `bench_out/`.
//!
//! This is the one-command reproduction of §5: every table and figure, as
//! text on stdout and as machine-readable series under `bench_out/`.

use siot_bench::fmt::{f2, pct, write_series_csv, Table};
use siot_bench::paper::{
    CHARACTERISTIC_SWEEP, FIG13_ITERATIONS, FIG15_COMPETENCE, FIG15_PHASES, TABLE1, TABLE2,
    TESTBED_RUNS,
};
use siot_bench::runner::{feature_transitivity, fig7, network, seed_from_env, transitivity_sweep};
use siot_graph::generate::social::SocialNetKind;
use siot_graph::metrics::ConnectivityStats;
use siot_iot::experiment::{fragments, inference, light};
use siot_sim::scenario::{environment, profit};
use siot_sim::SearchMethod;
use std::path::Path;

fn main() {
    let seed = seed_from_env();
    let out_dir = Path::new("bench_out");
    println!("Running the full evaluation (seed {seed}); CSVs go to {}\n", out_dir.display());

    table1(seed, out_dir);
    fig7_all(seed, out_dir);
    fig8(seed, out_dir);
    sweep(seed, out_dir);
    table2(seed, out_dir);
    fig13(seed, out_dir);
    fig14(seed, out_dir);
    fig15(seed, out_dir);
    fig16(seed, out_dir);
    println!(
        "\nDone. Tables print measured | paper side by side; every figure's series is in {}.",
        out_dir.display()
    );
}

type MeasuredFmt = fn(&ConnectivityStats) -> String;
type PaperFmt = fn(&siot_bench::paper::Table1Row) -> String;

fn table1(seed: u64, dir: &Path) {
    let mut t =
        Table::new("Table 1 (measured | paper)", &["metric", "Facebook", "Google+", "Twitter"]);
    let stats: Vec<ConnectivityStats> = SocialNetKind::ALL
        .iter()
        .map(|&k| ConnectivityStats::compute(&network(k, seed), seed))
        .collect();
    let rows: [(&str, MeasuredFmt, PaperFmt); 8] = [
        ("Nodes", |s| s.nodes.to_string(), |p| p.nodes.to_string()),
        ("Edges", |s| s.edges.to_string(), |p| p.edges.to_string()),
        ("Average Degree", |s| f2(s.average_degree), |p| f2(p.average_degree)),
        ("Diameter", |s| s.diameter.to_string(), |p| p.diameter.to_string()),
        ("Avg Path Length", |s| f2(s.average_path_length), |p| f2(p.average_path_length)),
        ("Avg Clustering", |s| f2(s.average_clustering), |p| f2(p.average_clustering)),
        ("Modularity", |s| f2(s.modularity), |p| f2(p.modularity)),
        ("Communities", |s| s.communities.to_string(), |p| p.communities.to_string()),
    ];
    for (name, m, p) in rows {
        t.row(&[
            name.to_string(),
            format!("{} | {}", m(&stats[0]), p(&TABLE1[0])),
            format!("{} | {}", m(&stats[1]), p(&TABLE1[1])),
            format!("{} | {}", m(&stats[2]), p(&TABLE1[2])),
        ]);
    }
    t.print();
    t.write_csv(&dir.join("table1.csv")).expect("csv written");
    println!();
}

fn fig7_all(seed: u64, dir: &Path) {
    let results = fig7(seed);
    let mut t = Table::new("Fig. 7", &["network", "theta", "success", "unavailable", "abuse"]);
    for (kind, theta, o) in &results {
        t.row(&[
            kind.name().into(),
            format!("{theta:.1}"),
            pct(o.success_rate),
            pct(o.unavailable_rate),
            pct(o.abuse_rate),
        ]);
    }
    t.print();
    t.write_csv(&dir.join("fig7.csv")).expect("csv written");
    println!();
}

fn fig8(seed: u64, dir: &Path) {
    let out = inference::run(&inference::InferenceConfig { runs: TESTBED_RUNS, seed });
    let xs: Vec<f64> = (1..=out.with_model.len()).map(|i| i as f64).collect();
    write_series_csv(
        &dir.join("fig8.csv"),
        "run",
        &xs,
        &[("with_model", &out.with_model), ("without_model", &out.without_model)],
    )
    .expect("csv written");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "Fig. 8: honest selection with model {:.1}% vs without {:.1}% (paper: ≫ vs ≈50%)\n",
        mean(&out.with_model),
        mean(&out.without_model)
    );
}

fn sweep(seed: u64, dir: &Path) {
    let cells = transitivity_sweep(seed);
    for (fig, metric, get) in [
        (
            "fig9",
            "success rate",
            (|o: &siot_sim::scenario::transitivity::TransitivityOutcome| o.success_rate)
                as fn(_) -> f64,
        ),
        ("fig10", "unavailable rate", |o| o.unavailable_rate),
        ("fig11", "avg potential trustees", |o| o.avg_potential_trustees),
    ] {
        let mut t = Table::new(&format!("{fig}: {metric}"), &["series", "4", "5", "6", "7"]);
        for kind in SocialNetKind::ALL {
            for method in SearchMethod::ALL {
                let mut row = vec![format!("{} {}", kind.name(), method.name())];
                for &n in &CHARACTERISTIC_SWEEP {
                    let cell = cells
                        .iter()
                        .find(|c| c.kind == kind && c.method == method && c.n_characteristics == n)
                        .expect("full sweep");
                    row.push(f2(get(&cell.outcome)));
                }
                t.row(&row);
            }
        }
        t.print();
        t.write_csv(&dir.join(format!("{fig}.csv"))).expect("csv written");
        println!();
    }
}

fn table2(seed: u64, dir: &Path) {
    let results = feature_transitivity(seed);
    let mut t = Table::new(
        "Table 2 (measured | paper)",
        &["method", "metric", "Facebook", "Google+", "Twitter"],
    );
    for (mi, method) in SearchMethod::ALL.iter().enumerate() {
        let rows: Vec<_> = results.iter().filter(|(_, m, _)| m == method).collect();
        t.row(&[
            method.name().into(),
            "success".into(),
            format!("{} | {}", pct(rows[0].2.success_rate), pct(TABLE2[mi].success[0])),
            format!("{} | {}", pct(rows[1].2.success_rate), pct(TABLE2[mi].success[1])),
            format!("{} | {}", pct(rows[2].2.success_rate), pct(TABLE2[mi].success[2])),
        ]);
        t.row(&[
            method.name().into(),
            "unavailable".into(),
            format!("{} | {}", pct(rows[0].2.unavailable_rate), pct(TABLE2[mi].unavailable[0])),
            format!("{} | {}", pct(rows[1].2.unavailable_rate), pct(TABLE2[mi].unavailable[1])),
            format!("{} | {}", pct(rows[2].2.unavailable_rate), pct(TABLE2[mi].unavailable[2])),
        ]);
        t.row(&[
            method.name().into(),
            "trustees".into(),
            format!("{} | {}", f2(rows[0].2.avg_potential_trustees), f2(TABLE2[mi].trustees[0])),
            format!("{} | {}", f2(rows[1].2.avg_potential_trustees), f2(TABLE2[mi].trustees[1])),
            format!("{} | {}", f2(rows[2].2.avg_potential_trustees), f2(TABLE2[mi].trustees[2])),
        ]);
    }
    t.print();
    t.write_csv(&dir.join("table2.csv")).expect("csv written");

    // Fig. 12 from the same run
    let mut f12 = Table::new("Fig. 12: inquired nodes per trustor (Facebook)", &["method", "mean"]);
    for method in SearchMethod::ALL {
        let (_, _, o) = results
            .iter()
            .find(|(k, m, _)| *k == SocialNetKind::Facebook && *m == method)
            .expect("facebook present");
        let mut xs: Vec<f64> = o.inquired_per_trustor.iter().map(|&x| x as f64).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        f12.row(&[method.name().into(), format!("{mean:.1}")]);
        let idx: Vec<f64> = (0..xs.len()).map(|i| i as f64).collect();
        write_series_csv(
            &dir.join(format!("fig12_{}.csv", method.name().to_lowercase())),
            "sorted_trustor",
            &idx,
            &[("inquired", &xs)],
        )
        .expect("csv written");
    }
    f12.print();
    println!();
}

fn fig13(seed: u64, dir: &Path) {
    let cfg = profit::ProfitConfig { iterations: FIG13_ITERATIONS, seed, ..Default::default() };
    let mut t = Table::new(
        "Fig. 13: converged net profit",
        &["network", "first strategy", "second strategy"],
    );
    for kind in SocialNetKind::ALL {
        let g = network(kind, seed);
        let s1 = profit::run(&g, profit::Strategy::SuccessRateOnly, &cfg);
        let s2 = profit::run(&g, profit::Strategy::NetProfit, &cfg);
        let tail = |v: &[f64]| v[v.len() - 200..].iter().sum::<f64>() / 200.0;
        t.row(&[kind.name().into(), format!("{:+.3}", tail(&s1)), format!("{:+.3}", tail(&s2))]);
        let xs: Vec<f64> = (0..s1.len()).map(|i| i as f64).collect();
        write_series_csv(
            &dir.join(format!("fig13_{}.csv", kind.name().to_lowercase().replace('+', "plus"))),
            "iteration",
            &xs,
            &[("first_strategy", &s1), ("second_strategy", &s2)],
        )
        .expect("csv written");
    }
    t.print();
    println!();
}

fn fig14(seed: u64, dir: &Path) {
    let out = fragments::run(&fragments::FragmentsConfig {
        rounds: TESTBED_RUNS,
        seed,
        ..Default::default()
    });
    let xs: Vec<f64> = (1..=out.with_model.len()).map(|i| i as f64).collect();
    write_series_csv(
        &dir.join("fig14.csv"),
        "run",
        &xs,
        &[("with_model_ms", &out.with_model), ("without_model_ms", &out.without_model)],
    )
    .expect("csv written");
    let tail = |v: &[f64]| v[v.len() / 2..].iter().sum::<f64>() / (v.len() - v.len() / 2) as f64;
    println!(
        "Fig. 14: late-run active time with model {:.0} ms vs without {:.0} ms (paper: drops vs stays ~700 ms)\n",
        tail(&out.with_model),
        tail(&out.without_model)
    );
}

fn fig15(seed: u64, dir: &Path) {
    let out = environment::run(&environment::EnvironmentConfig {
        competence: FIG15_COMPETENCE,
        phases: FIG15_PHASES.to_vec(),
        seed,
        ..Default::default()
    });
    let xs: Vec<f64> = (0..out.len()).map(|i| i as f64).collect();
    write_series_csv(
        &dir.join("fig15.csv"),
        "iteration",
        &xs,
        &[
            ("ideal", &out.ideal),
            ("traditional", &out.traditional),
            ("proposed", &out.proposed),
            ("environment", &out.environment),
        ],
    )
    .expect("csv written");
    println!(
        "Fig. 15: hostile-phase estimates — ideal {:.2}, traditional {:.2}, proposed {:.2} (paper: 0.8 / 0.32 / 0.8)\n",
        environment::window_mean(&out.ideal, 150, 200),
        environment::window_mean(&out.traditional, 150, 200),
        environment::window_mean(&out.proposed, 150, 200),
    );
}

fn fig16(seed: u64, dir: &Path) {
    let out = light::run(&light::LightConfig { rounds: TESTBED_RUNS, seed, ..Default::default() });
    let xs: Vec<f64> = (1..=out.with_model.len()).map(|i| i as f64).collect();
    write_series_csv(
        &dir.join("fig16.csv"),
        "run",
        &xs,
        &[
            ("with_model", &out.with_model),
            ("without_model", &out.without_model),
            ("light", &out.light),
        ],
    )
    .expect("csv written");
    let last: usize = 40;
    let tail = |v: &[f64]| v[last..].iter().sum::<f64>() / (v.len() - last) as f64;
    println!(
        "Fig. 16: final light period net profit with model {:.0} vs without {:.0} (paper: recovers vs stays low)\n",
        tail(&out.with_model),
        tail(&out.without_model)
    );
}
