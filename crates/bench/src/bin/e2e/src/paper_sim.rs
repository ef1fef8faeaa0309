//! `paper_sim` — the paper's own evaluation, single thread, no service:
//! `SocialNetKind::generate` for the three networks (set-up), then the
//! Figs. 9–11 transitivity sweep (all methods × characteristic counts), the
//! Fig. 13 profit runs (both strategies) and the Fig. 7 mutuality runs.
//! `infer`, `transitivity`, `evaluate`, `siot-sim::search` and `siot-graph`
//! do all the work and the serving stack none: a serving-stack change must
//! leave this workload unmoved.

use crate::common::{Cfg, Report};
use crate::host::{proc_status_bytes, speed_probe_ns, PROBE_REFERENCE_NS};
use crate::stats;
use siot_graph::generate::social::SocialNetKind;
use siot_graph::SocialGraph;
use siot_sim::scenario::mutuality::{self, MutualityConfig, MutualityOutcome};
use siot_sim::scenario::profit::{self, ProfitConfig, Strategy};
use siot_sim::scenario::transitivity::{self, TransitivityConfig, TransitivityOutcome};
use siot_sim::{Roles, SearchMethod};
use std::hint::black_box;
use std::time::Instant;

pub const NAME: &str = "paper_sim";
/// Fig. 9–11 sweep range: total characteristics in the network.
const CHARACTERISTICS: [usize; 4] = [4, 5, 6, 7];
/// Fig. 7 reverse-evaluation thresholds.
const THETAS: [f64; 3] = [0.0, 0.3, 0.6];
/// Fig. 13 iterations per run and Fig. 9–11 requests per trustor: the
/// paper's 3000 and 5, cut so that a repetition takes about a second — this
/// host's speed shifts by a quarter for seconds at a time, and only the
/// median over many short repetitions is steady against that. The work per
/// iteration and per request does not depend on either count.
const PROFIT_ITERATIONS: usize = 150;
const SMOKE_PROFIT_ITERATIONS: usize = 50;
const REQUESTS_PER_TRUSTOR: usize = 1;
/// The three networks stand in for the paper's fixed datasets: the run seed
/// draws roles, tasks, records and requests, never the graphs.
const GRAPH_SEED: u64 = 42;

/// Everything one repetition computed — compared between repetitions.
#[derive(Debug, PartialEq)]
struct Outcomes {
    transitivity: Vec<(SocialNetKind, usize, SearchMethod, TransitivityOutcome)>,
    profit: Vec<Vec<f64>>,
    mutuality: Vec<MutualityOutcome>,
}

/// One repetition's timings.
struct Rep {
    /// Graph generation, scaled by a speed probe like the units.
    generate_s: f64,
    transitivity_s: f64,
    profit_s: f64,
    mutuality_s: f64,
    requests: u64,
    /// µs per trust request of every experiment unit (one scenario call).
    unit_us: Vec<f64>,
    /// Sum of the units' times, each scaled by its speed probe.
    normalised_s: f64,
    /// Median speed probe of the repetition.
    probe_ns: f64,
    outcomes: Outcomes,
}

fn one_rep(cfg: &Cfg) -> Rep {
    let seed = cfg.seed;
    let t = Instant::now();
    let graphs: Vec<(SocialNetKind, SocialGraph)> =
        SocialNetKind::ALL.into_iter().map(|kind| (kind, kind.generate(GRAPH_SEED))).collect();
    let generate_s = t.elapsed().as_secs_f64() * PROBE_REFERENCE_NS / speed_probe_ns();

    let mut requests = 0u64;
    let mut unit_us = Vec::new();
    let mut probes_ns = Vec::new();
    let mut normalised_s = 0.0;
    // every unit is timed next to a speed probe and scaled to the probe's
    // reference time: seconds at a constant host speed (see the probe)
    let mut unit = |began: Instant, n: usize| {
        let raw_s = began.elapsed().as_secs_f64();
        let probe_ns = speed_probe_ns();
        let scaled_s = raw_s * PROBE_REFERENCE_NS / probe_ns;
        probes_ns.push(probe_ns);
        normalised_s += scaled_s;
        requests += n as u64;
        unit_us.push(scaled_s * 1e6 / n.max(1) as f64);
    };
    let mut outcomes =
        Outcomes { transitivity: Vec::new(), profit: Vec::new(), mutuality: Vec::new() };

    let t = Instant::now();
    for (kind, g) in &graphs {
        for n_chars in CHARACTERISTICS {
            let config = TransitivityConfig {
                n_characteristics: n_chars,
                // every 2-characteristic combination exists as a task type,
                // so the exact-match baseline starves as the alphabet grows
                extra_pair_tasks: n_chars * (n_chars - 1) / 2,
                requests_per_trustor: REQUESTS_PER_TRUSTOR,
                seed,
                ..Default::default()
            };
            for method in SearchMethod::ALL {
                let began = Instant::now();
                let outcome = transitivity::run(black_box(g), method, &config);
                unit(began, outcome.inquired_per_trustor.len() * config.requests_per_trustor);
                outcomes.transitivity.push((*kind, n_chars, method, outcome));
            }
        }
    }
    let transitivity_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let iterations = cfg.size(PROFIT_ITERATIONS, SMOKE_PROFIT_ITERATIONS);
    for (_, g) in &graphs {
        for strategy in [Strategy::SuccessRateOnly, Strategy::NetProfit] {
            let config = ProfitConfig { iterations, seed, ..Default::default() };
            let began = Instant::now();
            let series = profit::run(black_box(g), strategy, &config);
            unit(began, iterations);
            outcomes.profit.push(series);
        }
    }
    let profit_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for (_, g) in &graphs {
        let trustors = Roles::paper_split(g, seed).trustors().len();
        for theta in THETAS {
            let config = MutualityConfig { theta, seed, ..Default::default() };
            let began = Instant::now();
            let outcome = mutuality::run(black_box(g), &config);
            unit(began, trustors * config.requests_per_trustor);
            outcomes.mutuality.push(outcome);
        }
    }
    let mutuality_s = t.elapsed().as_secs_f64();

    let probe_ns = stats::median(&probes_ns);
    Rep {
        generate_s,
        transitivity_s,
        profit_s,
        mutuality_s,
        requests,
        unit_us,
        normalised_s,
        probe_ns,
        outcomes,
    }
}

/// The paper's ordering, per network over the alphabet sweep: each proposed
/// transfer method succeeds at least as often as the exact-match baseline.
fn proposed_beats_baseline(outcomes: &Outcomes) -> bool {
    SocialNetKind::ALL.into_iter().all(|kind| {
        let rate = |m: SearchMethod| -> f64 {
            let cells = outcomes.transitivity.iter().filter(|c| c.0 == kind && c.2 == m);
            cells.map(|c| c.3.success_rate).sum()
        };
        rate(SearchMethod::Conservative) >= rate(SearchMethod::Traditional)
            && rate(SearchMethod::Aggressive) >= rate(SearchMethod::Traditional)
    })
}

/// `core.*` micro-rungs of the traced run: ns per call of the Eq. 2–4
/// inference and the Eq. 5–7 chain on paper-sized inputs.
fn core_calls(report: &mut Report) {
    use siot_core::infer::{infer_task, Experience};
    use siot_core::task::{CharacteristicId, Task, TaskId};
    let task = |id: u32, cs: &[u32]| {
        Task::uniform(TaskId(id), cs.iter().map(|&c| CharacteristicId(c))).expect("non-empty")
    };
    let known = [task(0, &[0, 1]), task(1, &[1, 2]), task(2, &[0, 3]), task(3, &[2, 3])];
    let experiences: Vec<Experience<'_>> =
        known.iter().zip([0.9, 0.6, 0.75, 0.4]).map(|(t, tw)| Experience::new(t, tw)).collect();
    let new_task = task(9, &[0, 1, 2]);
    const CALLS: usize = 200_000;
    let t = Instant::now();
    for _ in 0..CALLS {
        black_box(infer_task(black_box(&new_task), black_box(&experiences)).expect("covered"));
    }
    report.layer("core.infer_ns_per_call", "ns", t.elapsed().as_nanos() as f64 / CALLS as f64);
    let links = [0.9, 0.8, 0.7];
    let t = Instant::now();
    for _ in 0..CALLS {
        black_box(siot_core::transitivity::chain(black_box(&links)));
    }
    report.layer("core.chain_ns_per_call", "ns", t.elapsed().as_nanos() as f64 / CALLS as f64);
}

pub fn run(cfg: &Cfg) -> Report {
    let mut report = Report::new(NAME);
    // warm-up: discarded, but for its outcomes and the resident set
    let warm = one_rep(cfg);
    if !cfg.trace {
        report.push("rss_mb", "MB", proc_status_bytes("VmRSS") as f64 / 1e6);
    }
    report.tally.check(
        format!("{NAME}: proposed methods succeed at least as often as the exact-match baseline"),
        proposed_beats_baseline(&warm.outcomes),
    );

    if cfg.trace {
        let rep = one_rep(cfg);
        report.tally.ops(rep.requests, 0);
        report.tally.check(
            format!("{NAME}: two repetitions produce identical outcomes"),
            rep.outcomes == warm.outcomes,
        );
        report.layer("graph.generate_s", "s", rep.generate_s);
        report.layer("sim.transitivity_s", "s", rep.transitivity_s);
        report.layer("sim.profit_s", "s", rep.profit_s);
        report.layer("sim.mutuality_s", "s", rep.mutuality_s);
        core_calls(&mut report);
        return report;
    }

    let mut measured_s = 0.0;
    let mut done = 0;
    let (mut raw, mut probes) = (Vec::new(), Vec::new());
    while cfg.more_reps(done, measured_s) {
        let rep = one_rep(cfg);
        let wall_s = rep.transitivity_s + rep.profit_s + rep.mutuality_s;
        measured_s += wall_s;
        report.tally.ops(rep.requests, 0);
        report.tally.check(
            format!("{NAME} rep {}: outcomes identical to the first repetition's", done + 1),
            rep.outcomes == warm.outcomes,
        );
        report.push("setup_s", "s", rep.generate_s);
        report.push("throughput", "1/s", rep.requests as f64 / rep.normalised_s);
        raw.push(rep.requests as f64 / wall_s);
        probes.push(rep.probe_ns);
        report.push_latency(
            rep.unit_us,
            "µs per trust request of each experiment unit (one scenario call)",
        );
        done += 1;
    }
    report.note("setup = SocialNetKind::generate for the three networks");
    report.note(format!(
        "every time of this workload is scaled to a constant host speed by a probe timed next to \
         it (median probe {:.0} ns, reference {PROBE_REFERENCE_NS} ns); unscaled wall-clock \
         throughput: median {:.0} requests/s",
        stats::median(&probes),
        stats::median(&raw)
    ));
    report.note("rss = resident set after the first repetition");
    report.note(format!(
        "throughput = trust requests/s over the transitivity sweep (3 networks × {} alphabets × \
         3 methods), profit (3 × 2 strategies × {} iterations) and mutuality (3 × 3 thresholds), \
         single thread",
        CHARACTERISTICS.len(),
        cfg.size(PROFIT_ITERATIONS, SMOKE_PROFIT_ITERATIONS)
    ));
    report
}
