//! `e2e` — the repo benchmark: an end-to-end load generator over the trust
//! serving stack and the paper's simulations, a per-layer ladder, and a diff
//! gate. Everything is measured from outside, through the library's public
//! functions; the server side runs in-process on loopback because the repo
//! ships no server binary. See `README.md` next to this package's manifest.
//!
//! ```text
//! e2e --workload W --seed N --seconds S --trace 0|1     one run, result line last (BENCHMARK.json)
//! e2e run   [--workload W] [--seed N] [--seconds S] [--reps R] [--out FILE] [--smoke]
//! e2e trace [--workload W] [--seed N] [--out FILE] [--smoke]
//! e2e diff PARENT.json CHANGE.json [--benchmark BENCHMARK.json]
//! ```

mod common;
mod diff;
mod gen;
mod host;
mod ingest_local;
mod ingest_wire_durable;
mod json;
mod ladder;
mod layers;
mod paper_sim;
mod read_mix;
mod sampler;
mod sched;
mod stats;
mod trace;

use common::{Cfg, Report};
use json::Json;
use std::process::ExitCode;
use std::time::Instant;

/// A workload's name and entry point.
type Workload = (&'static str, fn(&Cfg) -> Report);

/// The workloads, in the order a full set runs them.
const WORKLOADS: [Workload; 4] = [
    (ingest_local::NAME, ingest_local::run),
    (ingest_wire_durable::NAME, ingest_wire_durable::run),
    (read_mix::NAME, read_mix::run),
    (paper_sim::NAME, paper_sim::run),
];

const DEFAULT_SEED: u64 = 42;
/// Measured seconds per workload when neither `--seconds` nor `--reps` is
/// given — `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  e2e --workload W --seed N --seconds S --trace 0|1
  e2e run   [--workload W] [--seed N] [--seconds S] [--reps R] [--out FILE] [--smoke]
  e2e trace [--workload W] [--seed N] [--out FILE] [--smoke]
  e2e diff PARENT.json CHANGE.json [--benchmark BENCHMARK.json]
workloads: ingest_local ingest_wire_durable read_mix paper_sim";

/// Parsed command line: flags with a value, bare flags, positionals.
struct Args {
    flags: Vec<(String, String)>,
    bare: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    const BARE: [&'static str; 2] = ["--smoke", "--poison-reference"];

    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args { flags: Vec::new(), bare: Vec::new(), positional: Vec::new() };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if Self::BARE.contains(&arg.as_str()) {
                out.bare.push(arg);
            } else if arg.starts_with("--") {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                out.flags.push((arg, value));
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| v.parse::<T>().map_err(|_| format!("{flag}: cannot read {v:?}")))
            .transpose()
    }

    fn has(&self, bare: &str) -> bool {
        self.bare.iter().any(|b| b == bare)
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(f, _)| !known.contains(&f.as_str())) {
            Some((flag, _)) => Err(format!("unknown option {flag}")),
            None => Ok(()),
        }
    }

    fn cfg(&self, trace: bool) -> Result<Cfg, String> {
        let seconds = self.parsed::<f64>("--seconds")?.unwrap_or(DEFAULT_SECONDS);
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds: {seconds} is outside (0, 3600]"));
        }
        Ok(Cfg {
            seed: self.parsed("--seed")?.unwrap_or(DEFAULT_SEED),
            seconds,
            reps: self.parsed("--reps")?,
            smoke: self.has("--smoke"),
            trace,
            poison_reference: self.has("--poison-reference"),
        })
    }

    /// The selected workloads: the named one, or all four.
    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.get("--workload") {
            None => Ok(WORKLOADS.to_vec()),
            Some(name) => WORKLOADS
                .iter()
                .find(|(n, _)| *n == name)
                .map(|w| vec![*w])
                .ok_or_else(|| format!("unknown workload {name:?}")),
        }
    }
}

/// Runs one workload and prints its metrics by name and unit.
fn run_one(name: &str, run: fn(&Cfg) -> Report, cfg: &Cfg) -> Report {
    println!("== {name} (seed {}) ==", cfg.seed);
    let started = Instant::now();
    let mut report = run(cfg);
    if cfg.trace {
        layers::complete(cfg, &mut report);
    }
    print_report(&report);
    println!("   {name} took {:.1} s", started.elapsed().as_secs_f64());
    report
}

fn print_report(report: &Report) {
    for s in &report.end_to_end {
        let sum = s.summary();
        println!(
            "  {:<18} {:>14.3} {:<4} (q1 {:.3}, q3 {:.3}, n {}, spread {:.1} %)",
            s.name,
            sum.median,
            s.unit,
            sum.q1,
            sum.q3,
            sum.n,
            100.0 * sum.spread()
        );
    }
    for &(name, unit, value) in &report.per_layer {
        let moves = layers::PER_LAYER.iter().find(|k| k.name == name).map_or("", |k| k.moves);
        println!("  {name:<34} {value:>16.3} {unit:<6} → {moves}");
    }
    for entry in report.trace.by_name() {
        println!(
            "  span {:<22} ×{:<6} total {:>9.4} s  self {:>9.4} s",
            entry.name, entry.count, entry.total_s, entry.self_s
        );
    }
    let t = &report.tally;
    println!(
        "  error_share        {} failed / {} attempted = {}",
        t.failed,
        t.attempted,
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for (check, ok) in &t.checks {
        if !ok {
            println!("  CHECK FAILED: {check}");
        }
    }
    for note in &report.notes {
        println!("  note: {note}");
    }
}

/// Writes the span file of a traced run.
fn write_trace(report: &Report) -> Result<(), String> {
    if report.trace.span_count() == 0 {
        return Ok(());
    }
    let path = format!("bench_out/trace-{}.json", report.workload);
    std::fs::create_dir_all("bench_out")
        .and_then(|()| std::fs::write(&path, report.trace.to_json().pretty()))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("  {} spans written to {path}", report.trace.span_count());
    Ok(())
}

/// The driver's contract: one workload, the result object on the last line.
fn bench(args: &Args) -> Result<bool, String> {
    args.reject_unknown(&["--workload", "--seed", "--seconds", "--trace"])?;
    let trace = match args.get("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
    };
    let workloads = args.workloads()?;
    let [(name, run)] = workloads[..] else {
        return Err("--workload is required".into());
    };
    let report = run_one(name, run, &args.cfg(trace)?);
    if trace {
        write_trace(&report)?;
    }
    let metrics: Vec<(&str, Json)> = if trace {
        report
            .per_layer
            .iter()
            .map(|&(name, unit, value)| (name, metric_json(value, unit)))
            .collect()
    } else {
        report
            .end_to_end
            .iter()
            .map(|s| (s.name, metric_json(s.summary().median, s.unit)))
            .collect()
    };
    let line = Json::obj([
        ("correct", Json::Bool(report.tally.correct())),
        ("attempted", Json::Num(report.tally.attempted.max(1) as f64)),
        ("failed", Json::Num(report.tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.compact());
    Ok(report.tally.correct())
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", value.into()), ("unit", Json::str(unit))])
}

/// One workload of a set in a process of its own: resident set, allocator
/// state and thread-local arenas of one workload must not leak into the
/// next one's numbers. The child is this executable with `--workload`; it
/// prints as it goes and leaves its result entry in a scratch file.
fn run_in_child(mode: &str, name: &str, args: &Args) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    std::fs::create_dir_all("bench_out").map_err(|e| format!("bench_out: {e}"))?;
    let out = format!("bench_out/e2e-set-{}-{name}.json", std::process::id());
    let mut child = std::process::Command::new(exe);
    child.args([mode, "--workload", name, "--out", &out]);
    for (flag, value) in args.flags.iter().filter(|(f, _)| f != "--workload" && f != "--out") {
        child.args([flag, value]);
    }
    // `status()` waits for the child to end
    let status = child.args(&args.bare).status().map_err(|e| format!("{name}: {e}"))?;
    let file = std::fs::read_to_string(&out)
        .map_err(|e| format!("{name}: no result ({e}), child ended with {status}"))
        .and_then(|text| Json::parse(&text));
    let _ = std::fs::remove_file(&out);
    let entry = file?
        .get("workloads")
        .and_then(Json::as_arr)
        .and_then(|w| w.first().cloned())
        .ok_or_else(|| format!("{name}: empty result file"))?;
    Ok((entry, status.success()))
}

/// `run` and `trace`: the selected workloads into one result file.
fn run_set(args: &Args, trace: bool) -> Result<bool, String> {
    args.reject_unknown(&["--workload", "--seed", "--seconds", "--reps", "--out"])?;
    let cfg = args.cfg(trace)?;
    let mode = if trace { "trace" } else { "run" };
    let started = Instant::now();
    let selected = args.workloads()?;
    let mut entries = Vec::new();
    let mut correct = true;
    for &(name, run) in &selected {
        let (entry, ok) = if selected.len() > 1 {
            run_in_child(mode, name, args)?
        } else {
            let report = run_one(name, run, &cfg);
            if trace {
                write_trace(&report)?;
            }
            (report.to_json(), report.tally.correct())
        };
        entries.push(entry);
        correct &= ok;
    }
    let wall_s = started.elapsed().as_secs_f64();
    if selected.len() > 1 {
        println!(
            "== set: {} workloads in {wall_s:.1} s, checks {} ==",
            selected.len(),
            if correct { "passed" } else { "FAILED" }
        );
    }
    if let Some(out) = args.get("--out") {
        let file = Json::obj([
            ("host", host::metadata()),
            (
                "run",
                Json::obj([
                    ("mode", Json::str(mode)),
                    ("seed", Json::Num(cfg.seed as f64)),
                    ("seconds", cfg.seconds.into()),
                    ("reps", cfg.reps.map_or(Json::Null, Into::into)),
                    ("smoke", Json::Bool(cfg.smoke)),
                    ("fsync_policy", Json::str(ingest_wire_durable::FSYNC_POLICY)),
                    ("wall_s", wall_s.into()),
                ]),
            ),
            ("workloads", Json::Arr(entries)),
        ]);
        std::fs::write(out, file.pretty()).map_err(|e| format!("{out}: {e}"))?;
        println!("   results written to {out}");
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let command = match argv.peek().map(String::as_str) {
        Some("run" | "trace" | "diff") => argv.next(),
        _ => None,
    };
    let outcome = Args::parse(argv).and_then(|args| match command.as_deref() {
        Some("run") => run_set(&args, false),
        Some("trace") => run_set(&args, true),
        Some("diff") => diff::run(&args.positional, args.get("--benchmark")),
        _ if args.flags.is_empty() && args.positional.is_empty() => Err(USAGE.into()),
        _ => bench(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn command_line() {
        let a = args("--workload read_mix --seed 9 --seconds 2.5 --trace 1 --smoke").unwrap();
        let cfg = a.cfg(true).unwrap();
        assert_eq!((cfg.seed, cfg.seconds, cfg.reps, cfg.smoke), (9, 2.5, None, true));
        assert_eq!(a.workloads().unwrap()[0].0, "read_mix");
        assert_eq!(args("").unwrap().workloads().unwrap().len(), 4);
        assert_eq!(args("").unwrap().cfg(false).unwrap().seed, DEFAULT_SEED);
        assert!(args("--seed").is_err());
        assert!(args("--seed x").unwrap().cfg(false).is_err());
        assert!(args("--seconds 0").unwrap().cfg(false).is_err());
        assert!(args("--workload nope").unwrap().workloads().is_err());
        assert!(args("--reps 3 --bogus 1").unwrap().reject_unknown(&["--reps"]).is_err());
        assert_eq!(args("a.json b.json").unwrap().positional, ["a.json", "b.json"]);
    }

    fn smoke(trace: bool) -> Cfg {
        Cfg { seed: 5, seconds: 1.0, reps: None, smoke: true, trace, poison_reference: false }
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(list: &Json) -> Vec<(String, String)> {
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_owned();
        list.as_arr().unwrap().iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
    }

    /// The `--smoke` set: every workload, gated and traced, passes all its
    /// checks and reports exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn smoke_set_passes_and_matches_benchmark_json() {
        let benchmark = benchmark_json();
        let mut end_to_end = declared(benchmark.get("end_to_end").unwrap());
        end_to_end.sort();
        let per_layer = declared(benchmark.get("per_layer").unwrap());
        let workloads: Vec<&str> = benchmark
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.0));
        let seconds = benchmark.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(seconds, Some(DEFAULT_SECONDS));
        let began = Instant::now();
        for (name, run) in WORKLOADS {
            let gated = run_one(name, run, &smoke(false));
            assert!(gated.tally.correct(), "{name}: {:?}", gated.tally.checks);
            let mut got: Vec<(String, String)> =
                gated.end_to_end.iter().map(|s| (s.name.to_owned(), s.unit.to_owned())).collect();
            got.sort();
            assert_eq!(got, end_to_end, "{name}: end-to-end metrics");
            assert!(gated.end_to_end.iter().all(|s| s.summary().median > 0.0), "{name}: never 0");

            let traced = run_one(name, run, &smoke(true));
            assert!(traced.tally.correct(), "{name} traced: {:?}", traced.tally.checks);
            let got: Vec<(String, String)> =
                traced.per_layer.iter().map(|m| (m.0.to_owned(), m.1.to_owned())).collect();
            assert_eq!(got, per_layer, "{name}: per-layer metrics");
            assert_eq!(traced.trace.span_count() > 0, name != paper_sim::NAME, "{name}: spans");
        }
        let took = began.elapsed().as_secs_f64();
        assert!(took < 20.0, "smoke set (gated + traced) took {took:.1} s");
    }

    /// A reference folded on another seed than the service saw must fail
    /// the state checks and nothing else.
    #[test]
    fn a_wrong_reference_fails_the_state_check() {
        let cfg = Cfg { poison_reference: true, ..smoke(false) };
        let report = ingest_local::run(&cfg);
        assert!(!report.tally.correct());
        assert!(report.tally.failed >= 1 && report.tally.failed <= 2, "{:?}", report.tally);
        let failed: Vec<_> = report.tally.checks.iter().filter(|c| !c.1).collect();
        assert!(failed.iter().all(|c| c.0.contains("sequential fold")), "{failed:?}");
    }
}
