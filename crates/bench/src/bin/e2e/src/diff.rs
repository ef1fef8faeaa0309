//! `e2e diff PARENT.json CHANGE.json` — one row per workload × end-to-end
//! metric with both medians and quartiles, the ratio with its base, and a
//! verdict. Bounds and directions are read from `BENCHMARK.json`; nothing
//! about the metrics is written down a second time here.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The parent's own inter-quartile spread exceeds the bound and the two
    /// sets of runs overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: a metric's repetitions on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub values: Vec<f64>,
}

/// Compares `change` against `parent` for a metric where `higher` values
/// are better (or lower, when false) and a relative worsening of the median
/// beyond `bound` counts as a regression.
pub fn verdict(parent: &Side, change: &Side, higher: bool, bound: f64) -> Verdict {
    // orient so that larger is always better
    let sign = if higher { 1.0 } else { -1.0 };
    let gain = sign * (change.median - parent.median) / parent.median.abs();
    let spread = (parent.q3 - parent.q1).abs() / parent.median.abs();
    let all = |better: bool| {
        change.values.iter().all(|&c| {
            parent.values.iter().all(|&p| {
                if better {
                    sign * (c - p) > 0.0
                } else {
                    sign * (c - p) < 0.0
                }
            })
        })
    };
    if spread > bound {
        return if all(true) {
            Verdict::Better
        } else if all(false) && gain < -bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn side(metric: &Json) -> Option<Side> {
    Some(Side {
        median: metric.get("median")?.as_f64()?,
        q1: metric.get("q1")?.as_f64()?,
        q3: metric.get("q3")?.as_f64()?,
        values: metric.get("values")?.as_arr()?.iter().filter_map(Json::as_f64).collect(),
    })
}

fn workload<'a>(file: &'a Json, name: &str) -> Option<&'a Json> {
    file.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
}

/// The rows of the comparison and whether the gate holds.
pub fn compare(
    benchmark: &Json,
    parent: &Json,
    change: &Json,
) -> Result<(Vec<String>, bool), String> {
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?;
    let mut rows = Vec::new();
    let mut holds = true;
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
        let (Some(p), Some(c)) = (workload(parent, name), workload(change, name)) else {
            rows.push(format!("{name:<20} absent from one of the files: not compared"));
            continue;
        };
        for m in metrics {
            let metric = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let sides = (
                p.get("end_to_end").and_then(|e| e.get(metric)).and_then(side),
                c.get("end_to_end").and_then(|e| e.get(metric)).and_then(side),
            );
            let (Some(ps), Some(cs)) = sides else {
                rows.push(format!("{name:<20} {metric:<16} missing: counts as worse"));
                holds = false;
                continue;
            };
            let v = verdict(&ps, &cs, higher, bound);
            holds &= v != Verdict::Worse;
            rows.push(format!(
                "{name:<20} {metric:<16} parent {:>12.3} [{:.3}, {:.3}]  change {:>12.3} [{:.3}, {:.3}] {unit:<4} \
                 change/parent {:.3} (base: parent median, {} is better, bound {bound})  {}",
                ps.median,
                ps.q1,
                ps.q3,
                cs.median,
                cs.q1,
                cs.q3,
                cs.median / ps.median,
                if higher { "higher" } else { "lower" },
                v.name()
            ));
        }
        let share = |w: &Json| w.get("error_share").and_then(Json::as_f64).unwrap_or(1.0);
        let (pe, ce) = (share(p), share(c));
        let worse = ce > pe;
        holds &= !worse;
        rows.push(format!(
            "{name:<20} {:<16} parent {pe} change {ce} (failed ÷ attempted, absolute)  {}",
            "error_share",
            if worse { "worse" } else { "same" }
        ));
    }
    Ok((rows, holds))
}

/// The `diff` subcommand: `Ok(false)` (exit code 1) on any `worse` or a
/// higher `error_share`.
pub fn run(files: &[String], benchmark: Option<&str>) -> Result<bool, String> {
    let [parent, change] = files else {
        return Err("diff takes PARENT.json and CHANGE.json".into());
    };
    let benchmark = read(benchmark.unwrap_or("BENCHMARK.json"))?;
    let (rows, holds) = compare(&benchmark, &read(parent)?, &read(change)?)?;
    for row in rows {
        println!("{row}");
    }
    println!("{}", if holds { "gate holds" } else { "GATE FAILS" });
    Ok(holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Side {
        let sum = crate::stats::summarize(values);
        Side { median: sum.median, q1: sum.q1, q3: sum.q3, values: values.to_vec() }
    }

    #[test]
    fn verdicts() {
        let parent = s(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // lower is better, bound 10 %
        assert_eq!(verdict(&parent, &s(&[100.2, 99.8, 100.0]), false, 0.1), Verdict::Same);
        assert_eq!(verdict(&parent, &s(&[108.0, 109.0, 107.0]), false, 0.1), Verdict::Same);
        assert_eq!(verdict(&parent, &s(&[112.0, 111.0, 113.0]), false, 0.1), Verdict::Worse);
        assert_eq!(verdict(&parent, &s(&[88.0, 89.0, 87.0]), false, 0.1), Verdict::Better);
        assert_eq!(verdict(&parent, &s(&[92.0, 93.0, 91.0]), false, 0.1), Verdict::Same);
        // the same numbers where higher is better
        assert_eq!(verdict(&parent, &s(&[112.0, 111.0, 113.0]), true, 0.1), Verdict::Better);
        assert_eq!(verdict(&parent, &s(&[88.0, 89.0, 87.0]), true, 0.1), Verdict::Worse);
        // a noisy parent: spread 40 % > bound
        let noisy = s(&[80.0, 100.0, 120.0, 90.0, 130.0]);
        assert_eq!(verdict(&noisy, &s(&[115.0, 95.0, 125.0]), false, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &s(&[60.0, 70.0, 75.0]), false, 0.1), Verdict::Better);
        assert_eq!(verdict(&noisy, &s(&[140.0, 150.0, 135.0]), false, 0.1), Verdict::Worse);
    }

    #[test]
    fn compares_result_files_with_bounds_from_the_benchmark_file() {
        let benchmark = Json::parse(
            r#"{"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[{"name":"throughput","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let file = |values: &[f64], error_share: f64| {
            let sum = crate::stats::summarize(values);
            Json::obj([(
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("workload", Json::str("w")),
                    ("error_share", error_share.into()),
                    (
                        "end_to_end",
                        Json::obj([(
                            "throughput",
                            Json::obj([
                                ("median", sum.median.into()),
                                ("q1", sum.q1.into()),
                                ("q3", sum.q3.into()),
                                ("values", Json::Arr(values.iter().map(|&v| v.into()).collect())),
                            ]),
                        )]),
                    ),
                ])]),
            )])
        };
        let parent = file(&[100.0, 101.0, 99.0], 0.0);
        let (rows, holds) =
            compare(&benchmark, &parent, &file(&[100.0, 102.0, 98.0], 0.0)).unwrap();
        assert!(holds && rows[0].ends_with("same") && rows[0].contains("change/parent 1.000"));
        let (rows, holds) = compare(&benchmark, &parent, &file(&[80.0, 81.0, 79.0], 0.0)).unwrap();
        assert!(!holds && rows[0].ends_with("worse"));
        let (rows, holds) =
            compare(&benchmark, &parent, &file(&[100.0, 101.0, 99.0], 0.001)).unwrap();
        assert!(!holds && rows[1].ends_with("worse"), "a higher error share fails the gate");
        let (_, holds) =
            compare(&benchmark, &parent, &Json::obj([("workloads", Json::Arr(vec![]))])).unwrap();
        assert!(holds, "a workload absent from a file is not compared");
    }
}
