//! `car_benchmark compare <parent-runs> <change-runs>`: the gain and
//! regression rules for a change measured against its parent.
//!
//! Each argument is a directory holding `<workload>.jsonl`, one result
//! line per run. Line `i` of the parent and line `i` of the change form
//! pair `i`; make the runs alternately (parent, change, change, parent,
//! …) with the same `--seconds` and fresh seeds, at least ten pairs per
//! workload. Bounds and directions come from `BENCHMARK.json` in the
//! current directory.
//!
//! Per workload and metric the report gives each side's median and
//! quartiles and the change's share of wins (ties count for neither).
//! A gain needs at least nine wins in ten and a median gap wider than
//! the parent's interquartile range. An end-to-end metric whose change
//! median is worse than the parent's by more than its bound is a
//! regression — or unresolved when the parent's own spread is wider
//! than the bound, unless every change run beats every parent run.

use crate::stats;
use car_server::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Pairs needed before any verdict is given.
pub const MIN_PAIRS: usize = 10;

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::UInt(n) => Some(*n as f64),
        Json::Int(n) => Some(*n as f64),
        Json::Float(x) => Some(*x),
        _ => None,
    }
}

/// A metric's direction and (end-to-end only) regression bound.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: Option<f64>,
}

/// The rules of every metric named in a `BENCHMARK.json` document.
///
/// # Errors
/// Malformed JSON or metric entries.
pub fn rules(benchmark_json: &str) -> Result<BTreeMap<String, Rule>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {}", e.message))?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc.get(section).and_then(Json::as_arr).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without 'better'")?;
            out.insert(
                name.to_owned(),
                Rule {
                    lower_is_better: better == "lower",
                    bound: m.get("bound").and_then(number),
                },
            );
        }
    }
    Ok(out)
}

/// Every run's metric values from one `<workload>.jsonl` file.
///
/// # Errors
/// Unreadable files and lines that are not result objects.
pub fn runs(path: &Path) -> Result<Vec<BTreeMap<String, f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = json::parse(line).map_err(|e| format!("{}: {}", path.display(), e.message))?;
            let Some(Json::Obj(metrics)) = v.get("metrics") else {
                return Err(format!("{}: a line without metrics", path.display()));
            };
            Ok(metrics
                .iter()
                .filter_map(|(name, m)| m.get("value").and_then(number).map(|x| (name.clone(), x)))
                .collect())
        })
        .collect()
}

/// The outcome for one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A claimable gain.
    Gain,
    /// Worse than the bound allows.
    Regression,
    /// The spread is wider than the bound: neither gain nor "unchanged"
    /// can be claimed.
    Unresolved,
    /// Within the bound.
    WithinBound,
    /// A per-layer metric: no bound, so only the numbers are reported.
    Reported,
}

/// One metric's comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Parent median, first and third quartiles.
    pub parent: (f64, f64, f64),
    /// Change median, first and third quartiles.
    pub change: (f64, f64, f64),
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The rule's outcome.
    pub verdict: Verdict,
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = stats::quartiles(values);
    (stats::median(values), q1, q3)
}

/// Compares paired runs of one metric under `rule`.
#[must_use]
pub fn compare(parent: &[f64], change: &[f64], rule: Rule) -> Row {
    let better = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (p, c) = (summary(parent), summary(change));
    let parent_iqr = p.2 - p.1;
    let verdict = if wins * 10 >= pairs * 9 && better(c.0, p.0) && (c.0 - p.0).abs() > parent_iqr {
        Verdict::Gain
    } else if let Some(bound) = rule.bound {
        let worse = if rule.lower_is_better {
            c.0 - p.0
        } else {
            p.0 - c.0
        };
        let spread = if p.0 == 0.0 {
            0.0
        } else {
            parent_iqr / p.0.abs()
        };
        let all_better = change.iter().all(|&x| parent.iter().all(|&y| better(x, y)));
        if spread > bound && !all_better {
            Verdict::Unresolved
        } else if worse > bound * p.0.abs() {
            Verdict::Regression
        } else {
            Verdict::WithinBound
        }
    } else {
        Verdict::Reported
    };
    Row {
        parent: p,
        change: c,
        wins,
        pairs,
        verdict,
    }
}

/// The `compare` subcommand.
///
/// # Errors
/// Usage errors, unreadable inputs and workloads with too few pairs.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [parent_dir, change_dir] = args else {
        return Err("usage: car_benchmark compare <parent-runs-dir> <change-runs-dir>".into());
    };
    let rules = rules(
        &std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?,
    )?;
    let mut regressions = 0;
    let mut files: Vec<_> = std::fs::read_dir(parent_dir)
        .map_err(|e| format!("{parent_dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{parent_dir} holds no <workload>.jsonl files"));
    }
    for parent_file in files {
        let name = parent_file
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let parent = runs(&parent_file)?;
        let change = runs(&Path::new(change_dir).join(&name))?;
        let pairs = parent.len().min(change.len());
        if pairs < MIN_PAIRS {
            return Err(format!(
                "{name}: {pairs} pairs; at least {MIN_PAIRS} are needed"
            ));
        }
        println!("== {} ({pairs} pairs)", name.trim_end_matches(".jsonl"));
        println!(
            "{:<40} {:>30} {:>30} {:>7}  verdict",
            "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
        );
        let metrics: std::collections::BTreeSet<&String> = parent[0].keys().collect();
        for metric in metrics {
            let Some(&rule) = rules.get(metric.as_str()) else {
                continue;
            };
            let column = |side: &[BTreeMap<String, f64>]| -> Vec<f64> {
                side[..pairs]
                    .iter()
                    .filter_map(|r| r.get(metric).copied())
                    .collect()
            };
            let (p, c) = (column(&parent), column(&change));
            if p.len() != pairs || c.len() != pairs {
                continue;
            }
            let row = compare(&p, &c, rule);
            if row.verdict == Verdict::Regression {
                regressions += 1;
            }
            let fmt = |(m, q1, q3): (f64, f64, f64)| format!("{m:.4} [{q1:.4}, {q3:.4}]");
            println!(
                "{metric:<40} {:>30} {:>30} {:>3}/{:<3}  {:?}",
                fmt(row.parent),
                fmt(row.change),
                row.wins,
                row.pairs,
                row.verdict
            );
        }
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: Some(0.1),
    };

    #[test]
    fn a_consistent_large_win_is_a_gain() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let change: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(compare(&parent, &change, LOWER).verdict, Verdict::Gain);
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        let change: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            compare(&parent, &change, LOWER).verdict,
            Verdict::Regression
        );
        let within: Vec<f64> = parent.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            compare(&parent, &within, LOWER).verdict,
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent: Vec<f64> = (0..10).map(|i| 50.0 + 10.0 * f64::from(i)).collect();
        let change: Vec<f64> = parent.iter().map(|x| x * 1.3).collect();
        assert_eq!(
            compare(&parent, &change, LOWER).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn rules_read_bounds_and_directions() {
        let doc = r#"{"end_to_end":[{"name":"a","unit":"ms","better":"lower","bound":0.1}],
                      "per_layer":[{"name":"b","unit":"count","better":"higher"}]}"#;
        let r = rules(doc).unwrap();
        assert!(r["a"].lower_is_better && r["a"].bound == Some(0.1));
        assert!(!r["b"].lower_is_better && r["b"].bound.is_none());
    }
}
