//! `compare <a.json> <b.json>`: two sets of runs, side by side.
//!
//! For every workload × end-to-end metric it prints each side's median and
//! quartiles, the relative change of the median (positive = worse) against the
//! bound `BENCHMARK.json` fixes, and a verdict: `within` the bound,
//! `regressed` past it, or `unresolved` when either side's own quartile spread
//! is wider than the bound and so says nothing either way.  Per-layer metrics
//! present on both sides are listed without a verdict; they have no bound.

use crate::spec::{as_array, as_f64, as_str, field, Spec, SpecMetric};
use crate::stats::{quartiles, Better};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// workload → metric → one value per run.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(path: &Path) -> Result<Set, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root: Value =
        serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = as_array(&root).ok_or(format!("{} is not a JSON array of runs", path.display()))?;
    let mut set = Set::new();
    for run in runs {
        let workload = field(run, "workload").and_then(as_str).ok_or("a run lacks `workload`")?;
        let metrics =
            field(run, "metrics").and_then(Value::as_object).ok_or("a run lacks `metrics`")?;
        for (name, entry) in metrics {
            if let Some(value) = field(entry, "value").and_then(as_f64) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

/// How one metric of one workload moved.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Within,
    Regressed,
    Unresolved,
    /// No bound (per-layer) or too few runs to take quartiles.
    NotJudged,
}

impl Verdict {
    fn label(&self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::NotJudged => "-",
        }
    }
}

/// One line of the comparison.
#[derive(Debug, Clone)]
pub struct Line {
    pub workload: String,
    pub metric: String,
    /// `[q1, median, q3]` per side, when the side has two runs or more.
    pub a: Option<[f64; 3]>,
    pub b: Option<[f64; 3]>,
    /// Relative change of the median from a to b, signed so positive is worse.
    pub worse_by: Option<f64>,
    /// The wider of the two sides' (q3 − q1) ÷ median.
    pub spread: Option<f64>,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

fn judge(workload: &str, metric: &SpecMetric, a: &[f64], b: &[f64]) -> Line {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let mut line = Line {
        workload: workload.to_string(),
        metric: metric.name.clone(),
        a: qa,
        b: qb,
        worse_by: None,
        spread: None,
        bound: metric.bound,
        verdict: Verdict::NotJudged,
    };
    let (Some(qa), Some(qb)) = (qa, qb) else { return line };
    if qa[1] == 0.0 || qb[1] == 0.0 {
        return line;
    }
    let change = (qb[1] - qa[1]) / qa[1];
    let worse_by = match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = ((qa[2] - qa[0]) / qa[1]).abs().max(((qb[2] - qb[0]) / qb[1]).abs());
    line.worse_by = Some(worse_by);
    line.spread = Some(spread);
    if let Some(bound) = metric.bound {
        line.verdict = if spread > bound {
            Verdict::Unresolved
        } else if worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Within
        };
    }
    line
}

/// Compare two sets under `spec`'s bounds.
pub fn compare_sets(spec: &Spec, a: &Path, b: &Path) -> Result<Vec<Line>, String> {
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let mut lines = Vec::new();
    for workload in &spec.workloads {
        let (Some(ma), Some(mb)) = (set_a.get(workload), set_b.get(workload)) else { continue };
        for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
            if let (Some(va), Some(vb)) = (ma.get(&metric.name), mb.get(&metric.name)) {
                lines.push(judge(workload, metric, va, vb));
            }
        }
    }
    if lines.is_empty() {
        return Err("the two sets share no workload and metric".to_string());
    }
    Ok(lines)
}

fn quartile_text(q: Option<[f64; 3]>) -> String {
    match q {
        Some([q1, median, q3]) => format!("{median:>14.4} [{q1:.4} .. {q3:.4}]"),
        None => format!("{:>14}", "too few runs"),
    }
}

fn percent(x: Option<f64>) -> String {
    x.map(|v| format!("{:+.2}%", v * 100.0)).unwrap_or_else(|| "-".to_string())
}

/// Print the lines; `true` when none regressed.
pub fn print_lines(lines: &[Line]) -> bool {
    println!(
        "{:<12} {:<32} {:<44} {:<44} {:>9} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "a: median [q1 .. q3]",
        "b: median [q1 .. q3]",
        "worse by",
        "spread",
        "bound"
    );
    for line in lines {
        println!(
            "{:<12} {:<32} {:<44} {:<44} {:>9} {:>8} {:>7}  {}",
            line.workload,
            line.metric,
            quartile_text(line.a),
            quartile_text(line.b),
            percent(line.worse_by),
            percent(line.spread),
            percent(line.bound),
            line.verdict.label()
        );
    }
    let count = |v: Verdict| lines.iter().filter(|l| l.verdict == v).count();
    println!(
        "# {} within, {} regressed, {} unresolved",
        count(Verdict::Within),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    count(Verdict::Regressed) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> SpecMetric {
        SpecMetric { name: "m".into(), unit: "us".into(), better, bound: Some(0.07) }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower: Vec<f64> = base.iter().map(|v| v * 1.10).collect();
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        // a time that grew 10 % against a 7 % bound
        assert_eq!(judge("w", &metric(Better::Lower), &base, &slower).verdict, Verdict::Regressed);
        // the same numbers as a rate: it rose, which is an improvement
        assert_eq!(judge("w", &metric(Better::Higher), &base, &slower).verdict, Verdict::Within);
        // a rate that fell 10 %
        assert_eq!(judge("w", &metric(Better::Higher), &slower, &base).verdict, Verdict::Regressed);
        // a side whose own quartiles are wider than the bound settles nothing
        assert_eq!(judge("w", &metric(Better::Lower), &base, &noisy).verdict, Verdict::Unresolved);
        // one run per side has no quartiles
        assert_eq!(judge("w", &metric(Better::Lower), &[1.0], &[2.0]).verdict, Verdict::NotJudged);
    }
}
