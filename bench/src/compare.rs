//! `compare old.json new.json`: one row per workload and end-to-end metric,
//! judged under the bounds `BENCHMARK.json` declares.

use crate::json::Value;
use crate::metrics::{MetricDef, END_TO_END};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound, so the bound cannot
    /// be checked.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `old` for one metric. With equal seeds a
/// deterministic metric has no noise, so any difference counts.
pub fn judge(def: &MetricDef, old: &[f64], new: &[f64], same_seed: bool) -> Verdict {
    let (mo, mn) = (median(old), median(new));
    let sign = if def.better == "lower" { 1.0 } else { -1.0 };
    let worse_by = if mo == 0.0 {
        sign * (mn - mo)
    } else {
        sign * (mn - mo) / mo.abs()
    };
    let bound = if same_seed && def.deterministic {
        0.0
    } else {
        def.bound
    };
    if spread(old).max(spread(new)) > bound && bound > 0.0 {
        let all_better = old
            .iter()
            .all(|&o| new.iter().all(|&n| sign * (n - o) < 0.0));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn values(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .map(|v| v.as_arr().iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn failure_share(file: &Value, workload: &str) -> f64 {
    let w = file.get("workloads").and_then(|w| w.get(workload));
    let num = |k: &str| {
        w.and_then(|w| w.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    num("ops_failed") / num("ops_attempted").max(1.0)
}

/// Prints the table; returns how many rows read `worse`.
pub fn compare(old: &Value, new: &Value) -> usize {
    let seed = |f: &Value| {
        f.get("fingerprint")
            .and_then(|p| p.get("seed"))
            .and_then(Value::as_f64)
    };
    let same_seed = seed(old).is_some() && seed(old) == seed(new);
    let mut worse = 0;
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "old median", "new median", "change"
    );
    for (workload, _) in new.get("workloads").map(Value::as_obj).unwrap_or_default() {
        for def in END_TO_END {
            let (o, n) = (
                values(old, workload, def.name),
                values(new, workload, def.name),
            );
            if o.is_empty() || n.is_empty() {
                continue;
            }
            let verdict = judge(def, &o, &n, same_seed);
            worse += usize::from(verdict == Verdict::Worse);
            let (mo, mn) = (median(&o), median(&n));
            println!(
                "{workload:<16} {:<28} {mo:>14.6} {mn:>14.6} {:>+8.2}%  {}",
                def.name,
                if mo == 0.0 {
                    0.0
                } else {
                    100.0 * (mn - mo) / mo.abs()
                },
                verdict.label()
            );
        }
        let (fo, fnew) = (failure_share(old, workload), failure_share(new, workload));
        let verdict = if fnew > fo {
            worse += 1;
            Verdict::Worse
        } else if fnew < fo {
            Verdict::Better
        } else {
            Verdict::Same
        };
        println!(
            "{workload:<16} {:<28} {fo:>14.6} {fnew:>14.6} {:>9}  {}",
            "failure_share",
            "",
            verdict.label()
        );
    }
    worse
}
