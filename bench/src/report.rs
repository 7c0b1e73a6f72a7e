//! What a run prints and what `run` writes to `bench/out/result-<S>.json`.

use crate::json::{escape, Value};
use crate::metrics;
use crate::runner::Outcome;
use std::collections::BTreeMap;
use std::process::Command;

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the values with all their digits.
pub fn last_line(out: &Outcome, units: &BTreeMap<String, &'static str>) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v)| {
            let unit = units.get(name).copied().unwrap_or("");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// JSON has no NaN or infinity; a metric that is either reads as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn e2e_units() -> BTreeMap<String, &'static str> {
    metrics::END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .collect()
}

pub fn layer_units() -> BTreeMap<String, &'static str> {
    metrics::per_layer()
        .into_iter()
        .map(|(name, unit, _)| (name, unit))
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and build a result came from, as JSON object fields.
pub fn fingerprint(seed: u64, seconds: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = command_line(
        "git",
        &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
    );
    // PR 3's caveat: with one core the executor can only oversubscribe, so
    // thread-scaling numbers (`runtime.par_speedup_2t`) say nothing.
    let caveat = if nproc == 1 {
        "nproc = 1: the container exposes one core; parallel speed-up numbers are oversubscription overhead, not scaling"
    } else {
        ""
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\", \"seed\": {seed}, \"run_seconds\": {seconds}, \"thread_policy\": \"ParallelismPolicy::Sequential\", \"caveat\": \"{caveat}\"}}",
        escape(&cpu),
        escape(&command_line("rustc", &["--version"])),
        escape(&commit),
    )
}

/// One workload's runs inside a result file.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRuns {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Metric name to one value per run.
    pub values: BTreeMap<String, Vec<f64>>,
}

impl WorkloadRuns {
    /// Adds the parsed last line of one run.
    pub fn add(&mut self, runs_so_far: usize, line: &Value) -> Result<(), String> {
        let num = |k: &str| line.get(k).and_then(Value::as_f64).ok_or(format!("no {k}"));
        self.attempted += num("attempted")? as u64;
        self.failed += num("failed")? as u64;
        let ok = line.get("correct") == Some(&Value::Bool(true));
        self.correct = if runs_so_far == 0 {
            ok
        } else {
            self.correct && ok
        };
        for (name, m) in line.get("metrics").map(Value::as_obj).unwrap_or_default() {
            let v = m.get("value").and_then(Value::as_f64).ok_or("no value")?;
            self.values.entry(name.clone()).or_default().push(v);
        }
        Ok(())
    }
}

pub fn result_json(
    fingerprint: &str,
    workloads: &BTreeMap<String, WorkloadRuns>,
    units: &BTreeMap<String, &'static str>,
) -> String {
    let mut s = format!(
        "{{\n  \"benchmark\": \"saps-perfbench\",\n  \"fingerprint\": {fingerprint},\n  \"workloads\": {{\n"
    );
    for (i, (name, w)) in workloads.iter().enumerate() {
        s.push_str(&format!(
            "    \"{name}\": {{\"correct\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \"metrics\": {{\n",
            w.correct, w.attempted, w.failed
        ));
        for (j, (metric, values)) in w.values.iter().enumerate() {
            let vs: Vec<String> = values.iter().map(|v| number(*v)).collect();
            let comma = if j + 1 < w.values.len() { "," } else { "" };
            s.push_str(&format!(
                "      \"{metric}\": {{\"unit\": \"{}\", \"values\": [{}]}}{comma}\n",
                units.get(metric).copied().unwrap_or(""),
                vs.join(", ")
            ));
        }
        let comma = if i + 1 < workloads.len() { "," } else { "" };
        s.push_str(&format!("    }}}}{comma}\n"));
    }
    s.push_str("  }\n}\n");
    s
}
