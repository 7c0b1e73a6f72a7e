//! Communication-time recording: Fig. 6's machine-readable artifact.
//!
//! `fig6_comm_time` compares the eight algorithms on *communication
//! time*; with the [`saps_core::TimeModel`] switch each run can be
//! priced on the flow engine at zero latency (`analytic`) or with
//! per-link latency (`des`). This module records both, keyed by
//! `(algorithm, workload, workers, time_model)`, into
//! `BENCH_comm_time.json` in the working directory — hand-rolled JSON,
//! one entry per line (no serde in the dependency-free build), and
//! merging instead of clobbering so the analytic and DES passes
//! accumulate side by side.

use saps_core::experiment::RunHistory;
use std::io::{self, Write};
use std::path::Path;

/// Canonical output file name, written to the working directory.
pub const BENCH_FILE: &str = "BENCH_comm_time.json";

/// Per-link latency the binaries use for `--time-model des`: 5 ms, a
/// wide-area RTT scale consistent with the paper's geo-distributed
/// setting. One constant so `fig6_comm_time` and `run_experiment`
/// records labeled `"des"` stay comparable.
pub const DES_DEFAULT_LATENCY_S: f64 = 0.005;

/// One priced run: how much simulated communication time an algorithm
/// spent, and when (if ever) it crossed the workload's target accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct CommTimeEntry {
    /// Algorithm name (paper spelling).
    pub algorithm: String,
    /// Workload display name.
    pub workload: String,
    /// Fleet size `n`.
    pub workers: usize,
    /// Time-model label: `"analytic"` or `"des"`.
    pub time_model: String,
    /// Rounds actually driven.
    pub rounds: usize,
    /// Total simulated communication time (seconds).
    pub comm_time_s: f64,
    /// Simulated communication time at the first evaluation reaching
    /// the target accuracy; negative when the target was never reached.
    pub time_to_target_s: f64,
    /// Final consensus validation accuracy, in `[0, 1]`.
    pub final_acc: f64,
}

impl CommTimeEntry {
    /// Builds an entry from a finished run.
    pub fn from_run(
        hist: &RunHistory,
        workload: &str,
        workers: usize,
        time_model: &str,
        target_acc: f32,
    ) -> Self {
        CommTimeEntry {
            algorithm: hist.algorithm.clone(),
            workload: workload.to_string(),
            workers,
            time_model: time_model.to_string(),
            rounds: hist.points.len(),
            comm_time_s: hist.total_comm_time_s,
            time_to_target_s: hist
                .first_reaching(target_acc)
                .map_or(-1.0, |p| p.comm_time_s),
            final_acc: hist.final_acc as f64,
        }
    }
}

fn key(e: &CommTimeEntry) -> (&str, &str, usize, &str) {
    (&e.algorithm, &e.workload, e.workers, &e.time_model)
}

/// Merges `new_entries` into the record at `path` and rewrites it: an
/// existing entry with the same `(algorithm, workload, workers,
/// time_model)` key is replaced in place, everything else is kept, and
/// new configurations append — so `--time-model=des` runs don't clobber
/// the analytic records (or vice versa). A file in an unrecognized
/// format is rewritten from scratch.
pub fn record(path: &Path, new_entries: &[CommTimeEntry]) -> io::Result<()> {
    let mut entries = read_entries(path).unwrap_or_default();
    for ne in new_entries {
        match entries.iter_mut().find(|e| key(e) == key(ne)) {
            Some(slot) => *slot = ne.clone(),
            None => entries.push(ne.clone()),
        }
    }
    write_json(path, &entries)
}

/// Best-effort parse of a file this module wrote (one entry per line).
/// Returns `None` when the file is missing or any entry line does not
/// parse — callers start a fresh record in that case.
pub fn read_entries(path: &Path) -> Option<Vec<CommTimeEntry>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with("{\"algorithm\"") {
            continue;
        }
        out.push(parse_entry(line)?);
    }
    Some(out)
}

fn parse_entry(line: &str) -> Option<CommTimeEntry> {
    Some(CommTimeEntry {
        algorithm: field_str(line, "algorithm")?,
        workload: field_str(line, "workload")?,
        workers: field_num(line, "workers")?.parse().ok()?,
        time_model: field_str(line, "time_model")?,
        rounds: field_num(line, "rounds")?.parse().ok()?,
        comm_time_s: field_num(line, "comm_time_s")?.parse().ok()?,
        time_to_target_s: field_num(line, "time_to_target_s")?.parse().ok()?,
        final_acc: field_num(line, "final_acc")?.parse().ok()?,
    })
}

/// Reads (and unescapes) the string value of `"name": "…"` in `line`.
fn field_str(line: &str, name: &str) -> Option<String> {
    let pat = format!("\"{name}\": \"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            c => out.push(c),
        }
    }
    None
}

/// Reads the numeric token of `"name": …` in `line`.
fn field_num<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

/// Serializes entries and writes them to `path` (truncate + write).
pub fn write_json(path: &Path, entries: &[CommTimeEntry]) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    write!(f, "{}", render_json(entries))?;
    f.flush()
}

fn render_json(entries: &[CommTimeEntry]) -> String {
    let mut out = String::from("{\n  \"bench\": \"comm_time\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"workload\": \"{}\", \"workers\": {}, \
             \"time_model\": \"{}\", \"rounds\": {}, \"comm_time_s\": {:.6}, \
             \"time_to_target_s\": {:.6}, \"final_acc\": {:.4}}}{}\n",
            escape(&e.algorithm),
            escape(&e.workload),
            e.workers,
            escape(&e.time_model),
            e.rounds,
            e.comm_time_s,
            e.time_to_target_s,
            e.final_acc,
            if i + 1 < entries.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(model: &str, t: f64) -> CommTimeEntry {
        CommTimeEntry {
            algorithm: "SAPS-PSGD".into(),
            workload: "MNIST-CNN (scaled)".into(),
            workers: 32,
            time_model: model.into(),
            rounds: 100,
            comm_time_s: t,
            time_to_target_s: t / 2.0,
            final_acc: 0.875,
        }
    }

    #[test]
    fn json_layout_is_stable() {
        let text = render_json(&[entry("analytic", 10.0), entry("des", 12.5)]);
        assert!(text.starts_with("{\n  \"bench\": \"comm_time\""));
        assert!(text.contains("\"time_model\": \"des\""));
        assert_eq!(text.matches("},\n").count(), 1);
        assert!(text.ends_with("  ]\n}\n"));
    }

    #[test]
    fn record_merges_models_instead_of_clobbering() {
        let dir = std::env::temp_dir().join(format!("saps-commtime-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(BENCH_FILE);
        let _ = std::fs::remove_file(&path);

        record(&path, &[entry("analytic", 10.0)]).unwrap();
        record(&path, &[entry("des", 12.5)]).unwrap();
        // A re-measurement of an existing key replaces in place.
        record(&path, &[entry("analytic", 11.0)]).unwrap();

        let got = read_entries(&path).unwrap();
        assert_eq!(got, vec![entry("analytic", 11.0), entry("des", 12.5)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unreached_target_roundtrips_negative() {
        let dir = std::env::temp_dir().join(format!("saps-commtime-neg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(BENCH_FILE);
        let mut e = entry("des", 7.0);
        e.time_to_target_s = -1.0;
        record(&path, &[e.clone()]).unwrap();
        assert_eq!(read_entries(&path).unwrap(), vec![e]);
        std::fs::remove_file(&path).unwrap();
    }
}
