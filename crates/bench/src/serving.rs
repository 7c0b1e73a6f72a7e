//! Serving-plane benchmark recording: `BENCH_serving.json`.
//!
//! The `bench_serving` binary measures the `saps-serve` inference plane
//! — requests per wall-clock second and request-latency percentiles per
//! replica count, plus the mixed training + serving scenario where both
//! planes share one `citydata` bandwidth matrix and the serving
//! transfers are priced by the same `TimeModel`s as the training round.
//! Like the round-throughput record, the file is plain JSON written by
//! hand (no serde in the dependency-free build), one entry per line,
//! stable enough to diff across commits.

use std::io::{self, Write};
use std::path::Path;

/// Canonical output file name, written to the working directory.
pub const SERVING_FILE: &str = "BENCH_serving.json";

/// One measured serving configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingEntry {
    /// Scenario: `"serve-only"` or `"mixed-training"`.
    pub scenario: String,
    /// Replica fleet size.
    pub replicas: usize,
    /// Resolved executor thread count.
    pub threads: usize,
    /// Requests completed.
    pub requests: usize,
    /// Requests completed per wall-clock second.
    pub requests_per_sec: f64,
    /// Median request latency, wall-clock milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, wall-clock milliseconds.
    pub p99_ms: f64,
    /// Serving bytes framed on the wire, MB.
    pub serve_mb: f64,
    /// Hot swaps accepted across the fleet (mixed scenario; 0 when no
    /// training runs alongside).
    pub swaps: u64,
    /// Simulated seconds to move the mixed run's serving transfers,
    /// placed on the training nodes, over the shared bandwidth matrix
    /// under the fluid (analytic) model. 0 for serve-only runs, which
    /// are not priced.
    pub fluid_round_s: f64,
    /// The same transfers priced by the packet-level simulator.
    pub packet_round_s: f64,
}

/// Overwrites the record at `path` with `entries`.
///
/// Unlike round throughput — accumulated across many binaries — the
/// serving record is produced by one binary in one sweep, so the
/// simplest correct policy is rewrite-from-scratch.
pub fn write_json(path: &Path, entries: &[ServingEntry]) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    write!(f, "{}", render_json(entries))?;
    f.flush()
}

fn render_json(entries: &[ServingEntry]) -> String {
    let mut out = String::from("{\n  \"bench\": \"serving\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"replicas\": {}, \"threads\": {}, \
             \"requests\": {}, \"requests_per_sec\": {:.1}, \"p50_ms\": {:.4}, \
             \"p99_ms\": {:.4}, \"serve_mb\": {:.6}, \"swaps\": {}, \
             \"fluid_round_s\": {:.6}, \"packet_round_s\": {:.6}}}{}\n",
            e.scenario,
            e.replicas,
            e.threads,
            e.requests,
            e.requests_per_sec,
            e.p50_ms,
            e.p99_ms,
            e.serve_mb,
            e.swaps,
            e.fluid_round_s,
            e.packet_round_s,
            if i + 1 < entries.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule.
/// Returns 0 for an empty slice.
pub fn quantile_ms(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(scenario: &str, replicas: usize) -> ServingEntry {
        ServingEntry {
            scenario: scenario.into(),
            replicas,
            threads: 4,
            requests: 1000,
            requests_per_sec: 5000.0,
            p50_ms: 0.2,
            p99_ms: 1.5,
            serve_mb: 0.25,
            swaps: 0,
            fluid_round_s: 0.0,
            packet_round_s: 0.0,
        }
    }

    #[test]
    fn json_layout_is_stable() {
        let text = render_json(&[entry("serve-only", 2), entry("serve-only", 4)]);
        assert!(text.starts_with("{\n  \"bench\": \"serving\""));
        assert_eq!(text.matches("\"scenario\": \"serve-only\"").count(), 2);
        assert_eq!(text.matches("},\n").count(), 1, "comma between entries");
        assert!(text.contains("\"replicas\": 4"));
        assert!(text.contains("\"p99_ms\": 1.5000"));
        assert!(text.ends_with("  ]\n}\n"));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_ms(&mut v, 0.5), 50.0);
        assert_eq!(quantile_ms(&mut v, 0.99), 99.0);
        assert_eq!(quantile_ms(&mut v, 1.0), 100.0);
        let mut one = vec![7.0];
        assert_eq!(quantile_ms(&mut one, 0.99), 7.0);
        assert_eq!(quantile_ms(&mut [], 0.5), 0.0);
    }
}
