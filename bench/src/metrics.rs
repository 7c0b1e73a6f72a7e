//! The declared metrics: `BENCHMARK.json` is generated from these tables
//! (`-- manifest`) and a test holds the two equal in both directions.

use crate::workloads;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse.
    pub bound: f64,
    /// Equal seeds must give equal values (compared exactly by `compare`).
    pub deterministic: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    deterministic: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        deterministic,
    }
}

/// The nine end-to-end metrics. The bounds are what ten runs on ten seeds
/// hold with a factor of three to spare on a shared 2-core box (README,
/// "Noise floor"); for equal seeds the deterministic four compare exactly.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25, false),
    e2e("rounds_per_s", "1/s", "higher", 0.10, false),
    e2e("resync_mb_per_s", "MB/s", "higher", 0.10, false),
    e2e("req_per_s", "1/s", "higher", 0.15, false),
    e2e("latency_p99_ticks", "ticks", "lower", 0.05, true),
    e2e("peak_rss_mb", "MB", "lower", 0.10, false),
    e2e("traffic_kb_per_worker_round", "KB", "lower", 0.10, true),
    e2e("sim_comm_ms_per_round", "ms", "lower", 0.10, true),
    e2e("final_loss", "loss", "lower", 0.25, true),
];

/// The eight registry keys, in the lineup's leg order.
pub const ALGO_KEYS: [&str; 8] = [
    "psgd", "topk", "fedavg", "sfedavg", "dpsgd", "dcd", "random", "saps",
];

/// `(name, unit, better)` of the per-layer metrics that are not per leg.
const LAYERS: &[(&str, &str, &str)] = &[
    ("driver.round_ms_mean", "ms", "lower"),
    ("driver.round_ms_p50", "ms", "lower"),
    ("driver.round_ms_p95", "ms", "lower"),
    ("driver.samples_per_s", "1/s", "higher"),
    ("driver.unattributed_share", "ratio", "lower"),
    ("driver.tracing_overhead_ratio", "ratio", "lower"),
    ("nn.sgd_step_us", "us", "lower"),
    ("nn.share", "ratio", "lower"),
    ("nn.forward_us_b1", "us", "lower"),
    ("nn.forward_us_b8", "us", "lower"),
    ("tensor.matmul_gflops", "GFLOP/s", "higher"),
    ("core.plan_ms", "ms", "lower"),
    ("core.plan_pairs_per_round", "count", "higher"),
    ("core.plan_share", "ratio", "lower"),
    ("core.control_setup_s", "s", "lower"),
    ("core.evaluate_ms", "ms", "lower"),
    ("core.checkpoint_encode_ms", "ms", "lower"),
    ("core.checkpoint_decode_ms", "ms", "lower"),
    ("graph.sharded_match_ms", "ms", "lower"),
    ("graph.max_match_ms", "ms", "lower"),
    ("compress.mask_regenerate_us", "us", "lower"),
    ("compress.mask_apply_us", "us", "lower"),
    ("compress.mask_average_us", "us", "lower"),
    ("compress.topk_select_us", "us", "lower"),
    ("compress.share", "ratio", "lower"),
    ("netsim.price_p2p_ms", "ms", "lower"),
    ("netsim.price_allreduce_ms", "ms", "lower"),
    ("netsim.price_ps_ms", "ms", "lower"),
    ("netsim.auto_threshold_ms", "ms", "lower"),
    ("netsim.share", "ratio", "lower"),
    ("proto.encode_mb_per_s", "MB/s", "higher"),
    ("proto.decode_mb_per_s", "MB/s", "higher"),
    ("proto.checksum_mb_per_s", "MB/s", "higher"),
    ("proto.notify_encode_us", "us", "lower"),
    ("proto.frames_per_round", "count", "lower"),
    ("proto.bytes_per_round", "B", "lower"),
    ("proto.overhead_ratio", "ratio", "lower"),
    ("proto.share", "ratio", "lower"),
    ("cluster.wire_tax_ratio", "ratio", "lower"),
    ("cluster.transport_busy_ms_per_round", "ms", "lower"),
    ("cluster.send_calls_per_round", "count", "lower"),
    ("cluster.recv_calls_per_round", "count", "lower"),
    ("cluster.share", "ratio", "lower"),
    ("cluster.join_ms_p50", "ms", "lower"),
    ("cluster.chunk_us", "us", "lower"),
    ("cluster.chunks_per_join", "count", "lower"),
    ("cluster.resync_retries", "count", "lower"),
    ("cluster.resync_overhead_ratio", "ratio", "lower"),
    ("runtime.par_speedup_2t", "ratio", "higher"),
    ("serve.latency_p50_ticks", "ticks", "lower"),
    ("serve.batch_occupancy", "rows", "higher"),
    ("serve.swap_ms_p50", "ms", "lower"),
    ("serve.rejected_requests", "count", "lower"),
    ("telemetry.overhead_ratio", "ratio", "lower"),
    ("data.generate_ms", "ms", "lower"),
    ("data.partition_ms", "ms", "lower"),
];

/// Per-leg metrics, one triple per registry key.
const PER_ALGO: &[(&str, &str, &str)] = &[
    ("rounds_per_s", "1/s", "higher"),
    ("traffic_kb_per_worker_round", "KB", "lower"),
    ("wire_tax_ratio", "ratio", "lower"),
];

pub fn algo_metric(key: &str, what: &str) -> String {
    format!("algo.{key}.{what}")
}

/// Every per-layer metric as `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<_> = LAYERS
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better))
        .collect();
    for key in ALGO_KEYS {
        for &(what, unit, better) in PER_ALGO {
            out.push((algo_metric(key, what), unit, better));
        }
    }
    out
}

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// How long one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 8;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"bench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"bench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let specs = workloads::all();
    for (i, w) in specs.iter().enumerate() {
        let comma = if i + 1 < specs.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
