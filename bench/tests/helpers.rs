//! The pure helpers: order statistics, span self time, the JSON reader and
//! the comparison rule.

use saps_perfbench::compare::{judge, Verdict};
use saps_perfbench::json::{escape, parse, Value};
use saps_perfbench::metrics::end_to_end;
use saps_perfbench::stats::{median, mix, percentile, quartiles, spread, Digest};
use saps_perfbench::trace::{self_time_by_name, self_times_ns, Span, Tracer};

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), 50.0);
    assert_eq!(percentile(&v, 0.95), 95.0);
    assert_eq!(percentile(&v, 0.99), 99.0);
    assert_eq!(percentile(&v, 1.0), 100.0);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
    assert_eq!(percentile(&[], 0.5), 0.0);
}

#[test]
fn median_averages_the_middle_pair() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 8.25)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    assert_eq!(quartiles(&[1.0]), None);
    assert!((spread(&v) - 1.0).abs() < 1e-12);
    assert_eq!(spread(&[5.0]), 0.0);
}

#[test]
fn mix_separates_streams_and_digest_separates_inputs() {
    assert_ne!(mix(1, 0), mix(1, 1));
    assert_ne!(mix(1, 0), mix(2, 0));
    assert_eq!(mix(9, 3), mix(9, 3));
    let mut a = Digest::default();
    a.f32s(&[1.0, 2.0]);
    let mut b = Digest::default();
    b.f32s(&[2.0, 1.0]);
    assert_ne!(a.finish(), b.finish());
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
    Span {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        round: 0,
    }
}

#[test]
fn self_time_is_duration_minus_children() {
    let spans = vec![
        span("step", 0, 100, None),
        span("send", 10, 30, Some(0)),
        span("recv", 40, 90, Some(0)),
        span("inner", 50, 60, Some(2)),
    ];
    assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    let by_name = self_time_by_name(&spans);
    assert_eq!(by_name["step"], (30, 1));
    assert_eq!(by_name["recv"], (40, 1));
}

#[test]
fn disabled_tracer_records_nothing_and_nesting_sets_parents() {
    let t = Tracer::default();
    t.exit(t.enter("off"));
    assert_eq!(t.span_count(), 0);
    t.set_enabled(true);
    t.set_round(7);
    let outer = t.enter("outer");
    t.exit(t.enter("inner"));
    t.exit(outer);
    t.allow(0);
    assert_eq!(t.enter("beyond the allowance"), None);
    let spans = t.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
    assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
    assert!(spans.iter().all(|s| s.round == 7 && s.end_ns >= s.start_ns));
}

#[test]
fn json_reads_the_shapes_the_benchmark_writes() {
    let v = parse(r#"{"a": [1, -2.5e1, true, null], "b": {"c": "x\"y\n"}, "d": {}}"#).unwrap();
    assert_eq!(v.get("a").unwrap().as_arr()[1].as_f64(), Some(-25.0));
    assert_eq!(v.get("a").unwrap().as_arr()[2], Value::Bool(true));
    assert_eq!(
        v.get("b").unwrap().get("c").unwrap().as_str(),
        Some("x\"y\n")
    );
    assert_eq!(escape("x\"y\n"), "x\\\"y\\n");
    assert!(parse("{\"a\": 1} x").is_err());
    assert!(parse("{\"a\": ").is_err());
}

#[test]
fn bounds_decide_and_wide_spreads_stay_unresolved() {
    let rps = end_to_end("rounds_per_s").unwrap(); // higher is better
    let b = rps.bound;
    assert_eq!(
        judge(rps, &[100.0], &[100.0 * (1.0 - b / 2.0)], false),
        Verdict::Same
    );
    assert_eq!(
        judge(rps, &[100.0], &[100.0 * (1.0 - 2.0 * b)], false),
        Verdict::Worse
    );
    assert_eq!(
        judge(rps, &[100.0], &[100.0 * (1.0 + 2.0 * b)], false),
        Verdict::Better
    );
    let noisy = [40.0, 100.0, 160.0, 100.0];
    let calm = [99.0, 101.0, 100.0, 100.0];
    assert_eq!(judge(rps, &noisy, &calm, false), Verdict::Unresolved);
    assert_eq!(
        judge(rps, &noisy, &[170.0, 180.0, 190.0, 200.0], false),
        Verdict::Better
    );
}

#[test]
fn deterministic_metrics_compare_exactly_for_equal_seeds() {
    let loss = end_to_end("final_loss").unwrap(); // lower is better
    assert_eq!(judge(loss, &[2.0], &[2.0], true), Verdict::Same);
    assert_eq!(judge(loss, &[2.0], &[2.0001], true), Verdict::Worse);
    assert_eq!(judge(loss, &[2.0], &[2.0001], false), Verdict::Same);
    assert_eq!(judge(loss, &[2.0], &[1.9999], true), Verdict::Better);
}
