//! The benchmark's statistics helpers, its closed-loop accounting, and
//! the agreement between `BENCHMARK.json` and the metrics the binary
//! emits.

use qrel_servebench::report::{END_TO_END, PER_LAYER};
use qrel_servebench::stats::{
    blocked_percentile, highest_percentile, median, percentile, quartiles, spread, StatsError,
};
use qrel_servebench::tally::{OpKind, OpRecord, Tally};
use qrel_servebench::workloads::Workload;
use serde::Value;
use std::time::{Duration, Instant};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

/// Samples and the quartiles Python's `statistics.quantiles(data, n=4)`
/// gives for them.
type QuartileCase<'a> = (&'a [f64], (f64, f64, f64));

#[test]
fn quartiles_match_python_statistics_quantiles() {
    let cases: [QuartileCase; 5] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            (2.75, 5.5, 8.25),
        ),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], (1.5, 3.0, 4.5)),
        (&[3.0, 1.0, 2.0], (1.0, 2.0, 3.0)),
        (&[2.0, 1.0], (0.75, 1.5, 2.25)),
        (&[0.11, 0.5, 0.2, 0.9, 0.3, 0.35, 0.41], (0.2, 0.35, 0.5)),
    ];
    for (data, (q1, q2, q3)) in cases {
        let got = quartiles(data).expect("two or more samples");
        assert!(
            close(got.0, q1) && close(got.1, q2) && close(got.2, q3),
            "{data:?}: got {got:?}"
        );
    }
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn spread_is_interquartile_distance_over_median() {
    let s = spread(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
    assert!(close(s, (8.25 - 2.75) / 5.5));
    assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
}

#[test]
fn p99_needs_a_thousand_samples() {
    let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(percentile(&ramp(1000), 99.0), Ok(990.0));
    assert!(matches!(
        percentile(&ramp(999), 99.0),
        Err(StatsError::ThinTail { samples: 999, .. })
    ));
    assert_eq!(percentile(&ramp(100), 90.0), Ok(90.0));
    assert_eq!(percentile(&ramp(20), 50.0), Ok(10.0));
    assert_eq!(percentile(&[], 50.0), Err(StatsError::Empty));
}

#[test]
fn highest_percentile_keeps_ten_samples_beyond() {
    assert_eq!(highest_percentile(10_000), Some(99.9));
    assert_eq!(highest_percentile(9_999), Some(99.0));
    assert_eq!(highest_percentile(1_000), Some(99.0));
    assert_eq!(highest_percentile(999), Some(95.0));
    assert_eq!(highest_percentile(100), Some(90.0));
    assert_eq!(highest_percentile(20), Some(50.0));
    assert_eq!(highest_percentile(19), None);
}

#[test]
fn blocked_percentile_takes_the_median_block() {
    // Three blocks of 1000 with p99s 990, 1990 and 2990: one slow block
    // cannot set the result alone.
    let xs: Vec<f64> = (1..=3000).map(|i| i as f64).collect();
    assert_eq!(blocked_percentile(&xs, 99.0, 1000), Ok(1990.0));
    // 2500 samples make two even blocks of 1250, never a thin third.
    let xs: Vec<f64> = (1..=2500).map(|i| i as f64).collect();
    assert_eq!(
        blocked_percentile(&xs, 99.0, 1000),
        Ok((1238.0 + 2488.0) / 2.0)
    );
    // Too few samples for even one block is refused, as for p99 itself.
    assert!(blocked_percentile(&xs[..999], 99.0, 1000).is_err());
}

fn op(kind: OpKind, ms: f64, ok: bool, hit: bool, elapsed_us: Option<u64>) -> OpRecord {
    OpRecord {
        kind,
        latency_ms: ms,
        outcome: if ok {
            Ok(())
        } else {
            Err("wrong answer".into())
        },
        cache_hit: hit,
        elapsed_us,
        finished: Instant::now(),
    }
}

#[test]
fn closed_loop_accounting() {
    let mut a = Tally::default();
    a.record(op(OpKind::Solve, 4.0, true, false, Some(3000)));
    a.record(op(OpKind::Solve, 1.0, true, true, None));
    a.record(op(OpKind::Write, 2.0, true, false, None));
    a.record(op(OpKind::Solve, 9.0, false, false, Some(100)));
    a.window_s = 2.0;
    let mut b = Tally::default();
    b.record(op(OpKind::Solve, 6.0, true, false, Some(5000)));
    b.window_s = 3.0;
    a.merge(b);

    assert_eq!(a.attempted, 5);
    assert_eq!(a.failed, 1);
    assert_eq!(a.completed(), 4);
    assert_eq!(a.failures, vec!["wrong answer".to_string()]);
    // Failed operations leave no latency sample.
    assert_eq!(a.solve_ms, vec![4.0, 1.0, 6.0]);
    assert_eq!(a.write_ms, vec![2.0]);
    assert_eq!(a.hit_ms, vec![1.0]);
    assert_eq!(a.elapsed_us, vec![3000.0, 5000.0]);
    assert_eq!(a.outside_ms, vec![1.0, 1.0]);
    assert!(close(a.window_s, 5.0));
    assert!(close(a.fail_ratio(), 1.0 / 5.0));
    assert_eq!(a.solves, 3);
    assert!(close(a.hit_ratio(), 1.0 / 3.0));
    assert_eq!(Tally::default().hit_ratio(), 0.0);
}

#[test]
fn solves_are_ordered_by_completion_across_clients() {
    let t0 = Instant::now();
    let at = |ms: u64| {
        let mut o = op(OpKind::Solve, ms as f64, true, false, None);
        o.finished = t0 + Duration::from_millis(ms);
        o
    };
    let (mut a, mut b) = (Tally::default(), Tally::default());
    a.record(at(1));
    a.record(at(4));
    b.record(at(2));
    b.record(at(3));
    a.merge(b);
    assert_eq!(a.solve_ms_by_completion(), vec![1.0, 2.0, 3.0, 4.0]);
    a.drop_solves_before(t0 + Duration::from_millis(3));
    assert_eq!(a.solve_ms_by_completion(), vec![3.0, 4.0]);
    assert_eq!((a.attempted, a.solves), (4, 4));
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn benchmark_json_names_what_the_binary_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let v: Value = serde_json::from_str(&text).expect("valid JSON");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(v.get("workloads").unwrap()), workloads);
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(v.get("end_to_end").unwrap()), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(v.get("per_layer").unwrap()), layers);
    for (list, emitted) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for (m, (_, unit)) in v.get(list).unwrap().as_array().unwrap().iter().zip(emitted) {
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
        }
    }
}
