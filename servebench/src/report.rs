//! Turning a run's measurements into the named metrics, and the result
//! line the benchmark ends with.

use crate::stats::{blocked_percentile, median, percentile};
use crate::workloads::Measured;

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("solve_p50_ms", "ms"),
    ("solve_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`.
/// Layers a workload does not exercise report 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("serve.protocol.parse_us", "us"),
    ("prob.spec_build_us", "us"),
    ("serve.db_hash_us", "us"),
    ("store.db_hash_of_us", "us"),
    ("serve.body_bytes", "bytes"),
    ("logic.parse_formula_us", "us"),
    ("plan.compile_us", "us"),
    ("plan.eval_us", "us"),
    ("serve.plan_cache.hit_ratio", "ratio"),
    ("serve.plan_compiles", "count"),
    ("runtime.solve.plan_us", "us"),
    ("runtime.solve.exact_us", "us"),
    ("runtime.solve.fptras_us", "us"),
    ("core.exact.worlds", "count"),
    ("core.exact.worlds_per_s", "1/s"),
    ("core.fptras.samples", "count"),
    ("core.fptras.samples_per_s", "1/s"),
    ("serve.render_us", "us"),
    ("serve.elapsed_us", "us"),
    ("serve.outside_solve_ms", "ms"),
    ("serve.layer_sum_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.hit_ms", "ms"),
    ("serve.write_p50_ms", "ms"),
    ("serve.write_p99_ms", "ms"),
    ("sched.coalesced", "count"),
    ("store.commit_ms", "ms"),
    ("store.rebuild_ms", "ms"),
    ("store.segments_end", "count"),
    ("store.bytes_written_per_user_byte", "ratio"),
    ("store.open_ms", "ms"),
    ("store.load_build_ms", "ms"),
];

/// Solves per block of the blocked p99: the fewest that support p99.
const P99_BLOCK: usize = 1000;

fn solve_p50_ms(m: &Measured) -> Result<f64, String> {
    median(&m.tally.solve_ms).ok_or_else(|| "no solve completed".to_string())
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end(m: &Measured) -> Result<Vec<f64>, String> {
    let completed = m.tally.completed();
    if completed == 0 {
        return Err("no operation completed".into());
    }
    let rates: Vec<f64> = m.bins.iter().map(|b| b.ops as f64 / b.secs).collect();
    let cpu_per_op: Vec<f64> = m
        .bins
        .iter()
        .filter(|b| b.ops > 0)
        .map(|b| b.cpu.as_secs_f64() * 1e3 / b.ops as f64)
        .collect();
    Ok(vec![
        median(&m.setup_s).ok_or("no set-up sample")?,
        median(&rates).ok_or("no measurement bin")?,
        solve_p50_ms(m)?,
        blocked_percentile(&m.tally.solve_ms_by_completion(), 99.0, P99_BLOCK)
            .map_err(|e| format!("solve p99: {e}"))?,
        median(&cpu_per_op).ok_or("no measurement bin completed an operation")?,
        m.peak_rss_mb,
    ])
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(m: &Measured) -> Result<Vec<f64>, String> {
    let counter = |series: &str| m.counters.get(series).copied().unwrap_or(0.0);
    let or_zero = |v: Option<f64>| v.unwrap_or(0.0);
    let mut named = m
        .replay
        .as_ref()
        .map(|r| r.layer_metrics())
        .unwrap_or_default();
    named.extend(m.store_layers.iter().map(|(k, v)| (*k, *v)));

    let (plan_hits, plan_misses) = (
        counter("qrel_plan_cache_hits_total"),
        counter("qrel_plan_cache_misses_total"),
    );
    named.insert(
        "serve.plan_cache.hit_ratio",
        if plan_hits + plan_misses > 0.0 {
            plan_hits / (plan_hits + plan_misses)
        } else {
            0.0
        },
    );
    named.insert("serve.plan_compiles", plan_misses);
    named.insert("sched.coalesced", counter("qrel_sched_coalesce_hits_total"));
    named.insert("serve.elapsed_us", or_zero(median(&m.tally.elapsed_us)));
    named.insert(
        "serve.outside_solve_ms",
        or_zero(median(&m.tally.outside_ms)),
    );
    named.insert("serve.cache.hit_ratio", m.tally.hit_ratio());
    named.insert("serve.cache.hit_ms", or_zero(median(&m.tally.hit_ms)));
    let layer_sum_ms = m
        .replay
        .as_ref()
        .and_then(|r| median(&r.tr.request_layer_sums_us()))
        .map_or(0.0, |us| us / 1e3);
    named.insert("serve.layer_sum_ms", layer_sum_ms);
    named.insert("serve.unattributed_ms", solve_p50_ms(m)? - layer_sum_ms);
    let writes = &m.tally.write_ms;
    if !writes.is_empty() {
        named.insert("serve.write_p50_ms", or_zero(median(writes)));
        named.insert(
            "serve.write_p99_ms",
            percentile(writes, 99.0).map_err(|e| format!("write p99: {e}"))?,
        );
    }
    Ok(PER_LAYER
        .iter()
        .map(|(name, _)| named.get(name).copied().unwrap_or(0.0))
        .collect())
}

/// The last line of the benchmark's output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str)],
    values: &[f64],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .zip(values)
        .map(|((name, unit), v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
