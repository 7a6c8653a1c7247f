//! `car_benchmark`: seeded end-to-end and per-layer measurements of the
//! CAR reasoner and server. See `README.md` beside this package for the
//! workloads, the metrics and how to run, trace and compare.

pub mod compare;
pub mod gen;
pub mod load;
pub mod server;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workloads;

/// The end-to-end metrics every timed run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every [`END_TO_END`] metric of a timed run, `None` where too few
/// samples support it. Latencies and CPU per operation are medians over
/// blocks of the window (see [`stats::blocked_percentile`]).
#[must_use]
pub fn end_to_end(r: &workloads::RunResult) -> Vec<(&'static str, Option<f64>, &'static str)> {
    let latencies: Vec<f64> = r.ops.iter().map(|&(_, l)| l).collect();
    let times: Vec<f64> = r.ops.iter().map(|&(t, _)| t).collect();
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "setup_s" => Some(stats::median(&r.setup_s)),
                "query_p50_ms" => stats::blocked_percentile(&latencies, 0.5),
                "query_p90_ms" => stats::blocked_percentile(&latencies, 0.9),
                "cpu_ms_per_op" => stats::blocked_rate(&times, &r.cpu),
                "peak_rss_mb" => Some(r.peak_rss_mb),
                _ => None,
            };
            (name, value, unit)
        })
        .collect()
}

/// Renders the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its value and unit.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    )
}
