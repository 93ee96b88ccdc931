//! The metric catalogue (it must match `BENCHMARK.json`) and the result
//! every workload hands back.

use std::collections::BTreeMap;

use crate::json::{int, num, obj, text, Value};
use crate::stats::Tally;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("records_per_s", "records/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("table.parse_ms", "ms"),
    ("store.ingest_ms", "ms"),
    ("store.ingest_mb_per_s", "MB/s"),
    ("store.ingest_rows", "count"),
    ("store.session_hit_ratio", "ratio"),
    ("store.session_ingests", "count"),
    ("store.session_evictions", "count"),
    ("store.fingerprint_ms", "ms"),
    ("core.stage_ms", "ms"),
    ("core.search_ms", "ms"),
    ("core.polled", "count"),
    ("core.generated", "count"),
    ("core.polled_per_generated", "ratio"),
    ("core.finalize_ms", "ms"),
    ("core.render_ms", "ms"),
    ("core.rank_ms", "ms"),
    ("core.rank_kept_ratio", "ratio"),
    ("core.cost_ms", "ms"),
    ("core.delta_ms", "ms"),
    ("core.delta_pairs_spliced", "count"),
    ("core.delta_pairs_redone", "count"),
    ("core.delta_blocks_reused_ratio", "ratio"),
    ("core.delta_manifest_bytes", "bytes"),
    ("core.delta_fallbacks", "count"),
    ("blocking.refine_ms", "ms"),
    ("blocking.refine_records_per_s", "records/s"),
    ("blocking.blocks_out", "count"),
    ("blocking.overlap_ms", "ms"),
    ("blocking.greedy_map_ms", "ms"),
    ("functions.induce_ms", "ms"),
    ("functions.candidates", "count"),
    ("functions.apply_ms", "ms"),
    ("serve.stage_ms", "ms"),
    ("serve.search_ms", "ms"),
    ("serve.respond_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.busy_rejections", "count"),
    ("obs.events_per_op", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.search_unnamed_ratio", "ratio"),
];

/// One latency figure with the sample count behind it.
#[derive(Clone, Copy, Default)]
pub struct Latency {
    pub p50: f64,
    pub p90: f64,
    pub samples: usize,
    /// Samples strictly above the p90 value.
    pub beyond_p90: usize,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Latency {
        Latency {
            p50: crate::stats::median(samples),
            p90: crate::stats::percentile(samples, 90.0),
            samples: samples.len(),
            beyond_p90: crate::stats::beyond(samples, 90.0),
        }
    }
}

/// What a workload measured. End-to-end fields are filled by untraced
/// runs, `layers` by traced runs.
#[derive(Default)]
pub struct Run {
    pub tally: Tally,
    pub setup_s: f64,
    /// How many set-ups `setup_s` is the median of.
    pub setup_reps: usize,
    /// The name of this workload's operation in the log
    /// (`explain`, `reprofile`, `request`).
    pub op: &'static str,
    pub latency: Latency,
    pub ops_per_s: f64,
    pub records_per_s: f64,
    /// Operations `records_per_s` is computed over.
    pub record_ops: usize,
    pub peak_rss_mb: f64,
    pub layers: BTreeMap<&'static str, f64>,
    pub inputs: Vec<Value>,
    /// Extra log lines (per-layer breakdowns, spreads).
    pub notes: Vec<String>,
}

impl Run {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "records_per_s" => self.records_per_s,
            "op_ms_p50" => self.latency.p50,
            "op_ms_p90" => self.latency.p90,
            "ops_per_s" => self.ops_per_s,
            "peak_rss_mb" => self.peak_rss_mb,
            other => unreachable!("no end-to-end metric {other}"),
        }
    }

    /// Human-readable lines: every metric with its unit and the sample
    /// count behind it.
    pub fn log_lines(&self, trace: bool) -> Vec<String> {
        let mut out = Vec::new();
        if trace {
            for (name, unit) in PER_LAYER {
                let v = self.layers.get(name).copied().unwrap_or(0.0);
                out.push(format!("{name:<34} {v:>14.4} {unit}"));
            }
        } else {
            let op = self.op;
            let l = &self.latency;
            out.push(format!(
                "setup_s            {:>12.4} s          (median of {} set-ups)",
                self.setup_s, self.setup_reps
            ));
            out.push(format!(
                "records_per_s      {:>12.1} records/s  (over {} operations)",
                self.records_per_s, self.record_ops
            ));
            out.push(format!(
                "op_ms_p50          {:>12.3} ms         ({op}_ms_p50, n={})",
                l.p50, l.samples
            ));
            out.push(format!(
                "op_ms_p90          {:>12.3} ms         ({op}_ms_p90, n={}, {} beyond)",
                l.p90, l.samples, l.beyond_p90
            ));
            out.push(format!(
                "ops_per_s          {:>12.4} 1/s        ({op}s per second)",
                self.ops_per_s
            ));
            out.push(format!("peak_rss_mb        {:>12.2} MiB", self.peak_rss_mb));
            out.push(format!(
                "error_rate         {:>12.6} ratio      ({} failed of {} attempted)",
                self.tally.failed as f64 / self.tally.attempted.max(1) as f64,
                self.tally.failed,
                self.tally.attempted
            ));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self, trace: bool) -> Value {
        let metrics: Vec<(&str, Value)> = if trace {
            PER_LAYER
                .iter()
                .map(|(name, unit)| {
                    let v = self.layers.get(name).copied().unwrap_or(0.0);
                    (*name, obj(vec![("value", num(v)), ("unit", text(unit))]))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|(name, unit)| {
                    (
                        *name,
                        obj(vec![
                            ("value", num(self.end_to_end(name))),
                            ("unit", text(unit)),
                        ]),
                    )
                })
                .collect()
        };
        obj(vec![
            ("correct", Value::Bool(self.tally.failed == 0)),
            ("attempted", int(self.tally.attempted)),
            ("failed", int(self.tally.failed)),
            ("metrics", obj(metrics)),
        ])
    }
}
