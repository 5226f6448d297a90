//! The metric catalog (names, units, directions — `BENCHMARK.json`
//! lists the same) and the result line a run prints.

use crate::stats::Summary;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees; printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("answered_ios_per_s", "1/s", Higher),
    m("result_p50_ms", "ms", Lower),
    m("result_tail_ms", "ms", Lower),
    m("setup_s", "s", Lower),
    m("peak_heap_mb", "MB", Lower),
];

/// One layer at a time; printed by every traced run. Counts and ratios
/// of a layer a workload bypasses read 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("traced.answered_ios_per_s", "1/s", Higher),
    m("traced.result_p50_ms", "ms", Lower),
    m("host.kernel_us", "us", Lower),
    m("trace_store.gen_ns_per_event", "ns", Lower),
    m("trace_store.spill_ns_per_event", "ns", Lower),
    m("trace_store.peak_mb", "MB", Lower),
    m("iotrace.decode_ns_per_event", "ns", Lower),
    m("iotrace.wire_bytes_per_event", "B", Lower),
    m("iosim.build_us", "us", Lower),
    m("iosim.run_ns_per_io", "ns", Lower),
    m("iosim.unattributed_ns_per_io", "ns", Lower),
    m("iosim.report_serialize_us", "us", Lower),
    m("iosim.context_switches_per_io", "count", Lower),
    m("iosim.sync_blocks_per_io", "count", Lower),
    m("sim_core.wheel_ops_per_io", "count", Lower),
    m("sim_core.cascades_per_io", "count", Lower),
    m("sim_core.overflow_per_io", "count", Lower),
    m("sim_core.wheel_ns_per_op", "ns", Lower),
    m("sim_core.wheel_ns_per_io", "ns", Lower),
    m("buffer_cache.blocks_per_io", "count", Lower),
    m("buffer_cache.hit_ratio", "ratio", Higher),
    m("buffer_cache.dirty_evictions_per_io", "count", Lower),
    m("buffer_cache.flush_batches_per_io", "count", Lower),
    m("buffer_cache.unhinted_probe_ratio", "ratio", Lower),
    m("buffer_cache.ns_per_call", "ns", Lower),
    m("buffer_cache.replay_hit_ratio", "ratio", Higher),
    m("buffer_cache.ns_per_io", "ns", Lower),
    m("storage.accesses_per_io", "count", Lower),
    m("storage.seek_ratio", "ratio", Lower),
    m("storage.queue_wait_share", "ratio", Lower),
    m("storage.tier_promotions_per_io", "count", Lower),
    m("storage.ns_per_access", "ns", Lower),
    m("storage.ns_per_io", "ns", Lower),
    m("sharded.epochs_per_mio", "count", Lower),
    m("sharded.remote_ops_per_kio", "count", Lower),
    m("serve.cache_hit_ratio", "ratio", Higher),
    m("serve.executions_per_req", "count", Lower),
    m("serve.queue_wait_share", "ratio", Lower),
    m("serve.protocol_share", "ratio", Lower),
    m("obs.spans_on_overhead_pct", "%", Lower),
    m("obs.dropped_ratio", "ratio", Lower),
];

/// Measured values by metric name, with the sample summary behind a
/// value where there is one.
#[derive(Debug, Clone, Default)]
pub struct Values {
    values: BTreeMap<&'static str, (f64, Option<Summary>)>,
}

impl Values {
    /// Set a single measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None));
    }

    /// Set a value taken from a sample summary.
    pub fn set_summary(&mut self, name: &'static str, value: f64, summary: Summary) {
        self.values.insert(name, (value, Some(summary)));
    }

    /// A value set earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// Fold `other`'s values in, replacing equal names.
    pub fn extend(&mut self, other: Values) {
        self.values.extend(other.values);
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The catalog printed: [`END_TO_END`] or [`PER_LAYER`].
    pub catalog: &'static [MetricDef],
    /// Measured values.
    pub values: Values,
}

impl RunReport {
    /// Catalogued metrics the run did not measure, or measured as a
    /// non-finite number.
    pub fn missing(&self) -> Vec<&'static str> {
        self.catalog
            .iter()
            .filter(|d| !self.values.get(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect()
    }

    /// Whether every operation passed and every metric was measured.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.missing().is_empty()
    }

    /// Process exit status: 0 only for a correct run.
    pub fn exit_code(&self) -> u8 {
        if self.correct() {
            0
        } else {
            1
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every catalogued metric's value and unit.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .catalog
            .iter()
            .map(|d| {
                let v = self
                    .values
                    .get(d.name)
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", d.name, d.unit)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// A human-readable table: value, unit, and for sampled metrics the
    /// quartiles, the supported tail percentile and the sample count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<34} {:>14} {:<6} {:>12} {:>12} {:>20} {:>7}\n",
            "metric", "value", "unit", "q1", "q3", "tail", "n"
        );
        for d in self.catalog {
            let Some((v, s)) = self.values.values.get(d.name) else {
                continue;
            };
            let (q1, q3, tail, n) = match s {
                Some(s) => (
                    format!("{:.4}", s.q1),
                    format!("{:.4}", s.q3),
                    s.tail
                        .map_or("-".to_string(), |(p, v)| format!("p{p}={v:.4}")),
                    s.n.to_string(),
                ),
                None => ("-".into(), "-".into(), "-".into(), "-".into()),
            };
            out.push_str(&format!(
                "{:<34} {:>14.4} {:<6} {q1:>12} {q3:>12} {tail:>20} {n:>7}\n",
                d.name, v, d.unit
            ));
        }
        out
    }
}
