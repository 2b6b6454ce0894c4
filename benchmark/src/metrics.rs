//! The metric catalogue — every name the benchmark reports, with its
//! unit and where the number comes from — plus the small numeric
//! helpers the metrics are built from.
//!
//! `BENCHMARK.json` and `README.md` list the same names; a self-test
//! holds the three together.

use std::collections::BTreeMap;

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The replay report and the phases the benchmark times itself.
    EndToEnd,
    /// Registry delta over the measured phase, summed over spindles.
    Registry,
    /// Benchmark spans of the traced repeat.
    Spans,
    /// A layer drill.
    Drill,
    /// A call the benchmark times itself.
    Call,
    /// The FFS reference arm.
    FfsArm,
}

impl Source {
    pub fn code(self) -> &'static str {
        match self {
            Source::EndToEnd => "E",
            Source::Registry => "R",
            Source::Spans => "S",
            Source::Drill => "D",
            Source::Call => "C",
            Source::FfsArm => "F",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub source: Source,
    /// Measured on the virtual clock or counted: repeats exactly for a
    /// given seed. Host-time metrics do not.
    pub exact: bool,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change counts as a
    /// regression.
    pub bound: Option<f64>,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    source: Source,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        source,
        exact,
        bound: None,
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    exact: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        bound: Some(bound),
        ..def(name, unit, higher_is_better, Source::EndToEnd, exact)
    }
}

use Source::{Call as C, Drill as D, FfsArm as F, Registry as R, Spans as S};

/// What a user of the system sees. The driver compares runs on ten
/// different seeds, so each bound is at least three times the widest
/// seed-to-seed spread measured on any workload (README, "Bounds"); two
/// runs on one seed must agree exactly on every `exact` metric.
pub const END_TO_END: &[MetricDef] = &[
    e2e("virt_ops_per_s", "1/s", true, true, 0.10),
    e2e("virt_op_mean_us", "us", false, true, 0.10),
    e2e("virt_op_tail_1pct_us", "us", false, true, 0.12),
    e2e("virt_op_tail_01pct_us", "us", false, true, 0.20),
    e2e("write_amp", "ratio", false, true, 0.10),
    e2e("read_amp", "ratio", false, true, 0.20),
    e2e("space_amp", "ratio", false, true, 0.10),
    e2e("host_ops_per_s", "1/s", true, false, 0.25),
    e2e("host_peak_rss_mb", "MB", false, false, 0.15),
    e2e("setup_s", "s", false, false, 0.25),
];

/// One row per layer metric; the layers are the crates.
pub const PER_LAYER: &[MetricDef] = &[
    def("vfs.calls", "count", false, S, true),
    def("vfs.host_us_per_call", "us", false, S, false),
    def("vfs.lookup.host_us", "us", false, S, false),
    def("vfs.create.host_us", "us", false, S, false),
    def("vfs.write.host_us", "us", false, S, false),
    def("vfs.read.host_us", "us", false, S, false),
    def("vfs.unlink.host_us", "us", false, S, false),
    def("vfs.create.virt_us", "us", false, S, true),
    def("vfs.write.virt_us", "us", false, S, true),
    def("vfs.read.virt_us", "us", false, S, true),
    def("vfs.unlink.virt_us", "us", false, S, true),
    def("vfs.sync.virt_us", "us", false, S, true),
    def("trace.parse_records_per_s", "1/s", true, C, false),
    def("trace.driver_host_share", "ratio", false, S, false),
    def("trace.op_p50_us", "us", false, R, true),
    def("trace.op_p99_us", "us", false, R, true),
    def("trace.op_p999_us", "us", false, R, true),
    def("trace.dep_violations", "count", false, R, true),
    def("trace.probe_p99_us", "us", false, R, true),
    def("trace.weighted_share_ratio", "ratio", true, R, true),
    def("lfs-core.log_bytes_per_user_byte", "ratio", false, R, true),
    def("lfs-core.chunks_written", "count", false, R, true),
    def("lfs-core.partial_chunk_share", "ratio", false, R, true),
    def("lfs-core.meta_block_share", "ratio", false, R, true),
    def("lfs-core.checkpoints", "count", false, R, true),
    def("lfs-core.segments_cleaned", "count", false, R, true),
    def("lfs-core.cleaner_bytes_read", "bytes", false, R, true),
    def("lfs-core.cleaner_blocks_copied", "count", false, R, true),
    def("lfs-core.cleaned_util", "ratio", false, R, true),
    def("lfs-core.cleaner_io_share", "ratio", false, R, true),
    def("lfs-core.dirty_segment_share", "ratio", false, R, true),
    def("lfs-core.recovery_virt_ms", "ms", false, C, true),
    def("lfs-core.rollforward_chunks", "count", false, R, true),
    def("lfs-core.recovery_parallel_reads", "count", true, R, true),
    def("lfs-core.mount_host_ms", "ms", false, C, false),
    def("lfs-core.fsck_host_ms", "ms", false, C, false),
    def("lfs-core.fsck_virt_ms", "ms", false, C, true),
    def("mem-mgr.hit_rate", "ratio", true, R, true),
    def("mem-mgr.evictions", "count", false, R, true),
    def("mem-mgr.flush_bytes", "bytes", false, R, true),
    def("mem-mgr.flush_chunk_writes", "count", false, R, true),
    def("mem-mgr.ghost_hits", "count", false, R, true),
    def("mem-mgr.boundary_moves", "count", false, R, true),
    def("mem-mgr.write_target_blocks", "count", false, R, true),
    def("mem-mgr.drill_host_ns_per_op", "ns", false, D, false),
    def("engine.sched_decisions", "count", false, R, true),
    def("engine.coalesced_writes", "count", true, R, true),
    def("engine.queue_wait_virt_ms", "ms", false, R, true),
    def("engine.backpressure_virt_ms", "ms", false, R, true),
    def("engine.dependency_stall_virt_ms", "ms", false, R, true),
    def("engine.queue_depth_max", "count", false, R, true),
    def("engine.qos_picks", "count", false, R, true),
    def("engine.drill_host_ns_per_req", "ns", false, D, false),
    def("volume.requests", "count", false, R, true),
    def("volume.subrequests_per_request", "ratio", false, R, true),
    def("volume.stripe_balance_millis", "permille", true, R, true),
    def("volume.degraded_reads", "count", false, R, true),
    def("volume.drill_host_ns_per_req", "ns", false, D, false),
    def("sim-disk.requests", "count", false, R, true),
    def("sim-disk.bytes_written", "bytes", false, R, true),
    def("sim-disk.bytes_read", "bytes", false, R, true),
    def("sim-disk.busy_virt_s", "s", false, R, true),
    def("sim-disk.seek_share", "ratio", false, R, true),
    def("sim-disk.rotation_share", "ratio", false, R, true),
    def("sim-disk.transfer_share", "ratio", true, R, true),
    def("sim-disk.sequential_share", "ratio", true, R, true),
    def("sim-disk.utilization", "ratio", false, R, true),
    def("sim-disk.drill_host_ns_per_req", "ns", false, D, false),
    def("obs.hist_record_host_ns", "ns", false, D, false),
    def("obs.snapshot_host_us", "us", false, D, false),
    def("ffs-baseline.virt_ops_per_s", "1/s", true, F, true),
    def("ffs-baseline.host_ops_per_s", "1/s", true, F, false),
    def("ffs-baseline.sync_writes", "count", false, F, true),
    def("ffs-baseline.lfs_virt_speedup", "ratio", true, F, true),
    def("host.wall_s", "s", false, C, false),
    def("host.cpu_s", "s", false, C, false),
    def("host.tracing_overhead_share", "ratio", false, C, false),
];

/// A metric's value on one workload: a number, or the reason there is
/// none (e.g. a QoS metric on a workload without QoS classes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Num(f64),
    Na(&'static str),
}

impl Value {
    pub fn num(self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(v),
            Value::Na(_) => None,
        }
    }
}

pub type Values = BTreeMap<&'static str, Value>;

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Rank (1-based) of the nearest-rank percentile `permille`‰ among
/// `len` sorted samples: the smallest rank with at least that share of
/// the samples at or below it. Integer arithmetic — in floating point
/// 99.9% of 1000 is 999.0000000000001 and rounds up to the maximum.
fn rank(len: usize, permille: usize) -> usize {
    (permille * len).div_ceil(1000).clamp(1, len)
}

/// Nearest-rank percentile of an ascending-sorted slice; `permille` is
/// 500 for the median, 999 for p99.9.
pub fn percentile(sorted: &[u64], permille: usize) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Samples strictly beyond the nearest-rank percentile.
pub fn samples_beyond(len: usize, permille: usize) -> usize {
    len - rank(len, permille)
}

/// Median of host-time samples (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_hand_computed_cases() {
        // 1000 samples 1..=1000: p99 is the 990th (10 beyond it), p99.9
        // the 999th (1 beyond), p50 the 500th.
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&samples, 500), 500);
        assert_eq!(percentile(&samples, 990), 990);
        assert_eq!(samples_beyond(samples.len(), 990), 10);
        assert_eq!(percentile(&samples, 999), 999);
        assert_eq!(samples_beyond(samples.len(), 999), 1);
        // 10 000 samples: ten beyond p99.9.
        assert_eq!(samples_beyond(10_000, 999), 10);
        // Tiny inputs clamp to the ends.
        assert_eq!(percentile(&[7], 999), 7);
        assert_eq!(percentile(&[1, 2, 3], 0), 1);
        assert_eq!(percentile(&[10, 20, 30, 40], 500), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 751), 40);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn catalogue_names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }
}
