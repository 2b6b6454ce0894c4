//! Shared cell runner for the `trace_replay` bench (§4.3.5 traces,
//! multi-tenant QoS) and its determinism test.
//!
//! One *cell* is one replay of one trace against a freshly formatted
//! file system: `trace x {lfs, ffs} x spindles x qos {on, off}`. Every
//! cell mounts the file system on a [`volume::StripedVolume`] (one
//! spindle is the degenerate stripe), replays through the volume's
//! [`engine::RequestEngine`] seam, fscks the result, digests the final
//! namespace for the cross-fs equivalence check, and publishes the
//! replay's per-tenant outcome as gauges so the QoS claims the binary
//! asserts can be re-read from the emitted JSON alone.

use ffs_baseline::FfsConfig;
use lfs_core::LfsConfig;
use obs::Registry;
use trace::{replay, snapshot, ReplayConfig, ReplayReport, Trace};
use vfs::FileSystem;
use volume::{VolumeConfig, VolumeDisk};

use crate::{modern_ffs, modern_lfs, volume_rig, MetricsReport};

/// Sectors per spindle (64 MB each, Wren IV mechanics).
const SPINDLE_SECTORS: u64 = 131_072;

/// Which file system a cell mounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsKind {
    /// The log-structured file system under test.
    Lfs,
    /// The FFS baseline.
    Ffs,
}

impl FsKind {
    /// Label fragment (`lfs` / `ffs`).
    pub fn name(self) -> &'static str {
        match self {
            FsKind::Lfs => "lfs",
            FsKind::Ffs => "ffs",
        }
    }
}

/// One replayed cell's outcome.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// `trace/fs/sN/q{on,off}` — also the metrics-run label.
    pub label: String,
    /// The replay driver's report.
    pub report: ReplayReport,
    /// FNV-1a digest of the final namespace snapshot; equal across
    /// every cell that replayed the same trace.
    pub snapshot_hash: u64,
}

/// FNV-1a digest of a namespace snapshot (kind, size, content hash per
/// path) — one u64 the JSON report can carry per cell.
pub fn snapshot_digest(snap: &[(String, vfs::FileKind, u64, u64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{snap:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Publishes the replay outcome as gauges in the cell's registry, so
/// the `BENCH_trace_replay.json` run carries everything the QoS
/// claims are computed from: per-tenant weight, p99, and
/// contended-window bytes, plus aggregate throughput and the namespace
/// digest.
fn publish_gauges(registry: &Registry, trace: &Trace, report: &ReplayReport, digest: u64) {
    for t in &report.per_tenant {
        let c = t.client;
        let qos = trace.qos.tenant(c);
        registry
            .gauge(&format!("trace.t{c:02}.weight"))
            .set(qos.weight);
        registry
            .gauge(&format!("trace.t{c:02}.p99_ns"))
            .set(t.p99_ns());
        registry
            .gauge(&format!("trace.t{c:02}.contended_bytes"))
            .set(report.contended_bytes[c]);
        registry
            .gauge(&format!("trace.t{c:02}.bytes_total"))
            .set(t.bytes_total());
    }
    registry.gauge("replay.elapsed_ns").set(report.elapsed_ns);
    registry.gauge("replay.total_ops").set(report.total_ops);
    registry.gauge("replay.failed_ops").set(report.failed_ops);
    registry
        .gauge("replay.contended_ns")
        .set(report.contended_ns);
    registry
        .gauge("replay.ops_per_sec_milli")
        .set((report.ops_per_sec() * 1000.0) as u64);
    registry.gauge("replay.snapshot_hash").set(digest);
}

/// Replays `trace` on a freshly formatted `fs` and publishes the
/// outcome into its registry; the caller fscks and records it.
fn replay_cell<F: FileSystem>(
    fs: &mut F,
    registry: &Registry,
    pump: &VolumeDisk,
    trace: &Trace,
    rcfg: &ReplayConfig,
) -> (ReplayReport, u64) {
    let report = replay(fs, pump, registry, trace, rcfg).expect("replay");
    let digest = snapshot_digest(&snapshot(fs).expect("snapshot"));
    publish_gauges(registry, trace, &report, digest);
    (report, digest)
}

/// Runs one cell: format, replay, snapshot, publish, fsck, record.
pub fn run_cell(
    kind: FsKind,
    trace_name: &str,
    trace: &Trace,
    spindles: usize,
    qos: bool,
    metrics: &mut MetricsReport,
) -> CellResult {
    let label = format!(
        "{trace_name}/{}/s{spindles}/q{}",
        kind.name(),
        if qos { "on" } else { "off" }
    );
    let rcfg = ReplayConfig::default().with_qos(qos);
    let rig = |chunk_bytes| {
        volume_rig(VolumeConfig::rr_segment(spindles, chunk_bytes), SPINDLE_SECTORS, None)
    };
    let (report, snapshot_hash) = match kind {
        FsKind::Lfs => {
            let cfg = LfsConfig::paper();
            let (dev, clock) = rig(cfg.stripe_chunk_bytes());
            let pump = dev.clone();
            let (mut fs, registry) = modern_lfs(dev, cfg, clock);
            let out = replay_cell(&mut fs, &registry, &pump, trace, &rcfg);
            metrics.add_clean_lfs(&label, &mut fs);
            out
        }
        FsKind::Ffs => {
            let cfg = FfsConfig::paper();
            let (dev, clock) = rig(cfg.stripe_chunk_bytes());
            let pump = dev.clone();
            let (mut fs, registry) = modern_ffs(dev, cfg, clock);
            let out = replay_cell(&mut fs, &registry, &pump, trace, &rcfg);
            metrics.add_clean_ffs(&label, &mut fs);
            out
        }
    };
    CellResult {
        label,
        report,
        snapshot_hash,
    }
}
