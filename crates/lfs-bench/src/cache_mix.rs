//! Shared cell runner for the memory-manager arm of the `mt_scaling`
//! bench and its determinism test.
//!
//! Two cell shapes exercise the adaptive write-buffer / read-cache
//! split against the shared-LRU baseline:
//!
//! * **Mix cells** — N closed-loop clients each overwrite their files
//!   and re-read a hot subset ([`engine::run_overwrite_read_mix`]).
//!   The write stream fills the write buffer while the hot sets want
//!   read-cache residency, so the policies' boundary choices separate:
//!   a shared LRU lets dirty data squeeze the hot sets out, the
//!   adaptive manager shrinks its write target toward one segment and
//!   gives the reclaimed memory to the protected read pool.
//! * **Scan cells** — a few read-only *victim* clients with resident
//!   working sets plus one *scanner* streaming a file far larger than
//!   the cache, each block touched once. A shared LRU lets the scan
//!   evict every victim's working set; the 2Q-style read cache confines
//!   it to the probation pool. The `solo` variant drops the scanner and
//!   provides the baseline the scan cell's victim hit rate is compared
//!   against.
//!
//! Every cell publishes its outcome as `mix.*` / `scan.*` gauges before
//! snapshotting, so the adaptive-vs-shared and scan-resistance claims
//! `mt_scaling` asserts can be re-read from `BENCH_mt_scaling.json`.

use std::cell::RefCell;
use std::rc::Rc;

use engine::{run_overwrite_read_mix, EngineConfig, EngineCore, EngineDisk, MixConfig};
use lfs_core::{Lfs, LfsConfig};
use mem_mgr::CachePolicy;

use crate::{engine_rig, modern_lfs, MetricsReport, Verdict};

/// Block size for every cache cell: 1 KB, so each 1 KB file is exactly
/// one cache block and working-set arithmetic is exact.
const BLOCK_SIZE: usize = 1024;
/// Segment size: 128 blocks — the memory manager's flush unit and the
/// adaptive write target's floor.
const SEGMENT_BYTES: usize = 128 * 1024;
/// Size of each mix-client file (one block).
const FILE_SIZE: usize = 1024;
/// Files each mix client owns.
const FILES_PER_CLIENT: usize = 8;
/// Of which this many form the re-read working set.
const HOT_FILES: usize = 2;
/// Measured operations per mix client.
const OPS_PER_CLIENT: usize = 16;
/// Read share of the mix (per mille).
const READ_PERMILLE: u32 = 700;
/// Mean think time between operations.
const THINK_NS: u64 = 600_000;

/// Victim clients in a scan cell.
const SCAN_VICTIMS: usize = 8;
/// Files per victim (all hot: victims are read-only re-readers). Kept
/// small so a victim's re-touch interval fits inside the read cache's
/// ghost window even while the scanner churns the probation pool.
const SCAN_VICTIM_FILES: usize = 8;
/// Measured operations per victim.
const SCAN_VICTIM_OPS: usize = 64;
/// Scan-cell cache budget: 256 blocks — fits every victim working set
/// (128 blocks) but not the scanner's stream.
const SCAN_CACHE_BYTES: usize = 256 * 1024;
/// The scanner's file: sixteen times the cache, so the stream never
/// wraps and every block really is touched exactly once.
const SCAN_FILE_BYTES: usize = 4 * 1024 * 1024;
/// Bytes the scanner reads per operation: 64 blocks, so each scanner
/// dispatch pushes a large one-touch burst through the cache.
const SCAN_CHUNK_BYTES: usize = 64 * 1024;
/// Scanner operations: exactly one pass over the file.
const SCAN_OPS: usize = 64;

/// One mix cell's outcome.
#[derive(Debug, Clone)]
pub struct MixCellResult {
    /// `lfs/mix/<policy>/m<kib>k/c<clients>` — also the metrics label.
    pub label: String,
    /// Closed-loop throughput over the measured phase (files touched
    /// per second of virtual time).
    pub ops_per_sec: f64,
    /// Client-attributed read hit rate over the measured phase, in
    /// per-mille (setup is unattributed and excluded).
    pub hit_rate_millis: u64,
    /// The adaptive write target at the end of the run, in blocks.
    pub write_target_blocks: usize,
}

/// One scan cell's outcome.
#[derive(Debug, Clone)]
pub struct ScanCellResult {
    /// `lfs/scan/<policy>/<scan|solo>` — also the metrics label.
    pub label: String,
    /// Victim-attributed hit rate in per-mille.
    pub victim_hit_rate_millis: u64,
}

fn cell_fs(
    policy: CachePolicy,
    cache_bytes: usize,
) -> (Lfs<EngineDisk>, obs::Registry, Rc<RefCell<EngineCore>>) {
    let (core, dev, clock) = engine_rig(EngineConfig::default());
    let cfg = LfsConfig::paper()
        .with_block_size(BLOCK_SIZE)
        .with_segment_bytes(SEGMENT_BYTES)
        .with_cache_bytes(cache_bytes)
        .with_cache_policy(policy);
    let (fs, registry) = modern_lfs(dev, cfg, clock);
    (fs, registry, core)
}

/// Vacuity guards every cache cell shares: the memory manager really
/// served the cell (hits and misses, a write target) and attributed it
/// to clients (ghost list, per-client hits and residency).
fn guard_cache_cell(verdict: &mut Verdict, label: &str, snap: &obs::Snapshot) {
    verdict.guard(
        snap.counter("cache.hits") > 0 && snap.counter("cache.misses") > 0,
        format!("{label}: the cache saw no hits or no misses"),
    );
    verdict.guard(
        snap.gauge("cache.write_target_blocks") >= 1,
        format!("{label}: no write target"),
    );
    let has = |list: &[(String, u64)], name: &str| list.iter().any(|(n, _)| n == name);
    verdict.guard(
        has(&snap.counters, "cache.ghost_hits")
            && has(&snap.counters, "cache.client.000.hits")
            && has(&snap.gauges, "cache.client.000.resident_blocks"),
        format!("{label}: ghost-hit or per-client cache instruments missing"),
    );
}

/// Sums client-attributed hits and misses over a range of client ids.
fn attributed_rate(fs: &Lfs<EngineDisk>, ids: impl Iterator<Item = u32>) -> u64 {
    let report = fs.cache_report();
    let (mut hits, mut misses) = (0u64, 0u64);
    for id in ids {
        if let Some((_, u)) = report.clients.iter().find(|(c, _)| *c == id) {
            hits += u.hits;
            misses += u.misses;
        }
    }
    hits * 1000 / (hits + misses).max(1)
}

/// Runs one overwrite+read mix cell and snapshots it into `metrics`.
pub fn run_mix_cell(
    policy: CachePolicy,
    clients: usize,
    cache_bytes: usize,
    metrics: &mut MetricsReport,
    verdict: &mut Verdict,
) -> MixCellResult {
    let (mut fs, registry, core) = cell_fs(policy, cache_bytes);
    let cfg = MixConfig::new(clients, FILES_PER_CLIENT, FILE_SIZE)
        .with_read_permille(READ_PERMILLE)
        .with_hot_files(HOT_FILES)
        .with_think_ns(THINK_NS);
    let mix = {
        let mut cfg = cfg;
        cfg.ops_per_client = OPS_PER_CLIENT;
        run_overwrite_read_mix(&mut fs, &core, &registry, &cfg).expect("mix run")
    };
    let fsck = fs.fsck().expect("fsck");
    assert!(fsck.is_clean(), "LFS inconsistent after mix run:\n{fsck}");

    let ops_per_sec = mix.multi.throughput_ops_per_sec();
    let hit_rate_millis = attributed_rate(&fs, 0..clients as u32);
    let report = fs.cache_report();
    registry
        .gauge("mix.ops_per_sec_milli")
        .set((ops_per_sec * 1000.0) as u64);
    registry.gauge("mix.read_hit_rate_millis").set(hit_rate_millis);
    registry.gauge("mix.read_ops").set(mix.read_ops);
    registry.gauge("mix.write_ops").set(mix.write_ops);

    let label = format!(
        "lfs/mix/{}/m{}k/c{clients:04}",
        policy.as_str(),
        cache_bytes / 1024
    );
    metrics.add_lfs(&label, &fs);
    guard_cache_cell(verdict, &label, &registry.snapshot());
    MixCellResult {
        label,
        ops_per_sec,
        hit_rate_millis,
        write_target_blocks: report.write_target_blocks,
    }
}

/// Runs one streaming-scan cell (`scanner = true`) or its scanner-free
/// baseline (`scanner = false`) and snapshots it into `metrics`.
pub fn run_scan_cell(
    policy: CachePolicy,
    scanner: bool,
    metrics: &mut MetricsReport,
    verdict: &mut Verdict,
) -> ScanCellResult {
    let (mut fs, registry, core) = cell_fs(policy, SCAN_CACHE_BYTES);
    let mut cfg = MixConfig::new(SCAN_VICTIMS, SCAN_VICTIM_FILES, FILE_SIZE)
        .with_read_permille(1000)
        .with_hot_files(SCAN_VICTIM_FILES)
        .with_think_ns(THINK_NS);
    cfg.ops_per_client = SCAN_VICTIM_OPS;
    if scanner {
        cfg = cfg.with_scanners(1, SCAN_FILE_BYTES, SCAN_CHUNK_BYTES, SCAN_OPS);
    }
    run_overwrite_read_mix(&mut fs, &core, &registry, &cfg).expect("scan run");
    let fsck = fs.fsck().expect("fsck");
    assert!(fsck.is_clean(), "LFS inconsistent after scan run:\n{fsck}");

    let victim_hit_rate_millis = attributed_rate(&fs, 0..SCAN_VICTIMS as u32);
    registry
        .gauge("scan.victim_hit_rate_millis")
        .set(victim_hit_rate_millis);

    let label = format!(
        "lfs/scan/{}/{}",
        policy.as_str(),
        if scanner { "scan" } else { "solo" }
    );
    metrics.add_lfs(&label, &fs);
    guard_cache_cell(verdict, &label, &registry.snapshot());
    ScanCellResult {
        label,
        victim_hit_rate_millis,
    }
}
