//! The overwrite+read mix and streaming-scan drivers.
//!
//! [`run_small_file_create`](crate::run_small_file_create) measures the
//! write path in isolation. The memory manager's central tension —
//! write-buffer space versus read-cache space — only shows up when the
//! same clients both overwrite files (filling the write buffer) and
//! re-read a hot subset (rewarding read-cache residency). This module
//! adds that workload, plus an optional *scanner* arm: clients that
//! stream through a large file exactly once, which a shared LRU lets
//! flush every other client's working set while a scan-resistant cache
//! confines to the probation pool.
//!
//! The event loop is [`run_closed_loop`], the same earliest-ready-client
//! dispatch as the create driver, so virtual time remains deterministic
//! and metrics JSON byte-identical across runs.

use obs::Registry;
use vfs::{FileSystem, FsResult, Ino};
use workload::payload;
use workload::small_files::SmallFileSpec;

use crate::driver::run_closed_loop;
use crate::multi::{MultiReport, RequestEngine};

/// Parameters of an overwrite+read mix run.
#[derive(Debug, Clone)]
pub struct MixConfig {
    /// Number of regular (mix) clients.
    pub clients: usize,
    /// Files each regular client owns.
    pub files_per_client: usize,
    /// Size of each file in bytes.
    pub file_size: usize,
    /// Operations each regular client performs in the measured phase.
    pub ops_per_client: usize,
    /// Per-mille of operations that are reads (the rest are full-file
    /// overwrites).
    pub read_permille: u32,
    /// Reads are drawn uniformly from the first `hot_files` of the
    /// client's files (its working set); overwrites are drawn uniformly
    /// from *all* of its files.
    pub hot_files: usize,
    /// Number of scanner clients appended after the regular clients.
    /// Each owns one `scan_file_bytes` file and reads it sequentially,
    /// one block-sized chunk per operation, touching each chunk once
    /// per pass.
    pub scanners: usize,
    /// Size of each scanner's file in bytes.
    pub scan_file_bytes: usize,
    /// Bytes a scanner reads per operation (use the file-system block
    /// size so each operation touches exactly one new cache block).
    pub scan_chunk_bytes: usize,
    /// Operations each scanner performs.
    pub scan_ops: usize,
    /// Mean think time between a client's operations, in nanoseconds.
    pub think_ns: u64,
    /// Seed for the deterministic jitter and op mix.
    pub seed: u64,
}

impl MixConfig {
    /// A mix config with default pacing and a 70% read share over a
    /// quarter-of-the-files working set, and no scanners.
    pub fn new(clients: usize, files_per_client: usize, file_size: usize) -> Self {
        Self {
            clients,
            files_per_client,
            file_size,
            ops_per_client: files_per_client * 4,
            read_permille: 700,
            hot_files: (files_per_client / 4).max(1),
            scanners: 0,
            scan_file_bytes: 0,
            scan_chunk_bytes: 0,
            scan_ops: 0,
            think_ns: 600_000,
            seed: 0x5EED,
        }
    }

    /// Adds `scanners` streaming clients, each reading a
    /// `scan_file_bytes` file in `scan_chunk_bytes` chunks for
    /// `scan_ops` operations.
    pub fn with_scanners(
        mut self,
        scanners: usize,
        scan_file_bytes: usize,
        scan_chunk_bytes: usize,
        scan_ops: usize,
    ) -> Self {
        self.scanners = scanners;
        self.scan_file_bytes = scan_file_bytes;
        self.scan_chunk_bytes = scan_chunk_bytes;
        self.scan_ops = scan_ops;
        self
    }

    /// Sets the read share (per mille).
    pub fn with_read_permille(mut self, read_permille: u32) -> Self {
        self.read_permille = read_permille.min(1000);
        self
    }

    /// Sets the working-set size reads are drawn from.
    pub fn with_hot_files(mut self, hot_files: usize) -> Self {
        self.hot_files = hot_files.clamp(1, self.files_per_client);
        self
    }

    /// Sets the mean think time.
    pub fn with_think_ns(mut self, think_ns: u64) -> Self {
        self.think_ns = think_ns;
        self
    }

}

/// Outcome of a mix run: the shared [`MultiReport`] plus read/write op
/// counts (hit rates come from the registry's `cache.*` counters).
#[derive(Debug, Clone)]
pub struct MixReport {
    /// The event-loop report (throughput, fairness, per-client latency).
    pub multi: MultiReport,
    /// Read operations completed (including scanner reads).
    pub read_ops: u64,
    /// Overwrite operations completed.
    pub write_ops: u64,
}

/// Deterministic per-op hash, keyed by `(seed, client, op, salt)`.
fn op_hash(seed: u64, client: usize, op: usize, salt: u64) -> u64 {
    let mut x = seed
        ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (op as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ salt.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

fn jittered_think_ns(seed: u64, client: usize, op: usize, mean: u64) -> u64 {
    mean * (75 + op_hash(seed, client, op, 0x7417) % 51) / 100
}

/// Runs the overwrite+read mix (with optional scanner arm) against a
/// mounted file system.
///
/// Setup (unattributed): every regular client's files are created and
/// written once; every scanner's stream file is created; the cache is
/// dropped so the measured phase starts cold. Measurement: the
/// earliest-ready client dispatches its next operation — a hot-set read
/// or a full-file overwrite for regular clients, the next sequential
/// chunk for scanners — with cache charges attributed via
/// [`FileSystem::set_active_client`] and disk queue waits via
/// [`RequestEngine::set_client`].
pub fn run_overwrite_read_mix<F: FileSystem>(
    fs: &mut F,
    core: &impl RequestEngine,
    registry: &Registry,
    cfg: &MixConfig,
) -> FsResult<MixReport> {
    assert!(cfg.clients > 0, "at least one regular client");
    assert!(cfg.hot_files >= 1 && cfg.hot_files <= cfg.files_per_client);
    if cfg.scanners > 0 {
        assert!(
            cfg.scan_chunk_bytes > 0 && cfg.scan_file_bytes >= cfg.scan_chunk_bytes,
            "scanner geometry must be set via with_scanners"
        );
    }
    let clock = core.clock();
    let total_clients = cfg.clients + cfg.scanners;

    // Setup: files exist and are fully written before measurement.
    core.set_client(None);
    fs.set_active_client(None);
    core.register_clients(total_clients);
    let specs: Vec<SmallFileSpec> = (0..cfg.clients)
        .map(|c| SmallFileSpec::for_client(c, cfg.files_per_client, cfg.file_size))
        .collect();
    let payloads: Vec<Vec<u8>> = specs.iter().map(|s| payload(s.seed, s.file_size)).collect();
    let mut files: Vec<Vec<Ino>> = Vec::with_capacity(cfg.clients);
    for (c, spec) in specs.iter().enumerate() {
        for d in 0..spec.ndirs() {
            match fs.mkdir(&spec.dir(d)) {
                Ok(_) | Err(vfs::FsError::AlreadyExists) => {}
                Err(e) => return Err(e),
            }
        }
        let mut inos = Vec::with_capacity(cfg.files_per_client);
        for i in 0..cfg.files_per_client {
            inos.push(fs.write_file(&spec.path(i), &payloads[c])?);
        }
        files.push(inos);
    }
    let mut scan_files: Vec<Ino> = Vec::with_capacity(cfg.scanners);
    if cfg.scanners > 0 {
        let scan_payload = payload(0x5CA7, cfg.scan_file_bytes);
        for s in 0..cfg.scanners {
            scan_files.push(fs.write_file(&format!("/scan{s:03}.dat"), &scan_payload)?);
        }
    }
    fs.sync()?;
    // Cold start: the measured phase's hit rates reflect the policy's
    // own residency decisions, not setup leftovers.
    fs.drop_caches()?;

    let mut budgets = vec![cfg.ops_per_client; cfg.clients];
    budgets.resize(total_clients, cfg.scan_ops);
    let mut read_ops = 0u64;
    let mut write_ops = 0u64;
    let mut read_buf = vec![0u8; cfg.file_size.max(cfg.scan_chunk_bytes)];
    let run = run_closed_loop(
        fs,
        core,
        &budgets,
        |c, op| jittered_think_ns(cfg.seed, c, op, cfg.think_ns),
        None,
        |fs, turn| {
            let (c, op_index) = (turn.client, turn.op);
            fs.set_active_client(Some(c as u32));
            if c < cfg.clients {
                // Regular client: hot-set read or full-file overwrite.
                let roll = op_hash(cfg.seed, c, op_index, 0x01) % 1000;
                if (roll as u32) < cfg.read_permille {
                    let i = (op_hash(cfg.seed, c, op_index, 0x02) % cfg.hot_files as u64) as usize;
                    fs.read_at(files[c][i], 0, &mut read_buf[..cfg.file_size])?;
                    read_ops += 1;
                } else {
                    let i = (op_hash(cfg.seed, c, op_index, 0x03) % cfg.files_per_client as u64)
                        as usize;
                    fs.write_at(files[c][i], 0, &payloads[c])?;
                    write_ops += 1;
                }
            } else {
                // Scanner: the next sequential chunk, each touched once per
                // pass over the file.
                let s = c - cfg.clients;
                let chunks = (cfg.scan_file_bytes / cfg.scan_chunk_bytes).max(1);
                let offset = ((op_index % chunks) * cfg.scan_chunk_bytes) as u64;
                fs.read_at(scan_files[s], offset, &mut read_buf[..cfg.scan_chunk_bytes])?;
                read_ops += 1;
            }
            Ok(())
        },
    )?;

    core.set_client(None);
    fs.set_active_client(None);
    fs.sync()?;
    let report = MultiReport::publish(registry, total_clients, &run, clock.now_ns());
    Ok(MixReport {
        multi: report,
        read_ops,
        write_ops,
    })
}
