//! One repeat of one workload: every phase from the seed to the
//! verified crash image, and the metrics and checks it yields.
//!
//! setup (generate text, parse, format) → fill (replay the fill trace)
//! → measured (replay the main trace, registry snapshot either side) →
//! fsck → tail (new files, most of them fsync'd, no sync) → crash (keep
//! only the disk images) → mount on a fresh clock → verify against a
//! model file system fed the same records in id order.

use std::sync::Arc;
use std::time::Instant;

use lfs_core::layout::usage_block::SegState;
use lfs_core::Lfs;
use obs::Snapshot;
use sim_disk::Clock;
use trace::{replay, snapshot, ReplayReport, Trace};
use vfs::model::ModelFs;
use vfs::{FileKind, FileSystem};
use volume::VolumeDisk;

use crate::gen::{Rng, TracePair};
use crate::host;
use crate::metrics::{percentile, ratio, Value, Values};
use crate::spanfs::{SpanFs, SpanLog};
use crate::workload::Workload;

/// Tail phase: this many new 16 KB files are written, then the volume
/// crashes.
const TAIL_FILES: usize = 48;

/// Five tail files in six are fsync'd as soon as they are written; the
/// sixth is left un-synced and never inspected. The last file is a
/// synced one, so the crash follows an fsync directly and roll-forward
/// always has a tail to replay.
fn tail_synced(file: usize) -> bool {
    file % 6 != 2
}

const TAIL_FILE_BYTES: usize = 16 * 1024;

/// One pass/fail line of the run's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        }
    }
}

/// Host-side measurements of one repeat.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    pub setup_s: f64,
    pub measured_s: f64,
    pub parse_records_per_s: f64,
    pub mount_host_ms: f64,
    pub fsck_host_ms: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl HostSample {
    /// Wall time well beyond CPU time on this single thread means the
    /// box was busy with something else.
    pub fn disturbed(&self) -> bool {
        self.cpu_s < 0.9 * self.wall_s
    }
}

/// Everything one repeat produced.
pub struct Repeat {
    /// Every metric that must repeat exactly for a seed: the
    /// virtual-time end-to-end metrics and the registry layer metrics.
    pub exact: Values,
    pub host: HostSample,
    pub fill_records: u64,
    pub main_records: u64,
    /// Tail files that were fsync'd before the crash, and how many of
    /// them the recovered volume no longer holds intact.
    pub synced_tail_files: u64,
    pub lost_synced: u64,
    /// Records that failed in either replay, plus `lost_synced`.
    pub failed_ops: u64,
    pub checks: Vec<Check>,
}

fn phase<R>(
    spans: Option<&SpanLog>,
    name: &'static str,
    clock: &Clock,
    f: impl FnOnce() -> R,
) -> R {
    match spans {
        Some(log) => log.phase(name, clock, f),
        None => f(),
    }
}

/// Hands `f` the file system — bare, or behind `SpanFs` in the traced
/// repeat.
fn on_fs<R>(
    lfs: &mut Lfs<VolumeDisk>,
    spans: Option<&SpanLog>,
    clock: &Clock,
    f: impl FnOnce(&mut dyn FileSystem) -> R,
) -> R {
    match spans {
        Some(log) => f(&mut SpanFs::new(lfs, log, clock)),
        None => f(lfs),
    }
}

/// Registry delta over the measured phase.
struct Delta<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
}

impl Delta<'_> {
    fn counter(&self, name: &str) -> f64 {
        (self.after.counter(name) - self.before.counter(name)) as f64
    }

    /// A per-spindle counter (`volume.spindle.<i>.<suffix>`), summed.
    fn spindles(&self, suffix: &str) -> f64 {
        self.after
            .counters
            .iter()
            .filter(|(n, _)| is_spindle_metric(n, suffix))
            .map(|(n, v)| (v - self.before.counter(n)) as f64)
            .sum()
    }
}

fn is_spindle_metric(name: &str, suffix: &str) -> bool {
    name.strip_prefix("volume.spindle.")
        .and_then(|rest| rest.split_once('.'))
        .is_some_and(|(_, tail)| tail == suffix)
}

fn tail_path(i: usize) -> String {
    format!("/tail/f{i:02}")
}

fn tail_payload(seed: u64, i: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ (0x7a11 + i as u64));
    let mut data = Vec::with_capacity(TAIL_FILE_BYTES);
    while data.len() < TAIL_FILE_BYTES {
        data.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    data
}

/// The program sees the workload only as text, through `Trace::parse`.
pub fn parse_pair(text: &TracePair) -> (Trace, Trace) {
    (
        Trace::parse(&text.fill).expect("generated fill trace parses"),
        Trace::parse(&text.main).expect("generated main trace parses"),
    )
}

/// What the file system must hold once a workload's two traces have
/// been replayed: the oracle of the verify phase. It depends only on
/// the seed, so a run builds it once and every repeat checks against it.
pub struct Oracle {
    /// `trace::snapshot` of the model: (path, kind, size, content hash).
    pub tree: Vec<(String, FileKind, u64, u64)>,
    /// Records the model itself refused (0 for a well-formed workload).
    pub refused: u64,
}

impl Oracle {
    /// Feeds the fill and main records to a `ModelFs` in id order.
    pub fn of(text: &TracePair) -> Oracle {
        let (fill, main) = parse_pair(text);
        let mut model = ModelFs::new();
        let mut refused = 0;
        for trace in [fill, main] {
            let mut records = trace.records;
            records.sort_by_key(|r| r.id);
            for r in records {
                refused += r.op.apply(&mut model).is_err() as u64;
            }
        }
        Oracle {
            tree: snapshot(&mut model).expect("model snapshot"),
            refused,
        }
    }

    fn live_bytes(&self) -> u64 {
        self.tree.iter().map(|(_, _, size, _)| size).sum()
    }
}

/// All per-tenant latencies of a report, merged and sorted.
fn all_latencies(report: &ReplayReport) -> Vec<u64> {
    let mut all: Vec<u64> = report
        .per_tenant
        .iter()
        .flat_map(|t| t.latencies_ns.iter().copied())
        .collect();
    all.sort_unstable();
    all
}

/// User bytes written and read by a replay.
fn user_bytes(report: &ReplayReport) -> (f64, f64) {
    let written: u64 = report.per_tenant.iter().map(|t| t.bytes_written).sum();
    let read: u64 = report.per_tenant.iter().map(|t| t.bytes_read).sum();
    (written as f64, read as f64)
}

/// Runs one repeat. With `spans`, every vfs call goes through `SpanFs`
/// and every phase is recorded.
pub fn repeat(
    w: Workload,
    seed: u64,
    scale: f64,
    oracle: &Oracle,
    spans: Option<&SpanLog>,
) -> Repeat {
    let wall = Instant::now();
    let cpu_start = host::cpu_seconds();
    let stack = w.stack();
    let mut checks = Vec::new();

    // ---- setup, fill ---------------------------------------------------
    let setup = Instant::now();
    let clock = Clock::new();
    let (fill, main, parse_records_per_s, mut lfs, pump) = phase(spans, "setup", &clock, || {
        let text = w.generate(seed, scale);
        let parse = Instant::now();
        let (fill, main) = parse_pair(&text);
        let records = (fill.records.len() + main.records.len()) as f64;
        let rate = records / parse.elapsed().as_secs_f64();
        let (lfs, pump) = stack.format(&clock);
        (fill, main, rate, lfs, pump)
    });
    let registry = lfs.obs().clone();
    let fill_report = phase(spans, "fill", &clock, || {
        on_fs(&mut lfs, spans, &clock, |fs| {
            replay(fs, &pump, &registry, &fill, &stack.replay)
        })
    })
    .expect("fill trace is valid");
    // The measured phase starts with a cold read cache, whatever the
    // fill happened to leave behind (its closing sync left nothing dirty).
    lfs.drop_caches().expect("drop caches");
    let setup_s = setup.elapsed().as_secs_f64();
    checks.push(Check::new(
        "fill_has_no_failures",
        fill_report.failed_ops == 0,
        format!(
            "{} of {} fill records failed",
            fill_report.failed_ops, fill_report.total_ops
        ),
    ));

    // ---- measured ------------------------------------------------------
    let before = registry.snapshot();
    let measured = Instant::now();
    let report = phase(spans, "measured", &clock, || {
        on_fs(&mut lfs, spans, &clock, |fs| {
            replay(fs, &pump, &registry, &main, &stack.replay)
        })
    })
    .expect("main trace is valid");
    let measured_s = measured.elapsed().as_secs_f64();
    let after = registry.snapshot();

    // ---- fsck ----------------------------------------------------------
    let fsck = Instant::now();
    let fsck_virt_start = clock.now_ns();
    let (fsck_report, used_bytes) = phase(spans, "fsck", &clock, || {
        let report = lfs.fsck().expect("fsck runs");
        (report, lfs.fs_stats().expect("fs_stats").used_bytes)
    });
    let fsck_host_ms = fsck.elapsed().as_secs_f64() * 1e3;
    let fsck_virt_ms = (clock.now_ns() - fsck_virt_start) as f64 / 1e6;
    checks.push(Check::new(
        "fsck_clean_before_crash",
        fsck_report.is_clean(),
        fsck_report.to_string(),
    ));
    let usage = lfs.usage_table();
    let dirty_segment_share = ratio(
        usage.segments_in_state(SegState::Dirty).len() as f64,
        usage.nsegments() as f64,
    );

    // ---- tail, crash ---------------------------------------------------
    phase(spans, "tail", &clock, || {
        on_fs(&mut lfs, spans, &clock, |fs| {
            fs.mkdir("/tail").expect("mkdir /tail");
            for file in 0..TAIL_FILES {
                let ino = fs
                    .write_file(&tail_path(file), &tail_payload(seed, file))
                    .expect("write tail file");
                if tail_synced(file) {
                    fs.fsync(ino).expect("fsync tail file");
                }
            }
        })
    });
    // Every handle and all memory state goes, writes still queued in
    // the engines are lost; only the spindle images survive.
    drop(pump);
    let images = lfs.into_device().into_images();

    // ---- mount ---------------------------------------------------------
    let clock = Clock::new();
    let dev = stack.device(&clock, Some(images));
    let mount = Instant::now();
    let mut lfs = phase(spans, "mount", &clock, || {
        Lfs::mount(dev, stack.lfs.clone(), Arc::clone(&clock))
    })
    .expect("LFS mounts its crash image");
    let mount_host_ms = mount.elapsed().as_secs_f64() * 1e3;
    let recovery_virt_ms = clock.now_ns() as f64 / 1e6;
    let recovered = lfs.obs().snapshot();

    // ---- verify --------------------------------------------------------
    let model = &oracle.tree;
    checks.push(Check::new(
        "model_accepts_every_record",
        oracle.refused == 0,
        format!("the model refused {} records", oracle.refused),
    ));
    let mut lost_synced = 0;
    phase(spans, "verify", &clock, || {
        let report = lfs.fsck().expect("fsck runs");
        checks.push(Check::new(
            "fsck_clean_after_mount",
            report.is_clean(),
            report.to_string(),
        ));
        on_fs(&mut lfs, spans, &clock, |fs| {
            let mut found = snapshot(fs).expect("snapshot of the recovered tree");
            found.retain(|(path, ..)| path != "/tail" && !path.starts_with("/tail/"));
            let differing = found.iter().zip(model).filter(|(a, b)| a != b).count()
                + found.len().abs_diff(model.len());
            checks.push(Check::new(
                "recovered_tree_equals_model",
                differing == 0,
                format!("{differing} of {} paths differ", model.len()),
            ));
            // A synced file that does not survive is counted as a failed
            // operation, not as a wrong output: the program has a known
            // way to lose one (README, finding 3) on about one seed in
            // fifty, and a later fix has to be able to show as a gain.
            lost_synced = (0..TAIL_FILES)
                .filter(|&file| tail_synced(file))
                .filter(|&file| {
                    fs.read_file(&tail_path(file)).ok() != Some(tail_payload(seed, file))
                })
                .count() as u64;
        })
    });

    // ---- metrics -------------------------------------------------------
    let d = Delta {
        before: &before,
        after: &after,
    };
    let block = stack.lfs.block_size as f64;
    let elapsed_s = report.elapsed_ns as f64 / 1e9;
    let latencies = all_latencies(&report);
    let pct_us = |permille| percentile(&latencies, permille) as f64 / 1e3;
    let (user_written, user_read) = user_bytes(&report);
    let disk_written = d.spindles("disk.bytes_written");
    let disk_read = d.spindles("disk.bytes_read");

    let meta_blocks: f64 = ["indirect", "inode", "imap", "usage", "summary"]
        .iter()
        .map(|kind| d.counter(&format!("log.{kind}_blocks_written")))
        .sum();
    let log_blocks = meta_blocks + d.counter("log.data_blocks_written");
    let cleaned = d.counter("cleaner.segments_cleaned");
    let copied = d.counter("cleaner.blocks_copied");
    let cleaner_read = d.counter("cleaner.bytes_read");
    let hits = d.counter("cache.hits");
    let requests = d.counter("volume.reads") + d.counter("volume.writes");
    let disk_requests = d.spindles("disk.reads") + d.spindles("disk.writes");
    let busy = d.spindles("disk.busy_ns");
    let spindles = stack.volume.spindles as f64;
    let queue_depth_max = after
        .gauges
        .iter()
        .filter(|(n, _)| is_spindle_metric(n, "engine.queue_depth_max"))
        .map(|(_, v)| *v)
        .max()
        .unwrap_or(0);

    let mut exact = Values::new();
    let mut put = |name: &'static str, v: f64| {
        exact.insert(name, Value::Num(v));
    };
    put("virt_ops_per_s", ratio(report.total_ops as f64, elapsed_s));
    // Means over a share of the sorted samples: unlike a percentile they
    // do not sit on a plateau of the CPU model's quantised costs.
    let n = latencies.len();
    let mean_us = |part: &[u64]| part.iter().sum::<u64>() as f64 / part.len() as f64 / 1e3;
    put("virt_op_mean_us", mean_us(&latencies));
    put(
        "virt_op_tail_1pct_us",
        mean_us(&latencies[n - n.div_ceil(100)..]),
    );
    put(
        "virt_op_tail_01pct_us",
        mean_us(&latencies[n - n.div_ceil(1000)..]),
    );
    put("trace.op_p50_us", pct_us(500));
    put("trace.op_p99_us", pct_us(990));
    put("trace.op_p999_us", pct_us(999));
    put("write_amp", ratio(disk_written, user_written));
    put("read_amp", ratio(disk_read, user_read));
    put(
        "space_amp",
        ratio(used_bytes as f64, oracle.live_bytes() as f64),
    );
    put("lfs-core.recovery_virt_ms", recovery_virt_ms);

    put("trace.dep_violations", report.dep_violations as f64);
    put(
        "trace.probe_p99_us",
        percentile(&report.per_tenant[0].latencies_ns, 990) as f64 / 1e3,
    );
    put(
        "lfs-core.log_bytes_per_user_byte",
        ratio(log_blocks * block, user_written),
    );
    put("lfs-core.chunks_written", d.counter("log.chunks_written"));
    put(
        "lfs-core.partial_chunk_share",
        ratio(
            d.counter("log.partial_chunks"),
            d.counter("log.chunks_written"),
        ),
    );
    put("lfs-core.meta_block_share", ratio(meta_blocks, log_blocks));
    put("lfs-core.checkpoints", d.counter("log.checkpoints"));
    put("lfs-core.segments_cleaned", cleaned);
    put("lfs-core.cleaner_bytes_read", cleaner_read);
    put("lfs-core.cleaner_blocks_copied", copied);
    put(
        "lfs-core.cleaned_util",
        ratio(copied * block, cleaned * stack.lfs.segment_bytes as f64),
    );
    put(
        "lfs-core.cleaner_io_share",
        ratio(cleaner_read + copied * block, disk_read + disk_written),
    );
    put("lfs-core.dirty_segment_share", dirty_segment_share);
    put(
        "lfs-core.rollforward_chunks",
        recovered.counter("recovery.rollforward_chunks") as f64,
    );
    put(
        "lfs-core.recovery_parallel_reads",
        recovered.counter("recovery.parallel_reads") as f64,
    );
    put("lfs-core.fsck_virt_ms", fsck_virt_ms);
    put(
        "mem-mgr.hit_rate",
        ratio(hits, hits + d.counter("cache.misses")),
    );
    put("mem-mgr.evictions", d.counter("cache.evictions"));
    put("mem-mgr.flush_bytes", d.counter("cache.flush_bytes"));
    put(
        "mem-mgr.flush_chunk_writes",
        d.counter("cache.flush_chunk_writes"),
    );
    put("mem-mgr.ghost_hits", d.counter("cache.ghost_hits"));
    put("mem-mgr.boundary_moves", d.counter("cache.boundary_moves"));
    put(
        "mem-mgr.write_target_blocks",
        after.gauge("cache.write_target_blocks") as f64,
    );
    put(
        "engine.sched_decisions",
        d.spindles("engine.sched_decisions"),
    );
    put(
        "engine.coalesced_writes",
        d.spindles("engine.coalesced_writes"),
    );
    put(
        "engine.queue_wait_virt_ms",
        d.spindles("disk.queue_wait_ns") / 1e6,
    );
    put(
        "engine.backpressure_virt_ms",
        d.spindles("engine.backpressure_ns") / 1e6,
    );
    put(
        "engine.dependency_stall_virt_ms",
        d.spindles("engine.dependency_stall_ns") / 1e6,
    );
    put("engine.queue_depth_max", queue_depth_max as f64);
    put("engine.qos_picks", d.spindles("engine.qos_picks"));
    put("volume.requests", requests);
    put(
        "volume.subrequests_per_request",
        ratio(d.counter("volume.subrequests"), requests),
    );
    put(
        "volume.stripe_balance_millis",
        after.gauge("volume.stripe_balance_millis") as f64,
    );
    put("volume.degraded_reads", d.counter("volume.degraded_reads"));
    put("sim-disk.requests", disk_requests);
    put("sim-disk.bytes_written", disk_written);
    put("sim-disk.bytes_read", disk_read);
    put("sim-disk.busy_virt_s", busy / 1e9);
    put(
        "sim-disk.seek_share",
        ratio(d.spindles("disk.seek_ns"), busy),
    );
    put(
        "sim-disk.rotation_share",
        ratio(d.spindles("disk.rotation_ns"), busy),
    );
    put(
        "sim-disk.transfer_share",
        ratio(d.spindles("disk.transfer_ns"), busy),
    );
    put(
        "sim-disk.sequential_share",
        ratio(d.spindles("disk.sequential"), disk_requests),
    );
    put(
        "sim-disk.utilization",
        ratio(busy / 1e9, spindles * elapsed_s),
    );

    exact.insert(
        "trace.weighted_share_ratio",
        if main.clients >= 3 {
            Value::Num(report.contended_ratio(1, 2))
        } else {
            Value::Na("needs three tenants: compares tenant 1 with tenant 2")
        },
    );

    checks.push(Check::new(
        "no_dependency_violations",
        report.dep_violations == 0,
        format!(
            "{} of {} edges violated",
            report.dep_violations, report.dep_edges_checked
        ),
    ));
    let parts = d.spindles("disk.seek_ns")
        + d.spindles("disk.rotation_ns")
        + d.spindles("disk.transfer_ns");
    checks.push(Check::new(
        "disk_time_shares_sum_to_one",
        parts == busy && busy > 0.0,
        format!("seek+rotation+transfer = {parts} ns of {busy} ns busy"),
    ));

    Repeat {
        exact,
        host: HostSample {
            setup_s,
            measured_s,
            parse_records_per_s,
            mount_host_ms,
            fsck_host_ms,
            wall_s: wall.elapsed().as_secs_f64(),
            cpu_s: host::cpu_seconds() - cpu_start,
        },
        fill_records: fill_report.total_ops,
        main_records: report.total_ops,
        synced_tail_files: (0..TAIL_FILES).filter(|&f| tail_synced(f)).count() as u64,
        lost_synced,
        failed_ops: fill_report.failed_ops + report.failed_ops + lost_synced,
        checks,
    }
}

/// The "does most of the work" claims, numerically: each workload is in
/// the regime it exists for, and out of the regimes it bypasses. Sized
/// for scale 1; smaller scales skip them.
pub fn regime_checks(w: Workload, exact: &Values) -> Vec<Check> {
    let get = |name: &str| exact[name].num().expect("numeric metric");
    let mut checks = Vec::new();
    let mut expect = |name: &str, ok: bool, want: &str| {
        checks.push(Check::new(
            format!("regime_{name}"),
            ok,
            format!("{name} = {}, expected {want}", get(name)),
        ));
    };
    let cleaned = get("lfs-core.segments_cleaned");
    let cleaner_share = get("lfs-core.cleaner_io_share");
    if w == Workload::HotcoldChurn {
        expect("lfs-core.segments_cleaned", cleaned >= 200.0, ">= 200");
        expect("lfs-core.cleaner_io_share", cleaner_share >= 0.5, ">= 0.5");
    } else {
        expect("lfs-core.segments_cleaned", cleaned == 0.0, "0");
        expect("lfs-core.cleaner_io_share", cleaner_share == 0.0, "0");
    }
    let fan = get("volume.subrequests_per_request");
    if w == Workload::ArrayMix {
        expect("volume.subrequests_per_request", fan > 1.0, "> 1");
    } else {
        expect("volume.subrequests_per_request", fan == 1.0, "1");
    }
    let hit_rate = get("mem-mgr.hit_rate");
    match w {
        Workload::ArrayMix => expect(
            "mem-mgr.hit_rate",
            (0.5..=0.85).contains(&hit_rate),
            "0.5 to 0.85",
        ),
        Workload::OfficeReplay => expect("mem-mgr.hit_rate", hit_rate >= 0.9, ">= 0.9"),
        _ => {}
    }
    if w == Workload::OfficeReplay {
        expect("write_amp", get("write_amp") < 0.5, "< 0.5");
    }
    if matches!(w, Workload::ArrayMix | Workload::OfficeReplay) {
        expect(
            "lfs-core.rollforward_chunks",
            get("lfs-core.rollforward_chunks") >= 1.0,
            ">= 1",
        );
    }
    checks
}
