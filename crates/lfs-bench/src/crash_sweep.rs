//! Exhaustive crash-consistency torture harness (§4.4).
//!
//! A scripted workload with periodic `sync` barriers runs once cleanly to
//! build a **durability model**: after each barrier, which files (and
//! which contents) the file system has promised to keep. Then, for every
//! write index the workload issues — and for each fault mode (dropped
//! trigger, torn trigger, lost reorder window) — the run is repeated
//! with a crash armed at that write, the surviving image is remounted,
//! and the recovered tree is checked against the model:
//!
//! * the volume must mount (LFS always; FFS may refuse loudly, which
//!   counts as *detected*, never as silent corruption),
//! * `fsck` must report a consistent volume after recovery,
//! * every file durable at the last barrier at-or-before the crash and
//!   untouched afterwards must come back byte-identical,
//! * every recovered file must be a path the workload actually created,
//!   holding (for LFS) bytes some version of that file actually held —
//!   stale data is an allowed outcome of a crash, fabricated data never.
//!
//! **Atomicity is per vfs call, not per script op.** A script write is
//! `create` (or `truncate(ino, 0)`) followed by `write_at`, and a cache
//! pressure flush may fall between the two calls, so the empty file is a
//! state the workload really put on disk. The model therefore records
//! every version a path held after each vfs call returned — the empty
//! file, and each prefix should `write_at` ever return short — and a
//! file touched since the last barrier may come back as any of them.
//! Files untouched since the barrier are still held to their exact
//! synced bytes.
//!
//! What varies between sweeps — the device, the configs, what the host
//! interleaves between operations, how strictly contents are checked —
//! is one row of the [`arms`] table; [`sweep`] is the one loop that runs
//! a row. All runs use the virtual clock and seeded fault plans, so a
//! sweep's output is byte-identical across invocations.

use std::sync::Arc;

use engine::{drain, offer, Maintenance};
use ffs_baseline::{Ffs, FfsConfig};
use lfs_core::{AsyncCleanerPolicy, CleanerRunMode, Lfs, LfsConfig};
use mem_mgr::CachePolicy;
use sim_disk::{Clock, CrashPlan, DiskGeometry, SimDisk};
use vfs::{FileSystem, FsError};
use volume::{RebuildPolicy, StripedVolume, VolumeConfig, VolumeDisk};

use crate::interference::CleanerTask;

mod model;
use model::{check_recovery, script, upsert, Barrier, Model, Op, Version};

/// 8 MB tiny-test volume: big enough for the scripted tree, small enough
/// that thousands of format+replay+remount cycles stay fast.
const DISK_SECTORS: u64 = 16_384;

/// 2 MB volume for the async-cleaner rows: small enough that the
/// incremental cleaner finds real victims during the scripted churn, so
/// crash points land inside active [`lfs_core::CleanerRun`]s.
const CLEANER_DISK_SECTORS: u64 = 4_096;

/// Per-spindle capacity of the rebuild row's parity volume: small so
/// the online rebuild's row writes are a large share of the swept write
/// range, putting many crash indices mid-rebuild.
const REBUILD_SPINDLE_SECTORS: u64 = 1_024;

/// The spindle the rebuild row kills. Fixed, so the model run and every
/// crash run issue identical device-write sequences.
const REBUILD_DEAD_SPINDLE: usize = 1;

/// Data chunk under the rebuild row's parity-segment policy: 8 KB.
const REBUILD_CHUNK_BYTES: usize = 8 * 1024;

/// How a crash treats the triggering write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// The triggering write is dropped entirely.
    Drop,
    /// Only a sector prefix of the triggering write persists.
    Torn,
    /// The triggering write and a volatile reorder window are lost.
    Reorder,
}

impl SweepMode {
    /// All modes, in sweep order.
    pub const ALL: [SweepMode; 3] = [SweepMode::Drop, SweepMode::Torn, SweepMode::Reorder];

    /// Stable lowercase name (table rows, metric names).
    pub fn name(self) -> &'static str {
        match self {
            SweepMode::Drop => "drop",
            SweepMode::Torn => "torn",
            SweepMode::Reorder => "reorder",
        }
    }

    /// The crash plan for this mode at workload write `idx` (an absolute
    /// device write index). Torn prefixes and window sizes vary
    /// deterministically with the index so the sweep covers several
    /// tear/window shapes.
    fn plan(self, idx: u64) -> CrashPlan {
        match self {
            SweepMode::Drop => CrashPlan::drop_at(idx),
            SweepMode::Torn => CrashPlan::tear_at(idx, idx % 4),
            SweepMode::Reorder => CrashPlan::reorder_at(idx, 2 + (idx % 7) as usize),
        }
    }
}

/// Sweep shape: workload size and crash-index stride.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Number of write/sync phases in the scripted workload.
    pub phases: usize,
    /// Files created per phase.
    pub files_per_phase: usize,
    /// Crash-index stride. 1 = exhaustive (every write index).
    pub stride: u64,
}

impl SweepSpec {
    /// The full torture sweep: every crash index of a multi-phase run.
    pub fn full() -> Self {
        Self {
            phases: 6,
            files_per_phase: 8,
            stride: 1,
        }
    }

    /// A bounded smoke sweep for CI: a smaller script, still exhaustive
    /// over its (fewer) write indices. LFS batches a whole phase into a
    /// few segment writes, so it needs several phases to produce a
    /// meaningful number of crash points.
    pub fn smoke() -> Self {
        Self {
            phases: 4,
            files_per_phase: 4,
            stride: 1,
        }
    }
}

/// The mounted file system under test, over whichever device its arm
/// uses. Everything the sweep needs beyond [`FileSystem`] — the device
/// write counter (crash indices), the consistency check, the surviving
/// images — is spelled out here once per variant.
enum Rig {
    Lfs(Box<Lfs<SimDisk>>),
    Ffs(Box<Ffs<SimDisk>>),
    Striped(Box<Lfs<VolumeDisk>>),
}

impl Rig {
    fn fs(&mut self) -> &mut dyn FileSystem {
        match self {
            Rig::Lfs(fs) => &mut **fs,
            Rig::Ffs(fs) => &mut **fs,
            Rig::Striped(fs) => &mut **fs,
        }
    }

    /// Writes persisted so far. On a volume this counts across all
    /// spindles in global persist order — the same index space the
    /// shared crash plan triggers on, so barrier bookkeeping is
    /// stripe-agnostic.
    fn disk_writes(&self) -> u64 {
        match self {
            Rig::Lfs(fs) => fs.device().stats().writes,
            Rig::Ffs(fs) => fs.device().stats().writes,
            Rig::Striped(fs) => fs.device().global_writes(),
        }
    }

    /// Runs the fs's own consistency check; `Ok(None)` = clean,
    /// `Ok(Some(report))` = problems found.
    fn check_consistency(&mut self) -> Result<Option<String>, FsError> {
        let (clean, report) = match self {
            Rig::Lfs(fs) => fs.fsck().map(|r| (r.is_clean(), r.to_string()))?,
            Rig::Ffs(fs) => fs.fsck().map(|r| (r.is_clean(), r.to_string()))?,
            Rig::Striped(fs) => fs.fsck().map(|r| (r.is_clean(), r.to_string()))?,
        };
        Ok((!clean).then_some(report))
    }

    fn into_images(self) -> Vec<Vec<u8>> {
        match self {
            Rig::Lfs(fs) => vec![fs.into_device().into_image()],
            Rig::Ffs(fs) => vec![fs.into_device().into_image()],
            Rig::Striped(fs) => fs.into_device().into_images(),
        }
    }

    /// Spindle partitions the mount's roll-forward scan was split into.
    fn recovery_partitions(&self) -> u64 {
        match self {
            Rig::Lfs(fs) => fs.stats().recovery_partitions,
            Rig::Striped(fs) => fs.stats().recovery_partitions,
            Rig::Ffs(_) => 0,
        }
    }

    /// Checkpoints taken inside an async cleaner run whose final chunk
    /// filled its segment. Only those record offset 0: every checkpoint
    /// writes the usage table, so it ends past a segment's start unless
    /// that last chunk sealed the segment and opened the one it linked.
    fn segment_end_checkpoints_mid_clean(&self) -> usize {
        let Rig::Striped(fs) = self else { return 0 };
        let mut running = false;
        let mut seg_end_mid_clean = |e: &obs::Event| {
            if e.kind == "cleaner_run" {
                running = e.detail.starts_with("start");
            }
            running && e.kind == "checkpoint" && e.detail.ends_with(" offset=0")
        };
        let events = fs.obs().events();
        events.iter().filter(|e| seg_end_mid_clean(e)).count()
    }

    /// The LFS on a volume, for the hooks that only make sense there.
    fn striped(&mut self) -> &mut Lfs<VolumeDisk> {
        match self {
            Rig::Striped(fs) => fs,
            _ => panic!("this arm's hook needs an LFS on a striped volume"),
        }
    }
}

/// What an arm's script runs on.
#[derive(Debug, Clone)]
enum Device {
    /// One bare [`SimDisk`] of [`DISK_SECTORS`].
    Disk,
    /// A striped volume of identical spindles.
    Volume {
        cfg: VolumeConfig,
        spindle_sectors: u64,
    },
}

/// Which file system an arm formats or remounts, and how.
#[derive(Debug, Clone)]
enum FsCfg {
    Lfs(LfsConfig),
    Ffs(FfsConfig),
}

/// What the host does around each scripted op. The model run and every
/// crash run apply the identical rule, so their device write sequences
/// match up to the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hook {
    None,
    /// Resize the adaptive cache's write target after op `i`, marching it
    /// across its clamp range so resize-triggered flushes and evictions
    /// fall throughout the script.
    WobbleBoundary,
    /// Offer the async cleaner a bounded burst of steps after every op,
    /// exactly as an event-loop host would between foreground dispatches,
    /// and finish its in-flight run at the end of the script so the
    /// committing checkpoint is part of the swept write range.
    Cleaner,
    /// Kill a spindle a third of the way in, swap in a blank replacement
    /// at two thirds, and offer the online rebuild steps after every op
    /// (drained at the end). The remount models a dirty array assembly:
    /// see [`Arm::open`].
    KillAndRebuild,
}

/// The maintenance task a hook interleaves, with its per-op step burst.
type HookTask = (Box<dyn Maintenance<Lfs<VolumeDisk>>>, u64);

impl Hook {
    fn task(self, rig: &mut Rig) -> Option<HookTask> {
        match self {
            Hook::Cleaner => Some((Box::new(CleanerTask), 4)),
            Hook::KillAndRebuild => Some((Box::new(rig.striped().device().clone()), 2)),
            Hook::None | Hook::WobbleBoundary => None,
        }
    }
}

/// Small-step rebuild pacing: two rows per step, so rebuild writes
/// interleave with most of the remaining workload. (The sweep offers
/// steps without an idle window, so the idle gate always sees depth 0.)
fn rebuild_policy() -> RebuildPolicy {
    RebuildPolicy::default().with_max_step_rows(2)
}

/// How an arm proves it exercised what it exists to cover. A sweep whose
/// guard fails panics: a workload or config change that routes every
/// crash point around the interesting states must fail loudly, not pass
/// vacuously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Guard {
    None,
    /// At least one crash index fell inside a device-write span during
    /// which the hook's maintenance task had a run in progress.
    MidTask,
    /// At least one remount partitioned its roll-forward scan across
    /// more than one spindle.
    PartitionedRecovery,
    /// The cache boundary really moved during the model run — and, on
    /// the full-size script (where pressure flushes are known to fall
    /// between the vfs calls of one script write), at least one crash
    /// point recovered an intermediate version, so the rows that never
    /// see one are known to pass on schedule, not by an oracle that
    /// could not have told.
    BoundaryMoved,
    /// The model run took, inside an async cleaner run, a checkpoint
    /// whose final chunk filled its segment: the state whose checkpoint
    /// once recorded a spent log position roll-forward could not leave.
    SegmentEndCheckpoint,
}

/// One row of the sweep table: everything that distinguishes one
/// crash-sweep arm from another, as data.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Row label in the printed table (`"<label> <mode>"`).
    pub label: &'static str,
    /// Metric prefix: counters are `sweep.<prefix>.<mode>.*`.
    pub prefix: &'static str,
    /// Fault modes swept. Reorder windows are a per-disk cache property,
    /// so only the single-disk rows sweep them.
    pub modes: &'static [SweepMode],
    device: Device,
    format: FsCfg,
    remount: FsCfg,
    hook: Hook,
    /// Every recovered file must hold bytes from its real version
    /// history. Sound for LFS, whose log never overwrites data in place;
    /// FFS in-place overwrites legitimately tear, so only its
    /// untouched-since-barrier files are content-checked.
    strict_content: bool,
    /// A refused mount counts as *detected* rather than as a violation.
    /// True for FFS only: the dual checkpoint regions mean an LFS volume
    /// must always come back.
    may_refuse_mount: bool,
    guard: Guard,
}

/// The sweep table, in report order. Each row spells out only what sets
/// it apart from the first.
pub fn arms() -> Vec<Arm> {
    let small = LfsConfig::small_test;
    let lfs = Arm {
        label: "lfs",
        prefix: "lfs",
        modes: &SweepMode::ALL,
        device: Device::Disk,
        format: FsCfg::Lfs(small()),
        remount: FsCfg::Lfs(small()),
        hook: Hook::None,
        strict_content: true,
        may_refuse_mount: false,
        guard: Guard::None,
    };
    // `total_sectors` cut evenly across the spindles with
    // segment-granular round-robin striping: the same logical capacity
    // as one disk, so the script and its durability model are unchanged.
    let striped = |spindles: usize, total_sectors: u64| Arm {
        modes: &[SweepMode::Drop, SweepMode::Torn],
        device: Device::Volume {
            cfg: VolumeConfig::rr_segment(spindles, small().segment_bytes),
            spindle_sectors: total_sectors / spindles as u64,
        },
        ..lfs.clone()
    };

    // The incremental cleaner always eager: watermarks far above any
    // reachable clean count and minimal step caps, so the scripted churn
    // keeps a `CleanerRun` in flight for most of the workload and crash
    // indices land in every mid-run state (relocations in cache, victims
    // parked clean-pending, the committing checkpoint).
    let mut cleaner_cfg = small();
    cleaner_cfg.cleaner.run_mode = CleanerRunMode::Async(
        AsyncCleanerPolicy::default()
            .with_watermarks(1 << 16, 1 << 17)
            .with_step_caps(2, 4),
    );
    let cleaner = |spindles| Arm {
        format: FsCfg::Lfs(cleaner_cfg.clone()),
        remount: FsCfg::Lfs(cleaner_cfg.clone()),
        hook: Hook::Cleaner,
        guard: Guard::MidTask,
        ..striped(spindles, CLEANER_DISK_SECTORS)
    };
    // The same on 6 KB segments: the script's checkpoints then land on
    // segment ends while a cleaner run is in flight (its guard).
    let seg_end_bytes = 6 * 1024;
    let seg_end_cfg = cleaner_cfg.clone().with_segment_bytes(seg_end_bytes);

    // One segment covers exactly one parity row, so full-segment writes
    // take the no-read parity fast path; segment-aligned metadata and
    // seal-on-flush are the layout rules that close the degraded-array
    // write hole (DESIGN.md §5.5).
    let rebuild_segment = 3 * REBUILD_CHUNK_BYTES;
    let rebuild_cfg = small()
        .with_segment_bytes(rebuild_segment)
        .with_segment_aligned_metadata()
        .with_seal_on_flush();
    let adaptive_cfg = small().with_cache_policy(CachePolicy::Adaptive);

    vec![
        lfs.clone(),
        Arm {
            label: "ffs",
            prefix: "ffs",
            format: FsCfg::Ffs(FfsConfig::small_test()),
            remount: FsCfg::Ffs(FfsConfig::small_test()),
            strict_content: false,
            may_refuse_mount: true,
            ..lfs.clone()
        },
        // The same crash plan armed on every spindle with a shared write
        // index: power fails at the globally N-th write wherever it
        // lands. Checkpoint recovery must be stripe-agnostic.
        Arm {
            label: "lfs x2",
            prefix: "lfs_2spindle",
            ..striped(2, DISK_SECTORS)
        },
        Arm {
            label: "lfs clean x1",
            prefix: "lfs_cleaner_1sp",
            ..cleaner(1)
        },
        Arm {
            label: "lfs clean x2",
            prefix: "lfs_cleaner_2sp",
            ..cleaner(2)
        },
        Arm {
            label: "lfs seg-end x1",
            prefix: "lfs_cleaner_seg_end",
            device: Device::Volume {
                cfg: VolumeConfig::rr_segment(1, seg_end_bytes),
                spindle_sectors: CLEANER_DISK_SECTORS,
            },
            format: FsCfg::Lfs(seg_end_cfg.clone()),
            remount: FsCfg::Lfs(seg_end_cfg),
            guard: Guard::SegmentEndCheckpoint,
            ..cleaner(1)
        },
        // The striped crash runs again, but every remount recovers with
        // `recovery_fanout = 0` (ask the device), so the roll-forward's
        // summary sweep and tail prefetch run fanned out across the
        // spindles. The parallel scan must be bit-equivalent to the
        // sequential one.
        Arm {
            label: "lfs par-rec x4",
            prefix: "lfs_par_recovery_4sp",
            remount: FsCfg::Lfs(small().with_recovery_fanout(0)),
            guard: Guard::PartitionedRecovery,
            ..striped(4, DISK_SECTORS)
        },
        // The adaptive memory manager in place of the shared LRU, its
        // boundary resized after every op. Recovery must be
        // policy-agnostic: the manager only decides *when* dirty blocks
        // flush, never what the log contains once they do. A resize that
        // dropped a dirty block instead of flushing it surfaces as lost
        // durable data.
        Arm {
            label: "lfs adaptive",
            prefix: "lfs_adaptive",
            modes: &[SweepMode::Drop, SweepMode::Torn],
            format: FsCfg::Lfs(adaptive_cfg.clone()),
            remount: FsCfg::Lfs(adaptive_cfg),
            hook: Hook::WobbleBoundary,
            guard: Guard::BoundaryMoved,
            ..lfs.clone()
        },
        Arm {
            label: "lfs rebuild x4",
            prefix: "lfs_rebuild_4sp",
            modes: &[SweepMode::Drop, SweepMode::Torn],
            device: Device::Volume {
                cfg: VolumeConfig::parity_segment(4, rebuild_segment),
                spindle_sectors: REBUILD_SPINDLE_SECTORS,
            },
            format: FsCfg::Lfs(rebuild_cfg.clone()),
            remount: FsCfg::Lfs(rebuild_cfg),
            hook: Hook::KillAndRebuild,
            guard: Guard::MidTask,
            ..lfs
        },
    ]
}

/// The row with metric prefix `prefix`.
pub fn arm(prefix: &str) -> Arm {
    arms()
        .into_iter()
        .find(|a| a.prefix == prefix)
        .unwrap_or_else(|| panic!("no crash-sweep arm with prefix {prefix}"))
}

impl Arm {
    /// Builds the arm's device — blank, or holding the `images` a crashed
    /// run left — arms `plan` on it, and formats (blank) or remounts
    /// (images) the arm's file system over it.
    ///
    /// A [`Hook::KillAndRebuild`] remount is a dirty array assembly: the
    /// suspect drive is swapped for a blank and rebuilt from the
    /// survivors' XOR, whatever instant the crash hit. Its media is stale
    /// (it stopped persisting at the in-workload kill), so it is never
    /// read, and no parity resync runs first — the dead spindle's latest
    /// contents exist *only* in the parity encoding. The layout closes
    /// the write hole instead (DESIGN.md §5.5).
    fn open(&self, images: Option<Vec<Vec<u8>>>, plan: Option<CrashPlan>) -> Result<Rig, FsError> {
        let clock = Clock::new();
        let remounting = images.is_some();
        let fs_cfg = if remounting {
            &self.remount
        } else {
            &self.format
        };
        match &self.device {
            Device::Disk => {
                let geometry = DiskGeometry::tiny_test(DISK_SECTORS);
                let mut disk = match images {
                    Some(images) => {
                        let image = images.into_iter().next().expect("one image per disk");
                        SimDisk::from_image(geometry, Arc::clone(&clock), image)
                    }
                    None => SimDisk::new(geometry, Arc::clone(&clock)),
                };
                if let Some(plan) = plan {
                    disk.arm_crash(plan);
                }
                Ok(match (fs_cfg, remounting) {
                    (FsCfg::Lfs(cfg), false) => Rig::Lfs(Lfs::format(disk, cfg.clone(), clock)?.into()),
                    (FsCfg::Lfs(cfg), true) => Rig::Lfs(Lfs::mount(disk, cfg.clone(), clock)?.into()),
                    (FsCfg::Ffs(cfg), false) => Rig::Ffs(Ffs::format(disk, cfg.clone(), clock)?.into()),
                    (FsCfg::Ffs(cfg), true) => Rig::Ffs(Ffs::mount(disk, cfg.clone(), clock)?.into()),
                })
            }
            Device::Volume {
                cfg: vol_cfg,
                spindle_sectors,
            } => {
                let FsCfg::Lfs(cfg) = fs_cfg else {
                    panic!("FFS arms run on a bare disk");
                };
                let geometry = DiskGeometry::tiny_test(*spindle_sectors);
                let mut vol = match images {
                    Some(images) => StripedVolume::from_images(
                        geometry,
                        Arc::clone(&clock),
                        vol_cfg.clone(),
                        images,
                    ),
                    None => StripedVolume::new(geometry, Arc::clone(&clock), vol_cfg.clone()),
                };
                if let Some(plan) = plan {
                    vol.arm_crash_all(plan);
                }
                let dev = VolumeDisk::new(vol.into_shared());
                if remounting && self.hook == Hook::KillAndRebuild {
                    dev.kill_spindle(REBUILD_DEAD_SPINDLE);
                    dev.replace_spindle(REBUILD_DEAD_SPINDLE, rebuild_policy())
                        .expect("replace a dead spindle");
                }
                let fs = if remounting {
                    Lfs::mount(dev, cfg.clone(), clock)?
                } else {
                    Lfs::format(dev, cfg.clone(), clock)?
                };
                Ok(Rig::Striped(fs.into()))
            }
        }
    }
}

/// Replays the script on `rig` with the arm's `hook` applied around every
/// op, recording the durability model as it goes, and stops at the first
/// error (on a crash-armed device: the crash — later ops would all fail
/// against it; the half-built model is of no use then).
fn run_script(rig: &mut Rig, ops: &[Op], hook: Hook, model: &mut Model) -> Result<(), FsError> {
    let mut task = hook.task(rig);
    let task_active = |task: &Option<HookTask>, rig: &mut Rig| {
        task.as_ref().is_some_and(|(t, _)| t.active(rig.striped()))
    };
    let (kill_at, replace_at) = (ops.len() / 3, 2 * ops.len() / 3);
    for (i, op) in ops.iter().enumerate() {
        if hook == Hook::KillAndRebuild {
            let dev = rig.striped().device();
            if i == kill_at {
                dev.kill_spindle(REBUILD_DEAD_SPINDLE);
            }
            if i == replace_at {
                dev.replace_spindle(REBUILD_DEAD_SPINDLE, rebuild_policy())
                    .expect("replace a dead spindle");
            }
        }
        let w0 = rig.disk_writes();
        let was_active = task_active(&task, rig);
        match op {
            Op::Mkdir(path) => {
                rig.fs().mkdir(path)?;
            }
            Op::Write(path, data) => {
                let history = model.history.entry(path.clone()).or_default();
                upsert(rig.fs(), path, data, |bytes| {
                    history.push(Version {
                        bytes: bytes.to_vec(),
                        whole: bytes.len() == data.len(),
                    })
                })?;
                model.live.insert(path.clone(), data.clone());
                model.touch.insert(path.clone(), model.barriers.len());
            }
            Op::Unlink(path) => {
                rig.fs().unlink(path)?;
                model.live.remove(path);
                model.deleted.insert(path.clone());
                model.touch.insert(path.clone(), model.barriers.len());
            }
            Op::Sync => {
                rig.fs().sync()?;
                model.barriers.push(Barrier {
                    writes_done: rig.disk_writes(),
                    durable: model.live.clone(),
                });
            }
        }
        if hook == Hook::WobbleBoundary {
            let Rig::Lfs(fs) = rig else {
                panic!("the boundary wobble needs an LFS on a bare disk");
            };
            fs.set_cache_boundary(4 + (i * 13) % 61);
        }
        if let Some((task, burst)) = &mut task {
            offer(task.as_mut(), rig.striped(), None, *burst)?;
        }
        let w1 = rig.disk_writes();
        if w1 > w0 && (was_active || task_active(&task, rig)) {
            model.task_spans.push((w0, w1));
        }
    }
    if let Some((task, _)) = &mut task {
        let w0 = rig.disk_writes();
        drain(task.as_mut(), rig.striped())?;
        if rig.disk_writes() > w0 {
            model.task_spans.push((w0, rig.disk_writes()));
        }
    }
    Ok(())
}

/// Aggregated result of one (arm × fault mode) sweep.
#[derive(Debug, Clone, Default)]
pub struct ModeOutcome {
    /// Crash indices exercised.
    pub crash_points: u64,
    /// Remounts that succeeded and recovered to a consistent volume.
    pub recovered: u64,
    /// Mounts the file system *refused* with a typed error (detected,
    /// loud, acceptable for FFS; always a violation for LFS).
    pub detected_unmountable: u64,
    /// Model-equivalence violations (silent corruption, lost durable
    /// data, phantom files). Must be zero.
    pub violations: u64,
    /// Crash points whose recovered tree held an intermediate version of
    /// some file: a state between the vfs calls of one script write.
    pub intermediate_recoveries: u64,
    /// First few violation descriptions, for the report.
    pub samples: Vec<String>,
    /// The row's vacuity guards — whether each held, and what it means
    /// when it does not.
    pub guards: Vec<(bool, String)>,
}

impl ModeOutcome {
    /// True when the sweep found no silent-corruption or durability
    /// violations (a refused mount is one, unless the arm allows it)
    /// and was not vacuous.
    pub fn is_clean(&self) -> bool {
        self.violations == 0 && self.guards.iter().all(|(held, _)| *held)
    }
}

/// Sweeps one arm under one fault mode: crash at every `stride`-th
/// workload write index — including the writes the arm's hook issues —
/// remount, and check against the model. A vacuous sweep — no crash
/// points at all, or the arm's guard unmet — is reported in
/// [`ModeOutcome::guards`].
pub fn sweep(arm: &Arm, mode: SweepMode, spec: &SweepSpec) -> ModeOutcome {
    let ops = script(spec);

    // Clean pass: build the durability model for this arm.
    let mut model = Model::default();
    let mut rig = arm.open(None, None).expect("format");
    model.format_writes = rig.disk_writes();
    run_script(&mut rig, &ops, arm.hook, &mut model).expect("model run");
    model.total_writes = rig.disk_writes();
    let boundary_moves = match &rig {
        Rig::Lfs(fs) => fs.cache_report().boundary_moves,
        _ => 0,
    };
    let segment_end_checkpoints = rig.segment_end_checkpoints_mid_clean();
    drop(rig);

    let mut out = ModeOutcome::default();
    let mut mid_task_points = 0u64;
    let mut max_partitions = 0u64;
    let mut idx = model.format_writes;
    while idx < model.total_writes {
        out.crash_points += 1;
        if model
            .task_spans
            .iter()
            .any(|&(lo, hi)| idx >= lo && idx < hi)
        {
            mid_task_points += 1;
        }
        let mut rig = arm.open(None, Some(mode.plan(idx))).expect("format");
        // The crash surfaces as an error; the image is what matters.
        let _ = run_script(&mut rig, &ops, arm.hook, &mut Model::default());
        let images = rig.into_images();

        let problems = match arm.open(Some(images), None) {
            Ok(mut rig) => {
                out.recovered += 1;
                max_partitions = max_partitions.max(rig.recovery_partitions());
                let mut problems = Vec::new();
                if arm.hook == Hook::KillAndRebuild {
                    // Every read below is served from the rebuilt platter.
                    let fs = rig.striped();
                    if let Err(e) = drain(&mut fs.device().clone(), fs) {
                        problems.push(format!("post-crash rebuild failed: {e:?}"));
                    }
                }
                let fsck = rig.check_consistency();
                let (found, intermediate) =
                    check_recovery(rig.fs(), fsck, &model, idx, arm.strict_content);
                problems.extend(found);
                out.intermediate_recoveries += u64::from(intermediate);
                problems
            }
            Err(e) => {
                out.detected_unmountable += 1;
                if arm.may_refuse_mount {
                    // Failing loudly is detection, not silence.
                    Vec::new()
                } else {
                    vec![format!("mount refused after crash: {e}")]
                }
            }
        };
        for p in problems {
            out.violations += 1;
            if out.samples.len() < 5 {
                out.samples
                    .push(format!("{} {} @{idx}: {p}", arm.label, mode.name()));
            }
        }
        idx += spec.stride;
    }

    let row = format!("{} {}", arm.label, mode.name());
    let mut guard = |held: bool, what: String| out.guards.push((held, format!("{row}{what}")));
    guard(
        out.crash_points > 0,
        ": the script wrote nothing to crash into".into(),
    );
    guard(
        out.recovered + out.detected_unmountable == out.crash_points,
        ": every crash point must recover or be detected".into(),
    );
    match arm.guard {
        Guard::None => {}
        Guard::MidTask => guard(
            mid_task_points > 0,
            format!(
                " is vacuous: no crash index landed inside an active maintenance run \
                 ({} points swept)",
                out.crash_points
            ),
        ),
        Guard::PartitionedRecovery => guard(
            max_partitions > 1,
            format!(
                " is vacuous: no remount partitioned its scan across more than one \
                 spindle ({} points swept)",
                out.crash_points
            ),
        ),
        Guard::BoundaryMoved => {
            guard(
                boundary_moves > 0,
                " is vacuous: the boundary never moved".into(),
            );
            guard(
                *spec != SweepSpec::full() || out.intermediate_recoveries > 0,
                " is vacuous: no crash point recovered an intermediate version, so no \
                 flush fell between the vfs calls of a write"
                    .into(),
            );
        }
        Guard::SegmentEndCheckpoint => guard(
            segment_end_checkpoints > 0,
            " is vacuous: no checkpoint inside a cleaner run filled its segment".into(),
        ),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_deterministic() {
        let a = script(&SweepSpec::smoke());
        let b = script(&SweepSpec::smoke());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            if let (Op::Write(p1, d1), Op::Write(p2, d2)) = (x, y) {
                assert_eq!(p1, p2);
                assert_eq!(d1, d2);
            }
        }
    }

    #[test]
    fn models_agree_on_barrier_count_across_file_systems() {
        let spec = SweepSpec::smoke();
        let ops = script(&spec);
        for prefix in ["lfs", "ffs"] {
            let arm = arm(prefix);
            let mut model = Model::default();
            let mut rig = arm.open(None, None).unwrap();
            let format_writes = rig.disk_writes();
            run_script(&mut rig, &ops, arm.hook, &mut model).unwrap();
            assert_eq!(model.barriers.len(), spec.phases, "{prefix}");
            // The run actually wrote something to crash into.
            assert!(rig.disk_writes() > format_writes, "{prefix}");
        }
    }

    /// A script write is two vfs calls, and the model says so: every
    /// written path's history opens with the empty file.
    #[test]
    fn the_model_records_the_empty_file_inside_every_write() {
        let ops = script(&SweepSpec::smoke());
        let arm = arm("lfs");
        let mut model = Model::default();
        run_script(
            &mut arm.open(None, None).unwrap(),
            &ops,
            arm.hook,
            &mut model,
        )
        .unwrap();
        let writes = ops.iter().filter(|op| matches!(op, Op::Write(..))).count();
        let (whole, partial): (Vec<_>, Vec<_>) =
            model.history.values().flatten().partition(|v| v.whole);
        assert_eq!(whole.len(), writes);
        assert_eq!(partial.len(), writes, "write_at never returns short here");
        assert!(partial.iter().all(|v| v.bytes.is_empty()));
        assert!(model.history.values().all(|vs| !vs[0].whole));
    }

    /// The table is the single place an arm is defined: metric prefixes
    /// and labels never collide, and every arm whose sweep function had
    /// a vacuity guard before the table existed still has one.
    #[test]
    fn every_row_is_distinct_and_keeps_its_vacuity_guard() {
        let arms = arms();
        let prefixes: std::collections::BTreeSet<_> = arms.iter().map(|a| a.prefix).collect();
        let labels: std::collections::BTreeSet<_> = arms.iter().map(|a| a.label).collect();
        assert_eq!(prefixes.len(), arms.len(), "duplicate metric prefix");
        assert_eq!(labels.len(), arms.len(), "duplicate row label");
        for (prefix, guard) in [
            ("lfs_cleaner_1sp", Guard::MidTask),
            ("lfs_cleaner_2sp", Guard::MidTask),
            ("lfs_cleaner_seg_end", Guard::SegmentEndCheckpoint),
            ("lfs_rebuild_4sp", Guard::MidTask),
            ("lfs_par_recovery_4sp", Guard::PartitionedRecovery),
            ("lfs_adaptive", Guard::BoundaryMoved),
        ] {
            assert_eq!(arm(prefix).guard, guard, "{prefix}");
        }
        for arm in &arms {
            // Only FFS may refuse a mount or skip the strict content check.
            let ffs = matches!(arm.format, FsCfg::Ffs(_));
            assert_eq!(arm.may_refuse_mount, ffs, "{}", arm.prefix);
            assert_eq!(arm.strict_content, !ffs, "{}", arm.prefix);
            assert!(!arm.modes.is_empty(), "{}", arm.prefix);
        }
    }
}
