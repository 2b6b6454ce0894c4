//! `lfs-tools` — command-line utilities for LFS disk images.
//!
//! ```text
//! lfs-tools mkfs  <image> [--size-mb N]        format a new volume
//! lfs-tools fsck  <image> [--size-mb N] [--parallel N]   check consistency
//! lfs-tools verify <image> [--size-mb N] [--parallel N]  scrub: verify block checksums
//! lfs-tools dumpfs <image> [--size-mb N] [-v]  inspect on-disk structures
//! lfs-tools clean <image> [--size-mb N] --target N   run the cleaner
//! lfs-tools df    <image>                      segment-level space report
//! lfs-tools stat  <image> <path>               file attributes
//! lfs-tools ls    <image> <path>               list a directory
//! lfs-tools cat   <image> <path>               print a file
//! lfs-tools put   <image> <host-file> <path>   import a file
//! lfs-tools rebuild <image> --spindles N --policy <parity> --degraded I
//!                                              reconstruct a lost spindle
//! lfs-tools status <image> --spindles N        per-spindle state and health
//! ```
//!
//! Images are flat files; a missing image is created zero-filled by
//! `mkfs`. The `--size-mb` option (default 32) sets the simulated disk
//! size when creating or when the image needs padding.
//!
//! Every subcommand also accepts `--spindles N` (default 1): the volume
//! is then a striped array of N disks with one backing image per
//! spindle, named `<image>.s0`, `<image>.s1`, … — `<image>` itself is
//! never touched. `--policy` picks the striping policy by its stable
//! name (`rr-segment`, the default; `interleave`; `parity-segment`)
//! and `--size-mb` is the size of *each* spindle.
//!
//! On a parity policy, `--degraded I` mounts the array with spindle I's
//! media treated as dead: every read touching it is served by XOR
//! reconstruction across the survivors, so a damaged array can still be
//! fsck'd, scrubbed, and copied out of. Degraded mounts are read-only
//! from the CLI's point of view — commands that would write the backing
//! images back refuse. `rebuild` reconstructs the named spindle's image
//! in full (the `<image>.sI` file may be stale or missing) and leaves
//! the array healthy.
//!
//! `--hot-spare N` (parity arrays only) stocks N hot spares and arms
//! the fail-slow health monitor for the duration of the command: a
//! spindle the monitor evicts is swapped for a spare and rebuilt online
//! with no operator action, exactly as a production mount would.
//! `status` reports each spindle's serving state, the monitor's verdict
//! (when one is armed), and its observed/model service-time inflation.
//!
//! `--parallel N` sets the maintenance fan-out: mount-time roll-forward
//! and verify keep up to N log readers in flight, and fsck's gather
//! phase up to N reads (`--parallel 0` asks the device — one per
//! spindle of a striped array). The default, 1, is the classic sequential scan. The fan-out
//! only overlaps reads; every verdict is identical to the sequential
//! one.
//!
//! `--cache-stats` (on `status` and `verify`) mounts the file system and
//! prints the memory manager's report after the command's work: policy,
//! write/read boundary, pool occupancy, hit/ghost/promotion counters and
//! per-client charges. With `--cache-stats`, `status` also works on a
//! single-image volume (`--spindles 1`), where it prints the cache
//! report alone.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use lfs_core::{Lfs, LfsConfig};
use lfs_tools::image;
use sim_disk::{BlockDevice, Clock, SimDisk};
use vfs::FileSystem;
use volume::{
    HealthPolicy, HealthState, RebuildPolicy, SpindleState, StripePolicyKind,
    VolumeConfig, VolumeDisk,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: lfs-tools <mkfs|fsck|verify|dumpfs|clean|ls|cat|put|rebuild|status> <image> \
         [args...]\n\
         run with a subcommand; see crate docs for details"
    );
    ExitCode::from(2)
}

struct Opts {
    image: PathBuf,
    size_mb: u64,
    spindles: usize,
    policy: StripePolicyKind,
    degraded: Option<usize>,
    hot_spares: usize,
    cache_stats: bool,
    verbose: bool,
    target: usize,
    parallel: usize,
    rest: Vec<String>,
}

fn parse(args: &[String]) -> Option<Opts> {
    let mut opts = Opts {
        image: PathBuf::new(),
        size_mb: 32,
        spindles: 1,
        policy: StripePolicyKind::RrSegment,
        degraded: None,
        hot_spares: 0,
        cache_stats: false,
        verbose: false,
        target: 8,
        parallel: 1,
        rest: Vec::new(),
    };
    let mut it = args.iter().peekable();
    let mut positional = Vec::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--size-mb" => opts.size_mb = it.next()?.parse().ok()?,
            "--spindles" => opts.spindles = it.next()?.parse().ok().filter(|&n| n > 0)?,
            "--policy" => opts.policy = StripePolicyKind::parse(it.next()?)?,
            "--degraded" => opts.degraded = Some(it.next()?.parse().ok()?),
            "--hot-spare" => opts.hot_spares = it.next()?.parse().ok()?,
            "--cache-stats" => opts.cache_stats = true,
            "--target" => opts.target = it.next()?.parse().ok()?,
            "--parallel" => opts.parallel = it.next()?.parse().ok()?,
            "-v" | "--verbose" => opts.verbose = true,
            _ => positional.push(arg.clone()),
        }
    }
    opts.image = PathBuf::from(positional.first()?);
    opts.rest = positional[1..].to_vec();
    Some(opts)
}

/// Small-volume config used by the CLI (fast, modest inode count).
/// Parity policies add the layout rules that close the parity write
/// hole — every image formatted for a parity array gets them, so a
/// crash mid-command never leaves a row whose XOR is stale across
/// committed data.
fn cli_config(opts: &Opts) -> LfsConfig {
    let base = LfsConfig::paper()
        .with_cache_bytes(2 * 1024 * 1024)
        .with_recovery_fanout(opts.parallel);
    if opts.spindles > 1 && opts.policy.is_parity() {
        base.with_segment_aligned_metadata().with_seal_on_flush()
    } else {
        base
    }
}

/// Striping config selected by `--spindles` / `--policy`. Fails with a
/// friendly message (instead of the library panic) when the LFS segment
/// does not split across the parity array's data spindles.
fn striped_config(opts: &Opts) -> Result<VolumeConfig, String> {
    let chunk = cli_config(opts).stripe_chunk_bytes();
    // RAID-0 stripe unit.
    const INTERLEAVE_CHUNK: usize = 64 * 1024;
    let n = opts.spindles;
    match opts.policy {
        StripePolicyKind::RrSegment => Ok(VolumeConfig::rr_segment(n, chunk)),
        StripePolicyKind::Interleave => Ok(VolumeConfig::interleave(n, INTERLEAVE_CHUNK)),
        StripePolicyKind::ParitySegment => {
            let data = n - 1;
            if data == 0 || !chunk.is_multiple_of(data * sim_disk::SECTOR_SIZE) {
                return Err(format!(
                    "parity-segment: the {chunk}-byte segment does not split into \
                     {data} sector-aligned chunks; use a spindle count where \
                     (spindles - 1) divides the segment into sector multiples"
                ));
            }
            Ok(VolumeConfig::parity_segment(n, chunk))
        }
    }
}

/// How a logical volume maps to host files: one flat image, or one
/// backing image per spindle of a striped array. Commands are generic
/// over this, so single-disk and striped volumes share every code path.
trait Backing {
    type Dev: BlockDevice;
    fn load(&self, opts: &Opts) -> Result<Self::Dev, String>;
    fn create_blank(&self, opts: &Opts) -> Result<Self::Dev, String>;
    fn clock(dev: &Self::Dev) -> Arc<Clock>;
    fn save(&self, opts: &Opts, dev: Self::Dev) -> Result<(), String>;
}

struct SingleImage;

impl Backing for SingleImage {
    type Dev = SimDisk;

    fn load(&self, opts: &Opts) -> Result<SimDisk, String> {
        if opts.degraded.is_some() {
            return Err("--degraded needs a parity array (--spindles > 1)".into());
        }
        image::load(&opts.image, &image::geometry_for_mb(opts.size_mb)).map_err(|e| e.to_string())
    }

    fn create_blank(&self, opts: &Opts) -> Result<SimDisk, String> {
        Ok(image::create_blank(&image::geometry_for_mb(opts.size_mb)))
    }

    fn clock(dev: &SimDisk) -> Arc<Clock> {
        dev.clock().clone()
    }

    fn save(&self, opts: &Opts, dev: SimDisk) -> Result<(), String> {
        image::save(&opts.image, &dev).map_err(|e| e.to_string())
    }
}

/// Validates a `--degraded` spindle index against the array and, if
/// set, kills that spindle's media so reads reconstruct through parity.
fn apply_degraded(opts: &Opts, dev: &VolumeDisk) -> Result<(), String> {
    let Some(i) = opts.degraded else {
        return Ok(());
    };
    if !opts.policy.is_parity() {
        return Err(format!(
            "--degraded needs a parity policy; '{}' has no redundancy to read through",
            opts.policy
        ));
    }
    if i >= opts.spindles {
        return Err(format!(
            "--degraded {i}: no such spindle (array has {})",
            opts.spindles
        ));
    }
    dev.volume().borrow_mut().kill_spindle(i);
    Ok(())
}

/// Stocks `--hot-spare N` spares and arms the default fail-slow health
/// monitor on a parity mount, so an eviction during the command swaps a
/// spare in and rebuilds online — the production automation, available
/// from the CLI.
fn apply_hot_spares(opts: &Opts, dev: &VolumeDisk) -> Result<(), String> {
    if opts.hot_spares == 0 {
        return Ok(());
    }
    if !opts.policy.is_parity() {
        return Err(format!(
            "--hot-spare needs a parity policy; '{}' cannot rebuild a replacement",
            opts.policy
        ));
    }
    let mut vol = dev.volume().borrow_mut();
    vol.set_health_policy(HealthPolicy::default());
    vol.set_hot_spares(opts.hot_spares);
    Ok(())
}

struct StripedImages;

impl Backing for StripedImages {
    type Dev = VolumeDisk;

    fn load(&self, opts: &Opts) -> Result<VolumeDisk, String> {
        let dev = image::load_striped(
            &opts.image,
            &image::geometry_for_mb(opts.size_mb),
            striped_config(opts)?,
        )
        .map_err(|e| e.to_string())?;
        apply_degraded(opts, &dev)?;
        apply_hot_spares(opts, &dev)?;
        Ok(dev)
    }

    fn create_blank(&self, opts: &Opts) -> Result<VolumeDisk, String> {
        Ok(image::create_blank_striped(
            &image::geometry_for_mb(opts.size_mb),
            striped_config(opts)?,
        ))
    }

    fn clock(dev: &VolumeDisk) -> Arc<Clock> {
        Arc::clone(dev.volume().borrow().clock())
    }

    fn save(&self, opts: &Opts, dev: VolumeDisk) -> Result<(), String> {
        image::save_striped(&opts.image, dev).map_err(|e| e.to_string())
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        return Err("missing subcommand".into());
    };
    let Some(opts) = parse(&args[1..]) else {
        return Err("bad arguments".into());
    };

    if command == "rebuild" {
        return cmd_rebuild(&opts);
    }
    if command == "status" {
        return cmd_status(&opts);
    }
    if opts.spindles == 1 {
        run_cmd(&command, &opts, SingleImage)
    } else {
        run_cmd(&command, &opts, StripedImages)
    }
}

/// `rebuild <image> --spindles N --policy <parity> --degraded I`:
/// reconstructs spindle I's entire image from the survivors (every
/// chunk row is the XOR of the same row on the other spindles) and
/// writes all backing images back healthy. The lost spindle's
/// `<image>.sI` file may hold stale bytes or not exist at all — its
/// content is never read.
fn cmd_rebuild(opts: &Opts) -> Result<(), String> {
    let Some(i) = opts.degraded else {
        return Err("rebuild: name the lost spindle with --degraded <i>".into());
    };
    if opts.spindles < 2 {
        return Err("rebuild: needs a parity array (--spindles > 1)".into());
    }
    // A missing replacement image is the expected case (the drive is
    // gone); materialize an empty file so the array loads, then let the
    // degraded mount treat it as dead.
    let paths = image::spindle_paths(&opts.image, opts.spindles);
    let lost = &paths[i.min(paths.len() - 1)];
    if !lost.exists() {
        std::fs::write(lost, []).map_err(|e| e.to_string())?;
    }
    let dev = StripedImages.load(opts)?; // applies the --degraded kill
    // Offline rebuild: no foreground to yield to, so take big steps
    // and drain them back to back.
    dev.volume()
        .borrow_mut()
        .replace_spindle(i, RebuildPolicy::default().with_max_step_rows(64))
        .map_err(|e| e.to_string())?;
    let rows = dev
        .volume()
        .borrow()
        .rebuild()
        .map(|r| r.total_rows())
        .unwrap_or(0);
    if engine::drain(&mut dev.clone(), &mut ()).map_err(|e| format!("rebuild: {e}"))? == 0 {
        return Err("rebuild: no rebuild in progress".into());
    }
    let mut settle = dev.clone();
    settle.flush().map_err(|e| format!("rebuild: {e}"))?;
    drop(settle);
    let chunk_kb = striped_config(opts)?.chunk_bytes as u64 / 1024;
    println!("rebuilt spindle {i}: {rows} chunk rows ({} KB) reconstructed from parity", rows * chunk_kb);
    image::save_striped(&opts.image, dev).map_err(|e| e.to_string())
}

/// `status <image> --spindles N [--policy P] [--degraded I] [--hot-spare N]`:
/// per-spindle serving state, the health monitor's verdict when one is
/// armed (`--hot-spare` arms it), and the observed/model service-time
/// inflation the verdict is based on.
fn cmd_status(opts: &Opts) -> Result<(), String> {
    if opts.spindles < 2 {
        if !opts.cache_stats {
            return Err(
                "status: needs a striped array (--spindles > 1); \
                 on a single image use --cache-stats"
                    .into(),
            );
        }
        let dev = SingleImage.load(opts)?;
        let clock = <SingleImage as Backing>::clock(&dev);
        let fs = Lfs::mount(dev, cli_config(opts), clock)
            .map_err(|e| format!("mount failed: {e}"))?;
        print!("{}", fs.cache_report().render());
        return Ok(());
    }
    let dev = StripedImages.load(opts)?;
    let vol = dev.volume().borrow();
    println!(
        "{} spindles, policy {}, {} hot spare(s) stocked",
        opts.spindles,
        opts.policy,
        vol.hot_spares()
    );
    for i in 0..opts.spindles {
        let serving = match vol.spindle_state(i) {
            SpindleState::Online => "online",
            SpindleState::Dead => "dead",
            SpindleState::Rebuilding => "rebuilding",
        };
        let verdict = match vol.health_state(i) {
            Some(HealthState::Healthy) => "healthy",
            Some(HealthState::Suspect) => "suspect",
            Some(HealthState::Evicted) => "evicted",
            None => "unmonitored",
        };
        match vol.health_inflation_millis(i) {
            Some(0) => println!("  spindle {i}: {serving:<10} {verdict:<11} inflation - (no samples)"),
            Some(m) => println!(
                "  spindle {i}: {serving:<10} {verdict:<11} inflation {}.{:03}x",
                m / 1000,
                m % 1000
            ),
            None => println!("  spindle {i}: {serving:<10} {verdict}"),
        }
    }
    drop(vol);
    if opts.cache_stats {
        let clock = <StripedImages as Backing>::clock(&dev);
        let fs = Lfs::mount(dev, cli_config(opts), clock)
            .map_err(|e| format!("mount failed: {e}"))?;
        print!("{}", fs.cache_report().render());
    }
    Ok(())
}

fn run_cmd<B: Backing>(command: &str, opts: &Opts, backing: B) -> Result<(), String> {
    let mount = |backing: &B| -> Result<Lfs<B::Dev>, String> {
        let dev = backing.load(opts)?;
        let clock = B::clock(&dev);
        Lfs::mount(dev, cli_config(opts), clock).map_err(|e| format!("mount failed: {e}"))
    };
    let save = |backing: &B, fs: Lfs<B::Dev>| -> Result<(), String> {
        if opts.degraded.is_some() {
            return Err(
                "refusing to write backing images from a degraded mount; \
                 run `lfs-tools rebuild` first"
                    .into(),
            );
        }
        backing.save(opts, fs.into_device())
    };

    match command {
        "mkfs" => {
            let disk = backing.create_blank(opts)?;
            let clock = B::clock(&disk);
            let fs = Lfs::format(disk, cli_config(opts), clock)
                .map_err(|e| format!("format failed: {e}"))?;
            println!(
                "formatted {}: {} segments of {} blocks",
                opts.image.display(),
                fs.superblock().nsegments,
                fs.superblock().seg_blocks
            );
            save(&backing, fs)
        }
        "fsck" => {
            let mut fs = mount(&backing)?;
            let report = fs.fsck().map_err(|e| format!("fsck failed: {e}"))?;
            println!("{report}");
            if opts.parallel != 1 {
                let stats = fs.stats();
                println!(
                    "parallel scan: {} reads overlapped, {} roll-forward partitions",
                    stats.recovery_parallel_reads, stats.recovery_partitions
                );
            }
            if report.is_clean() {
                Ok(())
            } else {
                Err(format!("{} error(s) found", report.errors.len()))
            }
        }
        "verify" => {
            let mut fs = mount(&backing)?;
            let report = fs.scrub().map_err(|e| format!("verify failed: {e}"))?;
            println!(
                "scrubbed {} segments: {} blocks verified, {} bad, \
                 {} relocated, {} unrecoverable, {} unreadable chunks",
                report.segments,
                report.blocks_verified,
                report.bad_blocks,
                report.relocated,
                report.unrecoverable,
                report.unreadable_chunks,
            );
            if opts.cache_stats {
                print!("{}", fs.cache_report().render());
            }
            if fs.is_read_only() {
                println!("volume degraded to read-only");
            }
            let clean = report.is_clean();
            if report.relocated > 0 {
                // The scrub rewrote damaged blocks at the log head and
                // checkpointed; persist the repaired image.
                save(&backing, fs)?;
                println!("relocations written back to {}", opts.image.display());
            }
            if clean {
                Ok(())
            } else {
                Err(format!(
                    "{} bad block(s), {} unrecoverable",
                    report.bad_blocks, report.unrecoverable
                ))
            }
        }
        "dumpfs" => {
            let mut disk = backing.load(opts)?;
            let mut out = std::io::stdout().lock();
            lfs_tools::dump::dump(&mut disk, &mut out, opts.verbose)
                .map_err(|e| format!("dump failed: {e}"))
        }
        "clean" => {
            let mut fs = mount(&backing)?;
            let before = fs.usage_table().clean_count();
            let after = fs
                .clean_until(opts.target)
                .map_err(|e| format!("cleaning failed: {e}"))?;
            println!("clean segments: {before} -> {after}");
            fs.sync().map_err(|e| format!("sync failed: {e}"))?;
            save(&backing, fs)
        }
        "df" => {
            let mut fs = mount(&backing)?;
            use lfs_core::layout::usage_block::SegState;
            let usage = fs.usage_table();
            let seg_kb = usage.seg_bytes() / 1024;
            let counts = |state: SegState| usage.segments_in_state(state).len();
            println!(
                "{} segments x {} KB; clean {}, dirty {}, clean-pending {}, active {}",
                usage.nsegments(),
                seg_kb,
                counts(SegState::Clean),
                counts(SegState::Dirty),
                counts(SegState::CleanPending),
                counts(SegState::Active),
            );
            let stats = fs.fs_stats().map_err(|e| format!("df: {e}"))?;
            println!(
                "live data: {} KB of {} KB ({:.1}% utilization), {} live inodes",
                stats.used_bytes / 1024,
                stats.capacity_bytes / 1024,
                stats.utilization() * 100.0,
                stats.live_inodes,
            );
            Ok(())
        }
        "stat" => {
            let mut fs = mount(&backing)?;
            let path = opts.rest.first().ok_or("stat: missing path")?;
            let ino = fs.lookup(path).map_err(|e| format!("stat: {e}"))?;
            let meta = fs.stat(ino).map_err(|e| format!("stat: {e}"))?;
            println!("{path}: {} {}", meta.kind, meta.ino);
            println!("  size {} B, nlink {}", meta.size, meta.nlink);
            println!(
                "  mtime {:.3}s atime {:.3}s (virtual)",
                meta.mtime_ns as f64 / 1e9,
                meta.atime_ns as f64 / 1e9
            );
            let entry = fs.inode_map().get(ino).map_err(|e| format!("stat: {e}"))?;
            println!(
                "  imap: version {}, inode at {} slot {}",
                entry.version, entry.addr, entry.slot
            );
            Ok(())
        }
        "ls" => {
            let mut fs = mount(&backing)?;
            let path = opts.rest.first().map(String::as_str).unwrap_or("/");
            let entries = fs.readdir(path).map_err(|e| format!("ls: {e}"))?;
            for entry in entries {
                let meta = fs.stat(entry.ino).map_err(|e| format!("stat: {e}"))?;
                println!(
                    "{:>10}  {:<4}  {}",
                    meta.size,
                    entry.kind.to_string(),
                    entry.name
                );
            }
            Ok(())
        }
        "cat" => {
            let mut fs = mount(&backing)?;
            let path = opts.rest.first().ok_or("cat: missing path")?;
            let data = fs.read_file(path).map_err(|e| format!("cat: {e}"))?;
            std::io::stdout()
                .write_all(&data)
                .map_err(|e| e.to_string())
        }
        "put" => {
            let mut fs = mount(&backing)?;
            let host = opts.rest.first().ok_or("put: missing host file")?;
            let path = opts.rest.get(1).ok_or("put: missing target path")?;
            let data = std::fs::read(host).map_err(|e| e.to_string())?;
            fs.write_file(path, &data)
                .map_err(|e| format!("put: {e}"))?;
            fs.sync().map_err(|e| format!("sync failed: {e}"))?;
            println!("wrote {} bytes to {path}", data.len());
            save(&backing, fs)
        }
        _ => Err(format!("unknown subcommand '{command}'")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            if message == "missing subcommand" || message == "bad arguments" {
                return usage();
            }
            eprintln!("lfs-tools: {message}");
            ExitCode::FAILURE
        }
    }
}
