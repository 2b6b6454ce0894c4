//! Layer drills: each layer's host cost per operation, measured by
//! calling the layer directly with a seeded stream — no file system
//! above it, so a change in one layer's host cost shows here before it
//! is diluted in `host_ops_per_s`.
//!
//! Every drill runs `DRILL_REPEATS` times, reports the median host time
//! and asserts that its virtual-time total (or, for the clockless
//! memory manager, its hit count) is identical each time.

use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use engine::{EngineConfig, EngineCore, EngineDisk};
use mem_mgr::{BlockKey, CachePolicy, MemConfig, MemMgr, WritebackPolicy};
use obs::Hist;
use sim_disk::{BlockDevice, Clock, DiskGeometry, SimDisk};
use vfs::Ino;
use volume::{StripedVolume, VolumeConfig, VolumeDisk};

use crate::gen::Rng;
use crate::metrics::{median, Value, Values};
use crate::workload::Workload;

const DRILL_REPEATS: usize = 3;
const DEVICE_REQUESTS: u64 = 20_000;
const MEM_OPS: u64 = 400_000;
const HIST_RECORDS: u64 = 1_000_000;
const SECTOR: u64 = 512;
const SMALL: usize = 4 * 1024;
const LARGE: usize = 256 * 1024;
/// Drill spindles are 64 MB WREN IVs.
const SPINDLE_SECTORS: u64 = 64 * 1024 * 1024 / SECTOR;

/// Runs `f` `DRILL_REPEATS` times; returns the median host nanoseconds
/// per operation. `f` returns its deterministic fingerprint.
fn timed(ops: u64, what: &str, mut f: impl FnMut() -> u64) -> f64 {
    let mut fingerprints = Vec::new();
    let mut ns_per_op = Vec::new();
    for _ in 0..DRILL_REPEATS {
        let start = Instant::now();
        fingerprints.push(f());
        ns_per_op.push(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "{what} drill is not deterministic: {fingerprints:?}"
    );
    median(&ns_per_op)
}

/// Of every eight requests: four 4 KB random reads, three 4 KB random
/// sync writes, one 256 KB sequential async write; `flush` every 64.
/// Returns the virtual nanoseconds the stream took.
fn device_stream(dev: &mut impl BlockDevice, clock: &Clock, seed: u64) -> u64 {
    let mut rng = Rng::new(seed);
    let small_slots = dev.num_sectors() * SECTOR / SMALL as u64;
    let large_slots = dev.num_sectors() * SECTOR / LARGE as u64;
    let small = vec![0x5a_u8; SMALL];
    let large = vec![0xa5_u8; LARGE];
    let mut buf = vec![0u8; SMALL];
    let mut cursor = 0;
    let start = clock.now_ns();
    for i in 0..DEVICE_REQUESTS {
        let at = rng.below(small_slots) * (SMALL as u64 / SECTOR);
        match rng.below(8) {
            0..=3 => dev.read(at, &mut buf).expect("drill read"),
            4..=6 => dev.write(at, &small, true).expect("drill sync write"),
            _ => {
                let sector = (cursor % large_slots) * (LARGE as u64 / SECTOR);
                dev.write(sector, &large, false).expect("drill async write");
                cursor += 1;
            }
        }
        if i % 64 == 63 {
            dev.flush().expect("drill flush");
        }
    }
    dev.flush().expect("drill flush");
    black_box(&buf);
    clock.now_ns() - start
}

fn spindle_geometry() -> DiskGeometry {
    DiskGeometry::wren_iv().with_sectors(SPINDLE_SECTORS)
}

/// Reads that miss insert clean, writes insert dirty, and every 256
/// dirty blocks are marked clean (a flush) — over twice the capacity.
/// Returns the hit count.
fn mem_stream(policy: CachePolicy, seed: u64) -> u64 {
    const BLOCK: usize = 4096;
    const CAPACITY: usize = 2048;
    let config = MemConfig::adaptive(WritebackPolicy::paper(), 1 << 20).with_policy(policy);
    let mut mem = MemMgr::new(BLOCK, CAPACITY, config);
    let mut rng = Rng::new(seed);
    let mut dirty = Vec::new();
    for now_ns in 0..MEM_OPS / 2 {
        let key = BlockKey::file(Ino(2), rng.below(2 * CAPACITY as u64));
        if rng.percent(70) {
            if mem.get(key).is_none() {
                mem.insert_clean(key, vec![0u8; BLOCK].into_boxed_slice());
            }
        } else {
            mem.insert_dirty(key, vec![1u8; BLOCK].into_boxed_slice(), now_ns);
            dirty.push(key);
            if dirty.len() == 256 {
                dirty.drain(..).for_each(|k| mem.mark_clean(k));
            }
        }
    }
    mem.stats().hits
}

/// Runs every drill and returns the six drill metrics.
pub fn run_all(seed: u64) -> Values {
    let mut out = Values::new();

    let sim = timed(DEVICE_REQUESTS, "sim-disk", || {
        let clock = Clock::new();
        let mut disk = SimDisk::new(spindle_geometry(), Arc::clone(&clock));
        device_stream(&mut disk, &clock, seed)
    });
    out.insert("sim-disk.drill_host_ns_per_req", Value::Num(sim));

    let engine = timed(DEVICE_REQUESTS, "engine", || {
        let clock = Clock::new();
        let disk = SimDisk::new(spindle_geometry(), Arc::clone(&clock));
        let core = EngineCore::new(disk, EngineConfig::default()).into_shared();
        device_stream(&mut EngineDisk::new(Rc::clone(&core)), &clock, seed)
    });
    out.insert("engine.drill_host_ns_per_req", Value::Num(engine));

    let volume = timed(DEVICE_REQUESTS, "volume", || {
        let clock = Clock::new();
        let cfg = VolumeConfig::parity_segment(4, 3 * LARGE);
        let vol = StripedVolume::new(spindle_geometry(), Arc::clone(&clock), cfg);
        device_stream(&mut VolumeDisk::new(vol.into_shared()), &clock, seed)
    });
    out.insert("volume.drill_host_ns_per_req", Value::Num(volume));

    // Both cache policies, half the operations each.
    let mem = timed(MEM_OPS, "mem-mgr", || {
        mem_stream(CachePolicy::SharedLru, seed) + mem_stream(CachePolicy::Adaptive, seed)
    });
    out.insert("mem-mgr.drill_host_ns_per_op", Value::Num(mem));

    let hist = timed(HIST_RECORDS, "obs", || {
        let hist = Hist::new();
        let mut rng = Rng::new(seed);
        for _ in 0..HIST_RECORDS {
            hist.record(black_box(rng.below(1 << 34)));
        }
        hist.sum()
    });
    out.insert("obs.hist_record_host_ns", Value::Num(hist));

    // The fullest registry the repo builds: LFS over a 4-spindle array.
    let (lfs, _pump) = Workload::ArrayMix.stack().format(&Clock::new());
    let snapshots = 100;
    let snapshot = timed(snapshots, "obs snapshot", || {
        (0..snapshots)
            .map(|_| black_box(lfs.obs().snapshot()).counters.len() as u64)
            .sum()
    });
    out.insert("obs.snapshot_host_us", Value::Num(snapshot / 1e3));
    out
}
