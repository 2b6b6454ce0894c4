//! The paper's central quantitative claims, asserted at test scale.
//!
//! The full reproductions live in `lfs-bench` (one binary per figure);
//! these tests pin the *directions* so `cargo test` alone guards them:
//!
//! * Figure 1/2: FFS creation does small random synchronous writes; LFS
//!   does none.
//! * Figure 3: LFS creates and deletes small files several times faster.
//! * Figure 4: LFS random writes ≈ sequential; FFS random writes collapse;
//!   FFS wins sequential reread after random update.
//! * Figure 5: the cleaning rate falls as segment utilization rises.
//! * §3.1: faster CPUs barely help FFS, but scale LFS.
//! * §4.4: LFS recovery does not scan the disk; FFS fsck does.

use std::sync::Arc;

use lfs_repro::ffs_baseline::{Ffs, FfsConfig};
use lfs_repro::lfs_core::{Lfs, LfsConfig};
use lfs_repro::sim_disk::{Clock, DiskGeometry, SimDisk};
use lfs_repro::vfs::FileSystem;
use lfs_repro::workload::large_file::{self, LargeFileSpec};
use lfs_repro::workload::small_files::{create_phase, delete_phase, SmallFileSpec};
use lfs_repro::workload::{payload, Stopwatch};

fn lfs_disk(mb: u64) -> (Lfs<SimDisk>, Arc<Clock>) {
    let clock = Clock::new();
    let disk = SimDisk::new(
        DiskGeometry::wren_iv().with_sectors(mb * 2048),
        Arc::clone(&clock),
    );
    let fs = Lfs::format(disk, LfsConfig::paper(), Arc::clone(&clock)).unwrap();
    (fs, clock)
}

fn ffs_disk(mb: u64) -> (Ffs<SimDisk>, Arc<Clock>) {
    let clock = Clock::new();
    let disk = SimDisk::new(
        DiskGeometry::wren_iv().with_sectors(mb * 2048),
        Arc::clone(&clock),
    );
    let fs = Ffs::format(disk, FfsConfig::paper(), Arc::clone(&clock)).unwrap();
    (fs, clock)
}

#[test]
fn fig1_2_lfs_create_is_asynchronous_ffs_is_not() {
    let (mut ffs, _) = ffs_disk(64);
    ffs.mkdir("/d").unwrap();
    let sync_before = ffs.device().stats().sync_writes;
    ffs.create("/d/f").unwrap();
    assert!(
        ffs.device().stats().sync_writes >= sync_before + 2,
        "FFS creat must synchronously write the inode and the directory"
    );

    let (mut lfs, _) = lfs_disk(64);
    lfs.mkdir("/d").unwrap();
    let sync_before = lfs.device().stats().sync_writes;
    let writes_before = lfs.device().stats().writes;
    lfs.create("/d/f").unwrap();
    let ino = lfs.lookup("/d/f").unwrap();
    lfs.write_at(ino, 0, &vec![1u8; 4096]).unwrap();
    assert_eq!(
        lfs.device().stats().sync_writes,
        sync_before,
        "LFS creat+write must perform no synchronous writes"
    );
    assert_eq!(
        lfs.device().stats().writes,
        writes_before,
        "LFS creat+write must not touch the disk at all until write-back"
    );
}

#[test]
fn fig3_small_file_create_delete_speedup() {
    let spec = SmallFileSpec::scaled(800, 1024);

    let (mut lfs, clock) = lfs_disk(64);
    let mut watch = Stopwatch::start(Arc::clone(&clock));
    create_phase(&mut lfs, &spec).unwrap();
    lfs.sync().unwrap();
    let lfs_create = watch.lap_secs();
    delete_phase(&mut lfs, &spec).unwrap();
    lfs.sync().unwrap();
    let lfs_delete = watch.lap_secs();

    let (mut ffs, clock) = ffs_disk(64);
    let mut watch = Stopwatch::start(Arc::clone(&clock));
    create_phase(&mut ffs, &spec).unwrap();
    ffs.sync().unwrap();
    let ffs_create = watch.lap_secs();
    delete_phase(&mut ffs, &spec).unwrap();
    ffs.sync().unwrap();
    let ffs_delete = watch.lap_secs();

    assert!(
        ffs_create / lfs_create > 4.0,
        "LFS should create small files several times faster \
         (LFS {lfs_create:.2}s vs FFS {ffs_create:.2}s)"
    );
    assert!(
        ffs_delete / lfs_delete > 4.0,
        "LFS should delete small files several times faster \
         (LFS {lfs_delete:.2}s vs FFS {ffs_delete:.2}s)"
    );
}

#[test]
fn fig4_random_write_behaviour() {
    let spec = LargeFileSpec::scaled(16 * 1024 * 1024, 8192);

    let measure = |fs: &mut dyn FileSystem, clock: &Arc<Clock>| -> (f64, f64, f64) {
        let ino = fs.create("/big").unwrap();
        let mut watch = Stopwatch::start(Arc::clone(clock));
        large_file::seq_write(fs, ino, &spec).unwrap();
        fs.sync().unwrap();
        let seq_write = watch.lap_secs();
        large_file::rand_write(fs, ino, &spec).unwrap();
        fs.sync().unwrap();
        let rand_write = watch.lap_secs();
        fs.drop_caches().unwrap();
        watch.lap_secs();
        large_file::seq_read(fs, ino, &spec).unwrap();
        let reread = watch.lap_secs();
        (seq_write, rand_write, reread)
    };

    // Shrink the caches so the 16 MB file does not fit: with everything
    // cached, even FFS's random writes would be absorbed and sorted.
    let clock = Clock::new();
    let disk = SimDisk::new(
        DiskGeometry::wren_iv().with_sectors(96 * 2048),
        Arc::clone(&clock),
    );
    let mut lfs = Lfs::format(
        disk,
        LfsConfig::paper().with_cache_bytes(2 * 1024 * 1024),
        Arc::clone(&clock),
    )
    .unwrap();
    let (lfs_seq_w, lfs_rand_w, lfs_reread) = measure(&mut lfs, &clock);

    let clock = Clock::new();
    let disk = SimDisk::new(
        DiskGeometry::wren_iv().with_sectors(96 * 2048),
        Arc::clone(&clock),
    );
    let mut ffs = Ffs::format(
        disk,
        FfsConfig::paper().with_cache_bytes(2 * 1024 * 1024),
        Arc::clone(&clock),
    )
    .unwrap();
    let (ffs_seq_w, ffs_rand_w, ffs_reread) = measure(&mut ffs, &clock);

    // LFS: random writes cost about the same as sequential (they become
    // sequential log writes).
    assert!(
        lfs_rand_w < lfs_seq_w * 1.5,
        "LFS random writes should not collapse: seq {lfs_seq_w:.2}s rand {lfs_rand_w:.2}s"
    );
    // FFS: random writes much slower than its own sequential writes.
    assert!(
        ffs_rand_w > ffs_seq_w * 1.8,
        "FFS random writes should collapse: seq {ffs_seq_w:.2}s rand {ffs_rand_w:.2}s"
    );
    // Crossover: sequential reread after random update favours FFS.
    assert!(
        ffs_reread < lfs_reread,
        "update-in-place must win the sequential reread \
         (FFS {ffs_reread:.2}s vs LFS {lfs_reread:.2}s)"
    );
}

#[test]
fn fig5_cleaning_rate_decreases_with_utilization() {
    let rate_at = |keep_tenths: u32| -> f64 {
        let cfg = LfsConfig::paper().with_cache_bytes(2 * 1024 * 1024);
        let clock = Clock::new();
        let disk = SimDisk::new(
            DiskGeometry::wren_iv().with_sectors(48 * 2048),
            Arc::clone(&clock),
        );
        let mut fs = Lfs::format(disk, cfg, Arc::clone(&clock)).unwrap();
        let data = payload(5, 1024);
        let n = 8_000usize;
        for d in 0..n / 500 {
            fs.mkdir(&format!("/d{d}")).unwrap();
        }
        for i in 0..n {
            fs.write_file(&format!("/d{}/f{i}", i / 500), &data)
                .unwrap();
        }
        fs.sync().unwrap();
        for i in 0..n {
            if (i % 10) as u32 >= keep_tenths {
                fs.unlink(&format!("/d{}/f{i}", i / 500)).unwrap();
            }
        }
        fs.sync().unwrap();

        let clean_before = fs.usage_table().clean_count();
        let watch = Stopwatch::start(Arc::clone(&clock));
        fs.clean_until(clean_before + 8).unwrap();
        let net = fs.usage_table().clean_count().saturating_sub(clean_before);
        (net as u64 * fs.usage_table().seg_bytes()) as f64 / watch.elapsed_secs()
    };

    let empty = rate_at(1);
    let half = rate_at(5);
    let full = rate_at(9);
    assert!(
        empty > half && half > full,
        "cleaning rate must fall with utilization: {empty:.0} > {half:.0} > {full:.0}"
    );
}

#[test]
fn s1_cpu_scaling_decouples_lfs_only() {
    let latency = |mips: f64, use_lfs: bool| -> f64 {
        let n = 60;
        if use_lfs {
            let (mut fs, clock) = lfs_disk(64);
            fs.set_cpu_mips(mips);
            let watch = Stopwatch::start(Arc::clone(&clock));
            for i in 0..n {
                fs.create(&format!("/e{i}")).unwrap();
                fs.unlink(&format!("/e{i}")).unwrap();
            }
            watch.elapsed_secs() / n as f64
        } else {
            let (mut fs, clock) = ffs_disk(64);
            fs.set_cpu_mips(mips);
            let watch = Stopwatch::start(Arc::clone(&clock));
            for i in 0..n {
                fs.create(&format!("/e{i}")).unwrap();
                fs.unlink(&format!("/e{i}")).unwrap();
            }
            watch.elapsed_secs() / n as f64
        }
    };

    let ffs_slow = latency(1.0, false);
    let ffs_fast = latency(10.0, false);
    let lfs_slow = latency(1.0, true);
    let lfs_fast = latency(10.0, true);

    // A 10x CPU gives FFS well under 2x, but LFS several times.
    assert!(
        ffs_slow / ffs_fast < 2.0,
        "FFS is disk-bound: {ffs_slow:.4}s -> {ffs_fast:.4}s"
    );
    assert!(
        lfs_slow / lfs_fast > 4.0,
        "LFS should scale with the CPU: {lfs_slow:.4}s -> {lfs_fast:.4}s"
    );
}

#[test]
fn s2_lfs_recovery_reads_far_less_than_ffs_fsck() {
    // Build comparable dirty volumes and crash them.
    let (mut lfs, _clock) = lfs_disk(128);
    for i in 0..100 {
        lfs.write_file(&format!("/f{i}"), &vec![1u8; 8192]).unwrap();
    }
    lfs.sync().unwrap();
    let lfs_image = lfs.into_device().into_image();

    let (mut ffs, _clock) = ffs_disk(128);
    for i in 0..100 {
        ffs.write_file(&format!("/f{i}"), &vec![1u8; 8192]).unwrap();
    }
    ffs.sync().unwrap();
    let ffs_image = ffs.into_device().into_image();

    let geometry = DiskGeometry::wren_iv().with_sectors(128 * 2048);
    let disk = SimDisk::from_image(geometry.clone(), Clock::new(), lfs_image);
    let clock = disk.clock().clone();
    let fs = Lfs::mount(disk, LfsConfig::paper(), clock).unwrap();
    let lfs_reads = fs.device().stats().bytes_read;

    let disk = SimDisk::from_image(geometry, Clock::new(), ffs_image);
    let clock = disk.clock().clone();
    let fs = Ffs::mount(disk, FfsConfig::paper(), clock).unwrap();
    assert_eq!(fs.stats().fsck_scans, 1, "dirty FFS must scan");
    let ffs_reads = fs.device().stats().bytes_read;

    assert!(
        ffs_reads > lfs_reads * 5,
        "FFS fsck ({ffs_reads} B) must read far more than LFS mount ({lfs_reads} B)"
    );
}
