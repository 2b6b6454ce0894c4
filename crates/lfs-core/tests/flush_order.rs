//! The order in which the segment writer emits file data: fresh data in
//! ascending (ino, block) order — the layout every pinned number was
//! measured on — and, after a cleaning pass, the cleaner's survivors
//! ahead of it, oldest first, so cold and hot data stop sharing
//! segments. Read off the log itself: the `log-chunk` writes of one
//! flush, in device order, decoded with the summary decoder.

use std::collections::BTreeSet;
use std::sync::Arc;

use lfs_core::layout::summary::{BlockKind, ChunkSummary};
use lfs_core::{Lfs, LfsConfig};
use sim_disk::{AccessKind, BlockDevice, Clock, DiskGeometry, SimDisk};
use vfs::{FileSystem, Ino};

/// A small-test file system whose cleaner only runs when told to.
fn manual_fs() -> Lfs<SimDisk> {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(4096), Arc::clone(&clock));
    let mut cfg = LfsConfig::small_test();
    cfg.cleaner.activate_below_clean = 0;
    Lfs::format(disk, cfg, clock).unwrap()
}

/// Runs one write-back and returns the data blocks it logged, in log
/// order.
fn data_blocks_of_next_flush(fs: &mut Lfs<SimDisk>) -> Vec<(Ino, u32)> {
    fs.device_mut().trace_mut().clear();
    fs.device_mut().trace_mut().enable();
    fs.write_back().unwrap();
    fs.device_mut().flush().unwrap();
    fs.device_mut().trace_mut().disable();
    let chunks: Vec<(u64, usize)> = fs
        .device()
        .trace()
        .records()
        .iter()
        .filter(|r| r.kind == AccessKind::Write && r.label == "log-chunk")
        .map(|r| (r.sector, r.bytes as usize))
        .collect();
    let mut blocks = Vec::new();
    for (sector, bytes) in chunks {
        let mut chunk = vec![0u8; bytes];
        fs.device_mut().read(sector, &mut chunk).unwrap();
        let summary = ChunkSummary::decode(&chunk).expect("a flush writes decodable chunks");
        for entry in summary.entries {
            if let BlockKind::Data { ino, bno } = entry.kind {
                blocks.push((ino, bno));
            }
        }
    }
    blocks
}

#[test]
fn fresh_data_is_written_in_ascending_ino_and_block_order() {
    let mut fs = manual_fs();
    // Dirty the files in an order that is neither ino nor age order,
    // some of them twice, none of them ever touched by the cleaner.
    let bs = fs.block_size();
    let inos: Vec<Ino> = (0..8)
        .map(|i| fs.create(&format!("/f{i}")).unwrap())
        .collect();
    for &i in &[5usize, 1, 7, 0, 3, 6, 2, 4, 1, 5] {
        fs.clock().advance_ns(1_000_000);
        fs.write_at(inos[i], 0, &vec![i as u8; 3 * bs]).unwrap();
    }
    let blocks = data_blocks_of_next_flush(&mut fs);
    assert!(
        blocks.len() >= 8 * 3,
        "the flush must carry every file's blocks, saw {blocks:?}"
    );
    let mut sorted = blocks.clone();
    sorted.sort();
    assert_eq!(
        blocks, sorted,
        "with nothing relocated the writer emits ascending (ino, block)"
    );
}

#[test]
fn relocated_blocks_are_written_before_fresh_ones_oldest_first() {
    let mut fs = manual_fs();
    let bs = fs.block_size();
    let blob = |tag: u8| vec![tag; 4 * bs];
    // Cold files interleaved with filler, so that deleting the filler
    // leaves every segment part dead and every cold file a survivor.
    let mut cold = Vec::new();
    for i in 0..12u8 {
        fs.clock().advance_ns(5_000_000);
        fs.write_file(&format!("/fill{i}"), &blob(0xF0)).unwrap();
        let name = format!("/cold{i}");
        fs.write_file(&name, &blob(i)).unwrap();
        cold.push(fs.lookup(&name).unwrap());
    }
    // Rewrite two early cold files last: among the survivors, age order
    // is now not ino order.
    for &i in &[1usize, 4] {
        fs.clock().advance_ns(5_000_000);
        fs.write_at(cold[i], 0, &blob(0xA0 + i as u8)).unwrap();
    }
    fs.sync().unwrap();
    for i in 0..12 {
        fs.unlink(&format!("/fill{i}")).unwrap();
    }
    fs.sync().unwrap();

    fs.clock().advance_ns(50_000_000);
    let outcome = fs.clean_pass().unwrap();
    assert!(outcome.live_blocks > 0, "the pass must relocate something");

    // Fresh traffic before the flush: new files, and a user write to
    // one survivor, which makes it fresh again — with an ino in the
    // middle of the survivors', so plain ino order would interleave it.
    fs.clock().advance_ns(5_000_000);
    // (The creates rewrite the root directory, so it is fresh too.)
    let mut fresh = BTreeSet::from([Ino::ROOT]);
    for i in 0..3u8 {
        let name = format!("/new{i}");
        fs.write_file(&name, &blob(0xC0 + i)).unwrap();
        fresh.insert(fs.lookup(&name).unwrap());
    }
    fs.write_at(cold[7], 0, &blob(0x77)).unwrap();
    fresh.insert(cold[7]);
    assert!(
        cold[7] < *cold.last().unwrap(),
        "the script needs a fresh file's ino below a survivor's to tell the orders apart"
    );

    let blocks = data_blocks_of_next_flush(&mut fs);
    let first_fresh = blocks
        .iter()
        .position(|(ino, _)| fresh.contains(ino))
        .expect("the flush carries fresh blocks");
    let (relocated, rest) = blocks.split_at(first_fresh);
    assert!(
        relocated.len() as u64 >= outcome.live_blocks.min(4),
        "relocated blocks lead the flush: {blocks:?}"
    );
    assert!(
        rest.iter().all(|(ino, _)| fresh.contains(ino)),
        "a relocated block was written after a fresh one: {blocks:?}"
    );
    let fresh_inos: Vec<Ino> = rest.iter().map(|&(ino, _)| ino).collect();
    assert!(
        fresh_inos.windows(2).all(|w| w[0] <= w[1]),
        "fresh files keep ascending ino order: {fresh_inos:?}"
    );

    // Survivors: grouped by file, oldest modification first.
    let mut files: Vec<Ino> = relocated.iter().map(|&(ino, _)| ino).collect();
    files.dedup();
    let distinct: BTreeSet<Ino> = files.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        files.len(),
        "each survivor's blocks are contiguous"
    );
    let mtimes: Vec<u64> = files
        .iter()
        .map(|&ino| fs.stat(ino).unwrap().mtime_ns)
        .collect();
    assert!(
        mtimes.windows(2).all(|w| w[0] <= w[1]),
        "survivors are written oldest first: {mtimes:?}"
    );
    assert!(
        files.windows(2).any(|w| w[0] > w[1]),
        "the script needs survivors whose age order is not their ino order: {files:?}"
    );
}
