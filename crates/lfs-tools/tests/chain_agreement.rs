//! Every reader of the log goes through `ChunkCursor`, so on one image
//! they must all see the same chunk chains: the chunks `dumpfs` lists,
//! the blocks the scrubber verifies and the live data the cleaner
//! copies are checked here against a direct walk of the raw segments —
//! whose chunk count, on a log that was never cleaned, is exactly the
//! number of chunks the writer says it wrote.

use std::sync::Arc;

use lfs_core::layout::summary::ChunkCursor;
use lfs_core::layout::usage_block::SegState;
use lfs_core::types::{SegNo, INODE_SIZE};
use lfs_core::{Lfs, LfsConfig};
use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::FileSystem;

/// `(block offset, entries)` of each chunk of one segment, in log order.
type Chain = Vec<(usize, usize)>;

/// Creates, overwrites and deletes small files with a sync every few
/// operations, so segments fill with several partial chunks each and
/// plenty of their blocks die.
fn churn(fs: &mut Lfs<SimDisk>) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |bound: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    for step in 0..600u64 {
        let path = format!("/f{}", next(40));
        if next(5) == 0 {
            let _ = fs.unlink(&path);
        } else {
            let ino = fs.lookup(&path).or_else(|_| fs.create(&path)).unwrap();
            let len = 200 + next(4_000) as usize;
            fs.truncate(ino, 0).unwrap();
            fs.write_at(ino, 0, &vec![step as u8; len]).unwrap();
        }
        if step % 7 == 0 {
            fs.sync().unwrap();
        }
    }
    fs.sync().unwrap();
}

#[test]
fn cleaner_scrub_and_dumpfs_enumerate_the_same_chunks() {
    let clock = Clock::new();
    let geometry = DiskGeometry::tiny_test(131_072);
    let disk = SimDisk::new(geometry.clone(), Arc::clone(&clock));
    let mut fs = Lfs::format(disk, LfsConfig::small_test(), Arc::clone(&clock)).unwrap();
    churn(&mut fs);
    assert_eq!(fs.stats().segments_cleaned, 0, "the log must never have wrapped");

    // Scrub: on a healthy volume it verifies every block of every chunk
    // in the segments it walks, and changes nothing.
    let scrubbed: Vec<SegNo> = (0..fs.superblock().nsegments)
        .map(SegNo)
        .filter(|&seg| {
            matches!(fs.usage_table().state(seg), SegState::Dirty | SegState::Active)
        })
        .collect();
    let report = fs.scrub().unwrap();
    assert!(report.is_clean(), "{report:?}");

    let chunks_written = fs.stats().chunks_written;
    let sb = fs.superblock().clone();
    let image = fs.into_device().into_image();
    let bs = sb.block_size as usize;
    let seg_blocks = sb.seg_blocks as usize;

    // The reference: walk the raw bytes of every segment from block 0.
    let chains: Vec<Chain> = (0..sb.nsegments)
        .map(|seg| {
            let base = sb.seg_block(SegNo(seg), 0);
            let bytes = &image[base.0 as usize * bs..][..seg_blocks * bs];
            let mut cursor = ChunkCursor::new(base, seg_blocks, bs);
            let mut chain = Chain::new();
            loop {
                let at = cursor.offset();
                let Ok((chunk, _)) = cursor.next_chunk(&bytes[at * bs..]) else {
                    break;
                };
                chain.push((at, chunk.entries.len()));
            }
            chain
        })
        .collect();
    let total: usize = chains.iter().map(Vec::len).sum();
    assert_eq!(total as u64, chunks_written, "every chunk written is on some chain");
    assert!(
        chains.iter().filter(|c| c.len() > 1).count() > 10,
        "the churn must leave multi-chunk segments, or agreement is vacuous"
    );

    let entries_in = |seg: SegNo| -> u64 {
        chains[seg.0 as usize].iter().map(|&(_, n)| n as u64).sum()
    };
    assert_eq!(report.segments, scrubbed.len() as u64);
    assert_eq!(
        report.blocks_verified,
        scrubbed.iter().map(|&seg| entries_in(seg)).sum::<u64>()
    );

    // dumpfs: parse its verbose listing back into chains.
    let mut disk = SimDisk::from_image(geometry.clone(), Clock::new(), image.clone());
    let mut out = Vec::new();
    lfs_tools::dump::dump(&mut disk, &mut out, true).unwrap();
    let mut dumped: Vec<Chain> = vec![Chain::new(); sb.nsegments as usize];
    let mut current = 0usize;
    for line in String::from_utf8(out).unwrap().lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["segment", seg, "seq", _, count, "chunk(s),", used, "blocks", "used"] => {
                current = seg.trim_end_matches(':').parse().unwrap();
                let chain = &chains[current];
                assert_eq!(count.parse::<usize>().unwrap(), chain.len(), "{line}");
                let (at, n) = *chain.last().unwrap();
                let last_chunk_end = used.parse::<usize>().unwrap();
                assert!(at + n < last_chunk_end && last_chunk_end <= seg_blocks, "{line}");
            }
            ["chunk", at, "partial", partial, "entries", n, "next_seg", _] => {
                assert_eq!(partial.parse::<usize>().unwrap(), dumped[current].len(), "{line}");
                let at = at.trim_start_matches("@+").trim_end_matches(':');
                dumped[current].push((at.parse().unwrap(), n.parse().unwrap()));
            }
            _ => {}
        }
    }
    assert_eq!(dumped, chains);

    // The cleaner: from each dirty segment it must copy exactly the live
    // data the usage table accounts there — a walk that ended early (or
    // strayed into a stale chunk) would copy less (or choke).
    let clock = Clock::new();
    let disk = SimDisk::from_image(geometry, Arc::clone(&clock), image);
    let mut fs = Lfs::mount(disk, LfsConfig::small_test(), clock).unwrap();
    let dirty = fs.usage_table().segments_in_state(SegState::Dirty);
    assert!(dirty.len() > 10);
    for seg in dirty {
        let live_bytes = fs.usage_table().get(seg).live_bytes as u64;
        let (blocks, inodes) = fs.clean_segment(seg).unwrap();
        assert_eq!(
            blocks * bs as u64 + inodes * INODE_SIZE as u64,
            live_bytes,
            "{seg}: chain {:?}",
            chains[seg.0 as usize]
        );
    }
}
