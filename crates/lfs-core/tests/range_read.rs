//! A file read is one pass over a resolved block range: each block is
//! looked up in the cache once, the misses' addresses are resolved
//! before any is read, and each run of contiguous addresses is one
//! device request. The flush lays each file's single-indirect block
//! right behind the file's data, so a cold read of a small file's tail
//! reads *through* the uncached indirect block in the same request,
//! checks its pointers against the addresses it assumed, and falls back
//! to the resolved path when they differ. Checksums are verified either
//! way, and errors are the ones the per-block path raises.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use lfs_core::layout::inode::inode_block;
use lfs_core::{Lfs, LfsConfig, LfsStats};
use mem_mgr::CachePolicy;
use sim_disk::{Clock, DiskGeometry, SECTOR_SIZE};
use vfs::{FileSystem, FsError, Ino};
use volume::{StripedVolume, VolumeConfig, VolumeDisk};

type SharedVolume = Rc<RefCell<StripedVolume>>;

const SPINDLE_SECTORS: u64 = 16_384;
const BLOCK: usize = 4096;
/// Sixteen 4 KB blocks: twelve direct, four behind the single-indirect
/// block.
const FILE_BYTES: usize = 16 * BLOCK;

fn cfg() -> LfsConfig {
    // One 384 KB segment is one parity row of three 128 KB chunks.
    LfsConfig::small_test()
        .with_block_size(BLOCK)
        .with_segment_bytes(384 * 1024)
        .with_cache_bytes(1 << 20)
        .with_checkpoint_secs(1e9)
}

fn format(cfg: LfsConfig) -> (Lfs<VolumeDisk>, SharedVolume) {
    let clock = Clock::new();
    let vcfg = VolumeConfig::parity_segment(4, cfg.segment_bytes);
    let geometry = DiskGeometry::tiny_test(SPINDLE_SECTORS);
    let vol = StripedVolume::new(geometry, Arc::clone(&clock), vcfg).into_shared();
    let fs = Lfs::format(VolumeDisk::new(Rc::clone(&vol)), cfg, clock).expect("format");
    (fs, vol)
}

fn contents(seed: u8) -> Vec<u8> {
    (0..FILE_BYTES)
        .map(|k| (k as u8).wrapping_mul(7) ^ (k / BLOCK) as u8 ^ seed)
        .collect()
}

/// A synced 64 KB file whose blocks and inode are then dropped from
/// memory, and its inode loaded again: a read of it misses every block
/// and nothing else.
fn cold_file(fs: &mut Lfs<VolumeDisk>) -> Ino {
    let ino = fs.write_file("/f", &contents(0)).expect("write");
    fs.sync().expect("sync");
    fs.drop_caches().expect("drop caches");
    fs.stat(ino).expect("stat loads the inode");
    ino
}

fn volume_reads(fs: &Lfs<VolumeDisk>) -> u64 {
    fs.obs().snapshot().counter("volume.reads")
}

fn read_whole(fs: &mut Lfs<VolumeDisk>, ino: Ino) -> Result<Vec<u8>, FsError> {
    let mut buf = vec![0u8; FILE_BYTES];
    fs.read_at(ino, 0, &mut buf).map(|n| {
        assert_eq!(n, FILE_BYTES);
        buf
    })
}

/// The same bytes as [`read_whole`], one block per call: the per-block
/// path the range read replaced.
fn read_blockwise(fs: &mut Lfs<VolumeDisk>, ino: Ino) -> Result<Vec<u8>, FsError> {
    let mut buf = vec![0u8; FILE_BYTES];
    for (bno, block) in buf.chunks_exact_mut(BLOCK).enumerate() {
        fs.read_at(ino, (bno * BLOCK) as u64, block)?;
    }
    Ok(buf)
}

/// The disk address of `ino`'s single-indirect block, read off the
/// inode's on-disk copy.
fn single_addr(fs: &Lfs<VolumeDisk>, vol: &SharedVolume, ino: Ino) -> u64 {
    let entry = fs.inode_map().get(ino).expect("imap entry");
    let mut block = vec![0u8; BLOCK];
    vol.borrow_mut()
        .read(entry.addr.0 as u64 * sectors_per_block(), &mut block)
        .expect("inode block");
    let inode = inode_block::unpack_slot(&block, entry.slot as usize)
        .expect("decodes")
        .expect("slot holds the inode");
    inode.single.0 as u64
}

fn sectors_per_block() -> u64 {
    (BLOCK / SECTOR_SIZE) as u64
}

/// Flips a byte of block `addr` through the volume, so parity agrees
/// and only the block's checksum can tell.
fn rot(vol: &SharedVolume, addr: u64) {
    let mut block = vec![0u8; BLOCK];
    let mut vol = vol.borrow_mut();
    vol.read(addr * sectors_per_block(), &mut block)
        .expect("read");
    block[7] ^= 0x5A;
    vol.write(addr * sectors_per_block(), &block, true)
        .expect("write");
}

#[test]
fn a_cold_64k_read_is_one_device_request() {
    let (mut fs, vol) = format(cfg());
    let ino = cold_file(&mut fs);
    let single = single_addr(&fs, &vol, ino);
    let (before, reads) = (fs.stats(), volume_reads(&fs));
    assert_eq!(read_whole(&mut fs, ino).expect("read"), contents(0));
    assert_eq!(volume_reads(&fs) - reads, 1, "one request for 16 blocks");
    let d = fs.stats().delta_since(&before);
    assert_eq!(
        (d.read_runs, d.read_run_blocks),
        (1, 17),
        "the data and its indirect block"
    );
    assert_eq!((d.read_through, d.read_through_misses), (1, 0));
    assert_eq!(d.corruptions_detected, 0);
    assert_eq!(d.verified_reads, 17, "every block read was checked");
    // The indirect block read through was the file's own.
    assert_eq!(single_addr(&fs, &vol, ino), single);
}

#[test]
fn a_moved_block_makes_the_read_fall_back_to_the_resolved_path() {
    let (mut fs, vol) = format(cfg());
    let ino = fs.write_file("/f", &contents(0)).expect("write");
    fs.sync().expect("sync");
    // Rewrite block 13: the next flush logs it and a new single-indirect
    // block behind it, so the indirect block no longer ends the run the
    // rest of the file's blocks make.
    let mut expected = contents(0);
    expected[13 * BLOCK..14 * BLOCK].fill(0xC3);
    fs.write_at(ino, 13 * BLOCK as u64, &[0xC3; BLOCK])
        .expect("overwrite");
    fs.sync().expect("sync");
    fs.drop_caches().expect("drop caches");
    fs.stat(ino).expect("stat");
    let single = single_addr(&fs, &vol, ino);

    let before = fs.stats();
    assert_eq!(read_whole(&mut fs, ino).expect("read"), expected);
    let d = fs.stats().delta_since(&before);
    assert_eq!(
        (d.read_through, d.read_through_misses),
        (1, 1),
        "assumed, checked, refused"
    );
    assert_eq!(d.corruptions_detected, 0);
    // The fallback read what the pointers say: the same bytes after a
    // cold block-by-block read.
    fs.drop_caches().expect("drop caches");
    assert_eq!(read_blockwise(&mut fs, ino).expect("read"), expected);
    assert_eq!(single_addr(&fs, &vol, ino), single);
}

/// Two identical file systems with the same block rotted: one read
/// whole, one block by block. Both fail with the same typed error and
/// count the same one corruption.
fn same_corruption(rotted: impl Fn(&Lfs<VolumeDisk>, &SharedVolume, Ino) -> u64) -> FsError {
    let mut outcomes = Vec::new();
    for whole in [true, false] {
        let (mut fs, vol) = format(cfg());
        let ino = cold_file(&mut fs);
        rot(&vol, rotted(&fs, &vol, ino));
        let before = fs.stats();
        let err = if whole {
            read_whole(&mut fs, ino)
        } else {
            read_blockwise(&mut fs, ino)
        }
        .expect_err("a rotten block fails the read");
        let d: LfsStats = fs.stats().delta_since(&before);
        outcomes.push((err, d.corruptions_detected));
    }
    assert_eq!(outcomes[0], outcomes[1], "range read vs per-block read");
    assert_eq!(outcomes[0].1, 1);
    outcomes.swap_remove(0).0
}

#[test]
fn a_rotten_data_block_inside_a_run_fails_like_the_per_block_path() {
    // Block 5, inside the one run: the file's 16 data blocks lie right
    // in front of its single-indirect block.
    let err = same_corruption(|fs, vol, ino| single_addr(fs, vol, ino) - 16 + 5);
    assert!(
        matches!(
            err,
            FsError::Corruption {
                what: "file data block",
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn a_rotten_read_through_indirect_block_fails_like_the_per_block_path() {
    let err = same_corruption(single_addr);
    assert!(
        matches!(
            err,
            FsError::Corruption {
                what: "indirect block",
                ..
            }
        ),
        "{err:?}"
    );
}

/// The cache's hit, miss and ghost-hit counters, in that order.
fn cache_counts(fs: &Lfs<VolumeDisk>) -> [u64; 3] {
    let report = fs.cache_report();
    [report.stats.hits, report.stats.misses, report.ghost_hits]
}

fn delta(after: [u64; 3], before: [u64; 3]) -> [u64; 3] {
    [0, 1, 2].map(|i| after[i] - before[i])
}

#[test]
fn a_range_read_counts_one_cache_lookup_per_block() {
    // An adaptive cache of 64 blocks: reading other files pushes the
    // file's blocks out through the ghost list.
    let small = || {
        cfg()
            .with_cache_bytes(64 * BLOCK)
            .with_cache_policy(CachePolicy::Adaptive)
    };
    let mut seen = Vec::new();
    for whole in [true, false] {
        let (mut fs, _vol) = format(small());
        let ino = cold_file(&mut fs);
        let others: Vec<Ino> = (0..6)
            .map(|i| {
                fs.write_file(&format!("/o{i}"), &contents(i + 1))
                    .expect("write")
            })
            .collect();
        fs.sync().expect("sync");
        let mut counts = Vec::new();
        // Cold, warm, then after the other files have pushed it out.
        for round in 0..3 {
            if round == 2 {
                for &other in &others {
                    read_whole(&mut fs, other).expect("read other");
                }
                fs.stat(ino).expect("stat");
            }
            let before = cache_counts(&fs);
            let got = if whole {
                read_whole(&mut fs, ino)
            } else {
                read_blockwise(&mut fs, ino)
            };
            assert_eq!(got.expect("read"), contents(0));
            counts.push(delta(cache_counts(&fs), before));
        }
        seen.push(counts);
    }
    let (whole, blockwise) = (&seen[0], &seen[1]);
    // Cold: sixteen misses, and the indirect block looked up once.
    assert_eq!(whole[0], [1, 16, 0]);
    assert_eq!(whole[1], [16, 0, 0], "warm: sixteen hits");
    assert!(
        whole[2][2] > 0,
        "the last round must land on ghosts: {:?}",
        whole[2]
    );
    assert!(
        (16..=17).contains(&(whole[2][0] + whole[2][1])),
        "one lookup per block, and one of the indirect block if it is used: {:?}",
        whole[2]
    );
    // Misses and ghost hits are the per-block path's. So are hits, but
    // for the indirect block, which the per-block path looks up once
    // for each block behind it.
    for round in 0..3 {
        assert_eq!(whole[round][1..], blockwise[round][1..], "round {round}");
    }
    assert_eq!(blockwise[0][0], 4, "cold, block by block: blocks 12 to 15");
}
