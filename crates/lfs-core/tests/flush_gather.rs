//! The flush's gather on a parity array: before its first chunk write a
//! flush fetches, fanned out across the spindles, every inode and
//! indirect block its dirty files' new addresses go into, so it stalls
//! on none of its own reads. The gather is quiet — a block that fails
//! its checksum is left to the serial path, which raises the identical
//! typed error once — and it is billed to whatever I/O class the flush
//! runs under, so a cleaner checkpoint stays maintenance I/O throughout.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use lfs_core::layout::inode::inode_block;
use lfs_core::{Lfs, LfsConfig};
use sim_disk::{Clock, DiskGeometry, SECTOR_SIZE};
use vfs::{FileSystem, FsError, Ino};
use volume::{StripedVolume, VolumeConfig, VolumeDisk};

type SharedVolume = Rc<RefCell<StripedVolume>>;

const SPINDLE_SECTORS: u64 = 8_192;
const FILES: usize = 6;
/// 64 KB of 512-byte blocks: twelve direct, the rest single-indirect.
const FILE_BYTES: usize = 64 * 1024;
/// A block in the single-indirect range.
const INDIRECT_BNO: u64 = 20;

fn cfg() -> LfsConfig {
    // A segment of three 8 KB stripe chunks: one parity row on four
    // spindles.
    LfsConfig::small_test()
        .with_segment_bytes(24 * 1024)
        .with_cache_bytes(1 << 20)
        .with_checkpoint_secs(1e9)
}

fn format(spindles: usize) -> (Lfs<VolumeDisk>, SharedVolume) {
    let clock = Clock::new();
    let vcfg = VolumeConfig::parity_segment(spindles, cfg().segment_bytes);
    let geometry = DiskGeometry::tiny_test(SPINDLE_SECTORS);
    let vol = StripedVolume::new(geometry, Arc::clone(&clock), vcfg).into_shared();
    let fs = Lfs::format(VolumeDisk::new(Rc::clone(&vol)), cfg(), clock).expect("format");
    (fs, vol)
}

fn contents(i: usize, round: u8) -> Vec<u8> {
    (0..FILE_BYTES)
        .map(|k| (k as u8) ^ (i as u8).wrapping_mul(31) ^ round)
        .collect()
}

/// `FILES` 64 KB files, synced, then every clean block and inode
/// dropped from memory: their single-indirect blocks are on disk only.
fn written_and_evicted(fs: &mut Lfs<VolumeDisk>) -> Vec<Ino> {
    let inos = (0..FILES)
        .map(|i| {
            fs.write_file(&format!("/f{i}"), &contents(i, 0))
                .expect("write")
        })
        .collect();
    fs.sync().expect("sync");
    fs.drop_caches().expect("drop caches");
    inos
}

/// Rewrites one whole block in the single-indirect range of each file:
/// the write itself maps nothing, so the flush must load the block.
fn dirty_one_indirect_block_each(fs: &mut Lfs<VolumeDisk>, inos: &[Ino]) {
    let bs = fs.block_size();
    for &ino in inos {
        let offset = INDIRECT_BNO * bs as u64;
        fs.write_at(ino, offset, &vec![0xA5; bs])
            .expect("overwrite");
    }
}

/// The sum over every spindle of engine counter `engine.<name>`.
fn spindle_counter(fs: &Lfs<VolumeDisk>, name: &str) -> u64 {
    let suffix = format!(".engine.{name}");
    let snap = fs.obs().snapshot();
    (snap.counters.iter())
        .filter(|(n, _)| n.ends_with(&suffix))
        .map(|(_, v)| v)
        .sum()
}

#[test]
fn overwriting_evicted_files_stalls_the_flush_on_no_read() {
    let (mut fs, _vol) = format(4);
    let inos = written_and_evicted(&mut fs);
    let before = fs.stats();
    for (i, &ino) in inos.iter().enumerate() {
        fs.write_at(ino, 0, &contents(i, 1)).expect("overwrite");
    }
    fs.sync().expect("sync");
    let flushed = fs.stats().delta_since(&before);
    assert_eq!(flushed.flush_sync_reads, 0, "a flush read a block serially");
    assert!(
        flushed.flush_gathered_blocks >= FILES as u64,
        "gathered {} blocks for {FILES} single-indirect files",
        flushed.flush_gathered_blocks
    );
    fs.drop_caches().expect("drop caches");
    for (i, &ino) in inos.iter().enumerate() {
        let mut got = vec![0u8; FILE_BYTES];
        fs.read_at(ino, 0, &mut got).expect("read back");
        assert!(got == contents(i, 1), "file {i} did not read back");
    }
}

#[test]
fn a_corrupt_gathered_indirect_block_fails_the_flush_once_through_the_serial_path() {
    let (mut fs, vol) = format(4);
    let inos = written_and_evicted(&mut fs);

    // Flip a byte of the first file's single-indirect block, through
    // the volume so parity agrees: only the block's checksum notices.
    let bs = fs.block_size();
    let sectors_per_block = (bs / SECTOR_SIZE) as u64;
    let entry = fs.inode_map().get(inos[0]).expect("imap entry");
    let mut block = vec![0u8; bs];
    let mut vol = vol.borrow_mut();
    vol.read(entry.addr.0 as u64 * sectors_per_block, &mut block)
        .expect("inode block");
    let inode = inode_block::unpack_slot(&block, entry.slot as usize)
        .expect("decodes")
        .expect("slot holds the inode");
    let single = inode.single.0 as u64;
    vol.read(single * sectors_per_block, &mut block)
        .expect("indirect block");
    block[0] ^= 0xFF;
    vol.write(single * sectors_per_block, &block, true)
        .expect("rot it");
    drop(vol);

    dirty_one_indirect_block_each(&mut fs, &inos);
    let before = fs.stats();
    assert_eq!(
        fs.sync(),
        Err(FsError::Corruption {
            what: "indirect block",
            addr: single,
        })
    );
    let flushed = fs.stats().delta_since(&before);
    assert_eq!(flushed.corruptions_detected, 1, "reported more than once");
    assert_eq!(
        flushed.flush_sync_reads, 1,
        "only the rotten block re-reads"
    );
    assert!(
        flushed.flush_gathered_blocks >= FILES as u64 - 1,
        "the other files' blocks were not gathered"
    );
}

#[test]
fn a_cleaner_checkpoint_bills_all_its_io_to_maintenance() {
    let (mut fs, vol) = format(2);
    let inos = written_and_evicted(&mut fs);
    for i in 0..2 {
        vol.borrow_mut().spindle_mut(i).set_client(Some(0));
    }
    dirty_one_indirect_block_each(&mut fs, &inos);
    let client = spindle_counter(&fs, "io_bytes.client");
    let maintenance = spindle_counter(&fs, "io_bytes.maintenance");
    let gathered = fs.stats().flush_gathered_blocks;

    // Eight more clean segments asked for: a run of eight victims, so
    // the files in the segments it leaves still need their indirect
    // blocks gathered by its checkpoint.
    let clean = fs.usage_table().clean_count();
    fs.clean_until(clean + 8).expect("clean");

    assert!(
        fs.stats().flush_gathered_blocks > gathered,
        "the cleaner's checkpoint gathered nothing: the test is vacuous"
    );
    assert_eq!(
        spindle_counter(&fs, "io_bytes.client"),
        client,
        "cleaner I/O was billed to the dispatched client"
    );
    assert!(spindle_counter(&fs, "io_bytes.maintenance") > maintenance);
}
