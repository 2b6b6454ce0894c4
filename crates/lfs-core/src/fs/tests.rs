//! White-box tests of the write path: block mapping, the segment writer,
//! and space accounting — details the public API cannot reach directly.

use std::sync::Arc;

use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::{FileSystem, FsError, Ino};

use super::*;
use crate::config::LfsConfig;
use crate::layout::usage_block::SegState;
use crate::types::BlockAddr;

fn fresh() -> Lfs<SimDisk> {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(32_768), Arc::clone(&clock));
    Lfs::format(disk, LfsConfig::small_test(), clock).unwrap()
}

#[test]
fn map_block_reflects_set_block_ptr() {
    let mut fs = fresh();
    let ino = fs.create("/f").unwrap();
    // Fresh file: every block maps to NIL.
    assert_eq!(fs.map_block(ino, 0).unwrap(), BlockAddr::NIL);
    assert_eq!(fs.map_block(ino, 13).unwrap(), BlockAddr::NIL);

    // Direct pointer.
    let old = fs.set_block_ptr(ino, 3, BlockAddr(500)).unwrap();
    assert_eq!(old, BlockAddr::NIL);
    assert_eq!(fs.map_block(ino, 3).unwrap(), BlockAddr(500));

    // Single-indirect range (bno 12.. for NDIRECT=12).
    let old = fs.set_block_ptr(ino, 20, BlockAddr(600)).unwrap();
    assert_eq!(old, BlockAddr::NIL);
    assert_eq!(fs.map_block(ino, 20).unwrap(), BlockAddr(600));

    // Replacing returns the previous address.
    let old = fs.set_block_ptr(ino, 20, BlockAddr(601)).unwrap();
    assert_eq!(old, BlockAddr(600));

    // Double-indirect range: 12 + 128 for 512-byte blocks.
    let far = 12 + fs.sb.ptrs_per_block() as u64 + 5;
    fs.set_block_ptr(ino, far, BlockAddr(700)).unwrap();
    assert_eq!(fs.map_block(ino, far).unwrap(), BlockAddr(700));
}

#[test]
fn clearing_a_hole_does_not_create_indirect_blocks() {
    let mut fs = fresh();
    let ino = fs.create("/f").unwrap();
    let far = 12 + fs.sb.ptrs_per_block() as u64 + 5;
    // Setting NIL over a hole must not materialise indirect blocks.
    let old = fs.set_block_ptr(ino, far, BlockAddr::NIL).unwrap();
    assert_eq!(old, BlockAddr::NIL);
    let inode = fs.inode(ino).unwrap();
    assert!(inode.double.is_nil());
    assert!(!fs
        .cache
        .contains(mem_mgr::BlockKey::file(ino, IDX_DTOP)));
}

#[test]
fn mappable_range_is_bounded() {
    let mut fs = fresh();
    let ino = fs.create("/f").unwrap();
    let ppb = fs.sb.ptrs_per_block() as u64;
    let max = 12 + ppb + ppb * ppb;
    assert!(fs.map_block(ino, max - 1).is_ok());
    assert_eq!(fs.map_block(ino, max), Err(FsError::FileTooLarge));
}

#[test]
fn chunk_add_seals_segments_when_full() {
    let mut fs = fresh();
    let seg_blocks = fs.sb.seg_blocks as usize;
    let bs = fs.block_size();
    let start_seg = fs.pos.seg;
    let mut ctx = FlushCtx::default();
    // Write two segments' worth of payload through the chunk machinery.
    let data = vec![0u8; bs];
    for bno in 0..(2 * seg_blocks) as u32 {
        fs.chunk_add(
            &mut ctx,
            crate::layout::summary::BlockKind::Data { ino: Ino(2), bno },
            1,
            &data,
            bs as u64,
        )
        .unwrap();
    }
    fs.emit_chunk(&mut ctx).unwrap();
    assert_ne!(fs.pos.seg, start_seg, "segment must have sealed");
    assert!(fs.stats().segments_sealed >= 1);
    assert_eq!(fs.usage.state(start_seg), SegState::Dirty);
    // Sequence numbers advance per segment incarnation.
    assert!(fs.pos.seq > 1);
}

#[test]
fn emit_chunk_with_empty_builder_is_a_noop() {
    let mut fs = fresh();
    let writes_before = fs.dev.stats().writes;
    let pos_before = fs.pos;
    let mut ctx = FlushCtx::default();
    fs.emit_chunk(&mut ctx).unwrap();
    assert_eq!(fs.dev.stats().writes, writes_before);
    assert_eq!(fs.pos, pos_before);
}

#[test]
fn a_chunk_with_nowhere_to_link_is_refused_before_it_is_written() {
    let mut fs = fresh();
    for s in 0..fs.sb.nsegments {
        if fs.usage.state(SegNo(s)) == SegState::Clean {
            fs.usage.set_state(SegNo(s), SegState::Dirty);
        }
    }
    let writes_before = fs.dev.stats().writes;
    let pos_before = fs.pos;
    // Fill the rest of the active segment: that chunk must link.
    let remaining = (fs.sb.seg_blocks - fs.pos.offset) as usize;
    let (_, capacity) = crate::log::plan_chunk(remaining, fs.block_size()).unwrap();
    let mut ctx = FlushCtx::default();
    let data = vec![0u8; fs.block_size()];
    for bno in 0..capacity as u32 {
        let kind = crate::layout::summary::BlockKind::Data { ino: Ino(2), bno };
        fs.chunk_add(&mut ctx, kind, 1, &data, 0).unwrap();
    }
    assert_eq!(fs.emit_chunk(&mut ctx), Err(FsError::NoSpace));
    assert_eq!(fs.dev.stats().writes, writes_before, "refused unwritten");
    assert_eq!(fs.pos, pos_before);
    assert!(fs.is_read_only(), "its addresses must never be committed");
}

#[test]
fn check_space_reserves_segments() {
    let fs = fresh();
    let capacity = fs.sb.log_capacity_bytes();
    // Tiny requests fit.
    fs.check_space(1024).unwrap();
    // A request larger than the budget is refused up front.
    assert_eq!(fs.check_space(capacity), Err(FsError::NoSpace));
}

/// Benchmark finding 4 (`NoSpace` at 78 % of `hotcold_churn`'s 64 MB
/// spindle under a 0.88 cap) is this arithmetic, not a leak: live bytes
/// stop at the capped log capacity less the reserve plus one segment.
#[test]
fn check_space_ceiling_is_the_capped_log_less_reserve_plus_one_segment() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(131_072), Arc::clone(&clock));
    let cfg = LfsConfig::paper().with_cache_bytes(2 * 1024 * 1024);
    let fs = Lfs::format(disk, cfg, clock).unwrap();
    assert_eq!(fs.sb.log_capacity_bytes(), 66_060_288, "63 × 1 MB");
    assert_eq!(fs.reserve_segments, 4);
    let ceiling = (66_060_288f64 * 0.88) as u64 - 5 * (1 << 20);
    assert_eq!(ceiling, 52_890_173, "78.8 % of 64 MiB");
    let headroom = ceiling - fs.usage.total_live_bytes();
    fs.check_space(headroom).unwrap();
    assert_eq!(fs.check_space(headroom + 1), Err(FsError::NoSpace));
}

#[test]
fn filling_the_disk_returns_nospace_and_recovers_after_delete() {
    let clock = Clock::new();
    // 2 MB disk: small enough to fill quickly.
    let disk = SimDisk::new(DiskGeometry::tiny_test(4096), Arc::clone(&clock));
    let mut fs = Lfs::format(disk, LfsConfig::small_test(), clock).unwrap();
    let blob = vec![7u8; 64 * 1024];
    let mut created = Vec::new();
    let mut hit_nospace = false;
    for i in 0..64 {
        match fs.write_file(&format!("/b{i}"), &blob) {
            Ok(_) => created.push(i),
            Err(FsError::NoSpace) => {
                hit_nospace = true;
                break;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(hit_nospace, "a 2 MB disk must fill up");
    assert!(created.len() >= 10, "a fair amount must fit first");
    // The failed write may leave a partial file; the FS stays consistent.
    assert!(fs.fsck().unwrap().is_clean());

    // Deleting makes room again (after cleaning).
    for &i in created.iter().take(created.len() / 2) {
        fs.unlink(&format!("/b{i}")).unwrap();
    }
    fs.sync().unwrap();
    fs.clean_until(usize::MAX).unwrap();
    fs.write_file("/after", &blob).unwrap();
    assert_eq!(fs.read_file("/after").unwrap(), blob);
    assert!(fs.fsck().unwrap().is_clean());
}

#[test]
fn destroy_file_returns_every_byte_to_the_usage_table() {
    let mut fs = fresh();
    fs.sync().unwrap();
    let live_before = fs.usage.total_live_bytes();
    // A file big enough to need indirect blocks.
    let ino = fs.write_file("/big", &vec![1u8; 40 * 512]).unwrap();
    fs.sync().unwrap();
    assert!(fs.usage.total_live_bytes() > live_before);
    fs.unlink("/big").unwrap();
    fs.sync().unwrap();
    // All of the file's bytes are dead again. Only the root directory's
    // rewritten blocks and inode remain live (same totals as before,
    // modulo the root dir having grown and shrunk back).
    assert_eq!(fs.usage.total_live_bytes(), live_before);
    let _ = ino;
}

#[test]
fn reserve_scales_with_cache_and_is_bounded() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(65_536), Arc::clone(&clock));
    let mut cfg = LfsConfig::small_test();
    cfg.cache_bytes = 512 * 1024; // 32 segments of cache.
    let fs = Lfs::format(disk, cfg, clock).unwrap();
    // Reserve covers the cache but is capped at a quarter of the disk.
    assert!(fs.reserve_segments >= 2);
    assert!(fs.reserve_segments <= fs.sb.nsegments as usize / 4);
}

#[test]
fn cached_meta_blocks_are_purged_on_segment_reuse() {
    let mut fs = fresh();
    // Plant a fake cached inode block in the segment the log will open
    // next, then force a seal into it; the stale entry must be purged.
    let next = fs.usage.next_clean(SegNo(1)).unwrap();
    let addr = fs.sb.seg_block(next, 3);
    fs.cache.insert_clean(
        mem_mgr::BlockKey::meta(NS_INODE_BLOCKS, addr.0 as u64),
        vec![0xEE; fs.block_size()].into_boxed_slice(),
    );
    fs.seal_segment(next);
    assert_eq!(fs.pos.seg, next);
    assert!(
        !fs.cache
            .contains(mem_mgr::BlockKey::meta(NS_INODE_BLOCKS, addr.0 as u64)),
        "stale metadata cache entry survived segment reuse"
    );
}

#[test]
fn inode_table_bound_drops_exactly_the_lowest_clean_inodes() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(32_768), Arc::clone(&clock));
    let cfg = LfsConfig {
        max_inodes: 2048,
        ..LfsConfig::small_test()
    };
    let mut fs = Lfs::format(disk, cfg, clock).unwrap();
    let cap = fs.cache.capacity_blocks().max(1024);
    let inos: Vec<Ino> = (0..cap + 150)
        .map(|i| fs.create(&format!("/f{i}")).unwrap())
        .collect();
    fs.sync().unwrap();

    // Load every inode the bound dropped on the way back in (nothing
    // bounds the table until the next operation ends), then dirty a
    // scattering of them, thickest among the low numbers the bound
    // would otherwise take first.
    for &ino in &inos {
        fs.ensure_inode(ino).unwrap();
    }
    for (i, &ino) in inos.iter().enumerate() {
        if i % 3 == 0 && i < 300 || i % 50 == 7 {
            fs.with_inode_mut(ino, |inode| inode.mtime_ns += 1).unwrap();
        }
    }
    let before: Vec<(Ino, bool)> = fs.inodes.iter().map(|(&ino, c)| (ino, c.dirty)).collect();
    assert!(before.len() > cap + 100);

    // The definition the ordered walk replaces: collect every clean
    // inode, sort, cut to the excess.
    let mut victims: Vec<Ino> = before
        .iter()
        .filter(|(_, dirty)| !dirty)
        .map(|&(ino, _)| ino)
        .collect();
    victims.sort();
    victims.truncate(before.len() - cap);
    assert_eq!(victims.len(), before.len() - cap);

    fs.maybe_writeback().unwrap();

    let after: Vec<(Ino, bool)> = fs.inodes.iter().map(|(&ino, c)| (ino, c.dirty)).collect();
    let expected: Vec<(Ino, bool)> = before
        .iter()
        .copied()
        .filter(|(ino, _)| !victims.contains(ino))
        .collect();
    // Exactly the victims went: every dirty inode is still there and
    // still dirty (so no flush ran underneath the test either).
    assert_eq!(after, expected);
    assert_eq!(after.len(), cap);
}
