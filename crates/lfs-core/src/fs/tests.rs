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
    let mut fs = fresh();
    let capacity = fs.sb.log_capacity_bytes();
    // Tiny requests fit.
    fs.check_space(1024).unwrap();
    // A request larger than the budget is refused up front.
    assert_eq!(fs.check_space(capacity), Err(FsError::NoSpace));
}

/// The space rule at `hotcold_churn`'s geometry (63 × 1 MB segments, a
/// 2 MB cache): the headroom numbers the benchmark has always run with,
/// and an admission limit no lower than the old 0.88 cap's 52,890,173 B.
#[test]
fn space_rule_at_the_benchmark_geometry() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(131_072), Arc::clone(&clock));
    let cfg = LfsConfig::paper().with_cache_bytes(2 * 1024 * 1024);
    let mut fs = Lfs::format(disk, cfg, clock).unwrap();
    assert_eq!(fs.sb.nsegments, 63);
    let rule = *fs.space_rule();
    // 512 cache blocks + 16 inode blocks + 386 inode-map blocks + 1
    // usage block over 254 payload blocks a segment.
    assert_eq!(rule.reserve(), 4);
    assert_eq!(rule.floor(), 6);
    assert_eq!(rule.target(), 8);
    assert_eq!(rule.relocation_margin(), 2);
    assert_eq!(rule.run_floor(), 8);
    // 54 segments of 254 payload blocks, a block and its inode per block.
    assert_eq!(rule.admit_bytes(), 54 * 254 * 4096 * 4096 / (4096 + 128));
    assert!(rule.admit_bytes() >= 52_890_173);
    let headroom = rule.admit_bytes() - fs.usage.total_live_bytes();
    fs.check_space(headroom - 4096).unwrap();
    assert_eq!(fs.check_space(headroom + 1), Err(FsError::NoSpace));
}

/// No quarter-of-the-log clamp: a volume whose log cannot hold the
/// rule's target is refused at format, and one just large enough admits
/// what the rule leaves.
#[test]
fn a_volume_too_small_for_the_rule_is_refused_at_format() {
    let mut cfg = LfsConfig::small_test();
    cfg.cache_bytes = 512 * 1024;
    // 1,024 cache + 256 inode blocks, and 25 inode-map + 64 usage blocks
    // on the larger volume, over 30 payload blocks a segment: a reserve
    // of 46, a target of 50. The smaller volume has 39 segments.
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(1280), Arc::clone(&clock));
    assert_eq!(
        Lfs::format(disk, cfg.clone(), clock).err(),
        Some(FsError::NoSpace)
    );
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(65_536), Arc::clone(&clock));
    let fs = Lfs::format(disk, cfg, clock).unwrap();
    assert_eq!(fs.space_rule().reserve(), 46);
    assert_eq!(fs.space_rule().target(), 50);
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
fn inode_table_stays_within_its_allowance_and_drops_the_least_recent_clean_inodes() {
    // The 64 KB cache leaves the table 32 blocks of 512 B: 128 inodes.
    let mut fs = fresh();
    let allowance = fs.inodes.allowance(&fs.cache);
    assert_eq!(allowance, 128);
    let mut inos = Vec::new();
    for i in 0..300 {
        fs.write_file(&format!("/f{i:03}"), b"x").unwrap();
        inos.push(fs.lookup(&format!("/f{i:03}")).unwrap());
        assert!(fs.inodes.len() <= allowance, "table at {} after op {i}", fs.inodes.len());
    }
    fs.sync().unwrap();
    assert!(fs.inodes.len() <= allowance);

    // Use every inode in a scrambled order (a miss also fills its block's
    // neighbours, but each is used afterwards), then dirty a few of the
    // least recently used: dirty entries never go.
    fs.inodes.drop_clean();
    let order: Vec<Ino> = std::iter::once(Ino::ROOT)
        .chain((0..inos.len()).map(|i| inos[i * 7 % inos.len()]))
        .collect();
    for &ino in &order {
        fs.ensure_inode(ino).unwrap();
    }
    let dirtied: Vec<Ino> = order.iter().copied().step_by(9).take(10).collect();
    for &ino in &dirtied {
        fs.with_inode_mut(ino, |inode| inode.mtime_ns += 1).unwrap();
    }
    let before = fs.inodes.len();
    assert_eq!(before, order.len());
    let excess = before - (allowance - allowance / 8);
    let victims: Vec<Ino> = (order.iter().copied())
        .filter(|ino| !dirtied.contains(ino))
        .take(excess)
        .collect();

    fs.maybe_writeback().unwrap();

    assert_eq!(fs.inodes.len(), before - excess);
    assert!(fs.inodes.len() <= allowance);
    for &ino in &order {
        assert_eq!(fs.inodes.contains(ino), !victims.contains(&ino), "{ino}");
    }
    // No flush ran underneath: the dirtied inodes are still dirty.
    assert!(dirtied.iter().all(|&ino| fs.inodes.is_dirty(ino)));
    let snap = fs.obs().snapshot();
    assert_eq!(snap.gauge("inodes.entries"), fs.inodes.len() as u64);
    assert_eq!(
        snap.gauge("cache.reserved_blocks"),
        (fs.inodes.len() * INODE_SIZE).div_ceil(fs.block_size()) as u64
    );
    let detail = format!(
        "allowance={allowance} entries={} evicted={excess}",
        fs.inodes.len()
    );
    assert!(snap
        .events
        .iter()
        .any(|e| e.kind == "inode_evict" && e.detail == detail));
}

#[test]
fn a_miss_fills_only_the_live_neighbours_of_its_block() {
    let mut fs = fresh();
    for i in 0..12 {
        fs.write_file(&format!("/f{i:02}"), b"x").unwrap();
    }
    fs.sync().unwrap();
    // An inode block holding four files (512 B blocks hold four inodes).
    let home = |fs: &Lfs<SimDisk>, ino: Ino| fs.imap.get(ino).unwrap().addr;
    let files: Vec<Ino> = (0..12).map(|i| fs.lookup(&format!("/f{i:02}")).unwrap()).collect();
    let addr = home(&fs, files[5]);
    let group: Vec<Ino> = files.iter().copied().filter(|&ino| home(&fs, ino) == addr).collect();
    let [first, moved, bumped, dirty] = group[..] else {
        panic!("expected four files in one inode block, got {group:?}");
    };

    // `moved` is rewritten elsewhere; `bumped`'s version moves on (as a
    // truncation to zero would); `dirty` has an unwritten change.
    fs.with_inode_mut(moved, |inode| inode.mtime_ns += 1).unwrap();
    fs.write_back().unwrap();
    assert_ne!(home(&fs, moved), addr);
    fs.imap.bump_version(bumped).unwrap();
    fs.with_inode_mut(dirty, |inode| inode.mtime_ns = 4242).unwrap();
    fs.drop_caches().unwrap();
    assert_eq!(fs.inodes.len(), 1);

    let reads = fs.obs().snapshot().counter("inodes.block_reads");
    fs.ensure_inode(first).unwrap();
    assert_eq!(fs.obs().snapshot().counter("inodes.block_reads"), reads + 1);
    assert!(fs.inodes.contains(first));
    assert!(!fs.inodes.contains(moved), "stale slot installed");
    assert!(!fs.inodes.contains(bumped), "old version installed");
    assert!(fs.inodes.is_dirty(dirty));
    assert_eq!(fs.inodes.get(dirty).unwrap().mtime_ns, 4242);

    // A rotten inode block still fails the miss with the same typed
    // error, counted once, and installs nothing.
    fs.drop_caches().unwrap();
    let sector = fs.sector_of(addr);
    fs.device_mut()
        .inject_media_faults(sim_disk::MediaFaultPlan::new(3).rot(sector));
    let detected = fs.stats().corruptions_detected;
    assert_eq!(
        fs.ensure_inode(first),
        Err(FsError::Corruption {
            what: "metadata block",
            addr: addr.0 as u64
        })
    );
    assert_eq!(fs.stats().corruptions_detected, detected + 1);
    assert_eq!(fs.inodes.len(), 1);
}
