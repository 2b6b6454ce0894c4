//! Roll-forward crash recovery (§4.4.1).
//!
//! Plain checkpoint recovery loses everything written after the last
//! checkpoint. The paper's completed design — "Using information in the
//! segment summary blocks, LFS can 'roll forward' from the last
//! checkpoint, updating metadata structures such as the inode map" — is
//! implemented here:
//!
//! 1. Starting at the checkpointed log position, walk the chunk chain:
//!    within a segment [`ChunkCursor`] validates chunks by `(seq,
//!    partial)` continuity and the self-address stamped in the
//!    (CRC-covered) header — so a displaced byte-exact copy of a valid
//!    chunk can never be applied — and this module adds a CRC over their
//!    payload (torn writes stop the walk); across segments, the successor
//!    is the segment whose first chunk carries the next sequence number at
//!    the right address.
//! 2. Re-apply metadata: inode blocks found in the tail update the inode
//!    map (data blocks need no action — the inodes written in the same
//!    flush point at them); newer inode-map blocks are reloaded wholesale.
//!    The first change to an inode's map entry *touches* the inode: its
//!    checkpoint-time footprint leaves the usage table, and its link
//!    count and directory entries are kept.
//! 3. Repair only what the tail touched: each touched inode's recovered
//!    footprint enters the usage table, and the touched directories are
//!    reconciled by their entry diff (the original design defers deletes
//!    to a directory operation log) — dangling entries are dropped,
//!    orphaned inodes freed, link counts corrected. What could not be
//!    read at its first touch keeps its old footprint: the table is only
//!    a hint, and `fsck`'s full recount reports the difference. The entry
//!    diff then has a hole, so that mount counts the whole namespace.
//! 4. Set segment states from the repaired table and checkpoint, so
//!    recovery is idempotent and the log sequence jumps past any stale
//!    tail.
//!
//! # Reading the tail
//!
//! The walk reads the tail through the log reader (`log_reader.rs`),
//! chunk by chunk: each chunk's header block, the rest of its summary
//! span, then its payload, and past the chain's last chunk only the
//! summary that ends it. It never reads a whole segment. A ring of up
//! to [`recovery_fanout`] readers runs ahead of the walk: the walk's own
//! segment and the clean segments the writer would have linked to next,
//! in the usage table as the checkpoint mount rebuilt it. On a striped
//! volume consecutive segments sit on different spindles, so the ring
//! keeps one read in flight per spindle through the device's async read
//! facade. The merge stays serial: chunks are validated and applied in
//! log order (within a segment by `(seq, partial)` continuity, across
//! segments by the `next_seg` link and the successor's sequence number),
//! so the recovered inode map, directory tree, and usage array are
//! bit-identical for every fan-out. A wrong prediction costs reads,
//! never state. A failed read surfaces only where the walk runs into
//! it: in a chunk whose summary validated, or in a summary whose header
//! is unreadable or claims to be the chain's next chunk. Damage past the
//! log's end, and in segments read ahead but off the chain, is never
//! surfaced. At fan-out 1 the ring is the walk's reader alone, its reads
//! waited on: that is the sequential scan.
//!
//! [`ChunkCursor`]: crate::layout::summary::ChunkCursor
//! [`recovery_fanout`]: crate::LfsConfig::recovery_fanout

use std::collections::{BTreeMap, HashSet};

use mem_mgr::{BlockKey, Owner};
use sim_disk::BlockDevice;
use vfs::namespace::{self, Before, Finding, NodeStore};
use vfs::{blockmap, FileKind, FsError, FsResult, Ino};

use crate::checkpoint::CpCause;
use crate::fs::{Lfs, NS_INODE_BLOCKS};
use crate::layout::imap_block::ImapEntry;
use crate::layout::inode::inode_block;
use crate::layout::summary::{self, BlockKind, ChunkSummary};
use crate::layout::usage_block::SegState;
use crate::log::LogPosition;
use crate::log_reader::{LogReader, ReaderRing};
use crate::types::{BlockAddr, SegNo, INODE_SIZE};

/// What a ring reader is labelled with in device traces.
const LABEL: &str = "rollforward-read";

/// Steps `ring` until the walk's reader has a chunk ready (`true`) or
/// its chain has ended (`false`). A failed read surfaces unless it lies
/// past the chain's end.
fn next_chunk<D: BlockDevice>(ring: &mut ReaderRing, fs: &mut Lfs<D>) -> FsResult<bool> {
    loop {
        let head = ring.head();
        if !head.ready.is_empty() || head.end.is_some() {
            return Ok(!head.ready.is_empty());
        }
        let past_end = head.failed_past_end();
        match head.failure.take() {
            Some((.., err)) if !past_end => return Err(err.into()),
            Some(_) => {}
            None => ring.step(fs),
        }
    }
}

/// Fills `ring` behind its last reader with the segments the writer
/// would have linked to next: repeated [`UsageTable::next_clean`] over
/// the table the checkpoint mount rebuilt, which is how `emit_chunk`
/// picks a successor (between checkpoints a segment turns clean only
/// when a checkpoint commits). The head's chain carries `seq`, so the
/// k-th reader behind it expects `seq + k`.
///
/// [`UsageTable::next_clean`]: crate::usage::UsageTable::next_clean
fn predict<D: BlockDevice>(ring: &mut ReaderRing, fs: &Lfs<D>, seq: u64) {
    while ring.has_room() {
        let last = ring.readers.back().expect("a ring with a reader").seg;
        let next = fs.usage.next_clean(SegNo((last.0 + 1) % fs.sb.nsegments));
        let Some(seg) = next.filter(|&n| ring.readers.iter().all(|r| r.seg != n)) else {
            break;
        };
        let seq = seq + ring.readers.len() as u64;
        let from = LogPosition { seg, offset: 0, partial: 0, seq };
        ring.readers.push_back(LogReader::new(fs, seg, Some(from), LABEL));
    }
}

/// The inodes the tail touched, each with what it was at the checkpoint:
/// `None` where that could not be read, so its checkpoint-time footprint
/// stays in the usage table (a stale hint, §4.4).
type Touched = BTreeMap<Ino, Option<Before>>;

/// Runs roll-forward recovery on a freshly checkpoint-mounted file system.
pub(crate) fn roll_forward<D: BlockDevice>(fs: &mut Lfs<D>) -> FsResult<()> {
    let start = fs.now();
    let fanout = sim_disk::effective_fanout(fs.cfg.recovery_fanout, &fs.dev);
    let mut pos = fs.pos;
    let mut ring = ReaderRing::new(fanout);
    ring.readers.push_back(LogReader::new(fs, pos.seg, Some(pos), LABEL));
    predict(&mut ring, fs, pos.seq);
    let mut applied = 0u64;
    let mut inodes = 0u64;
    let mut unused = 0u64;
    let mut touched = Touched::new();
    // Segments touched by the recovered tail (must not be reused before
    // the post-recovery checkpoint).
    let mut tail_segments: Vec<SegNo> = Vec::new();
    // Spindles that served the segments the walk entered, when reads
    // could overlap (the non-vacuity signal for the equivalence tests).
    let mut partitions = HashSet::new();

    // Every position the walk starts from has room for a chunk: the
    // checkpointed one (mount checked it) and each segment start.
    'segments: loop {
        if fanout > 1 {
            let sector = fs.sector_of(fs.sb.seg_block(pos.seg, pos.offset));
            partitions.insert(fs.dev.spindle_of(sector));
        }
        let base = fs.sb.seg_block(pos.seg, 0);

        // Apply each chunk in log order. A sealing chunk's `next_seg`
        // link tells us where the log continues (§4.3.1's linked list of
        // segments), so recovery only reads the tail.
        let mut next_seg = SegNo::NIL;
        while next_chunk(&mut ring, fs)? {
            let head = ring.head();
            let chunk = head.ready.front().expect("a ready chunk");
            let payload = head.blocks(chunk.payload_start, chunk.summary.entries.len());
            if summary::data_checksum(payload) != chunk.summary.data_crc {
                // Torn write: the log ends here.
                break 'segments;
            }
            let payload_start = chunk.payload_start as u32;
            inodes += apply_chunk(fs, &chunk.summary, base, payload_start, payload, &mut touched)?;
            if tail_segments.last() != Some(&pos.seg) {
                tail_segments.push(pos.seg);
            }
            // A tail segment is as old as its last chunk.
            fs.usage.add_live(pos.seg, 0, chunk.summary.timestamp_ns);
            pos.offset = payload_start + chunk.summary.entries.len() as u32;
            pos.partial = chunk.summary.partial.wrapping_add(1);
            applied += 1;
            next_seg = chunk.summary.next_seg;
            head.ready.pop_front();
        }

        // Follow the chain link into the successor's reader: the one
        // behind the head when the prediction held, else a fresh one.
        // The walk enters the successor only if its first chunk carries
        // the next sequence number at the segment's first block. A crash
        // between a seal and the first write to the linked segment
        // leaves a link the log never followed, and damage there past
        // the header must not fail the mount.
        if next_seg.is_some() && next_seg.0 < fs.sb.nsegments && next_seg != pos.seg {
            let seq = pos.seq + 1;
            let next = LogPosition { seg: next_seg, offset: 0, partial: 0, seq };
            if ring.readers.get(1).map(|r| r.seg) != Some(next_seg) {
                unused += ring.drop_readers(fs, 1..);
                ring.readers.push_back(LogReader::new(fs, next_seg, Some(next), LABEL));
            }
            ring.drop_readers(fs, ..1);
            predict(&mut ring, fs, seq);
            if next_chunk(&mut ring, fs)? {
                pos = next;
                continue;
            }
        }
        break;
    }
    unused += ring.drop_readers(fs, 1..);
    ring.drop_readers(fs, ..);
    let read_bytes = ring.read_bytes();

    fs.obs.recovery_partitions.add(partitions.len() as u64);
    if fanout > 1 {
        fs.obs.recovery_parallel_reads.add(ring.overlapped);
    }

    // The registry is fresh at mount, so the counters start at zero and
    // `add` records exactly this recovery's work.
    fs.obs.rollforward_chunks.add(applied);
    fs.obs.rollforward_inodes.add(inodes);
    let walked = fs.now();
    let ((mut dirs, mut findings), mut repaired) = ((0, 0), walked);
    if applied > 0 {
        (dirs, findings) = repair(fs, fanout, &touched, &tail_segments)?;
        repaired = fs.now();

        // The recovered tail consumed log space; resume on a fresh
        // segment. The sequence number jumps by `nsegments + 1`: between
        // any two checkpoints at most `nsegments` segment-opens can occur
        // (cleaned segments stay CleanPending until the next checkpoint),
        // so this is guaranteed to exceed every chunk any abandoned crash
        // timeline could have written — no whole-disk scan needed to
        // ensure uniqueness.
        let after = SegNo((pos.seg.0 + 1) % fs.sb.nsegments);
        let next = fs.usage.next_clean(after).ok_or(FsError::NoSpace)?;
        fs.usage.set_state(next, SegState::Active);
        fs.pos = LogPosition {
            seg: next,
            offset: 0,
            partial: 0,
            seq: pos.seq + fs.sb.nsegments as u64 + 1,
        };
        // Make the recovered state durable and the recovery idempotent.
        fs.checkpoint_as(CpCause::Mount)?;
    }
    let stale: Vec<String> =
        (touched.iter()).filter(|(_, b)| b.is_none()).map(|(ino, _)| ino.0.to_string()).collect();
    fs.obs.registry.event(
        fs.now(),
        "recovery",
        format!(
            "chunks={applied} inodes={inodes} touched={} dirs={dirs} \
             findings={findings} stale=[{}] ahead_unused={unused} read_bytes={read_bytes} \
             walk_ns={} repair_ns={} checkpoint_ns={}",
            touched.len(),
            stale.join(","),
            walked - start,
            repaired - walked,
            fs.now() - repaired
        ),
    );
    Ok(())
}

/// Applies one recovered chunk's metadata effects, touching every inode
/// whose inode-map entry changes first. Returns the inodes it recovered.
fn apply_chunk<D: BlockDevice>(
    fs: &mut Lfs<D>,
    chunk: &ChunkSummary,
    seg_base: BlockAddr,
    payload_start: u32,
    payload: &[u8],
    touched: &mut Touched,
) -> FsResult<u64> {
    let bs = fs.block_size();
    let mut recovered = 0;
    for (i, entry) in chunk.entries.iter().enumerate() {
        let addr = BlockAddr(seg_base.0 + payload_start + i as u32);
        let data = &payload[i * bs..(i + 1) * bs];
        // The replayed tail's per-block checksums become the expected
        // values for future reads of these blocks.
        fs.record_block_crc(addr, entry.crc);
        match entry.kind {
            BlockKind::InodeBlock => {
                for (slot, inode) in inode_block::unpack_all(data)? {
                    touch(fs, inode.ino, touched)?;
                    let old_atime = fs.imap.get(inode.ino).map(|e| e.atime_ns).unwrap_or(0);
                    fs.imap.restore_entry(
                        inode.ino,
                        ImapEntry {
                            addr,
                            slot: slot as u16,
                            allocated: true,
                            version: inode.version,
                            atime_ns: old_atime,
                        },
                    )?;
                    recovered += 1;
                }
                // Keep the replayed inode block readable without disk,
                // as the flush that wrote it did.
                let key = BlockKey::meta(NS_INODE_BLOCKS, addr.0 as u64);
                fs.cache.insert_clean(key, data.into());
            }
            BlockKind::ImapBlock { index } => {
                // A newer copy of part of the inode map itself.
                for ino in fs.imap.changed_by(index as usize, data)? {
                    touch(fs, ino, touched)?;
                }
                fs.imap.load_block(index as usize, addr, data)?;
            }
            // Data and indirect blocks are reached through the inodes
            // recovered above; usage follows the touched inodes.
            BlockKind::Data { .. }
            | BlockKind::IndSingle { .. }
            | BlockKind::IndDoubleTop { .. }
            | BlockKind::IndDoubleChild { .. }
            | BlockKind::UsageBlock { .. } => {}
        }
    }
    Ok(recovered)
}

/// The tail's first change to `ino`'s inode-map entry, about to be made:
/// retires the inode's checkpoint-time footprint, keeps its link count
/// and entries, and forgets the cached inode and blocks the change makes
/// stale.
fn touch<D: BlockDevice>(fs: &mut Lfs<D>, ino: Ino, touched: &mut Touched) -> FsResult<()> {
    if touched.contains_key(&ino) {
        return Ok(());
    }
    let entry = fs.imap.get(ino)?;
    let before = if entry.allocated && entry.addr.is_some() {
        checkpointed(fs, ino, entry.addr).ok()
    } else {
        Some(Before::default())
    };
    fs.inodes.remove(ino);
    fs.cache.remove_owner(Owner::File(ino));
    touched.insert(ino, before);
    Ok(())
}

/// Reads `ino` as the checkpoint left it, its inode in the block at
/// `home`, and retires its footprint: the inode's slot and every block
/// it references. Retires nothing if any of that cannot be read.
fn checkpointed<D: BlockDevice>(fs: &mut Lfs<D>, ino: Ino, home: BlockAddr) -> FsResult<Before> {
    let node = fs.node(ino)?;
    let mut blocks = Vec::new();
    blockmap::visit_file_blocks(fs, ino, 0, |_, _, addr| blocks.push(BlockAddr(addr)))?;
    let entries = match node.kind {
        FileKind::Directory => namespace::dir_entries(fs, ino)?,
        FileKind::Regular => Vec::new(),
    };
    fs.retire(home, INODE_SIZE as u64);
    for addr in blocks {
        fs.retire(addr, fs.block_size() as u64);
    }
    Ok(Before { nlink: node.nlink, entries })
}

/// Brings the checkpoint-time usage table and namespace up to the
/// recovered inode map, reading only what the tail touched. Returns how
/// many touched directories there are and how many findings it repaired.
fn repair<D: BlockDevice>(
    fs: &mut Lfs<D>,
    fanout: usize,
    touched: &Touched,
    tail_segments: &[SegNo],
) -> FsResult<(usize, usize)> {
    // Front-load the misses of the serial passes below so they overlap
    // across spindles instead of stalling one block at a time.
    let inos: Vec<Ino> = touched.keys().copied().collect();
    fs.gather_metadata(fanout, &inos);

    // Usage: each touched inode's recovered footprint, in place of the
    // checkpoint-time one its first touch retired. A segment keeps its age.
    let credit = |fs: &mut Lfs<D>, addr: BlockAddr, bytes: u64| {
        if let Some((seg, _)) = fs.sb.seg_of(addr) {
            let at = fs.usage.get(seg).last_write_ns;
            fs.usage.add_live(seg, bytes, at);
        }
    };
    let bs = fs.block_size() as u64;
    let mut dirs = 0;
    for &ino in &inos {
        let entry = fs.imap.get(ino)?;
        if entry.allocated && entry.addr.is_some() {
            dirs += usize::from(fs.node(ino)?.kind == FileKind::Directory);
            credit(fs, entry.addr, INODE_SIZE as u64);
            blockmap::visit_file_blocks(fs, ino, 0, |fs, _, addr| credit(fs, BlockAddr(addr), bs))?;
        }
    }

    // The namespace: the touched directories' entry diff. The original
    // design defers deletes to a directory operation log; this finds an
    // unlink whose directory update reached the log while the inode map
    // did not, because only a touched directory's old entries name it.
    // Where a touched inode's checkpoint-time state could not be read,
    // the diff has a hole: the whole tree is counted instead, as `fsck`
    // counts it.
    let is_allocated = |fs: &Lfs<D>, ino| fs.imap.is_allocated(ino);
    let known: Option<namespace::Changed> = (touched.iter())
        .map(|(&ino, before)| Some((ino, before.clone()?)))
        .collect();
    let census = match known {
        Some(changed) => namespace::census_changed(fs, is_allocated, &changed)?,
        None => {
            let drops =
                |f: &Finding| matches!(f, Finding::Dangling { .. } | Finding::KindMismatch { .. });
            let allocated: Vec<Ino> = fs.imap.allocated_inos().collect();
            let read_dir = namespace::dir_entries;
            namespace::check(fs, allocated, is_allocated, read_dir, drops, |_, _, _| Ok(()))?
        }
    };
    let findings = census.findings.len();
    census.repair(fs, |_, _| Ok(()))?;

    // Segment states from the corrected counts. Segments holding the
    // current inode-map or usage-table blocks (which count no live
    // bytes) or the recovered tail must not be overwritten before the
    // checkpoint that follows commits.
    for i in 0..fs.sb.nsegments {
        let seg = SegNo(i);
        let live = fs.usage.get(seg).live_bytes > 0;
        fs.usage.set_state(seg, if live { SegState::Dirty } else { SegState::Clean });
    }
    let metadata = fs.imap.block_addrs().iter().chain(fs.usage.block_addrs());
    let held: Vec<SegNo> = metadata
        .filter_map(|&addr| fs.sb.seg_of(addr).map(|(seg, _)| seg))
        .chain(tail_segments.iter().copied())
        .collect();
    for seg in held {
        if fs.usage.state(seg) == SegState::Clean {
            fs.usage.set_state(seg, SegState::Dirty);
        }
    }
    Ok((dirs, findings))
}
