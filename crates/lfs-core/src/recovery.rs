//! Roll-forward crash recovery (§4.4.1).
//!
//! Plain checkpoint recovery loses everything written after the last
//! checkpoint. The paper's completed design — "Using information in the
//! segment summary blocks, LFS can 'roll forward' from the last
//! checkpoint, updating metadata structures such as the inode map" — is
//! implemented here:
//!
//! 1. Starting at the checkpointed log position, walk the chunk chain:
//!    within a segment [`ChunkCursor`] validates chunks by `(seq, partial)`
//!    continuity and the self-address stamped in the (CRC-covered) header —
//!    so a displaced byte-exact copy of a valid chunk can never be applied —
//!    and this module adds a CRC over their payload (torn writes stop the
//!    walk); across segments, the successor is the segment whose first
//!    chunk carries the next sequence number at the right address.
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
//! The walk reads only the chain it can predict. When it reaches a
//! segment whose image is not in hand, one batch reads that segment
//! together with up to [`recovery_fanout`] − 1 predicted successors:
//! the clean segments the writer would have linked to next, in the
//! usage table as the checkpoint mount rebuilt it. On a striped volume
//! consecutive segments sit on different spindles, so the batch keeps
//! one read in flight per spindle through the device's asynchronous
//! read facade. The merge stays serial: chunks are validated and
//! applied in log order (within a segment by `(seq, partial)`
//! continuity, across segments by the `next_seg` link and the
//! successor's sequence number, read from the successor's own image),
//! so the recovered inode map, directory tree, and usage array are
//! bit-identical for every fan-out. A wrong prediction costs reads,
//! never state. A read error is surfaced only when the walk follows a
//! valid link into the failed segment; segments read ahead but off the
//! chain can rot freely. At fan-out 1 nothing is read ahead: that is
//! the sequential scan.
//!
//! [`recovery_fanout`]: crate::LfsConfig::recovery_fanout

use std::collections::{BTreeMap, HashMap, HashSet};

use mem_mgr::{BlockKey, Owner};
use sim_disk::{read_batch, BlockDevice, DiskResult};
use vfs::namespace::{self, Before, Finding, NodeStore};
use vfs::{blockmap, FileKind, FsError, FsResult, Ino};

use crate::checkpoint::CpCause;
use crate::fs::{Lfs, NS_INODE_BLOCKS};
use crate::layout::imap_block::ImapEntry;
use crate::layout::inode::inode_block;
use crate::layout::summary::{self, BlockKind, ChunkCursor, ChunkSummary};
use crate::layout::usage_block::SegState;
use crate::log::LogPosition;
use crate::types::{BlockAddr, SegNo, INODE_SIZE};

/// The tail walk's one read path. When the chain reaches a segment
/// whose image is not in hand, one [`read_batch`] of at most `window`
/// reads fetches it together with the segments the writer would have
/// linked to next: repeated [`UsageTable::next_clean`] over the table
/// the checkpoint mount rebuilt, which is how `emit_chunk` picks a
/// successor, and between checkpoints a segment turns clean only when a
/// checkpoint commits. Read errors are held: one surfaces only when the
/// walk follows a valid link into that segment.
///
/// At `window = 1` nothing is read ahead: this is the sequential scan.
///
/// [`UsageTable::next_clean`]: crate::usage::UsageTable::next_clean
#[derive(Default)]
struct TailReader {
    window: usize,
    /// The images in hand, at most `window` of them.
    images: HashMap<SegNo, DiskResult<Vec<u8>>>,
    /// Segments read ahead and not yet entered.
    ahead: HashSet<SegNo>,
    /// Read-ahead segments dropped before the walk entered them.
    unused: u64,
    /// Async reads issued by fanned-out batches (for
    /// `recovery.parallel_reads`).
    overlapped: u64,
    /// Spindles that served the segments the walk entered, when reads
    /// could overlap (the non-vacuity signal for the equivalence tests).
    partitions: HashSet<usize>,
}

impl TailReader {
    /// Blocks `[offset, seg_blocks)` of `seg` (for the checkpointed
    /// segment this skips everything the checkpoint already covers),
    /// taken out of hand, or read with its predicted successors.
    fn image<D: BlockDevice>(&mut self, fs: &mut Lfs<D>, seg: SegNo, offset: u32) -> FsResult<Vec<u8>> {
        if let Some(res) = self.images.remove(&seg) {
            return Ok(res?);
        }
        // Not in hand: whatever is still read ahead was a wrong guess.
        self.unused += self.ahead.len() as u64;
        self.ahead.clear();
        self.images.clear();
        let mut segs = vec![seg];
        while segs.len() < self.window {
            let last = segs[segs.len() - 1];
            match fs.usage.next_clean(SegNo((last.0 + 1) % fs.sb.nsegments)) {
                Some(next) if !segs.contains(&next) => segs.push(next),
                _ => break,
            }
        }
        let bs = fs.block_size();
        let seg_blocks = fs.superblock().seg_blocks as usize;
        let reqs: Vec<(u64, usize)> = (segs.iter().enumerate())
            .map(|(i, &s)| {
                let from = if i == 0 { offset } else { 0 };
                (fs.sector_of(fs.sb.seg_block(s, from)), (seg_blocks - from as usize) * bs)
            })
            .collect();
        fs.dev.set_maintenance(true);
        let (results, overlapped) = read_batch(&mut fs.dev, "rollforward-read", self.window, &reqs);
        fs.dev.set_maintenance(false);
        if self.window > 1 {
            self.overlapped += overlapped;
        }
        let mut results = results.into_iter();
        let first = results.next().expect("a batch answers every request");
        self.ahead.extend(&segs[1..]);
        self.images.extend(segs[1..].iter().copied().zip(results));
        Ok(first?)
    }

    /// The walk enters the segment at `pos`, whose image it took.
    fn enter<D: BlockDevice>(&mut self, fs: &Lfs<D>, pos: LogPosition) {
        self.ahead.remove(&pos.seg);
        if self.window > 1 {
            let sector = fs.sector_of(fs.sb.seg_block(pos.seg, pos.offset));
            self.partitions.insert(fs.dev.spindle_of(sector));
        }
    }
}

/// The inodes the tail touched, each with what it was at the checkpoint:
/// `None` where that could not be read, so its checkpoint-time footprint
/// stays in the usage table (a stale hint, §4.4).
type Touched = BTreeMap<Ino, Option<Before>>;

/// Runs roll-forward recovery on a freshly checkpoint-mounted file system.
pub(crate) fn roll_forward<D: BlockDevice>(fs: &mut Lfs<D>) -> FsResult<()> {
    let start = fs.now();
    let bs = fs.block_size();
    let seg_blocks = fs.superblock().seg_blocks as usize;
    let fanout = sim_disk::effective_fanout(fs.cfg.recovery_fanout, &fs.dev);
    let mut reader = TailReader {
        window: fanout,
        ..TailReader::default()
    };
    let mut pos = fs.pos;
    let mut image = reader.image(fs, pos.seg, pos.offset)?;
    let mut applied = 0u64;
    let mut inodes = 0u64;
    let mut touched = Touched::new();
    // Segments touched by the recovered tail (must not be reused before
    // the post-recovery checkpoint).
    let mut tail_segments: Vec<SegNo> = Vec::new();

    // Every position the walk starts from has room for a chunk: the
    // checkpointed one (mount checked it) and each segment start.
    'segments: loop {
        reader.enter(fs, pos);
        let image_base = pos.offset as usize;
        let base = fs.sb.seg_block(pos.seg, 0);

        // Walk chunks from the current offset, applying each in log
        // order. A sealing chunk's `next_seg` link tells us where the
        // log continues (§4.3.1's linked list of segments), so recovery
        // only reads the tail.
        let mut cursor =
            ChunkCursor::resume_at(base, seg_blocks, bs, image_base, pos.seq, pos.partial);
        let mut next_seg = SegNo::NIL;
        while let Ok((chunk, payload_start)) =
            cursor.next_chunk(&image[(cursor.offset() - image_base) * bs..])
        {
            let off = (payload_start - image_base) * bs;
            let payload = &image[off..off + chunk.entries.len() * bs];
            if summary::data_checksum(payload) != chunk.data_crc {
                // Torn write: the log ends here.
                break 'segments;
            }
            let payload_start = payload_start as u32;
            inodes += apply_chunk(fs, &chunk, base, payload_start, payload, &mut touched)?;
            if tail_segments.last() != Some(&pos.seg) {
                tail_segments.push(pos.seg);
            }
            // A tail segment is as old as its last chunk.
            fs.usage.add_live(pos.seg, 0, chunk.timestamp_ns);
            pos.offset = payload_start + chunk.entries.len() as u32;
            pos.partial = chunk.partial.wrapping_add(1);
            applied += 1;
            next_seg = chunk.next_seg;
        }

        // Follow the chain link. A valid successor's first chunk must
        // carry the next sequence number. A successor that cannot be
        // read whole is judged by its first block alone: a crash between
        // a seal and the first write to the linked segment leaves a link
        // the log never followed, and damage there must not fail the
        // mount.
        if next_seg.is_some() && next_seg.0 < fs.sb.nsegments && next_seg != pos.seg {
            let first = fs.sb.seg_block(next_seg, 0);
            let next = reader.image(fs, next_seg, 0);
            let head = match &next {
                Ok(image) => ChunkSummary::decode_header_prefix(&image[..bs]),
                Err(_) => ChunkSummary::decode_header_prefix(&fs.read_block_raw(first)?),
            };
            if let Ok(head) = head {
                if head.addr == first && head.seq == pos.seq + 1 && head.partial == 0 {
                    pos = LogPosition {
                        seg: next_seg,
                        offset: 0,
                        partial: 0,
                        seq: pos.seq + 1,
                    };
                    image = next?;
                    continue;
                }
            }
        }
        break;
    }

    fs.obs.recovery_partitions.add(reader.partitions.len() as u64);
    fs.obs.recovery_parallel_reads.add(reader.overlapped);
    let ahead_unused = reader.unused + reader.ahead.len() as u64;

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
             findings={findings} stale=[{}] ahead_unused={ahead_unused} walk_ns={} \
             repair_ns={} checkpoint_ns={}",
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
