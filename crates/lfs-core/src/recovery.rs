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
//! 3. Fix up directory structure: the original design defers deletes to a
//!    directory operation log; we instead reconcile by walking the
//!    directory tree — dangling entries are dropped, orphaned inodes are
//!    freed, and link counts are corrected.
//! 4. Recompute the segment usage table exactly (the paper notes it is
//!    only a hint, so any cheap reconstruction is acceptable).
//! 5. Checkpoint, so recovery is idempotent and the log sequence jumps
//!    past any stale tail.
//!
//! # Parallel recovery
//!
//! With [`recovery_fanout`] above 1 the scan is partitioned by spindle:
//! a gather phase reads every segment's first block (the summary-block
//! sweep) and then the full image of every *candidate* tail segment —
//! one whose first chunk is pinned to its own address and carries a
//! sequence number the checkpointed position could reach — through the
//! device's asynchronous read facade, so the per-spindle queues overlap
//! in virtual time. A serial merge then walks exactly the sequential
//! chain over the prefetched images: chunks are validated and applied
//! in log order (within a segment by `(seq, partial)` continuity,
//! across segments by the `next_seg` link and the successor's sequence
//! number), so the recovered inode map, directory tree, and usage
//! array are bit-identical to the sequential scan's. Read errors
//! captured by the gather phase are surfaced only when the merge
//! actually walks into the failed segment — segments off the chain can
//! rot freely, exactly as under the sequential scan, which never reads
//! them.
//!
//! [`recovery_fanout`]: crate::LfsConfig::recovery_fanout

use std::collections::{HashMap, HashSet};

use sim_disk::{read_batch, BlockDevice, DiskResult};
use vfs::namespace::{self, Finding};
use vfs::{blockmap, FsError, FsResult, Ino};

use crate::fs::Lfs;
use crate::layout::imap_block::ImapEntry;
use crate::layout::inode::inode_block;
use crate::layout::summary::{self, BlockKind, ChunkCursor, ChunkSummary};
use crate::layout::usage_block::SegState;
use crate::log::LogPosition;
use crate::types::{BlockAddr, SegNo, INODE_SIZE};

/// The gather phase's haul: per-segment first-block headers from the
/// sweep and full tail images of the candidate segments. Errors are
/// held, not raised — the merge surfaces one only when it walks into
/// the segment that failed, which is the only time the sequential scan
/// would have issued the read at all.
///
/// The sequential scan (fan-out 1) is the *empty* prefetch: nothing was
/// gathered, so every image and header the merge asks for is read
/// synchronously at the moment it is needed.
#[derive(Default)]
struct TailPrefetch {
    headers: HashMap<SegNo, DiskResult<Vec<u8>>>,
    images: HashMap<SegNo, DiskResult<Vec<u8>>>,
    /// Async reads issued by the gather (for `recovery.parallel_reads`).
    overlapped: u64,
    /// Spindles that served prefetched segments the merge actually
    /// consumed (the non-vacuity signal for the equivalence tests).
    partitions: HashSet<usize>,
}

impl TailPrefetch {
    /// Blocks `[offset, seg_blocks)` of `seg` in one sequential
    /// transfer (for the checkpointed segment this skips everything the
    /// checkpoint already covers): the gathered image when there is
    /// one, the synchronous read otherwise.
    fn image<D: BlockDevice>(&mut self, fs: &mut Lfs<D>, seg: SegNo, offset: u32) -> FsResult<Vec<u8>> {
        let sector = fs.sector_of(fs.sb.seg_block(seg, offset));
        match self.images.remove(&seg) {
            Some(res) => {
                self.partitions.insert(fs.dev.spindle_of(sector));
                Ok(res?)
            }
            None => {
                let seg_blocks = fs.superblock().seg_blocks as usize;
                let mut image = vec![0u8; (seg_blocks - offset as usize) * fs.block_size()];
                fs.dev.annotate("rollforward-read");
                fs.dev.read(sector, &mut image)?;
                Ok(image)
            }
        }
    }

    /// The first block of `seg`, as read by the sweep.
    fn header<D: BlockDevice>(&mut self, fs: &mut Lfs<D>, seg: SegNo) -> FsResult<Vec<u8>> {
        match self.headers.remove(&seg) {
            Some(res) => Ok(res?),
            None => Ok(fs.read_block_raw(fs.sb.seg_block(seg, 0))?),
        }
    }
}

/// Fans the tail scan out across spindles: sweeps every segment's
/// summary block, then prefetches the full image of each candidate
/// tail segment, both through [`read_batch`] with at most `window`
/// requests in flight.
fn prefetch_tail<D: BlockDevice>(fs: &mut Lfs<D>, window: usize) -> TailPrefetch {
    if window <= 1 {
        return TailPrefetch::default();
    }
    let bs = fs.block_size();
    let seg_blocks = fs.superblock().seg_blocks as usize;
    let nsegments = fs.sb.nsegments;
    let cp = fs.pos;

    // Phase 1: the summary-block sweep. One block per segment, claimed
    // in segment order; under segment round-robin the requests land on
    // the spindles round-robin, so a window of one-per-spindle keeps
    // every arm busy.
    let head_reqs: Vec<(u64, usize)> = (0..nsegments)
        .map(|s| (fs.sector_of(fs.sb.seg_block(SegNo(s), 0)), bs))
        .collect();
    let (head_results, sweep_overlapped) =
        read_batch(&mut fs.dev, "recovery-sweep", window, &head_reqs);
    let mut headers: HashMap<SegNo, DiskResult<Vec<u8>>> = HashMap::new();
    for (s, res) in head_results.into_iter().enumerate() {
        headers.insert(SegNo(s as u32), res);
    }

    // Phase 2: full tails of the candidates. A candidate's first chunk
    // is pinned to its own address with `partial == 0` and a sequence
    // number in `(cp.seq, cp.seq + nsegments]` — the only numbers a
    // chain hop from the checkpoint can ever require, since the chain
    // visits each segment at most once (a segment's first chunk has one
    // fixed sequence number, and hops strictly increase it). The
    // checkpointed segment's own unconsumed tail joins the batch.
    let mut tail_reqs: Vec<(SegNo, u32)> = vec![(cp.seg, cp.offset)];
    for s in 0..nsegments {
        let seg = SegNo(s);
        if seg == cp.seg {
            continue;
        }
        let Some(Ok(header)) = headers.get(&seg) else {
            continue;
        };
        let Ok(head) = ChunkSummary::decode_header_prefix(header) else {
            continue;
        };
        let first = fs.sb.seg_block(seg, 0);
        if head.addr == first
            && head.partial == 0
            && head.seq > cp.seq
            && head.seq <= cp.seq + nsegments as u64
        {
            tail_reqs.push((seg, 0));
        }
    }
    let reqs: Vec<(u64, usize)> = tail_reqs
        .iter()
        .map(|&(seg, offset)| {
            (
                fs.sector_of(fs.sb.seg_block(seg, offset)),
                (seg_blocks - offset as usize) * bs,
            )
        })
        .collect();
    let (tail_results, tail_overlapped) =
        read_batch(&mut fs.dev, "rollforward-read", window, &reqs);
    let mut images: HashMap<SegNo, DiskResult<Vec<u8>>> = HashMap::new();
    for ((seg, _), res) in tail_reqs.into_iter().zip(tail_results) {
        images.insert(seg, res);
    }

    TailPrefetch {
        headers,
        images,
        overlapped: sweep_overlapped + tail_overlapped,
        partitions: HashSet::new(),
    }
}

/// Runs roll-forward recovery on a freshly checkpoint-mounted file system.
pub(crate) fn roll_forward<D: BlockDevice>(fs: &mut Lfs<D>) -> FsResult<()> {
    let bs = fs.block_size();
    let seg_blocks = fs.superblock().seg_blocks as usize;
    let fanout = sim_disk::effective_fanout(fs.cfg.recovery_fanout, &fs.dev);
    let mut prefetch = prefetch_tail(fs, fanout);
    let mut pos = fs.pos;
    let mut applied = 0u64;
    let mut recovered_inodes = 0u64;
    // Segments touched by the recovered tail (must not be reused before
    // the post-recovery checkpoint).
    let mut tail_segments: Vec<SegNo> = Vec::new();

    // Every position the walk starts from has room for a chunk: the
    // checkpointed one (mount checked it) and each segment start.
    'segments: loop {
        let image_base = pos.offset as usize;
        let base = fs.sb.seg_block(pos.seg, 0);
        let image = prefetch.image(fs, pos.seg, pos.offset)?;

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
            apply_chunk(fs, &chunk, base, payload_start, payload, &mut recovered_inodes)?;
            if tail_segments.last() != Some(&pos.seg) {
                tail_segments.push(pos.seg);
            }
            pos.offset = payload_start + chunk.entries.len() as u32;
            pos.partial = chunk.partial.wrapping_add(1);
            applied += 1;
            next_seg = chunk.next_seg;
        }

        // Follow the chain link. A valid successor's first chunk must
        // carry the next sequence number.
        if next_seg.is_some() && next_seg.0 < fs.sb.nsegments && next_seg != pos.seg {
            let first = fs.sb.seg_block(next_seg, 0);
            let header = prefetch.header(fs, next_seg)?;
            if let Ok(head) = ChunkSummary::decode_header_prefix(&header) {
                if head.addr == first && head.seq == pos.seq + 1 && head.partial == 0 {
                    pos = LogPosition {
                        seg: next_seg,
                        offset: 0,
                        partial: 0,
                        seq: pos.seq + 1,
                    };
                    continue;
                }
            }
        }
        break;
    }

    fs.obs.recovery_partitions.add(prefetch.partitions.len() as u64);
    fs.obs.recovery_parallel_reads.add(prefetch.overlapped);

    // The registry is fresh at mount, so the counters start at zero and
    // `add` records exactly this recovery's work.
    fs.obs.rollforward_chunks.add(applied);
    fs.obs.rollforward_inodes.add(recovered_inodes);
    fs.obs.registry.event(
        fs.now(),
        "recovery",
        format!("chunks={applied} inodes={recovered_inodes}"),
    );
    if applied == 0 {
        // Nothing past the checkpoint: resume exactly where it left off.
        return Ok(());
    }

    // Discard volatile state built up during the scan.
    fs.inodes.clear();
    fs.cache.drop_clean();

    // Front-load the metadata misses of the serial repair passes below
    // (directory reconciliation, usage recount) so they overlap across
    // spindles instead of stalling one block at a time.
    fs.gather_metadata(fanout);

    // The recovered tail consumed log space; resume on a fresh segment.
    // The sequence number jumps by `nsegments + 1`: between any two
    // checkpoints at most `nsegments` segment-opens can occur (cleaned
    // segments stay CleanPending until the next checkpoint), so this is
    // guaranteed to exceed every chunk any abandoned crash timeline could
    // have written — no whole-disk scan needed to ensure uniqueness.
    fs.usage.set_state(pos.seg, SegState::Dirty);
    fix_directories(fs)?;
    recompute_usage(fs, None)?;
    // Keep the recovered tail's segments marked dirty even if the
    // recount found no surviving live bytes — their chunks must not be
    // overwritten before the checkpoint below commits.
    for seg in tail_segments {
        if fs.usage.state(seg) == SegState::Clean {
            fs.usage.set_state(seg, SegState::Dirty);
        }
    }
    let next = fs
        .usage
        .next_clean(SegNo((pos.seg.0 + 1) % fs.sb.nsegments))
        .ok_or(FsError::NoSpace)?;
    fs.usage.set_state(next, SegState::Active);
    fs.pos = LogPosition {
        seg: next,
        offset: 0,
        partial: 0,
        seq: pos.seq + fs.sb.nsegments as u64 + 1,
    };

    // Make the recovered state durable and the recovery idempotent.
    fs.checkpoint()?;
    Ok(())
}

/// Applies one recovered chunk's metadata effects.
fn apply_chunk<D: BlockDevice>(
    fs: &mut Lfs<D>,
    chunk: &ChunkSummary,
    seg_base: BlockAddr,
    payload_start: u32,
    payload: &[u8],
    recovered_inodes: &mut u64,
) -> FsResult<()> {
    let bs = fs.block_size();
    for (i, entry) in chunk.entries.iter().enumerate() {
        let addr = BlockAddr(seg_base.0 + payload_start + i as u32);
        let data = &payload[i * bs..(i + 1) * bs];
        // The replayed tail's per-block checksums become the expected
        // values for future reads of these blocks.
        fs.record_block_crc(addr, entry.crc);
        match entry.kind {
            BlockKind::InodeBlock => {
                for (slot, inode) in inode_block::unpack_all(data)? {
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
                    *recovered_inodes += 1;
                }
            }
            BlockKind::ImapBlock { index } => {
                // A newer copy of part of the inode map itself.
                fs.imap.load_block(index as usize, addr, data)?;
            }
            // Data and indirect blocks are reached through the inodes
            // recovered above; usage blocks are recomputed from scratch.
            BlockKind::Data { .. }
            | BlockKind::IndSingle { .. }
            | BlockKind::IndDoubleTop { .. }
            | BlockKind::IndDoubleChild { .. }
            | BlockKind::UsageBlock { .. } => {}
        }
    }
    Ok(())
}

/// Reconciles the directory tree with the recovered inode map: removes
/// dangling entries (and entries whose inode is of the other kind),
/// frees orphans — allocated but unreachable, e.g. an unlink whose
/// directory update reached the log while the imap did not — and fixes
/// link counts.
pub(crate) fn fix_directories<D: BlockDevice>(fs: &mut Lfs<D>) -> FsResult<()> {
    let mut census = namespace::census(
        fs,
        |fs, ino| fs.imap.is_allocated(ino),
        namespace::dir_entries,
        |finding| {
            matches!(
                finding,
                Finding::Dangling { .. } | Finding::KindMismatch { .. }
            )
        },
    )?;
    let allocated: Vec<Ino> = fs.imap.allocated_inos().collect();
    for ino in allocated {
        census.audit(fs, ino);
    }
    census.repair(fs, |_, _| Ok(()))
}

/// Recomputes the usage table exactly from the recovered metadata.
///
/// `active_override` forces a specific segment to be marked active; by
/// default the current log position's segment is.
pub(crate) fn recompute_usage<D: BlockDevice>(
    fs: &mut Lfs<D>,
    active_override: Option<SegNo>,
) -> FsResult<()> {
    let bs = fs.block_size() as u64;
    let mut live = vec![0u64; fs.sb.nsegments as usize];
    let mut add = |fs: &mut Lfs<D>, addr: BlockAddr, bytes: u64| {
        if let Some((seg, _)) = fs.sb.seg_of(addr) {
            live[seg.0 as usize] += bytes;
        }
    };

    let allocated: Vec<Ino> = fs.imap.allocated_inos().collect();
    for ino in allocated {
        let entry = fs.imap.get(ino)?;
        add(fs, entry.addr, INODE_SIZE as u64);
        blockmap::visit_file_blocks(fs, ino, 0, |fs, _, addr| add(fs, BlockAddr(addr), bs))?;
    }
    // Inode-map and usage-table blocks are deliberately not counted;
    // see the flush's phase 4/5.

    let active = active_override.unwrap_or(fs.pos.seg);
    let now = fs.now();
    for (i, &bytes) in live.iter().enumerate() {
        let seg = SegNo(i as u32);
        fs.usage.set_live(seg, bytes, now);
        if seg == active {
            fs.usage.set_state(seg, SegState::Active);
        } else if bytes > 0 {
            fs.usage.set_state(seg, SegState::Dirty);
        } else {
            fs.usage.set_state(seg, SegState::Clean);
        }
    }
    // Segments holding the current inode-map or usage-table blocks must
    // stay unwritable even though metadata carries no live-byte weight.
    let mut metadata_addrs: Vec<BlockAddr> = Vec::new();
    for index in 0..fs.imap.nblocks() {
        metadata_addrs.push(fs.imap.block_addr(index));
    }
    for index in 0..fs.usage.nblocks() {
        metadata_addrs.push(fs.usage.block_addr(index));
    }
    for addr in metadata_addrs {
        if let Some((seg, _)) = fs.sb.seg_of(addr) {
            if fs.usage.state(seg) == SegState::Clean {
                fs.usage.set_state(seg, SegState::Dirty);
            }
        }
    }
    Ok(())
}
