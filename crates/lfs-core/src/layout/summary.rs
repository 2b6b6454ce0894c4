//! Segment summary blocks (§4.3.1).
//!
//! Each segment write deposits a *chunk*: one or more summary blocks
//! followed by the blocks they describe. "For each block in the segment,
//! the summary block indicates the file number of the block's file and the
//! position of the block within the file." The summary also carries the
//! sequencing and checksums that roll-forward recovery (§4.4.1) needs to
//! walk the log past the last checkpoint.

use vfs::{FsError, FsResult, Ino};

use crate::types::{BlockAddr, SegNo, SUMMARY_ENTRY_SIZE};
use crate::util::{crc32, ByteReader, ByteWriter};

/// Magic number identifying a chunk header ("SEGS").
pub const SUMMARY_MAGIC: u32 = 0x5345_4753;

/// Serialised size of a chunk header, in bytes.
pub const HEADER_SIZE: usize = 48;

/// What a logged block contains, as recorded in its summary entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Data block `bno` of file `ino`.
    Data {
        /// Owning file.
        ino: Ino,
        /// Block index within the file.
        bno: u32,
    },
    /// The single-indirect pointer block of file `ino`.
    IndSingle {
        /// Owning file.
        ino: Ino,
    },
    /// The double-indirect (top-level) pointer block of file `ino`.
    IndDoubleTop {
        /// Owning file.
        ino: Ino,
    },
    /// Second-level indirect block `outer` under file `ino`'s double
    /// indirect pointer.
    IndDoubleChild {
        /// Owning file.
        ino: Ino,
        /// Slot in the double-indirect top block.
        outer: u32,
    },
    /// A block of packed inodes.
    InodeBlock,
    /// Inode-map block `index`.
    ImapBlock {
        /// Index within the inode map.
        index: u32,
    },
    /// Segment-usage-table block `index`.
    UsageBlock {
        /// Index within the usage table.
        index: u32,
    },
}

/// One summary entry: the identity of one logged block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryEntry {
    /// What the block contains.
    pub kind: BlockKind,
    /// The owning file's version number at write time (zero for
    /// metadata blocks). §4.3.3 step 1 uses this for fast liveness checks.
    pub version: u32,
    /// CRC-32C over the described block's full content, computed at log
    /// write time. End-to-end integrity: a reader recomputes this over
    /// the bytes the device returned and any mismatch means the device
    /// silently corrupted the block (bit-rot), independent of the
    /// whole-payload `data_crc` used for torn-write detection.
    pub crc: u32,
}

impl SummaryEntry {
    fn encode(&self, w: &mut ByteWriter) {
        let (tag, ino, param) = match self.kind {
            BlockKind::Data { ino, bno } => (1u8, ino.0, bno),
            BlockKind::IndSingle { ino } => (2, ino.0, 0),
            BlockKind::IndDoubleTop { ino } => (3, ino.0, 0),
            BlockKind::IndDoubleChild { ino, outer } => (4, ino.0, outer),
            BlockKind::InodeBlock => (5, 0, 0),
            BlockKind::ImapBlock { index } => (6, 0, index),
            BlockKind::UsageBlock { index } => (7, 0, index),
        };
        w.u8(tag);
        w.pad(3);
        w.u32(ino);
        w.u32(param);
        w.u32(self.version);
        w.u32(self.crc);
    }

    fn decode(r: &mut ByteReader<'_>) -> FsResult<Self> {
        let tag = r.u8().ok_or(FsError::Corrupt("summary entry truncated"))?;
        r.skip(3)
            .ok_or(FsError::Corrupt("summary entry truncated"))?;
        let ino = Ino(r.u32().ok_or(FsError::Corrupt("summary entry truncated"))?);
        let param = r.u32().ok_or(FsError::Corrupt("summary entry truncated"))?;
        let version = r.u32().ok_or(FsError::Corrupt("summary entry truncated"))?;
        let crc = r.u32().ok_or(FsError::Corrupt("summary entry truncated"))?;
        let kind = match tag {
            1 => BlockKind::Data { ino, bno: param },
            2 => BlockKind::IndSingle { ino },
            3 => BlockKind::IndDoubleTop { ino },
            4 => BlockKind::IndDoubleChild { ino, outer: param },
            5 => BlockKind::InodeBlock,
            6 => BlockKind::ImapBlock { index: param },
            7 => BlockKind::UsageBlock { index: param },
            _ => return Err(FsError::Corrupt("bad summary entry tag")),
        };
        Ok(Self { kind, version, crc })
    }
}

/// The unvalidated leading fields of a chunk header (successor scans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeaderPrefix {
    /// Disk address the header claims to live at.
    pub addr: BlockAddr,
    /// Sequence number claimed by the header.
    pub seq: u64,
    /// Partial-chunk index claimed by the header.
    pub partial: u32,
    /// Entry count claimed by the header.
    pub nentries: u32,
}

/// A decoded chunk summary: header fields plus per-block entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSummary {
    /// Disk address of this chunk's first summary block — the chunk's
    /// *self-identity*, covered by the header CRC. Readers must compare
    /// it against the address they actually read from and reject any
    /// mismatch: a byte-exact copy of a valid chunk sitting at the
    /// wrong place (e.g. forged by XOR-reconstructing a parity row that
    /// a crash left torn) carries valid checksums, and only the
    /// recorded address betrays it.
    pub addr: BlockAddr,
    /// Global sequence number of the segment incarnation this chunk
    /// belongs to (every time a segment is opened for writing it takes the
    /// next value).
    pub seq: u64,
    /// Index of this chunk within its segment (0 for the first write).
    pub partial: u32,
    /// Virtual time of the write.
    pub timestamp_ns: u64,
    /// If this chunk seals its segment, the segment the log continues in.
    pub next_seg: SegNo,
    /// CRC-32 over the described data blocks, for torn-write detection.
    pub data_crc: u32,
    /// Number of summary blocks reserved ahead of the payload. The writer
    /// sizes the summary area for the worst case before knowing the final
    /// entry count, so readers must use this recorded value (not a
    /// recomputation from `entries.len()`) to locate the payload.
    pub reserved_blocks: u32,
    /// The entries, one per described block, in log order.
    pub entries: Vec<SummaryEntry>,
}

impl ChunkSummary {
    /// Number of summary blocks this chunk occupies for `block_size`.
    pub fn summary_blocks(nentries: usize, block_size: usize) -> usize {
        (HEADER_SIZE + nentries * SUMMARY_ENTRY_SIZE).div_ceil(block_size)
    }

    /// Largest entry count whose summary fits in `max_blocks` summary
    /// blocks of `block_size`.
    pub fn max_entries(max_blocks: usize, block_size: usize) -> usize {
        (max_blocks * block_size).saturating_sub(HEADER_SIZE) / SUMMARY_ENTRY_SIZE
    }

    /// Serialises the summary into whole blocks of `block_size`.
    pub fn encode(&self, block_size: usize) -> Vec<u8> {
        let mut body = ByteWriter::new();
        for entry in &self.entries {
            entry.encode(&mut body);
        }
        let body = body.into_vec();

        let mut w = ByteWriter::new();
        w.u32(SUMMARY_MAGIC);
        w.u32(self.addr.0);
        w.u64(self.seq);
        w.u32(self.partial);
        w.u32(self.entries.len() as u32);
        w.u64(self.timestamp_ns);
        w.u32(self.next_seg.0);
        w.u32(self.data_crc);
        w.u32(self.reserved_blocks);
        // Header CRC covers the fields above plus the entry bytes.
        let mut crc = 0xFFFF_FFFFu32;
        crc = crate::util::crc32_update(crc, w.as_slice());
        crc = crate::util::crc32_update(crc, &body);
        w.u32(crc ^ 0xFFFF_FFFF);
        debug_assert_eq!(w.len(), HEADER_SIZE);
        w.bytes(&body);

        let total = (self.reserved_blocks as usize)
            .max(Self::summary_blocks(self.entries.len(), block_size))
            * block_size;
        w.pad_to(total);
        w.into_vec()
    }

    /// Decodes only the header fields from the first summary block,
    /// without requiring (or checksumming) the entry list.
    ///
    /// Used by recovery's successor scan, which reads just one block per
    /// segment. Callers must treat the result as a hint and re-validate
    /// with [`ChunkSummary::decode`] before applying anything.
    pub fn decode_header_prefix(bytes: &[u8]) -> FsResult<ChunkHeaderPrefix> {
        let mut r = ByteReader::new(bytes);
        let magic = r.u32().ok_or(FsError::Corrupt("summary truncated"))?;
        if magic != SUMMARY_MAGIC {
            return Err(FsError::Corrupt("bad summary magic"));
        }
        let addr = BlockAddr(r.u32().ok_or(FsError::Corrupt("summary truncated"))?);
        let seq = r.u64().ok_or(FsError::Corrupt("summary truncated"))?;
        let partial = r.u32().ok_or(FsError::Corrupt("summary truncated"))?;
        let nentries = r.u32().ok_or(FsError::Corrupt("summary truncated"))?;
        Ok(ChunkHeaderPrefix {
            addr,
            seq,
            partial,
            nentries,
        })
    }

    /// Parses a chunk summary that was read from disk address `expect`,
    /// rejecting a header whose recorded self-address disagrees — the
    /// signature of a displaced byte-exact copy, which every other
    /// checksum in the chunk would happily accept.
    fn decode_at(bytes: &[u8], expect: BlockAddr) -> FsResult<Self> {
        let chunk = Self::decode(bytes)?;
        if chunk.addr != expect {
            return Err(FsError::Corrupt("chunk summary at wrong address"));
        }
        Ok(chunk)
    }

    /// Parses a chunk summary starting at `bytes` (which must span at
    /// least the full summary; extra trailing bytes are ignored).
    pub fn decode(bytes: &[u8]) -> FsResult<Self> {
        let mut r = ByteReader::new(bytes);
        let magic = r.u32().ok_or(FsError::Corrupt("summary truncated"))?;
        if magic != SUMMARY_MAGIC {
            return Err(FsError::Corrupt("bad summary magic"));
        }
        let addr = BlockAddr(r.u32().ok_or(FsError::Corrupt("summary truncated"))?);
        let seq = r.u64().ok_or(FsError::Corrupt("summary truncated"))?;
        let partial = r.u32().ok_or(FsError::Corrupt("summary truncated"))?;
        let nentries = r.u32().ok_or(FsError::Corrupt("summary truncated"))? as usize;
        let timestamp_ns = r.u64().ok_or(FsError::Corrupt("summary truncated"))?;
        let next_seg = SegNo(r.u32().ok_or(FsError::Corrupt("summary truncated"))?);
        let data_crc = r.u32().ok_or(FsError::Corrupt("summary truncated"))?;
        let reserved_blocks = r.u32().ok_or(FsError::Corrupt("summary truncated"))?;
        let stored_crc = r.u32().ok_or(FsError::Corrupt("summary truncated"))?;

        let body_len = nentries
            .checked_mul(SUMMARY_ENTRY_SIZE)
            .ok_or(FsError::Corrupt("summary entry count overflow"))?;
        if r.remaining() < body_len {
            return Err(FsError::Corrupt("summary truncated"));
        }
        let mut crc = 0xFFFF_FFFFu32;
        crc = crate::util::crc32_update(crc, &bytes[..HEADER_SIZE - 4]);
        crc = crate::util::crc32_update(crc, &bytes[HEADER_SIZE..HEADER_SIZE + body_len]);
        if crc ^ 0xFFFF_FFFF != stored_crc {
            return Err(FsError::Corrupt("summary checksum mismatch"));
        }

        let mut entries = Vec::with_capacity(nentries);
        for _ in 0..nentries {
            entries.push(SummaryEntry::decode(&mut r)?);
        }
        Ok(Self {
            addr,
            seq,
            partial,
            timestamp_ns,
            next_seg,
            data_crc,
            reserved_blocks,
            entries,
        })
    }
}

/// Why a [`ChunkCursor`] stopped yielding chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainEnd {
    /// The bytes at the cursor are not a chunk summary written at this
    /// address: no magic, a failed checksum, too few bytes, or a
    /// displaced copy of a chunk that belongs elsewhere.
    Undecodable,
    /// The segment is used up, or the chunk found here is not the next
    /// link of this chain (another incarnation's `(seq, partial)`, or a
    /// payload that would overrun the segment).
    Ended,
}

/// The one reader of a segment's chunk chain.
///
/// A segment holds the chunks of one incarnation back to back: the
/// first at block 0 with `partial == 0`, each next one directly after
/// its predecessor's payload with the same `seq` and the next
/// `partial`. The cursor owns that rule — the self-address pin, the
/// `max(reserved_blocks, summary_blocks)` hop from summary to payload,
/// the payload-inside-the-segment bound and `(seq, partial)`
/// continuity — so the cleaner, roll-forward, the scrubber and `dumpfs`
/// cannot disagree about where a chain ends. It does no I/O and never
/// looks at payload bytes: the caller hands it the bytes starting at
/// block [`offset`](Self::offset) of the segment (as many as it has;
/// too few read as [`ChainEnd::Undecodable`]) and checks payload
/// checksums itself.
#[derive(Debug, Clone)]
pub struct ChunkCursor {
    base: BlockAddr,
    seg_blocks: usize,
    block_size: usize,
    offset: usize,
    /// The `(seq, partial)` the next chunk must carry. `None` before
    /// the first chunk of a walk from block 0, which must have
    /// `partial == 0` and fixes the chain's `seq`.
    expect: Option<(u64, u32)>,
}

impl ChunkCursor {
    /// A walk from block 0 of the segment whose first block is `base`.
    pub fn new(base: BlockAddr, seg_blocks: usize, block_size: usize) -> Self {
        Self {
            base,
            seg_blocks,
            block_size,
            offset: 0,
            expect: None,
        }
    }

    /// A walk resuming mid-segment at a checkpointed log position: the
    /// next chunk is expected at block `offset` carrying exactly
    /// `(seq, partial)`.
    pub fn resume_at(
        base: BlockAddr,
        seg_blocks: usize,
        block_size: usize,
        offset: usize,
        seq: u64,
        partial: u32,
    ) -> Self {
        Self {
            offset,
            expect: Some((seq, partial)),
            ..Self::new(base, seg_blocks, block_size)
        }
    }

    /// In-segment block offset where the next chunk's summary is
    /// expected — after the walk ends, the first block past the chain.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Validates the chunk whose summary starts at `bytes` (the segment
    /// contents from block [`offset`](Self::offset) on) and steps past
    /// it. Yields the summary and the in-segment block offset of its
    /// first payload block; the payload's `entries.len()` blocks are
    /// guaranteed to lie inside the segment.
    pub fn next_chunk(&mut self, bytes: &[u8]) -> Result<(ChunkSummary, usize), ChainEnd> {
        // A chunk needs a summary block and room to describe something.
        if self.offset + 1 >= self.seg_blocks {
            return Err(ChainEnd::Ended);
        }
        let here = u32::try_from(self.offset)
            .ok()
            .and_then(|off| self.base.0.checked_add(off))
            .ok_or(ChainEnd::Ended)?;
        let chunk =
            ChunkSummary::decode_at(bytes, BlockAddr(here)).map_err(|_| ChainEnd::Undecodable)?;
        let linked = match self.expect {
            None => chunk.partial == 0,
            Some(expect) => (chunk.seq, chunk.partial) == expect,
        };
        if !linked {
            return Err(ChainEnd::Ended);
        }
        let summary_blocks = (chunk.reserved_blocks as usize)
            .max(ChunkSummary::summary_blocks(chunk.entries.len(), self.block_size));
        let payload_start = self.offset.saturating_add(summary_blocks);
        let payload_end = payload_start.saturating_add(chunk.entries.len());
        if payload_end > self.seg_blocks {
            return Err(ChainEnd::Ended);
        }
        self.offset = payload_end;
        // A segment cannot hold 2^32 chunks, so the wrap is never a
        // real successor; it only keeps a forged `partial` from
        // overflowing.
        self.expect = Some((chunk.seq, chunk.partial.wrapping_add(1)));
        Ok((chunk, payload_start))
    }
}

/// Computes the data CRC over the payload blocks of a chunk.
pub fn data_checksum(payload: &[u8]) -> u32 {
    crc32(payload)
}

/// Computes the per-block end-to-end checksum recorded in
/// [`SummaryEntry::crc`] (CRC-32C over the block's full content).
pub fn block_checksum(block: &[u8]) -> u32 {
    crate::util::crc32c(block)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChunkSummary {
        ChunkSummary {
            addr: BlockAddr(320),
            seq: 42,
            partial: 3,
            timestamp_ns: 1_234_567,
            next_seg: SegNo(7),
            data_crc: 0xABCD_EF01,
            reserved_blocks: 1,
            entries: vec![
                SummaryEntry {
                    kind: BlockKind::Data {
                        ino: Ino(5),
                        bno: 9,
                    },
                    version: 2,
                    crc: 0x1111_2222,
                },
                SummaryEntry {
                    kind: BlockKind::InodeBlock,
                    version: 0,
                    crc: 0x3333_4444,
                },
                SummaryEntry {
                    kind: BlockKind::ImapBlock { index: 3 },
                    version: 0,
                    crc: 0,
                },
                SummaryEntry {
                    kind: BlockKind::IndDoubleChild {
                        ino: Ino(5),
                        outer: 17,
                    },
                    version: 2,
                    crc: 0xFFFF_FFFF,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let summary = sample();
        let bytes = summary.encode(512);
        assert_eq!(bytes.len() % 512, 0);
        assert_eq!(ChunkSummary::decode(&bytes).unwrap(), summary);
    }

    #[test]
    fn decode_rejects_bit_flips() {
        let bytes = sample().encode(512);
        for &offset in &[0usize, 5, 20, HEADER_SIZE + 3] {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x80;
            assert!(
                ChunkSummary::decode(&bad).is_err(),
                "bit flip at {offset} must be detected"
            );
        }
    }

    #[test]
    fn decode_at_rejects_displaced_copies() {
        let summary = sample();
        let bytes = summary.encode(512);
        // At its recorded home the chunk is accepted...
        assert_eq!(ChunkSummary::decode_at(&bytes, summary.addr).unwrap(), summary);
        // ...but the same valid bytes read from anywhere else are not:
        // every CRC passes, only the self-address betrays the copy.
        assert_eq!(
            ChunkSummary::decode_at(&bytes, BlockAddr(summary.addr.0 + 16)),
            Err(FsError::Corrupt("chunk summary at wrong address"))
        );
    }

    /// Encodes `summary` at block `at` of a 16-block, 512 B-block segment
    /// image whose block 0 is disk block 320.
    fn place(image: &mut [u8], at: usize, mut summary: ChunkSummary) {
        summary.addr = BlockAddr(320 + at as u32);
        let bytes = summary.encode(512);
        image[at * 512..][..bytes.len()].copy_from_slice(&bytes);
    }

    #[test]
    fn cursor_follows_one_incarnation_and_names_why_it_stopped() {
        let mut image = vec![0u8; 16 * 512];
        // Incarnation 42: a 4-entry chunk at block 0 (1 summary block),
        // then partial 1 at block 5.
        place(&mut image, 0, ChunkSummary { partial: 0, ..sample() });
        place(&mut image, 5, ChunkSummary { partial: 1, ..sample() });
        // What an earlier incarnation left behind at block 10.
        place(&mut image, 10, ChunkSummary { seq: 41, partial: 2, ..sample() });

        let mut cursor = ChunkCursor::new(BlockAddr(320), 16, 512);
        let (first, payload) = cursor.next_chunk(&image).unwrap();
        assert_eq!((first.partial, payload, cursor.offset()), (0, 1, 5));
        let (second, payload) = cursor.next_chunk(&image[5 * 512..]).unwrap();
        assert_eq!((second.partial, payload, cursor.offset()), (1, 6, 10));
        assert_eq!(cursor.next_chunk(&image[10 * 512..]), Err(ChainEnd::Ended));

        // Resuming at a checkpointed position accepts only that position.
        let resume = |seq, partial| ChunkCursor::resume_at(BlockAddr(320), 16, 512, 5, seq, partial);
        assert!(resume(42, 1).next_chunk(&image[5 * 512..]).is_ok());
        assert_eq!(resume(42, 2).next_chunk(&image[5 * 512..]), Err(ChainEnd::Ended));
        assert_eq!(resume(43, 1).next_chunk(&image[5 * 512..]), Err(ChainEnd::Ended));

        // Bytes that are no chunk at all (or too few of them) say so.
        let mut cursor = ChunkCursor::resume_at(BlockAddr(320), 16, 512, 12, 42, 2);
        assert_eq!(cursor.next_chunk(&image[12 * 512..]), Err(ChainEnd::Undecodable));
        assert_eq!(cursor.next_chunk(&image[..20]), Err(ChainEnd::Undecodable));
        // A chunk whose payload would run off the segment is not a link.
        place(&mut image, 12, ChunkSummary { partial: 2, ..sample() });
        assert_eq!(cursor.next_chunk(&image[12 * 512..]), Err(ChainEnd::Ended));
        assert_eq!(cursor.offset(), 12, "a refused chunk is not stepped over");
    }

    /// Found by `chunk_cursor_bounds_forged_headers`: the hand-written
    /// walkers stepped `partial += 1`, which overflows (a debug-build
    /// panic) on a checksum-valid chunk claiming the last partial.
    #[test]
    fn cursor_steps_past_a_forged_last_partial() {
        let mut image = vec![0u8; 16 * 512];
        place(&mut image, 0, ChunkSummary { partial: u32::MAX, ..sample() });
        let mut cursor = ChunkCursor::resume_at(BlockAddr(320), 16, 512, 0, 42, u32::MAX);
        assert!(cursor.next_chunk(&image).is_ok());
        assert_eq!(cursor.next_chunk(&image[5 * 512..]), Err(ChainEnd::Undecodable));
    }

    #[test]
    fn summary_block_count_matches_paper_geometry() {
        // 1 MB segment of 4 KB blocks: 254 data blocks need 2 summary
        // blocks (254 entries do not fit in one).
        assert_eq!(ChunkSummary::summary_blocks(254, 4096), 2);
        assert_eq!(ChunkSummary::summary_blocks(1, 4096), 1);
        let max_one = ChunkSummary::max_entries(1, 4096);
        assert_eq!(max_one, (4096 - HEADER_SIZE) / SUMMARY_ENTRY_SIZE);
        assert_eq!(ChunkSummary::summary_blocks(max_one, 4096), 1);
        assert_eq!(ChunkSummary::summary_blocks(max_one + 1, 4096), 2);
    }

    #[test]
    fn empty_chunk_is_representable() {
        let summary = ChunkSummary {
            addr: BlockAddr(0),
            seq: 1,
            partial: 0,
            timestamp_ns: 0,
            next_seg: SegNo::NIL,
            data_crc: 0,
            reserved_blocks: 1,
            entries: Vec::new(),
        };
        let bytes = summary.encode(512);
        assert_eq!(ChunkSummary::decode(&bytes).unwrap(), summary);
    }

    #[test]
    fn data_checksum_is_stable() {
        assert_eq!(data_checksum(b"abc"), data_checksum(b"abc"));
        assert_ne!(data_checksum(b"abc"), data_checksum(b"abd"));
    }
}
