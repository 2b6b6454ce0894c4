//! Property tests for the LFS on-disk formats: arbitrary-value round
//! trips, and decoder robustness against arbitrary garbage — a recovery
//! path must never panic on whatever a torn write left behind.

use proptest::prelude::*;

use lfs_core::layout::checkpoint::CheckpointRegion;
use lfs_core::layout::imap_block::{self, ImapEntry};
use lfs_core::layout::inode::{inode_block, Inode};
use lfs_core::layout::summary::{BlockKind, ChunkCursor, ChunkSummary, SummaryEntry, HEADER_SIZE};
use lfs_core::layout::usage_block::{self, SegState, UsageEntry};
use lfs_core::log::ChunkBuilder;
use lfs_core::types::{BlockAddr, SegNo, SUMMARY_ENTRY_SIZE};
use lfs_core::util::crc32_update;
use vfs::{FileKind, Ino};

fn addr_strategy() -> impl Strategy<Value = BlockAddr> {
    prop_oneof![Just(BlockAddr::NIL), (0u32..1_000_000).prop_map(BlockAddr)]
}

fn inode_strategy() -> impl Strategy<Value = Inode> {
    (
        1u32..100_000,
        0u32..50,
        any::<bool>(),
        1u16..500,
        0u64..(1 << 40),
        any::<u64>(),
        proptest::collection::vec(addr_strategy(), 12),
        addr_strategy(),
        addr_strategy(),
    )
        .prop_map(
            |(ino, version, is_dir, nlink, size, mtime, direct, single, double)| {
                let mut inode = Inode::new(
                    Ino(ino),
                    if is_dir {
                        FileKind::Directory
                    } else {
                        FileKind::Regular
                    },
                    version,
                    mtime,
                );
                inode.nlink = nlink;
                inode.size = size;
                inode.direct.copy_from_slice(&direct);
                inode.single = single;
                inode.double = double;
                inode
            },
        )
}

fn kind_strategy() -> impl Strategy<Value = BlockKind> {
    prop_oneof![
        (1u32..10_000, 0u32..100_000).prop_map(|(ino, bno)| BlockKind::Data { ino: Ino(ino), bno }),
        (1u32..10_000).prop_map(|ino| BlockKind::IndSingle { ino: Ino(ino) }),
        (1u32..10_000).prop_map(|ino| BlockKind::IndDoubleTop { ino: Ino(ino) }),
        (1u32..10_000, 0u32..2048).prop_map(|(ino, outer)| BlockKind::IndDoubleChild {
            ino: Ino(ino),
            outer
        }),
        Just(BlockKind::InodeBlock),
        (0u32..4096).prop_map(|index| BlockKind::ImapBlock { index }),
        (0u32..64).prop_map(|index| BlockKind::UsageBlock { index }),
    ]
}

/// Chunk-chain geometry for the cursor properties: 32 blocks of 512 B.
const BS: usize = 512;
const SEG_BLOCKS: usize = 32;

/// Drives `cursor` over `image` (the segment's bytes from block
/// `image_base` on; it may be short) the way every caller does, and
/// checks the totality contract: it ends within `SEG_BLOCKS` steps and
/// every yielded chunk's summary and payload lie inside the segment.
/// Returns `(chunk offset, summary)` per chunk.
fn walk(
    mut cursor: ChunkCursor,
    image: &[u8],
    image_base: usize,
) -> Result<Vec<(usize, ChunkSummary)>, TestCaseError> {
    let mut chunks = Vec::new();
    loop {
        let at = cursor.offset();
        let from = (at.saturating_sub(image_base) * BS).min(image.len());
        let Ok((chunk, payload_start)) = cursor.next_chunk(&image[from..]) else {
            break;
        };
        prop_assert!(at < payload_start, "a chunk occupies at least its summary block");
        prop_assert!(payload_start + chunk.entries.len() <= SEG_BLOCKS);
        prop_assert_eq!(cursor.offset(), payload_start + chunk.entries.len());
        chunks.push((at, chunk));
        prop_assert!(chunks.len() <= SEG_BLOCKS, "the walk must terminate");
    }
    Ok(chunks)
}

/// A segment image written by the real chunk writer: chunks of the
/// given payload sizes back to back from block 0, as many as fit.
fn real_segment(base: u32, seq: u64, sizes: &[usize]) -> (Vec<u8>, Vec<(usize, usize)>) {
    let mut image = vec![0u8; SEG_BLOCKS * BS];
    let mut built = Vec::new();
    let mut offset = 0usize;
    for (partial, &blocks) in sizes.iter().enumerate() {
        let Some(mut builder) = ChunkBuilder::new(
            SegNo(0),
            BlockAddr(base),
            offset as u32,
            SEG_BLOCKS - offset,
            BS,
        ) else {
            break;
        };
        for bno in 0..blocks.min(builder.remaining()) {
            let fill = (offset + bno) as u8;
            builder.add(BlockKind::Data { ino: Ino(7), bno: bno as u32 }, 1, &[fill; BS]);
        }
        let chunk = builder.finish(seq, partial as u32, 0, SegNo::NIL);
        image[offset * BS..][..chunk.bytes.len()].copy_from_slice(&chunk.bytes);
        built.push((offset, chunk.payload_blocks as usize));
        offset += chunk.blocks_used as usize;
    }
    (image, built)
}

/// A summary whose checksum is valid but whose header claims an
/// arbitrary `reserved_blocks` — what a forger (or an XOR-reconstructed
/// parity row) could leave, and the only way past the CRC to the
/// cursor's arithmetic.
fn forged_summary(summary: &ChunkSummary, reserved_blocks: u32) -> Vec<u8> {
    let mut bytes = summary.encode(BS);
    bytes[40..44].copy_from_slice(&reserved_blocks.to_le_bytes());
    let body = HEADER_SIZE..HEADER_SIZE + summary.entries.len() * SUMMARY_ENTRY_SIZE;
    let crc = crc32_update(crc32_update(0xFFFF_FFFF, &bytes[..44]), &bytes[body]) ^ 0xFFFF_FFFF;
    bytes[44..48].copy_from_slice(&crc.to_le_bytes());
    bytes
}

proptest! {
    #[test]
    fn chunk_cursor_is_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..SEG_BLOCKS * BS),
        base in any::<u32>(),
        resume in proptest::option::of((0usize..SEG_BLOCKS + 2, any::<u64>(), any::<u32>())),
    ) {
        let (cursor, image_base) = match resume {
            None => (ChunkCursor::new(BlockAddr(base), SEG_BLOCKS, BS), 0),
            Some((offset, seq, partial)) => (
                ChunkCursor::resume_at(BlockAddr(base), SEG_BLOCKS, BS, offset, seq, partial),
                offset,
            ),
        };
        walk(cursor, &bytes, image_base)?;
    }

    #[test]
    fn chunk_cursor_reads_real_segments_and_survives_bit_flips(
        base in 0u32..u32::MAX - SEG_BLOCKS as u32,
        seq in any::<u64>(),
        sizes in proptest::collection::vec(0usize..7, 1..10),
        flips in proptest::collection::vec(0usize..SEG_BLOCKS * BS * 8, 1..4),
    ) {
        let (mut image, built) = real_segment(base, seq, &sizes);
        let fresh = || ChunkCursor::new(BlockAddr(base), SEG_BLOCKS, BS);
        let intact = walk(fresh(), &image, 0)?;
        let seen: Vec<(usize, usize)> =
            intact.iter().map(|(at, chunk)| (*at, chunk.entries.len())).collect();
        prop_assert_eq!(&seen, &built, "the cursor reads back what the writer wrote");

        for bit in flips {
            image[bit / 8] ^= 1 << (bit % 8);
        }
        // Damage can only shorten the chain: whatever is still yielded
        // is an untouched prefix of the original.
        let damaged = walk(fresh(), &image, 0)?;
        prop_assert!(damaged.len() <= intact.len());
        prop_assert_eq!(&damaged[..], &intact[..damaged.len()]);
    }

    #[test]
    fn chunk_cursor_bounds_forged_headers(
        base in any::<u32>(),
        at in 0usize..SEG_BLOCKS,
        seq in any::<u64>(),
        partial in prop_oneof![Just(u32::MAX), any::<u32>()],
        reserved in prop_oneof![Just(u32::MAX), Just(0u32), 0u32..40],
        nentries in 0usize..40,
    ) {
        let summary = ChunkSummary {
            addr: BlockAddr(base.wrapping_add(at as u32)),
            seq,
            partial,
            timestamp_ns: 0,
            next_seg: SegNo::NIL,
            data_crc: 0,
            reserved_blocks: 1,
            entries: vec![
                SummaryEntry { kind: BlockKind::InodeBlock, version: 0, crc: 0 };
                nentries
            ],
        };
        let forged = forged_summary(&summary, reserved);
        let mut image = vec![0u8; SEG_BLOCKS * BS];
        let room = (image.len() - at * BS).min(forged.len());
        image[at * BS..][..room].copy_from_slice(&forged[..room]);
        let cursor = ChunkCursor::resume_at(BlockAddr(base), SEG_BLOCKS, BS, at, seq, partial);
        walk(cursor, &image, 0)?;
    }

    #[test]
    fn inode_round_trips(inode in inode_strategy()) {
        let bytes = inode.encode();
        prop_assert_eq!(Inode::decode(&bytes).unwrap(), inode);
    }

    #[test]
    fn inode_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Inode::decode(&bytes);
        if bytes.len() >= 128 {
            let _ = Inode::decode_slot(&bytes[..128]);
        }
    }

    #[test]
    fn inode_blocks_round_trip(inodes in proptest::collection::vec(inode_strategy(), 0..8)) {
        // 4 KB block holds up to 32 inodes; we use at most 8.
        let refs: Vec<&Inode> = inodes.iter().collect();
        let block = inode_block::pack(&refs, 4096);
        let unpacked = inode_block::unpack_all(&block).unwrap();
        prop_assert_eq!(unpacked.len(), inodes.len());
        for (slot, inode) in unpacked {
            prop_assert_eq!(&inodes[slot], &inode);
        }
    }

    #[test]
    fn summary_round_trips(
        addr in 0u32..100_000,
        seq in any::<u64>(),
        partial in 0u32..1000,
        timestamp in any::<u64>(),
        reserved in 1u32..4,
        entries in proptest::collection::vec(
            (kind_strategy(), 0u32..100, 0u32..u32::MAX).prop_map(|(kind, version, crc)| SummaryEntry { kind, version, crc }),
            0..64,
        ),
    ) {
        let summary = ChunkSummary {
            addr: lfs_core::types::BlockAddr(addr),
            seq,
            partial,
            timestamp_ns: timestamp,
            next_seg: SegNo::NIL,
            data_crc: 0x1234_5678,
            reserved_blocks: reserved,
            entries,
        };
        let encoded = summary.encode(512);
        prop_assert_eq!(ChunkSummary::decode(&encoded).unwrap(), summary);
    }

    #[test]
    fn summary_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = ChunkSummary::decode(&bytes);
        let _ = ChunkSummary::decode_header_prefix(&bytes);
    }

    #[test]
    fn summary_rejects_any_corruption(
        entries in proptest::collection::vec(
            (kind_strategy(), 0u32..100, 0u32..u32::MAX).prop_map(|(kind, version, crc)| SummaryEntry { kind, version, crc }),
            1..32,
        ),
        flip in any::<usize>(),
    ) {
        let summary = ChunkSummary {
            addr: lfs_core::types::BlockAddr(320),
            seq: 7,
            partial: 1,
            timestamp_ns: 42,
            next_seg: SegNo(3),
            data_crc: 9,
            reserved_blocks: 1,
            entries,
        };
        let mut encoded = summary.encode(512);
        // Flip one bit within the meaningful region (header + entries).
        let meaningful = 44 + summary.entries.len() * lfs_core::types::SUMMARY_ENTRY_SIZE;
        let index = flip % (meaningful * 8);
        encoded[index / 8] ^= 1 << (index % 8);
        prop_assert!(
            ChunkSummary::decode(&encoded) != Ok(summary),
            "bit flip at {} must not decode to the original", index
        );
    }

    #[test]
    fn checkpoint_round_trips(
        serial in any::<u64>(),
        seq in any::<u64>(),
        cur_seg in 0u32..10_000,
        next_block in 0u32..256,
        partial in 0u32..64,
        next_free in 1u32..100_000,
        imap_addrs in proptest::collection::vec(addr_strategy(), 0..40),
        usage_addrs in proptest::collection::vec(addr_strategy(), 0..10),
    ) {
        let cp = CheckpointRegion {
            timestamp_ns: 11,
            serial,
            seq,
            cur_seg: SegNo(cur_seg),
            next_block,
            partial,
            next_free_ino: Ino(next_free),
            imap_addrs,
            usage_addrs,
        };
        let encoded = cp.encode(4096);
        prop_assert_eq!(CheckpointRegion::decode(&encoded).unwrap(), cp);
    }

    #[test]
    fn checkpoint_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = CheckpointRegion::decode(&bytes);
    }

    #[test]
    fn imap_blocks_round_trip(
        entries in proptest::collection::vec(
            (addr_strategy(), 0u16..32, any::<bool>(), 0u32..1000, any::<u64>()).prop_map(
                |(addr, slot, allocated, version, atime_ns)| ImapEntry {
                    addr,
                    slot,
                    allocated,
                    version,
                    atime_ns,
                },
            ),
            0..21,
        ),
    ) {
        let block = imap_block::encode_block(&entries, 512);
        prop_assert_eq!(imap_block::decode_block(&block, entries.len()).unwrap(), entries);
    }

    #[test]
    fn usage_blocks_round_trip(
        entries in proptest::collection::vec(
            (0u32..(1 << 20), 0u8..4, any::<u64>()).prop_map(|(live, state, when)| UsageEntry {
                live_bytes: live,
                state: match state {
                    0 => SegState::Clean,
                    1 => SegState::Dirty,
                    2 => SegState::Active,
                    _ => SegState::CleanPending,
                },
                last_write_ns: when,
            }),
            0..32,
        ),
    ) {
        let block = usage_block::encode_block(&entries, 512);
        prop_assert_eq!(usage_block::decode_block(&block, entries.len()).unwrap(), entries);
    }
}
