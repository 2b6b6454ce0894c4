//! Human-readable dumps of LFS on-disk structures (`dumpfs`).

use lfs_core::layout::checkpoint::CheckpointRegion;
use lfs_core::layout::summary::{BlockKind, ChunkCursor};
use lfs_core::layout::superblock::Superblock;
use lfs_core::types::BlockAddr;
use sim_disk::BlockDevice;
use vfs::{FsError, FsResult};

/// Formats one summary entry for display.
fn entry_desc(kind: BlockKind) -> String {
    match kind {
        BlockKind::Data { ino, bno } => format!("data {ino} blk{bno}"),
        BlockKind::IndSingle { ino } => format!("ind-single {ino}"),
        BlockKind::IndDoubleTop { ino } => format!("ind-double-top {ino}"),
        BlockKind::IndDoubleChild { ino, outer } => {
            format!("ind-double-child {ino} [{outer}]")
        }
        BlockKind::InodeBlock => "inode block".to_string(),
        BlockKind::ImapBlock { index } => format!("imap block {index}"),
        BlockKind::UsageBlock { index } => format!("usage block {index}"),
    }
}

/// Dumps the superblock, both checkpoint regions, and every segment's
/// chunk chain to `out`.
pub fn dump(
    disk: &mut impl BlockDevice,
    out: &mut impl std::io::Write,
    verbose: bool,
) -> FsResult<()> {
    let mut first = vec![0u8; sim_disk::SECTOR_SIZE];
    disk.read(0, &mut first)?;
    let sb = Superblock::decode(&first)?;
    let bs = sb.block_size as usize;
    let spb = (bs / sim_disk::SECTOR_SIZE) as u64;

    writeln!(out, "superblock:").map_err(|_| FsError::Corrupt("io"))?;
    writeln!(
        out,
        "  block size {} B, {} segments x {} blocks, {} inodes max",
        sb.block_size, sb.nsegments, sb.seg_blocks, sb.max_inodes
    )
    .map_err(|_| FsError::Corrupt("io"))?;

    let region_bytes = (sb.cp_blocks * sb.block_size) as usize;
    for (name, addr) in [("A", sb.cp_a), ("B", sb.cp_b)] {
        let mut buf = vec![0u8; region_bytes];
        disk.read(addr.0 as u64 * spb, &mut buf)?;
        match CheckpointRegion::decode(&buf) {
            Ok(cp) => writeln!(
                out,
                "checkpoint {name}: serial {} seq {} at {} +{} (partial {}), {} imap blocks, {} usage blocks",
                cp.serial,
                cp.seq,
                cp.cur_seg,
                cp.next_block,
                cp.partial,
                cp.imap_addrs.iter().filter(|a| a.is_some()).count(),
                cp.usage_addrs.iter().filter(|a| a.is_some()).count(),
            )
            .map_err(|_| FsError::Corrupt("io"))?,
            Err(e) => writeln!(out, "checkpoint {name}: invalid ({e})")
                .map_err(|_| FsError::Corrupt("io"))?,
        }
    }

    for seg in 0..sb.nsegments {
        let base = sb.seg_start.0 + seg * sb.seg_blocks;
        let mut image = vec![0u8; sb.seg_blocks as usize * bs];
        disk.read(base as u64 * spb, &mut image)?;
        let mut cursor = ChunkCursor::new(BlockAddr(base), sb.seg_blocks as usize, bs);
        let mut chunks = Vec::new();
        loop {
            let at = cursor.offset();
            let Ok((chunk, _)) = cursor.next_chunk(&image[at * bs..]) else {
                break;
            };
            chunks.push((at, chunk));
        }
        let offset = cursor.offset();
        if chunks.is_empty() {
            continue;
        }
        let seq = chunks[0].1.seq;
        writeln!(
            out,
            "segment {seg}: seq {seq}, {} chunk(s), {} blocks used",
            chunks.len(),
            offset
        )
        .map_err(|_| FsError::Corrupt("io"))?;
        if verbose {
            for (at, chunk) in &chunks {
                writeln!(
                    out,
                    "  chunk @+{at}: partial {} entries {} next_seg {}",
                    chunk.partial,
                    chunk.entries.len(),
                    chunk.next_seg
                )
                .map_err(|_| FsError::Corrupt("io"))?;
                for (i, entry) in chunk.entries.iter().enumerate() {
                    writeln!(
                        out,
                        "    [{i}] {} v{}",
                        entry_desc(entry.kind),
                        entry.version
                    )
                    .map_err(|_| FsError::Corrupt("io"))?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfs_core::{Lfs, LfsConfig};
    use sim_disk::{Clock, DiskGeometry, SimDisk};
    use std::sync::Arc;
    use vfs::FileSystem;

    #[test]
    fn dump_shows_structures() {
        let clock = Clock::new();
        let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), Arc::clone(&clock));
        let geometry = disk.geometry().clone();
        let mut fs = Lfs::format(disk, LfsConfig::small_test(), clock).unwrap();
        fs.write_file("/x", b"dump me").unwrap();
        fs.sync().unwrap();
        let image = fs.into_device().into_image();

        let mut disk = SimDisk::from_image(geometry, Clock::new(), image);
        let mut out = Vec::new();
        dump(&mut disk, &mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("superblock:"));
        assert!(text.contains("checkpoint A: serial"));
        assert!(text.contains("segment 0: seq"));
        assert!(text.contains("inode block"));
        assert!(text.contains("data ino"));
    }
}
