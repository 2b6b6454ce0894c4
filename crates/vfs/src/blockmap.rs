//! UNIX-style inode block-mapping arithmetic.
//!
//! Both file systems in this workspace use the classic inode layout:
//! [`NDIRECT`] direct block pointers, one single-indirect pointer, and one
//! double-indirect pointer. The paper keeps this format unchanged in LFS
//! ("the format of inodes and indirect blocks is unchanged", §4.2.1), so the
//! index arithmetic is shared here — and so is everything that only
//! *reads* the tree: the resolver [`map_block`], the walk over all of a
//! file's blocks [`visit_file_blocks`], and the plan of what a fanned-out
//! maintenance pass should prefetch. They run over [`NodeStore`], whose
//! [`NodeStore::indirect_ptr`] hook is where a file system loads (and, if
//! it can, verifies) an indirect block. Changing a pointer stays with each
//! file system: appending to a log and allocating in place are the two
//! designs the paper compares.

use crate::namespace::{NodeStore, NodeView};
use crate::{FileKind, FsError, FsResult, Ino};

/// Number of direct block pointers in an inode.
pub const NDIRECT: usize = 12;

/// The null block pointer: a hole, or an indirect block never written.
pub const NIL: u32 = u32::MAX;

/// The roots of an inode's pointer tree, as block addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Roots {
    /// Direct block pointers.
    pub direct: [u32; NDIRECT],
    /// Single-indirect block pointer.
    pub single: u32,
    /// Double-indirect (top) block pointer.
    pub double: u32,
}

/// Where a file block index lands in the inode's pointer tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockPath {
    /// Direct pointer `i` in the inode.
    Direct {
        /// Index into the inode's direct-pointer array.
        slot: usize,
    },
    /// Slot `slot` of the single-indirect block.
    Single {
        /// Index into the single-indirect pointer block.
        slot: usize,
    },
    /// Slot `inner` of the `outer`-th second-level indirect block.
    Double {
        /// Index into the double-indirect (top) block.
        outer: usize,
        /// Index into the selected second-level block.
        inner: usize,
    },
}

/// Maps a file block index to its position in the pointer tree.
///
/// `ptrs_per_block` is `block_size / 4` for 32-bit block addresses.
/// Returns `None` if the index exceeds the double-indirect range.
pub fn resolve(block_index: u64, ptrs_per_block: usize) -> Option<BlockPath> {
    let ppb = ptrs_per_block as u64;
    if block_index < NDIRECT as u64 {
        return Some(BlockPath::Direct {
            slot: block_index as usize,
        });
    }
    let after_direct = block_index - NDIRECT as u64;
    if after_direct < ppb {
        return Some(BlockPath::Single {
            slot: after_direct as usize,
        });
    }
    let after_single = after_direct - ppb;
    if after_single < ppb * ppb {
        return Some(BlockPath::Double {
            outer: (after_single / ppb) as usize,
            inner: (after_single % ppb) as usize,
        });
    }
    None
}

impl BlockPath {
    /// Where the pointer itself is stored: the cache index of the
    /// indirect block holding it (`None` for the inode) and the slot.
    pub fn holder(self) -> (Option<u64>, usize) {
        match self {
            BlockPath::Direct { slot } => (None, slot),
            BlockPath::Single { slot } => (Some(IDX_SINGLE), slot),
            BlockPath::Double { outer, inner } => (Some(idx_dchild(outer as u32)), inner),
        }
    }
}

/// Maximum file size in bytes for the given geometry.
pub fn max_file_size(block_size: usize, ptrs_per_block: usize) -> u64 {
    let ppb = ptrs_per_block as u64;
    (NDIRECT as u64 + ppb + ppb * ppb) * block_size as u64
}

/// Number of file blocks needed to hold `size` bytes.
pub fn blocks_for_size(size: u64, block_size: usize) -> u64 {
    size.div_ceil(block_size as u64)
}

/// Cache index of a file's single-indirect block. Data blocks are keyed
/// by their file block number, which [`resolve`] bounds far below this.
pub const IDX_SINGLE: u64 = 1 << 40;
/// Cache index of a file's double-indirect top block.
pub const IDX_DTOP: u64 = (1 << 40) + 1;
/// Base cache index of second-level indirect blocks.
pub const IDX_DCHILD_BASE: u64 = 1 << 41;

/// Cache index of double-indirect child `outer`.
pub fn idx_dchild(outer: u32) -> u64 {
    IDX_DCHILD_BASE + outer as u64
}

/// Returns true if a file-owner cache index denotes a data block.
pub fn is_data_idx(idx: u64) -> bool {
    idx < IDX_SINGLE
}

/// Reads pointer `slot` from an indirect block's raw bytes.
pub fn read_ptr(block: &[u8], slot: usize) -> u32 {
    let start = slot * 4;
    u32::from_le_bytes(block[start..start + 4].try_into().unwrap())
}

/// Writes pointer `slot` in an indirect block's raw bytes.
pub fn write_ptr(block: &mut [u8], slot: usize, addr: u32) {
    let start = slot * 4;
    block[start..start + 4].copy_from_slice(&addr.to_le_bytes());
}

/// Resolves file block `bno` of `ino` to its current disk address
/// ([`NIL`] for a hole).
pub fn map_block<S: NodeStore>(fs: &mut S, ino: Ino, bno: u64) -> FsResult<u32> {
    let path = resolve(bno, fs.block_size() / 4).ok_or(FsError::FileTooLarge)?;
    let roots = fs.node(ino)?.roots;
    match path {
        BlockPath::Direct { slot } => Ok(roots.direct[slot]),
        BlockPath::Single { slot } => fs.indirect_ptr(ino, IDX_SINGLE, roots.single, slot),
        BlockPath::Double { outer, inner } => {
            let child = fs.indirect_ptr(ino, IDX_DTOP, roots.double, outer)?;
            fs.indirect_ptr(ino, idx_dchild(outer as u32), child, inner)
        }
    }
}

/// The current disk address of the block `ino` caches under index `idx`
/// — a data block or any of its indirect blocks ([`NIL`] if it has none).
pub fn block_addr<S: NodeStore>(fs: &mut S, ino: Ino, idx: u64) -> FsResult<u32> {
    if is_data_idx(idx) {
        return map_block(fs, ino, idx);
    }
    let roots = fs.node(ino)?.roots;
    match idx {
        IDX_SINGLE => Ok(roots.single),
        IDX_DTOP => Ok(roots.double),
        _ if roots.double == NIL => Ok(NIL),
        _ => fs.indirect_ptr(
            ino,
            IDX_DTOP,
            roots.double,
            (idx - IDX_DCHILD_BASE) as usize,
        ),
    }
}

/// What the block a file caches under `idx` is to that file, for messages:
/// `data 7`, `single`, `dtop`, `dchild 3`.
pub fn idx_label(idx: u64) -> String {
    match idx {
        IDX_SINGLE => "single".to_string(),
        IDX_DTOP => "dtop".to_string(),
        _ if is_data_idx(idx) => format!("data {idx}"),
        _ => format!("dchild {}", idx - IDX_DCHILD_BASE),
    }
}

/// Calls `f(fs, idx, address)` for every block `ino` references, `idx`
/// being the cache index that says what the block is: its data blocks
/// in file order, then the single-indirect block, the double-indirect
/// top block and that block's children. Holes are skipped. `past_eof`
/// more data blocks are resolved beyond the file's size, for a caller
/// that checks nothing is mapped there.
pub fn visit_file_blocks<S: NodeStore>(
    fs: &mut S,
    ino: Ino,
    past_eof: u64,
    mut f: impl FnMut(&mut S, u64, u32),
) -> FsResult<()> {
    let node = fs.node(ino)?;
    let (bs, ppb) = (fs.block_size(), fs.block_size() / 4);
    let nblocks = blocks_for_size(node.size, bs);
    let mappable = max_file_size(bs, ppb) / bs as u64;
    for bno in 0..nblocks.max((nblocks + past_eof).min(mappable)) {
        let addr = map_block(fs, ino, bno)?;
        if addr != NIL {
            f(fs, bno, addr);
        }
    }
    let Roots { single, double, .. } = node.roots;
    if single != NIL {
        f(fs, IDX_SINGLE, single);
    }
    if double != NIL {
        f(fs, IDX_DTOP, double);
        for outer in 0..ppb {
            let child = fs.indirect_ptr(ino, IDX_DTOP, double, outer)?;
            if child != NIL {
                f(fs, idx_dchild(outer as u32), child);
            }
        }
    }
    Ok(())
}

/// One block a fanned-out maintenance pass should read ahead: the file,
/// the cache index to insert it under, and the disk address (possibly
/// [`NIL`], which the issuer skips).
pub type PrefetchTarget = (Ino, u64, u32);

/// First prefetch wave over `nodes`: every inode's indirect roots, and
/// the direct blocks of every directory.
pub fn prefetch_roots(nodes: &[(Ino, NodeView)], block_size: usize) -> Vec<PrefetchTarget> {
    let mut wave = Vec::new();
    for &(ino, node) in nodes {
        wave.push((ino, IDX_SINGLE, node.roots.single));
        wave.push((ino, IDX_DTOP, node.roots.double));
        if node.kind == FileKind::Directory {
            let direct = blocks_for_size(node.size, block_size).min(NDIRECT as u64);
            wave.extend((0..direct).map(|bno| (ino, bno, node.roots.direct[bno as usize])));
        }
    }
    wave
}

/// Second prefetch wave: what the blocks of the first point at — every
/// double-indirect child, and each directory's single-indirect span.
/// `peek` looks a block up in the cache without touching its recency;
/// a root the first wave did not bring in contributes nothing.
pub fn prefetch_children<'c>(
    nodes: &[(Ino, NodeView)],
    block_size: usize,
    peek: impl Fn(Ino, u64) -> Option<&'c [u8]>,
) -> Vec<PrefetchTarget> {
    let ppb = block_size / 4;
    let mut wave = Vec::new();
    for &(ino, node) in nodes {
        if node.roots.double != NIL {
            if let Some(top) = peek(ino, IDX_DTOP) {
                wave.extend((0..ppb).map(|o| (ino, idx_dchild(o as u32), read_ptr(top, o))));
            }
        }
        if node.kind == FileKind::Directory && node.roots.single != NIL {
            if let Some(block) = peek(ino, IDX_SINGLE) {
                let end = blocks_for_size(node.size, block_size).min((NDIRECT + ppb) as u64);
                let span = NDIRECT as u64..end;
                wave.extend(span.map(|bno| (ino, bno, read_ptr(block, bno as usize - NDIRECT))));
            }
        }
    }
    wave
}

#[cfg(test)]
mod tests {
    use super::*;

    const PPB: usize = 1024; // 4 KB blocks, 4-byte pointers.

    #[test]
    fn direct_range() {
        assert_eq!(resolve(0, PPB), Some(BlockPath::Direct { slot: 0 }));
        assert_eq!(resolve(11, PPB), Some(BlockPath::Direct { slot: 11 }));
    }

    #[test]
    fn single_indirect_range() {
        assert_eq!(resolve(12, PPB), Some(BlockPath::Single { slot: 0 }));
        assert_eq!(
            resolve(12 + 1023, PPB),
            Some(BlockPath::Single { slot: 1023 })
        );
    }

    #[test]
    fn double_indirect_range() {
        let first_double = 12 + 1024;
        assert_eq!(
            resolve(first_double as u64, PPB),
            Some(BlockPath::Double { outer: 0, inner: 0 })
        );
        assert_eq!(
            resolve(first_double as u64 + 1024, PPB),
            Some(BlockPath::Double { outer: 1, inner: 0 })
        );
        assert_eq!(
            resolve(first_double as u64 + 1024 * 1024 - 1, PPB),
            Some(BlockPath::Double {
                outer: 1023,
                inner: 1023
            })
        );
        assert_eq!(resolve(first_double as u64 + 1024 * 1024, PPB), None);
    }

    #[test]
    fn max_file_size_covers_the_paper_workloads() {
        // 4 KB blocks: must comfortably exceed the 100 MB large-file test.
        let max = max_file_size(4096, PPB);
        assert!(max > 4 * 1024 * 1024 * 1024u64);
    }

    #[test]
    fn pointers_round_trip_in_their_own_slot() {
        let mut block = vec![0xFFu8; 4 * PPB];
        write_ptr(&mut block, 0, 7);
        write_ptr(&mut block, PPB - 1, 0xDEAD_BEEF);
        assert_eq!(read_ptr(&block, 0), 7);
        assert_eq!(read_ptr(&block, PPB - 1), 0xDEAD_BEEF);
        // Untouched slots keep the NIL fill; neighbours are not clobbered.
        assert_eq!(read_ptr(&block, 1), u32::MAX);
        assert_eq!(read_ptr(&block, PPB - 2), u32::MAX);
        assert_eq!(&block[..4], &7u32.to_le_bytes());
    }

    #[test]
    fn cache_index_ranges_do_not_overlap() {
        // Every mappable data block index is a data index...
        let last_data = (NDIRECT + PPB + PPB * PPB - 1) as u64;
        assert!(resolve(last_data, PPB).is_some());
        assert!(is_data_idx(0) && is_data_idx(last_data));
        // ...and no indirect block's index is.
        let last_child = idx_dchild(PPB as u32 - 1);
        for idx in [IDX_SINGLE, IDX_DTOP, idx_dchild(0), last_child] {
            assert!(!is_data_idx(idx));
        }
        assert!(IDX_SINGLE < IDX_DTOP && IDX_DTOP < idx_dchild(0));
        assert_eq!(last_child - IDX_DCHILD_BASE, PPB as u64 - 1);
    }

    #[test]
    fn blocks_for_size_rounds_up() {
        assert_eq!(blocks_for_size(0, 4096), 0);
        assert_eq!(blocks_for_size(1, 4096), 1);
        assert_eq!(blocks_for_size(4096, 4096), 1);
        assert_eq!(blocks_for_size(4097, 4096), 2);
    }
}
