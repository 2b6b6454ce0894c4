//! UNIX-style inode block-mapping arithmetic.
//!
//! Both file systems in this workspace use the classic inode layout:
//! [`NDIRECT`] direct block pointers, one single-indirect pointer, and one
//! double-indirect pointer. The paper keeps this format unchanged in LFS
//! ("the format of inodes and indirect blocks is unchanged", §4.2.1), so the
//! index arithmetic is shared here.

/// Number of direct block pointers in an inode.
pub const NDIRECT: usize = 12;

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
