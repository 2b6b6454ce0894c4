//! The in-memory inode map (§4.2.1).
//!
//! "LFS quickly locates inodes using a data structure called the inode
//! map. The data structure maintains a mapping between an inode number and
//! the current disk address of the inode. The inode map also keeps the
//! inode status (allocated or free), the file's access time, and a version
//! number that is updated every time the file is truncated to length
//! zero."
//!
//! The map is partitioned into blocks; dirty blocks are written to the log
//! at checkpoints and their addresses recorded in the checkpoint region.
//! At our scale the whole map stays memory-resident, which the paper
//! expects for the blocks mapping active files.

use vfs::{FsError, FsResult, Ino};

use crate::layout::imap_block::{self, ImapEntry};
use crate::types::BlockAddr;

/// The inode map.
#[derive(Debug, Clone)]
pub struct Imap {
    entries: Vec<ImapEntry>,
    entries_per_block: usize,
    /// Current log address of each imap block (NIL before first flush).
    block_addrs: Vec<BlockAddr>,
    /// Per-block dirty flags.
    dirty: Vec<bool>,
    /// Allocation scan hint.
    next_free: u32,
    live: u64,
    /// Blocks dirtied or given a log address at least once: the first
    /// dirtying or load of a block counts it.
    in_use: usize,
}

impl Imap {
    /// Creates an empty map for `max_inodes` inodes.
    pub fn new(max_inodes: u32, entries_per_block: usize) -> Self {
        let nblocks = (max_inodes as usize).div_ceil(entries_per_block);
        Self {
            entries: vec![ImapEntry::FREE; max_inodes as usize],
            entries_per_block,
            block_addrs: vec![BlockAddr::NIL; nblocks],
            dirty: vec![false; nblocks],
            next_free: Ino::ROOT.0,
            live: 0,
            in_use: 0,
        }
    }

    /// Maximum number of inodes.
    pub fn max_inodes(&self) -> u32 {
        self.entries.len() as u32
    }

    /// Number of imap blocks.
    pub fn nblocks(&self) -> usize {
        self.block_addrs.len()
    }

    /// Number of allocated inodes.
    pub fn live_count(&self) -> u64 {
        self.live
    }

    /// Returns the allocation-scan hint (for checkpointing).
    pub fn next_free_hint(&self) -> Ino {
        Ino(self.next_free)
    }

    /// Sets the allocation-scan hint (when loading a checkpoint).
    pub fn set_next_free_hint(&mut self, hint: Ino) {
        self.next_free = hint.0.max(Ino::ROOT.0);
    }

    fn block_of(&self, ino: Ino) -> usize {
        ino.0 as usize / self.entries_per_block
    }

    fn check(&self, ino: Ino) -> FsResult<usize> {
        let idx = ino.0 as usize;
        if !ino.is_valid() || idx >= self.entries.len() {
            return Err(FsError::Corrupt("inode number out of range"));
        }
        Ok(idx)
    }

    /// Reads an entry.
    pub fn get(&self, ino: Ino) -> FsResult<ImapEntry> {
        Ok(self.entries[self.check(ino)?])
    }

    /// Returns true if `ino` is allocated.
    pub fn is_allocated(&self, ino: Ino) -> bool {
        self.get(ino).map(|e| e.allocated).unwrap_or(false)
    }

    fn mark_dirty(&mut self, ino: Ino) {
        self.mark_block_dirty(self.block_of(ino));
    }

    /// Allocates a free inode number.
    ///
    /// The version number of the slot is preserved (it was bumped when the
    /// previous incarnation died), so stale log blocks can never be
    /// mistaken for the new file's.
    pub fn allocate(&mut self) -> FsResult<Ino> {
        // Valid inode numbers are 1..n; scan from the hint, wrapping.
        let count = self.entries.len().saturating_sub(1);
        for probe in 0..count {
            let start = (self.next_free as usize).max(1) - 1;
            let candidate = 1 + (start + probe) % count;
            let ino = Ino(candidate as u32);
            let idx = self.check(ino)?;
            if !self.entries[idx].allocated {
                self.entries[idx].allocated = true;
                self.entries[idx].addr = BlockAddr::NIL;
                self.entries[idx].slot = 0;
                self.next_free = candidate as u32 + 1;
                self.live += 1;
                self.mark_dirty(ino);
                return Ok(ino);
            }
        }
        Err(FsError::NoInodes)
    }

    /// Allocates a specific inode number (used for the root at format).
    pub fn allocate_specific(&mut self, ino: Ino) -> FsResult<()> {
        let idx = self.check(ino)?;
        if self.entries[idx].allocated {
            return Err(FsError::AlreadyExists);
        }
        self.entries[idx].allocated = true;
        self.entries[idx].addr = BlockAddr::NIL;
        self.live += 1;
        self.mark_dirty(ino);
        Ok(())
    }

    /// Frees an inode, bumping its version so the cleaner can identify
    /// every one of its old log blocks as dead (§4.3.3 step 1).
    pub fn free(&mut self, ino: Ino) -> FsResult<()> {
        let idx = self.check(ino)?;
        if !self.entries[idx].allocated {
            return Err(FsError::Corrupt("double free of inode"));
        }
        self.entries[idx].allocated = false;
        self.entries[idx].addr = BlockAddr::NIL;
        self.entries[idx].version += 1;
        self.live -= 1;
        self.mark_dirty(ino);
        Ok(())
    }

    /// Bumps the version (file truncated to length zero).
    pub fn bump_version(&mut self, ino: Ino) -> FsResult<()> {
        let idx = self.check(ino)?;
        self.entries[idx].version += 1;
        self.mark_dirty(ino);
        Ok(())
    }

    /// Records the new log location of an inode.
    pub fn set_location(&mut self, ino: Ino, addr: BlockAddr, slot: u16) -> FsResult<()> {
        let idx = self.check(ino)?;
        self.entries[idx].addr = addr;
        self.entries[idx].slot = slot;
        self.mark_dirty(ino);
        Ok(())
    }

    /// Overwrites an entry wholesale (roll-forward recovery).
    pub fn restore_entry(&mut self, ino: Ino, entry: ImapEntry) -> FsResult<()> {
        let idx = self.check(ino)?;
        let was = self.entries[idx].allocated;
        self.entries[idx] = entry;
        match (was, entry.allocated) {
            (false, true) => self.live += 1,
            (true, false) => self.live -= 1,
            _ => {}
        }
        self.mark_dirty(ino);
        Ok(())
    }

    /// Updates the access time without touching the inode (footnote 2).
    pub fn set_atime(&mut self, ino: Ino, atime_ns: u64) -> FsResult<()> {
        let idx = self.check(ino)?;
        self.entries[idx].atime_ns = atime_ns;
        self.mark_dirty(ino);
        Ok(())
    }

    /// Iterates over all allocated inode numbers.
    pub fn allocated_inos(&self) -> impl Iterator<Item = Ino> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.allocated)
            .map(|(i, _)| Ino(i as u32))
    }

    /// Marks an imap block dirty (cleaner relocation).
    pub fn mark_block_dirty(&mut self, index: usize) {
        self.in_use += usize::from(!self.dirty[index] && self.block_addrs[index].is_nil());
        self.dirty[index] = true;
    }

    /// Returns the indexes of dirty imap blocks.
    pub fn dirty_blocks(&self) -> Vec<usize> {
        (0..self.dirty.len()).filter(|&i| self.dirty[i]).collect()
    }

    /// Imap blocks a checkpoint may write: those dirty now or written
    /// before (a relocation or an inode change can dirty any of them).
    pub fn blocks_in_use(&self) -> usize {
        self.in_use
    }

    /// Returns true if any imap block is dirty.
    pub fn any_dirty(&self) -> bool {
        self.dirty.iter().any(|&d| d)
    }

    /// Serialises imap block `index`.
    pub fn encode_block(&self, index: usize, block_size: usize) -> Vec<u8> {
        let start = index * self.entries_per_block;
        let end = (start + self.entries_per_block).min(self.entries.len());
        imap_block::encode_block(&self.entries[start..end], block_size)
    }

    /// Marks block `index` clean and records its new log address.
    /// Returns the previous address.
    pub fn commit_block(&mut self, index: usize, addr: BlockAddr) -> BlockAddr {
        self.dirty[index] = false;
        std::mem::replace(&mut self.block_addrs[index], addr)
    }

    /// Current log address of imap block `index`.
    pub fn block_addr(&self, index: usize) -> BlockAddr {
        self.block_addrs[index]
    }

    /// All imap block addresses, for the checkpoint region.
    pub fn block_addrs(&self) -> &[BlockAddr] {
        &self.block_addrs
    }

    /// Decodes `block` as imap block `index`: its first inode number and
    /// its entries.
    fn decode(&self, index: usize, block: &[u8]) -> FsResult<(usize, Vec<ImapEntry>)> {
        let start = index * self.entries_per_block;
        let count = self.entries_per_block.min(self.entries.len() - start);
        Ok((start, imap_block::decode_block(block, count)?))
    }

    /// The inodes whose location, allocation or version loading `block`
    /// as block `index` would change (roll-forward).
    pub fn changed_by(&self, index: usize, block: &[u8]) -> FsResult<Vec<Ino>> {
        let (start, decoded) = self.decode(index, block)?;
        let footprint = |e: &ImapEntry| (e.addr, e.slot, e.allocated, e.version);
        Ok((start..)
            .zip(decoded)
            .filter(|(idx, e)| footprint(&self.entries[*idx]) != footprint(e))
            .map(|(idx, _)| Ino(idx as u32))
            .collect())
    }

    /// Loads the map from decoded blocks (mount path).
    pub fn load_block(&mut self, index: usize, addr: BlockAddr, block: &[u8]) -> FsResult<()> {
        let (start, decoded) = self.decode(index, block)?;
        for (offset, entry) in decoded.into_iter().enumerate() {
            let idx = start + offset;
            if self.entries[idx].allocated != entry.allocated {
                if entry.allocated {
                    self.live += 1;
                } else {
                    self.live -= 1;
                }
            }
            self.entries[idx] = entry;
        }
        let first = addr.is_some() && !self.dirty[index] && self.block_addrs[index].is_nil();
        self.in_use += usize::from(first);
        self.block_addrs[index] = addr;
        self.dirty[index] = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imap() -> Imap {
        Imap::new(64, 8)
    }

    #[test]
    fn allocate_skips_invalid_and_is_dense() {
        let mut m = imap();
        let a = m.allocate().unwrap();
        let b = m.allocate().unwrap();
        assert_eq!(a, Ino(1));
        assert_eq!(b, Ino(2));
        assert_eq!(m.live_count(), 2);
        assert!(m.is_allocated(a));
        assert!(!m.is_allocated(Ino(3)));
    }

    #[test]
    fn free_bumps_version_and_allows_reuse() {
        let mut m = imap();
        let ino = m.allocate().unwrap();
        let v0 = m.get(ino).unwrap().version;
        m.free(ino).unwrap();
        assert_eq!(m.get(ino).unwrap().version, v0 + 1);
        assert!(!m.is_allocated(ino));
        // Wraps around and finds the freed slot again.
        for _ in 0..62 {
            m.allocate().unwrap();
        }
        let reused = m.allocate().unwrap();
        assert_eq!(reused, ino);
        // Version survives reuse.
        assert_eq!(m.get(ino).unwrap().version, v0 + 1);
    }

    #[test]
    fn exhaustion_returns_no_inodes() {
        let mut m = Imap::new(4, 8);
        // Inodes 1..=3 are allocatable (0 is invalid).
        assert!(m.allocate().is_ok());
        assert!(m.allocate().is_ok());
        assert!(m.allocate().is_ok());
        assert_eq!(m.allocate(), Err(FsError::NoInodes));
    }

    #[test]
    fn double_free_is_detected() {
        let mut m = imap();
        let ino = m.allocate().unwrap();
        m.free(ino).unwrap();
        assert!(m.free(ino).is_err());
    }

    #[test]
    fn dirty_tracking_follows_blocks() {
        let mut m = imap();
        assert!(!m.any_dirty());
        let ino = m.allocate().unwrap(); // Ino 1, block 0.
        assert_eq!(m.dirty_blocks(), vec![0]);
        m.set_location(Ino(17), BlockAddr(5), 2).unwrap(); // Block 2.
        assert_eq!(m.dirty_blocks(), vec![0, 2]);
        let old = m.commit_block(0, BlockAddr(9));
        assert_eq!(old, BlockAddr::NIL);
        assert_eq!(m.dirty_blocks(), vec![2]);
        assert_eq!(m.block_addr(0), BlockAddr(9));
        // Blocks 0 and 2, each counted once however often dirtied.
        m.mark_block_dirty(0);
        assert_eq!(m.blocks_in_use(), 2);
        let _ = ino;
    }

    #[test]
    fn encode_load_round_trips() {
        let mut m = imap();
        let ino = m.allocate().unwrap();
        m.set_location(ino, BlockAddr(42), 1).unwrap();
        m.set_atime(ino, 777).unwrap();
        let block = m.encode_block(0, 512);

        let mut fresh = imap();
        fresh.load_block(0, BlockAddr(42), &block).unwrap();
        assert_eq!(fresh.get(ino).unwrap(), m.get(ino).unwrap());
        assert_eq!(fresh.live_count(), 1);
        assert!(!fresh.any_dirty());
        assert_eq!(fresh.block_addr(0), BlockAddr(42));
        assert_eq!(fresh.blocks_in_use(), 1);
    }

    #[test]
    fn restore_entry_adjusts_live_count() {
        let mut m = imap();
        m.restore_entry(
            Ino(5),
            ImapEntry {
                addr: BlockAddr(3),
                slot: 0,
                allocated: true,
                version: 7,
                atime_ns: 0,
            },
        )
        .unwrap();
        assert_eq!(m.live_count(), 1);
        m.restore_entry(Ino(5), ImapEntry::FREE).unwrap();
        assert_eq!(m.live_count(), 0);
    }

    #[test]
    fn allocated_inos_iterates() {
        let mut m = imap();
        let a = m.allocate().unwrap();
        let b = m.allocate().unwrap();
        m.free(a).unwrap();
        let live: Vec<Ino> = m.allocated_inos().collect();
        assert_eq!(live, vec![b]);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let m = imap();
        assert!(m.get(Ino(0)).is_err());
        assert!(m.get(Ino(64)).is_err());
    }
}
