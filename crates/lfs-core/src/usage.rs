//! The in-memory segment usage table (§4.3.4).
//!
//! Tracks, for every segment, an estimate of its live bytes, its state in
//! the segment life cycle, and the time of its last write. The cleaner
//! uses this to choose cheap victims; the allocator uses it to find clean
//! segments. "Since the usage level of nonclean segments is used only as a
//! hint during cleaning, costly exact crash recovery of this data
//! structure is not needed" — roll-forward adjusts it only for the
//! inodes the log tail touched.

use vfs::FsResult;

use crate::layout::usage_block::{self, SegState, UsageEntry};
use crate::types::{BlockAddr, SegNo};

/// The segment usage table.
#[derive(Debug, Clone)]
pub struct UsageTable {
    entries: Vec<UsageEntry>,
    seg_bytes: u64,
    entries_per_block: usize,
    /// Current log address of each usage block.
    block_addrs: Vec<BlockAddr>,
}

impl UsageTable {
    /// Creates a table of `nsegments` clean segments.
    pub fn new(nsegments: u32, seg_bytes: u64, entries_per_block: usize) -> Self {
        let nblocks = (nsegments as usize).div_ceil(entries_per_block).max(1);
        Self {
            entries: vec![UsageEntry::CLEAN; nsegments as usize],
            seg_bytes,
            entries_per_block,
            block_addrs: vec![BlockAddr::NIL; nblocks],
        }
    }

    /// Number of segments.
    pub fn nsegments(&self) -> u32 {
        self.entries.len() as u32
    }

    /// Segment capacity in bytes.
    pub fn seg_bytes(&self) -> u64 {
        self.seg_bytes
    }

    /// Number of usage blocks.
    pub fn nblocks(&self) -> usize {
        self.block_addrs.len()
    }

    /// Reads one entry.
    pub fn get(&self, seg: SegNo) -> UsageEntry {
        self.entries[seg.0 as usize]
    }

    /// Segment state.
    pub fn state(&self, seg: SegNo) -> SegState {
        self.entries[seg.0 as usize].state
    }

    /// Sets a segment's state.
    pub fn set_state(&mut self, seg: SegNo, state: SegState) {
        self.entries[seg.0 as usize].state = state;
        if state == SegState::Clean {
            self.entries[seg.0 as usize].live_bytes = 0;
        }
    }

    /// Records a write into `seg` of `bytes` live payload at time `now`.
    pub fn add_live(&mut self, seg: SegNo, bytes: u64, now_ns: u64) {
        let entry = &mut self.entries[seg.0 as usize];
        entry.live_bytes = (entry.live_bytes as u64 + bytes).min(self.seg_bytes) as u32;
        entry.last_write_ns = now_ns;
    }

    /// Records that `bytes` in `seg` died (overwritten or deleted).
    pub fn sub_live(&mut self, seg: SegNo, bytes: u64) {
        let entry = &mut self.entries[seg.0 as usize];
        entry.live_bytes = entry.live_bytes.saturating_sub(bytes as u32);
    }

    /// Live fraction of a segment, in `[0, 1]`.
    pub fn utilization(&self, seg: SegNo) -> f64 {
        self.entries[seg.0 as usize].live_bytes as f64 / self.seg_bytes as f64
    }

    /// Number of segments in [`SegState::Clean`].
    pub fn clean_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.state == SegState::Clean)
            .count()
    }

    /// Finds the next clean segment at or after `start`, wrapping around.
    pub fn next_clean(&self, start: SegNo) -> Option<SegNo> {
        let n = self.entries.len() as u32;
        (0..n)
            .map(|i| SegNo((start.0 + i) % n))
            .find(|&seg| self.state(seg) == SegState::Clean)
    }

    /// All segments in the given state.
    pub fn segments_in_state(&self, state: SegState) -> Vec<SegNo> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.state == state)
            .map(|(i, _)| SegNo(i as u32))
            .collect()
    }

    /// Promotes those of `segs` still [`SegState::CleanPending`] to
    /// clean — the set a checkpoint recorded when it was captured.
    /// Called when that checkpoint commits. Returns how many were
    /// promoted.
    pub fn commit_pending(&mut self, segs: &[SegNo]) -> usize {
        let mut promoted = 0;
        for &seg in segs {
            if self.state(seg) == SegState::CleanPending {
                self.set_state(seg, SegState::Clean);
                promoted += 1;
            }
        }
        promoted
    }

    /// Total live bytes across all segments.
    pub fn total_live_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.live_bytes as u64).sum()
    }

    /// Serialises usage block `index`.
    pub fn encode_block(&self, index: usize, block_size: usize) -> Vec<u8> {
        let start = index * self.entries_per_block;
        let end = (start + self.entries_per_block).min(self.entries.len());
        usage_block::encode_block(&self.entries[start..end], block_size)
    }

    /// Records the new log address of usage block `index`, returning the
    /// previous address.
    pub fn commit_block(&mut self, index: usize, addr: BlockAddr) -> BlockAddr {
        std::mem::replace(&mut self.block_addrs[index], addr)
    }

    /// Current log address of usage block `index`.
    pub fn block_addr(&self, index: usize) -> BlockAddr {
        self.block_addrs[index]
    }

    /// All usage block addresses, for the checkpoint region.
    pub fn block_addrs(&self) -> &[BlockAddr] {
        &self.block_addrs
    }

    /// Loads one usage block at mount.
    pub fn load_block(&mut self, index: usize, addr: BlockAddr, block: &[u8]) -> FsResult<()> {
        let start = index * self.entries_per_block;
        let count = self.entries_per_block.min(self.entries.len() - start);
        let decoded = usage_block::decode_block(block, count)?;
        self.entries[start..start + count].copy_from_slice(&decoded);
        self.block_addrs[index] = addr;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> UsageTable {
        UsageTable::new(8, 16 * 1024, 32)
    }

    #[test]
    fn starts_all_clean() {
        let t = table();
        assert_eq!(t.clean_count(), 8);
        assert_eq!(t.total_live_bytes(), 0);
        assert_eq!(t.state(SegNo(3)), SegState::Clean);
    }

    #[test]
    fn live_accounting_adds_and_subtracts() {
        let mut t = table();
        t.set_state(SegNo(0), SegState::Dirty);
        t.add_live(SegNo(0), 4096, 100);
        assert_eq!(t.get(SegNo(0)).live_bytes, 4096);
        assert_eq!(t.get(SegNo(0)).last_write_ns, 100);
        t.sub_live(SegNo(0), 1024);
        assert_eq!(t.get(SegNo(0)).live_bytes, 3072);
        // Saturates rather than underflowing.
        t.sub_live(SegNo(0), 1 << 30);
        assert_eq!(t.get(SegNo(0)).live_bytes, 0);
        assert!((t.utilization(SegNo(0)) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn add_live_clamps_to_segment_size() {
        let mut t = table();
        t.add_live(SegNo(1), 1 << 40, 5);
        assert_eq!(t.get(SegNo(1)).live_bytes as u64, t.seg_bytes());
        assert!((t.utilization(SegNo(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn next_clean_wraps_and_skips() {
        let mut t = table();
        for i in 0..8 {
            t.set_state(SegNo(i), SegState::Dirty);
        }
        assert_eq!(t.next_clean(SegNo(0)), None);
        t.set_state(SegNo(2), SegState::Clean);
        assert_eq!(t.next_clean(SegNo(5)), Some(SegNo(2)));
        assert_eq!(t.next_clean(SegNo(2)), Some(SegNo(2)));
    }

    #[test]
    fn commit_pending_promotes() {
        let mut t = table();
        t.set_state(SegNo(0), SegState::CleanPending);
        t.add_live(SegNo(0), 100, 1);
        t.set_state(SegNo(1), SegState::Dirty);
        t.set_state(SegNo(2), SegState::CleanPending);
        // Only the recorded set is promoted, and only while pending.
        assert_eq!(t.commit_pending(&[SegNo(0), SegNo(1)]), 1);
        assert_eq!(t.state(SegNo(0)), SegState::Clean);
        assert_eq!(t.get(SegNo(0)).live_bytes, 0);
        assert_eq!(t.state(SegNo(1)), SegState::Dirty);
        assert_eq!(t.state(SegNo(2)), SegState::CleanPending);
    }

    #[test]
    fn clean_state_resets_live_bytes() {
        let mut t = table();
        t.set_state(SegNo(4), SegState::Dirty);
        t.add_live(SegNo(4), 512, 9);
        t.set_state(SegNo(4), SegState::Clean);
        assert_eq!(t.get(SegNo(4)).live_bytes, 0);
    }

    #[test]
    fn encode_load_round_trips() {
        let mut t = table();
        t.set_state(SegNo(0), SegState::Active);
        t.add_live(SegNo(0), 2048, 55);
        t.set_state(SegNo(7), SegState::Dirty);
        t.add_live(SegNo(7), 512, 66);
        let block = t.encode_block(0, 512);

        let mut fresh = table();
        fresh.load_block(0, BlockAddr(33), &block).unwrap();
        assert_eq!(fresh.get(SegNo(0)), t.get(SegNo(0)));
        assert_eq!(fresh.get(SegNo(7)), t.get(SegNo(7)));
        assert_eq!(fresh.block_addr(0), BlockAddr(33));
    }

    #[test]
    fn segments_in_state_filters() {
        let mut t = table();
        t.set_state(SegNo(1), SegState::Dirty);
        t.set_state(SegNo(5), SegState::Dirty);
        assert_eq!(
            t.segments_in_state(SegState::Dirty),
            vec![SegNo(1), SegNo(5)]
        );
    }
}
