//! The in-memory inode table both file systems keep, paid for out of
//! the manager's budget.
//!
//! A resident inode costs its bytes, not a disk read. The table charges
//! `entry_bytes` per entry to the manager's reservation
//! ([`MemMgr::reserve`]) and may grow to fill the part of the budget the
//! write buffer does not claim ([`MemMgr::reservable_bytes`]). Past that
//! allowance [`InodeTable::bound`] drops its least-recently-used clean
//! entries; a dirty entry stays until its file system writes it out.
//! Recency is a per-entry stamp, so a hit costs one store and only an
//! eviction batch pays for ordering. Dropped inodes are remembered on a
//! ghost list: one read back from disk is a miss a larger read side
//! would have served, and the manager's tuner counts it as such
//! ([`MemMgr::note_reserved_ghost_hit`]).

use std::collections::BTreeMap;

use vfs::Ino;

use crate::ghost::GhostList;
use crate::{CacheReport, InodeTableReport, MemMgr};

obs::instruments! {
    /// The table's instruments, mounted in its file system's registry.
    #[derive(Debug)]
    pub(crate) struct TableObs {
        entries, Gauge, "inodes.entries", "Inodes resident in the table.";
        evictions, Counter, "inodes.evictions", "Clean inodes dropped to stay within the allowance.";
        ghost_hits, Counter, "inodes.ghost_hits", "Inodes read back from disk soon after the table \
            dropped them.";
        block_reads, Counter, "inodes.block_reads", "Inode blocks read from disk to load inodes, \
            foreground I/O class.";
        block_reads_maint, Counter, "inodes.block_reads_maint", "Inode blocks read from disk to load \
            inodes, maintenance I/O class (cleaning, checkpoints, recovery, scrub).";
    }
}

/// Use stamps count up from here; fills count down from just below, so
/// every filled entry is colder than every used one.
const HOT_BASE: u64 = 1 << 63;

#[derive(Debug)]
struct Entry<I> {
    inode: I,
    dirty: bool,
    stamp: u64,
}

/// Sets `entry`'s dirty bit, keeping `count` of the dirty entries.
fn set_dirty<I>(count: &mut usize, entry: &mut Entry<I>, dirty: bool) {
    *count = *count + usize::from(dirty) - usize::from(entry.dirty);
    entry.dirty = dirty;
}

/// Inodes by number, each with a dirty bit and a recency stamp.
///
/// Every walk (dirty inodes, eviction ties) is in ascending inode
/// order, so the table behaves the same in every process.
#[derive(Debug)]
pub struct InodeTable<I> {
    entries: BTreeMap<Ino, Entry<I>>,
    /// Entries whose dirty bit is set.
    ndirty: usize,
    /// Next use stamp.
    hot: u64,
    /// Next fill stamp.
    cold: u64,
    /// Inodes dropped recently, as many as the whole budget could hold.
    ghost: GhostList<Ino>,
    entry_bytes: usize,
    obs: TableObs,
}

impl<I> InodeTable<I> {
    /// An empty table charging `entry_bytes` per entry, its ghost list
    /// sized by `cache`'s budget and its instruments registered in
    /// `registry`.
    ///
    /// # Panics
    ///
    /// Panics if `entry_bytes` is zero.
    pub fn new(entry_bytes: usize, cache: &MemMgr, registry: &obs::Registry) -> Self {
        assert!(entry_bytes > 0, "an inode has a size");
        let budget = cache.capacity_blocks() * cache.block_size();
        Self {
            entries: BTreeMap::new(),
            ndirty: 0,
            hot: HOT_BASE,
            cold: HOT_BASE - 1,
            ghost: GhostList::new(budget / entry_bytes),
            entry_bytes,
            obs: TableObs::new(registry),
        }
    }

    /// Number of resident inodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if no inode is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns true if `ino` is resident, without touching recency.
    pub fn contains(&self, ino: Ino) -> bool {
        self.entries.contains_key(&ino)
    }

    /// Marks `ino` most recently used. Returns false if it is not
    /// resident.
    pub fn touch(&mut self, ino: Ino) -> bool {
        match self.entries.get_mut(&ino) {
            Some(entry) => {
                entry.stamp = self.hot;
                self.hot += 1;
                true
            }
            None => false,
        }
    }

    /// The resident copy of `ino`, without touching recency.
    pub fn get(&self, ino: Ino) -> Option<&I> {
        self.entries.get(&ino).map(|e| &e.inode)
    }

    /// The resident copy of `ino` for modification; marks it dirty.
    pub fn get_mut(&mut self, ino: Ino) -> Option<&mut I> {
        self.entries.get_mut(&ino).map(|e| {
            set_dirty(&mut self.ndirty, e, true);
            &mut e.inode
        })
    }

    /// Returns true if `ino` is resident and dirty.
    pub fn is_dirty(&self, ino: Ino) -> bool {
        self.entries.get(&ino).is_some_and(|e| e.dirty)
    }

    /// Installs `ino` as the most recently used entry, replacing any
    /// resident copy.
    pub fn insert(&mut self, ino: Ino, inode: I, dirty: bool) {
        self.ghost.remove(ino);
        let stamp = self.hot;
        self.hot += 1;
        let entry = Entry {
            inode,
            dirty,
            stamp,
        };
        if let Some(old) = self.entries.insert(ino, entry) {
            self.ndirty -= usize::from(old.dirty);
        }
        self.ndirty += usize::from(dirty);
    }

    /// Installs a clean `ino` read alongside another inode, at the cold
    /// end of the recency order: the first to go if nothing uses it.
    /// Never overwrites a resident copy; returns whether it installed.
    pub fn fill(&mut self, ino: Ino, inode: I) -> bool {
        if self.entries.contains_key(&ino) {
            return false;
        }
        self.ghost.remove(ino);
        let stamp = self.cold;
        self.cold -= 1;
        self.entries.insert(
            ino,
            Entry {
                inode,
                dirty: false,
                stamp,
            },
        );
        true
    }

    /// Marks a resident `ino` dirty. Returns false if it is not resident.
    pub fn mark_dirty(&mut self, ino: Ino) -> bool {
        (self.entries.get_mut(&ino))
            .map(|e| set_dirty(&mut self.ndirty, e, true))
            .is_some()
    }

    /// Marks `ino` clean after its file system wrote it out.
    pub fn mark_clean(&mut self, ino: Ino) {
        if let Some(entry) = self.entries.get_mut(&ino) {
            set_dirty(&mut self.ndirty, entry, false);
        }
    }

    /// Drops `ino` (freed, or made stale).
    pub fn remove(&mut self, ino: Ino) {
        if let Some(old) = self.entries.remove(&ino) {
            self.ndirty -= usize::from(old.dirty);
        }
        self.ghost.remove(ino);
    }

    /// Number of inodes with unwritten changes.
    pub fn dirty_count(&self) -> usize {
        self.ndirty
    }

    /// The inodes with unwritten changes, in ascending order.
    pub fn dirty_inos(&self) -> impl Iterator<Item = Ino> + '_ {
        self.entries
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(&ino, _)| ino)
    }

    /// Drops every clean entry and the ghost list (the benchmark "flush
    /// the caches" step).
    pub fn drop_clean(&mut self) {
        self.entries.retain(|_, e| e.dirty);
        self.ghost.clear();
    }

    /// Counts `blocks` inode blocks read from disk to load inodes, in
    /// the I/O class the reads ran under.
    pub fn note_block_reads(&self, blocks: u64, maintenance: bool) {
        if maintenance {
            self.obs.block_reads_maint.add(blocks);
        } else {
            self.obs.block_reads.add(blocks);
        }
    }

    /// Notes that loading `ino` has to read its inode block from disk.
    /// If the table dropped `ino` recently, that read is a miss a larger
    /// read side would have served: counted, and passed to `cache`'s
    /// tuner.
    pub fn note_disk_miss(&mut self, ino: Ino, cache: &mut MemMgr) {
        if self.ghost.lookup(ino).is_some() {
            self.obs.ghost_hits.inc();
            cache.note_reserved_ghost_hit();
        }
    }

    /// Entries the table may hold: the budget the write buffer of
    /// `cache` does not claim, in inodes.
    pub fn allowance(&self, cache: &MemMgr) -> usize {
        cache.reservable_bytes() / self.entry_bytes
    }

    /// Adds the table's occupancy and misses to `report`, a report of
    /// `cache`.
    pub fn report_into(&self, cache: &MemMgr, report: &mut CacheReport) {
        report.inodes = Some(InodeTableReport {
            entries: self.entries.len(),
            allowance: self.allowance(cache),
            evictions: self.obs.evictions.get(),
            block_reads: self.obs.block_reads.get(),
            block_reads_maint: self.obs.block_reads_maint.get(),
        });
    }

    /// Keeps the table within its allowance and charges what it holds
    /// to `cache`'s reservation. Over the allowance, the
    /// least-recently-used clean entries go, down to seven eighths of
    /// it, so one ordering pass pays for a batch; each batch is an
    /// `inode_evict` event. Dirty entries never go.
    pub fn bound(&mut self, cache: &mut MemMgr, now_ns: u64) {
        let allowance = self.allowance(cache);
        if self.entries.len() > allowance {
            let target = allowance - allowance / 8;
            let mut clean: Vec<(u64, Ino)> = (self.entries.iter())
                .filter(|(_, e)| !e.dirty)
                .map(|(&ino, e)| (e.stamp, ino))
                .collect();
            let excess = (self.entries.len() - target).min(clean.len());
            if excess > 0 {
                if excess < clean.len() {
                    clean.select_nth_unstable(excess);
                }
                for &(_, ino) in &clean[..excess] {
                    self.entries.remove(&ino);
                    self.ghost.insert(ino, None);
                }
                self.obs.evictions.add(excess as u64);
                self.obs.registry.event(
                    now_ns,
                    "inode_evict",
                    format!(
                        "allowance={allowance} entries={} evicted={excess}",
                        self.entries.len()
                    ),
                );
            }
        }
        self.obs.entries.set(self.entries.len() as u64);
        cache.reserve(self.entries.len() * self.entry_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockKey, MemConfig, WritebackPolicy};

    const BS: usize = 64;

    /// A 16-block shared cache: write target 12, so 4 blocks (8 entries
    /// of 32 bytes) are the table's.
    fn setup() -> (InodeTable<u32>, MemMgr, obs::Registry) {
        let registry = obs::Registry::new();
        let mut cache = MemMgr::new(BS, 16, MemConfig::shared(WritebackPolicy::paper()));
        cache.attach_obs(&registry);
        (InodeTable::new(32, &cache, &registry), cache, registry)
    }

    #[test]
    fn bound_drops_least_recent_clean_and_keeps_dirty() {
        let (mut table, mut cache, registry) = setup();
        assert_eq!(table.allowance(&cache), 8);
        for i in 1..=10 {
            table.insert(Ino(i), i, i % 5 == 1);
        }
        table.fill(Ino(20), 20);
        // Use 2 and 3 after everything else: they are the hottest.
        table.touch(Ino(2));
        table.touch(Ino(3));
        table.bound(&mut cache, 7);
        // 11 entries, target 7: the fill goes first, then 4, 5, 7
        // (clean, least recently used); dirty 1 and 6 stay.
        let left: Vec<u32> = table.entries.keys().map(|i| i.0).collect();
        assert_eq!(left, vec![1, 2, 3, 6, 8, 9, 10]);
        assert!(table.is_dirty(Ino(1)) && table.is_dirty(Ino(6)));
        assert_eq!(table.dirty_count(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("inodes.evictions"), 4);
        assert_eq!(snap.gauge("inodes.entries"), 7);
        assert_eq!(snap.gauge("cache.reserved_blocks"), 4);
        let event = snap
            .events
            .iter()
            .find(|e| e.kind == "inode_evict")
            .unwrap();
        assert_eq!(event.detail, "allowance=8 entries=7 evicted=4");
    }

    #[test]
    fn a_dropped_inode_read_back_is_read_side_evidence() {
        let registry = obs::Registry::new();
        let config = MemConfig::adaptive(WritebackPolicy::paper(), (4 * BS) as u64);
        let mut cache = MemMgr::new(BS, 64, config);
        cache.attach_obs(&registry);
        let mut table = InodeTable::new(32, &cache, &registry);
        // Write target 32 of 64 blocks: 64 entries allowed, a step is 2.
        cache.set_boundary(32);
        for i in 1..=80 {
            table.insert(Ino(i), i, false);
        }
        table.bound(&mut cache, 0);
        assert_eq!(table.len(), 56, "1..=24 dropped, least recent first");
        // An inode never dropped is no evidence; a dropped one is, and a
        // step's worth of them moves the boundary toward the read side.
        table.note_disk_miss(Ino(500), &mut cache);
        table.note_disk_miss(Ino(1), &mut cache);
        assert_eq!(cache.write_target(), 32);
        table.note_disk_miss(Ino(2), &mut cache);
        assert_eq!(cache.write_target(), 30);
        assert_eq!(registry.snapshot().counter("inodes.ghost_hits"), 2);
        // Back in the table, an inode is no longer a ghost.
        table.insert(Ino(3), 3, false);
        table.note_disk_miss(Ino(3), &mut cache);
        assert_eq!(registry.snapshot().counter("inodes.ghost_hits"), 2);
    }

    #[test]
    fn fill_never_overwrites_and_dirty_entries_outlast_the_allowance() {
        let (mut table, mut cache, _registry) = setup();
        table.insert(Ino(1), 1, true);
        assert!(!table.fill(Ino(1), 99));
        assert_eq!(table.get(Ino(1)), Some(&1));
        for i in 2..=12 {
            table.insert(Ino(i), i, true);
        }
        table.bound(&mut cache, 0);
        assert_eq!(table.len(), 12, "dirty inodes are never dropped");
        // Their six blocks' worth is charged only up to the four the
        // write buffer leaves: the block map keeps its write target.
        assert_eq!(cache.reserved_blocks(), 4);
        for i in 0..20 {
            cache.insert_clean(BlockKey::file(Ino(1), i), vec![0; BS].into_boxed_slice());
        }
        // Inserts borrow the reserved room until the next bound.
        assert_eq!(cache.len(), 16);
        table.bound(&mut cache, 0);
        assert_eq!(cache.len(), 12);
    }
}
