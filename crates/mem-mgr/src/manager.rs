//! The memory manager proper.

use std::collections::BTreeMap;
use std::ops::{RangeBounds, RangeInclusive};

use crate::config::{CachePolicy, FlushCause, MemConfig};
use crate::ghost::GhostList;
use crate::key::{BlockKey, Owner};
use crate::policy::{WritebackPolicy, WritebackTrigger, DIRTY_HIGH_WATER};
use crate::report::{CacheReport, CacheStats, ClientObs, ClientUsage, CoreObs};

/// Sentinel index terminating the intrusive lists.
const NIL: u32 = u32::MAX;

/// Flush reports per tuning decision.
const TUNE_WINDOW: u32 = 4;

/// Which pool a resident block lives in. Under [`CachePolicy::SharedLru`]
/// every block (clean or dirty) lives on the `Protected` list, which then
/// acts as the single LRU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    Write,
    Probation,
    Protected,
}

#[derive(Debug)]
struct Slot {
    key: BlockKey,
    data: Box<[u8]>,
    dirty: bool,
    /// Virtual time at which the block first became dirty (ns).
    dirty_since_ns: u64,
    /// Client charged for this block's memory (the faulting/writing one).
    client: Option<u32>,
    pool: Pool,
    prev: u32,
    next: u32,
}

/// An intrusive doubly-linked list over the slot slab. `head` is the MRU
/// (hot) end, `tail` the LRU (cold) end.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    len: usize,
}

impl List {
    const fn new() -> Self {
        List {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

/// Every key `owner` can have, as a range of the ordered map.
fn keys_of(owner: Owner) -> RangeInclusive<BlockKey> {
    BlockKey { owner, index: 0 }..=BlockKey {
        owner,
        index: u64::MAX,
    }
}

fn live(slots: &mut [Option<Slot>], idx: u32) -> &mut Slot {
    slots[idx as usize].as_mut().expect("live slot")
}

fn link_front(list: &mut List, slots: &mut [Option<Slot>], idx: u32) {
    let head = list.head;
    {
        let slot = live(slots, idx);
        slot.prev = NIL;
        slot.next = head;
    }
    if head != NIL {
        live(slots, head).prev = idx;
    } else {
        list.tail = idx;
    }
    list.head = idx;
    list.len += 1;
}

fn link_back(list: &mut List, slots: &mut [Option<Slot>], idx: u32) {
    let tail = list.tail;
    {
        let slot = live(slots, idx);
        slot.next = NIL;
        slot.prev = tail;
    }
    if tail != NIL {
        live(slots, tail).next = idx;
    } else {
        list.head = idx;
    }
    list.tail = idx;
    list.len += 1;
}

fn unlink(list: &mut List, slots: &mut [Option<Slot>], idx: u32) {
    let (prev, next) = {
        let slot = live(slots, idx);
        (slot.prev, slot.next)
    };
    if prev != NIL {
        live(slots, prev).next = next;
    } else {
        list.head = next;
    }
    if next != NIL {
        live(slots, next).prev = prev;
    } else {
        list.tail = prev;
    }
    list.len -= 1;
}

/// The split write-buffer / read-cache memory manager.
///
/// See the crate docs for the design. The manager never does I/O
/// itself: the owning file system reads misses from disk and decides
/// when (and in what layout) dirty blocks are written back. Dirty blocks
/// are never evicted — the capacity bound is enforced against *clean*
/// blocks, and [`MemMgr::writeback_trigger`] tells the file system when
/// dirtiness itself demands action.
#[derive(Debug)]
pub struct MemMgr {
    /// Resident blocks by key. Ordered (owner, then index), so one
    /// owner's blocks are a key range and the per-owner queries —
    /// several per flushed file, one per unlink, one per sealed
    /// segment — cost that owner's blocks, not the whole cache.
    map: BTreeMap<BlockKey, u32>,
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    /// Dirty blocks (adaptive mode only).
    write_list: List,
    /// First-touch clean blocks (adaptive); unused under shared LRU.
    probation: List,
    /// Re-referenced clean blocks (adaptive); the single LRU list
    /// (clean *and* dirty) under shared LRU.
    protected: List,
    block_size: usize,
    capacity_blocks: usize,
    config: MemConfig,
    /// Minimum `dirty_since_ns` over all dirty blocks (u64::MAX when
    /// none). Reset only when the dirty count hits zero — a
    /// conservative rule, so the age trigger can fire early but never
    /// late.
    oldest_dirty_ns: u64,
    dirty_count: usize,
    ghost: GhostList,
    /// The boundary: dirty blocks at/above this trigger a flush. Under
    /// shared LRU this is the fixed dirty high-water mark.
    write_target: usize,
    min_write: usize,
    max_write: usize,
    step: usize,
    win_flushes: u32,
    win_ghost_hits: u64,
    win_waste_chunks: u64,
    active_client: Option<u32>,
    clients: BTreeMap<u32, ClientUsage>,
    /// Instruments of the clients seen so far, ids below
    /// [`obs::PER_CLIENT_INSTRUMENTS_MAX`] only; [`ClientUsage`] is kept
    /// for every client regardless.
    client_obs: BTreeMap<u32, ClientObs>,
    obs: CoreObs,
}

impl MemMgr {
    /// Creates a manager holding up to `capacity_blocks` blocks of
    /// `block_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(block_size: usize, capacity_blocks: usize, config: MemConfig) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(capacity_blocks > 0, "capacity must be positive");
        let min_write = (capacity_blocks / 16).max(1);
        let max_write = capacity_blocks
            .saturating_sub((capacity_blocks / 8).max(1))
            .max(min_write);
        let high_water =
            ((capacity_blocks as f64 * DIRTY_HIGH_WATER) as usize).max(1);
        let write_target = match config.policy {
            CachePolicy::SharedLru => high_water,
            CachePolicy::Adaptive => high_water.clamp(min_write, max_write),
        };
        let mgr = Self {
            map: BTreeMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            write_list: List::new(),
            probation: List::new(),
            protected: List::new(),
            block_size,
            capacity_blocks,
            config,
            oldest_dirty_ns: u64::MAX,
            dirty_count: 0,
            // ARC-style ghost depth: remember up to twice the resident
            // capacity in evicted keys, so a working-set block whose
            // re-touch interval exceeds its probation lifetime (e.g.
            // under a streaming scan) can still earn promotion on its
            // second miss. Entries are key-sized — a few per-cent
            // overhead against block-sized residents.
            ghost: GhostList::new(capacity_blocks * 2),
            write_target,
            min_write,
            max_write,
            step: (capacity_blocks / 32).max(1),
            win_flushes: 0,
            win_ghost_hits: 0,
            win_waste_chunks: 0,
            active_client: None,
            clients: BTreeMap::new(),
            client_obs: BTreeMap::new(),
            obs: CoreObs::new(&obs::Registry::new()),
        };
        mgr.publish_gauges();
        mgr
    }

    /// Mounts the manager's registry in a shared [`obs::Registry`];
    /// counts accumulated so far come along.
    pub fn attach_obs(&mut self, registry: &obs::Registry) {
        registry.mount("", &self.obs.registry);
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Capacity in blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// Number of cached blocks (clean + dirty).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns true if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of dirty blocks.
    pub fn dirty_count(&self) -> usize {
        self.dirty_count
    }

    /// Number of clean blocks.
    pub fn clean_count(&self) -> usize {
        self.map.len() - self.dirty_count
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.obs.stats()
    }

    /// The active write-back policy.
    pub fn policy(&self) -> WritebackPolicy {
        self.config.writeback
    }

    /// The active replacement policy.
    pub fn cache_policy(&self) -> CachePolicy {
        self.config.policy
    }

    /// Current write-buffer boundary in blocks.
    pub fn write_target(&self) -> usize {
        self.write_target
    }

    /// Misses that landed on a ghost entry so far.
    pub fn ghost_hits(&self) -> u64 {
        self.obs.ghost_hits.get()
    }

    /// Times the adaptive boundary has moved.
    pub fn boundary_moves(&self) -> u64 {
        self.obs.boundary_moves.get()
    }

    /// Sets the client subsequent accesses are attributed to (hit/miss
    /// counters) and charged for (resident blocks they fault or write).
    pub fn set_client(&mut self, client: Option<u32>) {
        self.active_client = client;
    }

    // ---- accounting helpers -------------------------------------------

    fn client_obs_handle(&mut self, id: u32) -> Option<&ClientObs> {
        if id as usize >= obs::PER_CLIENT_INSTRUMENTS_MAX {
            return None;
        }
        let registry = &self.obs.registry;
        Some(self.client_obs.entry(id).or_insert_with(|| {
            let cobs = ClientObs::new(&obs::Registry::new());
            registry.mount(&format!("cache.client.{id:03}."), &cobs.registry);
            cobs
        }))
    }

    fn note_hit(&mut self) {
        self.obs.hits.inc();
        if let Some(c) = self.active_client {
            self.clients.entry(c).or_default().hits += 1;
            if let Some(cobs) = self.client_obs_handle(c) {
                cobs.hits.inc();
            }
        }
    }

    fn note_miss(&mut self, key: BlockKey) {
        self.obs.misses.inc();
        let ghosted = self.config.policy == CachePolicy::Adaptive && self.ghost.lookup(key).is_some();
        if ghosted {
            self.win_ghost_hits += 1;
            self.obs.ghost_hits.inc();
        }
        if let Some(c) = self.active_client {
            let usage = self.clients.entry(c).or_default();
            usage.misses += 1;
            if ghosted {
                usage.ghost_hits += 1;
            }
            if let Some(cobs) = self.client_obs_handle(c) {
                cobs.misses.inc();
                if ghosted {
                    cobs.ghost_hits.inc();
                }
            }
        }
    }

    fn charge(&mut self, client: Option<u32>, delta: i64) {
        if let Some(c) = client {
            let usage = self.clients.entry(c).or_default();
            usage.resident_blocks = (usage.resident_blocks as i64 + delta).max(0) as u64;
            let resident = usage.resident_blocks;
            if let Some(cobs) = self.client_obs_handle(c) {
                cobs.resident_blocks.set(resident);
            }
        }
    }

    /// Moves the memory charge for a slot to the active client.
    fn retag(&mut self, idx: u32) {
        let old = self.slots[idx as usize].as_ref().expect("live slot").client;
        let new = self.active_client;
        if old != new {
            self.charge(old, -1);
            self.charge(new, 1);
            live(&mut self.slots, idx).client = new;
        }
    }

    fn publish_gauges(&self) {
        let (wt, rt, prob, prot) = match self.config.policy {
            CachePolicy::SharedLru => {
                (self.write_target as u64, self.capacity_blocks as u64, 0, 0)
            }
            CachePolicy::Adaptive => (
                self.write_target as u64,
                (self.capacity_blocks - self.write_target) as u64,
                self.probation.len as u64,
                self.protected.len as u64,
            ),
        };
        self.obs.write_target_blocks.set(wt);
        self.obs.read_target_blocks.set(rt);
        self.obs.dirty_blocks.set(self.dirty_count as u64);
        self.obs.clean_blocks.set(self.clean_count() as u64);
        self.obs.probation_blocks.set(prob);
        self.obs.protected_blocks.set(prot);
        self.obs.ghost_blocks.set(self.ghost.len() as u64);
    }

    // ---- list plumbing -------------------------------------------------

    fn unlink_from(&mut self, pool: Pool, idx: u32) {
        let Self {
            write_list,
            probation,
            protected,
            slots,
            ..
        } = self;
        let list = match pool {
            Pool::Write => write_list,
            Pool::Probation => probation,
            Pool::Protected => protected,
        };
        unlink(list, slots, idx);
    }

    fn link_front_to(&mut self, pool: Pool, idx: u32) {
        let Self {
            write_list,
            probation,
            protected,
            slots,
            ..
        } = self;
        let list = match pool {
            Pool::Write => write_list,
            Pool::Probation => probation,
            Pool::Protected => protected,
        };
        link_front(list, slots, idx);
        live(slots, idx).pool = pool;
    }

    fn link_back_to(&mut self, pool: Pool, idx: u32) {
        let Self {
            write_list,
            probation,
            protected,
            slots,
            ..
        } = self;
        let list = match pool {
            Pool::Write => write_list,
            Pool::Probation => probation,
            Pool::Protected => protected,
        };
        link_back(list, slots, idx);
        live(slots, idx).pool = pool;
    }

    fn alloc(&mut self, slot: Slot) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(slot);
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Some(slot));
                idx
            }
        }
    }

    /// Drops a resident slot without counting an eviction (removal /
    /// invalidation paths).
    fn discard_idx(&mut self, idx: u32) -> Slot {
        let (pool, key, client) = {
            let slot = self.slots[idx as usize].as_ref().expect("live slot");
            (slot.pool, slot.key, slot.client)
        };
        self.unlink_from(pool, idx);
        self.map.remove(&key);
        self.charge(client, -1);
        let slot = self.slots[idx as usize].take().expect("live slot");
        self.free.push(idx);
        if slot.dirty {
            self.dirty_count -= 1;
            if self.dirty_count == 0 {
                self.oldest_dirty_ns = u64::MAX;
            }
        }
        slot
    }

    /// Evicts a clean slot: like [`discard_idx`] but counted, and (in
    /// adaptive mode) remembered on the ghost list.
    fn evict_idx(&mut self, idx: u32) {
        let slot = self.discard_idx(idx);
        debug_assert!(!slot.dirty, "never evict dirty blocks");
        self.obs.evictions.inc();
        if self.config.policy == CachePolicy::Adaptive {
            self.ghost.insert(slot.key, slot.client);
        }
    }

    /// Shared-LRU victim: the least-recently-used clean block, i.e. the
    /// first clean slot walking from the cold end of the single list.
    fn shared_victim(&self) -> Option<u32> {
        let mut idx = self.protected.tail;
        while idx != NIL {
            let slot = self.slots[idx as usize].as_ref().expect("live slot");
            if !slot.dirty {
                return Some(idx);
            }
            idx = slot.prev;
        }
        None
    }

    /// Adaptive victim: prefer the probation FIFO while it holds more
    /// than its share (or the protected pool is empty), so one-touch
    /// blocks absorb scans before re-referenced blocks pay.
    fn adaptive_victim(&self) -> Option<u32> {
        let probation_target = (self.clean_count() / 4).max(1);
        let from_probation = self.probation.len > probation_target || self.protected.len == 0;
        if from_probation && self.probation.tail != NIL {
            Some(self.probation.tail)
        } else if self.protected.tail != NIL {
            Some(self.protected.tail)
        } else if self.probation.tail != NIL {
            Some(self.probation.tail)
        } else {
            None
        }
    }

    /// Adaptive budget: clean blocks may borrow any memory the write
    /// buffer is not using, so only a true over-capacity state evicts.
    fn enforce_budget(&mut self) {
        while self.map.len() > self.capacity_blocks && self.clean_count() > 0 {
            match self.adaptive_victim() {
                Some(idx) => self.evict_idx(idx),
                None => break,
            }
        }
    }

    // ---- lookups -------------------------------------------------------

    /// Looks up a block, counting a hit or miss (and, in adaptive mode, a
    /// ghost hit on misses of recently evicted keys).
    pub fn get(&mut self, key: BlockKey) -> Option<&[u8]> {
        match self.map.get(&key).copied() {
            Some(idx) => {
                self.note_hit();
                let pool = self.slots[idx as usize].as_ref().expect("live slot").pool;
                match self.config.policy {
                    CachePolicy::SharedLru => {
                        self.unlink_from(pool, idx);
                        self.link_front_to(Pool::Protected, idx);
                    }
                    CachePolicy::Adaptive => match pool {
                        Pool::Write => {}
                        Pool::Probation => {
                            self.unlink_from(pool, idx);
                            self.link_front_to(Pool::Protected, idx);
                            self.obs.promotions.inc();
                            self.publish_gauges();
                        }
                        Pool::Protected => {
                            self.unlink_from(pool, idx);
                            self.link_front_to(Pool::Protected, idx);
                        }
                    },
                }
                Some(&self.slots[idx as usize].as_ref().expect("live slot").data)
            }
            None => {
                self.note_miss(key);
                None
            }
        }
    }

    /// Returns true if the block is cached, without touching recency or
    /// stats.
    pub fn contains(&self, key: BlockKey) -> bool {
        self.map.contains_key(&key)
    }

    /// Looks up a block without touching recency, hit/miss stats, or
    /// pool membership. For maintenance passes (recovery's metadata
    /// gather) that must not perturb the cache's observable behaviour.
    pub fn peek(&self, key: BlockKey) -> Option<&[u8]> {
        self.map
            .get(&key)
            .map(|&idx| &*self.slots[idx as usize].as_ref().expect("live slot").data)
    }

    /// Returns true if the block is cached and dirty.
    pub fn is_dirty(&self, key: BlockKey) -> bool {
        self.map
            .get(&key)
            .is_some_and(|&idx| self.slots[idx as usize].as_ref().expect("live slot").dirty)
    }

    /// Looks up a block for modification, marking it dirty (it moves into
    /// the write buffer) and charging it to the active client.
    pub fn get_mut(&mut self, key: BlockKey, now_ns: u64) -> Option<&mut [u8]> {
        match self.map.get(&key).copied() {
            Some(idx) => {
                self.note_hit();
                self.retag(idx);
                let (pool, was_dirty) = {
                    let slot = self.slots[idx as usize].as_ref().expect("live slot");
                    (slot.pool, slot.dirty)
                };
                if !was_dirty {
                    {
                        let slot = live(&mut self.slots, idx);
                        slot.dirty = true;
                        slot.dirty_since_ns = now_ns;
                    }
                    self.dirty_count += 1;
                    self.oldest_dirty_ns = self.oldest_dirty_ns.min(now_ns);
                }
                match self.config.policy {
                    CachePolicy::SharedLru => {
                        self.unlink_from(pool, idx);
                        self.link_front_to(Pool::Protected, idx);
                    }
                    CachePolicy::Adaptive => {
                        if !was_dirty {
                            self.unlink_from(pool, idx);
                            self.link_front_to(Pool::Write, idx);
                        }
                    }
                }
                self.publish_gauges();
                Some(&mut live(&mut self.slots, idx).data)
            }
            None => {
                self.note_miss(key);
                None
            }
        }
    }

    // ---- inserts -------------------------------------------------------

    /// Shared-LRU eviction: evict least-recently-used *clean* blocks
    /// while at capacity; if everything is dirty, overflow (the CacheFull
    /// trigger tells the FS to flush).
    fn shared_evict_for_insert(&mut self) {
        while self.map.len() >= self.capacity_blocks {
            match self.shared_victim() {
                Some(idx) => self.evict_idx(idx),
                None => break,
            }
        }
    }

    fn insert_slot(&mut self, key: BlockKey, data: Box<[u8]>, dirty: bool, now_ns: u64) {
        assert_eq!(data.len(), self.block_size, "cached block has wrong size");
        if self.config.policy == CachePolicy::SharedLru {
            self.shared_evict_for_insert();
        }
        let was_ghost =
            self.config.policy == CachePolicy::Adaptive && self.ghost.remove(key);
        if let Some(idx) = self.map.get(&key).copied() {
            // Replace in place: the old contents (dirty or not) are dead.
            let (pool, old_dirty) = {
                let slot = self.slots[idx as usize].as_ref().expect("live slot");
                (slot.pool, slot.dirty)
            };
            self.unlink_from(pool, idx);
            if old_dirty {
                self.dirty_count -= 1;
                if self.dirty_count == 0 {
                    self.oldest_dirty_ns = u64::MAX;
                }
            }
            self.retag(idx);
            {
                let slot = live(&mut self.slots, idx);
                slot.data = data;
                slot.dirty = dirty;
                slot.dirty_since_ns = if dirty { now_ns } else { u64::MAX };
            }
            self.place(idx, dirty, was_ghost);
        } else {
            let idx = self.alloc(Slot {
                key,
                data,
                dirty,
                dirty_since_ns: if dirty { now_ns } else { u64::MAX },
                client: self.active_client,
                pool: Pool::Protected,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, idx);
            self.charge(self.active_client, 1);
            self.place(idx, dirty, was_ghost);
        }
        if dirty {
            self.dirty_count += 1;
            self.oldest_dirty_ns = self.oldest_dirty_ns.min(now_ns);
        }
        if self.config.policy == CachePolicy::Adaptive {
            self.enforce_budget();
        }
        self.publish_gauges();
    }

    /// Links a (re)inserted slot into the pool its state calls for.
    fn place(&mut self, idx: u32, dirty: bool, was_ghost: bool) {
        let pool = match self.config.policy {
            CachePolicy::SharedLru => Pool::Protected,
            CachePolicy::Adaptive => {
                if dirty {
                    Pool::Write
                } else if was_ghost {
                    // A ghost hit coming back is a proven re-reference:
                    // it skips probation.
                    Pool::Protected
                } else {
                    Pool::Probation
                }
            }
        };
        self.link_front_to(pool, idx);
    }

    /// Inserts a block read from disk (clean).
    pub fn insert_clean(&mut self, key: BlockKey, data: Box<[u8]>) {
        self.insert_slot(key, data, false, 0);
    }

    /// Inserts a freshly written block (dirty as of `now_ns`).
    pub fn insert_dirty(&mut self, key: BlockKey, data: Box<[u8]>, now_ns: u64) {
        self.insert_slot(key, data, true, now_ns);
    }

    // ---- write-back ----------------------------------------------------

    /// Marks a block clean after it has been written to disk. In adaptive
    /// mode the block leaves the write buffer for the *cold* end of
    /// probation, so flush churn drains before it touches the read
    /// working set. No-op if the block is absent or already clean.
    pub fn mark_clean(&mut self, key: BlockKey) {
        if let Some(idx) = self.map.get(&key).copied() {
            let (pool, dirty) = {
                let slot = self.slots[idx as usize].as_ref().expect("live slot");
                (slot.pool, slot.dirty)
            };
            if !dirty {
                return;
            }
            {
                let slot = live(&mut self.slots, idx);
                slot.dirty = false;
                slot.dirty_since_ns = u64::MAX;
            }
            self.dirty_count -= 1;
            if self.dirty_count == 0 {
                self.oldest_dirty_ns = u64::MAX;
            }
            if self.config.policy == CachePolicy::Adaptive {
                self.unlink_from(pool, idx);
                self.link_back_to(Pool::Probation, idx);
                self.enforce_budget();
            }
            self.publish_gauges();
        }
    }

    /// Reports a completed flush: `bytes` written in `chunk_writes`
    /// segment-sized device writes, and why. Feeds the flush-efficiency
    /// gauge and (in adaptive mode) the boundary tuner.
    pub fn note_flush(&mut self, bytes: u64, chunk_writes: u64, cause: FlushCause) {
        self.obs.flush_bytes.add(bytes);
        self.obs.flush_chunk_writes.add(chunk_writes);
        let unit = self.config.flush_unit_bytes;
        if unit == 0 || chunk_writes == 0 {
            return;
        }
        self.obs.flush_eff_millis.set(bytes * 1000 / (chunk_writes * unit));
        if self.config.policy != CachePolicy::Adaptive {
            return;
        }
        // Waste: segment writes beyond what the flushed bytes needed,
        // plus a structural penalty when cache pressure itself could not
        // fill even one segment (the write buffer is too small). Only
        // pressure flushes are charged — sync and age flushes drain
        // whatever happens to be dirty, so their fragmentation says
        // nothing about the boundary.
        let mut waste = 0;
        if cause == FlushCause::CachePressure {
            let ideal = bytes.div_ceil(unit).max(1);
            waste = chunk_writes.saturating_sub(ideal);
            if bytes < unit {
                waste += 1;
            }
        }
        self.win_waste_chunks += waste;
        self.win_flushes += 1;
        if self.win_flushes >= TUNE_WINDOW {
            self.tune();
        }
    }

    /// One tuning decision: compare the window's read-side marginal
    /// benefit (ghost hits — misses a bigger read pool would have served)
    /// against the write side's flush-efficiency loss (wasted partial
    /// segment writes), and move the boundary one step toward the
    /// starving pool.
    fn tune(&mut self) {
        let unit_blocks = ((self.config.flush_unit_bytes as usize) / self.block_size).max(1);
        let floor = unit_blocks.clamp(self.min_write, self.max_write);
        let old = self.write_target;
        if self.win_waste_chunks > 0 {
            // Flushes are underfilling segments: grow the write buffer.
            self.write_target = (self.write_target + self.step).min(self.max_write);
        } else if self.win_ghost_hits as usize >= self.step
            && self.write_target.saturating_sub(self.step) >= floor
        {
            // Reads are starving and the buffer can still fill whole
            // segments after shrinking: give the read pool a step.
            self.write_target -= self.step;
        }
        if self.write_target != old {
            self.obs.boundary_moves.inc();
            self.publish_gauges();
        }
        self.win_flushes = 0;
        self.win_ghost_hits = 0;
        self.win_waste_chunks = 0;
    }

    /// Forces the boundary to `write_blocks` (clamped to the legal
    /// range). A test/tooling hook — the tuner keeps moving it afterwards.
    pub fn set_boundary(&mut self, write_blocks: usize) {
        let clamped = write_blocks.clamp(self.min_write, self.max_write);
        if clamped != self.write_target {
            self.write_target = clamped;
            self.obs.boundary_moves.inc();
            if self.config.policy == CachePolicy::Adaptive {
                self.enforce_budget();
            }
            self.publish_gauges();
        }
    }

    // ---- removal -------------------------------------------------------

    /// Removes a block entirely (e.g. the file was deleted). Returns true
    /// if it was present. Dirty contents are discarded — they are dead.
    pub fn remove(&mut self, key: BlockKey) -> bool {
        self.ghost.remove(key);
        match self.map.get(&key).copied() {
            Some(idx) => {
                self.discard_idx(idx);
                self.publish_gauges();
                true
            }
            None => false,
        }
    }

    /// Removes every resident block and ghost whose key lies in `keys`.
    fn remove_range(&mut self, keys: impl RangeBounds<BlockKey> + Clone) {
        let doomed: Vec<u32> = self.map.range(keys.clone()).map(|(_, &idx)| idx).collect();
        for idx in doomed {
            self.discard_idx(idx);
        }
        self.ghost.retain(|k| !keys.contains(&k));
        self.publish_gauges();
    }

    /// Removes every block belonging to `owner` (deleted file).
    pub fn remove_owner(&mut self, owner: Owner) {
        self.remove_range(keys_of(owner));
    }

    /// Removes keys of `owner` with `lo <= index < hi` (e.g. purging
    /// address-keyed metadata blocks when a disk region is reused).
    pub fn remove_owner_index_range(&mut self, owner: Owner, lo: u64, hi: u64) {
        // An empty or inverted interval names nothing (and `range`
        // panics on one).
        if lo < hi {
            self.remove_range(BlockKey { owner, index: lo }..BlockKey { owner, index: hi });
        }
    }

    /// Drops all clean blocks and the ghost history (the benchmark
    /// "flush the file cache" step).
    pub fn drop_clean(&mut self) {
        let keys: Vec<BlockKey> = self
            .map
            .iter()
            .filter(|(_, &idx)| !self.slots[idx as usize].as_ref().expect("live slot").dirty)
            .map(|(&key, _)| key)
            .collect();
        for key in keys {
            let idx = self.map[&key];
            self.discard_idx(idx);
        }
        self.ghost.clear();
        self.publish_gauges();
    }

    // ---- dirty-set queries ---------------------------------------------

    fn dirty_keys_in(&self, keys: impl RangeBounds<BlockKey>) -> Vec<BlockKey> {
        self.map
            .range(keys)
            .filter(|(_, &idx)| self.slots[idx as usize].as_ref().expect("live slot").dirty)
            .map(|(&key, _)| key)
            .collect()
    }

    /// Returns the keys of all dirty blocks, sorted for deterministic
    /// write-back order (by owner, then index).
    pub fn dirty_keys(&self) -> Vec<BlockKey> {
        self.dirty_keys_in(..)
    }

    /// Returns dirty keys of a single owner, sorted by index.
    pub fn dirty_keys_of(&self, owner: Owner) -> Vec<BlockKey> {
        self.dirty_keys_in(keys_of(owner))
    }

    /// Checks whether the file system should start a write-back now:
    /// the dirty pool reached the boundary, or the oldest dirty block
    /// exceeded the age threshold.
    pub fn writeback_trigger(&self, now_ns: u64) -> Option<WritebackTrigger> {
        if self.dirty_count >= self.write_target.max(1) {
            return Some(WritebackTrigger::CacheFull);
        }
        if self.oldest_dirty_ns != u64::MAX
            && now_ns.saturating_sub(self.oldest_dirty_ns) >= self.config.writeback.age_threshold_ns
        {
            return Some(WritebackTrigger::AgeThreshold);
        }
        None
    }

    // ---- reporting -----------------------------------------------------

    /// Point-in-time report of pools, boundary, counters and per-client
    /// charges.
    pub fn report(&self) -> CacheReport {
        let (probation, protected) = match self.config.policy {
            CachePolicy::SharedLru => (0, 0),
            CachePolicy::Adaptive => (self.probation.len, self.protected.len),
        };
        CacheReport {
            policy: self.config.policy,
            block_size: self.block_size,
            capacity_blocks: self.capacity_blocks,
            write_target_blocks: self.write_target,
            read_target_blocks: match self.config.policy {
                CachePolicy::SharedLru => self.capacity_blocks,
                CachePolicy::Adaptive => self.capacity_blocks - self.write_target,
            },
            dirty_blocks: self.dirty_count,
            clean_blocks: self.clean_count(),
            probation_blocks: probation,
            protected_blocks: protected,
            ghost_blocks: self.ghost.len(),
            stats: self.stats(),
            ghost_hits: self.ghost_hits(),
            promotions: self.obs.promotions.get(),
            boundary_moves: self.boundary_moves(),
            flush_eff_millis: self.obs.flush_eff_millis.get(),
            clients: self.clients.iter().map(|(&id, &u)| (id, u)).collect(),
        }
    }

    /// Per-client usage for one client (zeroes if never seen).
    pub fn client_usage(&self, id: u32) -> ClientUsage {
        self.clients.get(&id).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::Ino;

    const BS: usize = 64;

    fn shared(capacity: usize) -> MemMgr {
        MemMgr::new(BS, capacity, MemConfig::shared(WritebackPolicy::paper()))
    }

    fn adaptive(capacity: usize) -> MemMgr {
        // Flush unit of 4 blocks so tuner floors are small in tests.
        MemMgr::new(
            BS,
            capacity,
            MemConfig::adaptive(WritebackPolicy::paper(), (4 * BS) as u64),
        )
    }

    fn k(ino: u32, index: u64) -> BlockKey {
        BlockKey::file(Ino(ino), index)
    }

    fn block(fill: u8) -> Box<[u8]> {
        vec![fill; BS].into_boxed_slice()
    }

    #[test]
    fn shared_lru_evicts_least_recent_clean() {
        let mut c = shared(2);
        c.insert_clean(k(1, 0), block(1));
        c.insert_clean(k(1, 1), block(2));
        c.get(k(1, 0));
        c.insert_clean(k(1, 2), block(3));
        assert!(c.contains(k(1, 0)));
        assert!(!c.contains(k(1, 1)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn dirty_blocks_never_evicted_either_policy() {
        for mut c in [shared(2), adaptive(2)] {
            c.insert_dirty(k(1, 0), block(1), 100);
            c.insert_dirty(k(1, 1), block(2), 200);
            c.insert_clean(k(1, 2), block(3));
            assert!(c.contains(k(1, 0)) && c.contains(k(1, 1)));
            assert_eq!(c.dirty_count(), 2);
        }
    }

    #[test]
    fn adaptive_scan_does_not_evict_protected() {
        let mut c = adaptive(8);
        // Build a re-referenced working set of 3 blocks.
        for i in 0..3 {
            c.insert_clean(k(1, i), block(i as u8));
        }
        for i in 0..3 {
            c.get(k(1, i)); // promote to protected
        }
        // Stream 100 one-touch blocks through the cache.
        for i in 0..100 {
            c.insert_clean(k(2, i), block(0));
        }
        for i in 0..3 {
            assert!(c.contains(k(1, i)), "scan evicted protected block {i}");
        }
        assert!(c.report().promotions >= 3);
    }

    #[test]
    fn shared_lru_scan_evicts_working_set() {
        // The contrast case: the same traffic kills the hot set in LRU.
        let mut c = shared(8);
        for i in 0..3 {
            c.insert_clean(k(1, i), block(i as u8));
        }
        for i in 0..3 {
            c.get(k(1, i));
        }
        for i in 0..100 {
            c.insert_clean(k(2, i), block(0));
        }
        assert!((0..3).all(|i| !c.contains(k(1, i))));
    }

    #[test]
    fn ghost_hit_is_counted_and_promotes_on_return() {
        let mut c = adaptive(4);
        for i in 0..20 {
            c.insert_clean(k(1, i), block(0));
        }
        // The last few evicted keys are ghosts (ghost capacity = twice
        // the cache capacity); the very first keys have aged out.
        assert!(c.get(k(1, 12)).is_none());
        assert_eq!(c.ghost_hits(), 1);
        c.insert_clean(k(1, 12), block(9));
        // Came back from the ghost list: protected directly.
        let report = c.report();
        assert!(report.protected_blocks >= 1);
        assert!(c.contains(k(1, 12)));
    }

    #[test]
    fn mark_clean_moves_to_cold_probation() {
        let mut c = adaptive(4);
        c.insert_dirty(k(1, 0), block(1), 10);
        assert_eq!(c.dirty_count(), 1);
        c.mark_clean(k(1, 0));
        assert_eq!(c.dirty_count(), 0);
        assert!(!c.is_dirty(k(1, 0)));
        // Fill the cache: the flushed block should be first to go.
        for i in 1..5 {
            c.insert_clean(k(1, i), block(0));
        }
        assert!(!c.contains(k(1, 0)), "flushed block should evict first");
    }

    #[test]
    fn adaptive_trigger_follows_boundary() {
        let mut c = adaptive(32);
        let target = c.write_target();
        for i in 0..target as u64 {
            c.insert_dirty(k(1, i), block(0), 0);
        }
        assert_eq!(c.writeback_trigger(0), Some(WritebackTrigger::CacheFull));
        c.set_boundary(c.capacity_blocks()); // clamped to max
        assert!(c.write_target() > target);
        assert_eq!(c.writeback_trigger(0), None);
        assert!(c.boundary_moves() >= 1);
    }

    #[test]
    fn tuner_grows_on_waste_and_shrinks_on_ghost_hits() {
        let mut c = adaptive(64);
        c.set_boundary(8);
        let start = c.write_target();
        // Four pressure flushes that underfill the 4-block unit.
        for _ in 0..4 {
            c.note_flush(BS as u64, 1, FlushCause::CachePressure);
        }
        assert!(c.write_target() > start, "waste should grow the buffer");
        let grown = c.write_target();
        // Now a window of perfect flushes plus heavy ghost traffic.
        for i in 0..200 {
            c.insert_clean(k(3, i), block(0));
        }
        for i in 0..200 {
            c.get(k(3, i)); // many land on ghosts
        }
        for _ in 0..4 {
            c.note_flush((4 * BS) as u64, 1, FlushCause::Sync);
        }
        assert!(c.write_target() < grown, "ghost hits should shrink it");
    }

    #[test]
    fn per_client_attribution_tracks_residency_and_hits() {
        let mut c = adaptive(8);
        c.set_client(Some(1));
        c.insert_clean(k(1, 0), block(1));
        c.get(k(1, 0));
        c.set_client(Some(2));
        c.insert_dirty(k(2, 0), block(2), 5);
        c.get(k(1, 0)); // hit on client 1's block, attributed to 2
        c.get(k(9, 9)); // miss for client 2
        let u1 = c.client_usage(1);
        let u2 = c.client_usage(2);
        assert_eq!(u1.resident_blocks, 1);
        assert_eq!(u1.hits, 1);
        assert_eq!(u2.resident_blocks, 1);
        assert_eq!(u2.hits, 1);
        assert_eq!(u2.misses, 1);
        // get_mut retags the charge to the writer.
        c.get_mut(k(1, 0), 7).unwrap()[0] = 3;
        assert_eq!(c.client_usage(1).resident_blocks, 0);
        assert_eq!(c.client_usage(2).resident_blocks, 2);
    }

    #[test]
    fn obs_names_appear_in_registry() {
        let registry = obs::Registry::new();
        let mut c = adaptive(8);
        c.set_client(Some(0));
        c.insert_clean(k(1, 0), block(1));
        c.attach_obs(&registry);
        c.get(k(1, 0));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cache.hits"), 1);
        assert_eq!(snap.counter("cache.client.000.hits"), 1);
        assert_eq!(snap.gauge("cache.client.000.resident_blocks"), 1);
        assert!(snap.gauge("cache.write_target_blocks") > 0);
    }

    #[test]
    fn remove_owner_purges_ghosts_too() {
        let mut c = adaptive(2);
        for i in 0..10 {
            c.insert_clean(k(1, i), block(0));
        }
        c.remove_owner(Owner::File(Ino(1)));
        assert!(c.is_empty());
        // No ghost hits after the purge: the owner is gone entirely.
        assert!(c.get(k(1, 0)).is_none());
        assert_eq!(c.ghost_hits(), 0);
    }

    #[test]
    fn writeback_triggers_on_age_until_the_dirty_block_leaves() {
        let mut c = MemMgr::new(
            BS,
            100,
            MemConfig::shared(WritebackPolicy::paper().with_age_secs(30.0)),
        );
        c.insert_dirty(k(1, 0), block(1), 1_000);
        assert_eq!(c.writeback_trigger(1_000), None);
        assert_eq!(
            c.writeback_trigger(1_000 + 30_000_000_000),
            Some(WritebackTrigger::AgeThreshold)
        );
        c.remove(k(1, 0));
        assert_eq!(c.writeback_trigger(u64::MAX), None);
    }

    #[test]
    fn drop_clean_keeps_dirty_and_clears_ghosts() {
        let mut c = adaptive(4);
        for i in 0..10 {
            c.insert_clean(k(1, i), block(0));
        }
        c.insert_dirty(k(2, 0), block(1), 0);
        c.drop_clean();
        assert_eq!(c.len(), 1);
        assert!(c.is_dirty(k(2, 0)));
        assert_eq!(c.report().ghost_blocks, 0);
    }
}
