//! Property tests for the shared-LRU file cache: agreement with a naive
//! reference model, and the invariants write-back correctness depends on.
//!
//! The model is exact — it keeps every resident key in recency order and
//! predicts each eviction, counter and write-back trigger — so every
//! paper-figure benchmark number that rides on the cache's decisions is
//! pinned here, against ~60 lines anyone can check by eye.

use proptest::prelude::*;

use mem_mgr::{
    BlockKey, CacheStats, MemConfig, MemMgr, Owner, WritebackPolicy, WritebackTrigger,
    DIRTY_HIGH_WATER,
};
use vfs::Ino;

#[derive(Debug, Clone)]
enum Op {
    Get {
        ino: u8,
        index: u8,
    },
    InsertClean {
        ino: u8,
        index: u8,
        fill: u8,
    },
    InsertDirty {
        ino: u8,
        index: u8,
        fill: u8,
        at: u32,
    },
    GetMut {
        ino: u8,
        index: u8,
        at: u32,
    },
    MarkClean {
        ino: u8,
        index: u8,
    },
    Remove {
        ino: u8,
        index: u8,
    },
    RemoveOwner {
        ino: u8,
    },
    RemoveRange {
        ino: u8,
        lo: u8,
        hi: u8,
    },
    DropClean,
    /// Hold `bytes` of the budget outside the block map.
    Reserve {
        bytes: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..5, 0u8..12).prop_map(|(ino, index)| Op::Get { ino, index }),
        (1u8..5, 0u8..12, any::<u8>()).prop_map(|(ino, index, fill)| Op::InsertClean {
            ino,
            index,
            fill
        }),
        (1u8..5, 0u8..12, any::<u8>(), any::<u32>()).prop_map(|(ino, index, fill, at)| {
            Op::InsertDirty {
                ino,
                index,
                fill,
                at,
            }
        }),
        (1u8..5, 0u8..12, any::<u32>()).prop_map(|(ino, index, at)| Op::GetMut { ino, index, at }),
        (1u8..5, 0u8..12).prop_map(|(ino, index)| Op::MarkClean { ino, index }),
        (1u8..5, 0u8..12).prop_map(|(ino, index)| Op::Remove { ino, index }),
        (1u8..5).prop_map(|ino| Op::RemoveOwner { ino }),
        (1u8..5, 0u8..12, 0u8..12).prop_map(|(ino, lo, hi)| Op::RemoveRange { ino, lo, hi }),
        Just(Op::DropClean),
        (0u8..(MODEL_CAPACITY * BS) as u8).prop_map(|bytes| Op::Reserve { bytes }),
    ]
}

const BS: usize = 32;
const CAPACITY: usize = 16;
/// Small enough that most op sequences fill the cache and evict.
const MODEL_CAPACITY: usize = 6;

fn key(ino: u8, index: u8) -> BlockKey {
    BlockKey::file(Ino(ino as u32), index as u64)
}

fn owner(ino: u8) -> Owner {
    Owner::File(Ino(ino as u32))
}

fn cache(capacity: usize) -> MemMgr {
    MemMgr::new(BS, capacity, MemConfig::shared(WritebackPolicy::paper()))
}

#[derive(Debug)]
struct Entry {
    key: BlockKey,
    fill: u8,
    dirty: bool,
    dirty_since_ns: u64,
}

/// The reference: resident blocks in recency order, coldest first.
#[derive(Debug, Default)]
struct Model {
    lru: Vec<Entry>,
    stats: CacheStats,
    /// Blocks' worth of the budget held outside the block map.
    reserved: usize,
    /// Earliest dirtying time since the cache last held no dirty block
    /// (the age trigger may fire early, never late).
    oldest_dirty_ns: Option<u64>,
}

impl Model {
    fn position(&self, key: BlockKey) -> Option<usize> {
        self.lru.iter().position(|e| e.key == key)
    }

    fn dirty_count(&self) -> usize {
        self.lru.iter().filter(|e| e.dirty).count()
    }

    fn note_dirtied(&mut self, at: u64) {
        self.oldest_dirty_ns = Some(self.oldest_dirty_ns.map_or(at, |o| o.min(at)));
    }

    fn settle(&mut self) {
        if self.dirty_count() == 0 {
            self.oldest_dirty_ns = None;
        }
    }

    /// Moves a hit to the hot end; counts the hit or miss.
    fn touch(&mut self, key: BlockKey) -> Option<&mut Entry> {
        match self.position(key) {
            Some(at) => {
                self.stats.hits += 1;
                let entry = self.lru.remove(at);
                self.lru.push(entry);
                self.lru.last_mut()
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn get_mut(&mut self, key: BlockKey, at: u64) -> bool {
        let Some(entry) = self.touch(key) else {
            return false;
        };
        if !entry.dirty {
            entry.dirty = true;
            entry.dirty_since_ns = at;
            self.note_dirtied(at);
        }
        true
    }

    /// Evicts the coldest clean blocks while more than `limit` are
    /// resident; dirty ones never go.
    fn evict_above(&mut self, limit: usize) {
        while self.lru.len() > limit {
            let Some(victim) = self.lru.iter().position(|e| !e.dirty) else {
                break;
            };
            self.lru.remove(victim);
            self.stats.evictions += 1;
        }
    }

    /// At most what the write buffer leaves is reserved.
    fn reserve(&mut self, bytes: usize) {
        let write_target = (MODEL_CAPACITY as f64 * DIRTY_HIGH_WATER) as usize;
        self.reserved = bytes.div_ceil(BS).min(MODEL_CAPACITY - write_target);
        self.evict_above(MODEL_CAPACITY.saturating_sub(self.reserved));
    }

    fn insert(&mut self, key: BlockKey, fill: u8, dirty: bool, at: u64) {
        // Room is made first — the coldest clean blocks go, dirty ones
        // never — and only then is the key looked up. Inserts may
        // borrow the reserved room; only `reserve` trims to it.
        self.evict_above(MODEL_CAPACITY - 1);
        if let Some(old) = self.position(key) {
            self.lru.remove(old);
            self.settle();
        }
        self.lru.push(Entry {
            key,
            fill,
            dirty,
            dirty_since_ns: at,
        });
        if dirty {
            self.note_dirtied(at);
        }
    }

    fn mark_clean(&mut self, key: BlockKey) {
        if let Some(at) = self.position(key) {
            self.lru[at].dirty = false;
            self.settle();
        }
    }

    fn retain(&mut self, keep: impl Fn(&Entry) -> bool) {
        self.lru.retain(keep);
        self.settle();
    }

    fn dirty_keys(&self, of: impl Fn(&Entry) -> bool) -> Vec<BlockKey> {
        let mut keys: Vec<BlockKey> = self
            .lru
            .iter()
            .filter(|e| e.dirty && of(e))
            .map(|e| e.key)
            .collect();
        keys.sort();
        keys
    }

    /// The reservation moves neither trigger: it is the same function
    /// of the dirty blocks whatever is reserved.
    fn trigger(&self, now: u64) -> Option<WritebackTrigger> {
        let policy = WritebackPolicy::paper();
        let high_water = (MODEL_CAPACITY as f64 * DIRTY_HIGH_WATER) as usize;
        if self.dirty_count() >= high_water {
            return Some(WritebackTrigger::CacheFull);
        }
        match self.oldest_dirty_ns {
            Some(oldest) if now.saturating_sub(oldest) >= policy.age_threshold_ns => {
                Some(WritebackTrigger::AgeThreshold)
            }
            _ => None,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The cache must agree with the reference on everything a file
    /// system can observe: membership, dirtiness, contents, which clean
    /// block each insert or reservation evicts, the counters, and the
    /// triggers — which a reservation never moves, nor the write target.
    #[test]
    fn agrees_with_reference_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut cache = cache(MODEL_CAPACITY);
        let mut model = Model::default();
        let write_target = cache.write_target();

        for op in &ops {
            match *op {
                Op::Get { ino, index } => {
                    let got = cache.get(key(ino, index)).map(|d| d[0]);
                    prop_assert_eq!(got, model.touch(key(ino, index)).map(|e| e.fill));
                }
                Op::InsertClean { ino, index, fill } => {
                    cache.insert_clean(key(ino, index), vec![fill; BS].into_boxed_slice());
                    model.insert(key(ino, index), fill, false, 0);
                }
                Op::InsertDirty { ino, index, fill, at } => {
                    cache.insert_dirty(key(ino, index), vec![fill; BS].into_boxed_slice(), at as u64);
                    model.insert(key(ino, index), fill, true, at as u64);
                }
                Op::GetMut { ino, index, at } => {
                    let in_cache = cache.get_mut(key(ino, index), at as u64).is_some();
                    prop_assert_eq!(in_cache, model.get_mut(key(ino, index), at as u64));
                }
                Op::MarkClean { ino, index } => {
                    cache.mark_clean(key(ino, index));
                    model.mark_clean(key(ino, index));
                }
                Op::Remove { ino, index } => {
                    let was_present = model.position(key(ino, index)).is_some();
                    prop_assert_eq!(cache.remove(key(ino, index)), was_present);
                    model.retain(|e| e.key != key(ino, index));
                }
                Op::RemoveOwner { ino } => {
                    cache.remove_owner(owner(ino));
                    model.retain(|e| e.key.owner != owner(ino));
                }
                Op::RemoveRange { ino, lo, hi } => {
                    cache.remove_owner_index_range(owner(ino), lo as u64, hi as u64);
                    model.retain(|e| {
                        e.key.owner != owner(ino) || e.key.index < lo as u64 || e.key.index >= hi as u64
                    });
                }
                Op::DropClean => {
                    cache.drop_clean();
                    model.retain(|e| e.dirty);
                }
                Op::Reserve { bytes } => {
                    cache.reserve(bytes as usize);
                    model.reserve(bytes as usize);
                    prop_assert_eq!(cache.reserved_blocks(), model.reserved);
                }
            }
            prop_assert_eq!(cache.write_target(), write_target);

            // Same residents (so the same victims), same dirtiness, same
            // bytes. `peek` leaves recency and the counters alone.
            prop_assert_eq!(cache.len(), model.lru.len());
            for entry in &model.lru {
                prop_assert_eq!(cache.peek(entry.key).map(|d| d[0]), Some(entry.fill));
                prop_assert_eq!(cache.is_dirty(entry.key), entry.dirty, "{:?}", entry.key);
            }
            prop_assert_eq!(cache.dirty_count(), model.dirty_count());
            prop_assert_eq!(cache.stats(), model.stats);
            // Write-back order is deterministic: sorted by owner, then index.
            prop_assert_eq!(cache.dirty_keys(), model.dirty_keys(|_| true));
            for ino in 1u8..5 {
                prop_assert_eq!(
                    cache.dirty_keys_of(owner(ino)),
                    model.dirty_keys(|e| e.key.owner == owner(ino))
                );
            }
            for now in [0u64, 1 << 20, 1 << 34, u64::MAX] {
                prop_assert_eq!(cache.writeback_trigger(now), model.trigger(now), "at {}", now);
            }
        }
    }

    /// Capacity is respected whenever enough clean blocks exist to evict.
    #[test]
    fn capacity_bounds_clean_blocks(inserts in 1usize..200) {
        let mut cache = cache(CAPACITY);
        for i in 0..inserts {
            cache.insert_clean(
                BlockKey::file(Ino(1), i as u64),
                vec![0u8; BS].into_boxed_slice(),
            );
        }
        prop_assert!(cache.len() <= CAPACITY);
    }

    /// An all-dirty cache overflows rather than dropping data.
    #[test]
    fn dirty_overflow_preserves_all(inserts in 17usize..64) {
        let mut cache = cache(CAPACITY);
        for i in 0..inserts {
            cache.insert_dirty(
                BlockKey::file(Ino(1), i as u64),
                vec![i as u8; BS].into_boxed_slice(),
                0,
            );
        }
        prop_assert_eq!(cache.len(), inserts);
        for i in 0..inserts {
            prop_assert_eq!(
                cache.get(BlockKey::file(Ino(1), i as u64)).unwrap()[0],
                i as u8
            );
        }
    }
}
