//! Hand-computed cases for the shared-LRU file cache: the §4.3.5
//! write-back triggers and the rules the write path leans on (dirty
//! blocks are never evicted; truncation and deletion discard them).

use mem_mgr::{BlockKey, MemConfig, MemMgr, Owner, WritebackPolicy, WritebackTrigger};
use vfs::Ino;

const BS: usize = 64;

fn cache(capacity: usize) -> MemMgr {
    MemMgr::new(BS, capacity, MemConfig::shared(WritebackPolicy::paper()))
}

fn k(index: u64) -> BlockKey {
    BlockKey::file(Ino(1), index)
}

fn block(fill: u8) -> Box<[u8]> {
    vec![fill; BS].into_boxed_slice()
}

#[test]
#[should_panic(expected = "wrong size")]
fn rejects_misssized_blocks() {
    cache(4).insert_clean(k(0), vec![0; BS + 1].into_boxed_slice());
}

#[test]
fn lookups_count_hits_and_misses() {
    let mut c = cache(4);
    c.insert_clean(k(0), block(7));
    assert_eq!(c.get(k(0)).unwrap()[0], 7);
    assert!(c.get(k(1)).is_none());
    assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
}

#[test]
fn all_dirty_cache_overflows_rather_than_dropping_data() {
    let mut c = cache(2);
    c.insert_dirty(k(0), block(1), 100);
    c.insert_dirty(k(1), block(2), 200);
    c.insert_clean(k(2), block(3));
    assert!(c.contains(k(0)) && c.contains(k(1)));
    assert_eq!(c.len(), 3);
    assert_eq!(c.stats().evictions, 0);
}

#[test]
fn get_mut_marks_dirty_once() {
    let mut c = cache(4);
    c.insert_clean(k(0), block(0));
    assert_eq!(c.dirty_count(), 0);
    c.get_mut(k(0), 500).unwrap()[0] = 9;
    c.get_mut(k(0), 900).unwrap()[1] = 9;
    assert_eq!(c.dirty_count(), 1);
    // The block has been dirty since the *first* modification.
    let aged = 500 + 30_000_000_000;
    assert_eq!(c.writeback_trigger(aged - 1), None);
    assert_eq!(c.writeback_trigger(aged), Some(WritebackTrigger::AgeThreshold));
}

#[test]
fn mark_clean_clears_dirty_state() {
    let mut c = cache(4);
    c.insert_dirty(k(0), block(1), 100);
    c.mark_clean(k(0));
    assert_eq!(c.dirty_count(), 0);
    assert!(c.contains(k(0)) && !c.is_dirty(k(0)));
    assert_eq!(c.writeback_trigger(u64::MAX), None);
}

#[test]
fn writeback_triggers_on_pressure() {
    let mut c = cache(4); // High water at 3 dirty blocks.
    for i in 0..2 {
        c.insert_dirty(k(i), block(i as u8), 0);
    }
    assert_eq!(c.writeback_trigger(0), None);
    c.insert_dirty(k(2), block(2), 0);
    assert_eq!(c.writeback_trigger(0), Some(WritebackTrigger::CacheFull));
    c.mark_clean(k(2));
    assert_eq!(c.writeback_trigger(0), None);
}

#[test]
fn dirty_keys_are_sorted_and_filtered() {
    let mut c = cache(10);
    c.insert_dirty(BlockKey::file(Ino(2), 1), block(0), 0);
    c.insert_dirty(k(5), block(0), 0);
    c.insert_dirty(k(2), block(0), 0);
    c.insert_clean(BlockKey::file(Ino(3), 0), block(0));
    assert_eq!(c.dirty_keys(), vec![k(2), k(5), BlockKey::file(Ino(2), 1)]);
    assert_eq!(c.dirty_keys_of(Owner::File(Ino(1))), vec![k(2), k(5)]);
}

#[test]
fn remove_owner_discards_dirty_blocks_too() {
    let mut c = cache(10);
    c.insert_dirty(k(0), block(0), 0);
    c.insert_dirty(k(7), block(0), 0);
    c.insert_clean(BlockKey::file(Ino(2), 0), block(0));
    c.remove_owner(Owner::File(Ino(1)));
    assert_eq!((c.len(), c.dirty_count()), (1, 0));
}

#[test]
fn drop_clean_keeps_dirty() {
    let mut c = cache(10);
    c.insert_clean(k(0), block(0));
    c.insert_dirty(k(1), block(0), 0);
    c.drop_clean();
    assert_eq!(c.len(), 1);
    assert!(c.is_dirty(k(1)));
}

#[test]
fn replacing_the_only_dirty_block_resets_age_trigger() {
    let mut c = cache(4);
    c.insert_dirty(k(0), block(1), 100);
    // Overwrite the dirty block with clean contents: no dirty blocks
    // remain, so the age trigger must not fire even at huge times.
    c.insert_clean(k(0), block(2));
    assert_eq!(c.dirty_count(), 0);
    assert_eq!(c.writeback_trigger(u64::MAX), None);
}
