//! Adaptive-mode safety properties: no boundary resize or eviction
//! decision may ever drop a dirty block, corrupt its contents, or let
//! the write-back key order diverge from the reference model.

use std::collections::HashMap;

use proptest::prelude::*;

use mem_mgr::{BlockKey, Owner, WritebackPolicy};
use mem_mgr::{FlushCause, MemConfig, MemMgr};
use vfs::Ino;

const BS: usize = 32;
const CAPACITY: usize = 8;

#[derive(Debug, Clone)]
enum Op {
    Get { ino: u8, index: u8 },
    GetMut { ino: u8, index: u8, at: u32 },
    InsertClean { ino: u8, index: u8, fill: u8 },
    InsertDirty { ino: u8, index: u8, fill: u8, at: u32 },
    MarkClean { ino: u8, index: u8 },
    Remove { ino: u8, index: u8 },
    RemoveOwner { ino: u8 },
    DropClean,
    SetBoundary { blocks: u8 },
    NoteFlush { bytes: u16, chunks: u8 },
    SetClient { id: u8 },
}

fn key(ino: u8, index: u8) -> BlockKey {
    BlockKey::file(Ino(ino as u32), index as u64)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..4, 0u8..12).prop_map(|(ino, index)| Op::Get { ino, index }),
        (1u8..4, 0u8..12, any::<u32>()).prop_map(|(ino, index, at)| Op::GetMut { ino, index, at }),
        (1u8..4, 0u8..12, any::<u8>()).prop_map(|(ino, index, fill)| Op::InsertClean {
            ino,
            index,
            fill
        }),
        (1u8..4, 0u8..12, any::<u8>(), any::<u32>()).prop_map(|(ino, index, fill, at)| {
            Op::InsertDirty {
                ino,
                index,
                fill,
                at,
            }
        }),
        (1u8..4, 0u8..12).prop_map(|(ino, index)| Op::MarkClean { ino, index }),
        (1u8..4, 0u8..12).prop_map(|(ino, index)| Op::Remove { ino, index }),
        (1u8..4).prop_map(|ino| Op::RemoveOwner { ino }),
        Just(Op::DropClean),
        (0u8..32).prop_map(|blocks| Op::SetBoundary {
            blocks
        }),
        (0u16..2048, 0u8..8).prop_map(|(bytes, chunks)| Op::NoteFlush { bytes, chunks }),
        (0u8..6).prop_map(|id| Op::SetClient { id }),
    ]
}

/// Reference model: the dirty blocks and their exact contents.
#[derive(Default)]
struct DirtyModel {
    dirty: HashMap<BlockKey, Vec<u8>>,
}

impl DirtyModel {
    fn keys_sorted(&self) -> Vec<BlockKey> {
        let mut keys: Vec<BlockKey> = self.dirty.keys().copied().collect();
        keys.sort();
        keys
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn no_resize_or_eviction_loses_dirty_data(
        ops in proptest::collection::vec(op_strategy(), 1..150)
    ) {
        let config = MemConfig::adaptive(WritebackPolicy::paper(), (4 * BS) as u64);
        let mut mgr = MemMgr::new(BS, CAPACITY, config);
        let mut model = DirtyModel::default();

        for op in &ops {
            match *op {
                Op::Get { ino, index } => {
                    // A hit must return dirty contents verbatim.
                    if let Some(want) = model.dirty.get(&key(ino, index)) {
                        let got = mgr.get(key(ino, index)).expect("dirty block vanished");
                        prop_assert_eq!(got, &want[..], "dirty contents corrupted");
                    } else {
                        mgr.get(key(ino, index));
                    }
                }
                Op::GetMut { ino, index, at } => {
                    if let Some(data) = mgr.get_mut(key(ino, index), at as u64) {
                        data[0] = data[0].wrapping_add(1);
                        model.dirty.insert(key(ino, index), data.to_vec());
                    } else {
                        prop_assert!(
                            !model.dirty.contains_key(&key(ino, index)),
                            "dirty block vanished before get_mut"
                        );
                    }
                }
                Op::InsertClean { ino, index, fill } => {
                    mgr.insert_clean(key(ino, index), vec![fill; BS].into_boxed_slice());
                    model.dirty.remove(&key(ino, index));
                }
                Op::InsertDirty { ino, index, fill, at } => {
                    mgr.insert_dirty(key(ino, index), vec![fill; BS].into_boxed_slice(), at as u64);
                    model.dirty.insert(key(ino, index), vec![fill; BS]);
                }
                Op::MarkClean { ino, index } => {
                    mgr.mark_clean(key(ino, index));
                    model.dirty.remove(&key(ino, index));
                }
                Op::Remove { ino, index } => {
                    mgr.remove(key(ino, index));
                    model.dirty.remove(&key(ino, index));
                }
                Op::RemoveOwner { ino } => {
                    mgr.remove_owner(Owner::File(Ino(ino as u32)));
                    model.dirty.retain(|k, _| k.owner != Owner::File(Ino(ino as u32)));
                }
                Op::DropClean => {
                    mgr.drop_clean();
                }
                Op::SetBoundary { blocks } => {
                    mgr.set_boundary(blocks as usize);
                }
                Op::NoteFlush { bytes, chunks } => {
                    mgr.note_flush(bytes as u64, chunks as u64, FlushCause::CachePressure);
                }
                Op::SetClient { id } => {
                    mgr.set_client(if id == 0 { None } else { Some(id as u32) });
                }
            }

            // Invariant: the write-back set (keys and order) equals the
            // model after EVERY op — no resize/eviction interleaving may
            // reorder or drop it.
            prop_assert_eq!(mgr.dirty_keys(), model.keys_sorted(), "write-back set diverged");
            prop_assert_eq!(mgr.dirty_count(), model.dirty.len());
        }

        // Every dirty block is still present with exact contents.
        for (k, want) in &model.dirty {
            prop_assert!(mgr.contains(*k), "dirty block evicted");
            prop_assert!(mgr.is_dirty(*k));
            let got = mgr.get(*k).expect("dirty block unreadable");
            prop_assert_eq!(got, &want[..]);
        }

        // Memory budget: clean blocks never push residency above
        // capacity; only dirty overflow may.
        prop_assert!(
            mgr.len() <= CAPACITY.max(mgr.dirty_count()),
            "clean blocks overflowed the budget: len={} dirty={}",
            mgr.len(),
            mgr.dirty_count()
        );
    }
}
