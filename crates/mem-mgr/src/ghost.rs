//! The ghost list: keys of recently evicted clean blocks.
//!
//! A ghost entry holds no data — just the key, the client the block was
//! charged to, and a FIFO sequence number. A miss that lands on a ghost
//! entry is a "ghost hit": evidence that a larger read pool would have
//! served the access from memory. The tuner consumes ghost-hit counts as
//! the read side's marginal-benefit signal.

use std::collections::{BTreeMap, HashMap};

use crate::key::BlockKey;

#[derive(Debug)]
pub(crate) struct GhostList {
    /// key -> (fifo sequence, charged client)
    map: HashMap<BlockKey, (u64, Option<u32>)>,
    /// fifo sequence -> key, oldest first
    order: BTreeMap<u64, BlockKey>,
    seq: u64,
    cap: usize,
}

impl GhostList {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            map: HashMap::new(),
            order: BTreeMap::new(),
            seq: 0,
            cap: cap.max(1),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns the charged client if `key` is a ghost. Does not consume
    /// the entry — that happens when the block is re-inserted.
    pub(crate) fn lookup(&self, key: BlockKey) -> Option<Option<u32>> {
        self.map.get(&key).map(|&(_, client)| client)
    }

    /// Records an eviction. Re-evicting a key refreshes its position.
    pub(crate) fn insert(&mut self, key: BlockKey, client: Option<u32>) {
        if let Some((old_seq, _)) = self.map.remove(&key) {
            self.order.remove(&old_seq);
        }
        self.seq += 1;
        self.map.insert(key, (self.seq, client));
        self.order.insert(self.seq, key);
        while self.map.len() > self.cap {
            let (&oldest, &victim) = self.order.iter().next().expect("ghost order non-empty");
            self.order.remove(&oldest);
            self.map.remove(&victim);
        }
    }

    /// Consumes a ghost entry (the block came back). Returns true if it
    /// was present.
    pub(crate) fn remove(&mut self, key: BlockKey) -> bool {
        match self.map.remove(&key) {
            Some((seq, _)) => {
                self.order.remove(&seq);
                true
            }
            None => false,
        }
    }

    /// Drops every ghost whose key fails the predicate (owner purges).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(BlockKey) -> bool) {
        let dead: Vec<(u64, BlockKey)> = self
            .map
            .iter()
            .filter(|(k, _)| !keep(**k))
            .map(|(k, &(seq, _))| (seq, *k))
            .collect();
        for (seq, key) in dead {
            self.order.remove(&seq);
            self.map.remove(&key);
        }
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::Ino;

    fn k(i: u64) -> BlockKey {
        BlockKey::file(Ino(1), i)
    }

    #[test]
    fn fifo_capacity_is_enforced() {
        let mut g = GhostList::new(3);
        for i in 0..5 {
            g.insert(k(i), Some(i as u32));
        }
        assert_eq!(g.len(), 3);
        assert_eq!(g.lookup(k(0)), None);
        assert_eq!(g.lookup(k(1)), None);
        assert_eq!(g.lookup(k(4)), Some(Some(4)));
    }

    #[test]
    fn reinsert_refreshes_position() {
        let mut g = GhostList::new(2);
        g.insert(k(0), None);
        g.insert(k(1), None);
        g.insert(k(0), None); // refresh: k(1) is now the oldest
        g.insert(k(2), None);
        assert!(g.lookup(k(0)).is_some());
        assert!(g.lookup(k(1)).is_none());
    }

    #[test]
    fn remove_and_retain() {
        let mut g = GhostList::new(8);
        for i in 0..4 {
            g.insert(k(i), None);
        }
        assert!(g.remove(k(2)));
        assert!(!g.remove(k(2)));
        g.retain(|key| key.index < 1);
        assert_eq!(g.len(), 1);
        assert!(g.lookup(k(0)).is_some());
    }
}
