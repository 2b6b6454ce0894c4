//! Cache block addressing.

use vfs::Ino;

/// Who a cached block belongs to.
///
/// File systems are free to define their own meaning for the `index` of a
/// [`BlockKey`]; e.g. LFS uses high index bits to distinguish a file's data
/// blocks from its indirect blocks, and uses [`Owner::Meta`] namespaces for
/// the inode map and segment usage table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Owner {
    /// A block of a regular file or directory.
    File(Ino),
    /// A file-system metadata namespace (meaning defined by the FS).
    Meta(u32),
}

/// Identifies one cached block: an owner plus an owner-defined index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockKey {
    /// The owning object.
    pub owner: Owner,
    /// Owner-defined block index.
    pub index: u64,
}

impl BlockKey {
    /// Convenience constructor for a file data block.
    pub fn file(ino: Ino, index: u64) -> Self {
        Self {
            owner: Owner::File(ino),
            index,
        }
    }

    /// Convenience constructor for a metadata block.
    pub fn meta(namespace: u32, index: u64) -> Self {
        Self {
            owner: Owner::Meta(namespace),
            index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_compare_by_owner_then_index() {
        let a = BlockKey::file(Ino(1), 0);
        let b = BlockKey::file(Ino(1), 1);
        let c = BlockKey::file(Ino(2), 0);
        assert!(a < b && b < c);
        assert_ne!(BlockKey::meta(0, 0), BlockKey::file(Ino(1), 0));
    }
}
