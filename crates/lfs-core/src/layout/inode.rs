//! On-disk inodes.
//!
//! §4.2.1: "The format of inodes and indirect blocks is unchanged" from
//! UNIX — twelve direct pointers, a single-indirect and a double-indirect
//! pointer. The only LFS-specific additions are the **version number**
//! (bumped when a file is deleted or truncated to zero, used by the
//! cleaner's fast liveness check, §4.3.3) and the *absence* of an access
//! time, which lives in the inode map instead (footnote 2).

use vfs::blockmap::{Roots, NDIRECT};
use vfs::namespace::NodeView;
use vfs::{FileKind, FsError, FsResult, Ino};

use crate::types::{BlockAddr, INODE_SIZE};
use crate::util::{ByteReader, ByteWriter};

/// Magic byte tagging a valid on-disk inode slot.
const INODE_MAGIC: u8 = 0xC9;

/// An inode, as stored in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// This inode's number (self-identifying for cleaning/roll-forward).
    pub ino: Ino,
    /// Version number from the inode map at the time of writing.
    pub version: u32,
    /// Regular file or directory.
    pub kind: FileKind,
    /// Hard-link count.
    pub nlink: u16,
    /// File length in bytes.
    pub size: u64,
    /// Last modification time (virtual ns).
    pub mtime_ns: u64,
    /// Direct block pointers.
    pub direct: [BlockAddr; NDIRECT],
    /// Single-indirect block pointer.
    pub single: BlockAddr,
    /// Double-indirect block pointer.
    pub double: BlockAddr,
}

impl Inode {
    /// Creates an empty inode of the given kind.
    pub fn new(ino: Ino, kind: FileKind, version: u32, mtime_ns: u64) -> Self {
        Self {
            ino,
            version,
            kind,
            nlink: 1,
            size: 0,
            mtime_ns,
            direct: [BlockAddr::NIL; NDIRECT],
            single: BlockAddr::NIL,
            double: BlockAddr::NIL,
        }
    }

    /// What the shared namespace and block-map layers see of the inode.
    pub fn view(&self) -> NodeView {
        NodeView {
            kind: self.kind,
            size: self.size,
            nlink: self.nlink,
            roots: Roots {
                direct: self.direct.map(|addr| addr.0),
                single: self.single.0,
                double: self.double.0,
            },
        }
    }

    /// Serialises into exactly [`INODE_SIZE`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(INODE_SIZE);
        w.u8(INODE_MAGIC);
        w.u8(match self.kind {
            FileKind::Regular => 1,
            FileKind::Directory => 2,
        });
        w.u16(self.nlink);
        w.u32(self.ino.0);
        w.u32(self.version);
        w.u64(self.size);
        w.u64(self.mtime_ns);
        for addr in &self.direct {
            w.u32(addr.0);
        }
        w.u32(self.single.0);
        w.u32(self.double.0);
        w.pad_to(INODE_SIZE);
        w.into_vec()
    }

    /// Parses an inode from an [`INODE_SIZE`]-byte slot.
    pub fn decode(bytes: &[u8]) -> FsResult<Self> {
        let mut r = ByteReader::new(bytes);
        let magic = r.u8().ok_or(FsError::Corrupt("inode slot too short"))?;
        if magic != INODE_MAGIC {
            return Err(FsError::Corrupt("bad inode magic"));
        }
        let kind = match r.u8().ok_or(FsError::Corrupt("inode slot too short"))? {
            1 => FileKind::Regular,
            2 => FileKind::Directory,
            _ => return Err(FsError::Corrupt("bad inode kind")),
        };
        let nlink = r.u16().ok_or(FsError::Corrupt("inode slot too short"))?;
        let ino = Ino(r.u32().ok_or(FsError::Corrupt("inode slot too short"))?);
        let version = r.u32().ok_or(FsError::Corrupt("inode slot too short"))?;
        let size = r.u64().ok_or(FsError::Corrupt("inode slot too short"))?;
        let mtime_ns = r.u64().ok_or(FsError::Corrupt("inode slot too short"))?;
        let mut direct = [BlockAddr::NIL; NDIRECT];
        for slot in &mut direct {
            *slot = BlockAddr(r.u32().ok_or(FsError::Corrupt("inode slot too short"))?);
        }
        let single = BlockAddr(r.u32().ok_or(FsError::Corrupt("inode slot too short"))?);
        let double = BlockAddr(r.u32().ok_or(FsError::Corrupt("inode slot too short"))?);
        Ok(Self {
            ino,
            version,
            kind,
            nlink,
            size,
            mtime_ns,
            direct,
            single,
            double,
        })
    }

    /// Attempts to parse an inode slot, returning `None` for an all-zero
    /// (never written) slot and an error only for garbled data.
    pub fn decode_slot(bytes: &[u8]) -> FsResult<Option<Self>> {
        if bytes.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        Self::decode(bytes).map(Some)
    }
}

/// Packs inodes into an inode block and extracts them again.
pub mod inode_block {
    use super::*;

    /// Writes `inodes` into a zeroed block of `block_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if more inodes are given than fit.
    pub fn pack(inodes: &[&Inode], block_size: usize) -> Vec<u8> {
        let capacity = block_size / INODE_SIZE;
        assert!(inodes.len() <= capacity, "too many inodes for one block");
        let mut block = vec![0u8; block_size];
        for (slot, inode) in inodes.iter().enumerate() {
            let bytes = inode.encode();
            block[slot * INODE_SIZE..(slot + 1) * INODE_SIZE].copy_from_slice(&bytes);
        }
        block
    }

    /// Reads the inode in `slot`, if that slot was written.
    pub fn unpack_slot(block: &[u8], slot: usize) -> FsResult<Option<Inode>> {
        let start = slot * INODE_SIZE;
        if start + INODE_SIZE > block.len() {
            return Err(FsError::Corrupt("inode slot out of range"));
        }
        Inode::decode_slot(&block[start..start + INODE_SIZE])
    }

    /// Iterates over all written inode slots in a block.
    pub fn unpack_all(block: &[u8]) -> FsResult<Vec<(usize, Inode)>> {
        let mut out = Vec::new();
        for slot in 0..block.len() / INODE_SIZE {
            if let Some(inode) = unpack_slot(block, slot)? {
                out.push((slot, inode));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Inode {
        let mut inode = Inode::new(Ino(7), FileKind::Regular, 3, 1_000);
        inode.size = 12_345;
        inode.nlink = 2;
        inode.direct[0] = BlockAddr(100);
        inode.direct[11] = BlockAddr(111);
        inode.single = BlockAddr(200);
        inode.double = BlockAddr(300);
        inode
    }

    #[test]
    fn encode_decode_round_trips() {
        let inode = sample();
        let bytes = inode.encode();
        assert_eq!(bytes.len(), INODE_SIZE);
        assert_eq!(Inode::decode(&bytes).unwrap(), inode);
    }

    #[test]
    fn zero_slot_is_none() {
        assert_eq!(Inode::decode_slot(&[0u8; INODE_SIZE]).unwrap(), None);
        let inode = sample();
        assert_eq!(Inode::decode_slot(&inode.encode()).unwrap(), Some(inode));
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut bytes = sample().encode();
        bytes[0] = 0x11; // Bad magic.
        assert!(matches!(Inode::decode(&bytes), Err(FsError::Corrupt(_))));
        let mut bad_kind = sample().encode();
        bad_kind[1] = 9;
        assert_eq!(
            Inode::decode(&bad_kind),
            Err(FsError::Corrupt("bad inode kind"))
        );
    }

    #[test]
    fn inode_block_pack_unpack() {
        let a = sample();
        let mut b = Inode::new(Ino(9), FileKind::Directory, 1, 5);
        b.size = 64;
        let block = inode_block::pack(&[&a, &b], 512);
        assert_eq!(block.len(), 512);
        assert_eq!(
            inode_block::unpack_slot(&block, 0).unwrap(),
            Some(a.clone())
        );
        assert_eq!(
            inode_block::unpack_slot(&block, 1).unwrap(),
            Some(b.clone())
        );
        assert_eq!(inode_block::unpack_slot(&block, 2).unwrap(), None);
        let all = inode_block::unpack_all(&block).unwrap();
        assert_eq!(all, vec![(0, a), (1, b)]);
    }

    #[test]
    #[should_panic(expected = "too many inodes")]
    fn pack_rejects_overflow() {
        let inode = sample();
        let five = vec![&inode; 5];
        // 512-byte block holds 4 inodes.
        let _ = inode_block::pack(&five, 512);
    }
}
