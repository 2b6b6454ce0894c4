//! FFS on-disk layout: superblock, cylinder groups, fixed inode tables.
//!
//! ```text
//! block 0                      superblock (with clean/dirty flag)
//! block 1 ..                   cylinder group 0:
//!   +0                           bitmap block (inode + block bitmaps)
//!   +1 .. +1+it                  inode table (fixed!)
//!   +1+it ..                     data blocks
//! ...                          cylinder group 1, 2, ...
//! ```
//!
//! Unlike LFS, every structure has a fixed home and is updated in place.

use vfs::blockmap::{Roots, NDIRECT};
use vfs::namespace::NodeView;
use vfs::wire::{crc32, ByteReader, ByteWriter};
use vfs::{FileKind, FsError, FsResult, Ino};

use crate::config::FfsConfig;

/// Magic number identifying an FFS superblock ("FFS1").
pub const SUPERBLOCK_MAGIC: u32 = 0x4646_5331;

/// On-disk size of one inode, in bytes.
pub const INODE_SIZE: usize = 128;

/// A block address in FS-block units. `u32::MAX` is "no block".
pub type FfsAddr = u32;

/// The null block address.
pub const NIL: FfsAddr = u32::MAX;

/// Immutable volume geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FfsSuperblock {
    /// Block size in bytes.
    pub block_size: u32,
    /// Blocks per cylinder group.
    pub cg_blocks: u32,
    /// Inodes per cylinder group.
    pub inodes_per_cg: u32,
    /// Number of cylinder groups.
    pub ncg: u32,
    /// Whether the volume was cleanly unmounted.
    pub clean: bool,
}

impl FfsSuperblock {
    /// Derives geometry for a device of `capacity_bytes`.
    pub fn derive(cfg: &FfsConfig, capacity_bytes: u64) -> FsResult<Self> {
        cfg.validate();
        let total_blocks = capacity_bytes / cfg.block_size as u64;
        if total_blocks <= 1 + cfg.cg_blocks as u64 {
            return Err(FsError::NoSpace);
        }
        let ncg = ((total_blocks - 1) / cfg.cg_blocks as u64) as u32;
        let sb = Self {
            block_size: cfg.block_size as u32,
            cg_blocks: cfg.cg_blocks as u32,
            inodes_per_cg: cfg.inodes_per_cg,
            ncg,
            clean: true,
        };
        if sb.data_blocks_per_cg() < 4 {
            return Err(FsError::NoSpace);
        }
        // Bitmaps must fit the single bitmap block.
        let bitmap_bytes = sb.inodes_per_cg.div_ceil(8) + sb.cg_blocks.div_ceil(8);
        if bitmap_bytes as usize > cfg.block_size {
            return Err(FsError::Corrupt("bitmaps do not fit the bitmap block"));
        }
        Ok(sb)
    }

    /// Inode-table blocks per cylinder group.
    pub fn it_blocks(&self) -> u32 {
        (self.inodes_per_cg as u64 * INODE_SIZE as u64).div_ceil(self.block_size as u64) as u32
    }

    /// Data blocks per cylinder group.
    pub fn data_blocks_per_cg(&self) -> u32 {
        self.cg_blocks - 1 - self.it_blocks()
    }

    /// First block of cylinder group `cg`.
    pub fn cg_base(&self, cg: u32) -> FfsAddr {
        1 + cg * self.cg_blocks
    }

    /// Block address of the bitmap block of `cg`.
    pub fn bitmap_block(&self, cg: u32) -> FfsAddr {
        self.cg_base(cg)
    }

    /// First data block of `cg`.
    pub fn data_start(&self, cg: u32) -> FfsAddr {
        self.cg_base(cg) + 1 + self.it_blocks()
    }

    /// Total inodes on the volume.
    pub fn max_inodes(&self) -> u32 {
        self.ncg * self.inodes_per_cg
    }

    /// Total data capacity in bytes.
    pub fn data_capacity_bytes(&self) -> u64 {
        self.ncg as u64 * self.data_blocks_per_cg() as u64 * self.block_size as u64
    }

    /// Maps an inode number to `(cg, slot within group)`.
    ///
    /// Inode 0 is invalid; the root is inode 1 (group 0, slot 0).
    pub fn ino_location(&self, ino: Ino) -> FsResult<(u32, u32)> {
        if !ino.is_valid() || ino.0 > self.max_inodes() {
            return Err(FsError::Corrupt("inode number out of range"));
        }
        let index = ino.0 - 1;
        Ok((index / self.inodes_per_cg, index % self.inodes_per_cg))
    }

    /// Maps `(cg, slot)` back to an inode number.
    pub fn ino_at(&self, cg: u32, slot: u32) -> Ino {
        Ino(cg * self.inodes_per_cg + slot + 1)
    }

    /// Block + byte offset of an inode's slot in its inode table.
    pub fn inode_slot(&self, ino: Ino) -> FsResult<(FfsAddr, usize)> {
        let (cg, slot) = self.ino_location(ino)?;
        let per_block = self.block_size as usize / INODE_SIZE;
        let block = self.cg_base(cg) + 1 + slot / per_block as u32;
        let offset = (slot as usize % per_block) * INODE_SIZE;
        Ok((block, offset))
    }

    /// Cylinder group containing a data block address, if any.
    pub fn cg_of_block(&self, addr: FfsAddr) -> Option<u32> {
        if addr == NIL || addr == 0 {
            return None;
        }
        let cg = (addr - 1) / self.cg_blocks;
        (cg < self.ncg).then_some(cg)
    }

    /// Returns true if `addr` is a data block (not metadata).
    pub fn is_data_block(&self, addr: FfsAddr) -> bool {
        match self.cg_of_block(addr) {
            Some(cg) => addr >= self.data_start(cg) && addr < self.cg_base(cg) + self.cg_blocks,
            None => false,
        }
    }

    /// Serialises into one block.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.block_size as usize);
        w.u32(SUPERBLOCK_MAGIC);
        w.u32(self.block_size);
        w.u32(self.cg_blocks);
        w.u32(self.inodes_per_cg);
        w.u32(self.ncg);
        w.u32(self.clean as u32);
        let crc = crc32(w.as_slice());
        w.u32(crc);
        w.pad_to(self.block_size as usize);
        w.into_vec()
    }

    /// Parses from the first block.
    pub fn decode(block: &[u8]) -> FsResult<Self> {
        let mut r = ByteReader::new(block);
        let magic = r.u32().ok_or(FsError::Corrupt("superblock too short"))?;
        if magic != SUPERBLOCK_MAGIC {
            return Err(FsError::Corrupt("bad FFS superblock magic"));
        }
        let block_size = r.u32().ok_or(FsError::Corrupt("superblock too short"))?;
        let cg_blocks = r.u32().ok_or(FsError::Corrupt("superblock too short"))?;
        let inodes_per_cg = r.u32().ok_or(FsError::Corrupt("superblock too short"))?;
        let ncg = r.u32().ok_or(FsError::Corrupt("superblock too short"))?;
        let clean = r.u32().ok_or(FsError::Corrupt("superblock too short"))? != 0;
        let stored = r.u32().ok_or(FsError::Corrupt("superblock too short"))?;
        if crc32(&block[..24]) != stored {
            return Err(FsError::Corrupt("FFS superblock checksum mismatch"));
        }
        Ok(Self {
            block_size,
            cg_blocks,
            inodes_per_cg,
            ncg,
            clean,
        })
    }
}

/// An FFS on-disk inode (classic UNIX format; no LFS version field).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FfsInode {
    /// This inode's number.
    pub ino: Ino,
    /// Regular file or directory.
    pub kind: FileKind,
    /// Hard-link count.
    pub nlink: u16,
    /// File length in bytes.
    pub size: u64,
    /// Last modification time (virtual ns).
    pub mtime_ns: u64,
    /// Last access time (virtual ns). FFS keeps it in the inode; LFS
    /// moves it to the inode map.
    pub atime_ns: u64,
    /// Direct block pointers.
    pub direct: [FfsAddr; NDIRECT],
    /// Single-indirect pointer.
    pub single: FfsAddr,
    /// Double-indirect pointer.
    pub double: FfsAddr,
}

const INODE_MAGIC: u8 = 0xF5;

impl FfsInode {
    /// Creates an empty inode.
    pub fn new(ino: Ino, kind: FileKind, now_ns: u64) -> Self {
        Self {
            ino,
            kind,
            nlink: 1,
            size: 0,
            mtime_ns: now_ns,
            atime_ns: now_ns,
            direct: [NIL; NDIRECT],
            single: NIL,
            double: NIL,
        }
    }

    /// What the shared namespace and block-map layers see of the inode.
    pub fn view(&self) -> NodeView {
        NodeView {
            kind: self.kind,
            size: self.size,
            nlink: self.nlink,
            roots: Roots {
                direct: self.direct,
                single: self.single,
                double: self.double,
            },
        }
    }

    /// Serialises into [`INODE_SIZE`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(INODE_SIZE);
        w.u8(INODE_MAGIC);
        w.u8(match self.kind {
            FileKind::Regular => 1,
            FileKind::Directory => 2,
        });
        w.u16(self.nlink);
        w.u32(self.ino.0);
        w.u64(self.size);
        w.u64(self.mtime_ns);
        w.u64(self.atime_ns);
        for addr in &self.direct {
            w.u32(*addr);
        }
        w.u32(self.single);
        w.u32(self.double);
        w.pad_to(INODE_SIZE);
        w.into_vec()
    }

    /// Parses an inode slot; `None` if the slot is free (all zero).
    pub fn decode_slot(bytes: &[u8]) -> FsResult<Option<Self>> {
        if bytes.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        let mut r = ByteReader::new(bytes);
        let magic = r.u8().ok_or(FsError::Corrupt("inode slot too short"))?;
        if magic != INODE_MAGIC {
            return Err(FsError::Corrupt("bad FFS inode magic"));
        }
        let kind = match r.u8().ok_or(FsError::Corrupt("inode slot too short"))? {
            1 => FileKind::Regular,
            2 => FileKind::Directory,
            _ => return Err(FsError::Corrupt("bad FFS inode kind")),
        };
        let nlink = r.u16().ok_or(FsError::Corrupt("inode slot too short"))?;
        let ino = Ino(r.u32().ok_or(FsError::Corrupt("inode slot too short"))?);
        let size = r.u64().ok_or(FsError::Corrupt("inode slot too short"))?;
        let mtime_ns = r.u64().ok_or(FsError::Corrupt("inode slot too short"))?;
        let atime_ns = r.u64().ok_or(FsError::Corrupt("inode slot too short"))?;
        let mut direct = [NIL; NDIRECT];
        for slot in &mut direct {
            *slot = r.u32().ok_or(FsError::Corrupt("inode slot too short"))?;
        }
        let single = r.u32().ok_or(FsError::Corrupt("inode slot too short"))?;
        let double = r.u32().ok_or(FsError::Corrupt("inode slot too short"))?;
        Ok(Some(Self {
            ino,
            kind,
            nlink,
            size,
            mtime_ns,
            atime_ns,
            direct,
            single,
            double,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb() -> FfsSuperblock {
        FfsSuperblock::derive(&FfsConfig::small_test(), 4 * 1024 * 1024).unwrap()
    }

    #[test]
    fn geometry_is_consistent() {
        let sb = sb();
        assert_eq!(sb.block_size, 512);
        assert!(sb.ncg >= 1);
        // 64 inodes of 128 B in 512 B blocks -> 16 inode-table blocks.
        assert_eq!(sb.it_blocks(), 16);
        assert_eq!(sb.data_blocks_per_cg(), 128 - 1 - 16);
        assert!(sb.data_start(0) > sb.bitmap_block(0));
    }

    #[test]
    fn ino_mapping_round_trips() {
        let sb = sb();
        assert_eq!(sb.ino_location(Ino(1)).unwrap(), (0, 0));
        assert_eq!(sb.ino_at(0, 0), Ino(1));
        let last = sb.max_inodes();
        let (cg, slot) = sb.ino_location(Ino(last)).unwrap();
        assert_eq!(sb.ino_at(cg, slot), Ino(last));
        assert!(sb.ino_location(Ino(0)).is_err());
        assert!(sb.ino_location(Ino(last + 1)).is_err());
    }

    #[test]
    fn inode_slot_addresses_are_in_the_table() {
        let sb = sb();
        let (block, offset) = sb.inode_slot(Ino(1)).unwrap();
        assert_eq!(block, sb.cg_base(0) + 1);
        assert_eq!(offset, 0);
        let per_block = 512 / INODE_SIZE; // 4
        let (block5, offset5) = sb.inode_slot(Ino(1 + per_block as u32)).unwrap();
        assert_eq!(block5, sb.cg_base(0) + 2);
        assert_eq!(offset5, 0);
    }

    #[test]
    fn superblock_round_trips_and_detects_corruption() {
        let sb = sb();
        let bytes = sb.encode();
        assert_eq!(FfsSuperblock::decode(&bytes).unwrap(), sb);
        let mut bad = bytes.clone();
        bad[6] ^= 1;
        assert!(FfsSuperblock::decode(&bad).is_err());
    }

    #[test]
    fn inode_round_trips() {
        let mut inode = FfsInode::new(Ino(9), FileKind::Directory, 42);
        inode.size = 1234;
        inode.direct[3] = 77;
        inode.single = 99;
        let bytes = inode.encode();
        assert_eq!(bytes.len(), INODE_SIZE);
        assert_eq!(FfsInode::decode_slot(&bytes).unwrap(), Some(inode));
        assert_eq!(FfsInode::decode_slot(&[0u8; INODE_SIZE]).unwrap(), None);
    }

    #[test]
    fn data_block_classification() {
        let sb = sb();
        assert!(!sb.is_data_block(0)); // Superblock.
        assert!(!sb.is_data_block(sb.bitmap_block(0)));
        assert!(!sb.is_data_block(sb.cg_base(0) + 1)); // Inode table.
        assert!(sb.is_data_block(sb.data_start(0)));
        assert!(!sb.is_data_block(NIL));
    }

    #[test]
    fn derive_rejects_tiny_devices() {
        assert!(FfsSuperblock::derive(&FfsConfig::small_test(), 1024).is_err());
    }
}
