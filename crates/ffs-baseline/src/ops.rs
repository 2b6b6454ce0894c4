//! The [`vfs::FileSystem`] implementation for FFS.
//!
//! The namespace and data operations are the shared ones of
//! [`vfs::namespace`], run over this file system's
//! [`vfs::namespace::NodeStore`] hooks (`file.rs`). What is written here
//! is what only FFS can answer: `stat` (access time lives in the inode),
//! `fsync`/`sync` (writes to each block's home address) and the
//! statistics.

use sim_disk::{BlockDevice, CpuCost};
use vfs::{blockmap, namespace, DirEntry, FileSystem, FsResult, FsStats, Ino, Metadata};

use crate::fs::Ffs;

impl<D: BlockDevice> FileSystem for Ffs<D> {
    fn lookup(&mut self, path: &str) -> FsResult<Ino> {
        namespace::lookup(self, path)
    }

    fn create(&mut self, path: &str) -> FsResult<Ino> {
        namespace::create(self, path)
    }

    fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
        namespace::mkdir(self, path)
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        namespace::unlink(self, path)
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        namespace::rmdir(self, path)
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        namespace::rename(self, from, to)
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        namespace::link(self, existing, new)
    }

    fn read_at(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        namespace::read_at(self, ino, offset, buf)
    }

    fn write_at(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        namespace::write_at(self, ino, offset, data)
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        namespace::truncate(self, ino, size)
    }

    fn stat(&mut self, ino: Ino) -> FsResult<Metadata> {
        self.charge(CpuCost::Syscall);
        let inode = self.inode(ino)?;
        Ok(Metadata {
            ino,
            kind: inode.kind,
            size: inode.size,
            nlink: inode.nlink as u32,
            mtime_ns: inode.mtime_ns,
            atime_ns: inode.atime_ns,
        })
    }

    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
        namespace::readdir(self, path)
    }

    fn fsync(&mut self, ino: Ino) -> FsResult<()> {
        namespace::timed(
            self,
            |h| &h.fsync,
            |fs| {
                fs.charge(CpuCost::Syscall);
                fs.ensure_inode(ino)?;
                // Write the file's dirty blocks and inode to their homes.
                let keys: Vec<_> = fs
                    .cache
                    .dirty_keys_of(mem_mgr::Owner::File(ino))
                    .into_iter()
                    .collect();
                for key in keys {
                    let data = fs.cache.get(key).unwrap().to_vec();
                    let addr = blockmap::block_addr(fs, ino, key.index)?;
                    if addr != crate::layout::NIL {
                        fs.dev.annotate("fsync-data");
                        fs.dev.write(fs.sector_of(addr), &data, true)?;
                        fs.cache.mark_clean(key);
                    }
                }
                fs.write_inode_to_table(ino, true)?;
                fs.dev.flush()?;
                Ok(())
            },
        )
    }

    fn sync(&mut self) -> FsResult<()> {
        namespace::timed(
            self,
            |h| &h.sync,
            |fs| {
                fs.charge(CpuCost::Syscall);
                fs.flush_all()?;
                fs.dev.flush()?;
                Ok(())
            },
        )
    }

    fn drop_caches(&mut self) -> FsResult<()> {
        self.cache.drop_clean();
        self.inodes.retain(|_, c| c.dirty);
        Ok(())
    }

    fn fs_stats(&mut self) -> FsResult<FsStats> {
        let total = self.sb.data_capacity_bytes();
        let free = self.alloc.free_blocks() * self.block_size() as u64;
        Ok(FsStats {
            capacity_bytes: total,
            used_bytes: total - free,
            live_inodes: (self.sb.max_inodes() as u64) - self.alloc.free_inodes(),
        })
    }

    fn set_active_client(&mut self, client: Option<u32>) {
        self.cache.set_client(client);
    }
}
