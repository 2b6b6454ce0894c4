//! The [`vfs::FileSystem`] implementation for LFS.
//!
//! The namespace and data operations are the shared ones of
//! [`vfs::namespace`], run over this file system's
//! [`vfs::namespace::NodeStore`] hooks (`fs/file.rs`). What is written
//! here is what only LFS can answer: `stat` (access time lives in the
//! inode map), `fsync`/`sync` (a log write or a checkpoint) and the
//! statistics.

use sim_disk::{BlockDevice, CpuCost};
use vfs::namespace::{self, NodeStore};
use vfs::{DirEntry, FileSystem, FsResult, FsStats, Ino, Metadata};

use super::Lfs;
use crate::checkpoint::CpCause;

impl<D: BlockDevice> FileSystem for Lfs<D> {
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
        let entry = self.imap.get(ino)?;
        Ok(Metadata {
            ino,
            kind: inode.kind,
            size: inode.size,
            nlink: inode.nlink as u32,
            mtime_ns: inode.mtime_ns,
            atime_ns: entry.atime_ns,
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
                fs.check_writable()?;
                fs.charge(CpuCost::Syscall);
                fs.ensure_inode(ino)?;
                if !fs.cfg.roll_forward {
                    // Checkpoint-only recovery would never see a log
                    // flush: only a checkpoint makes the fsync durable.
                    fs.checkpoint_as(CpCause::Fsync)?;
                } else {
                    // §4.3.5 "Sync request": the dirty blocks are pushed to disk.
                    // Flushing everything (not just this file) keeps the file's
                    // directory entry in the same log write, so roll-forward
                    // recovery (§4.4.1) makes the fsync durable.
                    fs.flush(false, false)?;
                }
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
                fs.check_writable()?;
                fs.charge(CpuCost::Syscall);
                fs.checkpoint()?;
                fs.dev.flush()?;
                Ok(())
            },
        )
    }

    fn drop_caches(&mut self) -> FsResult<()> {
        self.readahead_clear("drop_caches");
        self.cache.drop_clean();
        self.inodes.drop_clean();
        let now = self.now();
        self.inodes.bound(&mut self.cache, now);
        self.names.clear();
        Ok(())
    }

    fn fs_stats(&mut self) -> FsResult<FsStats> {
        Ok(FsStats {
            capacity_bytes: self.sb.log_capacity_bytes(),
            used_bytes: self.usage.total_live_bytes(),
            live_inodes: self.imap.live_count(),
        })
    }

    fn set_active_client(&mut self, client: Option<u32>) {
        self.cache.set_client(client);
    }
}
