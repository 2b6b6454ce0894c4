//! The [`vfs::FileSystem`] implementation for FFS.
//!
//! This is where the paper's §3.1 behaviour lives: `create` and `unlink`
//! perform small, random, *synchronous* writes of the inode-table block
//! and the directory data block — the accesses Figure 1 draws and the
//! reason FFS's small-file throughput cannot scale with CPU speed.

use sim_disk::{BlockDevice, CpuCost};
use vfs::{DirEntry, FileKind, FileSystem, FsError, FsResult, FsStats, Ino, Metadata};

use crate::fs::{CachedInode, Ffs, FfsObs};
use crate::layout::FfsInode;

impl<D: BlockDevice> Ffs<D> {
    /// Runs `f` and records its virtual-clock duration in the histogram
    /// `hist` selects, successful or not — a failed operation still costs
    /// the time it spent.
    fn timed<R>(
        &mut self,
        hist: fn(&FfsObs) -> &obs::Hist,
        f: impl FnOnce(&mut Self) -> FsResult<R>,
    ) -> FsResult<R> {
        let start = self.now();
        let result = f(self);
        let elapsed = self.now().saturating_sub(start);
        hist(&self.obs).record(elapsed);
        result
    }

    fn create_node(&mut self, path: &str, kind: FileKind) -> FsResult<Ino> {
        self.charge(CpuCost::CreateFile);
        let (parent, name) = self.resolve_parent(path)?;
        vfs::path::validate_name(name)?;
        if self.dir_lookup(parent, name)?.is_some() {
            return Err(FsError::AlreadyExists);
        }
        let (parent_cg, _) = self.sb.ino_location(parent)?;
        let ino = self.alloc.alloc_inode(parent_cg)?;
        let now = self.now();
        self.inodes.insert(
            ino,
            CachedInode {
                inode: FfsInode::new(ino, kind, now),
                dirty: true,
            },
        );
        let range = match self.dir_insert(parent, name, ino, kind) {
            Ok(range) => range,
            Err(e) => {
                self.inodes.remove(&ino);
                let _ = self.alloc.free_inode(ino);
                return Err(e);
            }
        };
        // Figure 1: the new inode and the directory block go to disk
        // synchronously, before creat returns.
        self.write_inode_to_table(ino, true)?;
        self.sync_file_range(parent, range.0, range.1)?;
        self.maybe_writeback()?;
        Ok(ino)
    }

    fn drop_link(&mut self, ino: Ino) -> FsResult<()> {
        let nlink = self.with_inode_mut(ino, |i| {
            i.nlink -= 1;
            i.nlink
        })?;
        if nlink == 0 {
            self.destroy_file(ino)?;
        } else {
            self.write_inode_to_table(ino, true)?;
        }
        Ok(())
    }
}

impl<D: BlockDevice> FileSystem for Ffs<D> {
    fn lookup(&mut self, path: &str) -> FsResult<Ino> {
        self.timed(
            |o| &o.op_lookup,
            |fs| {
                fs.charge(CpuCost::Syscall);
                let components = vfs::path::split(path)?;
                let ino = fs.resolve_components(&components)?;
                fs.maybe_writeback()?;
                Ok(ino)
            },
        )
    }

    fn create(&mut self, path: &str) -> FsResult<Ino> {
        self.timed(
            |o| &o.op_create,
            |fs| fs.create_node(path, FileKind::Regular),
        )
    }

    fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
        self.timed(
            |o| &o.op_mkdir,
            |fs| fs.create_node(path, FileKind::Directory),
        )
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.timed(
            |o| &o.op_unlink,
            |fs| {
                fs.charge(CpuCost::RemoveFile);
                let (parent, name) = fs.resolve_parent(path)?;
                let (ino, kind) = fs.dir_lookup(parent, name)?.ok_or(FsError::NotFound)?;
                if kind == FileKind::Directory {
                    return Err(FsError::IsADirectory);
                }
                let (_, range) = fs.dir_remove(parent, name)?;
                // Figure 1 semantics: directory block and inode synchronously.
                fs.sync_file_range(parent, range.0, range.1)?;
                fs.drop_link(ino)?;
                fs.maybe_writeback()?;
                Ok(())
            },
        )
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        self.timed(
            |o| &o.op_rmdir,
            |fs| {
                fs.charge(CpuCost::RemoveFile);
                let (parent, name) = fs.resolve_parent(path)?;
                let (ino, kind) = fs.dir_lookup(parent, name)?.ok_or(FsError::NotFound)?;
                if kind != FileKind::Directory {
                    return Err(FsError::NotADirectory);
                }
                if !fs.dir_entries(ino)?.is_empty() {
                    return Err(FsError::DirectoryNotEmpty);
                }
                let (_, range) = fs.dir_remove(parent, name)?;
                fs.sync_file_range(parent, range.0, range.1)?;
                fs.destroy_file(ino)?;
                fs.maybe_writeback()?;
                Ok(())
            },
        )
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        self.timed(
            |o| &o.op_rename,
            |fs| {
                fs.charge(CpuCost::CreateFile);
                let from_parts = vfs::path::split(from)?;
                let to_parts = vfs::path::split(to)?;
                if from_parts == to_parts {
                    fs.resolve_components(&from_parts)?;
                    return Ok(());
                }
                if !from_parts.is_empty() && to_parts.starts_with(&from_parts) {
                    return Err(FsError::InvalidPath);
                }
                let (from_parent, from_name) = fs.resolve_parent(from)?;
                let (to_parent, to_name) = fs.resolve_parent(to)?;
                vfs::path::validate_name(to_name)?;

                let (src, src_kind) = fs
                    .dir_lookup(from_parent, from_name)?
                    .ok_or(FsError::NotFound)?;
                if let Some((existing, existing_kind)) = fs.dir_lookup(to_parent, to_name)? {
                    match existing_kind {
                        FileKind::Directory => return Err(FsError::AlreadyExists),
                        FileKind::Regular => {
                            if src_kind == FileKind::Directory {
                                return Err(FsError::NotADirectory);
                            }
                            let (_, range) = fs.dir_remove(to_parent, to_name)?;
                            fs.sync_file_range(to_parent, range.0, range.1)?;
                            fs.drop_link(existing)?;
                        }
                    }
                }
                let (_, from_range) = fs.dir_remove(from_parent, from_name)?;
                fs.sync_file_range(from_parent, from_range.0, from_range.1)?;
                let to_range = fs.dir_insert(to_parent, to_name, src, src_kind)?;
                fs.sync_file_range(to_parent, to_range.0, to_range.1)?;
                fs.maybe_writeback()?;
                Ok(())
            },
        )
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        self.timed(
            |o| &o.op_link,
            |fs| {
                fs.charge(CpuCost::CreateFile);
                let components = vfs::path::split(existing)?;
                let src = fs.resolve_components(&components)?;
                if fs.inode(src)?.kind == FileKind::Directory {
                    return Err(FsError::IsADirectory);
                }
                let (parent, name) = fs.resolve_parent(new)?;
                vfs::path::validate_name(name)?;
                if fs.dir_lookup(parent, name)?.is_some() {
                    return Err(FsError::AlreadyExists);
                }
                let range = fs.dir_insert(parent, name, src, FileKind::Regular)?;
                fs.with_inode_mut(src, |i| i.nlink += 1)?;
                fs.write_inode_to_table(src, true)?;
                fs.sync_file_range(parent, range.0, range.1)?;
                fs.maybe_writeback()?;
                Ok(())
            },
        )
    }

    fn read_at(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.timed(
            |o| &o.op_read,
            |fs| {
                fs.charge(CpuCost::Syscall);
                if fs.inode(ino)?.kind == FileKind::Directory {
                    return Err(FsError::IsADirectory);
                }
                let n = fs.do_read(ino, offset, buf)?;
                fs.maybe_writeback()?;
                Ok(n)
            },
        )
    }

    fn write_at(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.timed(
            |o| &o.op_write,
            |fs| {
                fs.charge(CpuCost::Syscall);
                if fs.inode(ino)?.kind == FileKind::Directory {
                    return Err(FsError::IsADirectory);
                }
                let n = fs.do_write(ino, offset, data)?;
                fs.maybe_writeback()?;
                Ok(n)
            },
        )
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        self.timed(
            |o| &o.op_truncate,
            |fs| {
                fs.charge(CpuCost::Syscall);
                if fs.inode(ino)?.kind == FileKind::Directory {
                    return Err(FsError::IsADirectory);
                }
                fs.do_truncate(ino, size)?;
                fs.maybe_writeback()?;
                Ok(())
            },
        )
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
        self.charge(CpuCost::Syscall);
        let components = vfs::path::split(path)?;
        let dir = self.resolve_components(&components)?;
        let entries = self.dir_entries(dir)?;
        Ok(entries
            .into_iter()
            .map(|e| DirEntry {
                name: e.name,
                ino: e.ino,
                kind: e.kind,
            })
            .collect())
    }

    fn fsync(&mut self, ino: Ino) -> FsResult<()> {
        self.timed(
            |o| &o.op_fsync,
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
                    let addr = if crate::fs::is_data_idx(key.index) {
                        fs.map_block(ino, key.index)?
                    } else {
                        fs.indirect_home(ino, key.index)?
                    };
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
        self.timed(
            |o| &o.op_sync,
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
