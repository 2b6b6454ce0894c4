//! FFS directory content management.
//!
//! Same wire format as LFS ([`vfs::dirent`]). Mutating helpers report the
//! modified byte range so `create`/`unlink` can write exactly the
//! affected directory blocks synchronously (Figure 1).

use sim_disk::{BlockDevice, CpuCost};
use vfs::dirent::{self, RawEntry};
use vfs::{FileKind, FsError, FsResult, Ino};

use crate::fs::Ffs;

impl<D: BlockDevice> Ffs<D> {
    pub(crate) fn read_dir_stream(&mut self, dir: Ino) -> FsResult<Vec<u8>> {
        let inode = self.inode(dir)?;
        if inode.kind != FileKind::Directory {
            return Err(FsError::NotADirectory);
        }
        let mut stream = vec![0u8; inode.size as usize];
        let mut read = 0usize;
        while read < stream.len() {
            let n = self.do_read(dir, read as u64, &mut stream[read..])?;
            if n == 0 {
                return Err(FsError::Corrupt("directory shorter than its size"));
            }
            read += n;
        }
        Ok(stream)
    }

    pub(crate) fn dir_entries(&mut self, dir: Ino) -> FsResult<Vec<RawEntry>> {
        let stream = self.read_dir_stream(dir)?;
        dirent::parse(&stream)
    }

    pub(crate) fn dir_lookup(&mut self, dir: Ino, name: &str) -> FsResult<Option<(Ino, FileKind)>> {
        let stream = self.read_dir_stream(dir)?;
        dirent::lookup(&stream, name)
    }

    /// Appends an entry; returns the modified byte range.
    pub(crate) fn dir_insert(
        &mut self,
        dir: Ino,
        name: &str,
        ino: Ino,
        kind: FileKind,
    ) -> FsResult<(u64, u64)> {
        let size = self.inode(dir)?.size;
        let mut encoded = Vec::new();
        dirent::encode_entry(&mut encoded, ino, kind, name);
        self.do_write(dir, size, &encoded)?;
        Ok((size, size + encoded.len() as u64))
    }

    /// Removes an entry; returns the removed target and the modified
    /// byte range.
    pub(crate) fn dir_remove(
        &mut self,
        dir: Ino,
        name: &str,
    ) -> FsResult<((Ino, FileKind), (u64, u64))> {
        let entries = self.dir_entries(dir)?;
        let index = entries
            .iter()
            .position(|e| e.name == name)
            .ok_or(FsError::NotFound)?;
        let removed = (entries[index].ino, entries[index].kind);
        let offset = entries[index].offset as u64;
        let suffix = dirent::encode_all(&entries[index + 1..]);
        if !suffix.is_empty() {
            self.do_write(dir, offset, &suffix)?;
        }
        self.do_truncate(dir, offset + suffix.len() as u64)?;
        Ok((removed, (offset, offset + suffix.len().max(1) as u64)))
    }

    pub(crate) fn resolve_components(&mut self, components: &[&str]) -> FsResult<Ino> {
        let mut current = Ino::ROOT;
        for part in components {
            self.charge(CpuCost::MapBlock);
            match self.dir_lookup(current, part)? {
                Some((ino, _)) => current = ino,
                None => return Err(FsError::NotFound),
            }
        }
        Ok(current)
    }

    pub(crate) fn resolve_parent<'p>(&mut self, path: &'p str) -> FsResult<(Ino, &'p str)> {
        let (parent_parts, name) = vfs::path::split_parent(path)?;
        let parent = self.resolve_components(&parent_parts)?;
        if self.inode(parent)?.kind != FileKind::Directory {
            return Err(FsError::NotADirectory);
        }
        Ok((parent, name))
    }
}
