//! Directory content management.
//!
//! A directory is a file whose content is a stream of
//! [`vfs::dirent`]-encoded entries — "the formats of directories and
//! inodes are the same as in the BSD example" (Figure 2 caption).
//! Appending an entry dirties only the directory's last block; removal
//! rewrites the suffix of the stream from the removal point.

use sim_disk::{BlockDevice, CpuCost};
use vfs::dirent::{self, RawEntry};
use vfs::{FileKind, FsError, FsResult, Ino};

use super::Lfs;

impl<D: BlockDevice> Lfs<D> {
    /// Reads a directory's full entry stream.
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

    /// Parses a directory into entries.
    pub(crate) fn dir_entries(&mut self, dir: Ino) -> FsResult<Vec<RawEntry>> {
        let stream = self.read_dir_stream(dir)?;
        dirent::parse(&stream)
    }

    /// Finds one entry by name.
    pub(crate) fn dir_lookup(&mut self, dir: Ino, name: &str) -> FsResult<Option<(Ino, FileKind)>> {
        let stream = self.read_dir_stream(dir)?;
        dirent::lookup(&stream, name)
    }

    /// Appends an entry. The caller must have checked for duplicates.
    pub(crate) fn dir_insert(
        &mut self,
        dir: Ino,
        name: &str,
        ino: Ino,
        kind: FileKind,
    ) -> FsResult<()> {
        let size = self.inode(dir)?.size;
        let mut encoded = Vec::new();
        dirent::encode_entry(&mut encoded, ino, kind, name);
        // Unchecked: callers that grow the tree (create/mkdir) enforce
        // the space budget themselves; rename/link net ~zero growth and
        // must keep working on a full disk.
        self.do_write_unchecked(dir, size, &encoded)?;
        Ok(())
    }

    /// Removes the entry named `name`, rewriting the stream suffix.
    /// Returns the removed entry's target.
    pub(crate) fn dir_remove(&mut self, dir: Ino, name: &str) -> FsResult<(Ino, FileKind)> {
        let entries = self.dir_entries(dir)?;
        let index = entries
            .iter()
            .position(|e| e.name == name)
            .ok_or(FsError::NotFound)?;
        let removed = (entries[index].ino, entries[index].kind);
        let offset = entries[index].offset as u64;
        let suffix = dirent::encode_all(&entries[index + 1..]);
        if !suffix.is_empty() {
            // Unchecked: removal must succeed on a full disk.
            self.do_write_unchecked(dir, offset, &suffix)?;
        }
        self.do_truncate(dir, offset + suffix.len() as u64)?;
        Ok(removed)
    }

    /// Walks path components from the root.
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

    /// Resolves `path`'s parent directory; returns `(parent, final name)`.
    pub(crate) fn resolve_parent<'p>(&mut self, path: &'p str) -> FsResult<(Ino, &'p str)> {
        let (parent_parts, name) = vfs::path::split_parent(path)?;
        let parent = self.resolve_components(&parent_parts)?;
        if self.inode(parent)?.kind != FileKind::Directory {
            return Err(FsError::NotADirectory);
        }
        Ok((parent, name))
    }
}
