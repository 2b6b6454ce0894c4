//! The UNIX namespace and file operations, written once for both file
//! systems.
//!
//! The paper changes *where blocks go*, not what a file or a directory
//! is: "the format of inodes and indirect blocks is unchanged" (§4.2.1)
//! and "the formats of directories and inodes are the same as in the BSD
//! example" (Figure 2). So everything above block placement — directory
//! streams, path walks, `create`/`unlink`/`rename`/`link` and the
//! byte loop of `read` — lives here, generic over [`NodeStore`], the
//! small set of hooks in which LFS and FFS really differ: how an inode
//! is allocated and freed, where a block lives, and which changes must
//! reach the disk before the call returns.
//!
//! The functions issue one fixed sequence of CPU charges and hook calls
//! per operation. FFS's order is the script (Figure 1): `create` and
//! `link` persist the inode and then the directory block; `unlink`,
//! `rmdir` and `rename` persist the directory block and then the inode.
//! LFS implements both persist hooks as no-ops (Figure 2), so the same
//! script costs it no device access at all.
//!
//! A file system implements [`crate::FileSystem`] by forwarding the
//! operations below and writing `stat`, `fsync`, `sync` and its
//! statistics itself. [`crate::model::ModelFs`] does not use this
//! layer: it is the independent oracle these operations are checked
//! against.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::ops::Range;

use obs::Hist;
use sim_disk::{CpuCost, CpuModel};

use crate::blockmap::Roots;
use crate::dirent::{self, RawEntry};
use crate::error::{FsError, FsResult};
use crate::path::{split, split_parent, validate_name};
use crate::types::{DirEntry, FileKind, Ino};

obs::instruments! {
    /// Per-operation latency histograms on the virtual clock. Both file
    /// systems register the same `op.*_ns` names, so LFS and FFS runs
    /// export through one schema.
    pub struct OpHists {
        lookup, Hist, "op.lookup_ns", "Virtual-clock latency of each `lookup` call.";
        create, Hist, "op.create_ns", "Virtual-clock latency of each `create` call.";
        mkdir, Hist, "op.mkdir_ns", "Virtual-clock latency of each `mkdir` call.";
        unlink, Hist, "op.unlink_ns", "Virtual-clock latency of each `unlink` call.";
        rmdir, Hist, "op.rmdir_ns", "Virtual-clock latency of each `rmdir` call.";
        rename, Hist, "op.rename_ns", "Virtual-clock latency of each `rename` call.";
        link, Hist, "op.link_ns", "Virtual-clock latency of each `link` call.";
        read, Hist, "op.read_ns", "Virtual-clock latency of each `read` call.";
        write, Hist, "op.write_ns", "Virtual-clock latency of each `write` call.";
        truncate, Hist, "op.truncate_ns", "Virtual-clock latency of each `truncate` call.";
        fsync, Hist, "op.fsync_ns", "Virtual-clock latency of each `fsync` call.";
        sync, Hist, "op.sync_ns", "Virtual-clock latency of each `sync` call.";
    }
}

/// What this layer needs to know about one inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeView {
    /// File or directory.
    pub kind: FileKind,
    /// Length in bytes.
    pub size: u64,
    /// Number of directory entries referring to the inode.
    pub nlink: u16,
    /// Where its pointer tree starts.
    pub roots: Roots,
}

/// The hooks a file system provides to the shared namespace layer:
/// inodes, their bytes, and what has to be on disk when a call returns.
///
/// Nothing here says which file system is calling. Where LFS and FFS
/// differ, each does its own thing inside the hook — or nothing.
pub trait NodeStore {
    /// The CPU model operations are charged to (and, through it, the
    /// virtual clock they are timed on).
    fn cpu(&self) -> &CpuModel;

    /// The histograms [`timed`] records into.
    fn op_hists(&self) -> &OpHists;

    /// File-system block size in bytes.
    fn block_size(&self) -> usize;

    /// Fails if the file system currently refuses changes. Every
    /// mutating operation asks first, before it charges anything.
    fn check_writable(&self) -> FsResult<()>;

    /// Kind, size and link count of `ino`, loading the inode if needed.
    fn node(&mut self, ino: Ino) -> FsResult<NodeView>;

    /// Sets the link count of `ino` (in memory; see
    /// [`persist_inode`](NodeStore::persist_inode)).
    fn set_nlink(&mut self, ino: Ino, nlink: u16) -> FsResult<()>;

    /// Allocates an empty inode of `kind` with one link, for a new
    /// entry of directory `parent`, after checking there is room for it.
    fn alloc_node(&mut self, parent: Ino, kind: FileKind) -> FsResult<Ino>;

    /// Takes back an [`alloc_node`](NodeStore::alloc_node) whose
    /// directory entry could not be written.
    fn unalloc_node(&mut self, ino: Ino);

    /// Destroys a file or directory that no entry names any more: frees
    /// its blocks and its inode, and purges it from the cache.
    fn destroy_node(&mut self, ino: Ino) -> FsResult<()>;

    /// Makes the inode's current state durable before the operation
    /// returns, if the file system promises that.
    fn persist_inode(&mut self, ino: Ino) -> FsResult<()>;

    /// Makes bytes `range` of directory `dir` durable before the
    /// operation returns, if the file system promises that.
    fn persist_dir_range(&mut self, dir: Ino, range: Range<u64>) -> FsResult<()>;

    /// Pointer `slot` of the indirect block `ino` caches under index
    /// `idx` and keeps at disk address `addr`; [`crate::blockmap::NIL`]
    /// if there is no such block. A block that is not cached is loaded
    /// first, checked as far as the file system can check it, and the
    /// load charged — what [`crate::blockmap`] reads the tree through.
    fn indirect_ptr(&mut self, ino: Ino, idx: u64, addr: u32, slot: usize) -> FsResult<u32>;

    /// One block of a file, read through the cache; `None` for a hole.
    fn file_block(&mut self, ino: Ino, bno: u64) -> FsResult<Option<Vec<u8>>>;

    /// Records that `ino` was just read.
    fn touch_atime(&mut self, ino: Ino) -> FsResult<()>;

    /// Writes file data into the cache, within the free-space budget.
    fn do_write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize>;

    /// Writes directory content into the cache. No free-space *budget*
    /// applies: `unlink` has to rewrite a directory on a disk that is
    /// over budget, or it could never free space, and `rename`/`link`
    /// grow the tree by next to nothing.
    fn do_write_dir(&mut self, dir: Ino, offset: u64, data: &[u8]) -> FsResult<usize>;

    /// Sets a file's or directory's length (shrink or zero-extend).
    fn do_truncate(&mut self, ino: Ino, size: u64) -> FsResult<()>;

    /// Called last by every operation that succeeded so far, reads
    /// included: where the file system applies its delayed-write policy.
    fn after_op(&mut self) -> FsResult<()>;
}

/// The CPU cost of copying `bytes` bytes between buffers.
pub fn copy_cost(bytes: usize) -> CpuCost {
    CpuCost::Instructions(CpuCost::CopyKb.instructions() * (bytes as u64).div_ceil(1024))
}

/// Runs `f` and records its virtual-clock duration in the histogram
/// `hist` selects, successful or not — a failed operation still costs
/// the time it spent.
pub fn timed<S: NodeStore, R>(
    fs: &mut S,
    hist: fn(&OpHists) -> &Hist,
    f: impl FnOnce(&mut S) -> FsResult<R>,
) -> FsResult<R> {
    let start = fs.cpu().clock().now_ns();
    let result = f(fs);
    let elapsed = fs.cpu().clock().now_ns().saturating_sub(start);
    hist(fs.op_hists()).record(elapsed);
    result
}

// ----------------------------------------------------------------------
// Directories and paths.
//
// A directory is a file whose content is a stream of [`dirent`]-encoded
// entries. Appending an entry dirties only the directory's last block;
// removal rewrites the suffix of the stream from the removal point.
// ----------------------------------------------------------------------

/// Reads a directory's full entry stream.
pub fn read_dir_stream<S: NodeStore>(fs: &mut S, dir: Ino) -> FsResult<Vec<u8>> {
    let node = fs.node(dir)?;
    if node.kind != FileKind::Directory {
        return Err(FsError::NotADirectory);
    }
    let mut stream = vec![0u8; node.size as usize];
    let mut read = 0usize;
    while read < stream.len() {
        let n = do_read(fs, dir, read as u64, &mut stream[read..])?;
        if n == 0 {
            return Err(FsError::Corrupt("directory shorter than its size"));
        }
        read += n;
    }
    Ok(stream)
}

/// Parses a directory into entries.
pub fn dir_entries<S: NodeStore>(fs: &mut S, dir: Ino) -> FsResult<Vec<RawEntry>> {
    let stream = read_dir_stream(fs, dir)?;
    dirent::parse(&stream)
}

/// Finds one entry by name.
fn dir_lookup<S: NodeStore>(fs: &mut S, dir: Ino, name: &str) -> FsResult<Option<(Ino, FileKind)>> {
    let stream = read_dir_stream(fs, dir)?;
    dirent::lookup(&stream, name)
}

/// Appends an entry and returns the byte range it changed, for the
/// caller to persist once the inode it names is. The caller must have
/// checked for duplicates.
fn dir_insert<S: NodeStore>(
    fs: &mut S,
    dir: Ino,
    name: &str,
    ino: Ino,
    kind: FileKind,
) -> FsResult<Range<u64>> {
    let size = fs.node(dir)?.size;
    let mut encoded = Vec::new();
    dirent::encode_entry(&mut encoded, ino, kind, name);
    fs.do_write_dir(dir, size, &encoded)?;
    Ok(size..size + encoded.len() as u64)
}

/// Removes the entry named `name`, rewriting the stream suffix, and
/// persists the changed range. Returns the removed entry's target.
pub fn dir_remove<S: NodeStore>(fs: &mut S, dir: Ino, name: &str) -> FsResult<(Ino, FileKind)> {
    let entries = dir_entries(fs, dir)?;
    let index = entries
        .iter()
        .position(|e| e.name == name)
        .ok_or(FsError::NotFound)?;
    let removed = (entries[index].ino, entries[index].kind);
    let offset = entries[index].offset as u64;
    let suffix = dirent::encode_all(&entries[index + 1..]);
    if !suffix.is_empty() {
        fs.do_write_dir(dir, offset, &suffix)?;
    }
    fs.do_truncate(dir, offset + suffix.len() as u64)?;
    // Removing the last entry changes no byte that is kept, but the
    // block it ended in was rewritten (its tail zeroed).
    fs.persist_dir_range(dir, offset..offset + suffix.len().max(1) as u64)?;
    Ok(removed)
}

/// Walks path components from the root.
fn resolve_components<S: NodeStore>(fs: &mut S, components: &[&str]) -> FsResult<Ino> {
    let mut current = Ino::ROOT;
    for part in components {
        fs.cpu().charge(CpuCost::MapBlock);
        match dir_lookup(fs, current, part)? {
            Some((ino, _)) => current = ino,
            None => return Err(FsError::NotFound),
        }
    }
    Ok(current)
}

/// Resolves `path`'s parent directory; returns `(parent, final name)`.
fn resolve_parent<'p, S: NodeStore>(fs: &mut S, path: &'p str) -> FsResult<(Ino, &'p str)> {
    let (parent_parts, name) = split_parent(path)?;
    let parent = resolve_components(fs, &parent_parts)?;
    if fs.node(parent)?.kind != FileKind::Directory {
        return Err(FsError::NotADirectory);
    }
    Ok((parent, name))
}

// ----------------------------------------------------------------------
// The operations, one per `FileSystem` method of the same name.
// ----------------------------------------------------------------------

/// Creates a file or directory node under `path`.
fn create_node<S: NodeStore>(fs: &mut S, path: &str, kind: FileKind) -> FsResult<Ino> {
    fs.check_writable()?;
    fs.cpu().charge(CpuCost::CreateFile);
    let (parent, name) = resolve_parent(fs, path)?;
    validate_name(name)?;
    if dir_lookup(fs, parent, name)?.is_some() {
        return Err(FsError::AlreadyExists);
    }
    let ino = fs.alloc_node(parent, kind)?;
    let range = match dir_insert(fs, parent, name, ino, kind) {
        Ok(range) => range,
        Err(e) => {
            // E.g. out of space: no entry, so no inode either.
            fs.unalloc_node(ino);
            return Err(e);
        }
    };
    fs.persist_inode(ino)?;
    fs.persist_dir_range(parent, range)?;
    fs.after_op()?;
    Ok(ino)
}

/// Drops one link; destroys the file when the last link goes.
fn drop_link<S: NodeStore>(fs: &mut S, ino: Ino) -> FsResult<()> {
    let nlink = fs.node(ino)?.nlink - 1;
    fs.set_nlink(ino, nlink)?;
    if nlink == 0 {
        fs.destroy_node(ino)
    } else {
        fs.persist_inode(ino)
    }
}

/// Fails with [`FsError::IsADirectory`] unless `ino` is a regular file.
fn check_regular<S: NodeStore>(fs: &mut S, ino: Ino) -> FsResult<()> {
    if fs.node(ino)?.kind == FileKind::Directory {
        return Err(FsError::IsADirectory);
    }
    Ok(())
}

/// [`crate::FileSystem::lookup`].
pub fn lookup<S: NodeStore>(fs: &mut S, path: &str) -> FsResult<Ino> {
    timed(
        fs,
        |h| &h.lookup,
        |fs| {
            fs.cpu().charge(CpuCost::Syscall);
            let components = split(path)?;
            let ino = resolve_components(fs, &components)?;
            fs.after_op()?;
            Ok(ino)
        },
    )
}

/// [`crate::FileSystem::create`].
pub fn create<S: NodeStore>(fs: &mut S, path: &str) -> FsResult<Ino> {
    timed(
        fs,
        |h| &h.create,
        |fs| create_node(fs, path, FileKind::Regular),
    )
}

/// [`crate::FileSystem::mkdir`].
pub fn mkdir<S: NodeStore>(fs: &mut S, path: &str) -> FsResult<Ino> {
    timed(
        fs,
        |h| &h.mkdir,
        |fs| create_node(fs, path, FileKind::Directory),
    )
}

/// [`crate::FileSystem::unlink`].
pub fn unlink<S: NodeStore>(fs: &mut S, path: &str) -> FsResult<()> {
    timed(
        fs,
        |h| &h.unlink,
        |fs| {
            fs.check_writable()?;
            fs.cpu().charge(CpuCost::RemoveFile);
            let (parent, name) = resolve_parent(fs, path)?;
            let (ino, kind) = dir_lookup(fs, parent, name)?.ok_or(FsError::NotFound)?;
            if kind == FileKind::Directory {
                return Err(FsError::IsADirectory);
            }
            dir_remove(fs, parent, name)?;
            drop_link(fs, ino)?;
            fs.after_op()
        },
    )
}

/// [`crate::FileSystem::rmdir`].
pub fn rmdir<S: NodeStore>(fs: &mut S, path: &str) -> FsResult<()> {
    timed(
        fs,
        |h| &h.rmdir,
        |fs| {
            fs.check_writable()?;
            fs.cpu().charge(CpuCost::RemoveFile);
            let (parent, name) = resolve_parent(fs, path)?;
            let (ino, kind) = dir_lookup(fs, parent, name)?.ok_or(FsError::NotFound)?;
            if kind != FileKind::Directory {
                return Err(FsError::NotADirectory);
            }
            if !dir_entries(fs, ino)?.is_empty() {
                return Err(FsError::DirectoryNotEmpty);
            }
            dir_remove(fs, parent, name)?;
            fs.destroy_node(ino)?;
            fs.after_op()
        },
    )
}

/// [`crate::FileSystem::rename`].
pub fn rename<S: NodeStore>(fs: &mut S, from: &str, to: &str) -> FsResult<()> {
    timed(
        fs,
        |h| &h.rename,
        |fs| {
            fs.check_writable()?;
            fs.cpu().charge(CpuCost::CreateFile);
            let from_parts = split(from)?;
            let to_parts = split(to)?;
            if from_parts == to_parts {
                resolve_components(fs, &from_parts)?;
                return Ok(());
            }
            if !from_parts.is_empty() && to_parts.starts_with(&from_parts) {
                return Err(FsError::InvalidPath);
            }
            let (from_parent, from_name) = resolve_parent(fs, from)?;
            let (to_parent, to_name) = resolve_parent(fs, to)?;
            validate_name(to_name)?;

            let (src, src_kind) =
                dir_lookup(fs, from_parent, from_name)?.ok_or(FsError::NotFound)?;
            if let Some((existing, existing_kind)) = dir_lookup(fs, to_parent, to_name)? {
                match existing_kind {
                    FileKind::Directory => return Err(FsError::AlreadyExists),
                    FileKind::Regular => {
                        if src_kind == FileKind::Directory {
                            return Err(FsError::NotADirectory);
                        }
                        dir_remove(fs, to_parent, to_name)?;
                        drop_link(fs, existing)?;
                    }
                }
            }
            dir_remove(fs, from_parent, from_name)?;
            let range = dir_insert(fs, to_parent, to_name, src, src_kind)?;
            fs.persist_dir_range(to_parent, range)?;
            fs.after_op()
        },
    )
}

/// [`crate::FileSystem::link`].
pub fn link<S: NodeStore>(fs: &mut S, existing: &str, new: &str) -> FsResult<()> {
    timed(
        fs,
        |h| &h.link,
        |fs| {
            fs.check_writable()?;
            fs.cpu().charge(CpuCost::CreateFile);
            let components = split(existing)?;
            let src = resolve_components(fs, &components)?;
            check_regular(fs, src)?;
            let (parent, name) = resolve_parent(fs, new)?;
            validate_name(name)?;
            if dir_lookup(fs, parent, name)?.is_some() {
                return Err(FsError::AlreadyExists);
            }
            let range = dir_insert(fs, parent, name, src, FileKind::Regular)?;
            let nlink = fs.node(src)?.nlink + 1;
            fs.set_nlink(src, nlink)?;
            fs.persist_inode(src)?;
            fs.persist_dir_range(parent, range)?;
            fs.after_op()
        },
    )
}

/// [`crate::FileSystem::read_at`].
pub fn read_at<S: NodeStore>(fs: &mut S, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
    timed(
        fs,
        |h| &h.read,
        |fs| {
            fs.cpu().charge(CpuCost::Syscall);
            check_regular(fs, ino)?;
            let n = do_read(fs, ino, offset, buf)?;
            fs.after_op()?;
            Ok(n)
        },
    )
}

/// [`crate::FileSystem::write_at`].
pub fn write_at<S: NodeStore>(fs: &mut S, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
    timed(
        fs,
        |h| &h.write,
        |fs| {
            fs.check_writable()?;
            fs.cpu().charge(CpuCost::Syscall);
            check_regular(fs, ino)?;
            let n = fs.do_write(ino, offset, data)?;
            fs.after_op()?;
            Ok(n)
        },
    )
}

/// [`crate::FileSystem::truncate`].
pub fn truncate<S: NodeStore>(fs: &mut S, ino: Ino, size: u64) -> FsResult<()> {
    timed(
        fs,
        |h| &h.truncate,
        |fs| {
            fs.check_writable()?;
            fs.cpu().charge(CpuCost::Syscall);
            check_regular(fs, ino)?;
            fs.do_truncate(ino, size)?;
            fs.after_op()
        },
    )
}

/// [`crate::FileSystem::readdir`].
pub fn readdir<S: NodeStore>(fs: &mut S, path: &str) -> FsResult<Vec<DirEntry>> {
    fs.cpu().charge(CpuCost::Syscall);
    let components = split(path)?;
    let dir = resolve_components(fs, &components)?;
    let entries = dir_entries(fs, dir)?;
    Ok(entries
        .into_iter()
        .map(|e| DirEntry {
            name: e.name,
            ino: e.ino,
            kind: e.kind,
        })
        .collect())
}

// ----------------------------------------------------------------------
// The namespace census: what both `fsck`s report and both mount-time
// repairs act on.
// ----------------------------------------------------------------------

/// One disagreement between the directory tree and the inodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// A directory's entries could not be read.
    UnreadableDir {
        /// Path of the directory.
        path: String,
        /// Why not.
        error: FsError,
    },
    /// An entry names an inode that is not allocated.
    Dangling {
        /// Path of the entry.
        path: String,
        /// The inode it names.
        ino: Ino,
    },
    /// An allocated inode could not be read.
    UnreadableInode {
        /// The entry naming it, or the inode number.
        at: String,
        /// Why not.
        error: FsError,
    },
    /// An entry and the inode it names disagree on the kind.
    KindMismatch {
        /// Path of the entry.
        path: String,
        /// What the entry says.
        entry: FileKind,
        /// What the inode says.
        inode: FileKind,
    },
    /// A second entry names a directory that already has a parent.
    SecondParent {
        /// Path of the second entry.
        path: String,
    },
    /// An allocated inode no entry names.
    Orphan {
        /// The inode.
        ino: Ino,
    },
    /// An inode's link count is not the number of entries naming it.
    Nlink {
        /// The inode.
        ino: Ino,
        /// Its link count.
        nlink: u16,
        /// The entries naming it.
        refs: u32,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::UnreadableDir { path, error } => {
                write!(f, "unreadable directory {path}: {error}")
            }
            Finding::Dangling { path, ino } => {
                write!(f, "dangling entry {path} -> unallocated {ino}")
            }
            Finding::UnreadableInode { at, error } => write!(f, "unreadable inode {at}: {error}"),
            Finding::KindMismatch { path, entry, inode } => {
                write!(
                    f,
                    "kind mismatch at {path}: entry says {entry}, inode says {inode}"
                )
            }
            Finding::SecondParent { path } => write!(f, "directory {path} has multiple parents"),
            Finding::Orphan { ino } => write!(f, "orphaned inode {ino}"),
            Finding::Nlink { ino, nlink, refs } => {
                write!(f, "{ino}: nlink {nlink} but {refs} references")
            }
        }
    }
}

/// What a consistency check found.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// Invariant violations.
    pub errors: Vec<String>,
    /// Suspicious but tolerated conditions.
    pub warnings: Vec<String>,
}

impl FsckReport {
    /// Returns true if no errors were found.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() && self.warnings.is_empty() {
            return write!(f, "clean");
        }
        for e in &self.errors {
            writeln!(f, "error: {e}")?;
        }
        for w in &self.warnings {
            writeln!(f, "warning: {w}")?;
        }
        Ok(())
    }
}

/// The directory tree as found: who is named how often, and what is wrong.
#[derive(Debug, Default)]
pub struct Census {
    /// How many entries name each inode.
    refs: HashMap<Ino, u32>,
    /// Everything found wrong, in the order it was found.
    pub findings: Vec<Finding>,
}

/// Walks the directory tree breadth-first from the root and counts the
/// entries naming each inode. `read_dir` yields a directory's entries
/// ([`dir_entries`], or a salvaging reader); an entry whose finding
/// `drops` accepts is removed from its directory and not counted — a
/// checker drops nothing. Every other entry counts, whatever is wrong
/// with it; the walk descends by the *inode's* kind.
pub fn census<S: NodeStore>(
    fs: &mut S,
    is_allocated: impl Fn(&S, Ino) -> bool,
    mut read_dir: impl FnMut(&mut S, Ino) -> FsResult<Vec<RawEntry>>,
    drops: impl Fn(&Finding) -> bool,
) -> FsResult<Census> {
    let mut census = Census::default();
    let mut visited = HashSet::from([Ino::ROOT]);
    let mut queue = VecDeque::from([(Ino::ROOT, "/".to_string())]);
    while let Some((dir, dir_path)) = queue.pop_front() {
        let entries = match read_dir(fs, dir) {
            Ok(entries) => entries,
            Err(error) => {
                let path = dir_path;
                census.findings.push(Finding::UnreadableDir { path, error });
                continue;
            }
        };
        let mut dropped = Vec::new();
        for RawEntry {
            name, ino, kind, ..
        } in entries
        {
            // Built only for a finding or a directory to descend into.
            let path = || format!("{dir_path}{name}");
            // What is wrong with the entry, and the kind of the inode it
            // names where that can be read.
            let (wrong, inode_kind) = if !is_allocated(fs, ino) {
                (Some(Finding::Dangling { path: path(), ino }), None)
            } else {
                match fs.node(ino) {
                    Err(error) => (Some(Finding::UnreadableInode { at: path(), error }), None),
                    Ok(node) if node.kind != kind => {
                        let (path, entry, inode) = (path(), kind, node.kind);
                        (
                            Some(Finding::KindMismatch { path, entry, inode }),
                            Some(inode),
                        )
                    }
                    Ok(node) => (None, Some(node.kind)),
                }
            };
            let drop = wrong.as_ref().is_some_and(&drops);
            census.findings.extend(wrong);
            if drop {
                dropped.push(name);
                continue;
            }
            *census.refs.entry(ino).or_insert(0) += 1;
            if inode_kind == Some(FileKind::Directory) {
                if visited.insert(ino) {
                    queue.push_back((ino, path() + "/"));
                } else {
                    census.findings.push(Finding::SecondParent { path: path() });
                }
            }
        }
        for name in dropped {
            dir_remove(fs, dir, &name)?;
        }
    }
    Ok(census)
}

impl Census {
    /// Holds one allocated inode against the count: an orphan if nothing
    /// names it, a wrong link count otherwise (the root is exempt from
    /// both). Returns the inode if it is referenced and readable.
    pub fn audit<S: NodeStore>(&mut self, fs: &mut S, ino: Ino) -> Option<NodeView> {
        let refs = self.refs.get(&ino).copied().unwrap_or(0);
        if ino != Ino::ROOT && refs == 0 {
            self.findings.push(Finding::Orphan { ino });
            return None;
        }
        match fs.node(ino) {
            Ok(node) => {
                if ino != Ino::ROOT && node.nlink as u32 != refs {
                    let nlink = node.nlink;
                    self.findings.push(Finding::Nlink { ino, nlink, refs });
                }
                Some(node)
            }
            Err(error) => {
                let at = ino.to_string();
                self.findings.push(Finding::UnreadableInode { at, error });
                None
            }
        }
    }

    /// Repairs what an audited census found, in the order found: fails
    /// at anything unreadable (an unread directory's children would all
    /// look like orphans), destroys orphans, and sets a wrong link count
    /// to the reference count, calling `fixed` for the inode.
    pub fn repair<S: NodeStore>(
        self,
        fs: &mut S,
        mut fixed: impl FnMut(&mut S, Ino) -> FsResult<()>,
    ) -> FsResult<()> {
        for finding in self.findings {
            match finding {
                Finding::UnreadableDir { error, .. } | Finding::UnreadableInode { error, .. } => {
                    return Err(error)
                }
                Finding::Orphan { ino } => fs.destroy_node(ino)?,
                Finding::Nlink { ino, refs, .. } => {
                    fs.set_nlink(ino, refs as u16)?;
                    fixed(fs, ino)?;
                }
                Finding::Dangling { .. }
                | Finding::KindMismatch { .. }
                | Finding::SecondParent { .. } => {}
            }
        }
        Ok(())
    }
}

/// Copies a file's (or a directory's) bytes at `offset` into `buf`,
/// block by block through the cache, zero-filling holes; stops at end
/// of file. Returns the bytes read.
fn do_read<S: NodeStore>(fs: &mut S, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
    let size = fs.node(ino)?.size;
    if offset >= size {
        return Ok(0);
    }
    let bs = fs.block_size() as u64;
    let want = (buf.len() as u64).min(size - offset) as usize;
    let mut done = 0usize;
    while done < want {
        let pos = offset + done as u64;
        let bno = pos / bs;
        let within = (pos % bs) as usize;
        let n = (bs as usize - within).min(want - done);
        fs.cpu().charge(CpuCost::MapBlock);
        match fs.file_block(ino, bno)? {
            Some(block) => buf[done..done + n].copy_from_slice(&block[within..within + n]),
            None => buf[done..done + n].fill(0),
        }
        fs.cpu().charge(copy_cost(n));
        done += n;
    }
    fs.touch_atime(ino)?;
    Ok(done)
}
