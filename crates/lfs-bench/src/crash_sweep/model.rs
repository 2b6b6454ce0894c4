//! The sweep's scripted workload, the durability model a clean run of
//! it produces, and the oracle that holds a recovered tree to that model
//! (the §4.4 contract; see the parent module for what it promises).

use std::collections::{BTreeMap, BTreeSet};

use vfs::{FileKind, FileSystem, FsError};

use super::SweepSpec;

/// One scripted operation. The script is pure data so the clean modelling
/// run and every crash run replay exactly the same sequence.
#[derive(Debug, Clone)]
pub(super) enum Op {
    Mkdir(String),
    Write(String, Vec<u8>),
    Unlink(String),
    Sync,
}

/// Deterministic file contents: phase/index-seeded length and byte fill.
fn payload(phase: usize, i: usize, salt: usize) -> Vec<u8> {
    let len = 120 + (phase * 977 + i * 131 + salt * 53) % 3400;
    let fill = (0x20 + (phase * 31 + i * 7 + salt) % 200) as u8;
    let mut data = vec![fill; len];
    // A non-uniform head so torn/rotted prefixes can't masquerade as a
    // legitimate version of some other file.
    for (k, b) in data.iter_mut().take(16).enumerate() {
        *b = b.wrapping_add((k * 17 + phase * 5 + i) as u8);
    }
    data
}

/// Builds the scripted workload: per phase, create a directory of files,
/// overwrite half of the previous phase's files, delete one, then sync.
pub(super) fn script(spec: &SweepSpec) -> Vec<Op> {
    let mut ops = Vec::new();
    for p in 0..spec.phases {
        ops.push(Op::Mkdir(format!("/d{p}")));
        for i in 0..spec.files_per_phase {
            ops.push(Op::Write(format!("/d{p}/f{i}"), payload(p, i, 0)));
        }
        if p > 0 {
            for i in 0..spec.files_per_phase / 2 {
                ops.push(Op::Write(format!("/d{}/f{i}", p - 1), payload(p, i, 1)));
            }
            ops.push(Op::Unlink(format!(
                "/d{}/f{}",
                p - 1,
                spec.files_per_phase - 1
            )));
        }
        ops.push(Op::Sync);
    }
    ops
}

/// A durability barrier: the device write count when a `sync` returned,
/// and the file state the file system promised to keep at that point.
#[derive(Debug, Clone)]
pub(super) struct Barrier {
    pub writes_done: u64,
    pub durable: BTreeMap<String, Vec<u8>>,
}

/// One content a path held once some vfs call returned.
pub(super) struct Version {
    pub bytes: Vec<u8>,
    /// False for the states *inside* a script write (the empty file
    /// after `create`/`truncate`, a short-`write_at` prefix).
    pub whole: bool,
}

/// The durability model a clean run produces.
#[derive(Default)]
pub(super) struct Model {
    /// Device write count after format, before the workload.
    pub format_writes: u64,
    /// Device write count after the whole workload.
    pub total_writes: u64,
    pub barriers: Vec<Barrier>,
    /// The namespace as of the latest op: what the next barrier promises.
    pub live: BTreeMap<String, Vec<u8>>,
    /// Every content each path ever held, in write order.
    pub history: BTreeMap<String, Vec<Version>>,
    /// Paths the workload unlinked at some point.
    pub deleted: BTreeSet<String>,
    /// Per path: `barriers.len()` at the moment of its last mutation —
    /// the first barrier index that fully covers the path's final state.
    pub touch: BTreeMap<String, usize>,
    /// Device-write spans during which the arm's maintenance task had a
    /// run in progress (so a sweep can prove crash points landed inside).
    pub task_spans: Vec<(u64, u64)>,
}

/// Create-or-overwrite: the trait's `write_file` refuses existing paths.
/// `version` sees what the file holds after each vfs call returns.
pub(super) fn upsert(
    fs: &mut dyn FileSystem,
    path: &str,
    data: &[u8],
    mut version: impl FnMut(&[u8]),
) -> Result<(), FsError> {
    let ino = match fs.lookup(path) {
        Ok(ino) => {
            fs.truncate(ino, 0)?;
            ino
        }
        Err(FsError::NotFound) => fs.create(path)?,
        Err(e) => return Err(e),
    };
    version(&[]);
    let mut written = 0;
    while written < data.len() {
        written += fs.write_at(ino, written as u64, &data[written..])?;
        version(&data[..written]);
    }
    Ok(())
}

/// Collects every regular-file path in the recovered tree.
fn live_files(fs: &mut dyn FileSystem) -> Result<BTreeSet<String>, FsError> {
    let mut out = BTreeSet::new();
    let mut stack = vec![String::from("/")];
    while let Some(dir) = stack.pop() {
        for entry in fs.readdir(&dir)? {
            let path = if dir == "/" {
                format!("/{}", entry.name)
            } else {
                format!("{dir}/{}", entry.name)
            };
            match entry.kind {
                FileKind::Regular => {
                    out.insert(path);
                }
                FileKind::Directory => stack.push(path),
            }
        }
    }
    Ok(out)
}

/// Checks a recovered volume against the model, given the verdict of the
/// file system's own consistency check (`Ok(None)` = clean,
/// `Ok(Some(report))` = problems found). `strict_content` demands every
/// recovered file hold bytes from its real version history. Returns
/// human-readable violations, and whether some recovered file held an
/// intermediate version (only looked for under `strict_content`).
pub(super) fn check_recovery(
    fs: &mut dyn FileSystem,
    fsck: Result<Option<String>, FsError>,
    model: &Model,
    crash_idx: u64,
    strict_content: bool,
) -> (Vec<String>, bool) {
    let mut problems = Vec::new();
    let mut saw_intermediate = false;
    match fsck {
        Ok(None) => {}
        Ok(Some(report)) => problems.push(format!("fsck unclean: {}", report.trim())),
        Err(e) => {
            problems.push(format!("fsck failed: {e}"));
            return (problems, false);
        }
    }

    // The newest barrier wholly persisted before the crash: writes with
    // index < crash_idx reached the platter, the triggering write did not.
    let guaranteed = model
        .barriers
        .iter()
        .enumerate()
        .rev()
        .find(|(_, b)| b.writes_done <= crash_idx);
    if let Some((g, barrier)) = guaranteed {
        for (path, content) in &barrier.durable {
            let untouched_since = model.touch.get(path).copied().unwrap_or(0) <= g;
            match fs.read_file(path) {
                Ok(found) if untouched_since && &found != content => problems.push(format!(
                    "durability: {path} synced at barrier {g} and never touched \
                     again, but came back with {} bytes instead of {}",
                    found.len(),
                    content.len()
                )),
                // Touched since: any real version will do (checked below).
                Ok(_) => {}
                Err(FsError::NotFound) if !untouched_since && model.deleted.contains(path) => {}
                Err(FsError::NotFound) => problems.push(format!(
                    "durability: {path} synced at barrier {g} is missing"
                )),
                Err(e) => problems.push(format!("durability: reading {path}: {e}")),
            }
        }
    }

    // No fabricated state: every recovered path must be one the workload
    // created, and (strict mode) hold a content version it really wrote.
    match live_files(fs) {
        Ok(found) => {
            for path in found {
                match model.history.get(&path) {
                    None => problems.push(format!("phantom: {path} was never created")),
                    Some(versions) if strict_content => match fs.read_file(&path) {
                        Ok(bytes) => match versions.iter().find(|v| v.bytes == bytes) {
                            Some(v) => saw_intermediate |= !v.whole,
                            None => problems.push(format!(
                                "integrity: {path} holds bytes matching no real version"
                            )),
                        },
                        Err(e) => problems.push(format!("integrity: reading {path}: {e}")),
                    },
                    Some(_) => {}
                }
            }
        }
        Err(e) => problems.push(format!("tree walk failed: {e}")),
    }
    (problems, saw_intermediate)
}
