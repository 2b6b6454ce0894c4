//! Directory-entry wire format, shared by LFS and the FFS baseline.
//!
//! The paper (Figure 2 caption) notes that "the formats of directories and
//! inodes are the same as in the BSD example". Directory content is a flat
//! byte stream of variable-length records:
//!
//! ```text
//! +--------+------+----------+--------------+
//! | ino u32| kind | nlen u16 | name (nlen B)|
//! +--------+------+----------+--------------+
//! ```
//!
//! All integers are little-endian. A directory's stream is read in its
//! entirety (office/engineering directories are small, per §3) and
//! decoded by one borrowed-entry scan: [`lookup`] walks it and copies
//! nothing, while listing, removal and repair collect owned
//! [`RawEntry`]s from it ([`parse`], [`parse_prefix`]). Modifications rewrite the suffix of the stream
//! from the edit point, so an append dirties only the directory's final
//! block.

use crate::error::{FsError, FsResult};
use crate::types::{FileKind, Ino};

/// Fixed header bytes per entry (ino + kind + name length).
pub const ENTRY_HEADER_LEN: usize = 4 + 1 + 2;

/// A parsed directory entry plus its byte offset within the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawEntry {
    /// Byte offset of this entry's header in the directory stream.
    pub offset: usize,
    /// Target inode.
    pub ino: Ino,
    /// Target kind.
    pub kind: FileKind,
    /// Entry name.
    pub name: String,
}

impl RawEntry {
    /// Total encoded length of this entry in bytes.
    pub fn encoded_len(&self) -> usize {
        ENTRY_HEADER_LEN + self.name.len()
    }
}

fn kind_to_byte(kind: FileKind) -> u8 {
    match kind {
        FileKind::Regular => 1,
        FileKind::Directory => 2,
    }
}

fn kind_from_byte(byte: u8) -> FsResult<FileKind> {
    match byte {
        1 => Ok(FileKind::Regular),
        2 => Ok(FileKind::Directory),
        _ => Err(FsError::Corrupt("bad dirent kind byte")),
    }
}

/// Appends one encoded entry to `out`.
pub fn encode_entry(out: &mut Vec<u8>, ino: Ino, kind: FileKind, name: &str) {
    out.extend_from_slice(&ino.0.to_le_bytes());
    out.push(kind_to_byte(kind));
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

/// Decodes the record at `pos`: its target and its name, borrowed.
fn decode_at(stream: &[u8], pos: usize) -> FsResult<(Ino, FileKind, &str)> {
    if stream.len() - pos < ENTRY_HEADER_LEN {
        return Err(FsError::Corrupt("truncated dirent header"));
    }
    let ino = Ino(u32::from_le_bytes(stream[pos..pos + 4].try_into().unwrap()));
    let kind = kind_from_byte(stream[pos + 4])?;
    let nlen = u16::from_le_bytes(stream[pos + 5..pos + 7].try_into().unwrap()) as usize;
    let name_start = pos + ENTRY_HEADER_LEN;
    if stream.len() - name_start < nlen {
        return Err(FsError::Corrupt("truncated dirent name"));
    }
    let name = std::str::from_utf8(&stream[name_start..name_start + nlen])
        .map_err(|_| FsError::Corrupt("dirent name is not UTF-8"))?;
    Ok((ino, kind, name))
}

/// The one decoder of the entry format: hands each whole record of
/// `stream`, in order, to `visit` — offset, target, borrowed name — and
/// returns the bytes those records cover and what ended the scan: the
/// end of the stream, or the [`FsError::Corrupt`] of the first
/// truncated or malformed record.
fn scan<'a>(
    stream: &'a [u8],
    mut visit: impl FnMut(usize, Ino, FileKind, &'a str),
) -> (usize, FsResult<()>) {
    let mut pos = 0;
    while pos < stream.len() {
        match decode_at(stream, pos) {
            Ok((ino, kind, name)) => {
                visit(pos, ino, kind, name);
                pos += ENTRY_HEADER_LEN + name.len();
            }
            Err(e) => return (pos, Err(e)),
        }
    }
    (pos, Ok(()))
}

/// The whole entries of `stream`, owned, with the rest of [`scan`]'s answer.
fn collect(stream: &[u8]) -> (Vec<RawEntry>, usize, FsResult<()>) {
    let mut entries = Vec::new();
    let (valid_len, ended) = scan(stream, |offset, ino, kind, name| {
        entries.push(RawEntry {
            offset,
            ino,
            kind,
            name: name.to_string(),
        })
    });
    (entries, valid_len, ended)
}

/// Parses a full directory stream into entries.
///
/// Returns [`FsError::Corrupt`] on truncated or malformed records.
pub fn parse(stream: &[u8]) -> FsResult<Vec<RawEntry>> {
    let (entries, _, ended) = collect(stream);
    ended.map(|()| entries)
}

/// Parses as many whole entries as possible, returning them along with
/// the number of stream bytes they cover. Used by repair code to salvage
/// a directory whose tail was corrupted by a crash.
pub fn parse_prefix(stream: &[u8]) -> (Vec<RawEntry>, usize) {
    let (entries, valid_len, _) = collect(stream);
    (entries, valid_len)
}

/// Finds the target of the first entry named `name`, copying nothing.
///
/// Validates exactly as [`parse`] does: the whole stream is decoded, so
/// a malformed record anywhere — even after the match — is the same
/// [`FsError::Corrupt`] `parse` reports.
pub fn lookup(stream: &[u8], name: &str) -> FsResult<Option<(Ino, FileKind)>> {
    let mut hit = None;
    let (_, ended) = scan(stream, |_, ino, kind, entry_name| {
        if hit.is_none() && entry_name == name {
            hit = Some((ino, kind));
        }
    });
    ended.map(|()| hit)
}

/// Serialises a list of entries back into a stream.
pub fn encode_all(entries: &[RawEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.iter().map(RawEntry::encoded_len).sum());
    for entry in entries {
        encode_entry(&mut out, entry.ino, entry.kind, &entry.name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut stream = Vec::new();
        encode_entry(&mut stream, Ino(2), FileKind::Regular, "alpha");
        encode_entry(&mut stream, Ino(3), FileKind::Directory, "beta");
        encode_entry(&mut stream, Ino(4), FileKind::Regular, "");
        stream
    }

    #[test]
    fn round_trips() {
        let entries = parse(&sample()).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].name, "alpha");
        assert_eq!(entries[0].ino, Ino(2));
        assert_eq!(entries[1].kind, FileKind::Directory);
        assert_eq!(entries[2].name, "");
        assert_eq!(encode_all(&entries), sample());
    }

    #[test]
    fn offsets_are_cumulative() {
        let entries = parse(&sample()).unwrap();
        assert_eq!(entries[0].offset, 0);
        assert_eq!(entries[1].offset, ENTRY_HEADER_LEN + 5);
        assert_eq!(entries[2].offset, 2 * ENTRY_HEADER_LEN + 5 + 4);
    }

    #[test]
    fn lookup_locates_by_name() {
        let stream = sample();
        assert_eq!(
            lookup(&stream, "beta"),
            Ok(Some((Ino(3), FileKind::Directory)))
        );
        assert_eq!(lookup(&stream, ""), Ok(Some((Ino(4), FileKind::Regular))));
        assert_eq!(lookup(&stream, "gamma"), Ok(None));
    }

    #[test]
    fn lookup_returns_the_first_match_and_validates_past_it() {
        let mut stream = sample();
        encode_entry(&mut stream, Ino(9), FileKind::Regular, "alpha");
        assert_eq!(
            lookup(&stream, "alpha"),
            Ok(Some((Ino(2), FileKind::Regular)))
        );
        // A bad record after the hit is still the directory's answer.
        let last = parse(&stream).unwrap().last().unwrap().offset;
        stream[last + 4] = 99;
        assert_eq!(
            lookup(&stream, "alpha"),
            Err(FsError::Corrupt("bad dirent kind byte"))
        );
    }

    #[test]
    fn the_scan_ends_at_the_first_bad_record() {
        let mut stream = sample();
        stream[ENTRY_HEADER_LEN + 5 + 4] = 99; // second entry's kind byte
        let mut names = Vec::new();
        let (valid_len, ended) = scan(&stream, |_, _, _, name| names.push(name));
        assert_eq!(names, ["alpha"]);
        assert_eq!(valid_len, ENTRY_HEADER_LEN + 5);
        assert_eq!(ended, Err(FsError::Corrupt("bad dirent kind byte")));
    }

    #[test]
    fn rejects_truncated_streams() {
        let stream = sample();
        assert_eq!(
            parse(&stream[..3]),
            Err(FsError::Corrupt("truncated dirent header"))
        );
        assert_eq!(
            parse(&stream[..ENTRY_HEADER_LEN + 2]),
            Err(FsError::Corrupt("truncated dirent name"))
        );
    }

    #[test]
    fn rejects_bad_kind() {
        let mut stream = sample();
        stream[4] = 99;
        assert_eq!(
            parse(&stream),
            Err(FsError::Corrupt("bad dirent kind byte"))
        );
    }

    #[test]
    fn parse_prefix_salvages_valid_head() {
        let mut stream = sample();
        let full_len = stream.len();
        // Corrupt the last entry's kind byte.
        let entries = parse(&stream).unwrap();
        let last = entries.last().unwrap().offset;
        stream[last + 4] = 99;
        let (salvaged, valid) = parse_prefix(&stream);
        assert_eq!(salvaged.len(), entries.len() - 1);
        assert_eq!(valid, last);
        assert!(valid < full_len);
        // A fully valid stream salvages completely.
        let clean = sample();
        let (all, len) = parse_prefix(&clean);
        assert_eq!(all.len(), 3);
        assert_eq!(len, clean.len());
    }

    #[test]
    fn empty_stream_is_empty_directory() {
        assert!(parse(&[]).unwrap().is_empty());
    }
}
