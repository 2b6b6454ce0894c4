//! Property tests for the shared wire formats and helpers: round trips
//! under arbitrary inputs, and graceful rejection of arbitrary garbage.

use proptest::prelude::*;

use vfs::blockmap::{self, BlockPath, NDIRECT};
use vfs::dirent::{self, RawEntry};
use vfs::wire::{crc32, ByteReader, ByteWriter};
use vfs::{FileKind, FsError, FsResult, Ino};

fn name_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9_.\\-]{1,40}")
        .unwrap()
        // "." and ".." are reserved path components.
        .prop_filter("reserved name", |name| name != "." && name != "..")
}

fn entry_strategy() -> impl Strategy<Value = (u32, bool, String)> {
    (1u32..100_000, any::<bool>(), name_strategy())
}

/// The hand-written loop `dirent::parse` and `dirent::parse_prefix`
/// used to be (twice), kept as the reference the borrowed-entry scan
/// is held to: the whole entries before the first bad record, the
/// bytes they cover, and what was wrong with that record.
fn reference_decode(stream: &[u8]) -> (Vec<RawEntry>, usize, Option<FsError>) {
    let mut entries = Vec::new();
    let mut pos = 0;
    let corrupt = |what| Some(FsError::Corrupt(what));
    while pos < stream.len() {
        if stream.len() - pos < dirent::ENTRY_HEADER_LEN {
            return (entries, pos, corrupt("truncated dirent header"));
        }
        let ino = Ino(u32::from_le_bytes(stream[pos..pos + 4].try_into().unwrap()));
        let kind = match stream[pos + 4] {
            1 => FileKind::Regular,
            2 => FileKind::Directory,
            _ => return (entries, pos, corrupt("bad dirent kind byte")),
        };
        let nlen = u16::from_le_bytes(stream[pos + 5..pos + 7].try_into().unwrap()) as usize;
        let name_start = pos + dirent::ENTRY_HEADER_LEN;
        if stream.len() - name_start < nlen {
            return (entries, pos, corrupt("truncated dirent name"));
        }
        let Ok(name) = std::str::from_utf8(&stream[name_start..name_start + nlen]) else {
            return (entries, pos, corrupt("dirent name is not UTF-8"));
        };
        entries.push(RawEntry {
            offset: pos,
            ino,
            kind,
            name: name.to_string(),
        });
        pos = name_start + nlen;
    }
    (entries, pos, None)
}

/// Holds `parse`, `parse_prefix` and `lookup` to the reference on one
/// stream: same `Ok`/`Err`, same `Corrupt` message, same salvage, and
/// the same hit — the first entry with the name, out of a stream that
/// is valid to its end.
fn check_against_reference(stream: &[u8], name: &str) -> Result<(), TestCaseError> {
    let (entries, valid_len, error) = reference_decode(stream);
    let parsed: FsResult<Vec<RawEntry>> = match &error {
        Some(e) => Err(e.clone()),
        None => Ok(entries.clone()),
    };
    let hit = parsed.clone().map(|entries| {
        entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| (e.ino, e.kind))
    });
    prop_assert_eq!(dirent::lookup(stream, name), hit);
    prop_assert_eq!(dirent::parse(stream), parsed);
    prop_assert_eq!(dirent::parse_prefix(stream), (entries, valid_len));
    Ok(())
}

proptest! {
    /// Arbitrary bytes almost always end in a bad record: the borrowed
    /// scan reports the corruption the reference loop reports.
    #[test]
    fn dirent_scan_agrees_with_reference_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        name in name_strategy(),
    ) {
        check_against_reference(&bytes, &name)?;
    }

    /// On a well-formed stream — with repeated names, so "first match"
    /// matters — optionally damaged in one byte and cut short, the scan
    /// and the reference agree on the hit or on the corruption.
    #[test]
    fn dirent_scan_agrees_with_reference_on_damaged_streams(
        entries in proptest::collection::vec((1u32..100_000, any::<bool>(), 0usize..6), 0..16),
        wanted in 0usize..8,
        damage in proptest::option::of((any::<usize>(), 1u8..=255)),
        cut in proptest::option::of(any::<usize>()),
    ) {
        let name_of = |n: usize| format!("name-{n}");
        let mut stream = Vec::new();
        for (ino, is_dir, n) in &entries {
            let kind = if *is_dir { FileKind::Directory } else { FileKind::Regular };
            dirent::encode_entry(&mut stream, Ino(*ino), kind, &name_of(*n));
        }
        if let (Some((at, xor)), false) = (damage, stream.is_empty()) {
            let at = at % stream.len();
            stream[at] ^= xor;
        }
        if let Some(cut) = cut {
            stream.truncate(cut % (stream.len() + 1));
        }
        check_against_reference(&stream, &name_of(wanted))?;
    }

    /// Directory streams round-trip through encode/parse.
    #[test]
    fn dirent_round_trips(entries in proptest::collection::vec(entry_strategy(), 0..30)) {
        let mut stream = Vec::new();
        for (ino, is_dir, name) in &entries {
            let kind = if *is_dir { FileKind::Directory } else { FileKind::Regular };
            dirent::encode_entry(&mut stream, Ino(*ino), kind, name);
        }
        let parsed = dirent::parse(&stream).unwrap();
        prop_assert_eq!(parsed.len(), entries.len());
        for (raw, (ino, is_dir, name)) in parsed.iter().zip(&entries) {
            prop_assert_eq!(raw.ino, Ino(*ino));
            prop_assert_eq!(raw.kind == FileKind::Directory, *is_dir);
            prop_assert_eq!(&raw.name, name);
        }
        // Re-encoding the parsed entries reproduces the stream.
        prop_assert_eq!(dirent::encode_all(&parsed), stream);
    }

    /// The dirent parser never panics on arbitrary bytes — it either
    /// parses or returns a corruption error.
    #[test]
    fn dirent_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = dirent::parse(&bytes);
    }

    /// Offsets reported by the parser index the original stream.
    #[test]
    fn dirent_offsets_are_accurate(entries in proptest::collection::vec(entry_strategy(), 1..20)) {
        let mut stream = Vec::new();
        for (ino, _, name) in &entries {
            dirent::encode_entry(&mut stream, Ino(*ino), FileKind::Regular, name);
        }
        let parsed = dirent::parse(&stream).unwrap();
        for raw in &parsed {
            let mut single = Vec::new();
            dirent::encode_entry(&mut single, raw.ino, raw.kind, &raw.name);
            prop_assert_eq!(
                &stream[raw.offset..raw.offset + raw.encoded_len()],
                &single[..]
            );
        }
        let _ = parsed
            .iter()
            .map(RawEntry::encoded_len)
            .sum::<usize>();
    }

    /// Block-map resolution is a bijection over the mappable range.
    #[test]
    fn blockmap_is_bijective(bno in 0u64..2_000_000, ppb in prop_oneof![Just(128usize), Just(1024), Just(2048)]) {
        match blockmap::resolve(bno, ppb) {
            None => prop_assert!(bno >= (NDIRECT + ppb + ppb * ppb) as u64),
            Some(path) => {
                // Invert the mapping.
                let inverse = match path {
                    BlockPath::Direct { slot } => slot as u64,
                    BlockPath::Single { slot } => NDIRECT as u64 + slot as u64,
                    BlockPath::Double { outer, inner } => {
                        NDIRECT as u64 + ppb as u64 + outer as u64 * ppb as u64 + inner as u64
                    }
                };
                prop_assert_eq!(inverse, bno);
                // Slots are in range.
                match path {
                    BlockPath::Direct { slot } => prop_assert!(slot < NDIRECT),
                    BlockPath::Single { slot } => prop_assert!(slot < ppb),
                    BlockPath::Double { outer, inner } => {
                        prop_assert!(outer < ppb && inner < ppb)
                    }
                }
            }
        }
    }

    /// The byte cursors are inverse operations for any field sequence.
    #[test]
    fn wire_round_trips(
        a in any::<u8>(), b in any::<u16>(), c in any::<u32>(), d in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        pad in 0usize..32,
    ) {
        let mut w = ByteWriter::new();
        w.u8(a);
        w.u16(b);
        w.u32(c);
        w.u64(d);
        w.bytes(&bytes);
        w.pad(pad);
        let encoded = w.into_vec();

        let mut r = ByteReader::new(&encoded);
        prop_assert_eq!(r.u8(), Some(a));
        prop_assert_eq!(r.u16(), Some(b));
        prop_assert_eq!(r.u32(), Some(c));
        prop_assert_eq!(r.u64(), Some(d));
        prop_assert_eq!(r.bytes(bytes.len()), Some(&bytes[..]));
        prop_assert_eq!(r.remaining(), pad);
    }

    /// CRC-32 detects any single-bit flip.
    #[test]
    fn crc32_detects_bit_flips(
        data in proptest::collection::vec(any::<u8>(), 1..128),
        bit in 0usize..1024,
    ) {
        let original = crc32(&data);
        let mut flipped = data.clone();
        let index = bit % (data.len() * 8);
        flipped[index / 8] ^= 1 << (index % 8);
        prop_assert_ne!(original, crc32(&flipped));
    }

    /// Path splitting accepts what name validation accepts, rejects the rest.
    #[test]
    fn path_split_consistency(parts in proptest::collection::vec(name_strategy(), 1..6)) {
        let path = format!("/{}", parts.join("/"));
        let split = vfs::path::split(&path).unwrap();
        prop_assert_eq!(split, parts);
    }
}
