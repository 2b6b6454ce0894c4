//! Little-endian serialisation helpers and CRC-32.
//!
//! Both file systems hand-serialise their on-disk formats (fixed
//! little-endian layouts); these cursors keep the layout code short and
//! panic-free on truncated input.

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader at offset zero.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|s| u16::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        self.take(n)
    }

    /// Skips `n` bytes.
    pub fn skip(&mut self, n: usize) -> Option<()> {
        self.take(n).map(|_| ())
    }
}

/// A little-endian writer appending to a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns true if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends `n` zero bytes.
    pub fn pad(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    /// Pads with zeros up to `len` bytes total.
    ///
    /// # Panics
    ///
    /// Panics if the writer already exceeds `len`.
    pub fn pad_to(&mut self, len: usize) {
        assert!(
            self.buf.len() <= len,
            "writer length {} exceeds target {len}",
            self.buf.len()
        );
        self.buf.resize(len, 0);
    }

    /// Borrows the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer and returns the bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Lookup tables for one reflected CRC-32 polynomial, sliced by 8:
/// `[0]` is the classic per-byte table, and `[k][b]` is the register
/// left by byte `b` followed by `k` zero bytes, so eight input bytes
/// fold into the register with eight independent lookups.
type CrcTables = [[u32; 256]; 8];

const fn crc_tables(poly: u32) -> CrcTables {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { poly ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

// Built at compile time: a lazily built table would be paid for inside
// whichever timed phase first sums a block.
static IEEE: CrcTables = crc_tables(0xEDB8_8320);
static CASTAGNOLI: CrcTables = crc_tables(0x82F6_3B78);

/// Folds `data` into the running register `crc`, eight bytes per step
/// and the tail byte by byte. The result is the bytewise CRC's, so
/// every on-disk checksum keeps its value.
fn crc_update(tables: &CrcTables, mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let low = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = tables[7][(low & 0xFF) as usize]
            ^ tables[6][((low >> 8) & 0xFF) as usize]
            ^ tables[5][((low >> 16) & 0xFF) as usize]
            ^ tables[4][(low >> 24) as usize]
            ^ tables[3][c[4] as usize]
            ^ tables[2][c[5] as usize]
            ^ tables[1][c[6] as usize]
            ^ tables[0][c[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = tables[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental CRC-32 update over `data` given a running register value.
///
/// Start from `0xFFFF_FFFF` and XOR the final register with `0xFFFF_FFFF`
/// (or just call [`crc32`] for one-shot use).
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    crc_update(&IEEE, crc, data)
}

/// CRC-32C (Castagnoli polynomial, reflected), table-driven.
///
/// Used for the per-block checksums in LFS segment summaries; kept
/// distinct from [`crc32`] so a block checksum can never be confused
/// with a header/payload checksum computed over the same bytes.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental CRC-32C update over `data` given a running register value.
///
/// Start from `0xFFFF_FFFF` and XOR the final register with `0xFFFF_FFFF`
/// (or just call [`crc32c`] for one-shot use).
pub fn crc32c_update(crc: u32, data: &[u8]) -> u32 {
    crc_update(&CASTAGNOLI, crc, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reader_round_trips_writer() {
        let mut w = ByteWriter::new();
        w.u8(0xAB);
        w.u16(0x1234);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0102_0304_0506_0708);
        w.bytes(b"xyz");
        let data = w.into_vec();

        let mut r = ByteReader::new(&data);
        assert_eq!(r.u8(), Some(0xAB));
        assert_eq!(r.u16(), Some(0x1234));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(0x0102_0304_0506_0708));
        assert_eq!(r.bytes(3), Some(&b"xyz"[..]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), None);
    }

    #[test]
    fn reader_rejects_truncated_reads() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.u32(), None);
        // A failed read consumes nothing.
        assert_eq!(r.u16(), Some(0x0201));
    }

    #[test]
    fn writer_padding() {
        let mut w = ByteWriter::new();
        w.u8(1);
        w.pad(3);
        w.pad_to(8);
        assert_eq!(w.into_vec(), vec![1, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds target")]
    fn pad_to_rejects_shrinking() {
        let mut w = ByteWriter::new();
        w.u64(0);
        w.pad_to(4);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Different data, different CRC.
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn crc32c_matches_known_vectors() {
        // Standard test vector for CRC-32C (Castagnoli).
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // The two polynomials disagree on the same input.
        assert_ne!(crc32c(b"123456789"), crc32(b"123456789"));
    }

    /// The definition the sliced routine replaces, kept as its
    /// reference: one shift-and-xor per bit, no tables at all.
    fn crc_bitwise(poly: u32, mut crc: u32, data: &[u8]) -> u32 {
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    poly ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    /// The per-byte table walk the sliced routine replaces.
    fn crc_bytewise(tables: &CrcTables, mut crc: u32, data: &[u8]) -> u32 {
        for &byte in data {
            crc = tables[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc
    }

    const POLYNOMIALS: [(u32, &CrcTables); 2] = [(0xEDB8_8320, &IEEE), (0x82F6_3B78, &CASTAGNOLI)];

    #[test]
    fn sliced_equals_bytewise_at_every_short_length_and_offset() {
        // 8 + 67 bytes of a non-repeating pattern: every length that
        // exercises 0..=8 whole steps plus every tail, from every
        // alignment of the first byte.
        let bytes: Vec<u8> = (0..75u32).map(|i| (i * 37 + i / 7) as u8 ^ 0xA5).collect();
        for (poly, tables) in POLYNOMIALS {
            for offset in 0..8 {
                for len in 0..=67 {
                    let data = &bytes[offset..offset + len];
                    for seed in [0xFFFF_FFFF, 0, 0x1234_5678] {
                        let sliced = crc_update(tables, seed, data);
                        assert_eq!(
                            sliced,
                            crc_bytewise(tables, seed, data),
                            "{poly:#x} {offset}+{len}"
                        );
                        assert_eq!(
                            sliced,
                            crc_bitwise(poly, seed, data),
                            "{poly:#x} {offset}+{len}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        /// Feeding the data in pieces split anywhere gives the one-shot
        /// value, which is the bytewise one.
        #[test]
        fn sliced_updates_compose_at_random_split_points(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            for (_, tables) in POLYNOMIALS {
                let mut crc = 0xFFFF_FFFF;
                let mut from = 0;
                for &cut in &cuts {
                    crc = crc_update(tables, crc, &data[from..cut]);
                    from = cut;
                }
                prop_assert_eq!(crc, crc_bytewise(tables, 0xFFFF_FFFF, &data));
            }
        }
    }

    #[test]
    fn crc32c_incremental_matches_oneshot() {
        let data = b"lazy dogs and rotten sectors";
        let oneshot = crc32c(data);
        let mut crc = 0xFFFF_FFFF;
        crc = crc32c_update(crc, &data[..9]);
        crc = crc32c_update(crc, &data[9..]);
        assert_eq!(crc ^ 0xFFFF_FFFF, oneshot);
    }

    #[test]
    fn crc32_incremental_matches_oneshot() {
        let data = b"the quick brown fox";
        let oneshot = crc32(data);
        let mut crc = 0xFFFF_FFFF;
        crc = crc32_update(crc, &data[..7]);
        crc = crc32_update(crc, &data[7..]);
        assert_eq!(crc ^ 0xFFFF_FFFF, oneshot);
    }
}
