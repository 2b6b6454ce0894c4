//! Striping layouts: how logical sectors map onto spindles.
//!
//! Every layout is chunked — the logical address space is cut into
//! fixed-size *stripe units* (chunks) dealt round-robin across spindles
//! — so a [`StripeLayout`] is two facts: the chunk size and whether each
//! row keeps a parity chunk. [`StripePolicyKind`] names the chunk rules
//! callers pick from:
//!
//! * `RrSegment` uses the LFS segment size as the chunk, so a whole
//!   segment write lands on one spindle and each disk sees the
//!   pure-sequential write pattern §3 of the paper depends on, while
//!   consecutive segments rotate across spindles.
//! * `Interleave` uses a small chunk (classic RAID-0), so one large
//!   request fans out across every spindle.
//! * `ParitySegment` adds single-fault redundancy: each *row* (one
//!   chunk per spindle at the same physical offset) dedicates one
//!   rotating spindle to the XOR of the other chunks, and the chunk is
//!   sized so one full segment write covers a whole data row — the
//!   volume computes parity straight from the write buffer without ever
//!   reading old data (the log never pays the RAID-5 read-modify-write
//!   tax). A smaller chunk under the same layout is classic RAID-5:
//!   partial rows pay read-modify-write.
//!
//! Parity layouts keep the **row-XOR invariant**: for every physical
//! sector `p`, the XOR of sector `p` across all spindles is zero.
//! Reconstruction of any physical range on one spindle is then the XOR
//! of the *same* physical range on every other spindle, with no role
//! bookkeeping.
//!
//! [`StripeLayout::split`] is the request splitter: it cuts a logical
//! request into per-spindle sub-requests whose union is an exact
//! partition of the original — no gap, no overlap — which the property
//! tests verify for arbitrary chunk sizes.

use sim_disk::SECTOR_SIZE;

/// Which chunk rule a volume stripes by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StripePolicyKind {
    /// Segment-granular round-robin: chunk = LFS segment size.
    RrSegment,
    /// RAID-0 block interleave with a small configurable chunk.
    Interleave,
    /// Per-segment parity: chunk sized so a segment is one data row;
    /// parity rotates and is computed from the write buffer alone.
    ParitySegment,
}

impl StripePolicyKind {
    /// All policies, for sweeps.
    pub const ALL: [StripePolicyKind; 3] = [
        StripePolicyKind::RrSegment,
        StripePolicyKind::Interleave,
        StripePolicyKind::ParitySegment,
    ];

    /// Stable name used in bench labels and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            StripePolicyKind::RrSegment => "rr-segment",
            StripePolicyKind::Interleave => "interleave",
            StripePolicyKind::ParitySegment => "parity-segment",
        }
    }

    /// Parses a [`StripePolicyKind::name`] back.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// True for the policy that dedicates one chunk per row to parity.
    pub fn is_parity(&self) -> bool {
        matches!(self, StripePolicyKind::ParitySegment)
    }
}

impl std::fmt::Display for StripePolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A chunked striping layout.
///
/// Logical chunks are dealt in rows: row `r` of an `n`-spindle volume
/// holds [`StripeLayout::data_per_row`] logical chunks at physical
/// chunk-row `r` on their spindles, skipping the row's parity spindle
/// (if the layout keeps parity). Without parity every spindle carries
/// data and the mapping reduces to the classic `chunk % n` /
/// `chunk / n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeLayout {
    /// Stripe-unit size in sectors.
    pub chunk_sectors: u64,
    /// Whether each row dedicates one rotating spindle to the XOR of
    /// the row's data chunks.
    pub parity: bool,
}

impl StripeLayout {
    /// A layout striping at `chunk_bytes` granularity.
    ///
    /// # Panics
    ///
    /// Panics unless `chunk_bytes` is a positive multiple of the sector
    /// size.
    pub fn new(chunk_bytes: usize, parity: bool) -> Self {
        assert!(
            chunk_bytes > 0 && chunk_bytes.is_multiple_of(SECTOR_SIZE),
            "chunk size must be a positive multiple of {SECTOR_SIZE}"
        );
        Self {
            chunk_sectors: (chunk_bytes / SECTOR_SIZE) as u64,
            parity,
        }
    }

    /// Logical (data) chunks per row on an `n`-spindle volume.
    pub fn data_per_row(&self, spindles: usize) -> usize {
        spindles - self.parity as usize
    }

    /// Spindle holding row `row`'s parity chunk, if the layout keeps
    /// parity: row `r` parks it on spindle `(n - 1) - (r mod n)`, so
    /// parity load spreads evenly and no spindle is the RAID-4
    /// bottleneck.
    pub fn parity_spindle(&self, row: u64, spindles: usize) -> Option<usize> {
        self.parity
            .then(|| (spindles - 1) - (row % spindles as u64) as usize)
    }

    /// Spindle holding logical chunk `chunk` of an `n`-spindle volume.
    pub fn spindle_of_chunk(&self, chunk: u64, spindles: usize) -> usize {
        let dpr = self.data_per_row(spindles) as u64;
        let d = (chunk % dpr) as usize;
        match self.parity_spindle(chunk / dpr, spindles) {
            Some(p) if d >= p => d + 1,
            _ => d,
        }
    }

    /// Per-spindle chunk row of logical chunk `chunk`.
    pub fn row_of_chunk(&self, chunk: u64, spindles: usize) -> u64 {
        chunk / self.data_per_row(spindles) as u64
    }

    /// Inverse of the mapping: the logical chunk at `row` on `spindle`.
    /// Under parity, `spindle` must hold data in that row — the parity
    /// chunk has no logical address.
    pub fn chunk_at(&self, row: u64, spindle: usize, spindles: usize) -> u64 {
        let d = match self.parity_spindle(row, spindles) {
            Some(p) => {
                debug_assert_ne!(spindle, p, "parity chunk has no logical address");
                if spindle > p {
                    spindle - 1
                } else {
                    spindle
                }
            }
            None => spindle,
        };
        row * self.data_per_row(spindles) as u64 + d as u64
    }

    /// Splits the logical request `[sector, sector + count)` into
    /// per-spindle sub-requests.
    ///
    /// Pieces are emitted in logical-address order and physically
    /// contiguous same-spindle neighbours are merged, so a request that
    /// stays inside one chunk — or a whole-volume scan on one spindle —
    /// yields a single sub-request. On a 1-spindle volume the mapping is
    /// the identity and the result is always one sub-request.
    pub fn split(&self, spindles: usize, sector: u64, count: u64) -> Vec<SubRequest> {
        let chunk_sectors = self.chunk_sectors;
        let end = sector + count;
        let mut subs: Vec<SubRequest> = Vec::new();
        let mut at = sector;
        while at < end {
            let chunk = at / chunk_sectors;
            let within = at % chunk_sectors;
            let take = (chunk_sectors - within).min(end - at);
            let spindle = self.spindle_of_chunk(chunk, spindles);
            let physical = self.row_of_chunk(chunk, spindles) * chunk_sectors + within;
            match subs.last_mut() {
                Some(last)
                    if last.spindle == spindle && last.sector + last.sectors == physical =>
                {
                    last.sectors += take;
                }
                _ => subs.push(SubRequest {
                    spindle,
                    offset: (at - sector) as usize * SECTOR_SIZE,
                    sector: physical,
                    sectors: take,
                }),
            }
            at += take;
        }
        subs
    }

    /// Maps a physical (per-spindle) sector back to its logical sector
    /// — the inverse of the mapping [`StripeLayout::split`] applies.
    /// Used to report errors (e.g. an unreadable sector) in the volume's
    /// address space.
    pub fn to_logical(&self, spindles: usize, spindle: usize, physical: u64) -> u64 {
        let row = physical / self.chunk_sectors;
        let within = physical % self.chunk_sectors;
        self.chunk_at(row, spindle, spindles) * self.chunk_sectors + within
    }
}

/// One per-spindle piece of a logical request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubRequest {
    /// Spindle the piece lands on.
    pub spindle: usize,
    /// Byte offset of the piece within the logical request's buffer.
    pub offset: usize,
    /// First *physical* (per-spindle) sector of the piece.
    pub sector: u64,
    /// Length of the piece in sectors.
    pub sectors: u64,
}

impl SubRequest {
    /// Length of the piece in bytes.
    pub fn bytes(&self) -> usize {
        self.sectors as usize * SECTOR_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        assert_eq!(StripePolicyKind::ALL.len(), 3);
        for kind in StripePolicyKind::ALL {
            assert_eq!(StripePolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(StripePolicyKind::parse("raid5"), None);
        assert_eq!(StripePolicyKind::parse("parity-rotate"), None);
        assert!(StripePolicyKind::ParitySegment.is_parity());
        assert!(!StripePolicyKind::RrSegment.is_parity());
        assert!(!StripePolicyKind::Interleave.is_parity());
    }

    #[test]
    fn parity_rotation_skips_one_spindle_per_row() {
        let policy = StripeLayout::new(2 * SECTOR_SIZE, true);
        let n = 3;
        // Row r parks parity on spindle (n-1) - (r % n).
        assert_eq!(policy.parity_spindle(0, n), Some(2));
        assert_eq!(policy.parity_spindle(1, n), Some(1));
        assert_eq!(policy.parity_spindle(2, n), Some(0));
        assert_eq!(policy.parity_spindle(3, n), Some(2));
        assert_eq!(policy.data_per_row(n), 2);
        // Row 0 (parity on 2): chunks 0,1 on spindles 0,1.
        assert_eq!(policy.spindle_of_chunk(0, n), 0);
        assert_eq!(policy.spindle_of_chunk(1, n), 1);
        // Row 1 (parity on 1): chunks 2,3 on spindles 0,2.
        assert_eq!(policy.spindle_of_chunk(2, n), 0);
        assert_eq!(policy.spindle_of_chunk(3, n), 2);
        // Row 2 (parity on 0): chunks 4,5 on spindles 1,2.
        assert_eq!(policy.spindle_of_chunk(4, n), 1);
        assert_eq!(policy.spindle_of_chunk(5, n), 2);
    }

    #[test]
    fn parity_chunk_at_inverts_spindle_of_chunk() {
        for policy in [
            StripeLayout::new(SECTOR_SIZE, true),
            StripeLayout::new(4 * SECTOR_SIZE, true),
        ] {
            for spindles in 2..=5usize {
                for chunk in 0..64u64 {
                    let row = policy.row_of_chunk(chunk, spindles);
                    let spindle = policy.spindle_of_chunk(chunk, spindles);
                    assert_ne!(
                        Some(spindle),
                        policy.parity_spindle(row, spindles),
                        "data never lands on the parity spindle"
                    );
                    assert_eq!(policy.chunk_at(row, spindle, spindles), chunk);
                }
            }
        }
    }

    #[test]
    fn parity_split_partitions_and_inverts() {
        let policy = StripeLayout::new(2 * SECTOR_SIZE, true);
        for spindles in 2..=4usize {
            for (sector, count) in [(0u64, 1u64), (1, 7), (5, 12), (0, 32)] {
                let subs = policy.split(spindles, sector, count);
                // Exact partition: offsets/lengths tile the buffer.
                let mut at = 0usize;
                let mut total = 0u64;
                for sub in &subs {
                    assert_eq!(sub.offset, at);
                    at += sub.bytes();
                    total += sub.sectors;
                    // And every piece inverts to its logical position.
                    assert_eq!(
                        policy.to_logical(spindles, sub.spindle, sub.sector),
                        sector + (sub.offset / SECTOR_SIZE) as u64
                    );
                }
                assert_eq!(total, count);
            }
        }
    }

    #[test]
    fn single_spindle_is_the_identity() {
        let policy = StripeLayout::new(4 * SECTOR_SIZE, false);
        for (sector, count) in [(0, 1), (3, 9), (100, 64)] {
            let subs = policy.split(1, sector, count);
            assert_eq!(
                subs,
                vec![SubRequest {
                    spindle: 0,
                    offset: 0,
                    sector,
                    sectors: count
                }]
            );
        }
    }

    #[test]
    fn interleave_deals_chunks_round_robin() {
        // 2-sector chunks over 2 spindles: logical 0,1 → s0; 2,3 → s1;
        // 4,5 → s0 row 1; ...
        let policy = StripeLayout::new(2 * SECTOR_SIZE, false);
        let subs = policy.split(2, 0, 8);
        assert_eq!(
            subs,
            vec![
                SubRequest { spindle: 0, offset: 0, sector: 0, sectors: 2 },
                SubRequest { spindle: 1, offset: 2 * SECTOR_SIZE, sector: 0, sectors: 2 },
                SubRequest { spindle: 0, offset: 4 * SECTOR_SIZE, sector: 2, sectors: 2 },
                SubRequest { spindle: 1, offset: 6 * SECTOR_SIZE, sector: 2, sectors: 2 },
            ]
        );
    }

    #[test]
    fn unaligned_request_takes_partial_chunks() {
        let policy = StripeLayout::new(4 * SECTOR_SIZE, false);
        // Sectors 3..9 over 2 spindles: 3 (chunk 0, s0), 4..8 (chunk 1,
        // s1), 8 (chunk 2, s0 row 1).
        let subs = policy.split(2, 3, 6);
        assert_eq!(
            subs,
            vec![
                SubRequest { spindle: 0, offset: 0, sector: 3, sectors: 1 },
                SubRequest { spindle: 1, offset: SECTOR_SIZE, sector: 0, sectors: 4 },
                SubRequest { spindle: 0, offset: 5 * SECTOR_SIZE, sector: 4, sectors: 1 },
            ]
        );
    }

    #[test]
    fn physically_contiguous_same_spindle_pieces_merge() {
        // 1-sector chunks over 1 spindle degenerate to full merges; over
        // 2 spindles a 4-sector read needs exactly one sub per spindle.
        let policy = StripeLayout::new(SECTOR_SIZE, false);
        let subs = policy.split(2, 0, 4);
        assert_eq!(
            subs,
            vec![
                SubRequest { spindle: 0, offset: 0, sector: 0, sectors: 1 },
                SubRequest { spindle: 1, offset: SECTOR_SIZE, sector: 0, sectors: 1 },
                SubRequest { spindle: 0, offset: 2 * SECTOR_SIZE, sector: 1, sectors: 1 },
                SubRequest { spindle: 1, offset: 3 * SECTOR_SIZE, sector: 1, sectors: 1 },
            ],
            "alternating chunks never merge"
        );

        let wide = policy.split(1, 10, 4);
        assert_eq!(wide.len(), 1, "same-spindle contiguous runs merge");
    }

    #[test]
    fn to_logical_inverts_the_split() {
        let policy = StripeLayout::new(16 * 1024, false);
        let chunk = policy.chunk_sectors;
        for spindles in 1..=4usize {
            for logical in [0, 1, chunk - 1, chunk, 3 * chunk + 7, 11 * chunk] {
                let subs = policy.split(spindles, logical, 1);
                assert_eq!(subs.len(), 1);
                assert_eq!(
                    policy.to_logical(spindles, subs[0].spindle, subs[0].sector),
                    logical
                );
            }
        }
    }
}
