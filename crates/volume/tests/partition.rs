//! Property test: the request splitter produces an *exact partition*
//! of every logical request — no gap, no overlap, correct spindle
//! mapping — with and without parity, for arbitrary chunk sizes and
//! arbitrary spindle counts.

use proptest::prelude::*;

use sim_disk::SECTOR_SIZE;
use volume::StripeLayout;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn sub_requests_are_an_exact_partition_of_the_request(
        spindles in 1usize..9,
        chunk_sectors in 1u64..65,
        sector in 0u64..10_000,
        count in 1u64..512,
    ) {
        let policy = StripeLayout::new(chunk_sectors as usize * SECTOR_SIZE, false);
        let subs = policy.split(spindles, sector, count);

        // No gap, no overlap in the logical buffer: pieces are emitted
        // in order and their byte ranges tile [0, count * SECTOR_SIZE).
        let mut covered = 0usize;
        for sub in &subs {
            prop_assert_eq!(sub.offset, covered, "gap or overlap in the logical buffer");
            prop_assert!(sub.sectors > 0, "empty sub-request");
            covered += sub.bytes();
        }
        prop_assert_eq!(covered, count as usize * SECTOR_SIZE);

        // No overlap on any spindle's platter.
        let mut extents: Vec<(usize, u64, u64)> = Vec::new();
        for sub in &subs {
            prop_assert!(sub.spindle < spindles, "spindle id out of range");
            let (start, end) = (sub.sector, sub.sector + sub.sectors);
            for (sp, s, e) in &extents {
                if *sp == sub.spindle {
                    prop_assert!(
                        end <= *s || start >= *e,
                        "physical extents [{start},{end}) and [{s},{e}) overlap on spindle {sp}"
                    );
                }
            }
            extents.push((sub.spindle, start, end));
        }

        // Correct mapping, sector by sector: piece bytes for logical
        // sector L land on spindle (L / chunk) % n, and the inverse
        // mapping takes the physical sector back to exactly L.
        for sub in &subs {
            for k in 0..sub.sectors {
                let logical = sector + (sub.offset / SECTOR_SIZE) as u64 + k;
                let chunk = logical / chunk_sectors;
                prop_assert_eq!(
                    sub.spindle,
                    (chunk % spindles as u64) as usize,
                    "logical sector {} on the wrong spindle", logical
                );
                prop_assert_eq!(
                    policy.to_logical(spindles, sub.spindle, sub.sector + k),
                    logical,
                    "to_logical does not invert the split"
                );
            }
        }
    }

    /// A parity layout partitions too — and no data piece ever lands
    /// on its row's parity spindle.
    #[test]
    fn parity_sub_requests_partition_and_avoid_the_parity_spindle(
        spindles in 2usize..9,
        chunk_sectors in 1u64..65,
        sector in 0u64..10_000,
        count in 1u64..512,
    ) {
        let policy = StripeLayout::new(chunk_sectors as usize * SECTOR_SIZE, true);
        let subs = policy.split(spindles, sector, count);

        // Exact partition of the logical buffer.
        let mut covered = 0usize;
        for sub in &subs {
            prop_assert_eq!(sub.offset, covered, "gap or overlap in the logical buffer");
            prop_assert!(sub.sectors > 0, "empty sub-request");
            covered += sub.bytes();
        }
        prop_assert_eq!(covered, count as usize * SECTOR_SIZE);

        // No overlap on any spindle's platter.
        let mut extents: Vec<(usize, u64, u64)> = Vec::new();
        for sub in &subs {
            prop_assert!(sub.spindle < spindles, "spindle id out of range");
            let (start, end) = (sub.sector, sub.sector + sub.sectors);
            for (sp, s, e) in &extents {
                if *sp == sub.spindle {
                    prop_assert!(
                        end <= *s || start >= *e,
                        "physical extents [{start},{end}) and [{s},{e}) overlap on spindle {sp}"
                    );
                }
            }
            extents.push((sub.spindle, start, end));
        }

        // Sector by sector: each piece avoids its row's parity spindle
        // and the inverse mapping recovers the logical sector exactly.
        for sub in &subs {
            for k in 0..sub.sectors {
                let logical = sector + (sub.offset / SECTOR_SIZE) as u64 + k;
                let physical = sub.sector + k;
                let row = physical / chunk_sectors;
                prop_assert_ne!(
                    Some(sub.spindle),
                    policy.parity_spindle(row, spindles),
                    "data written onto row {}'s parity spindle", row
                );
                prop_assert_eq!(
                    policy.to_logical(spindles, sub.spindle, physical),
                    logical,
                    "to_logical does not invert the split"
                );
            }
        }
    }
}
