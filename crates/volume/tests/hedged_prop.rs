//! Property tests for hedged reconstruction reads: whatever the request
//! shapes, whichever single spindle limps, and however aggressive the
//! hedge deadline, a parity volume returns exactly the bytes a healthy
//! flat disk would — read at once or held as a token across the stall —
//! and on a healthy volume the hedge never fires.

use std::sync::Arc;

use engine::EngineConfig;
use proptest::prelude::*;
use sim_disk::{
    BlockDevice, Clock, DiskGeometry, FailSlowProfile, MediaFaultPlan, RamDisk, SECTOR_SIZE,
};
use volume::{StripedVolume, VolumeConfig};

const SPINDLE_SECTORS: u64 = 1_024;
const CHUNK_SECTORS: u64 = 8;
const CHUNK_BYTES: usize = CHUNK_SECTORS as usize * SECTOR_SIZE;
const SPINDLES: usize = 4;
/// Logical capacity: (spindles - 1) data chunks per row.
const LOGICAL_SECTORS: u64 = (SPINDLES as u64 - 1) * SPINDLE_SECTORS;

fn volume_with_deadline(deadline_ns: u64) -> (StripedVolume, Arc<Clock>) {
    let clock = Clock::new();
    let vol = StripedVolume::new(
        DiskGeometry::tiny_test(SPINDLE_SECTORS),
        Arc::clone(&clock),
        VolumeConfig::parity_segment(SPINDLES, CHUNK_BYTES * (SPINDLES - 1))
            .with_engine(EngineConfig::default().with_hedge_deadline_ns(deadline_ns)),
    );
    (vol, clock)
}

fn patterned(fill: u8, sectors: u64) -> Vec<u8> {
    (0..sectors as usize * SECTOR_SIZE)
        .map(|i| fill ^ (i / SECTOR_SIZE) as u8 ^ (i % 251) as u8)
        .collect()
}

/// (sector, sectors) pairs that stay inside the logical device.
fn request_strategy() -> impl Strategy<Value = (u64, u64)> {
    (0..LOGICAL_SECTORS - 1, 1u64..=64)
        .prop_map(|(sector, len)| (sector, len.min(LOGICAL_SECTORS - sector)))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Any write pattern, any single fail-slow spindle, any hedge
    /// deadline from hair-trigger to generous: every read comes back
    /// byte-identical to a flat healthy mirror. Hedging is a latency
    /// optimisation — it must never be visible in the data.
    #[test]
    fn hedged_reads_are_byte_identical_to_a_healthy_mirror(
        writes in proptest::collection::vec((request_strategy(), any::<u8>(), any::<bool>()), 1..8),
        reads in proptest::collection::vec(request_strategy(), 1..6),
        slow_spindle in 0..SPINDLES,
        multiplier_x in 2u64..=20,
        deadline_ms in 1u64..=50,
    ) {
        let (mut vol, _clock) = volume_with_deadline(deadline_ms * 1_000_000);
        let mut mirror = RamDisk::new(vol.num_sectors());
        for ((sector, sectors), fill, sync) in writes {
            let buf = patterned(fill, sectors);
            vol.write(sector, &buf, sync).unwrap();
            mirror.write(sector, &buf, sync).unwrap();
        }
        vol.flush().unwrap();
        // Every read is also held across the stall: started on healthy
        // media, claimed once the spindle limps.
        let held: Vec<u64> = reads
            .iter()
            .map(|&(sector, sectors)| {
                vol.start_read_async(sector, sectors as usize * SECTOR_SIZE)
                    .expect("a live volume starts every valid range")
            })
            .collect();
        vol.spindle_mut(slow_spindle).disk_mut().inject_media_faults(
            MediaFaultPlan::new(0xBEEF).fail_slow(
                FailSlowProfile::at(0).with_multiplier_pct(multiplier_x * 100),
            ),
        );
        for (&(sector, sectors), token) in reads.iter().zip(held) {
            let mut want = vec![0u8; sectors as usize * SECTOR_SIZE];
            mirror.read(sector, &mut want).unwrap();
            prop_assert_eq!(
                vol.finish_read_async(token).unwrap(),
                want,
                "held read [{}, +{}) diverged (slow spindle {}, {}x, deadline {} ms)",
                sector,
                sectors,
                slow_spindle,
                multiplier_x,
                deadline_ms
            );
        }
        for (sector, sectors) in reads {
            let mut got = vec![0u8; sectors as usize * SECTOR_SIZE];
            let mut want = vec![0u8; sectors as usize * SECTOR_SIZE];
            vol.read(sector, &mut got).unwrap();
            mirror.read(sector, &mut want).unwrap();
            prop_assert_eq!(
                got,
                want,
                "read [{}, +{}) diverged (slow spindle {}, {}x, deadline {} ms)",
                sector,
                sectors,
                slow_spindle,
                multiplier_x,
                deadline_ms
            );
        }
    }

    /// Vacuity guard: with healthy media and a deadline comfortably
    /// above the mechanical worst case, the hedge path never triggers —
    /// so the property above cannot be passing because hedging is
    /// always (or never) on.
    #[test]
    fn hedging_stays_silent_on_healthy_media(
        writes in proptest::collection::vec((request_strategy(), any::<u8>(), any::<bool>()), 1..8),
        reads in proptest::collection::vec(request_strategy(), 1..6),
    ) {
        // tiny_test worst case per chunk is ~3.5 ms; even a deep queue
        // stays far under 100 ms.
        let (mut vol, _clock) = volume_with_deadline(100_000_000);
        let mut mirror = RamDisk::new(vol.num_sectors());
        for ((sector, sectors), fill, sync) in writes {
            let buf = patterned(fill, sectors);
            vol.write(sector, &buf, sync).unwrap();
            mirror.write(sector, &buf, sync).unwrap();
        }
        vol.flush().unwrap();
        for (sector, sectors) in reads {
            let mut got = vec![0u8; sectors as usize * SECTOR_SIZE];
            let mut want = vec![0u8; sectors as usize * SECTOR_SIZE];
            vol.read(sector, &mut got).unwrap();
            mirror.read(sector, &mut want).unwrap();
            prop_assert_eq!(got, want);
        }
        let snap = vol.obs().snapshot();
        let hedges: u64 = (0..SPINDLES)
            .map(|s| snap.counter(&format!("volume.spindle.{s}.engine.hedges")))
            .sum();
        prop_assert_eq!(hedges, 0, "a healthy volume reported overdue reads");
        prop_assert_eq!(snap.counter("volume.hedged_reads"), 0);
    }
}
