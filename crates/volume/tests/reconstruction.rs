//! Property tests: on a parity volume, the loss of *any single spindle*
//! is invisible — arbitrary request shapes read back byte-identical to
//! a flat mirror before, during, and after degraded operation (held
//! across the kill as tokens, too), and a
//! completed online rebuild restores the volume exactly; and the
//! parity partial-row writes leave behind (read-modify-written or
//! reconstruct-written, whichever reads less) covers the loss of each
//! spindle in turn.


use engine::Step;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

use sim_disk::{BlockDevice, Clock, DiskGeometry, RamDisk, SECTOR_SIZE};
use volume::{RebuildPolicy, SpindleState, StripedVolume, VolumeConfig};

const SPINDLE_SECTORS: u64 = 1_024;
const CHUNK_SECTORS: u64 = 8;
const CHUNK_BYTES: usize = CHUNK_SECTORS as usize * SECTOR_SIZE;

/// A parity volume with `CHUNK_BYTES` stripe units — far smaller than
/// the requests below, so partial rows (read-modify-write and
/// reconstruct-write) and full rows all occur.
fn parity_volume(spindles: usize) -> StripedVolume {
    let cfg = VolumeConfig::parity_segment(spindles, CHUNK_BYTES * (spindles - 1));
    StripedVolume::new(DiskGeometry::tiny_test(SPINDLE_SECTORS), Clock::new(), cfg)
}

/// The same volume over `images`, with its own clock.
fn parity_volume_from(spindles: usize, images: Vec<Vec<u8>>) -> StripedVolume {
    let cfg = VolumeConfig::parity_segment(spindles, CHUNK_BYTES * (spindles - 1));
    let geometry = DiskGeometry::tiny_test(SPINDLE_SECTORS);
    StripedVolume::from_images(geometry, Clock::new(), cfg, images)
}

/// Clamps `(sector, count)` into the volume and applies the write to
/// both the volume and the mirror.
fn apply_writes(
    vol: &mut StripedVolume,
    mirror: &mut RamDisk,
    writes: &[(u64, u64, bool)],
    salt: u8,
) {
    let capacity = vol.num_sectors();
    for (i, &(sector, count, sync)) in writes.iter().enumerate() {
        let sector = sector % capacity;
        let count = count.min(capacity - sector);
        let fill = salt.wrapping_add(i as u8);
        let buf: Vec<u8> = (0..count as usize * SECTOR_SIZE)
            .map(|b| fill ^ (b / 7) as u8)
            .collect();
        vol.write(sector, &buf, sync).unwrap();
        mirror.write(sector, &buf, sync).unwrap();
    }
    vol.flush().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn any_single_dead_spindle_reconstructs_byte_identically(
        spindles in 2usize..6,
        dead_seed in 0usize..64,
        healthy_writes in pvec((0u64..900, 1u64..65, any::<bool>()), 1..10),
        degraded_writes in pvec((0u64..900, 1u64..65, any::<bool>()), 0..8),
        reads in pvec((0u64..900, 1u64..65), 1..8),
    ) {
        let dead = dead_seed % spindles;

        let mut vol = parity_volume(spindles);
        let mut mirror = RamDisk::new(vol.num_sectors());
        apply_writes(&mut vol, &mut mirror, &healthy_writes, 0x11);

        // Every read is also held across the kill: started on the
        // healthy volume, claimed once its spindle is dead.
        let capacity = vol.num_sectors();
        let clamp = |&(sector, count): &(u64, u64)| {
            let sector = sector % capacity;
            (sector, count.min(capacity - sector))
        };
        let held: Vec<(u64, u64, u64)> = reads
            .iter()
            .map(clamp)
            .map(|(sector, count)| {
                let token = vol.start_read_async(sector, count as usize * SECTOR_SIZE);
                (sector, count, token.expect("a live volume starts every valid range"))
            })
            .collect();

        // Kill any one spindle, then keep writing while degraded.
        vol.kill_spindle(dead);
        for (sector, count, token) in held {
            let mut want = vec![0u8; count as usize * SECTOR_SIZE];
            mirror.read(sector, &mut want).unwrap();
            prop_assert_eq!(
                vol.finish_read_async(token).unwrap(), want,
                "held read [{}, +{}) diverged ({} spindles, {} killed under it)",
                sector, count, spindles, dead
            );
        }
        apply_writes(&mut vol, &mut mirror, &degraded_writes, 0x77);

        for (sector, count) in reads.iter().map(clamp) {
            let mut got = vec![0u8; count as usize * SECTOR_SIZE];
            let mut want = got.clone();
            vol.read(sector, &mut got).unwrap();
            mirror.read(sector, &mut want).unwrap();
            prop_assert_eq!(
                &got, &want,
                "degraded read [{}, +{}) diverged ({} spindles, {} dead)",
                sector, count, spindles, dead
            );
        }

        // Rebuild to completion and scrub the whole volume against the
        // mirror — the replacement must hold parity-consistent contents.
        vol.replace_spindle(
            dead,
            RebuildPolicy::default().with_max_step_rows(64),
        )
        .unwrap();
        while vol.rebuild_step().unwrap() != Step::Completed {}
        prop_assert_eq!(vol.spindle_state(dead), SpindleState::Online);

        let mut got = vec![0u8; capacity as usize * SECTOR_SIZE];
        let mut want = got.clone();
        vol.read(0, &mut got).unwrap();
        mirror.read(0, &mut want).unwrap();
        prop_assert_eq!(
            got, want,
            "post-rebuild scrub diverged ({} spindles, {} rebuilt)",
            spindles, dead
        );
    }

    /// Partial-row writes of every shape, on a healthy array, leave
    /// every row's parity exact: killing any one spindle afterwards —
    /// each in turn, on a fresh copy of the images — every byte still
    /// reads back as written.
    #[test]
    fn partial_row_parity_survives_each_spindle_loss(
        spindles in 2usize..6,
        writes in pvec((0u64..900, 1u64..40, any::<bool>()), 1..16),
    ) {
        let mut vol = parity_volume(spindles);
        let mut mirror = RamDisk::new(vol.num_sectors());
        apply_writes(&mut vol, &mut mirror, &writes, 0x3C);
        let capacity = vol.num_sectors();
        let mut want = vec![0u8; capacity as usize * SECTOR_SIZE];
        mirror.read(0, &mut want).unwrap();
        let images = vol.into_images();
        for dead in 0..spindles {
            let mut vol = parity_volume_from(spindles, images.clone());
            vol.kill_spindle(dead);
            let mut got = vec![0u8; want.len()];
            vol.read(0, &mut got).unwrap();
            prop_assert!(
                got == want,
                "spindle {} of {} dead: a written byte did not read back",
                dead, spindles
            );
        }
    }
}
