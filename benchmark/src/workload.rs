//! The four workloads: which generator feeds each, and which stack it
//! runs on. Every stack is `Lfs<VolumeDisk>` at the shipping defaults
//! (`LfsConfig::paper()`, `ReplayConfig::default()`) except where the
//! workload's regime needs otherwise, so a better default shows as a
//! gain.

use std::sync::Arc;

use lfs_core::{Lfs, LfsConfig};
use mem_mgr::CachePolicy;
use sim_disk::{Clock, DiskGeometry};
use trace::ReplayConfig;
use volume::{StripedVolume, VolumeConfig, VolumeDisk};

use crate::gen::{self, TracePair};

/// Sectors of a 64 MB spindle.
const SECTORS_64MB: u64 = 64 * 1024 * 1024 / 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Smallfile,
    HotcoldChurn,
    ArrayMix,
    OfficeReplay,
}

/// Everything below the file system, plus the knobs above it.
pub struct Stack {
    pub lfs: LfsConfig,
    pub volume: VolumeConfig,
    pub geometry: DiskGeometry,
    /// `None` keeps the default CPU model (a 10-MIPS Sun-4/260).
    pub cpu_mips: Option<f64>,
    pub replay: ReplayConfig,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Smallfile,
        Workload::HotcoldChurn,
        Workload::ArrayMix,
        Workload::OfficeReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Smallfile => "smallfile",
            Workload::HotcoldChurn => "hotcold_churn",
            Workload::ArrayMix => "array_mix",
            Workload::OfficeReplay => "office_replay",
        }
    }

    /// Why the workload exists, in one line, with its size at scale 1.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Smallfile => "Paper Fig. 3: 1 tenant creates 6000 1 KB files, reads them cold, unlinks 9 in 10 (23.4k records) on the paper's rig; namespace, inode map, log writer and CPU model work, cleaner and cache do not",
            Workload::HotcoldChurn => "4 tenants overwrite their hottest 10% of 3000 16 KB files (10k records) on a 64 MB disk 73% full, 2 MB cache: the cleaner does most of the device work; one spindle, so the volume layer is bypassed",
            Workload::ArrayMix => "16 tenants + 1 scanner, 10.2k 64 KB reads/overwrites on a 4-spindle parity array, 8 MB adaptive cache = hot set: engine queues, parity, disks and mem-mgr work; the log never wraps, cleaner idle",
            Workload::OfficeReplay => "8 QoS tenants, 58k records on 1-8 KB files with cross-tenant edges, all in a 15 MB cache: CPU model, mem-mgr hits, vfs and the replay driver are the cost; bypasses devices and cleaner",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn generate(self, seed: u64, scale: f64) -> TracePair {
        match self {
            Workload::Smallfile => gen::smallfile(seed, scale),
            Workload::HotcoldChurn => gen::hotcold_churn(seed, scale),
            Workload::ArrayMix => gen::array_mix(seed, scale),
            Workload::OfficeReplay => gen::office_replay(seed, scale),
        }
    }

    pub fn stack(self) -> Stack {
        let paper = LfsConfig::paper();
        let one_spindle = VolumeConfig::rr_segment(1, paper.stripe_chunk_bytes());
        let wren = DiskGeometry::wren_iv();
        match self {
            // The paper's own rig: 10-MIPS CPU, one full WREN IV.
            Workload::Smallfile => Stack {
                lfs: paper,
                volume: one_spindle,
                geometry: wren,
                cpu_mips: None,
                replay: ReplayConfig::default(),
            },
            // A small cache and a small disk 73% full: the log wraps and
            // the cleaner has to run.
            Workload::HotcoldChurn => Stack {
                lfs: paper.with_cache_bytes(2 * 1024 * 1024),
                volume: one_spindle,
                geometry: wren.with_sectors(SECTORS_64MB),
                cpu_mips: Some(1000.0),
                replay: ReplayConfig::default(),
            },
            // Parity array: one 768 KB segment is one data row of three
            // 256 KB chunks; the adaptive manager splits an 8 MB budget.
            Workload::ArrayMix => {
                let segment = 768 * 1024;
                Stack {
                    lfs: paper
                        .with_segment_bytes(segment)
                        .with_segment_aligned_metadata()
                        .with_seal_on_flush()
                        .with_cache_bytes(8 * 1024 * 1024)
                        .with_cache_policy(CachePolicy::Adaptive)
                        .with_recovery_fanout(0),
                    volume: VolumeConfig::parity_segment(4, segment),
                    geometry: wren.with_sectors(4 * SECTORS_64MB),
                    cpu_mips: Some(1000.0),
                    replay: ReplayConfig::default().with_qos(true),
                }
            }
            // Paper config: the 15 MB cache dwarfs the 2.5 MB working set.
            Workload::OfficeReplay => Stack {
                lfs: paper,
                volume: one_spindle,
                geometry: wren.with_sectors(SECTORS_64MB),
                cpu_mips: Some(1000.0),
                replay: ReplayConfig::default().with_qos(true),
            },
        }
    }
}

impl Stack {
    /// A fresh (or, given `images`, a revived) volume on `clock`.
    pub fn device(&self, clock: &Arc<Clock>, images: Option<Vec<Vec<u8>>>) -> VolumeDisk {
        let (geometry, cfg, clock) = (
            self.geometry.clone(),
            self.volume.clone(),
            Arc::clone(clock),
        );
        let volume = match images {
            Some(images) => StripedVolume::from_images(geometry, clock, cfg, images),
            None => StripedVolume::new(geometry, clock, cfg),
        };
        VolumeDisk::new(volume.into_shared())
    }

    /// A freshly formatted LFS on a new volume, and the second device
    /// handle the replay driver pumps.
    pub fn format(&self, clock: &Arc<Clock>) -> (Lfs<VolumeDisk>, VolumeDisk) {
        let dev = self.device(clock, None);
        let pump = dev.clone();
        let mut lfs = Lfs::format(dev, self.lfs.clone(), Arc::clone(clock)).expect("format LFS");
        if let Some(mips) = self.cpu_mips {
            lfs.set_cpu_mips(mips);
        }
        (lfs, pump)
    }
}
