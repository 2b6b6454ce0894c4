//! Write-stream and media fault injection for robustness experiments.
//!
//! §4.4 of the paper argues that LFS recovers from crashes by reading the
//! most recent checkpoint region instead of scanning the disk. To test that
//! claim we need crashes: a [`CrashPlan`] arms a simulated power failure at
//! the N-th write. The triggering write is either dropped entirely or torn
//! (a prefix of its sectors is persisted), and every subsequent request
//! fails with [`crate::DiskError::Crashed`]. The harness then re-mounts the
//! surviving image and checks consistency.
//!
//! Crashes stop the disk; real media also fails *while running*. A
//! [`MediaFaultPlan`] models the per-sector failure modes production
//! storage treats as expected events rather than catastrophes:
//!
//! * **latent sector errors** — reads of a chosen sector fail with
//!   [`crate::DiskError::Unreadable`] until the sector is rewritten;
//! * **transient errors** — reads fail K times, then succeed (recoverable
//!   with a bounded retry policy);
//! * **silent bit-rot** — reads return deterministically corrupted bytes
//!   with no error, which only end-to-end checksums can catch.
//!
//! All faults are seeded and deterministic: the same plan produces the
//! same corrupted bytes on every run.
//!
//! Beyond fail-stop, production disks *fail slow*: a drive that still
//! answers every request but 10–100× late (weak head, vibration,
//! firmware retries). A [`FailSlowProfile`] arms a whole-spindle latency
//! fault — a service-time multiplier that switches on at a virtual
//! onset time. It is a pure function of the virtual clock, so runs
//! remain byte-identical.

use std::collections::BTreeMap;

/// A deterministic whole-spindle *fail-slow* schedule: the disk keeps
/// answering, but every request serviced at or after `onset_ns` takes
/// `multiplier_pct` percent of its healthy service time (100 =
/// unchanged).
///
/// The extra time is accounted as a distinct `stall` component next to
/// seek/rotation/transfer, so observability can tell sickness from load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailSlowProfile {
    /// Virtual time at which degradation begins.
    pub onset_ns: u64,
    /// Service-time multiplier from onset, in percent (100 = healthy).
    pub multiplier_pct: u64,
}

impl FailSlowProfile {
    /// A profile that degrades starting at virtual time `onset_ns`, with
    /// no multiplier armed yet — chain [`Self::with_multiplier_pct`].
    pub fn at(onset_ns: u64) -> Self {
        Self {
            onset_ns,
            multiplier_pct: 100,
        }
    }

    /// Sets the service-time multiplier at onset (percent, 100 = none).
    pub fn with_multiplier_pct(mut self, pct: u64) -> Self {
        self.multiplier_pct = pct.max(100);
        self
    }

    /// Extra nanoseconds a request pays when its service starts at
    /// `start_ns`, on top of a healthy `base_service_ns`.
    pub fn extra_ns(&self, start_ns: u64, base_service_ns: u64) -> u64 {
        if start_ns < self.onset_ns {
            return 0;
        }
        // u128 keeps the arithmetic exact even for absurd multipliers.
        let extra_pct = (self.multiplier_pct as u128).saturating_sub(100);
        ((base_service_ns as u128) * extra_pct / 100).min(u64::MAX as u128) as u64
    }
}

/// Per-sector media failure modes injected by a [`MediaFaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaFault {
    /// Every read of the sector fails with
    /// [`crate::DiskError::Unreadable`] until the sector is rewritten
    /// (a write remaps the sector and clears the fault).
    Latent,
    /// Reads fail `remaining` more times, then succeed.
    Transient {
        /// Failures left before the sector reads cleanly again.
        remaining: u32,
    },
    /// Reads succeed but return silently corrupted bytes: each byte of
    /// the sector is XORed with a non-zero mask derived from the plan
    /// seed and the sector number. Cleared by a rewrite.
    Rot,
}

/// A deterministic, seeded set of media faults.
///
/// Faults apply to the *read* path only — a write to a faulted sector
/// clears the fault (modelling sector remapping by the drive firmware,
/// which is also the natural recovery action for a log-structured store:
/// relocate the data elsewhere and let the bad region be rewritten).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MediaFaultPlan {
    seed: u64,
    faults: BTreeMap<u64, MediaFault>,
    dead: bool,
    fail_slow: Option<FailSlowProfile>,
}

impl MediaFaultPlan {
    /// Creates an empty plan with the given corruption seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: BTreeMap::new(),
            dead: false,
            fail_slow: None,
        }
    }

    /// Kills the whole spindle: every read and write fails with
    /// [`crate::DiskError::Unreadable`] until the media is replaced.
    /// This models a head crash or controller death — per-sector faults
    /// become irrelevant because nothing is reachable.
    pub fn kill(mut self) -> Self {
        self.dead = true;
        self
    }

    /// True when the whole spindle is dead (see [`MediaFaultPlan::kill`]).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Marks `sector` as a latent (permanent until rewritten) read error.
    pub fn latent(mut self, sector: u64) -> Self {
        self.faults.insert(sector, MediaFault::Latent);
        self
    }

    /// Marks `sector` as failing the next `failures` reads, then recovering.
    pub fn transient(mut self, sector: u64, failures: u32) -> Self {
        self.faults.insert(
            sector,
            MediaFault::Transient {
                remaining: failures,
            },
        );
        self
    }

    /// Marks `sector` as silently returning corrupted bytes.
    pub fn rot(mut self, sector: u64) -> Self {
        self.faults.insert(sector, MediaFault::Rot);
        self
    }

    /// Arms a whole-spindle fail-slow schedule (see [`FailSlowProfile`]).
    pub fn fail_slow(mut self, profile: FailSlowProfile) -> Self {
        self.fail_slow = Some(profile);
        self
    }

    /// The armed fail-slow schedule, if any.
    pub fn fail_slow_profile(&self) -> Option<&FailSlowProfile> {
        self.fail_slow.as_ref()
    }

    /// Extra latency a request pays under the armed fail-slow schedule
    /// when its service starts at `start_ns` (0 when none is armed).
    pub fn latency_extra_ns(&self, start_ns: u64, base_service_ns: u64) -> u64 {
        self.fail_slow
            .map_or(0, |p| p.extra_ns(start_ns, base_service_ns))
    }

    /// Number of sectors currently carrying a fault.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults remain armed.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The deterministic non-zero XOR mask bit-rot applies to every byte
    /// of `sector` (a splitmix64-style mix of seed and sector).
    pub fn rot_mask(&self, sector: u64) -> u8 {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(sector.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // A zero mask would be a no-op corruption; force at least one bit.
        (z as u8) | 0x01
    }

    /// First faulted sector in `[sector, sector + count)`, if any.
    pub fn first_fault_in(&self, sector: u64, count: u64) -> Option<u64> {
        let end = sector.saturating_add(count);
        self.faults.range(sector..end).next().map(|(&s, _)| s)
    }

    /// Consumes one read attempt over `[sector, sector + count)`.
    ///
    /// Returns the outcome for the whole request; transient faults in the
    /// range each burn one failure. Called by the disk on every read.
    pub(crate) fn on_read(&mut self, sector: u64, count: u64) -> ReadOutcome {
        let end = sector.saturating_add(count);
        let in_range: Vec<u64> = self.faults.range(sector..end).map(|(&s, _)| s).collect();
        let mut failed_at: Option<u64> = None;
        let mut transient = false;
        let mut rotted: Vec<u64> = Vec::new();
        for s in in_range {
            match self.faults.get_mut(&s) {
                Some(MediaFault::Latent) => failed_at = failed_at.or(Some(s)),
                Some(MediaFault::Transient { remaining }) if *remaining > 0 => {
                    *remaining -= 1;
                    transient = true;
                    failed_at = failed_at.or(Some(s));
                    if *remaining == 0 {
                        self.faults.remove(&s);
                    }
                }
                Some(MediaFault::Rot) => rotted.push(s),
                _ => {}
            }
        }
        match failed_at {
            Some(s) => ReadOutcome::Unreadable {
                sector: s,
                transient,
            },
            None => ReadOutcome::Ok { rotted },
        }
    }

    /// Clears faults overwritten by `[sector, sector + count)`; returns
    /// how many were cleared (the write remaps those sectors).
    pub(crate) fn on_write(&mut self, sector: u64, count: u64) -> u64 {
        let end = sector.saturating_add(count);
        let hit: Vec<u64> = self.faults.range(sector..end).map(|(&s, _)| s).collect();
        for s in &hit {
            self.faults.remove(s);
        }
        hit.len() as u64
    }
}

/// Outcome of applying a [`MediaFaultPlan`] to one read request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// The read succeeds; `rotted` sectors must be returned corrupted.
    Ok {
        /// Sectors whose bytes are XORed with the rot mask.
        rotted: Vec<u64>,
    },
    /// The read fails with [`crate::DiskError::Unreadable`].
    Unreadable {
        /// First faulted sector in the request.
        sector: u64,
        /// True when a transient fault (not a latent one) caused it.
        transient: bool,
    },
}

/// What happens to the write that triggers the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The triggering write is discarded completely.
    DropWrite,
    /// The triggering write persists only its first `sectors` sectors.
    TornWrite {
        /// Number of leading sectors that reach the platter.
        sectors: u64,
    },
    /// The disk behaves like a drive with a volatile write cache: while
    /// this mode is armed, asynchronous writes are *held* in a bounded
    /// in-memory window instead of reaching the platter immediately. A
    /// held write only persists when it ages out of the window, when a
    /// [`crate::BlockDevice::flush`] drains the cache (the durability
    /// barrier), or when a synchronous write forces it through. When the
    /// crash fires, the triggering write, every held write, **and** every
    /// still-queued submission are lost together — modelling a power
    /// failure while an I/O scheduler holds reordered-but-unpersisted
    /// writes.
    ReorderWindow {
        /// Maximum number of asynchronous writes held volatile at once.
        window: usize,
    },
}

/// An armed crash: power fails at a chosen point in the write stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Zero-based index of the write request that triggers the crash.
    pub crash_at_write: u64,
    /// Treatment of the triggering write.
    pub mode: FaultMode,
}

impl CrashPlan {
    /// Crash at write `n`, dropping it entirely.
    pub fn drop_at(n: u64) -> Self {
        Self {
            crash_at_write: n,
            mode: FaultMode::DropWrite,
        }
    }

    /// Crash at write `n`, persisting only `sectors` sectors of it.
    pub fn tear_at(n: u64, sectors: u64) -> Self {
        Self {
            crash_at_write: n,
            mode: FaultMode::TornWrite { sectors },
        }
    }

    /// Crash at write `n` while up to `window` asynchronous writes sit in
    /// a volatile cache; the held writes are lost along with the trigger.
    pub fn reorder_at(n: u64, window: usize) -> Self {
        Self {
            crash_at_write: n,
            mode: FaultMode::ReorderWindow { window },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let plan = CrashPlan::drop_at(7);
        assert_eq!(plan.crash_at_write, 7);
        assert_eq!(plan.mode, FaultMode::DropWrite);

        let torn = CrashPlan::tear_at(3, 2);
        assert_eq!(torn.crash_at_write, 3);
        assert_eq!(torn.mode, FaultMode::TornWrite { sectors: 2 });

        let reorder = CrashPlan::reorder_at(5, 8);
        assert_eq!(reorder.crash_at_write, 5);
        assert_eq!(reorder.mode, FaultMode::ReorderWindow { window: 8 });
    }

    #[test]
    fn latent_fault_fails_every_read_until_rewritten() {
        let mut plan = MediaFaultPlan::new(1).latent(10);
        for _ in 0..3 {
            assert_eq!(
                plan.on_read(8, 4),
                ReadOutcome::Unreadable {
                    sector: 10,
                    transient: false
                }
            );
        }
        // Reads not covering the sector are clean.
        assert_eq!(plan.on_read(0, 8), ReadOutcome::Ok { rotted: vec![] });
        // A rewrite remaps the sector and clears the fault.
        assert_eq!(plan.on_write(10, 1), 1);
        assert_eq!(plan.on_read(8, 4), ReadOutcome::Ok { rotted: vec![] });
        assert!(plan.is_empty());
    }

    #[test]
    fn transient_fault_recovers_after_k_failures() {
        let mut plan = MediaFaultPlan::new(2).transient(5, 2);
        for _ in 0..2 {
            assert_eq!(
                plan.on_read(5, 1),
                ReadOutcome::Unreadable {
                    sector: 5,
                    transient: true
                }
            );
        }
        assert_eq!(plan.on_read(5, 1), ReadOutcome::Ok { rotted: vec![] });
        assert!(plan.is_empty());
    }

    #[test]
    fn rot_reports_sectors_and_deterministic_nonzero_mask() {
        let mut plan = MediaFaultPlan::new(42).rot(3).rot(4);
        assert_eq!(
            plan.on_read(0, 8),
            ReadOutcome::Ok { rotted: vec![3, 4] }
        );
        let mask = plan.rot_mask(3);
        assert_ne!(mask, 0, "a zero mask would corrupt nothing");
        assert_eq!(mask, MediaFaultPlan::new(42).rot_mask(3), "seeded masks are stable");
        assert_ne!(plan.rot_mask(3), plan.rot_mask(4), "masks differ across these sectors");
        // Rot persists across reads but clears on rewrite.
        assert_eq!(plan.on_write(3, 2), 2);
        assert_eq!(plan.on_read(0, 8), ReadOutcome::Ok { rotted: vec![] });
    }

    #[test]
    fn kill_marks_the_plan_dead_and_survives_builder_chaining() {
        let plan = MediaFaultPlan::new(9).latent(3).kill();
        assert!(plan.is_dead());
        assert_eq!(plan.len(), 1, "per-sector faults survive, just unreachable");
        assert!(!MediaFaultPlan::new(9).is_dead());
        assert!(!MediaFaultPlan::default().is_dead());
    }

    #[test]
    fn fail_slow_is_silent_before_onset_and_multiplies_after() {
        let p = FailSlowProfile::at(1_000).with_multiplier_pct(400);
        assert_eq!(p.extra_ns(999, 10_000), 0, "healthy before onset");
        // 400%: 3x the base time is added on top.
        assert_eq!(p.extra_ns(1_000, 10_000), 30_000);
        assert_eq!(p.extra_ns(5_000, 10_000), 30_000, "constant after onset");
    }

    #[test]
    fn plan_routes_latency_through_the_armed_profile() {
        let plan = MediaFaultPlan::new(1)
            .fail_slow(FailSlowProfile::at(500).with_multiplier_pct(300));
        assert_eq!(plan.latency_extra_ns(0, 1_000), 0);
        assert_eq!(plan.latency_extra_ns(500, 1_000), 2_000);
        assert!(MediaFaultPlan::new(1).fail_slow_profile().is_none());
        assert_eq!(MediaFaultPlan::new(1).latency_extra_ns(500, 1_000), 0);
    }

    #[test]
    fn first_fault_in_respects_range() {
        let plan = MediaFaultPlan::new(0).latent(7).rot(12);
        assert_eq!(plan.first_fault_in(0, 8), Some(7));
        assert_eq!(plan.first_fault_in(8, 4), None);
        assert_eq!(plan.first_fault_in(8, 5), Some(12));
        assert_eq!(plan.len(), 2);
    }
}
