//! Fail-slow spindle health monitoring.
//!
//! A disk rarely announces that it is dying: it gets *slow* first —
//! remapped sectors, recalibration storms, vibration — while still
//! returning correct data. A parity volume that waits for a hard
//! failure lets one limping spindle set the latency of every stripe it
//! touches.
//!
//! Absolute latency cannot diagnose this: a sequential read on a sick
//! drive can be cheaper than a long random read on a healthy one, so
//! any fixed latency SLO either misses the former or slanders the
//! latter. The discriminating signal is **service-time inflation** —
//! the ratio of a request's observed service time to what the drive's
//! own mechanical model (seek + rotation + transfer for *that* request)
//! says it should cost. A healthy drive holds inflation at 1.0x
//! whatever the access pattern; a fail-slow drive inflates every
//! request by its degradation factor.
//!
//! The [`HealthMonitor`] tracks each spindle's inflation (per-mille
//! EWMA against [`SLO_INFLATION_MILLIS`]) and a sliding window of media
//! errors, and walks a healthy → suspect → evicted state machine with
//! hysteresis on both edges:
//!
//! * A spindle becomes **suspect** after [`SUSPECT_AFTER`] consecutive
//!   breaches (inflation EWMA over the SLO, or too many errors in the
//!   window).
//! * A suspect spindle **recovers** after [`RECOVER_AFTER`] consecutive
//!   clean observations — a transient stall is forgiven.
//! * A suspect spindle that keeps breaching for
//!   [`HealthPolicy::evict_after`] more observations is **evicted**:
//!   [`crate::StripedVolume`] kills it and, when a hot spare is
//!   configured, swaps the spare in and starts the online rebuild with
//!   zero operator actions.
//!
//! All arithmetic is integer (per-mille ratios and EWMA weights), so
//! verdicts are bit-for-bit deterministic.

use std::collections::VecDeque;

/// The health verdict on one spindle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Inflation and error rate within the SLO.
    Healthy,
    /// Breaching, but not long enough to act on — still serving.
    Suspect,
    /// Breached past the hysteresis: the volume has routed around it.
    Evicted,
}

/// A state-machine transition reported by [`HealthMonitor::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEvent {
    /// The spindle crossed into [`HealthState::Suspect`].
    Suspected(usize),
    /// A suspect spindle cleared the SLO long enough to be forgiven.
    Recovered(usize),
    /// The spindle crossed into [`HealthState::Evicted`]; the volume
    /// should kill it and fail over to a hot spare.
    Evicted(usize),
}

/// EWMA weight of the newest inflation sample, in per-mille: the newest
/// sample contributes 20%.
pub const EWMA_ALPHA_MILLIS: u64 = 200;
/// Inflation SLO, in per-mille of the model-expected service time: the
/// EWMA breaching this — sustained 2x the mechanical model — is a strike.
pub const SLO_INFLATION_MILLIS: u64 = 2000;
/// Length of the sliding per-spindle error window (observations).
pub const ERROR_WINDOW: usize = 16;
/// More than this many errors inside the window is a strike even when
/// inflation looks fine.
pub const MAX_WINDOW_ERRORS: u32 = 2;
/// Consecutive strikes to go healthy → suspect.
pub const SUSPECT_AFTER: u32 = 3;
/// Consecutive clean observations to go suspect → healthy.
pub const RECOVER_AFTER: u32 = 8;
/// Observations before any verdict — the EWMA needs a baseline.
pub const MIN_OBSERVATIONS: u64 = 8;
/// Bytes of a read piece that make one observation: a 4 KB block.
pub const SAMPLE_BYTES: u64 = 4096;

/// How long the monitor tolerates a suspect before the drastic step.
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Consecutive strikes *while suspect* to go suspect → evicted.
    pub evict_after: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self { evict_after: 5 }
    }
}

impl HealthPolicy {
    /// Replaces the suspect → evicted hysteresis.
    pub fn with_evict_after(mut self, strikes: u32) -> Self {
        self.evict_after = strikes.max(1);
        self
    }
}

/// Per-spindle tracker state.
#[derive(Debug, Clone)]
struct Tracker {
    state: HealthState,
    /// EWMA of observed service-time inflation, in per-mille of the
    /// model expectation; `None` until the first sample.
    ewma_millis: Option<u64>,
    observations: u64,
    errors: VecDeque<bool>,
    window_errors: u32,
    breach_streak: u32,
    clear_streak: u32,
}

impl Tracker {
    fn fresh() -> Self {
        Self {
            state: HealthState::Healthy,
            ewma_millis: None,
            observations: 0,
            errors: VecDeque::new(),
            window_errors: 0,
            breach_streak: 0,
            clear_streak: 0,
        }
    }
}

/// Watches every spindle of a striped volume and issues
/// [`HealthEvent`]s as spindles cross the state machine's edges.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    trackers: Vec<Tracker>,
}

impl HealthMonitor {
    /// A monitor over `spindles` drives, all starting healthy.
    pub fn new(spindles: usize, policy: HealthPolicy) -> Self {
        Self {
            policy,
            trackers: vec![Tracker::fresh(); spindles],
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Current verdict on spindle `i`.
    pub fn state(&self, i: usize) -> HealthState {
        self.trackers[i].state
    }

    /// Smoothed service-time inflation of spindle `i`, in per-mille of
    /// the model expectation (0 before any sample; 1000 = on-model).
    pub fn ewma_inflation_millis(&self, i: usize) -> u64 {
        self.trackers[i].ewma_millis.unwrap_or(0)
    }

    /// Forgets everything about spindle `i` — called when a replacement
    /// finishes rebuilding and comes online, so the new drive is not
    /// judged on its predecessor's record.
    pub fn reset(&mut self, i: usize) {
        self.trackers[i] = Tracker::fresh();
    }

    /// Feeds one serviced request on spindle `i`: its observed service
    /// time against what the drive's mechanical model says that request
    /// should cost. Returns the transition this observation caused, if
    /// any. Evicted spindles are no longer judged (the volume already
    /// routed around them); [`HealthMonitor::reset`] rearms them after
    /// a rebuild.
    pub fn observe(
        &mut self,
        i: usize,
        observed_ns: u64,
        expected_ns: u64,
    ) -> Option<HealthEvent> {
        let inflation =
            ((observed_ns as u128 * 1000) / (expected_ns.max(1) as u128)).min(u64::MAX as u128);
        self.ingest(i, inflation as u64, false)
    }

    /// Feeds one serviced *read* piece of `bytes` bytes on spindle `i`:
    /// one [`HealthMonitor::observe`] per [`SAMPLE_BYTES`] it moves
    /// (rounded up). A read's evidence is the data it moved, not how the
    /// file system batched it — a spindle read as sixteen 4 KB pieces or
    /// as one 64 KB piece is judged after the same number of blocks.
    /// Returns the transitions, in order.
    ///
    /// A write piece stays one observation whatever its size: the log
    /// batches its writes into segment-sized pieces by design, and one
    /// observation per block would let a single flush decide an
    /// eviction on its own.
    pub fn observe_read(
        &mut self,
        i: usize,
        observed_ns: u64,
        expected_ns: u64,
        bytes: u64,
    ) -> Vec<HealthEvent> {
        (0..bytes.div_ceil(SAMPLE_BYTES).max(1))
            .filter_map(|_| self.observe(i, observed_ns, expected_ns))
            .collect()
    }

    /// Feeds one media-error completion on spindle `i`. The error is
    /// inflation-neutral — it is scored against the error window at the
    /// spindle's current inflation EWMA, so a burst of errors cannot
    /// mask (or fake) a latency breach.
    pub fn observe_error(&mut self, i: usize) -> Option<HealthEvent> {
        let at = self.trackers[i].ewma_millis.unwrap_or(1000);
        self.ingest(i, at, true)
    }

    fn ingest(&mut self, i: usize, inflation_millis: u64, error: bool) -> Option<HealthEvent> {
        let evict_after = self.policy.evict_after;
        let t = &mut self.trackers[i];
        if t.state == HealthState::Evicted {
            return None;
        }
        t.observations += 1;
        t.ewma_millis = Some(match t.ewma_millis {
            None => inflation_millis,
            Some(prev) => {
                let a = EWMA_ALPHA_MILLIS as u128;
                (((inflation_millis as u128) * a + (prev as u128) * (1000 - a)) / 1000) as u64
            }
        });
        t.errors.push_back(error);
        if error {
            t.window_errors += 1;
        }
        while t.errors.len() > ERROR_WINDOW {
            if t.errors.pop_front() == Some(true) {
                t.window_errors -= 1;
            }
        }
        let warmed = t.observations >= MIN_OBSERVATIONS;
        let breach = warmed
            && (t.ewma_millis.unwrap_or(0) > SLO_INFLATION_MILLIS
                || t.window_errors > MAX_WINDOW_ERRORS);
        if breach {
            t.breach_streak += 1;
            t.clear_streak = 0;
        } else {
            t.clear_streak += 1;
            t.breach_streak = 0;
        }
        match t.state {
            HealthState::Healthy if t.breach_streak >= SUSPECT_AFTER => {
                t.state = HealthState::Suspect;
                // Eviction counts strikes accumulated *as a suspect*.
                t.breach_streak = 0;
                Some(HealthEvent::Suspected(i))
            }
            HealthState::Suspect if t.breach_streak >= evict_after => {
                t.state = HealthState::Evicted;
                Some(HealthEvent::Evicted(i))
            }
            HealthState::Suspect if t.clear_streak >= RECOVER_AFTER => {
                t.state = HealthState::Healthy;
                Some(HealthEvent::Recovered(i))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One model-expected unit, for readable observed/expected pairs.
    const EXPECTED: u64 = 1_000_000;
    /// 5x the model: far enough over the SLO that the 20% EWMA crosses
    /// it on the second slow sample after a healthy baseline.
    const SLOW: u64 = 5 * EXPECTED;

    fn monitor(spindles: usize) -> HealthMonitor {
        HealthMonitor::new(spindles, HealthPolicy::default().with_evict_after(3))
    }

    /// Feeds healthy samples until the warmup is over.
    fn warm(mon: &mut HealthMonitor, i: usize) {
        for _ in 0..MIN_OBSERVATIONS {
            assert_eq!(mon.observe(i, EXPECTED, EXPECTED), None);
        }
    }

    /// Feeds slow samples until spindle `i` turns suspect; returns how
    /// many it took.
    fn slow_until_suspect(mon: &mut HealthMonitor, i: usize) -> u32 {
        for n in 1..=32 {
            match mon.observe(i, SLOW, EXPECTED) {
                None => {}
                Some(HealthEvent::Suspected(s)) if s == i => return n,
                other => panic!("unexpected transition {other:?}"),
            }
        }
        panic!("never suspected");
    }

    #[test]
    fn healthy_spindle_never_transitions() {
        let mut mon = monitor(2);
        for _ in 0..100 {
            assert_eq!(mon.observe(0, EXPECTED, EXPECTED), None);
        }
        assert_eq!(mon.ewma_inflation_millis(0), 1000, "on-model is 1.0x");
        assert_eq!(mon.state(0), HealthState::Healthy);
        assert_eq!(mon.state(1), HealthState::Healthy, "unobserved stays healthy");
    }

    #[test]
    fn inflation_breaches_walk_suspect_then_evicted_with_hysteresis() {
        let mut mon = monitor(1);
        warm(&mut mon, 0);
        // EWMA 1000 → 1800 → 2440: the second slow sample is the first
        // breach, and suspicion needs SUSPECT_AFTER of them in a row.
        assert_eq!(slow_until_suspect(&mut mon, 0), 1 + SUSPECT_AFTER);
        assert_eq!(mon.state(0), HealthState::Suspect);
        // Eviction needs evict_after = 3 more strikes from the suspect edge.
        assert_eq!(mon.observe(0, SLOW, EXPECTED), None);
        assert_eq!(mon.observe(0, SLOW, EXPECTED), None);
        assert_eq!(mon.observe(0, SLOW, EXPECTED), Some(HealthEvent::Evicted(0)));
        assert_eq!(mon.state(0), HealthState::Evicted);
        // Evicted spindles are no longer judged.
        assert_eq!(mon.observe(0, 1, EXPECTED), None);
        assert_eq!(mon.state(0), HealthState::Evicted);
    }

    #[test]
    fn inflation_is_judged_relative_to_the_request_shape() {
        // A long request on a healthy drive (expensive but on-model)
        // must not look sicker than a short request served at 5x.
        let mut mon = monitor(2);
        for _ in 0..20 {
            // 100x the absolute latency, but exactly what the model
            // predicts for that request: inflation 1.0x.
            assert_eq!(mon.observe(0, 100 * EXPECTED, 100 * EXPECTED), None);
        }
        assert_eq!(mon.state(0), HealthState::Healthy);
        // Cheap requests at 5x the model: absolute latency is tiny,
        // inflation is flagrant.
        let mut suspected = false;
        for _ in 0..20 {
            suspected |=
                mon.observe(1, EXPECTED / 20, EXPECTED / 100) == Some(HealthEvent::Suspected(1));
        }
        assert!(suspected);
    }

    #[test]
    fn a_transient_stall_is_forgiven() {
        // The default eviction hysteresis outlasts the EWMA's decay.
        let mut mon = HealthMonitor::new(1, HealthPolicy::default());
        warm(&mut mon, 0);
        slow_until_suspect(&mut mon, 0);
        // The EWMA decays back under the SLO (three more strikes on the
        // way down), then RECOVER_AFTER clean observations in a row
        // forgive the spindle.
        let mut recovered_after = None;
        for n in 1..=32 {
            if mon.observe(0, EXPECTED, EXPECTED) == Some(HealthEvent::Recovered(0)) {
                recovered_after = Some(n);
                break;
            }
        }
        assert!(recovered_after.expect("never recovered") >= RECOVER_AFTER);
        assert_eq!(mon.state(0), HealthState::Healthy);
        // The recovery cleared the strike count: suspicion starts over.
        assert!(slow_until_suspect(&mut mon, 0) >= SUSPECT_AFTER);
    }

    #[test]
    fn error_rate_breaches_without_inflation() {
        // Patient enough to watch the errors age out of the window.
        let policy = HealthPolicy::default().with_evict_after(2 * ERROR_WINDOW as u32);
        let mut mon = HealthMonitor::new(1, policy);
        warm(&mut mon, 0);
        for n in 1..=MAX_WINDOW_ERRORS {
            assert_eq!(mon.observe_error(0), None, "{n} errors in window: allowed");
        }
        for _ in 1..SUSPECT_AFTER {
            assert_eq!(mon.observe_error(0), None, "a strike, not yet a streak");
        }
        assert_eq!(mon.observe_error(0), Some(HealthEvent::Suspected(0)));
        assert_eq!(
            mon.ewma_inflation_millis(0),
            1000,
            "errors are inflation-neutral"
        );
        // The window slides: old errors age out and the streak clears.
        for _ in 0..ERROR_WINDOW + RECOVER_AFTER as usize {
            mon.observe(0, EXPECTED, EXPECTED);
        }
        assert_eq!(mon.state(0), HealthState::Healthy);
    }

    #[test]
    fn warmup_defers_judgement_and_reset_rearms_it() {
        let mut mon = monitor(1);
        for _ in 1..MIN_OBSERVATIONS {
            assert_eq!(mon.observe(0, SLOW, EXPECTED), None, "still warming up");
        }
        assert_eq!(mon.state(0), HealthState::Healthy);
        assert_eq!(slow_until_suspect(&mut mon, 0), SUSPECT_AFTER);
        mon.reset(0);
        assert_eq!(mon.state(0), HealthState::Healthy);
        assert_eq!(mon.ewma_inflation_millis(0), 0);
        for _ in 1..MIN_OBSERVATIONS {
            assert_eq!(mon.observe(0, SLOW, EXPECTED), None, "warmup restarted");
        }
    }

    #[test]
    fn a_read_is_judged_by_its_blocks_not_its_batching() {
        // The same 10x-slow spindle read as 16 x 4 KB pieces and as one
        // 64 KB piece: the two monitors agree after every 64 KB, and
        // evict after the same number of blocks.
        let (mut small, mut large) = (monitor(1), monitor(1));
        for _ in 0..MIN_OBSERVATIONS {
            small.observe_read(0, EXPECTED, EXPECTED, SAMPLE_BYTES);
        }
        large.observe_read(0, EXPECTED, EXPECTED, MIN_OBSERVATIONS * SAMPLE_BYTES);
        let slow = 10 * EXPECTED;
        let (mut small_evicted, mut large_evicted) = (None, None);
        for block in (16..=64).step_by(16) {
            for _ in 0..16 {
                let events = small.observe_read(0, slow, EXPECTED, SAMPLE_BYTES);
                if events.contains(&HealthEvent::Evicted(0)) {
                    small_evicted.get_or_insert(block);
                }
            }
            let events = large.observe_read(0, slow, EXPECTED, 16 * SAMPLE_BYTES);
            if events.contains(&HealthEvent::Evicted(0)) {
                large_evicted.get_or_insert(block);
            }
            assert_eq!(small.state(0), large.state(0), "after {block} blocks");
            assert_eq!(
                small.ewma_inflation_millis(0),
                large.ewma_inflation_millis(0)
            );
        }
        assert_eq!(small_evicted, Some(16), "3 strikes to suspect, 3 to evict");
        assert_eq!(large_evicted, small_evicted);
        // One piece reports every transition it caused, in order.
        let mut fresh = monitor(1);
        fresh.observe_read(0, EXPECTED, EXPECTED, MIN_OBSERVATIONS * SAMPLE_BYTES);
        assert_eq!(
            fresh.observe_read(0, slow, EXPECTED, 16 * SAMPLE_BYTES),
            vec![HealthEvent::Suspected(0), HealthEvent::Evicted(0)]
        );
        // A piece shorter than a block is still one observation.
        let mut tiny = monitor(1);
        tiny.observe_read(0, EXPECTED, EXPECTED, 512);
        assert_eq!(tiny.ewma_inflation_millis(0), 1000);
    }

    #[test]
    fn ewma_smooths_with_integer_per_mille_weights() {
        let mut mon = monitor(1);
        mon.observe(0, EXPECTED, EXPECTED);
        assert_eq!(mon.ewma_inflation_millis(0), 1000, "first sample seeds the EWMA");
        mon.observe(0, 2 * EXPECTED, EXPECTED);
        assert_eq!(mon.ewma_inflation_millis(0), 1200);
        mon.observe(0, 3 * EXPECTED, 2 * EXPECTED);
        assert_eq!(mon.ewma_inflation_millis(0), 1260);
    }
}
