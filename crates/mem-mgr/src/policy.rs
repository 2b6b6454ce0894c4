//! Write-back policy: when should the file system start a segment write?

/// Why a write-back should start now (§4.3.5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritebackTrigger {
    /// The cache has run short of clean blocks.
    CacheFull,
    /// Some dirty block has exceeded the age threshold.
    AgeThreshold,
}

/// Fraction of cache capacity that may be dirty before a write-back is
/// forced (the "shortage of clean blocks" condition): three quarters.
pub const DIRTY_HIGH_WATER: f64 = 0.75;

/// Parameters governing when dirty data must leave the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritebackPolicy {
    /// Dirty blocks older than this (ns) trigger a write-back. The paper's
    /// implementation uses 30 seconds, "much like the delayed write-back
    /// policy of UNIX".
    pub age_threshold_ns: u64,
}

impl WritebackPolicy {
    /// The paper's configuration: 30-second age threshold.
    pub fn paper() -> Self {
        Self {
            age_threshold_ns: 30 * 1_000_000_000,
        }
    }

    /// Returns a copy with a different age threshold, in seconds.
    pub fn with_age_secs(mut self, secs: f64) -> Self {
        self.age_threshold_ns = (secs * 1e9) as u64;
        self
    }
}

impl Default for WritebackPolicy {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_policy_is_thirty_seconds() {
        let policy = WritebackPolicy::paper();
        assert_eq!(policy.age_threshold_ns, 30_000_000_000);
    }

    #[test]
    fn with_age_secs_converts() {
        let policy = WritebackPolicy::paper().with_age_secs(1.5);
        assert_eq!(policy.age_threshold_ns, 1_500_000_000);
    }
}
