//! Memory-manager configuration.

use crate::policy::WritebackPolicy;

/// Which replacement policy the manager runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// One shared LRU over clean and dirty blocks: the paper's single
    /// file cache, and what every paper-figure benchmark runs on.
    #[default]
    SharedLru,
    /// Split write buffer / 2Q read cache with the adaptive boundary.
    Adaptive,
}

impl CachePolicy {
    /// Stable lower-case name, used in bench labels and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            CachePolicy::SharedLru => "shared",
            CachePolicy::Adaptive => "adaptive",
        }
    }

    /// Parses a policy name as written by [`CachePolicy::as_str`]
    /// (aliases `shared-lru` and `lru` are accepted).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "shared" | "shared-lru" | "lru" => Some(CachePolicy::SharedLru),
            "adaptive" => Some(CachePolicy::Adaptive),
            _ => None,
        }
    }
}

/// Why the file system flushed, as reported through
/// [`MemMgr::note_flush`](crate::MemMgr::note_flush).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// The dirty pool reached the write-buffer boundary
    /// ([`WritebackTrigger::CacheFull`](crate::WritebackTrigger)).
    CachePressure,
    /// The oldest dirty block exceeded the age threshold.
    AgeThreshold,
    /// An explicit `sync`/checkpoint request.
    Sync,
}

/// Configuration for a [`MemMgr`](crate::MemMgr).
#[derive(Debug, Clone, Copy)]
pub struct MemConfig {
    /// Replacement policy.
    pub policy: CachePolicy,
    /// Write-back age threshold. (The dirty high-water fraction is the
    /// constant [`DIRTY_HIGH_WATER`](crate::DIRTY_HIGH_WATER); under
    /// [`CachePolicy::Adaptive`] it only seeds the *initial* boundary
    /// and the tuner moves it afterwards.)
    pub writeback: WritebackPolicy,
    /// The flush unit in bytes — the segment size for LFS. Flush
    /// efficiency is measured against this; `0` disables the write-side
    /// pressure model (FFS has no segment-sized flush to protect).
    pub flush_unit_bytes: u64,
}

impl MemConfig {
    /// Shared-LRU configuration.
    pub fn shared(writeback: WritebackPolicy) -> Self {
        Self {
            policy: CachePolicy::SharedLru,
            writeback,
            flush_unit_bytes: 0,
        }
    }

    /// Adaptive split-pool configuration with the given flush unit.
    pub fn adaptive(writeback: WritebackPolicy, flush_unit_bytes: u64) -> Self {
        Self {
            policy: CachePolicy::Adaptive,
            writeback,
            flush_unit_bytes,
        }
    }

    /// Builder: replaces the policy.
    pub fn with_policy(mut self, policy: CachePolicy) -> Self {
        self.policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for p in [CachePolicy::SharedLru, CachePolicy::Adaptive] {
            assert_eq!(CachePolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(CachePolicy::parse("lru"), Some(CachePolicy::SharedLru));
        assert_eq!(CachePolicy::parse("bogus"), None);
    }
}
