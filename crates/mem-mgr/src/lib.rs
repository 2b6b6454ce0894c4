#![warn(missing_docs)]

//! The file cache both storage managers are built on: one memory
//! manager for the write buffer and the read cache.
//!
//! §4.1 of the paper: "Because all writes are asynchronous, LFS uses the
//! file cache as a write buffer that accumulates changes to the file system
//! and performs speed matching between the CPU and disk subsystem." The
//! same cache fronts the FFS baseline (SunOS had an equivalent), so the two
//! file systems differ only in *what they do at write-back time*.
//!
//! [`MemMgr`] maps a [`BlockKey`] to a block-sized buffer with a dirty
//! bit. It never does I/O: the file system reads misses from disk and
//! decides when and in what layout dirty blocks are written back, when
//! one of the §4.3.5 triggers fires:
//!
//! * **Cache full** — too many dirty blocks relative to capacity.
//! * **Cache write-back** — some dirty block is older than the age
//!   threshold (30 seconds in the paper's implementation).
//! * **Sync request** — an explicit `sync`/`fsync` (driven by the FS, not
//!   by this crate).
//!
//! **Dirty blocks are never evicted** under either replacement policy.
//!
//! # One budget
//!
//! The budget also pays for memory held outside the block map: a
//! **reservation** ([`MemMgr::reserve`]), made room for by evicting clean
//! blocks only. Its user is the [`InodeTable`] both file systems keep:
//! each resident inode charges its bytes, and the table may fill what
//! the write buffer does not claim, dropping its least-recently-used
//! clean entries past that. The write target and the cache-full trigger
//! ignore the reservation, so it is paid for by the read side.
//!
//! # Replacement policies
//!
//! [`CachePolicy::SharedLru`] (the default) is the paper's cache: one
//! LRU over clean and dirty blocks, bounded against the clean ones.
//!
//! The paper assumes one large file cache absorbs reads so the log can
//! own writes, but a single shared LRU makes those two jobs fight: dirty
//! blocks parked while they accumulate toward a segment-sized flush
//! evict the read working set, and one streaming client can flush
//! everyone's hot blocks. [`CachePolicy::Adaptive`] partitions the same
//! memory budget into
//!
//! * a **write buffer** — dirty blocks accumulating toward segment-sized
//!   flushes, with flush efficiency (bytes flushed per segment write)
//!   reported back by the owning file system via [`MemMgr::note_flush`];
//! * a **scan-resistant read cache** — 2Q-style *probation* (FIFO, where
//!   blocks land on first touch) and *protected* (LRU, entered only on
//!   re-reference) pools, backed by a **ghost list** of recently evicted
//!   keys so the manager can observe the misses a larger read pool would
//!   have served;
//!
//! with an **adaptive boundary** that moves blocks between the pools by
//! comparing read hit-rate marginal benefit (ghost hits per tuning
//! window) against write-flush efficiency (partial-segment writes a
//! smaller buffer would cause) — the Luo & Carey "memory walls" tuner
//! simplified to this two-pool case.
//!
//! The manager also keeps **per-client working-set accounting**: every
//! resident block is charged to the client that faulted or wrote it, and
//! hits/misses/ghost hits are attributed to the accessing client
//! (`cache.client.<id>.*` instruments), so QoS-weighted tenants can be
//! charged for memory the way the engine charges them for I/O.
//!
//! # Examples
//!
//! ```
//! use mem_mgr::{BlockKey, MemConfig, MemMgr, WritebackPolicy, WritebackTrigger};
//! use vfs::Ino;
//!
//! let mut cache = MemMgr::new(4096, 64, MemConfig::shared(WritebackPolicy::paper()));
//! let key = BlockKey::file(Ino(5), 0);
//! cache.insert_dirty(key, vec![0u8; 4096].into_boxed_slice(), 0);
//! assert_eq!(cache.dirty_count(), 1);
//!
//! // Thirty-one virtual seconds later, the age trigger fires.
//! assert_eq!(
//!     cache.writeback_trigger(31_000_000_000),
//!     Some(WritebackTrigger::AgeThreshold)
//! );
//! // The file system writes the block out and marks it clean.
//! cache.mark_clean(key);
//! assert_eq!(cache.writeback_trigger(31_000_000_000), None);
//! ```

mod config;
mod ghost;
mod inodes;
mod key;
mod manager;
mod policy;
mod report;

pub use config::{CachePolicy, FlushCause, MemConfig};
pub use inodes::InodeTable;
pub use key::{BlockKey, Owner};
pub use manager::MemMgr;
pub use policy::{WritebackPolicy, WritebackTrigger, DIRTY_HIGH_WATER};
pub use report::{CacheReport, CacheStats, ClientUsage, InodeTableReport};
