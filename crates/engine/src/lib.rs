#![warn(missing_docs)]

//! A discrete-event multi-client request engine over the shared virtual
//! clock.
//!
//! The paper's §3 argument is economic: LFS wins because many small,
//! independent updates become one large sequential transfer, while FFS
//! pays a seek per metadata update. The single-request harness used by
//! the figure reproductions cannot exercise the *concurrency* side of
//! that argument — queueing at the disk, write coalescing across
//! clients, and the CPU-vs-disk crossover under load. This crate adds
//! the missing machinery:
//!
//! * [`EngineCore`] / [`EngineDisk`] — a disk request queue layered over
//!   [`sim_disk::SimDisk`]'s submit/complete API, behind the standard
//!   [`sim_disk::BlockDevice`] trait so LFS and FFS mount it unchanged.
//!   The queue has a depth knob with backpressure, cross-client write
//!   coalescing (sector-adjacent pending writes merge into one
//!   transfer), write absorption, and read-from-queue hits.
//!   The head services the queue oldest-first; [`qos`] narrows the
//!   pick to the tenant furthest behind its share, and a bounded-wait
//!   (anti-starvation) check overrides both: an aged request preempts
//!   any other choice.
//! * [`driver`] — the one closed-loop host loop (earliest-ready client
//!   first, virtual time advanced to its ready-time) and the one rule
//!   for offering background [`Maintenance`] steps in the idle time
//!   between dispatches.
//! * [`multi`], [`mix`] — N closed-loop clients running the `workload`
//!   small-file generator (create, or an overwrite+read mix) against
//!   one file system on that driver. Per-client latency histograms,
//!   queue-depth gauges, and pick-decision (`sched`) trace events land in
//!   the file system's [`obs::Registry`].
//!
//! Everything is deterministic: same config, same virtual-time results,
//! byte-identical metrics JSON.

pub mod driver;
pub mod mix;
pub mod multi;
pub mod qos;
pub mod queue;

pub use driver::{drain, offer, run_closed_loop, IdleWindow, LoopReport, Maintenance, Step, Turn};
pub use mix::{run_overwrite_read_mix, MixConfig, MixReport};
pub use multi::{
    jittered_think_ns, run_small_file_create, ClientSummary, MultiClientConfig, MultiReport,
    RequestEngine,
};
pub use qos::{FairShare, QosClass, QosSpec, TenantQos};
pub use queue::{EngineConfig, EngineCore, EngineDisk, ReadHandle, MAINT_OWNER};
