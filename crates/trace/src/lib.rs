#![warn(missing_docs)]

//! Multi-tenant file-system trace infrastructure: format, dependency
//! graph, generators, and a QoS-aware discrete-event replay driver.
//!
//! Rosenblum & Ousterhout close §4.3.5 with the observation that "the
//! real test of a file system is its performance over months and years
//! of use" — microbenchmarks argue, traces decide. This crate is the
//! repo's one trace format and one replay path:
//!
//! * [`format`](mod@format) — the versioned `lfs-trace v1` text format: per-record
//!   client id, operation ([`TraceOp`]: its line grammar and how it
//!   applies to a [`vfs::FileSystem`]), think time, and explicit
//!   happens-before dependency edges, plus per-tenant QoS directives.
//!   Parsing is total: malformed input yields a typed [`TraceError`],
//!   never a panic, and dependency cycles are rejected up front.
//! * [`graph`] — the dependency graph (explicit edges plus per-client
//!   program order) as the host loop's [`engine::Schedule`], its cycle
//!   check and its maximal parallel process sets, following
//!   `fs-bench`'s trace scheduler.
//! * [`generate`] — deterministic generators for the paper's §4.3.5
//!   office workload and three multi-tenant shapes: mail server
//!   (cross-tenant fan-out), build farm (fan-out plus a link-step
//!   fan-in), and Zipf-skewed hot-file churn (a latency probe under a
//!   flood).
//! * [`replay`](mod@replay) — replays a trace through any
//!   [`engine::RequestEngine`]-backed file system with the one host loop
//!   ([`engine::run_schedule`]; the disk queue's [`engine::FairShare`]
//!   ledger picks when QoS is on; [`replay_with`] hosts a maintenance
//!   task), and audits every happens-before edge it dispatched.

pub mod format;
pub mod generate;
pub mod graph;
pub mod replay;

pub use format::{Trace, TraceError, TraceOp, TraceRecord, FORMAT_VERSION, MAX_CLIENTS};
pub use generate::{build_farm, by_name, mail_server, office, zipf_churn, GenSpec, TRACE_NAMES};
pub use replay::{
    percentile_ns, replay, replay_with, snapshot, ReplayConfig, ReplayReport, TenantSummary,
};
