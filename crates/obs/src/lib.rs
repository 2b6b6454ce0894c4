//! Unified observability for the reproduction.
//!
//! Every layer — the simulated disk, the block cache, LFS proper (log,
//! cleaner, recovery), and the FFS baseline — reports through one
//! [`Registry`] per file-system stack:
//!
//! * [`Counter`]s are monotone event counts (blocks written, cache hits,
//!   cleaner copies, nanoseconds of seek time...).
//! * [`Gauge`]s are last-written values (live-byte ratios, recovered
//!   chunk counts).
//! * [`Hist`]s are fixed-bucket latency histograms over the **virtual
//!   clock** — wall time never appears in metrics, so distributions are
//!   bit-for-bit reproducible across runs.
//! * The [event ring](Registry::event) keeps the last N structured
//!   events (segment sealed, checkpoint written, cleaner pass, crash,
//!   recovery) for debugging failed tests.
//!
//! A [`report::Report`] serialises one or more registries to the
//! `lfs-repro/metrics/v1` JSON schema that every benchmark binary emits
//! as `BENCH_<name>.json` (see EXPERIMENTS.md). JSON is hand-written
//! because the build environment is offline and has no serde.
//!
//! Instruments are cheap `Arc` handles: a component grabs its instruments
//! once and updates them lock-free (counters/gauges) or under a short
//! mutex (histograms); the registry itself is only locked at
//! registration and snapshot time.
//!
//! Registries compose. Every layer owns one from birth and declares its
//! instruments once with [`instruments!`]; attaching a layer to a stack
//! is [`Registry::mount`], which shows the same handles in the parent
//! under a prefix — nothing is re-created and nothing is copied.

pub mod json;
pub mod report;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The most clients (tenants) a layer publishes per-client instruments
/// for — `engine.cNNN.*`, `trace.tNN.*`, `cache.client.<id>.*`. Wider
/// runs keep the aggregates only, so metrics JSON stays bounded on wide
/// sweeps.
pub const PER_CLIENT_INSTRUMENTS_MAX: usize = 32;

/// Histogram bucket upper bounds in nanoseconds: a 1-2-5 ladder from 1 µs
/// to 50 s. A value lands in the first bucket whose bound it does not
/// exceed; larger values land in the overflow slot.
pub const LATENCY_BUCKETS_NS: &[u64] = &[
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
    20_000_000_000,
    50_000_000_000,
];

/// Default capacity of the structured event ring.
pub const EVENT_RING_CAPACITY: usize = 1024;

/// A monotone event count. `Clone` shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-written value. `Clone` shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistData {
    /// One slot per `LATENCY_BUCKETS_NS` bound, plus an overflow slot.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            counts: vec![0; LATENCY_BUCKETS_NS.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// A fixed-bucket histogram of nanosecond durations. `Clone` shares the
/// underlying cells.
#[derive(Debug, Clone, Default)]
pub struct Hist(Arc<Mutex<HistData>>);

impl Hist {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation (nanoseconds).
    pub fn record(&self, value_ns: u64) {
        let mut data = self.0.lock().unwrap();
        let bucket = LATENCY_BUCKETS_NS.partition_point(|&bound| value_ns > bound);
        data.counts[bucket] += 1;
        data.count += 1;
        data.sum = data.sum.saturating_add(value_ns);
        data.min = data.min.min(value_ns);
        data.max = data.max.max(value_ns);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.lock().unwrap().count
    }

    /// Sum of all observations (ns).
    pub fn sum(&self) -> u64 {
        self.0.lock().unwrap().sum
    }

    fn snapshot(&self) -> HistSnapshot {
        let data = self.0.lock().unwrap();
        HistSnapshot {
            counts: data.counts.clone(),
            count: data.count,
            sum: data.sum,
            min: if data.count == 0 { 0 } else { data.min },
            max: data.max,
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts; index i pairs with `LATENCY_BUCKETS_NS[i]`,
    /// the final slot is overflow.
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

/// One structured event from the bounded ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual time the event was recorded.
    pub at_ns: u64,
    /// Stable machine-readable kind, e.g. `"segment_sealed"`.
    pub kind: &'static str,
    /// Free-form human-readable detail, e.g. `"seg=12 blocks=254"`.
    pub detail: String,
}

#[derive(Debug, Default)]
struct EventRing {
    events: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl EventRing {
    fn push(&mut self, event: Event) {
        if self.events.len() < EVENT_RING_CAPACITY {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % EVENT_RING_CAPACITY;
            self.dropped += 1;
        }
    }

    fn in_order(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// This registry's instruments and, under their prefixes, those of
    /// every registry mounted in it.
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    hists: BTreeMap<String, Hist>,
    events: EventRing,
    /// Where this registry is mounted: the parent and the name prefix.
    parent: Option<(Registry, String)>,
}

/// Picks one instrument kind's table out of a registry.
type Table<T> = fn(&mut Inner) -> &mut BTreeMap<String, T>;

/// An instrument kind a [`Registry`] hands out by name; what an
/// [`instruments!`] line names as its kind.
pub trait Instrument {
    /// The instrument registered under `name`, created if new.
    fn named(registry: &Registry, name: &str) -> Self;
}

impl Instrument for Counter {
    fn named(registry: &Registry, name: &str) -> Self {
        registry.counter(name)
    }
}

impl Instrument for Gauge {
    fn named(registry: &Registry, name: &str) -> Self {
        registry.gauge(name)
    }
}

impl Instrument for Hist {
    fn named(registry: &Registry, name: &str) -> Self {
        registry.hist(name)
    }
}

/// A layer's metrics registry. `Clone` is cheap and shares state.
///
/// A registry [mounted](Registry::mount) in another becomes a window
/// onto the stack: what it registers shows in every ancestor under the
/// mount prefixes, its events go to the root's ring, and reading it
/// (snapshot, events) reads the root.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("registry lock poisoned by an earlier panic")
    }

    /// Returns the counter registered under `name`, creating it if new.
    pub fn counter(&self, name: &str) -> Counter {
        self.get(name, |inner| &mut inner.counters)
    }

    /// Returns the gauge registered under `name`, creating it if new.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get(name, |inner| &mut inner.gauges)
    }

    /// Returns the histogram registered under `name`, creating it if new.
    pub fn hist(&self, name: &str) -> Hist {
        self.get(name, |inner| &mut inner.hists)
    }

    fn get<T: Clone + Default>(&self, name: &str, table: Table<T>) -> T {
        let mut inner = self.lock();
        if let Some(found) = table(&mut inner).get(name) {
            return found.clone();
        }
        let cell = T::default();
        table(&mut inner).insert(name.to_string(), cell.clone());
        let parent = inner.parent.clone();
        drop(inner);
        if let Some((parent, prefix)) = parent {
            parent.show(&format!("{prefix}{name}"), Some(&cell), table);
        }
        cell
    }

    /// Shows (`Some`) or hides (`None`) one instrument under `name`,
    /// here and in every ancestor.
    fn show<T: Clone>(&self, name: &str, cell: Option<&T>, table: Table<T>) {
        let mut inner = self.lock();
        match cell {
            Some(cell) => {
                let clash = table(&mut inner).insert(name.to_string(), cell.clone());
                debug_assert!(clash.is_none(), "two instruments named {name}");
            }
            None => drop(table(&mut inner).remove(name)),
        }
        let parent = inner.parent.clone();
        drop(inner);
        if let Some((parent, prefix)) = parent {
            parent.show(&format!("{prefix}{name}"), cell, table);
        }
    }

    /// Shows every instrument of `child` — those it has now, with their
    /// counts, and those it registers later — in this registry under
    /// `prefix + name`, and routes the child's later events to this
    /// stack's root. The handles are shared, never re-created. A
    /// registry is mounted in one place: mounting it elsewhere moves it
    /// (the old parent can then be dropped), mounting it where it
    /// already is does nothing. Two instruments under one name is a
    /// bug in the caller (debug-asserted; the later mount wins).
    pub fn mount(&self, prefix: &str, child: &Registry) {
        debug_assert!(
            self.chain().all(|at| !Arc::ptr_eq(&at.inner, &child.inner)),
            "mounting a registry inside itself"
        );
        let mut inner = child.lock();
        let here = |(parent, at): &(Registry, String)| {
            Arc::ptr_eq(&parent.inner, &self.inner) && at == prefix
        };
        if inner.parent.as_ref().is_some_and(here) {
            return;
        }
        let old = inner.parent.replace((self.clone(), prefix.to_string()));
        let (counters, gauges, hists) =
            (inner.counters.clone(), inner.gauges.clone(), inner.hists.clone());
        drop(inner);
        self.move_in(&old, prefix, counters, |inner| &mut inner.counters);
        self.move_in(&old, prefix, gauges, |inner| &mut inner.gauges);
        self.move_in(&old, prefix, hists, |inner| &mut inner.hists);
    }

    fn move_in<T: Clone>(
        &self,
        old: &Option<(Registry, String)>,
        prefix: &str,
        cells: BTreeMap<String, T>,
        table: Table<T>,
    ) {
        for (name, cell) in &cells {
            if let Some((parent, at)) = old {
                parent.show(&format!("{at}{name}"), None, table);
            }
            self.show(&format!("{prefix}{name}"), Some(cell), table);
        }
    }

    /// This registry, then the one it is mounted in, and so on up.
    fn chain(&self) -> impl Iterator<Item = Registry> {
        let up = |at: &Registry| at.lock().parent.as_ref().map(|(parent, _)| parent.clone());
        std::iter::successors(Some(self.clone()), up)
    }

    /// The registry at the top of the mount chain (this one if unmounted).
    fn root(&self) -> Registry {
        self.chain().last().expect("the chain starts with this registry")
    }

    /// Appends a structured event to the stack's (the root's) bounded ring.
    pub fn event(&self, at_ns: u64, kind: &'static str, detail: impl Into<String>) {
        self.root().lock().events.push(Event {
            at_ns,
            kind,
            detail: detail.into(),
        });
    }

    /// Returns the ring's events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.root().lock().events.in_order()
    }

    /// Number of events evicted from the ring so far.
    pub fn events_dropped(&self) -> u64 {
        self.root().lock().events.dropped
    }

    /// Takes a point-in-time copy of every instrument in the stack (the
    /// root's view) and its event ring.
    pub fn snapshot(&self) -> Snapshot {
        let root = self.root();
        let inner = root.lock();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            hists: inner
                .hists
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
            events: inner.events.in_order(),
        }
    }

    /// Renders the event ring as one line per event — the debugging dump
    /// for failed tests.
    pub fn dump_events(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            out.push_str(&format!(
                "[{:>14.6}s] {:<16} {}\n",
                event.at_ns as f64 / 1e9,
                event.kind,
                event.detail
            ));
        }
        out
    }
}

/// Declares a layer's instruments once: one `field, Kind, "metric.name",
/// "doc";` line each (`Kind` is [`Counter`], [`Gauge`] or [`Hist`]).
///
/// The first struct becomes the layer's handle struct — a `registry`
/// field plus one handle per line of *both* blocks — with `new(&Registry)`
/// registering every name. The optional second struct is the public
/// point-in-time view: one `u64` field per line of its own block, built
/// by the generated `stats()` and subtracted by `delta_since()`. A metric
/// is added, renamed or dropped by editing its one line; nothing else
/// lists the instruments.
#[macro_export]
macro_rules! instruments {
    (
        $(#[$hmeta:meta])* $hvis:vis struct $Handle:ident {
            $($f:ident, $k:ident, $name:literal, $doc:literal;)*
        }
        $($(#[$vmeta:meta])* $vvis:vis struct $View:ident {
            $($vf:ident, $vk:ident, $vname:literal, $vdoc:literal;)*
        })?
    ) => {
        $(#[$hmeta])*
        $hvis struct $Handle {
            /// The registry the instruments are registered in.
            pub registry: $crate::Registry,
            $(#[doc = $doc] pub $f: $crate::$k,)*
            $($(#[doc = $vdoc] pub $vf: $crate::$vk,)*)?
        }
        impl $Handle {
            /// Registers every declared instrument in `registry`.
            pub fn new(registry: &$crate::Registry) -> Self {
                Self {
                    registry: registry.clone(),
                    $($f: $crate::Instrument::named(registry, $name),)*
                    $($($vf: $crate::Instrument::named(registry, $vname),)*)?
                }
            }
        }
        $(
            $(#[$vmeta])*
            $vvis struct $View { $(#[doc = $vdoc] pub $vf: u64,)* }
            impl $Handle {
                /// The current value of every instrument in the view.
                pub fn stats(&self) -> $View { $View { $($vf: self.$vf.get(),)* } }
            }
            impl $View {
                /// `self - earlier`, field by field: what one phase counted.
                pub fn delta_since(&self, earlier: &$View) -> $View {
                    $View { $($vf: self.$vf - earlier.$vf,)* }
                }
            }
        )?
    };
}

/// A point-in-time copy of a whole registry, in deterministic (sorted)
/// order.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub hists: Vec<(String, HistSnapshot)>,
    pub events: Vec<Event>,
}

impl Snapshot {
    /// Looks up a counter by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Looks up a gauge by name (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Looks up a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_clones() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.snapshot().counter("x"), 3);
    }

    #[test]
    fn hist_buckets_partition_correctly() {
        let hist = Hist::new();
        hist.record(0); // first bucket (<= 1_000)
        hist.record(1_000); // still first bucket (bounds are inclusive)
        hist.record(1_001); // second bucket
        hist.record(u64::MAX); // overflow slot
        let snap = hist.snapshot();
        assert_eq!(snap.counts[0], 2);
        assert_eq!(snap.counts[1], 1);
        assert_eq!(snap.counts[LATENCY_BUCKETS_NS.len()], 1);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, u64::MAX);
        // Bucket counts always total the observation count.
        assert_eq!(snap.counts.iter().sum::<u64>(), snap.count);
    }

    #[test]
    fn mount_carries_accumulated_values() {
        let private = Registry::new();
        let counter = private.counter("disk.reads");
        counter.add(7);
        let hist = private.hist("disk.req_ns");
        hist.record(500);

        let shared = Registry::new();
        shared.mount("", &private);
        counter.inc();
        hist.record(700);

        let snap = shared.snapshot();
        assert_eq!(snap.counter("disk.reads"), 8);
        assert_eq!(snap.hist("disk.req_ns").unwrap().count, 2);
        // Mounting into the same registry twice must not double-count.
        shared.mount("", &private);
        assert_eq!(shared.counter("disk.reads").get(), 8);
    }

    #[test]
    fn event_ring_keeps_the_latest_and_counts_drops() {
        let reg = Registry::new();
        for i in 0..(EVENT_RING_CAPACITY as u64 + 10) {
            reg.event(i, "tick", format!("i={i}"));
        }
        let events = reg.events();
        assert_eq!(events.len(), EVENT_RING_CAPACITY);
        assert_eq!(reg.events_dropped(), 10);
        assert_eq!(events[0].at_ns, 10, "oldest surviving event");
        assert_eq!(events.last().unwrap().at_ns, EVENT_RING_CAPACITY as u64 + 9);
        assert!(reg.dump_events().contains("tick"));
    }

    #[test]
    fn snapshot_orders_names_deterministically() {
        let reg = Registry::new();
        reg.counter("zeta").inc();
        reg.counter("alpha").inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }
}
