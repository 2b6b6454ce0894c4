//! Property tests for registry composition: what [`Registry::mount`]
//! promises every layer that attaches itself to a stack, whatever the
//! layer recorded before, between and after the mounts.

use obs::{Registry, Snapshot};
use proptest::prelude::*;

obs::instruments! {
    /// A stand-in layer (a device, say) declared the way every real
    /// layer is.
    struct DeviceObs {
        busy, Hist, "dev.busy_ns", "Service time of each request.";
        depth, Gauge, "dev.depth", "Requests queued now.";
    }
    /// Its public view.
    #[derive(Debug, PartialEq)]
    struct DeviceStats {
        reads, Counter, "dev.reads", "Requests read.";
        writes, Counter, "dev.writes", "Requests written.";
    }
}

/// One recorded event on a layer.
#[derive(Debug, Clone)]
enum Tick {
    Read,
    Write(u8),
    Busy(u32),
    Depth(u8),
}

fn ticks() -> impl Strategy<Value = Vec<Tick>> {
    proptest::collection::vec(
        prop_oneof![
            Just(Tick::Read),
            (1u8..9).prop_map(Tick::Write),
            (0u32..5_000_000).prop_map(Tick::Busy),
            (0u8..33).prop_map(Tick::Depth),
        ],
        0..40,
    )
}

fn drive(dev: &DeviceObs, ticks: &[Tick]) {
    for tick in ticks {
        match tick {
            Tick::Read => dev.reads.inc(),
            Tick::Write(n) => dev.writes.add(*n as u64),
            Tick::Busy(ns) => dev.busy.record(*ns as u64),
            Tick::Depth(d) => dev.depth.set(*d as u64),
        }
    }
}

/// What `ticks` add to the view.
fn counted(ticks: &[Tick]) -> DeviceStats {
    let writes = ticks.iter().map(|t| if let Tick::Write(n) = t { *n as u64 } else { 0 });
    DeviceStats {
        reads: ticks.iter().filter(|t| matches!(t, Tick::Read)).count() as u64,
        writes: writes.sum(),
    }
}

/// `snap` with every name prefixed — what a mount under `prefix` shows.
fn prefixed(prefix: &str, snap: &Snapshot) -> Snapshot {
    let p = |name: &String| format!("{prefix}{name}");
    Snapshot {
        counters: snap.counters.iter().map(|(n, v)| (p(n), *v)).collect(),
        gauges: snap.gauges.iter().map(|(n, v)| (p(n), *v)).collect(),
        hists: snap.hists.iter().map(|(n, h)| (p(n), h.clone())).collect(),
        events: Vec::new(),
    }
}

/// The sorted union of snapshots with disjoint names.
fn union(parts: &[Snapshot]) -> Snapshot {
    let mut all = Snapshot::default();
    for part in parts {
        all.counters.extend(part.counters.iter().cloned());
        all.gauges.extend(part.gauges.iter().cloned());
        all.hists.extend(part.hists.iter().cloned());
    }
    all.counters.sort();
    all.gauges.sort();
    all.hists.sort_by(|a, b| a.0.cmp(&b.0));
    all
}

fn same_instruments(a: &Snapshot, b: &Snapshot) -> bool {
    a.counters == b.counters && a.gauges == b.gauges && a.hists == b.hists
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// A parent's snapshot is its own instruments plus each child's
    /// under that child's prefix — counts recorded before the mount
    /// included, counts recorded after it too — and the generated view
    /// reads the same cells the snapshot does.
    #[test]
    fn parent_snapshot_is_the_union_of_its_children(
        before in proptest::collection::vec(ticks(), 1..5),
        after in proptest::collection::vec(ticks(), 1..5),
    ) {
        let spindles: Vec<DeviceObs> =
            before.iter().map(|_| DeviceObs::new(&Registry::new())).collect();
        for (dev, ticks) in spindles.iter().zip(&before) {
            drive(dev, ticks);
            prop_assert_eq!(dev.stats(), counted(ticks));
        }
        let array = Registry::new();
        array.counter("array.requests").add(7);
        let own = array.snapshot();
        // Taken while still unmounted: a mounted registry reads its root.
        let mut parts = vec![own];
        for (i, dev) in spindles.iter().enumerate() {
            let prefix = format!("array.spindle.{i}.");
            parts.push(prefixed(&prefix, &dev.registry.snapshot()));
            array.mount(&prefix, &dev.registry);
        }
        prop_assert!(same_instruments(&array.snapshot(), &union(&parts)));

        // Later counts land in the same cells, and a layer further up
        // sees the whole array under its own prefix.
        let stack = Registry::new();
        stack.mount("", &array);
        for (dev, ticks) in spindles.iter().zip(after.iter().cycle()) {
            let mounted = dev.stats();
            drive(dev, ticks);
            prop_assert_eq!(dev.stats().delta_since(&mounted), counted(ticks));
        }
        let snap = stack.snapshot();
        for (i, dev) in spindles.iter().enumerate() {
            let stats = dev.stats();
            prop_assert_eq!(snap.counter(&format!("array.spindle.{i}.dev.reads")), stats.reads);
            prop_assert_eq!(snap.counter(&format!("array.spindle.{i}.dev.writes")), stats.writes);
            prop_assert_eq!(snap.gauge(&format!("array.spindle.{i}.dev.depth")), dev.depth.get());
            let busy = snap.hist(&format!("array.spindle.{i}.dev.busy_ns"));
            prop_assert_eq!(busy.map(|h| h.count), Some(dev.busy.count()));
        }
        prop_assert_eq!(snap.counter("array.requests"), 7);
        prop_assert_eq!(snap.counters.len(), 1 + 2 * spindles.len());
        // Reading any mounted registry reads the root.
        prop_assert!(same_instruments(&spindles[0].registry.snapshot(), &snap));
    }

    /// Mounting where a registry already is changes nothing: no
    /// double counting, no second set of names.
    #[test]
    fn remounting_in_place_is_idempotent(first in ticks(), second in ticks()) {
        let dev = DeviceObs::new(&Registry::new());
        let stack = Registry::new();
        drive(&dev, &first);
        stack.mount("disk.", &dev.registry);
        let once = stack.snapshot();
        stack.mount("disk.", &dev.registry);
        prop_assert!(same_instruments(&stack.snapshot(), &once));
        drive(&dev, &second);
        stack.mount("disk.", &dev.registry);
        prop_assert_eq!(stack.snapshot().counter("disk.dev.reads"), dev.reads.get());
    }

    /// The in-process remount: a device attached to one file system's
    /// registry, then to a second one's, carries its counts — and what
    /// it registers later — to the second; the first loses them and can
    /// be dropped.
    #[test]
    fn a_device_moves_between_stacks_with_its_counts(first in ticks(), second in ticks()) {
        let dev = DeviceObs::new(&Registry::new());
        let old_fs = Registry::new();
        old_fs.counter("log.chunks").inc();
        old_fs.mount("", &dev.registry);
        drive(&dev, &first);
        old_fs.event(1, "checkpoint", "old stack");

        let new_fs = Registry::new();
        new_fs.mount("", &dev.registry);
        let left_behind = old_fs.snapshot();
        prop_assert_eq!(left_behind.counters, vec![("log.chunks".to_string(), 1)]);
        prop_assert!(left_behind.gauges.is_empty() && left_behind.hists.is_empty());
        drop(old_fs);

        drive(&dev, &second);
        dev.registry.counter("dev.late").inc();
        dev.registry.event(2, "media-fault", "new stack");
        let snap = new_fs.snapshot();
        prop_assert_eq!(snap.counter("dev.reads"), dev.reads.get());
        prop_assert_eq!(snap.counter("dev.writes"), dev.writes.get());
        prop_assert_eq!(snap.counter("dev.late"), 1);
        prop_assert_eq!(snap.hist("dev.busy_ns").map(|h| h.count), Some(dev.busy.count()));
        // Only events recorded since the move reach the new root's ring.
        let kinds: Vec<&str> = snap.events.iter().map(|e| e.kind).collect();
        prop_assert_eq!(kinds, vec!["media-fault"]);
    }
}

/// Events recorded before a mount stay in the child's own ring; later
/// ones go to whatever is the root when they happen.
#[test]
fn events_follow_the_mount_chain_to_the_root() {
    let spindle = Registry::new();
    spindle.event(1, "crash", "before any mount");
    let array = Registry::new();
    array.mount("array.spindle.0.", &spindle);
    spindle.event(2, "media-fault", "array is the root");
    let stack = Registry::new();
    stack.mount("", &array);
    spindle.event(3, "media-fault", "stack is the root");
    array.event(4, "rebuild", "from the middle");
    let at: Vec<u64> = stack.events().iter().map(|e| e.at_ns).collect();
    assert_eq!(at, [3, 4], "the root's ring holds what happened under it");
    assert_eq!(spindle.events(), stack.events(), "a mounted registry reads its root");
}

/// Two spindles under their own prefixes never collide; two layers
/// claiming one name is a bug the mount catches in debug builds.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "two instruments named disk.dev.reads")]
fn a_name_collision_is_a_debug_assertion() {
    let stack = Registry::new();
    let a = DeviceObs::new(&Registry::new());
    let b = DeviceObs::new(&Registry::new());
    stack.mount("volume.spindle.0.", &a.registry);
    stack.mount("volume.spindle.1.", &b.registry);
    assert_eq!(stack.snapshot().counters.len(), 4);
    let c = DeviceObs::new(&Registry::new());
    stack.mount("disk.", &a.registry); // a moves: fine
    stack.mount("disk.", &c.registry); // c lands on a's names
}
