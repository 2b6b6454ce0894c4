//! The metric catalogue (EXPERIMENTS.md, "Metric namespaces") must stay
//! in step with the code: every name the fullest stacks export has a
//! catalogue entry, and every entry names something exported. The
//! stacks are LFS on a 4-spindle parity volume — driven by the
//! multi-client, trace-replay and overwrite-churn drivers, with one
//! spindle limping so the health monitor speaks — and FFS on one disk.
//!
//! A catalogue entry is a backticked token in a row's third column,
//! appended to the row's prefix (the first backticked token of its
//! first column, up to the `*`). `NN` / `NNN` stand for that many
//! digits, `<i>` / `<id>` for any number of them. A spindle's
//! `volume.spindle.<i>.` names are looked up without that prefix.
//! `scripts/loc.sh --knobs` counts the declarations behind the names.

use std::collections::BTreeSet;
use std::path::Path;

use engine::{run_small_file_create, MultiClientConfig};
use ffs_baseline::{Ffs, FfsConfig};
use lfs_bench::interference::{run_overwrite_churn, ChurnConfig};
use lfs_bench::{modern_lfs, volume_rig};
use lfs_core::LfsConfig;
use sim_disk::{Clock, DiskGeometry, FailSlowProfile, MediaFaultPlan, SimDisk};
use trace::{office, replay, GenSpec, ReplayConfig};
use vfs::FileSystem;
use volume::{HealthPolicy, VolumeConfig};

const SPINDLES: usize = 4;

fn names(registry: &obs::Registry, into: &mut BTreeSet<String>) {
    let snap = registry.snapshot();
    let all = snap.counters.iter().map(|(n, _)| n);
    let all = all.chain(snap.gauges.iter().map(|(n, _)| n));
    for name in all.chain(snap.hists.iter().map(|(n, _)| n)) {
        // A spindle exports the disk and engine names the catalogue
        // already lists, under its prefix.
        let bare = name
            .strip_prefix("volume.spindle.")
            .and_then(|rest| rest.split_once('.'))
            .filter(|(i, _)| i.parse::<usize>().is_ok())
            .map_or(name.as_str(), |(_, rest)| rest);
        into.insert(bare.to_string());
    }
}

fn exported_names() -> BTreeSet<String> {
    let mut all = BTreeSet::new();

    // 24 KB segments split into three sector-aligned data chunks.
    let cfg = LfsConfig::small_test().with_segment_bytes(24 * 1024);
    let volume = VolumeConfig::parity_segment(SPINDLES, cfg.stripe_chunk_bytes());
    let (dev, clock) = volume_rig(volume, 8_192, None);
    dev.set_health_policy(HealthPolicy::default());
    let pump = dev.clone();
    let (mut fs, registry) = modern_lfs(dev, cfg, clock);
    let multi = MultiClientConfig::new(2, 6, 1024);
    run_small_file_create(&mut fs, &pump, &registry, &multi).expect("multi-client run");
    let trace = office(&GenSpec::small(2));
    replay(&mut fs, &pump, &registry, &trace, &ReplayConfig::default()).expect("replay");
    let churn = ChurnConfig {
        clients: 2,
        ops_per_client: 4,
        total_slots: 8,
        file_size: 2048,
        think_ns: 1_000_000,
        seed: 7,
    };
    run_overwrite_churn(&mut fs, &pump, &churn).expect("churn run");
    // One limping spindle, read cold until the monitor changes its mind.
    pump.volume().borrow_mut().spindle_mut(1).disk_mut().inject_media_faults(
        MediaFaultPlan::new(1).fail_slow(FailSlowProfile::at(0).with_multiplier_pct(3000)),
    );
    for _ in 0..8 {
        fs.drop_caches().expect("drop caches");
        for entry in fs.readdir("/d00").expect("churn directory") {
            fs.read_file(&format!("/d00/{}", entry.name)).expect("read back");
        }
    }
    names(&registry, &mut all);

    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), clock.clone());
    let mut ffs = Ffs::format(disk, FfsConfig::small_test(), clock).expect("format FFS");
    ffs.write_file("/f", b"catalogue").expect("write");
    ffs.sync().expect("sync");
    names(ffs.obs(), &mut all);
    all
}

/// `(pattern, table line)` for every catalogue entry.
fn catalogue(repo: &Path) -> Vec<(String, usize)> {
    let text = std::fs::read_to_string(repo.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let ticked = |cell: &str| -> Vec<String> {
        cell.split('`').skip(1).step_by(2).map(str::to_string).collect()
    };
    let mut entries = Vec::new();
    let table = text
        .lines()
        .enumerate()
        .skip_while(|(_, l)| !l.starts_with("Metric namespaces"))
        .skip_while(|(_, l)| !l.starts_with("|---"))
        .skip(1)
        .take_while(|(_, l)| l.starts_with('|'));
    for (at, line) in table {
        let cells: Vec<&str> = line.split('|').collect();
        assert_eq!(cells.len(), 5, "line {}: a catalogue row has three cells", at + 1);
        let first = ticked(cells[1]);
        let suffixes = ticked(cells[3]);
        let Some(prefix) = first.first() else {
            assert!(suffixes.is_empty(), "line {}: entries without a namespace", at + 1);
            continue;
        };
        let prefix = prefix.split('*').next().expect("split yields one piece");
        for suffix in suffixes {
            entries.push((format!("{prefix}{suffix}"), at + 1));
        }
    }
    entries
}

/// Whether `name` is an instance of `pattern` (see the module docs).
fn matches(pattern: &str, name: &str) -> bool {
    let digits = |s: &str| s.chars().take_while(char::is_ascii_digit).count();
    let (mut p, mut n) = (pattern, name);
    loop {
        let any = ["<id>", "<i>"].iter().find_map(|ph| p.strip_prefix(ph));
        let fixed = ["NNN", "NN"].iter().find(|ph| p.starts_with(**ph)).map(|ph| ph.len());
        if let Some(rest) = any {
            let k = digits(n);
            if k == 0 {
                return false;
            }
            (p, n) = (rest, &n[k..]);
        } else if let Some(k) = fixed {
            if digits(n) != k {
                return false;
            }
            (p, n) = (&p[k..], &n[k..]);
        } else {
            match (p.chars().next(), n.chars().next()) {
                (None, None) => return true,
                (Some(a), Some(b)) if a == b => (p, n) = (&p[a.len_utf8()..], &n[b.len_utf8()..]),
                _ => return false,
            }
        }
    }
}

#[test]
fn every_exported_name_is_catalogued_and_every_entry_is_exported() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let entries = catalogue(&repo);
    assert!(entries.len() > 150, "only {} catalogue entries parsed", entries.len());
    let exported = exported_names();
    let mut problems = Vec::new();
    for name in &exported {
        if !entries.iter().any(|(pattern, _)| matches(pattern, name)) {
            problems.push(format!("exported but not in the catalogue: {name}"));
        }
    }
    for (pattern, line) in &entries {
        if !exported.iter().any(|name| matches(pattern, name)) {
            problems.push(format!("EXPERIMENTS.md:{line}: `{pattern}` names nothing exported"));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn patterns_match_numbered_families_only() {
    assert!(matches("engine.cNNN.op_ns", "engine.c007.op_ns"));
    assert!(!matches("engine.cNNN.op_ns", "engine.c07.op_ns"));
    assert!(matches("trace.tNN.ops", "trace.t01.ops"));
    assert!(matches("volume.health.state.<i>", "volume.health.state.12"));
    assert!(!matches("volume.health.state.<i>", "volume.health.state."));
    assert!(matches("cache.client.<id>.hits", "cache.client.000.hits"));
    assert!(!matches("disk.reads", "disk.reads_total"));
}
