//! The one closed-loop host driver and the one maintenance offer rule.
//!
//! Every multi-client workload in the workspace is the same loop: pick
//! the client whose think time ends first, let background work use the
//! time until then, advance the shared clock to the client's ready
//! time, run and time its operation, schedule its next think.
//! [`run_closed_loop`] is that loop; callers supply setup, a
//! `think(client, op)` function, the operation, and optionally a
//! [`Maintenance`] task (the LFS cleaner, a volume rebuild) to
//! interleave — §4.3.4's "clean during idle periods", as a parameter.
//!
//! The offer rule — ask the task whether it wants a step at the current
//! queue depth, step it, give an in-flight read time to settle — lives
//! in [`offer`] alone; hosts without a client loop (the crash sweep's
//! per-op hook, `lfs-tools rebuild`) call it or [`drain`] directly.

use sim_disk::Clock;
use vfs::FsResult;

use crate::multi::RequestEngine;

/// What one [`Maintenance::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Nothing to do.
    Idle,
    /// One bounded unit of work was performed; more remains.
    Progress,
    /// The task's current run just finished.
    Completed,
}

/// Background work a host loop interleaves with foreground operations
/// in bounded steps. `Cx` is whatever the host owns that the task works
/// on (typically the mounted file system), handed in per call so the
/// foreground operation and the task can share it.
pub trait Maintenance<Cx: ?Sized> {
    /// Whether the task's policy wants a step now, given the engine's
    /// pending-request count (idle-gated policies decline under load).
    fn wants_step(&self, cx: &Cx, queue_depth: u64) -> bool;
    /// Performs one bounded unit of work.
    fn step(&mut self, cx: &mut Cx) -> FsResult<Step>;
    /// True while a run is in progress (what [`drain`] finishes).
    fn active(&self, cx: &Cx) -> bool;
    /// `Some(ns)` when the last step left a read in flight that should
    /// be given `ns` of idle time before the claiming step is offered.
    fn settle_ns(&self, _cx: &Cx) -> Option<u64> {
        None
    }
}

/// The idle time one burst of offers may use on an engine's clock.
pub struct IdleWindow<'a> {
    /// Pumped before each offer; its queue depth feeds `wants_step`.
    pub engine: &'a dyn RequestEngine,
    /// The engine's clock.
    pub clock: &'a Clock,
    /// Client id the task's I/O is submitted as.
    pub client: Option<usize>,
    /// When the next foreground client is due. The first step of a
    /// burst is taken regardless (a backlogged foreground cannot starve
    /// the task); further steps only while the clock is short of this,
    /// and a settle never advances the clock past it.
    pub deadline_ns: u64,
    /// When the task's in-flight read is due; carried between bursts.
    pub settled_at_ns: &'a mut u64,
}

/// Offers `task` steps for as long as it wants them: at most
/// `max_steps`, and — with a `window` — one step plus as many as fit in
/// idle time before the window's deadline. A step that leaves a read in
/// flight ([`Maintenance::settle_ns`]) holds the next offer back until
/// the clock has covered the read's service, spending idle time (never
/// foreground time) on the wait, so the claiming step finds the data
/// complete instead of stalling dispatch. Returns the steps taken.
pub fn offer<Cx: ?Sized>(
    task: &mut dyn Maintenance<Cx>,
    cx: &mut Cx,
    mut window: Option<IdleWindow<'_>>,
    max_steps: u64,
) -> FsResult<u64> {
    let mut taken = 0;
    while taken < max_steps {
        let depth = match &window {
            Some(w) => {
                w.engine.pump()?;
                w.engine.queue_depth()
            }
            None => 0,
        };
        if !task.wants_step(cx, depth) {
            break;
        }
        if let Some(w) = &mut window {
            let now = w.clock.now_ns();
            if now < *w.settled_at_ns {
                let target = (*w.settled_at_ns).min(w.deadline_ns);
                if target <= now {
                    break;
                }
                w.clock.advance_to_ns(target);
                continue;
            }
            if taken > 0 && now >= w.deadline_ns {
                break;
            }
            w.engine.set_client(w.client);
        }
        if task.step(cx)? == Step::Idle {
            break;
        }
        taken += 1;
        if let (Some(w), Some(ns)) = (&mut window, task.settle_ns(cx)) {
            *w.settled_at_ns = w.clock.now_ns() + ns;
        }
    }
    Ok(taken)
}

/// Steps `task` until its in-progress run ends — no pacing, the
/// measured phase is over. Returns the steps taken.
pub fn drain<Cx: ?Sized>(task: &mut dyn Maintenance<Cx>, cx: &mut Cx) -> FsResult<u64> {
    let mut steps = 0u64;
    while task.active(cx) && task.step(cx)? != Step::Idle {
        steps += 1;
        assert!(steps < 1_000_000, "maintenance run failed to terminate");
    }
    Ok(steps)
}

/// The dispatched client's turn, handed to the operation closure.
pub struct Turn<'a> {
    /// The dispatched client.
    pub client: usize,
    /// How many operations this client has already completed.
    pub op: usize,
    clock: &'a Clock,
    start_ns: u64,
}

impl Turn<'_> {
    /// Restarts the timed window at the current virtual time, leaving
    /// out whatever the operation did so far (an untimed prelude).
    pub fn restart(&mut self) {
        self.start_ns = self.clock.now_ns();
    }

    /// Virtual time since the timed window opened.
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns() - self.start_ns
    }
}

/// What [`run_closed_loop`] measured.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Virtual time at which the loop started.
    pub start_ns: u64,
    /// `(client, latency_ns)` of every operation, in dispatch order.
    pub latencies: Vec<(usize, u64)>,
    /// Steps the maintenance task took between dispatches.
    pub maintenance_steps: u64,
}

/// Runs `budgets[c]` operations for each closed-loop client `c`.
///
/// Each dispatch picks the earliest-ready client with budget left (ties
/// go to the lowest id), [`offer`]s `maintenance` the idle time until
/// then (its I/O submitted as the paired client id), advances the clock
/// to the client's ready time, pumps the engine, attributes submissions
/// to the client, runs and times `op`, and schedules the client's next
/// operation `think(client, ops_done)` after its completion. Think time
/// does not advance the shared clock, so clients overlap.
pub fn run_closed_loop<Cx: ?Sized>(
    cx: &mut Cx,
    engine: &dyn RequestEngine,
    budgets: &[usize],
    think: impl Fn(usize, usize) -> u64,
    mut maintenance: Option<(&mut dyn Maintenance<Cx>, Option<usize>)>,
    mut op: impl FnMut(&mut Cx, &mut Turn<'_>) -> FsResult<()>,
) -> FsResult<LoopReport> {
    let clock = engine.clock();
    let start_ns = clock.now_ns();
    let mut next_ready: Vec<u64> = (0..budgets.len()).map(|c| start_ns + think(c, 0)).collect();
    let mut done = vec![0usize; budgets.len()];
    let mut settled_at_ns = start_ns;
    let total_ops: usize = budgets.iter().sum();
    let mut report = LoopReport {
        start_ns,
        latencies: Vec::with_capacity(total_ops),
        maintenance_steps: 0,
    };
    for _ in 0..total_ops {
        let c = (0..budgets.len())
            .filter(|&c| done[c] < budgets[c])
            .min_by_key(|&c| (next_ready[c], c))
            .expect("a client still has work");
        if let Some((task, client)) = &mut maintenance {
            let window = IdleWindow {
                engine,
                clock: &clock,
                client: *client,
                deadline_ns: next_ready[c],
                settled_at_ns: &mut settled_at_ns,
            };
            report.maintenance_steps += offer(&mut **task, cx, Some(window), u64::MAX)?;
        }
        clock.advance_to_ns(next_ready[c]);
        engine.pump()?;
        engine.set_client(Some(c));
        let mut turn = Turn {
            client: c,
            op: done[c],
            clock: &clock,
            start_ns: clock.now_ns(),
        };
        op(cx, &mut turn)?;
        let after_ns = clock.now_ns();
        report.latencies.push((c, after_ns - turn.start_ns));
        done[c] += 1;
        next_ready[c] = after_ns + think(c, done[c]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sim_disk::{DiskGeometry, SimDisk};

    use super::*;
    use crate::queue::{EngineConfig, EngineCore};

    /// What happened, in order: `('f', client, start_ns)` per foreground
    /// op, `('m', 0, start_ns)` per maintenance step.
    type Log = Vec<(char, usize, u64)>;

    /// A task that always wants a step until `remaining` runs out; each
    /// step costs `step_ns` of virtual time and (optionally) leaves a
    /// read in flight for `settle`.
    struct FakeTask {
        clock: Arc<Clock>,
        remaining: u64,
        step_ns: u64,
        settle: Option<u64>,
    }

    impl Maintenance<Log> for FakeTask {
        fn wants_step(&self, _log: &Log, _queue_depth: u64) -> bool {
            self.remaining > 0
        }
        fn step(&mut self, log: &mut Log) -> FsResult<Step> {
            if self.remaining == 0 {
                return Ok(Step::Idle);
            }
            log.push(('m', 0, self.clock.now_ns()));
            self.clock.advance_ns(self.step_ns);
            self.remaining -= 1;
            Ok(if self.remaining == 0 {
                Step::Completed
            } else {
                Step::Progress
            })
        }
        fn active(&self, _log: &Log) -> bool {
            self.remaining > 0
        }
        fn settle_ns(&self, _log: &Log) -> Option<u64> {
            self.settle
        }
    }

    /// Runs the loop on a fresh engine sharing `task`'s clock; every
    /// foreground op costs `op_ns`.
    fn run(
        budgets: &[usize],
        think: impl Fn(usize, usize) -> u64,
        mut task: FakeTask,
        op_ns: u64,
    ) -> (Log, LoopReport) {
        let clock = Arc::clone(&task.clock);
        let disk = SimDisk::new(DiskGeometry::tiny_test(1024), Arc::clone(&clock));
        let core = EngineCore::new(disk, EngineConfig::default()).into_shared();
        let mut log = Log::new();
        let report = run_closed_loop(
            &mut log,
            &core,
            budgets,
            think,
            Some((&mut task, None)),
            |log, turn| {
                log.push(('f', turn.client, clock.now_ns()));
                clock.advance_ns(op_ns);
                Ok(())
            },
        )
        .unwrap();
        (log, report)
    }

    fn task(remaining: u64, step_ns: u64, settle: Option<u64>) -> FakeTask {
        FakeTask {
            clock: Clock::new(),
            remaining,
            step_ns,
            settle,
        }
    }

    #[test]
    fn earliest_ready_client_goes_first_and_ties_go_to_the_lowest_id() {
        // Clients 0 and 1 tie at t=100; client 2 is ready at t=50.
        let think = |c: usize, _op: usize| if c == 2 { 50 } else { 100 };
        let (log, report) = run(&[1, 1, 1], think, task(0, 0, None), 10);
        assert_eq!(log, [('f', 2, 50), ('f', 0, 100), ('f', 1, 110)]);
        assert_eq!(report.latencies, [(2, 10), (0, 10), (1, 10)]);
        assert_eq!(report.start_ns, 0);
    }

    #[test]
    fn budgets_are_per_client_and_think_is_keyed_by_ops_done() {
        // Client 1 has three ops, client 0 one; think grows with the op
        // count, so the dispatch times spell out think(c, ops_done).
        let (log, _) = run(
            &[1, 3],
            |c, op| 10 * (c as u64 + 1) + op as u64,
            task(0, 0, None),
            0,
        );
        assert_eq!(
            log,
            [('f', 0, 10), ('f', 1, 20), ('f', 1, 41), ('f', 1, 63)]
        );
    }

    #[test]
    fn a_backlogged_foreground_yields_exactly_one_offer_per_dispatch() {
        // Zero think time: some client is always overdue, so there is
        // never idle time — the task still gets its one forced step.
        let (log, report) = run(&[3, 3], |_, _| 0, task(u64::MAX, 5, None), 7);
        let kinds: String = log.iter().map(|e| e.0).collect();
        assert_eq!(kinds, "mfmfmfmfmfmf");
        assert_eq!(report.maintenance_steps, 6);
    }

    #[test]
    fn idle_time_offers_stop_at_the_next_clients_ready_time() {
        // One client due every 100 ns, 30 ns steps: steps start at 0, 30,
        // 60 and 90 — never at or after the deadline — then the client
        // runs (late by the overrun of the last step, as on a real disk).
        let (log, report) = run(&[2], |_, _| 100, task(u64::MAX, 30, None), 0);
        assert_eq!(
            log[..6],
            [
                ('m', 0, 0),
                ('m', 0, 30),
                ('m', 0, 60),
                ('m', 0, 90),
                ('f', 0, 120),
                ('m', 0, 120)
            ]
        );
        let second_op = log.iter().rposition(|e| e.0 == 'f').unwrap();
        let (deadline, steps_before) = (220, &log[5..second_op]);
        assert!(steps_before.iter().all(|&(_, _, at)| at < deadline));
        assert_eq!(report.maintenance_steps as usize, log.len() - 2);
    }

    #[test]
    fn a_pending_read_settle_never_advances_the_clock_past_the_next_client() {
        // Each step leaves a read needing 250 ns; the client is due every
        // 100 ns. The settle wait uses idle time only: every foreground
        // op starts exactly on time, and no step is offered until the
        // read has had its 250 ns.
        let (log, _) = run(&[4], |_, _| 100, task(u64::MAX, 0, Some(250)), 0);
        assert_eq!(
            log,
            [
                ('m', 0, 0),
                ('f', 0, 100),
                ('f', 0, 200),
                ('m', 0, 250),
                ('f', 0, 300),
                ('f', 0, 400),
            ]
        );
    }

    #[test]
    fn a_bounded_burst_takes_at_most_max_steps_and_stops_when_declined() {
        let mut log = Log::new();
        let mut task = task(6, 1, None);
        assert_eq!(offer(&mut task, &mut log, None, 4).unwrap(), 4);
        assert_eq!(offer(&mut task, &mut log, None, 4).unwrap(), 2);
        assert_eq!(offer(&mut task, &mut log, None, 4).unwrap(), 0);
        assert_eq!(log.len(), 6);
    }

    #[test]
    fn drain_terminates() {
        let mut log = Log::new();
        let mut task = task(5, 1, None);
        assert_eq!(drain(&mut task, &mut log).unwrap(), 5);
        assert_eq!(drain(&mut task, &mut log).unwrap(), 0, "nothing active");

        // A task that claims to be active but makes no progress must not
        // spin the host forever.
        struct Stuck;
        impl Maintenance<Log> for Stuck {
            fn wants_step(&self, _: &Log, _: u64) -> bool {
                true
            }
            fn step(&mut self, _: &mut Log) -> FsResult<Step> {
                Ok(Step::Idle)
            }
            fn active(&self, _: &Log) -> bool {
                true
            }
        }
        assert_eq!(drain(&mut Stuck, &mut log).unwrap(), 0);
        assert_eq!(offer(&mut Stuck, &mut log, None, u64::MAX).unwrap(), 0);
    }
}
