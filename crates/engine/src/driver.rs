//! The one host loop and the one maintenance offer rule.
//!
//! Every multi-client workload in the workspace is [`run_schedule`]
//! over a [`Schedule`]: a trace replay hands it the trace's dependency
//! graph, a closed-loop driver the program-order-only
//! [`Schedule::closed_loop`], and either may pass a [`Maintenance`] task
//! (the LFS cleaner, a volume rebuild) to interleave — §4.3.4's "clean
//! during idle periods", as a parameter.
//!
//! The offer rule — ask the task whether it wants a step at the current
//! queue depth, step it, give an in-flight read time to settle — lives
//! in [`offer`] alone; hosts without a client loop (the crash sweep's
//! per-op hook, `lfs-tools rebuild`) call it or [`drain`] directly.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sim_disk::{Clock, DiskResult};
use vfs::FsResult;

use crate::qos::{FairShare, QosSpec};

/// What a host loop needs from a request engine: the shared clock, lazy
/// background progress, and client attribution.
///
/// Implemented by a shared [`EngineCore`](crate::EngineCore) (one
/// spindle) and by multi-spindle volumes that fan each call out to every
/// spindle, so the same loop drives both.
pub trait RequestEngine {
    /// The shared virtual clock.
    fn clock(&self) -> Arc<Clock>;
    /// Lazily services queued requests whose start time has passed.
    fn pump(&self) -> DiskResult<()>;
    /// Attributes subsequent submissions to `client` (`None` = system
    /// work such as format or setup).
    fn set_client(&self, client: Option<usize>);
    /// Creates per-client queue-wait counters for clients `0..n`.
    fn register_clients(&self, n: usize);
    /// Total requests currently pending across the engine's queues — the
    /// idle signal for idle-gated maintenance such as async cleaning.
    fn queue_depth(&self) -> u64;
    /// Installs (or clears) a per-client QoS spec on every queue the
    /// engine schedules.
    fn set_qos(&self, spec: Option<QosSpec>);
}

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

/// The records a host loop dispatches, in tie-break order, and the
/// incremental set of those available. A record belongs to a client,
/// waits for its predecessors — explicit edges plus program order
/// within its client — and is ready `think_ns` after the last of them
/// finished (after the loop started, if it has none). So a client has at
/// most one available record, and a dispatch costs the client count.
#[derive(Debug)]
pub struct Schedule {
    client: Vec<usize>,
    think_ns: Vec<u64>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    /// Unfinished-predecessor count.
    indegree: Vec<usize>,
    /// Records with no unfinished predecessor that have not completed,
    /// kept in step by [`Schedule::complete`]; empty once all have.
    ready: BTreeSet<usize>,
}

impl Schedule {
    /// A schedule of `(client, think_ns, explicit predecessors)` records,
    /// in the order ties are broken. Predecessors are record positions;
    /// the loop needs the graph acyclic ([`Schedule::levels`]).
    pub fn new(records: impl IntoIterator<Item = (usize, u64, Vec<usize>)>) -> Schedule {
        let (mut client, mut think_ns, mut preds) = (Vec::new(), Vec::new(), Vec::new());
        let mut last_of_client = BTreeMap::new();
        for (i, (c, think, mut deps)) in records.into_iter().enumerate() {
            if let Some(prev) = last_of_client.insert(c, i) {
                if !deps.contains(&prev) {
                    deps.push(prev);
                }
            }
            client.push(c);
            think_ns.push(think);
            preds.push(deps);
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); preds.len()];
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p].push(i);
            }
        }
        let indegree: Vec<usize> = preds.iter().map(Vec::len).collect();
        let ready = (0..preds.len()).filter(|&i| indegree[i] == 0).collect();
        Schedule {
            client,
            think_ns,
            preds,
            succs,
            indegree,
            ready,
        }
    }

    /// The closed loop: `budgets[c]` operations of client `c`, the
    /// `op`-th ready `think(c, op)` after the previous one finished, laid
    /// out client-major so ties go to the lowest client id.
    pub fn closed_loop(budgets: &[usize], think: impl Fn(usize, usize) -> u64) -> Schedule {
        Schedule::new(
            budgets
                .iter()
                .enumerate()
                .flat_map(|(c, &n)| (0..n).map(move |op| (c, op)))
                .map(|(c, op)| (c, think(c, op), Vec::new())),
        )
    }

    /// Kahn's peel of the graph, on a copy of the counts: hands `level`
    /// each maximal parallel process set of a fresh run in order,
    /// ascending, and returns the first record a dependency cycle keeps
    /// from ever becoming available, if there is one.
    pub fn levels(&self, mut level: impl FnMut(&[usize])) -> Option<usize> {
        let mut degree = self.indegree.clone();
        let mut order: Vec<usize> = self.ready.iter().copied().collect();
        let mut start = 0;
        while start < order.len() {
            let end = order.len();
            order[start..end].sort_unstable();
            level(&order[start..end]);
            for k in start..end {
                for &s in &self.succs[order[k]] {
                    degree[s] -= 1;
                    if degree[s] == 0 {
                        order.push(s);
                    }
                }
            }
            start = end;
        }
        degree.iter().position(|&d| d > 0)
    }

    /// Predecessors of record `i`: explicit edges, then program order.
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Records whose predecessors have all completed and that have not
    /// themselves completed — the current maximal parallel process set,
    /// in ascending position.
    pub fn available_set(&self) -> Vec<usize> {
        self.ready.iter().copied().collect()
    }

    /// Marks available record `i` complete, unblocking its successors.
    pub fn complete(&mut self, i: usize) {
        let was_available = self.ready.remove(&i);
        debug_assert!(was_available, "completing a blocked or completed record");
        for &s in &self.succs[i] {
            self.indegree[s] -= 1;
            if self.indegree[s] == 0 {
                self.ready.insert(s);
            }
        }
    }
}

/// Op-level aging bound of the QoS pick: a ready record that has waited
/// this long is dispatched next regardless of its tenant's share.
const MAX_OP_WAIT_NS: u64 = 50_000_000;

/// The dispatched record's turn, handed to the operation closure.
pub struct Turn<'a> {
    /// The record's client.
    pub client: usize,
    /// How many operations this client has already completed.
    pub op: usize,
    /// The record's position in the schedule.
    pub record: usize,
    clock: &'a Clock,
    start_ns: u64,
}

impl Turn<'_> {
    /// Restarts the timed window at the current virtual time, leaving
    /// out whatever the operation did so far (an untimed prelude).
    pub fn restart(&mut self) {
        self.start_ns = self.clock.now_ns();
    }

    /// Virtual time since the timed window opened; at the end of the
    /// operation, its latency.
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns() - self.start_ns
    }
}

/// Picks from `candidates` (`(ready_ns, position)`, by position) at
/// `now_ns`: earliest ready first, ties to the lowest position. With a
/// QoS ledger, the record (one per client) of the tenant it picks among
/// those ready by then (or, if none is, at the earliest ready time) —
/// unless the oldest has waited [`MAX_OP_WAIT_NS`].
fn pick(
    candidates: &[(u64, usize)],
    now_ns: u64,
    fair: Option<&mut FairShare>,
    client: &[usize],
) -> (u64, usize) {
    let oldest = *candidates.iter().min().expect("a record is available");
    let now = now_ns.max(oldest.0);
    match fair {
        Some(fair) if now - oldest.0 < MAX_OP_WAIT_NS => {
            let mut eligible = candidates.iter().filter(|&&(ready, _)| ready <= now);
            let tenant = fair
                .pick(eligible.clone().map(|&(_, i)| client[i]))
                .expect("the oldest record is eligible");
            *eligible
                .find(|&&(_, i)| client[i] == tenant)
                .expect("the picked tenant has an eligible record")
        }
        _ => oldest,
    }
}

/// Runs every record of the (acyclic) `schedule`. Each dispatch picks
/// a record (with `fair`, the QoS pick, charged its latency), [`offer`]s
/// `maintenance` the idle time until the record is ready (its I/O
/// submitted as the paired client id), advances the clock to the ready
/// time, pumps the engine, attributes submissions to the record's
/// client, and runs and times `op`. Think time does not advance the
/// clock, so clients overlap. Returns the maintenance steps taken.
///
/// The first failed pump, maintenance step or operation ends the loop
/// and is returned; a caller for which an operation's failure is an
/// outcome (trace replay counts them) handles it inside `op`.
pub fn run_schedule<Cx: ?Sized>(
    cx: &mut Cx,
    engine: &dyn RequestEngine,
    schedule: &mut Schedule,
    mut fair: Option<FairShare>,
    mut maintenance: Option<(&mut dyn Maintenance<Cx>, Option<usize>)>,
    mut op: impl FnMut(&mut Cx, &mut Turn<'_>) -> FsResult<()>,
) -> FsResult<u64> {
    let clock = engine.clock();
    let start_ns = clock.now_ns();
    let mut finish_ns = vec![0; schedule.client.len()];
    let mut done = vec![0usize; schedule.client.iter().max().map_or(0, |&c| c + 1)];
    let mut settled_at_ns = start_ns;
    let mut steps = 0;
    let mut candidates = Vec::new();
    while !schedule.ready.is_empty() {
        candidates.clear();
        candidates.extend(schedule.ready.iter().map(|&i| {
            let horizon = schedule.preds[i].iter().map(|&p| finish_ns[p]).max();
            (horizon.unwrap_or(start_ns) + schedule.think_ns[i], i)
        }));
        let (ready_ns, i) = pick(&candidates, clock.now_ns(), fair.as_mut(), &schedule.client);
        if let Some((task, client)) = &mut maintenance {
            let window = IdleWindow {
                engine,
                clock: &clock,
                client: *client,
                deadline_ns: ready_ns,
                settled_at_ns: &mut settled_at_ns,
            };
            steps += offer(&mut **task, cx, Some(window), u64::MAX)?;
        }
        clock.advance_to_ns(ready_ns);
        engine.pump()?;
        let c = schedule.client[i];
        engine.set_client(Some(c));
        let mut turn = Turn {
            client: c,
            op: done[c],
            record: i,
            clock: &clock,
            start_ns: clock.now_ns(),
        };
        op(cx, &mut turn)?;
        if let Some(fair) = fair.as_mut() {
            // Floored so zero-cost cached operations still use share.
            fair.charge(c, turn.elapsed_ns().max(1_000));
        }
        finish_ns[i] = clock.now_ns();
        done[c] += 1;
        schedule.complete(i);
    }
    Ok(steps)
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

    /// What [`run`] measured besides the log.
    struct Ran {
        /// `(client, latency_ns)` of every operation, in dispatch order.
        latencies: Vec<(usize, u64)>,
        maintenance_steps: u64,
    }

    /// Runs the closed-loop schedule on a fresh engine sharing `task`'s
    /// clock; every foreground op costs `op_ns`.
    fn run(
        budgets: &[usize],
        think: impl Fn(usize, usize) -> u64,
        mut task: FakeTask,
        op_ns: u64,
    ) -> (Log, Ran) {
        let clock = Arc::clone(&task.clock);
        let disk = SimDisk::new(DiskGeometry::tiny_test(1024), Arc::clone(&clock));
        let core = EngineCore::new(disk, EngineConfig::default()).into_shared();
        let mut log = Log::new();
        let mut latencies = Vec::new();
        let maintenance_steps = run_schedule(
            &mut log,
            &core,
            &mut Schedule::closed_loop(budgets, think),
            None,
            Some((&mut task, None)),
            |log, turn| {
                log.push(('f', turn.client, clock.now_ns()));
                clock.advance_ns(op_ns);
                latencies.push((turn.client, turn.elapsed_ns()));
                Ok(())
            },
        )
        .unwrap();
        (
            log,
            Ran {
                latencies,
                maintenance_steps,
            },
        )
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
