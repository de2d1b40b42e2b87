//! Heterogeneous Earliest Finish Time (HEFT) with the insertion-based
//! policy, as adopted by the OMPC runtime (paper §4.4, Topcuoglu et al.).

use crate::graph::TaskGraph;
use crate::platform::Platform;
use crate::schedule::{Placement, Schedule};
use crate::Scheduler;

/// The HEFT scheduler.
///
/// * Phase 1 computes the *upward rank* of every task: its mean compute time
///   plus the maximum over its successors of mean edge communication time
///   plus the successor's rank.
/// * Phase 2 walks tasks in decreasing rank order and places each one on the
///   processor that minimizes its earliest finish time, allowed to slot into
///   idle gaps left by earlier placements (the insertion policy).
///
/// # Complexity
///
/// `O(e + n·p + n·log n)` plus the insertion policy's gap walk, for `n`
/// tasks, `e` edges and `p` processors — within the `O(e × p)` the paper
/// quotes when arguing the scheduling overhead is small:
///
/// * ranks read each edge once, with its weight, from the graph's weighted
///   adjacency ([`TaskGraph::out_edges`]); sorting them is `O(n log n)`;
/// * placing a task reads its predecessors a constant number of times
///   (`O(deg)`): a task's ready time is the same on every processor that
///   hosts none of its predecessors, and differs on a host only by dropping
///   that host's own transfers, so the `p` candidates each cost `O(1)`;
/// * each candidate's slot search binary-searches its processor's timeline
///   to the first busy interval that ends after the ready time and walks
///   forward only over the gaps too short for the task, so its cost is
///   `O(log n + gaps after ready)`, not the length of the timeline. Tasks
///   arrive in rank order, which is close to time order, so that walk is
///   typically a step or two. Recording the chosen slot shifts what follows
///   it in one processor's sorted `Vec`, a `memmove` that is short for the
///   same reason.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeftScheduler;

/// A busy interval on a processor's timeline.
#[derive(Debug, Clone, Copy)]
struct Interval {
    start: f64,
    finish: f64,
    /// Latest finish among this interval and every one before it. Finish
    /// times alone are not sorted (a zero-length task may sit at the start
    /// of a long one), this running maximum is, so it can be searched.
    reach: f64,
}

/// The busy intervals of one processor, sorted by start time.
#[derive(Debug, Clone, Default)]
struct Timeline {
    busy: Vec<Interval>,
}

impl Timeline {
    /// Earliest start at or after `ready` of a task of `duration` seconds
    /// (insertion policy).
    fn earliest_slot(&self, ready: f64, duration: f64) -> f64 {
        // Intervals that end by `ready` can neither delay the task nor
        // bound a gap it could use before a later interval would.
        let first = self.busy.partition_point(|iv| iv.reach <= ready);
        Self::first_fit(&self.busy[first..], ready, duration)
    }

    /// The insertion policy itself: the first gap between consecutive
    /// intervals of `busy` (or the time after the last) that holds the task.
    fn first_fit(busy: &[Interval], ready: f64, duration: f64) -> f64 {
        let mut candidate = ready;
        for iv in busy {
            if candidate + duration <= iv.start + 1e-15 {
                return candidate;
            }
            candidate = candidate.max(iv.finish);
        }
        candidate
    }

    /// Record `[start, finish]` as busy, after any interval with the same
    /// start.
    fn insert(&mut self, start: f64, finish: f64) {
        let pos = self.busy.partition_point(|iv| iv.start <= start);
        let reach = match pos.checked_sub(1) {
            Some(prev) => finish.max(self.busy[prev].reach),
            None => finish,
        };
        self.busy.insert(pos, Interval { start, finish, reach });
        for iv in &mut self.busy[pos + 1..] {
            if iv.reach >= reach {
                break;
            }
            iv.reach = reach;
        }
    }
}

impl HeftScheduler {
    /// Create a HEFT scheduler.
    pub fn new() -> Self {
        Self
    }

    /// Compute the upward rank of every task.
    pub fn upward_ranks(graph: &TaskGraph, platform: &Platform) -> Vec<f64> {
        let order = graph.topological_order().expect("HEFT requires an acyclic task graph");
        let mut rank = vec![0.0f64; graph.len()];
        for &t in order.iter().rev() {
            let mut succ_term: f64 = 0.0;
            for (s, bytes) in graph.out_edges(t) {
                succ_term = succ_term.max(platform.mean_comm_time(bytes) + rank[s]);
            }
            rank[t] = platform.mean_compute_time(graph.tasks()[t].cost) + succ_term;
        }
        rank
    }
}

impl Scheduler for HeftScheduler {
    fn schedule(&self, graph: &TaskGraph, platform: &Platform) -> Schedule {
        self.schedule_with_load(graph, platform, &[])
    }

    /// HEFT over a platform carrying in-flight load: each processor's
    /// reserved seconds become a synthetic busy interval `[0, load[p]]`, so
    /// the insertion policy places new tasks after (never inside) the work
    /// already admitted there. Zero entries reserve nothing, which keeps
    /// the produced schedule bit-identical to [`Scheduler::schedule`] when
    /// no region is in flight.
    fn schedule_with_load(&self, graph: &TaskGraph, platform: &Platform, load: &[f64]) -> Schedule {
        if graph.is_empty() {
            return Schedule::new(Vec::new());
        }
        let procs = platform.num_procs();
        let ranks = Self::upward_ranks(graph, platform);
        let mut order: Vec<usize> = (0..graph.len()).collect();
        // `total_cmp`: a non-finite cost hint must not panic the planner.
        order.sort_by(|&a, &b| ranks[b].total_cmp(&ranks[a]).then(a.cmp(&b)));

        let mut placements = vec![Placement { proc: 0, start: 0.0, finish: 0.0 }; graph.len()];
        let mut timelines = vec![Timeline::default(); procs];
        for (timeline, &reserved) in timelines.iter_mut().zip(load) {
            if reserved > 0.0 {
                timeline.insert(0.0, reserved);
            }
        }
        // Scratch, reset after each task: the latest finish among the
        // task's predecessors placed on each processor.
        let mut local_ready = vec![f64::NEG_INFINITY; procs];

        for &t in &order {
            let task = &graph.tasks()[t];
            // Predecessors rank higher, so all of them are placed by now.
            // When the inputs are all in if every one of them crosses the
            // interconnect, and the processor the last of them comes from.
            let mut remote_ready = 0.0f64;
            let mut latest_sender = usize::MAX;
            for (pred, bytes) in graph.in_edges(t) {
                let pp = placements[pred];
                let arrival = pp.finish + platform.remote_comm_time(bytes);
                if arrival > remote_ready {
                    remote_ready = arrival;
                    latest_sender = pp.proc;
                }
            }
            // The same without what `latest_sender` sends, which is the
            // remote part of the ready time on `latest_sender` itself; on
            // every other processor it is `remote_ready`, since the arrival
            // that sets it stays remote there.
            let mut ready_without_sender = 0.0f64;
            for (pred, bytes) in graph.in_edges(t) {
                let pp = placements[pred];
                local_ready[pp.proc] = local_ready[pp.proc].max(pp.finish);
                if pp.proc != latest_sender {
                    let arrival = pp.finish + platform.remote_comm_time(bytes);
                    ready_without_sender = ready_without_sender.max(arrival);
                }
            }

            let candidates = match task.pinned {
                Some(p) => p..p + 1,
                None => 0..procs,
            };
            let mut best: Option<(f64, f64, usize)> = None; // (finish, start, proc)
            for p in candidates {
                let remote = if p == latest_sender { ready_without_sender } else { remote_ready };
                let ready = remote.max(local_ready[p]);
                let duration = platform.compute_time(task.cost, p);
                let start = timelines[p].earliest_slot(ready, duration);
                let finish = start + duration;
                if best.is_none_or(|(bf, _, _)| finish < bf - 1e-15) {
                    best = Some((finish, start, p));
                }
            }
            let (finish, start, proc) = best.expect("at least one candidate processor");
            placements[t] = Placement { proc, start, finish };
            timelines[proc].insert(start, finish);
            for &pred in graph.predecessors(t) {
                local_ready[placements[pred].proc] = f64::NEG_INFINITY;
            }
        }
        Schedule::new(placements)
    }

    fn name(&self) -> &'static str {
        "heft"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The insertion policy applied to the whole timeline, no search.
    fn slot_by_full_walk(timeline: &Timeline, ready: f64, duration: f64) -> f64 {
        Timeline::first_fit(&timeline.busy, ready, duration)
    }

    #[test]
    fn searched_slot_equals_the_full_walk_where_finish_times_are_not_sorted() {
        let one_ulp_past_1 = 1.0 + f64::EPSILON;
        // (ready, duration) requests, placed as HEFT places them. They build
        // an interval that the 1e-15 tolerance lets end one ulp past a
        // zero-length task already at 1.0 (whose `reach` must rise with
        // it), and a long interval with zero-length tasks at its start.
        let requests = [
            (1.0, 0.0),
            (0.0, one_ulp_past_1),
            (2.0, 4.0),
            (2.0, 0.0),
            (2.0, 0.0),
            (1.0, 0.5),
            (0.0, 0.25),
            (6.0, 0.0),
            (9.0, 1.0),
            (0.0, 3.0),
            (6.0, 2.5),
        ];
        let mut timeline = Timeline::default();
        for (ready, duration) in requests {
            let start = timeline.earliest_slot(ready, duration);
            assert_eq!(start, slot_by_full_walk(&timeline, ready, duration));
            timeline.insert(start, start + duration);
            assert!(timeline.busy.windows(2).all(|w| w[0].start <= w[1].start));
            assert!(timeline.busy.windows(2).all(|w| w[0].reach <= w[1].reach));
            for probe in [0.0, 1.0, one_ulp_past_1, 1.5, 2.0, 6.0, 7.0, 12.0] {
                for d in [0.0, 0.25, 1.0, 6.0] {
                    assert_eq!(
                        timeline.earliest_slot(probe, d),
                        slot_by_full_walk(&timeline, probe, d),
                        "ready {probe}, duration {d} on {:?}",
                        timeline.busy
                    );
                }
            }
        }
        let finishes: Vec<f64> = timeline.busy.iter().map(|iv| iv.finish).collect();
        assert!(finishes.windows(2).any(|w| w[0] > w[1]), "the case under test: {finishes:?}");
    }

    /// The 10-task graph from the original HEFT paper, with uniform
    /// (homogeneous) compute costs equal to the mean costs of the paper's
    /// table, to sanity-check rank ordering.
    fn fork_join(width: usize, cost: f64, bytes: u64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let src = g.add_task(cost);
        let sink_cost = cost;
        let mut mids = Vec::new();
        for _ in 0..width {
            let m = g.add_task(cost);
            g.add_edge(src, m, bytes);
            mids.push(m);
        }
        let sink = g.add_task(sink_cost);
        for m in mids {
            g.add_edge(m, sink, bytes);
        }
        g
    }

    #[test]
    fn ranks_decrease_along_edges() {
        let g = fork_join(4, 1.0, 1_000_000);
        let p = Platform::homogeneous(4, 1e-5, 1e9);
        let ranks = HeftScheduler::upward_ranks(&g, &p);
        for e in g.edges() {
            assert!(ranks[e.from] > ranks[e.to]);
        }
    }

    #[test]
    fn schedule_is_valid_and_uses_parallelism() {
        let g = fork_join(8, 1.0, 1_000);
        let p = Platform::homogeneous(4, 1e-5, 1e9);
        let s = HeftScheduler::new().schedule(&g, &p);
        s.validate(&g, &p).expect("HEFT schedule must be valid");
        // With negligible communication the 8 middle tasks should spread
        // over all 4 processors.
        assert_eq!(s.procs_used(), 4);
        // Makespan must beat the sequential execution.
        assert!(s.makespan() < g.total_cost());
    }

    #[test]
    fn heavy_communication_collapses_to_one_processor() {
        // Communication so expensive that spreading is never worth it.
        let g = fork_join(4, 0.01, 10_000_000_000);
        let p = Platform::homogeneous(4, 0.01, 1e9);
        let s = HeftScheduler::new().schedule(&g, &p);
        s.validate(&g, &p).unwrap();
        assert_eq!(s.procs_used(), 1);
        assert!((s.makespan() - g.total_cost()).abs() < 1e-9);
    }

    #[test]
    fn pinned_tasks_stay_pinned() {
        let mut g = fork_join(3, 1.0, 0);
        let pinned = g.add_task_full(0.5, Some(2), "host-task".to_string());
        g.add_edge(0, pinned, 0);
        let p = Platform::homogeneous(4, 1e-6, 1e9);
        let s = HeftScheduler::new().schedule(&g, &p);
        s.validate(&g, &p).unwrap();
        assert_eq!(s.proc_of(pinned), 2);
    }

    #[test]
    fn insertion_policy_uses_gaps() {
        // Processor timeline: long task then a dependent; a short
        // independent task should slot into the idle gap on another
        // processor or before the dependent, never delay the makespan.
        let mut g = TaskGraph::new();
        let a = g.add_task(5.0);
        let b = g.add_task(5.0);
        g.add_edge(a, b, 0);
        let small = g.add_task(1.0);
        let _ = small;
        let p = Platform::homogeneous(1, 1e-6, 1e9);
        let s = HeftScheduler::new().schedule(&g, &p);
        s.validate(&g, &p).unwrap();
        assert!((s.makespan() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn zero_load_schedule_is_identical_and_reserved_load_defers_placement() {
        let g = fork_join(4, 1.0, 1_000);
        let p = Platform::homogeneous(2, 1e-5, 1e9);
        let heft = HeftScheduler::new();
        let base = heft.schedule(&g, &p);
        let zero = heft.schedule_with_load(&g, &p, &[0.0, 0.0]);
        assert_eq!(base, zero, "an all-zero load snapshot must not change the schedule");

        // Processor 0 carries 10 s of in-flight work: nothing new may start
        // there before it drains, so the whole graph lands on processor 1.
        let loaded = heft.schedule_with_load(&g, &p, &[10.0, 0.0]);
        loaded.validate(&g, &p).unwrap();
        for t in 0..g.len() {
            if loaded.proc_of(t) == 0 {
                assert!(
                    loaded.placement(t).start >= 10.0 - 1e-9,
                    "task {t} was slotted inside processor 0's reserved load"
                );
            }
        }
        assert!(loaded.makespan() <= base.makespan() + 10.0 + 1e-9);
    }

    #[test]
    fn empty_graph_gives_empty_schedule() {
        let g = TaskGraph::new();
        let p = Platform::homogeneous(2, 1e-6, 1e9);
        let s = HeftScheduler::new().schedule(&g, &p);
        assert!(s.is_empty());
        assert_eq!(s.makespan(), 0.0);
    }

    #[test]
    fn heterogeneous_platform_prefers_fast_processor_for_critical_path() {
        let mut g = TaskGraph::new();
        let a = g.add_task(4.0);
        let b = g.add_task(4.0);
        g.add_edge(a, b, 0);
        let p = Platform { speeds: vec![1.0, 4.0], latency: 0.0, bandwidth: 1e12 };
        let s = HeftScheduler::new().schedule(&g, &p);
        s.validate(&g, &p).unwrap();
        assert_eq!(s.proc_of(a), 1);
        assert_eq!(s.proc_of(b), 1);
        assert!((s.makespan() - 2.0).abs() < 1e-9);
    }
}
