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
/// * a candidate whose earliest possible finish, ready time plus duration,
///   already fails to beat the best finish so far is skipped before its
///   slot search: a slot never starts before the ready time, so it could
///   not win. Once the best candidate starts at its ready time, every
///   later processor that is no faster and offers no earlier ready time
///   ends here, at the cost of one comparison (on fig. 5 Stencil-1D and FFT at 64 nodes,
///   15 % and 21 % of all candidates);
/// * a remaining candidate on whose processor no gap can hold the task is
///   placed in `O(1)`, at `max(ready, tail)`, from two numbers kept per
///   processor in flat arrays: the latest finish `T` of its intervals
///   (its tail) and an upper bound `G` on its widest gap (from time 0 to
///   the first interval, and from each interval's running latest finish
///   to the next one's start). Recording an interval keeps `G` an upper
///   bound: inside the timeline the new interval splits a gap and only
///   narrows the gaps after it, and appended it adds one gap. The test is
///   `G + 2·10⁻¹⁵ + (T + d)·2⁻⁵⁰ < d` for a task of duration `d`. The walk
///   below fits the task in a gap opening at `r` before a start `s` only if
///   `fl(c + d) <= fl(s + ε)`, `ε = 10⁻¹⁵`, for a candidate `c >= r`
///   (`c = ready >= 0` before the first interval). With unit roundoff
///   `u = 2⁻⁵³`, `s − r <= G + uT` and `0 <= r, s <= T`, that needs
///   `d <= G + ε(1 + u) + u(3T + d)`, below the margin by more than the
///   rounding of the test itself, so a task the test passes fits no gap,
///   and the walk would have returned its end value, `max(ready, T)`.
///   The bound is off (`G = ∞`) once an interval that is not
///   `0 <= start <= finish < ∞` was recorded. On fig. 5 Stencil-1D and
///   FFT at 64 nodes, with their ≈ 50 ms tasks, every candidate the prune
///   leaves is placed this way;
/// * every other candidate's slot search finds the first busy interval
///   of its processor's timeline that ends after the ready time by
///   galloping back from the last interval (1, 2, 4, … from the end) and
///   binary-searching the bracket, then walks forward only over the gaps
///   too short for the task, so its cost is `O(log d + gaps after ready)`
///   for an interval `d` places from the end, not the length of the
///   timeline. Tasks arrive in rank order, which is close to time order, so
///   `d` is small and the walk is typically a step or two. Recording the
///   chosen slot shifts what follows it in one processor's sorted `Vec`, a
///   `memmove` that is short for the same reason.
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

/// The busy intervals of every processor, each processor's sorted by start
/// time, and per processor the two numbers that place a task fitting no
/// gap without looking at its intervals.
#[derive(Debug)]
struct Timelines {
    busy: Vec<Vec<Interval>>,
    /// Per processor, the latest finish of any of its intervals, 0 while it
    /// has none.
    tail: Vec<f64>,
    /// Per processor, an upper bound on its widest gap: from time 0 to its
    /// first interval, and from each interval's `reach` to the next
    /// interval's start. Infinite once an interval that is not
    /// `0 <= start <= finish < ∞` was recorded, which turns the bound off.
    widest_gap: Vec<f64>,
}

impl Timelines {
    fn new(procs: usize) -> Self {
        Self { busy: vec![Vec::new(); procs], tail: vec![0.0; procs], widest_gap: vec![0.0; procs] }
    }

    /// Earliest start on `proc` at or after `ready >= 0` of a task of
    /// `duration` seconds (insertion policy).
    fn earliest_slot(&self, proc: usize, ready: f64, duration: f64) -> f64 {
        // No gap holds the task, so it goes after everything (see the
        // "Complexity" section of [`HeftScheduler`] for the margin).
        let tail = self.tail[proc];
        let margin = 2e-15 + (tail + duration) * SLOT_MARGIN_ULPS;
        if self.widest_gap[proc] + margin < duration {
            return ready.max(tail);
        }
        Self::search(&self.busy[proc], ready, duration)
    }

    /// The insertion policy over the intervals `busy` of one processor.
    fn search(busy: &[Interval], ready: f64, duration: f64) -> f64 {
        // Intervals that end by `ready` can neither delay the task nor
        // bound a gap it could use before a later interval would. Tasks
        // arrive close to time order, so the first one that does is near
        // the end: gallop back from the last interval (n−1, n−2, n−4, …)
        // to bracket it, then binary-search inside the bracket.
        let ended = |iv: &Interval| iv.reach <= ready;
        let (mut lo, mut hi) = (0, busy.len());
        let mut step = 1;
        while step <= busy.len() {
            let probe = busy.len() - step;
            if ended(&busy[probe]) {
                lo = probe + 1;
                break;
            }
            hi = probe;
            step *= 2;
        }
        let first = lo + busy[lo..hi].partition_point(ended);
        Self::first_fit(&busy[first..], ready, duration)
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

    /// Record `[start, finish]` as busy on `proc`, after any interval with
    /// the same start.
    fn insert(&mut self, proc: usize, start: f64, finish: f64) {
        let busy = &mut self.busy[proc];
        let pos = busy.partition_point(|iv| iv.start <= start);
        let before = pos.checked_sub(1).map(|prev| busy[prev].reach);
        let reach = before.map_or(finish, |before| finish.max(before));
        busy.insert(pos, Interval { start, finish, reach });
        for iv in &mut busy[pos + 1..] {
            if iv.reach >= reach {
                break;
            }
            iv.reach = reach;
        }
        // The gap the interval opens behind what precedes it. Inside the
        // timeline it splits a gap at most this wide into two narrower
        // ones and the `reach` it raises only narrows later gaps, so the
        // bound never grows there; appended, it adds this one gap.
        let gap = start - before.unwrap_or(0.0);
        let widest = &mut self.widest_gap[proc];
        *widest = if 0.0 <= start && start <= finish && finish < f64::INFINITY {
            widest.max(gap)
        } else {
            f64::INFINITY
        };
        self.tail[proc] = self.tail[proc].max(finish);
    }
}

/// The relative part of the slot margin, `2^-50`: eight units of f64
/// rounding (see the "Complexity" section of [`HeftScheduler`]).
const SLOT_MARGIN_ULPS: f64 = 1.0 / (1u64 << 50) as f64;

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
    /// already placed there. Zero entries reserve nothing, which keeps
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
        let mut timelines = Timelines::new(procs);
        for (p, &reserved) in load.iter().enumerate().take(procs) {
            if reserved > 0.0 {
                timelines.insert(p, 0.0, reserved);
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
                // A slot never starts before `ready` and f64 addition is
                // monotone, so a processor whose earliest possible finish
                // already loses the strict test below cannot win: skip
                // its slot search.
                if best.is_some_and(|(bf, _, _)| ready + duration >= bf - 1e-15) {
                    continue;
                }
                let start = timelines.earliest_slot(p, ready, duration);
                let finish = start + duration;
                if best.is_none_or(|(bf, _, _)| finish < bf - 1e-15) {
                    best = Some((finish, start, p));
                }
            }
            let (finish, start, proc) = best.expect("at least one candidate processor");
            placements[t] = Placement { proc, start, finish };
            timelines.insert(proc, start, finish);
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
    fn slot_by_full_walk(timeline: &Timelines, ready: f64, duration: f64) -> f64 {
        Timelines::first_fit(&timeline.busy[0], ready, duration)
    }

    fn assert_slot(timeline: &Timelines, ready: f64, duration: f64) {
        assert_eq!(
            timeline.earliest_slot(0, ready, duration),
            slot_by_full_walk(timeline, ready, duration),
            "ready {ready}, duration {duration} on {:?}",
            timeline.busy[0]
        );
    }

    /// The widest gap of the one timeline, computed as the bound defines
    /// it, and the time each gap opens at.
    fn gaps(timeline: &Timelines) -> (f64, Vec<f64>) {
        let mut opens = Vec::new();
        let mut widest = 0.0f64;
        let mut before = 0.0;
        for iv in &timeline.busy[0] {
            widest = widest.max(iv.start - before);
            opens.push(before);
            before = iv.reach;
        }
        (widest, opens)
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
        let mut timeline = Timelines::new(1);
        for (ready, duration) in requests {
            let start = timeline.earliest_slot(0, ready, duration);
            assert_eq!(start, slot_by_full_walk(&timeline, ready, duration));
            timeline.insert(0, start, start + duration);
            let busy = &timeline.busy[0];
            assert!(busy.windows(2).all(|w| w[0].start <= w[1].start));
            assert!(busy.windows(2).all(|w| w[0].reach <= w[1].reach));
            for probe in [0.0, 1.0, one_ulp_past_1, 1.5, 2.0, 6.0, 7.0, 12.0] {
                for d in [0.0, 0.25, 1.0, 6.0] {
                    assert_slot(&timeline, probe, d);
                }
            }
        }
        let finishes: Vec<f64> = timeline.busy[0].iter().map(|iv| iv.finish).collect();
        assert!(finishes.windows(2).any(|w| w[0] > w[1]), "the case under test: {finishes:?}");
    }

    /// Random timelines built the way HEFT builds them, on time scales from
    /// the tolerance's to the fig. 5 runs', probed with tasks as wide as the
    /// widest gap, one ulp and one tolerance either side of it, from where
    /// each gap opens: the slot without a search must be the walk's.
    #[test]
    fn the_slot_a_gap_bound_decides_is_the_full_walks_on_random_timelines() {
        let (mut decided, mut probes) = (0usize, 0usize);
        for seed in 0..200u64 {
            let mut rng = ompc_testutil::Rng::new(seed);
            let scale = [1.0, 0.05, 1e-13, 1e3][seed as usize % 4];
            let draw = |rng: &mut ompc_testutil::Rng| rng.range(0, 1 << 12) as f64 / 256.0;
            let mut timeline = Timelines::new(1);
            if rng.range(0, 3) == 0 {
                timeline.insert(0, 0.0, draw(&mut rng) * scale);
            }
            for _ in 0..rng.range_usize(1, 30) {
                let ready = draw(&mut rng) * scale;
                let duration = match rng.range(0, 4) {
                    0 => 0.0,
                    _ => draw(&mut rng) * scale / 4.0,
                };
                let start = timeline.earliest_slot(0, ready, duration);
                assert_eq!(start, slot_by_full_walk(&timeline, ready, duration));
                timeline.insert(0, start, start + duration);

                let (widest, opens) = gaps(&timeline);
                let bound = timeline.widest_gap[0];
                assert!(bound >= widest, "bound {bound} below the widest gap {widest}");
                let up = |x: f64| f64::from_bits(x.to_bits() + 1);
                let down = |x: f64| if x > 0.0 { f64::from_bits(x.to_bits() - 1) } else { x };
                let mut durations = Vec::new();
                for g in [widest, bound] {
                    durations.extend([g, up(g), down(g), g + 1e-15, (g - 1e-15).max(0.0)]);
                    durations.extend([up(g + 1e-15), g + 2e-15, g * 1.5]);
                }
                let mut readies = opens.clone();
                readies.extend([0.0, ready, timeline.tail[0], draw(&mut rng) * scale]);
                for &d in &durations {
                    for &r in &readies {
                        let tail = timeline.tail[0];
                        decided += usize::from(bound + 2e-15 + (tail + d) * SLOT_MARGIN_ULPS < d);
                        probes += 1;
                        assert_slot(&timeline, r, d);
                    }
                }
            }
        }
        assert!(decided * 20 > probes, "the bound decided {decided} of {probes} probes");
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
