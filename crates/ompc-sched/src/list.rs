//! Simpler list schedulers used as baselines and in ablation studies.

use crate::graph::TaskGraph;
use crate::platform::Platform;
use crate::schedule::{Placement, Schedule};
use crate::Scheduler;

/// Shared helper: append `task` to `proc`'s timeline, respecting dependence
/// ready times and processor availability, and record the placement.
fn place_append(
    graph: &TaskGraph,
    platform: &Platform,
    placements: &mut [Placement],
    avail: &mut [f64],
    task: usize,
    proc: usize,
) {
    let start = ready_time(graph, platform, placements, task, proc).max(avail[proc]);
    let finish = start + platform.compute_time(graph.tasks()[task].cost, proc);
    placements[task] = Placement { proc, start, finish };
    avail[proc] = finish;
}

/// Ready time of `task` on `proc` assuming all predecessors are placed.
fn ready_time(
    graph: &TaskGraph,
    platform: &Platform,
    placements: &[Placement],
    task: usize,
    proc: usize,
) -> f64 {
    let mut ready = 0.0f64;
    for (pred, bytes) in graph.in_edges(task) {
        let pp = placements[pred];
        ready = ready.max(pp.finish + platform.comm_time(bytes, pp.proc, proc));
    }
    ready
}

/// Round-robin placement in topological order; completely communication
/// oblivious. The weakest reasonable baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinScheduler;

impl RoundRobinScheduler {
    /// Create a round-robin scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for RoundRobinScheduler {
    /// # Panics
    ///
    /// If `graph` has a cycle.
    fn schedule(&self, graph: &TaskGraph, platform: &Platform) -> Schedule {
        let order = graph.topological_order().expect("scheduling requires a DAG");
        let mut placements = vec![Placement { proc: 0, start: 0.0, finish: 0.0 }; graph.len()];
        let mut avail = vec![0.0f64; platform.num_procs()];
        let mut next = 0usize;
        for &t in &order {
            let proc = match graph.tasks()[t].pinned {
                Some(p) => p,
                None => {
                    let p = next % platform.num_procs();
                    next += 1;
                    p
                }
            };
            place_append(graph, platform, &mut placements, &mut avail, t, proc);
        }
        Schedule::new(placements)
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Min-min list scheduling: repeatedly pick, among the ready tasks, the one
/// whose best-case completion time is smallest, and place it there.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinMinScheduler;

impl MinMinScheduler {
    /// Create a min-min scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for MinMinScheduler {
    /// # Panics
    ///
    /// If `graph` has a cycle: no task is ready while some are unplaced.
    fn schedule(&self, graph: &TaskGraph, platform: &Platform) -> Schedule {
        let n = graph.len();
        let mut placements = vec![Placement { proc: 0, start: 0.0, finish: 0.0 }; n];
        let mut avail = vec![0.0f64; platform.num_procs()];
        let mut done = vec![false; n];
        let mut remaining_preds: Vec<usize> = (0..n).map(|t| graph.predecessors(t).len()).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&t| remaining_preds[t] == 0).collect();
        let mut scheduled = 0usize;

        while scheduled < n {
            // For each ready task find its best (earliest completion) proc.
            let mut best: Option<(f64, usize, usize)> = None; // (finish, task, proc)
            for &t in &ready {
                let candidates: Vec<usize> = match graph.tasks()[t].pinned {
                    Some(p) => vec![p],
                    None => (0..platform.num_procs()).collect(),
                };
                for &p in &candidates {
                    let start = ready_time(graph, platform, &placements, t, p).max(avail[p]);
                    let finish = start + platform.compute_time(graph.tasks()[t].cost, p);
                    if best.is_none_or(|(bf, _, _)| finish < bf - 1e-15) {
                        best = Some((finish, t, p));
                    }
                }
            }
            let (_, task, proc) = best.expect("min-min requires a DAG");
            place_append(graph, platform, &mut placements, &mut avail, task, proc);
            done[task] = true;
            scheduled += 1;
            ready.retain(|&t| t != task);
            for &s in graph.successors(task) {
                remaining_preds[s] -= 1;
                if remaining_preds[s] == 0 && !done[s] {
                    ready.push(s);
                }
            }
        }
        Schedule::new(placements)
    }

    fn name(&self) -> &'static str {
        "min-min"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heft::HeftScheduler;

    fn stencil_graph(width: usize, steps: usize, cost: f64, bytes: u64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let mut prev: Vec<usize> = Vec::new();
        for step in 0..steps {
            let mut row = Vec::new();
            for w in 0..width {
                let t = g.add_task(cost);
                if step > 0 {
                    // Periodic 1-D stencil: depend on left, self, right.
                    for off in [-1i64, 0, 1] {
                        let idx = ((w as i64 + off).rem_euclid(width as i64)) as usize;
                        g.add_edge(prev[idx], t, bytes);
                    }
                }
                row.push(t);
            }
            prev = row;
        }
        g
    }

    fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
        vec![
            Box::new(HeftScheduler::new()),
            Box::new(RoundRobinScheduler::new()),
            Box::new(MinMinScheduler::new()),
        ]
    }

    #[test]
    fn every_scheduler_produces_a_valid_schedule() {
        let g = stencil_graph(8, 4, 0.05, 1 << 20);
        let p = Platform::cluster(4);
        for s in all_schedulers() {
            let schedule = s.schedule(&g, &p);
            schedule
                .validate(&g, &p)
                .unwrap_or_else(|e| panic!("{} produced invalid schedule: {e}", s.name()));
            assert_eq!(schedule.len(), g.len());
        }
    }

    #[test]
    fn heft_beats_round_robin_on_communication_heavy_stencil() {
        let g = stencil_graph(8, 8, 0.01, 64 << 20);
        let p = Platform::homogeneous(4, 1e-4, 1e9);
        let heft = HeftScheduler::new().schedule(&g, &p).makespan();
        let rr = RoundRobinScheduler::new().schedule(&g, &p).makespan();
        assert!(
            heft <= rr + 1e-9,
            "HEFT ({heft}) should not lose to round-robin ({rr}) on a comm-heavy graph"
        );
    }

    /// A cliff detector, not a timing gate: planning this graph takes about
    /// 0.2 s in a debug build (0.03 s optimised) while HEFT costs
    /// O(e + n·p), and minutes if any per-task step goes back to scanning
    /// the edge list or a whole timeline, so a 2 s limit separates the two
    /// with an order of magnitude to spare below and two above.
    #[test]
    fn heft_plans_a_16k_task_stencil_well_inside_two_seconds() {
        let g = stencil_graph(64, 256, 0.05, 1 << 20);
        assert_eq!(g.len(), 16_384);
        let p = Platform::cluster(64);
        let started = std::time::Instant::now();
        let schedule = HeftScheduler::new().schedule(&g, &p);
        let elapsed = started.elapsed();
        schedule.validate(&g, &p).expect("HEFT schedule must be valid");
        assert!(elapsed.as_secs_f64() < 2.0, "HEFT took {elapsed:?} on 16 384 tasks × 64 procs");
    }

    #[test]
    fn pinned_tasks_respected_by_all_schedulers() {
        let mut g = stencil_graph(4, 2, 0.1, 1024);
        let pinned = g.add_task_full(0.2, Some(0), "host".to_string());
        g.add_edge(0, pinned, 8);
        let p = Platform::cluster(3);
        for s in all_schedulers() {
            let schedule = s.schedule(&g, &p);
            assert_eq!(schedule.proc_of(pinned), 0, "{} ignored pinning", s.name());
        }
    }

    #[test]
    fn min_min_prefers_short_tasks_first() {
        let mut g = TaskGraph::new();
        let long = g.add_task(10.0);
        let short = g.add_task(1.0);
        let p = Platform::homogeneous(1, 0.0, 1e9);
        let s = MinMinScheduler::new().schedule(&g, &p);
        s.validate(&g, &p).unwrap();
        assert!(s.placement(short).start < s.placement(long).start);
    }
}
