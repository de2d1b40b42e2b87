//! The result of a scheduling pass and its validation helpers.

use crate::graph::TaskGraph;
use crate::platform::Platform;

/// Placement and time estimate for one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Processor the task is assigned to.
    pub proc: usize,
    /// Estimated start time in seconds.
    pub start: f64,
    /// Estimated finish time in seconds.
    pub finish: f64,
}

/// A complete schedule: one [`Placement`] per task, indexed by task id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    placements: Vec<Placement>,
}

impl Schedule {
    /// Build a schedule from per-task placements (indexed by task id).
    pub fn new(placements: Vec<Placement>) -> Self {
        Self { placements }
    }

    /// Placement of `task`.
    pub fn placement(&self, task: usize) -> Placement {
        self.placements[task]
    }

    /// Processor assigned to `task`.
    pub fn proc_of(&self, task: usize) -> usize {
        self.placements[task].proc
    }

    /// All placements, indexed by task id.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Number of scheduled tasks.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Estimated makespan (latest finish time), 0 for an empty schedule.
    pub fn makespan(&self) -> f64 {
        self.placements.iter().map(|p| p.finish).fold(0.0, f64::max)
    }

    /// Number of distinct processors actually used.
    pub fn procs_used(&self) -> usize {
        let mut procs: Vec<usize> = self.placements.iter().map(|p| p.proc).collect();
        procs.sort_unstable();
        procs.dedup();
        procs.len()
    }

    /// Tasks assigned to `proc`, in estimated start order.
    pub fn tasks_on(&self, proc: usize) -> Vec<usize> {
        let mut tasks: Vec<usize> = self
            .placements
            .iter()
            .enumerate()
            .filter(|(_, p)| p.proc == proc)
            .map(|(t, _)| t)
            .collect();
        self.sort_by_start(&mut tasks);
        tasks
    }

    /// Order `tasks` by estimated `(start, finish)`, remaining ties in the
    /// order given: a zero-length task sorts before a longer one starting
    /// at the same instant, which is the order they occupy the processor.
    fn sort_by_start(&self, tasks: &mut [usize]) {
        tasks.sort_by(|&a, &b| {
            let (a, b) = (self.placements[a], self.placements[b]);
            a.start.total_cmp(&b.start).then(a.finish.total_cmp(&b.finish))
        });
    }

    /// Validate the schedule against its graph and platform:
    ///
    /// * every task has a placement on an existing processor,
    /// * pinned tasks are on their required processor,
    /// * each task starts only after its predecessors finish (plus the
    ///   communication delay when they are on different processors),
    /// * each task's duration is at least its compute time, and
    /// * tasks sharing a processor do not overlap.
    ///
    /// Returns a human-readable description of the first violation found.
    pub fn validate(&self, graph: &TaskGraph, platform: &Platform) -> Result<(), String> {
        const EPS: f64 = 1e-9;
        if self.placements.len() != graph.len() {
            return Err(format!(
                "schedule has {} placements for {} tasks",
                self.placements.len(),
                graph.len()
            ));
        }
        for (t, p) in self.placements.iter().enumerate() {
            if p.proc >= platform.num_procs() {
                return Err(format!("task {t} placed on unknown processor {}", p.proc));
            }
            if let Some(pin) = graph.tasks()[t].pinned {
                if p.proc != pin {
                    return Err(format!("task {t} pinned to {pin} but placed on {}", p.proc));
                }
            }
            let need = platform.compute_time(graph.tasks()[t].cost, p.proc);
            if p.finish + EPS < p.start + need {
                return Err(format!(
                    "task {t} has duration {} but needs {need}",
                    p.finish - p.start
                ));
            }
        }
        for e in graph.edges() {
            let prod = self.placements[e.from];
            let cons = self.placements[e.to];
            let comm = platform.comm_time(e.bytes, prod.proc, cons.proc);
            if cons.start + EPS < prod.finish + comm {
                return Err(format!(
                    "task {} starts at {} before its dependence on {} is satisfied at {}",
                    e.to,
                    cons.start,
                    e.from,
                    prod.finish + comm
                ));
            }
        }
        // No overlap on a processor (single execution slot per processor in
        // the scheduler's estimate; the runtime may use intra-node cores for
        // nested parallelism, which the estimate ignores conservatively).
        let mut tasks_on: Vec<Vec<usize>> = vec![Vec::new(); platform.num_procs()];
        for (t, p) in self.placements.iter().enumerate() {
            tasks_on[p.proc].push(t);
        }
        for (proc, tasks) in tasks_on.iter_mut().enumerate() {
            self.sort_by_start(tasks);
            for pair in tasks.windows(2) {
                let a = self.placements[pair[0]];
                let b = self.placements[pair[1]];
                if b.start + EPS < a.finish {
                    return Err(format!(
                        "tasks {} and {} overlap on processor {proc}",
                        pair[0], pair[1]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;

    fn chain() -> TaskGraph {
        let mut g = TaskGraph::new();
        g.add_task(1.0);
        g.add_task(1.0);
        g.add_edge(0, 1, 1_000_000);
        g
    }

    fn platform() -> Platform {
        Platform::homogeneous(2, 0.001, 1e9)
    }

    #[test]
    fn valid_schedule_passes() {
        let g = chain();
        let p = platform();
        let s = Schedule::new(vec![
            Placement { proc: 0, start: 0.0, finish: 1.0 },
            Placement { proc: 1, start: 1.002, finish: 2.002 },
        ]);
        assert!(s.validate(&g, &p).is_ok());
        assert!((s.makespan() - 2.002).abs() < 1e-12);
        assert_eq!(s.procs_used(), 2);
        assert_eq!(s.tasks_on(0), vec![0]);
    }

    #[test]
    fn dependence_violation_is_caught() {
        let g = chain();
        let p = platform();
        let s = Schedule::new(vec![
            Placement { proc: 0, start: 0.0, finish: 1.0 },
            Placement { proc: 1, start: 1.0, finish: 2.0 }, // ignores comm delay
        ]);
        let err = s.validate(&g, &p).unwrap_err();
        assert!(err.contains("dependence"));
    }

    #[test]
    fn overlap_on_same_proc_is_caught() {
        let mut g = TaskGraph::new();
        g.add_task(1.0);
        g.add_task(1.0);
        let p = platform();
        let s = Schedule::new(vec![
            Placement { proc: 0, start: 0.0, finish: 1.0 },
            Placement { proc: 0, start: 0.5, finish: 1.5 },
        ]);
        let err = s.validate(&g, &p).unwrap_err();
        assert!(err.contains("overlap"));
    }

    #[test]
    fn zero_length_task_at_the_start_of_a_longer_one_is_not_an_overlap() {
        // The longer task has the lower index, so a tie broken by index
        // would compare the zero-length task *after* it.
        let mut g = TaskGraph::new();
        g.add_task(1.0);
        g.add_task(0.0);
        let p = platform();
        let s = Schedule::new(vec![
            Placement { proc: 0, start: 0.5, finish: 1.5 },
            Placement { proc: 0, start: 0.5, finish: 0.5 },
        ]);
        assert_eq!(s.validate(&g, &p), Ok(()));
        assert_eq!(s.tasks_on(0), vec![1, 0]);
        // A zero-length task strictly inside the long one still overlaps.
        let inside = Schedule::new(vec![
            Placement { proc: 0, start: 0.5, finish: 1.5 },
            Placement { proc: 0, start: 1.0, finish: 1.0 },
        ]);
        assert!(inside.validate(&g, &p).unwrap_err().contains("overlap"));
    }

    #[test]
    fn heft_schedule_of_a_region_shaped_graph_validates() {
        use crate::{HeftScheduler, Scheduler};
        // The shape `RegionGraph` lowers to: zero-cost enter-data tasks
        // feeding costed target tasks, everything on one processor. HEFT
        // inserts each data task at the instant an earlier, lower-indexed
        // target task starts.
        let mut g = TaskGraph::new();
        for _ in 0..4 {
            let compute = g.add_task(1.0);
            let data = g.add_task(0.0);
            let consumer = g.add_task(1.0);
            g.add_edge(data, consumer, 1 << 20);
            g.add_edge(compute, consumer, 8);
        }
        let p = Platform::homogeneous(1, 0.001, 1e9);
        let s = HeftScheduler::new().schedule(&g, &p);
        let shares_a_start = (0..g.len()).any(|z| {
            let zero = s.placement(z);
            zero.start == zero.finish
                && (0..z).any(|t| {
                    let long = s.placement(t);
                    long.start == zero.start && long.finish > long.start
                })
        });
        assert!(shares_a_start, "the graph no longer produces the tie under test: {s:?}");
        assert_eq!(s.validate(&g, &p), Ok(()));
    }

    #[test]
    fn pinning_violation_is_caught() {
        let mut g = TaskGraph::new();
        g.add_task_full(1.0, Some(1), "pinned".to_string());
        let p = platform();
        let s = Schedule::new(vec![Placement { proc: 0, start: 0.0, finish: 1.0 }]);
        let err = s.validate(&g, &p).unwrap_err();
        assert!(err.contains("pinned"));
    }

    #[test]
    fn too_short_duration_is_caught() {
        let mut g = TaskGraph::new();
        g.add_task(2.0);
        let p = platform();
        let s = Schedule::new(vec![Placement { proc: 0, start: 0.0, finish: 1.0 }]);
        assert!(s.validate(&g, &p).is_err());
    }
}
