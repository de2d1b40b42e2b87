//! Differential oracle for the schedulers.
//!
//! `reference` below is the planner as it stood before the weighted
//! adjacency and the searched timelines: HEFT that recomputes every
//! candidate's ready time from scratch and walks each busy timeline from
//! its first interval, and the two list schedulers, all reading edge
//! weights by summing `TaskGraph::edges()`. The production schedulers must
//! return the same [`Schedule`] — same processor, bit-equal start and finish
//! for every task — on a seeded sweep of DAGs built to reach the corners
//! the fast paths cut: parallel edges, zero-cost tasks sharing a start time,
//! pinned tasks, heterogeneous speeds, reserved load, exact ties — and on
//! region-shaped graphs, converted from a runtime `RegionGraph` as the
//! runtime plans them. Every HEFT schedule must also pass `validate`.

use ompc::runtime::model::region_to_sched;
use ompc::runtime::runtime::sim::sim_platform;
use ompc::runtime::{
    BufferId, BufferRegistry, Dependence, KernelId, MapType, RegionGraph, TaskKind,
};
use ompc::sched::{
    HeftScheduler, MinMinScheduler, Placement, Platform, RoundRobinScheduler, Schedule, Scheduler,
    TaskGraph,
};
use ompc::sim::ClusterConfig;
use ompc::taskbench::{generate_workload, DependencePattern, TaskBenchConfig};
use ompc_testutil::Rng;

mod reference {
    use super::*;
    use std::collections::BTreeMap;

    /// Bytes between each pair of tasks, parallel edges summed, from the
    /// edge list alone.
    pub struct EdgeBytes(BTreeMap<(usize, usize), u64>);

    impl EdgeBytes {
        pub fn of(graph: &TaskGraph) -> Self {
            let mut map = BTreeMap::new();
            for e in graph.edges() {
                *map.entry((e.from, e.to)).or_insert(0) += e.bytes;
            }
            Self(map)
        }

        fn get(&self, from: usize, to: usize) -> u64 {
            self.0.get(&(from, to)).copied().unwrap_or(0)
        }
    }

    fn upward_ranks(graph: &TaskGraph, edge: &EdgeBytes, platform: &Platform) -> Vec<f64> {
        let order = graph.topological_order().expect("HEFT requires an acyclic task graph");
        let mut rank = vec![0.0f64; graph.len()];
        for &t in order.iter().rev() {
            let mut succ_term: f64 = 0.0;
            for &s in graph.successors(t) {
                let comm = platform.mean_comm_time(edge.get(t, s));
                succ_term = succ_term.max(comm + rank[s]);
            }
            rank[t] = platform.mean_compute_time(graph.tasks()[t].cost) + succ_term;
        }
        rank
    }

    fn earliest_slot(busy: &[(f64, f64)], ready: f64, duration: f64) -> f64 {
        let mut candidate = ready;
        for &(start, finish) in busy {
            if candidate + duration <= start + 1e-15 {
                return candidate;
            }
            candidate = candidate.max(finish);
        }
        candidate
    }

    pub fn heft(graph: &TaskGraph, platform: &Platform, load: &[f64]) -> Schedule {
        if graph.is_empty() {
            return Schedule::new(Vec::new());
        }
        let edge = EdgeBytes::of(graph);
        let ranks = upward_ranks(graph, &edge, platform);
        let mut order: Vec<usize> = (0..graph.len()).collect();
        order.sort_by(|&a, &b| {
            ranks[b].partial_cmp(&ranks[a]).expect("ranks are finite").then(a.cmp(&b))
        });

        let mut placements = vec![Placement { proc: 0, start: 0.0, finish: 0.0 }; graph.len()];
        let mut scheduled = vec![false; graph.len()];
        let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); platform.num_procs()];
        for (p, &reserved) in load.iter().enumerate().take(platform.num_procs()) {
            if reserved > 0.0 {
                busy[p].push((0.0, reserved));
            }
        }

        for &t in &order {
            let task = &graph.tasks()[t];
            let candidates: Vec<usize> = match task.pinned {
                Some(p) => vec![p],
                None => (0..platform.num_procs()).collect(),
            };
            let mut best: Option<(f64, f64, usize)> = None; // (finish, start, proc)
            for &p in &candidates {
                let mut ready = 0.0f64;
                for &pred in graph.predecessors(t) {
                    assert!(scheduled[pred], "HEFT order must schedule predecessors first");
                    let pp = placements[pred];
                    let comm = platform.comm_time(edge.get(pred, t), pp.proc, p);
                    ready = ready.max(pp.finish + comm);
                }
                let duration = platform.compute_time(task.cost, p);
                let start = earliest_slot(&busy[p], ready, duration);
                let finish = start + duration;
                let better = match best {
                    None => true,
                    Some((bf, _, _)) => finish < bf - 1e-15,
                };
                if better {
                    best = Some((finish, start, p));
                }
            }
            let (finish, start, proc) = best.expect("at least one candidate processor");
            placements[t] = Placement { proc, start, finish };
            scheduled[t] = true;
            let pos = busy[proc].iter().position(|&(s, _)| s > start).unwrap_or(busy[proc].len());
            busy[proc].insert(pos, (start, finish));
        }
        Schedule::new(placements)
    }

    fn ready_time(
        graph: &TaskGraph,
        edge: &EdgeBytes,
        platform: &Platform,
        placements: &[Placement],
        task: usize,
        proc: usize,
    ) -> f64 {
        let mut ready = 0.0f64;
        for &pred in graph.predecessors(task) {
            let pp = placements[pred];
            let comm = platform.comm_time(edge.get(pred, task), pp.proc, proc);
            ready = ready.max(pp.finish + comm);
        }
        ready
    }

    fn place_append(
        graph: &TaskGraph,
        edge: &EdgeBytes,
        platform: &Platform,
        placements: &mut [Placement],
        avail: &mut [f64],
        task: usize,
        proc: usize,
    ) {
        let start = ready_time(graph, edge, platform, placements, task, proc).max(avail[proc]);
        let finish = start + platform.compute_time(graph.tasks()[task].cost, proc);
        placements[task] = Placement { proc, start, finish };
        avail[proc] = finish;
    }

    pub fn round_robin(graph: &TaskGraph, platform: &Platform) -> Schedule {
        let edge = EdgeBytes::of(graph);
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
            place_append(graph, &edge, platform, &mut placements, &mut avail, t, proc);
        }
        Schedule::new(placements)
    }

    pub fn min_min(graph: &TaskGraph, platform: &Platform) -> Schedule {
        let edge = EdgeBytes::of(graph);
        let n = graph.len();
        let mut placements = vec![Placement { proc: 0, start: 0.0, finish: 0.0 }; n];
        let mut avail = vec![0.0f64; platform.num_procs()];
        let mut done = vec![false; n];
        let mut remaining_preds: Vec<usize> = (0..n).map(|t| graph.predecessors(t).len()).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&t| remaining_preds[t] == 0).collect();
        let mut scheduled = 0usize;

        while scheduled < n {
            assert!(!ready.is_empty(), "min-min requires a DAG");
            let mut best: Option<(f64, usize, usize)> = None; // (finish, task, proc)
            for &t in &ready {
                let candidates: Vec<usize> = match graph.tasks()[t].pinned {
                    Some(p) => vec![p],
                    None => (0..platform.num_procs()).collect(),
                };
                for &p in &candidates {
                    let start = ready_time(graph, &edge, platform, &placements, t, p).max(avail[p]);
                    let finish = start + platform.compute_time(graph.tasks()[t].cost, p);
                    if best.is_none_or(|(bf, _, _)| finish < bf - 1e-15) {
                        best = Some((finish, t, p));
                    }
                }
            }
            let (_, task, proc) = best.expect("non-empty ready set");
            place_append(graph, &edge, platform, &mut placements, &mut avail, task, proc);
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
}

/// One generated scheduling problem.
struct Case {
    graph: TaskGraph,
    platform: Platform,
    load: Vec<f64>,
}

/// Draw a DAG (edges always run from a lower to a higher task id), a
/// platform of 1–64 processors and a load snapshot from `seed`.
fn arbitrary_case(seed: u64) -> Case {
    let mut rng = Rng::new(seed);
    let procs = match rng.range(0, 4) {
        0 => 1,
        1 => rng.range_usize(2, 5),
        2 => rng.range_usize(5, 17),
        _ => rng.range_usize(17, 65),
    };

    // Costs on a coarse grid produce exact finish-time ties (the tie-break
    // and the 1e-15 tolerances decide); fine-grained ones produce the
    // irregular gaps the insertion policy fills. A fifth of the tasks cost
    // nothing, like a region graph's enter/exit-data tasks.
    let coarse = rng.range(0, 2) == 0;
    let cost = |rng: &mut Rng| match rng.range(0, 5) {
        0 => 0.0,
        _ if coarse => 0.25 * rng.range(1, 9) as f64,
        _ => rng.range(1, 4_000_000) as f64 * 1e-6,
    };
    let pin = |rng: &mut Rng| (rng.range(0, 10) == 0).then(|| rng.range_usize(0, procs));
    let bytes = |rng: &mut Rng| match rng.range(0, 4) {
        0 => 0,
        1 => rng.range(1, 4096),
        _ => rng.range(1, 64 << 20),
    };

    let mut graph = TaskGraph::new();
    if rng.range(0, 2) == 0 {
        // Layered: every task depends on 1–4 draws (with repetition, so
        // parallel edges occur) from the previous layer.
        let width = rng.range_usize(1, 25);
        let layers = rng.range_usize(1, 13);
        let mut prev: Vec<usize> = Vec::new();
        for _ in 0..layers {
            let row: Vec<usize> = (0..rng.range_usize(1, width + 1))
                .map(|_| {
                    let c = cost(&mut rng);
                    let p = pin(&mut rng);
                    graph.add_task_full(c, p, String::new())
                })
                .collect();
            if !prev.is_empty() {
                for &t in &row {
                    for _ in 0..rng.range(1, 5) {
                        let from = prev[rng.range_usize(0, prev.len())];
                        graph.add_edge(from, t, bytes(&mut rng));
                    }
                }
            }
            prev = row;
        }
    } else {
        // Random: every task depends on 0–4 draws from all earlier tasks.
        for t in 0..rng.range_usize(1, 161) {
            let c = cost(&mut rng);
            let p = pin(&mut rng);
            graph.add_task_full(c, p, String::new());
            for _ in 0..rng.range(0, 5).min(t as u64) {
                graph.add_edge(rng.range_usize(0, t), t, bytes(&mut rng));
            }
        }
    }

    let platform = arbitrary_platform(&mut rng, procs);
    let load = match rng.range(0, 3) {
        0 => Vec::new(),
        1 => vec![0.0; procs],
        _ => (0..procs)
            .map(|_| if rng.range(0, 3) == 0 { 0.0 } else { rng.range(1, 5_000_000) as f64 * 1e-6 })
            .collect(),
    };
    Case { graph, platform, load }
}

/// Speeds, latency and bandwidth of `procs` processors, drawn from `rng`.
fn arbitrary_platform(rng: &mut Rng, procs: usize) -> Platform {
    let speeds: Vec<f64> = if rng.range(0, 2) == 0 {
        vec![1.0; procs]
    } else {
        (0..procs).map(|_| [0.5, 1.0, 1.5, 2.0, 4.0][rng.range_usize(0, 5)]).collect()
    };
    // A positive latency keeps upward ranks strictly decreasing along
    // edges; with zero latency equal ranks fall back to the id order, which
    // the generated edges respect.
    let latency = [0.0, 3e-6, 1e-3, 0.25][rng.range_usize(0, 4)];
    let bandwidth = [1e6, 1e9, 12.5e9][rng.range_usize(0, 3)];
    Platform { speeds, latency, bandwidth }
}

/// Draw a region the way a target region records one and convert it with
/// `region_to_sched`, as the runtime does before planning: enter-data tasks
/// for most buffers, then targets that read, write or update one to three
/// of them (so several targets read some buffers), then exit-data tasks.
/// The data tasks cost nothing, and anti and output edges carry no bytes.
fn region_case(seed: u64) -> Case {
    let mut rng = Rng::new(seed);
    let procs = rng.range_usize(1, 17);
    let registry = BufferRegistry::new();
    // Lazily zeroed: registering a buffer allocates nothing.
    let buffers: Vec<BufferId> = (0..rng.range_usize(1, 9))
        .map(|_| registry.register_uninit(rng.range_usize(8, 64 << 20)))
        .collect();
    let mut region = RegionGraph::new();
    for &buffer in &buffers {
        if rng.range(0, 4) != 0 {
            let kind = TaskKind::EnterData { buffer, map: MapType::To };
            region.add_task(kind, vec![Dependence::output(buffer)], "enter");
        }
    }
    for k in 0..rng.range_usize(1, 41) {
        let deps = (0..rng.range(1, 4))
            .map(|_| {
                let buffer = buffers[rng.range_usize(0, buffers.len())];
                match rng.range(0, 5) {
                    0 => Dependence::output(buffer),
                    1 => Dependence::inout(buffer),
                    _ => Dependence::input(buffer),
                }
            })
            .collect();
        let cost_hint = match rng.range(0, 6) {
            0 => 0.0,
            _ => rng.range(1, 2_000_000) as f64 * 1e-6,
        };
        region.add_task(TaskKind::Target { kernel: KernelId(k), cost_hint }, deps, "target");
    }
    for &buffer in &buffers {
        if rng.range(0, 4) != 0 {
            let kind = TaskKind::ExitData { buffer, map: MapType::From };
            region.add_task(kind, vec![Dependence::input(buffer)], "exit");
        }
    }
    let graph = region_to_sched(&region, &registry);
    let platform = arbitrary_platform(&mut rng, procs);
    let load = (0..procs).map(|_| rng.range(0, 5_000_000) as f64 * 1e-6).collect();
    Case { graph, platform, load }
}

fn assert_all_schedulers_match(graph: &TaskGraph, platform: &Platform, load: &[f64], what: &str) {
    let heft = HeftScheduler::new().schedule_with_load(graph, platform, load);
    assert_eq!(heft, reference::heft(graph, platform, load), "{what}: HEFT differs");
    heft.validate(graph, platform).unwrap_or_else(|e| panic!("{what}: HEFT invalid: {e}"));
    assert_eq!(
        RoundRobinScheduler::new().schedule(graph, platform),
        reference::round_robin(graph, platform),
        "{what}: round-robin differs"
    );
    assert_eq!(
        MinMinScheduler::new().schedule(graph, platform),
        reference::min_min(graph, platform),
        "{what}: min-min differs"
    );
}

#[test]
fn schedulers_match_the_reference_on_a_seeded_sweep() {
    const CASES: u64 = 600;
    let (mut parallel, mut zero_cost, mut pinned, mut hetero, mut loaded) = (0, 0, 0, 0, 0);
    for seed in 0..CASES {
        let Case { graph, platform, load } = arbitrary_case(seed);
        assert_all_schedulers_match(&graph, &platform, &load, &format!("seed {seed}"));

        let mut pairs: Vec<(usize, usize)> = graph.edges().iter().map(|e| (e.from, e.to)).collect();
        pairs.sort_unstable();
        parallel += usize::from(pairs.windows(2).any(|w| w[0] == w[1]));
        zero_cost += usize::from(graph.tasks().iter().any(|t| t.cost == 0.0));
        pinned += usize::from(graph.tasks().iter().any(|t| t.pinned.is_some()));
        hetero += usize::from(platform.speeds.iter().any(|&s| s != 1.0));
        loaded += usize::from(load.iter().any(|&l| l > 0.0));
    }
    // The sweep is only an oracle for the corners it actually visits.
    for (name, count) in [
        ("parallel edges", parallel),
        ("zero-cost tasks", zero_cost),
        ("pinned tasks", pinned),
        ("heterogeneous speeds", hetero),
        ("non-zero load", loaded),
    ] {
        assert!(count >= 100, "only {count} of {CASES} cases had {name}");
    }
}

#[test]
fn region_shaped_graphs_match_the_reference_with_and_without_load() {
    const CASES: u64 = 200;
    let (mut fan_out, mut zero_cost_targets) = (0, 0);
    for seed in 0..CASES {
        let Case { graph, platform, load } = region_case(seed);
        assert_all_schedulers_match(&graph, &platform, &[], &format!("region seed {seed}"));
        let what = format!("region seed {seed}, loaded");
        assert_all_schedulers_match(&graph, &platform, &load, &what);

        // A task whose output several others read (flow edges carry bytes).
        let readers =
            |t: usize| graph.edges().iter().filter(|e| e.from == t && e.bytes > 0).count();
        fan_out += usize::from((0..graph.len()).any(|t| readers(t) >= 2));
        zero_cost_targets +=
            usize::from(graph.tasks().iter().any(|t| t.cost == 0.0 && t.label == "target"));
    }
    for (name, count) in
        [("a buffer read by several tasks", fan_out), ("zero-cost targets", zero_cost_targets)]
    {
        assert!(count >= CASES as usize / 4, "only {count} of {CASES} regions had {name}");
    }
}

/// Many zero-length intervals at one start time next to a reserved load:
/// the timeline shape on which finish times are *not* sorted, so a search
/// keyed on them alone would place work inside the reservation.
#[test]
fn zero_cost_tasks_inside_a_reservation_match_the_reference() {
    let mut graph = TaskGraph::new();
    for t in 0..40 {
        graph.add_task(if t % 4 == 3 { 1.0 } else { 0.0 });
    }
    for t in 4..40 {
        graph.add_edge(t - 4, t, 1 << 10);
    }
    let platform = Platform::cluster(2);
    assert_all_schedulers_match(&graph, &platform, &[10.0, 0.5], "reserved timeline");
}

#[test]
fn figure5_graphs_at_16_nodes_match_the_reference() {
    for pattern in [DependencePattern::Stencil1D, DependencePattern::Fft] {
        let workload = generate_workload(&TaskBenchConfig::figure5(pattern, 16));
        let platform = Platform::cluster(15);
        assert_all_schedulers_match(&workload.graph, &platform, &[], &format!("{pattern:?}"));
    }
}

/// The paper-scale plan the perf ledger times: fig. 5 Stencil-1D and FFT at
/// 64 nodes (63 processors) on the simulated cluster's platform, every task
/// cost the figure's nominal one jittered by ±10 % from a seed. Most of the
/// 63 candidates of a task are pruned here, so this is where a prune that
/// dropped a winner would show.
#[test]
fn figure5_graphs_at_64_nodes_with_seeded_costs_match_the_reference_heft() {
    let platform = sim_platform(&ClusterConfig::santos_dumont(64));
    assert_eq!(platform.num_procs(), 63);
    for (seed, pattern) in [(44, DependencePattern::Stencil1D), (45, DependencePattern::Fft)] {
        let config = TaskBenchConfig::figure5(pattern, 64);
        let base = generate_workload(&config);
        let mut rng = Rng::new(seed);
        let mut graph = TaskGraph::new();
        for task in base.graph.tasks() {
            let jitter = 0.9 + 0.2 * rng.range(0, 1 << 20) as f64 / (1 << 20) as f64;
            graph.add_task_full(config.task_duration_secs() * jitter, task.pinned, String::new());
        }
        for edge in base.graph.edges() {
            graph.add_edge(edge.from, edge.to, edge.bytes);
        }
        let heft = HeftScheduler::new().schedule(&graph, &platform);
        assert_eq!(heft, reference::heft(&graph, &platform, &[]), "{pattern:?}: HEFT differs");
        heft.validate(&graph, &platform).unwrap_or_else(|e| panic!("{pattern:?}: invalid: {e}"));
    }
}

/// The same paper-scale plan started next to in-flight work: each of the 63
/// processors carries a seeded reserved load, none, shorter than a task or
/// several tasks long. The reserved intervals are part of every timeline
/// from the start, so they are part of the gap bound that lets HEFT place a
/// task without searching a timeline.
#[test]
fn figure5_graphs_at_64_nodes_with_reserved_load_match_the_reference_heft() {
    let platform = sim_platform(&ClusterConfig::santos_dumont(64));
    for (seed, pattern) in [(46, DependencePattern::Stencil1D), (47, DependencePattern::Fft)] {
        let config = TaskBenchConfig::figure5(pattern, 64);
        let base = generate_workload(&config);
        let mut rng = Rng::new(seed);
        let mut graph = TaskGraph::new();
        for task in base.graph.tasks() {
            let jitter = 0.9 + 0.2 * rng.range(0, 1 << 20) as f64 / (1 << 20) as f64;
            graph.add_task_full(config.task_duration_secs() * jitter, task.pinned, String::new());
        }
        for edge in base.graph.edges() {
            graph.add_edge(edge.from, edge.to, edge.bytes);
        }
        let task = config.task_duration_secs();
        let load: Vec<f64> = (0..platform.num_procs())
            .map(|_| match rng.range(0, 4) {
                0 => 0.0,
                1 => task * rng.range(1, 1 << 10) as f64 / (1 << 10) as f64,
                _ => task * rng.range(1, 8 << 10) as f64 / (1 << 10) as f64,
            })
            .collect();
        assert!(load.contains(&0.0) && load.iter().any(|&l| l > 0.0));
        let heft = HeftScheduler::new().schedule_with_load(&graph, &platform, &load);
        assert_eq!(heft, reference::heft(&graph, &platform, &load), "{pattern:?}: HEFT differs");
        heft.validate(&graph, &platform).unwrap_or_else(|e| panic!("{pattern:?}: invalid: {e}"));
        for t in 0..graph.len() {
            let at = heft.placement(t);
            let inside = at.finish > at.start && at.start < load[at.proc];
            assert!(!inside, "{pattern:?}: task {t} inside a reservation");
        }
    }
}

/// Exact ties everywhere: every processor carries the same reserved load,
/// so each task of a fork finishes at the same time on every processor not
/// yet used. The strict comparison keeps the first candidate, so task `k`
/// lands on processor `k` — and a pruned candidate is never a tied one
/// that should have won.
#[test]
fn when_every_candidate_ties_the_lowest_index_wins() {
    let procs = 8;
    let mut graph = TaskGraph::new();
    for _ in 0..procs {
        graph.add_task(0.25);
    }
    let platform = Platform::cluster(procs);
    let load = vec![0.5; procs];
    let heft = HeftScheduler::new().schedule_with_load(&graph, &platform, &load);
    assert_eq!(heft, reference::heft(&graph, &platform, &load));
    for t in 0..procs {
        assert_eq!(heft.proc_of(t), t, "task {t}");
        assert_eq!((heft.placement(t).start, heft.placement(t).finish), (0.5, 0.75));
    }
    assert_all_schedulers_match(&graph, &platform, &load, "all tied");
}
