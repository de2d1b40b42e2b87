//! The drivers of the paper's §6 figures, and each figure as printed.

use crate::report::{render_table, Figure, JsonRow};
use crate::runtimes::{run_all_runtimes, RuntimeKind};
use ompc_awave::{awave_workload, AwaveWorkloadConfig};
use ompc_core::prelude::{simulate_ompc, OmpcConfig, OverheadModel};
use ompc_json::Json;
use ompc_sim::{ClusterConfig, NodeConfig};
use ompc_taskbench::{generate_workload, DependencePattern, TaskBenchConfig};

/// One point of Fig. 5: a (pattern, node count, runtime) execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityRow {
    /// Dependence pattern name.
    pub pattern: String,
    /// Number of cluster nodes.
    pub nodes: usize,
    /// Runtime measured.
    pub runtime: RuntimeKind,
    /// Execution time in seconds.
    pub seconds: f64,
}

/// Reproduce Fig. 5: weak-scaling execution time for every pattern,
/// runtime, and node count. The paper uses 50 ms tasks (10M iterations),
/// CCR 1.0, and a `(2·nodes) × 32` task graph.
pub fn run_scalability(node_counts: &[usize]) -> Vec<ScalabilityRow> {
    let mut rows = Vec::new();
    for pattern in DependencePattern::paper_patterns() {
        for &nodes in node_counts {
            let config = TaskBenchConfig::figure5(pattern, nodes);
            let workload = generate_workload(&config);
            for m in run_all_runtimes(&config, &workload, nodes) {
                rows.push(ScalabilityRow {
                    pattern: pattern.name().to_string(),
                    nodes,
                    runtime: m.runtime,
                    seconds: m.seconds,
                });
            }
        }
    }
    rows
}

/// One point of Fig. 6: a (pattern, CCR, runtime) execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct CcrRow {
    /// Dependence pattern name.
    pub pattern: String,
    /// Computation-to-communication ratio.
    pub ccr: f64,
    /// Runtime measured.
    pub runtime: RuntimeKind,
    /// Execution time in seconds.
    pub seconds: f64,
}

/// Reproduce Fig. 6: execution time at 16 nodes with a 16 × 16 graph and
/// 500 ms tasks while the CCR sweeps over the given values (the paper uses
/// 0.5, 1.0, 2.0).
pub fn run_ccr(ccrs: &[f64]) -> Vec<CcrRow> {
    const NODES: usize = 16;
    let mut rows = Vec::new();
    for pattern in DependencePattern::paper_patterns() {
        for &ccr in ccrs {
            let config = TaskBenchConfig::figure6(pattern, ccr);
            let workload = generate_workload(&config);
            for m in run_all_runtimes(&config, &workload, NODES) {
                rows.push(CcrRow {
                    pattern: pattern.name().to_string(),
                    ccr,
                    runtime: m.runtime,
                    seconds: m.seconds,
                });
            }
        }
    }
    rows
}

/// One point of Fig. 7(a): the overhead breakdown at a given per-task
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Iterations of the Task Bench loop per task.
    pub iterations: u64,
    /// Total wall (virtual) time in seconds.
    pub wall_time: f64,
    /// Start-up overhead as a percentage of wall time.
    pub startup_pct: f64,
    /// Scheduling overhead as a percentage of wall time.
    pub schedule_pct: f64,
    /// Shutdown overhead as a percentage of wall time.
    pub shutdown_pct: f64,
}

impl OverheadRow {
    /// Total runtime overhead percentage.
    pub fn total_overhead_pct(&self) -> f64 {
        self.startup_pct + self.schedule_pct + self.shutdown_pct
    }
}

/// Reproduce Fig. 7(a): 1 head node + 1 worker node with a single worker
/// thread, a 1 × 16 dependence-free graph, and per-task workloads from 1K
/// to 100M iterations.
pub fn run_overhead(iteration_counts: &[u64]) -> Vec<OverheadRow> {
    let mut cluster = ClusterConfig::santos_dumont(2);
    // The paper pins the experiment to a single thread so the 16 tasks
    // serialize on the worker.
    cluster.node = NodeConfig { cores: 1 };
    let config = OmpcConfig::default();
    let overheads = OverheadModel::default();
    iteration_counts
        .iter()
        .map(|&iterations| {
            let tb = TaskBenchConfig::figure7a(iterations);
            let workload = generate_workload(&tb);
            let result = simulate_ompc(&workload, &cluster, &config, &overheads)
                .expect("valid overhead cluster");
            let (startup, schedule, shutdown) = result.overhead_fractions();
            OverheadRow {
                iterations,
                wall_time: result.makespan.as_secs_f64(),
                startup_pct: startup * 100.0,
                schedule_pct: schedule * 100.0,
                shutdown_pct: shutdown * 100.0,
            }
        })
        .collect()
}

/// One point of Fig. 7(b): Awave weak-scaling speedup at a worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct AwaveRow {
    /// Velocity model name (Sigsbee / Marmousi).
    pub model: String,
    /// Number of worker nodes (and shots).
    pub workers: usize,
    /// Weak-scaling speedup relative to one worker
    /// (`workers × T(1) / T(workers)` is the ideal `workers`).
    pub speedup: f64,
    /// Execution time in seconds.
    pub seconds: f64,
}

/// Reproduce Fig. 7(b): one shot per worker node, Sigsbee-like and
/// Marmousi-like surveys, workers from 1 to 16. The Sigsbee grid is larger
/// than the Marmousi grid (as the original datasets are), so its shots are
/// individually more expensive.
pub fn run_awave(worker_counts: &[usize]) -> Vec<AwaveRow> {
    let config = OmpcConfig::default();
    let overheads = OverheadModel::default();
    // (name, nx, nz, nt) for the two survey geometries.
    let surveys = [("Sigsbee", 3200usize, 1200usize, 6000usize), ("Marmousi", 2300, 750, 5000)];
    let mut rows = Vec::new();
    for (name, nx, nz, nt) in surveys {
        let single = {
            let survey = AwaveWorkloadConfig::survey(1, nx, nz, nt);
            let w = awave_workload(&survey);
            simulate_ompc(&w, &ClusterConfig::santos_dumont(2), &config, &overheads)
                .expect("valid awave cluster")
                .makespan
                .as_secs_f64()
        };
        for &workers in worker_counts {
            let survey = AwaveWorkloadConfig::survey(workers, nx, nz, nt);
            let w = awave_workload(&survey);
            let seconds =
                simulate_ompc(&w, &ClusterConfig::santos_dumont(workers + 1), &config, &overheads)
                    .expect("valid awave cluster")
                    .makespan
                    .as_secs_f64();
            rows.push(AwaveRow {
                model: name.to_string(),
                workers,
                speedup: workers as f64 * single / seconds,
                seconds,
            });
        }
    }
    rows
}

/// Fig. 5 as printed: one table per pattern over 2–64 nodes, then the
/// headline ratios (the paper reports 1.61x / 1.64x / 2.43x vs Charm++ for
/// FFT / Stencil-1D / Tree and 1.4–2.9x behind MPI; README.md's "The paper
/// against this reproduction" sets each against ours, with its cause).
pub fn fig5() -> Figure {
    let nodes = [2, 4, 8, 16, 32, 64];
    let rows = run_scalability(&nodes);
    let xs: Vec<String> = nodes.iter().map(usize::to_string).collect();
    let text =
        runtime_tables("Figure 5", "nodes", &xs, "node counts", true, |pattern, i, runtime| {
            let row = rows
                .iter()
                .find(|r| r.pattern == pattern && r.nodes == nodes[i] && r.runtime == runtime);
            row.map(|r| r.seconds)
        });
    Figure::new(format!("Figure 5: Task Bench weak scaling (nodes = {nodes:?})"), text, &rows)
}

/// Fig. 6 as printed: one table per pattern over CCR 0.5 / 1.0 / 2.0, then
/// the headline ratios.
pub fn fig6() -> Figure {
    let ccrs = [0.5, 1.0, 2.0];
    let rows = run_ccr(&ccrs);
    let xs: Vec<String> = ccrs.iter().map(|ccr| format!("{ccr:.1}")).collect();
    let text =
        runtime_tables("Figure 6", "CCR", &xs, "CCR values", false, |pattern, i, runtime| {
            let row = rows
                .iter()
                .find(|r| r.pattern == pattern && r.ccr == ccrs[i] && r.runtime == runtime);
            row.map(|r| r.seconds)
        });
    let title = "Figure 6: Task Bench CCR sweep at 16 nodes (16x16 graph, 500 ms tasks)";
    Figure::new(title, text, &rows)
}

/// The tables fig. 5 and fig. 6 share: per pattern, every runtime's time at
/// every x value; then per pattern the OMPC-vs-Charm++ and MPI-vs-OMPC
/// ratios averaged over the x values, in alphabetical order when `sorted`.
/// `seconds(pattern, i, runtime)` is the time measured at `xs[i]`.
fn runtime_tables(
    figure: &str,
    x_name: &str,
    xs: &[String],
    averaged_over: &str,
    sorted: bool,
    seconds: impl Fn(&str, usize, RuntimeKind) -> Option<f64>,
) -> String {
    let mut patterns = DependencePattern::paper_patterns().map(DependencePattern::name);
    let header: Vec<&str> =
        std::iter::once(x_name).chain(RuntimeKind::all().map(RuntimeKind::name)).collect();
    let mut text = String::new();
    for pattern in patterns {
        let table: Vec<Vec<String>> = (0..xs.len())
            .map(|i| {
                let times = RuntimeKind::all()
                    .map(|r| format!("{:.3}", seconds(pattern, i, r).unwrap_or(f64::NAN)));
                std::iter::once(xs[i].clone()).chain(times).collect()
            })
            .collect();
        text += &format!("\n## {figure} — {pattern} (execution time, seconds)\n");
        text += &render_table(&header, &table);
    }
    if sorted {
        patterns.sort();
    }
    let ratios: Vec<Vec<String>> = patterns
        .iter()
        .map(|pattern| {
            let (mut vs_charm, mut vs_mpi) = (Vec::new(), Vec::new());
            for i in 0..xs.len() {
                let time = |runtime| seconds(pattern, i, runtime);
                use RuntimeKind::{Charm, Mpi, Ompc};
                if let (Some(ompc), Some(charm), Some(mpi)) = (time(Ompc), time(Charm), time(Mpi)) {
                    vs_charm.push(charm / ompc);
                    vs_mpi.push(ompc / mpi);
                }
            }
            let mean = |v: Vec<f64>| format!("{:.2}x", v.iter().sum::<f64>() / v.len() as f64);
            vec![pattern.to_string(), mean(vs_charm), mean(vs_mpi)]
        })
        .collect();
    text += &format!("\n## Headline ratios (averaged over {averaged_over})\n");
    text + &render_table(&["pattern", "OMPC vs Charm++", "MPI vs OMPC"], &ratios)
}

/// Fig. 7(a) as printed: the overhead split from 1K to 100M iterations.
pub fn fig7a() -> Figure {
    let rows = run_overhead(&[1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000]);
    let label = |iters: u64| match iters {
        i if i >= 1_000_000 => format!("{}M", i / 1_000_000),
        i if i >= 1_000 => format!("{}K", i / 1_000),
        i => i.to_string(),
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                label(r.iterations),
                format!("{:.4}", r.wall_time),
                format!("{:.2}", r.startup_pct),
                format!("{:.2}", r.schedule_pct),
                format!("{:.2}", r.shutdown_pct),
                format!("{:.2}", r.total_overhead_pct()),
            ]
        })
        .collect();
    let header =
        ["workload", "wall time (s)", "startup %", "schedule %", "shutdown %", "total overhead %"];
    let text = format!(
        "\n{}\nPaper's observations to compare against: overhead is dominant below ~1M \
         iterations, drops below 25% around 10 ms tasks, and is negligible (>50 ms tasks) at \
         10M+ iterations; the constant runtime overhead is a few tens of milliseconds.\n",
        render_table(&header, &table)
    );
    Figure::new("Figure 7(a): OMPC runtime overhead analysis", text, &rows)
}

/// Fig. 7(b) as printed: Awave speedup and time per model, 1–16 workers.
pub fn fig7b() -> Figure {
    let workers = [1, 2, 4, 8, 16];
    let rows = run_awave(&workers);
    let mut models: Vec<&str> = rows.iter().map(|r| r.model.as_str()).collect();
    models.dedup();
    let header: Vec<String> = std::iter::once("workers".to_string())
        .chain(models.iter().flat_map(|m| [format!("{m} speedup"), format!("{m} time (s)")]))
        .collect();
    let table: Vec<Vec<String>> = workers
        .iter()
        .map(|&w| {
            let mut cells = vec![w.to_string()];
            for model in &models {
                let row = rows.iter().find(|r| r.model == *model && r.workers == w);
                cells.push(row.map(|r| format!("{:.2}", r.speedup)).unwrap_or_default());
                cells.push(row.map(|r| format!("{:.1}", r.seconds)).unwrap_or_default());
            }
            cells
        })
        .collect();
    let text = format!(
        "\n{}\nPaper's observation to compare against: speedup stays close to the ideal line up \
         to 16 worker nodes for both models, because shot tasks are orders of magnitude coarser \
         than Task Bench tasks.\nWhat this model cannot show: one fixed-cost shot per worker is \
         ideal by construction (each time above stays within 0.1 s of its one-worker time), \
         because the velocity model's distribution and the image reduction cost no network time \
         in the model.\n",
        render_table(&header, &table)
    );
    Figure::new("Figure 7(b): Awave weak-scaling speedup (one shot per worker node)", text, &rows)
}

impl JsonRow for ScalabilityRow {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("pattern", Json::str(self.pattern.clone())),
            ("nodes", Json::usize(self.nodes)),
            ("runtime", Json::str(self.runtime.name())),
            ("seconds", Json::num(self.seconds)),
        ])
    }
}

impl JsonRow for CcrRow {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("pattern", Json::str(self.pattern.clone())),
            ("ccr", Json::num(self.ccr)),
            ("runtime", Json::str(self.runtime.name())),
            ("seconds", Json::num(self.seconds)),
        ])
    }
}

impl JsonRow for OverheadRow {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("iterations", Json::u64(self.iterations)),
            ("wall_time", Json::num(self.wall_time)),
            ("startup_pct", Json::num(self.startup_pct)),
            ("schedule_pct", Json::num(self.schedule_pct)),
            ("shutdown_pct", Json::num(self.shutdown_pct)),
        ])
    }
}

impl JsonRow for AwaveRow {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("model", Json::str(self.model.clone())),
            ("workers", Json::usize(self.workers)),
            ("speedup", Json::num(self.speedup)),
            ("seconds", Json::num(self.seconds)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_fraction_decreases_with_workload() {
        let rows = run_overhead(&[1_000, 1_000_000, 100_000_000]);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].total_overhead_pct() > rows[1].total_overhead_pct());
        assert!(rows[1].total_overhead_pct() > rows[2].total_overhead_pct());
        // The paper: overhead is dominant for tiny tasks, negligible (<25%)
        // for 10M-iteration tasks and beyond.
        assert!(rows[0].total_overhead_pct() > 50.0);
        assert!(rows[2].total_overhead_pct() < 5.0);
    }

    #[test]
    fn awave_speedup_is_near_linear() {
        let rows = run_awave(&[1, 4, 16]);
        for row in &rows {
            let efficiency = row.speedup / row.workers as f64;
            assert!(
                efficiency > 0.8,
                "{} at {} workers: efficiency {efficiency}",
                row.model,
                row.workers
            );
        }
    }

    #[test]
    fn scalability_smoke_test_small_nodes() {
        let rows = run_scalability(&[2, 4]);
        // 4 patterns × 2 node counts × 4 runtimes.
        assert_eq!(rows.len(), 32);
        assert!(rows.iter().all(|r| r.seconds > 0.0));
    }

    #[test]
    fn ccr_smoke_test_single_value() {
        let rows = run_ccr(&[1.0]);
        assert_eq!(rows.len(), 16);
        // Charm++ must not beat MPI anywhere (paper Fig. 6).
        for pattern in ["stencil_1d", "fft", "tree"] {
            let t = |kind: RuntimeKind| {
                rows.iter().find(|r| r.pattern == pattern && r.runtime == kind).unwrap().seconds
            };
            assert!(t(RuntimeKind::Mpi) <= t(RuntimeKind::Charm));
        }
    }
}
