//! The measured run of one workload: repeated set-up, then blocks of
//! samples until the time budget is spent, then the end-to-end metrics.

use crate::spans::Tracer;
use crate::stats::{fastest, median, peak_rss_mib, process_cpu_seconds, reset_peak_rss};
use crate::workloads::Workload;
use ompc_json::Json;
use std::time::Instant;

/// The end-to-end metrics: name, unit, and the share of the parent's median
/// by which a change may worsen it. All are lower-is-better. The bounds are
/// what this sandbox's host can resolve (see the noise notes in README.md),
/// and `BENCHMARK.json` repeats them.
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("wire_bytes", "B", 0.05),
    ("peak_rss_mib", "MiB", 0.25),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub n: usize,
}

impl Metric {
    /// A metric summarising `n` samples.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Self {
        Self { name: name.into(), value, unit, n }
    }
}

/// The outcome of running one workload (or the traced suite).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Operations (samples, warm-ups included) attempted.
    pub attempted: usize,
    /// Operations that returned an error or failed their output check.
    pub failed: usize,
    /// Why, for each failed operation.
    pub errors: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result object the acceptance driver reads: exactly
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let entry = Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]);
            (m.name.clone(), entry)
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::usize(self.attempted)),
            ("failed", Json::usize(self.failed)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    }
}

/// Run one workload with tracing off.
///
/// `build` generates the inputs and the reference for the output check;
/// set-up is `build` plus one device lifetime running one warm-up sample,
/// repeated [`Workload::setup_reps`] times. The timed phase then runs whole blocks —
/// one fresh device lifetime each — until `seconds` have passed and at
/// least `min_samples` samples exist. Every sample is one operation.
pub fn measure(
    name: &str,
    build: &dyn Fn() -> Box<dyn Workload>,
    seconds: f64,
    min_samples: usize,
) -> Report {
    let tracer = Tracer::off();
    let mut report = Report {
        workload: name.to_string(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
    };
    let note = |report: &mut Report, result: &Result<_, String>| {
        report.attempted += 1;
        if let Err(e) = result {
            report.failed += 1;
            report.errors.push(e.clone());
        }
    };

    let mut setups = Vec::new();
    let mut workload = loop {
        let start = Instant::now();
        let mut w = build();
        w.begin_block(&tracer);
        let warm = w.sample(&tracer);
        w.end_block(&tracer);
        setups.push(start.elapsed().as_secs_f64());
        note(&mut report, &warm);
        if setups.len() >= w.setup_reps() {
            break w;
        }
    };

    let (mut walls, mut cpus, mut wires, mut peaks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let timed = Instant::now();
    while report.failed == 0
        && (timed.elapsed().as_secs_f64() < seconds || walls.len() < min_samples)
    {
        workload.begin_block(&tracer);
        for _ in 0..workload.samples_per_block() {
            reset_peak_rss();
            let (cpu, start) = (process_cpu_seconds(), Instant::now());
            let result = workload.sample(&tracer);
            let (wall, cpu) = (start.elapsed().as_secs_f64(), process_cpu_seconds() - cpu);
            note(&mut report, &result);
            if let Ok(out) = result {
                walls.push(wall);
                cpus.push(cpu);
                wires.push(out.wire_bytes as f64);
                peaks.push(peak_rss_mib());
            }
        }
        workload.end_block(&tracer);
    }
    if wires.windows(2).any(|w| w[0] != w[1]) {
        report.failed += 1;
        report.errors.push(format!("wire_bytes differ between samples: {wires:?}"));
    }
    if walls.is_empty() {
        return report;
    }
    report.metrics = vec![
        Metric::new("setup_s", fastest(&setups), "s", setups.len()),
        Metric::new("wall_s", fastest(&walls), "s", walls.len()),
        Metric::new("cpu_s", fastest(&cpus), "s", cpus.len()),
        Metric::new("wire_bytes", wires[0], "B", wires.len()),
        Metric::new("peak_rss_mib", median(&peaks), "MiB", peaks.len()),
    ];
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, seeded_taskbench, SampleOutput, Sizing, WORKLOADS};
    use ompc_core::prelude::*;
    use ompc_sched::Platform;
    use ompc_taskbench::{DependencePattern, TaskBenchConfig};

    fn smoke(name: &'static str, seed: u64) -> Report {
        let build = move || workloads::build(name, seed, Sizing::Smoke, TelemetryLevel::Off);
        measure(name, &build, 0.0, 2)
    }

    #[test]
    fn every_workload_reports_every_end_to_end_metric() {
        for (name, _) in WORKLOADS {
            let report = smoke(name, 1);
            assert!(report.correct(), "{name}: {:?}", report.errors);
            assert!(report.attempted >= 3, "{name}: warm-up plus two samples");
            let line = Json::parse(&report.result_line().to_string()).unwrap();
            let Json::Obj(top) = &line else { panic!("not an object") };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            for (metric, unit, _) in END_TO_END {
                let entry = line.get("metrics").unwrap().get(metric).expect(metric);
                assert_eq!(entry.get("unit").unwrap().as_str(), Some(unit));
                assert!(entry.get("value").unwrap().as_f64().unwrap() > 0.0, "{name} {metric}");
            }
            assert_eq!(report.metrics.len(), END_TO_END.len());
            assert!(report.metrics.iter().all(|m| m.n >= 1));
        }
    }

    #[test]
    fn the_seed_decides_the_inputs_and_nothing_else_does() {
        let shape = TaskBenchConfig::new(DependencePattern::Stencil1D, 8, 64, 0, 16);
        let costs = |seed| -> Vec<f64> {
            seeded_taskbench(&shape, 1e-5, seed).graph.tasks().iter().map(|t| t.cost).collect()
        };
        assert_eq!(costs(3), costs(3));
        assert_ne!(costs(3), costs(4));
        assert!(costs(3).iter().all(|&c| (0.9e-5..1.1e-5).contains(&c)));
        let plan = |seed| {
            let graph = seeded_taskbench(&shape, 1e-5, seed);
            RuntimePlan::for_workload(&graph, &Platform::cluster(2), &OmpcConfig::small())
        };
        assert_eq!(plan(3), plan(3));
        assert_ne!(plan(3), plan(4));
        let wire = |seed| smoke("dispatch_mpi", seed).metrics[3].value;
        assert_eq!(wire(3), wire(3));
    }

    /// A workload whose only task names a kernel nobody registered.
    struct UnregisteredKernel(Option<ClusterDevice>);

    impl workloads::Workload for UnregisteredKernel {
        fn samples_per_block(&self) -> usize {
            1
        }
        fn begin_block(&mut self, _: &Tracer) {
            self.0 = Some(ClusterDevice::spawn(1));
        }
        fn sample(&mut self, _: &Tracer) -> Result<SampleOutput, String> {
            let device = self.0.as_ref().unwrap();
            let mut region = device.target_region();
            let buffer = region.map_to(vec![0u8; 8]);
            region.target(KernelId(9999), vec![Dependence::inout(buffer)]);
            region.run().map(|_| SampleOutput::default()).map_err(|e| e.to_string())
        }
        fn end_block(&mut self, _: &Tracer) {
            self.0.take().unwrap().shutdown();
        }
    }

    #[test]
    fn an_unregistered_kernel_is_a_failed_operation_not_a_panic() {
        let report = measure("broken", &|| Box::new(UnregisteredKernel(None)), 0.0, 2);
        assert!(!report.correct());
        assert_eq!(report.failed, report.attempted);
        assert!(report.failed >= 1 && report.metrics.is_empty());
        assert_eq!(report.result_line().get("correct").unwrap().as_bool(), Some(false));
    }
}
