//! The committed performance trajectory: every `BENCH_<n>.json` at the
//! repository root is either a report `ompc-perf run --out BENCH_<n>.json`
//! wrote on change `n`, or a result transcribed from CHANGES.md for a change
//! that predates the files (`"transcribed": true`).
//!
//! Every file names its change (`"pr"`), the number in its file name; a
//! report gets the field when it is committed. A measured report names the
//! commit and host it ran on and holds every end-to-end metric of every
//! workload `BENCHMARK.json` declares. A transcription names the workload
//! and metric of its claim — or, for a change that claimed no gain, of the
//! row it reported.

use ompc_json::Json;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn parse(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// The `field` of every entry of the list `list` in `BENCHMARK.json`.
fn declared(benchmark: &Json, list: &str) -> Vec<String> {
    let entries = benchmark.get(list).and_then(Json::as_array).expect("a declared list");
    let name = |entry: &Json| entry.get("name").and_then(Json::as_str).map(str::to_string);
    entries.iter().map(|entry| name(entry).expect("a named entry")).collect()
}

/// `(n, path)` of every `BENCH_<n>.json` at the root, by ascending `n`.
fn bench_files() -> Vec<(u64, std::path::PathBuf)> {
    let mut files: Vec<_> = std::fs::read_dir(root())
        .expect("the repository root")
        .map(|entry| entry.expect("a directory entry").path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let number = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            let n = number.parse().unwrap_or_else(|_| panic!("{name}: not a change number"));
            Some((n, path))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn every_bench_file_is_a_whole_report_or_a_named_transcription() {
    let benchmark = parse(&root().join("BENCHMARK.json"));
    let (workloads, metrics) =
        (declared(&benchmark, "workloads"), declared(&benchmark, "end_to_end"));
    let files = bench_files();
    assert!(!files.is_empty(), "the trajectory has started");
    let mut measured = 0;
    for (n, path) in &files {
        let doc = parse(path);
        let name = path.display();
        assert_eq!(doc.get("pr").and_then(Json::as_u64), Some(*n), "{name}: the change it names");
        if doc.get("transcribed").and_then(Json::as_bool) == Some(true) {
            let claim = doc.get("claim").unwrap_or_else(|| panic!("{name}: no claim"));
            let field = |key| claim.get(key).and_then(Json::as_str).map(str::to_string);
            let workload = field("workload").unwrap_or_else(|| panic!("{name}: no workload"));
            let metric = field("metric").unwrap_or_else(|| panic!("{name}: no metric"));
            assert!(workloads.contains(&workload), "{name}: unknown workload {workload}");
            assert!(metrics.contains(&metric), "{name}: unknown metric {metric}");
            assert!(claim.get("claimed").and_then(Json::as_bool).is_some(), "{name}");
            continue;
        }
        measured += 1;
        for key in ["git_rev", "nproc"] {
            assert!(doc.get(key).is_some(), "{name}: no {key}");
        }
        let results = doc.get("results").unwrap_or_else(|| panic!("{name}: no results"));
        for workload in &workloads {
            let result = results.get(workload).unwrap_or_else(|| panic!("{name}: no {workload}"));
            for metric in &metrics {
                let value = result.get("metrics").and_then(|m| m.get(metric)?.get("value"));
                assert!(
                    value.and_then(Json::as_f64).is_some(),
                    "{name}: {workload} has no {metric}"
                );
            }
        }
    }
    assert!(measured > 0, "at least one report was measured, not transcribed");
}
