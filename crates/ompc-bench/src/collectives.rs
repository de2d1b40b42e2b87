//! The collective data-movement figure: one shared read-only buffer
//! distributed to k reader nodes in a single planning step, star
//! (`collective_min_fanout = 0`, every copy sourced from the head) against
//! the binomial broadcast tree (`collective_min_fanout = 2`, chunked
//! relays), as the fanout sweeps upward on the real cluster.
//!
//! The figure the paper's §4.2 event system motivates: with k head-sourced
//! sends the head link carries k full payloads back to back, while the
//! tree drains the head after ⌈log₂(k+1)⌉ copies and lets recipients relay
//! the rest. The rows record wall time plus the *wire* bytes of the shared
//! buffer split by source — `head_bytes` is what crossed the head's link,
//! `total_bytes` what crossed any link — straight from the region's
//! transfer log, so the byte columns are exact rather than modelled.
//! Results are byte-checked across modes: the tree is a wire-layout knob,
//! never a results knob.

use crate::report::JsonRow;
use ompc_core::prelude::*;
use ompc_json::Json;
use std::time::Instant;

/// Problem dimensions of the collective-distribution workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveWorkload {
    /// Fanouts (reader node counts) measured; one device per fanout.
    pub max_fanout: usize,
    /// Shared payload length in doubles (8 bytes each).
    pub payload_len: usize,
    /// Frame size of the chunked tree stream, in KiB.
    pub chunk_kib: usize,
    /// Emulated per-node link bandwidth in MiB/s
    /// ([`OmpcConfig::emulated_link_mib_per_s`], applied to star and tree
    /// alike). The in-process substrate delivers at memcpy speed, where no
    /// link is ever scarce; pacing the egress makes head-link congestion —
    /// the thing the tree exists to relieve — measurable in wall time.
    pub link_mib_per_s: usize,
    /// Timed repetitions per cell; the fastest is reported.
    pub repeats: usize,
}

impl CollectiveWorkload {
    /// The CI-sized workload: 1 MiB payload over emulated 256 MiB/s links
    /// (slow enough that wire time dominates the host's copy costs even on
    /// a small CI box), fanouts 2/4/8.
    pub fn smoke() -> Self {
        Self {
            max_fanout: 8,
            payload_len: 1 << 17,
            chunk_kib: 128,
            link_mib_per_s: 256,
            repeats: 3,
        }
    }

    /// The full figure: 2 MiB payload, fanouts 2..=8.
    pub fn full() -> Self {
        Self {
            max_fanout: 8,
            payload_len: 1 << 18,
            chunk_kib: 128,
            link_mib_per_s: 256,
            repeats: 3,
        }
    }

    /// The fanouts one run of the figure sweeps.
    pub fn fanouts(&self, smoke: bool) -> Vec<usize> {
        if smoke {
            [2, 4, 8].iter().copied().filter(|&k| k <= self.max_fanout).collect()
        } else {
            (2..=self.max_fanout).collect()
        }
    }
}

/// One cell of the collectives figure.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveRow {
    /// Backend measured.
    pub backend: BackendKind,
    /// Reader nodes the shared buffer reaches in one planning step.
    pub fanout: usize,
    /// `"star"` (collectives off) or `"tree"` (binomial broadcast).
    pub mode: &'static str,
    /// Wall time of the whole region in seconds (best of the repeats).
    pub seconds: f64,
    /// Wire bytes of the shared buffer sourced by the head node.
    pub head_bytes: u64,
    /// Wire bytes of the shared buffer over every link.
    pub total_bytes: u64,
}

/// Run the k-reader region once and return (outputs, shared-buffer
/// transfer edges as (from, to, bytes), wall seconds).
fn run_distribution(
    workload: CollectiveWorkload,
    backend: BackendKind,
    fanout: usize,
    tree: bool,
) -> (Vec<f64>, Vec<(usize, usize, u64)>, f64) {
    let config = OmpcConfig {
        backend,
        collective_min_fanout: if tree { 2 } else { 0 },
        collective_chunk_kib: if tree { workload.chunk_kib } else { 0 },
        emulated_link_mib_per_s: workload.link_mib_per_s,
        ..OmpcConfig::small()
    };
    let mut device = ClusterDevice::with_config(fanout, config);
    let kernel = device.register_kernel_fn("collective-reduce", 1e-3, |args| {
        let total: f64 = args.as_f64s(0).iter().sum();
        let factor = args.as_f64s(1)[0];
        args.set_f64s(2, &[total * factor]);
    });
    let payload: Vec<f64> = (0..workload.payload_len).map(|i| (i % 1000) as f64 * 1e-3).collect();

    let start = Instant::now();
    let mut region = device.target_region();
    let shared = region.map_to_f64s(&payload);
    let mut outs = Vec::new();
    for reader in 0..fanout {
        let factor = region.map_to_f64s(&[(reader + 1) as f64]);
        let out = region.map_alloc(8);
        region.target(
            kernel,
            vec![Dependence::input(shared), Dependence::input(factor), Dependence::output(out)],
        );
        region.map_from(out);
        outs.push(out);
    }
    region.run().expect("collective region");
    let seconds = start.elapsed().as_secs_f64();

    let outputs: Vec<f64> =
        outs.iter().map(|&o| device.buffer_f64s(o).expect("reader output")[0]).collect();
    let record = device.last_run_record().expect("run record");
    let edges: Vec<(usize, usize, u64)> = record
        .transfers
        .iter()
        .filter(|t| t.buffer == shared)
        .map(|t| (t.from, t.to, t.bytes))
        .collect();
    device.shutdown();
    (outputs, edges, seconds)
}

/// The collectives figure: star and tree at every fanout on the real
/// cluster, best-of-repeats timing, exact logged wire bytes. Panics if
/// the tree changes any reader's result relative to the star run.
pub fn run_collectives(workload: CollectiveWorkload, fanouts: &[usize]) -> Vec<CollectiveRow> {
    let mut rows = Vec::new();
    for &fanout in fanouts {
        let backend = BackendKind::Mpi;
        let mut reference: Option<Vec<f64>> = None;
        for (mode, tree) in [("star", false), ("tree", true)] {
            let mut best = f64::INFINITY;
            let mut bytes = (0u64, 0u64);
            for _ in 0..workload.repeats.max(1) {
                let (outputs, edges, seconds) = run_distribution(workload, backend, fanout, tree);
                match &reference {
                    None => reference = Some(outputs),
                    Some(want) => assert_eq!(
                        want,
                        &outputs,
                        "{mode} at fanout {fanout} on {} changed a reader's result",
                        backend.name()
                    ),
                }
                best = best.min(seconds);
                let head: u64 = edges.iter().filter(|e| e.0 == 0).map(|e| e.2).sum();
                let total: u64 = edges.iter().map(|e| e.2).sum();
                bytes = (head, total);
            }
            rows.push(CollectiveRow {
                backend,
                fanout,
                mode,
                seconds: best,
                head_bytes: bytes.0,
                total_bytes: bytes.1,
            });
        }
    }
    rows
}

/// The `--smoke` acceptance gate, a deterministic wire fact: at fanout 8
/// the star sources 8 payloads from the head and the binomial tree
/// ⌈log₂ 9⌉ = 4, so the logged head bytes must shrink by at least 2x.
/// Wall times are reported, never gated.
///
/// Returns the offending rows as human-readable findings.
pub fn collectives_gate_failures(rows: &[CollectiveRow]) -> Vec<String> {
    let mut failures = Vec::new();
    let cell = |backend: BackendKind, fanout: usize, mode: &str| {
        rows.iter().find(|r| r.backend == backend && r.fanout == fanout && r.mode == mode)
    };
    let backend = BackendKind::Mpi;
    let (Some(star), Some(tree)) = (cell(backend, 8, "star"), cell(backend, 8, "tree")) else {
        failures.push(format!("no fanout-8 star/tree rows measured on {}", backend.name()));
        return failures;
    };
    if tree.head_bytes * 2 > star.head_bytes {
        failures.push(format!(
            "{} fanout 8: tree head bytes {} vs star {} — the broadcast tree \
             does not halve the head link",
            backend.name(),
            tree.head_bytes,
            star.head_bytes
        ));
    }
    failures
}

impl JsonRow for CollectiveRow {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("backend", Json::str(self.backend.name())),
            ("fanout", Json::usize(self.fanout)),
            ("mode", Json::str(self.mode)),
            ("seconds", Json::num(self.seconds)),
            ("head_bytes", Json::num(self.head_bytes as f64)),
            ("total_bytes", Json::num(self.total_bytes as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_rows_record_the_head_link_reduction() {
        let workload = CollectiveWorkload {
            max_fanout: 4,
            payload_len: 1 << 10,
            chunk_kib: 4,
            link_mib_per_s: 0,
            repeats: 1,
        };
        let rows = run_collectives(workload, &[4]);
        assert_eq!(rows.len(), 2, "star and tree");
        let payload_bytes = (workload.payload_len * 8) as u64;
        let backend = BackendKind::Mpi;
        let star =
            rows.iter().find(|r| r.backend == backend && r.mode == "star").expect("star row");
        let tree =
            rows.iter().find(|r| r.backend == backend && r.mode == "tree").expect("tree row");
        assert_eq!(star.head_bytes, 4 * payload_bytes);
        assert_eq!(star.total_bytes, 4 * payload_bytes);
        assert_eq!(tree.head_bytes, 3 * payload_bytes, "head feeds slots 1, 2, 4");
        assert_eq!(tree.total_bytes, 4 * payload_bytes, "one relay edge");
    }
}
