//! The multi-tenant figure: aggregate throughput of K independent client
//! surveys sharing one device, taking turns or overlapped.
//!
//! Each client is a small latency-bound survey: every region offloads one
//! kernel whose service time holds its worker for a fixed interval (the
//! regime where an offloaded region waits on the accelerator, not the head
//! CPU). In the "turns" row the harness holds one lock around each region,
//! so the tenants run one region at a time and the device's other workers
//! idle while one tenant's kernel holds its node. In the "overlapped" row
//! the device runs every region at once, as it does for any concurrent
//! callers: each tenant is planned around the others' in-flight load onto
//! distinct workers and their service times overlap — the aggregate
//! regions-per-second figure this module reports. The two modes are
//! measured in alternated rounds, each running both once in a rotating
//! order, and every row reports the median and interquartile range of its
//! rounds, plus how many rounds it beat the turns run of the same round.
//! Results are byte-checked across modes (the run panics on a difference):
//! overlap changes throughput, never results.

use crate::report::{quartiles, render_table, Figure, JsonRow};
use ompc_core::prelude::*;
use ompc_json::Json;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Problem dimensions of the multi-tenant workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultitenantWorkload {
    /// Concurrent client threads sharing the device.
    pub clients: usize,
    /// Regions each client executes back to back.
    pub regions_per_client: usize,
    /// Service time one kernel holds its worker, in milliseconds.
    pub service_ms: u64,
    /// Input payload per region, in doubles.
    pub payload_len: usize,
    /// Worker nodes (one per client, so full overlap is feasible).
    pub workers: usize,
    /// Alternated rounds; each times both modes once.
    pub rounds: usize,
}

impl MultitenantWorkload {
    /// The CI-sized workload: three tenants, service times long enough
    /// that overlap is measurable above timer noise.
    pub fn smoke() -> Self {
        Self {
            clients: 3,
            regions_per_client: 6,
            service_ms: 4,
            payload_len: 1 << 10,
            workers: 3,
            rounds: 10,
        }
    }

    /// The full figure: more tenants, more regions each.
    pub fn full() -> Self {
        Self {
            clients: 4,
            regions_per_client: 12,
            service_ms: 5,
            payload_len: 1 << 12,
            workers: 4,
            rounds: 10,
        }
    }
}

/// How the tenants share the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenancyMode {
    /// One region at a time: the harness serializes the tenants' regions.
    Turns,
    /// Every region runs as soon as its tenant calls it.
    Overlapped,
}

impl TenancyMode {
    /// Both modes, the baseline first.
    pub const ALL: [TenancyMode; 2] = [TenancyMode::Turns, TenancyMode::Overlapped];

    /// Name used in the table and the JSON rows.
    pub fn name(self) -> &'static str {
        match self {
            TenancyMode::Turns => "turns",
            TenancyMode::Overlapped => "overlapped",
        }
    }
}

/// One point of the multi-tenant figure.
#[derive(Debug, Clone, PartialEq)]
pub struct MultitenantRow {
    /// How the tenants shared the device.
    pub mode: TenancyMode,
    /// Client threads sharing the device.
    pub clients: usize,
    /// Total regions executed across all clients.
    pub regions: usize,
    /// Median wall time of the whole run over the rounds, in seconds.
    pub median_s: f64,
    /// First quartile of the wall time, in seconds.
    pub q1_s: f64,
    /// Third quartile of the wall time, in seconds.
    pub q3_s: f64,
    /// Aggregate throughput at the median wall time, in regions per second.
    pub regions_per_second: f64,
    /// Rounds in which this mode ran faster than the turns run of the same
    /// round.
    pub faster_than_turns: usize,
    /// Rounds measured.
    pub rounds: usize,
}

/// The deterministic per-region payload of one client.
fn client_payload(client: usize, round: usize, len: usize) -> Vec<f64> {
    (0..len).map(|i| ((i * 3 + client * 7 + round * 11) % 100) as f64 * 1e-2).collect()
}

/// Run the whole K-tenant workload once in one mode, returning (per-client
/// output sums in client order, wall seconds).
fn run_tenants(workload: MultitenantWorkload, mode: TenancyMode) -> (Vec<Vec<f64>>, f64) {
    let mut device = ClusterDevice::spawn(workload.workers);
    let service = Duration::from_millis(workload.service_ms);
    let kernel = device.register_kernel_fn(
        "tenant-survey",
        workload.service_ms as f64 * 1e-3,
        move |args| {
            // The modelled accelerator: the worker is held for the service
            // time, then produces the payload sum.
            std::thread::sleep(service);
            let total: f64 = args.as_f64s(0).iter().sum();
            args.set_f64s(1, &[total]);
        },
    );

    let turn = Mutex::new(());
    let start = Instant::now();
    let outputs: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.clients)
            .map(|client| {
                let (device, turn) = (&device, &turn);
                scope.spawn(move || {
                    (0..workload.regions_per_client)
                        .map(|round| {
                            let _turn = (mode == TenancyMode::Turns)
                                .then(|| turn.lock().expect("tenant turn"));
                            let mut region = device.target_region();
                            let input = region.map_to_f64s(&client_payload(
                                client,
                                round,
                                workload.payload_len,
                            ));
                            let out = region.map_alloc(8);
                            region.target(
                                kernel,
                                vec![Dependence::input(input), Dependence::output(out)],
                            );
                            region.map_from(out);
                            region.run().expect("tenant region");
                            device.buffer_f64s(out).expect("tenant output")[0]
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    device.shutdown();
    (outputs, seconds)
}

/// The multi-tenant figure: both modes, timed in alternated rounds (round
/// `r` starts with mode `r mod 2`), reported as the median and quartiles of
/// their rounds. Panics if overlap changes any client's results — an
/// overlapped run must be observationally identical to one in turns.
pub fn run_multitenant(workload: MultitenantWorkload) -> Vec<MultitenantRow> {
    let modes = TenancyMode::ALL;
    let rounds = workload.rounds.max(1);
    let mut seconds = vec![Vec::with_capacity(rounds); modes.len()];
    let mut reference: Option<Vec<Vec<f64>>> = None;
    for round in 0..rounds {
        for at in (0..modes.len()).map(|i| (i + round) % modes.len()) {
            let (outputs, wall) = run_tenants(workload, modes[at]);
            match &reference {
                None => reference = Some(outputs),
                Some(want) => {
                    assert_eq!(want, &outputs, "{} changed a tenant's results", modes[at].name())
                }
            }
            seconds[at].push(wall);
        }
    }
    let regions = workload.clients * workload.regions_per_client;
    let turns = seconds[0].clone();
    modes
        .iter()
        .zip(&seconds)
        .map(|(&mode, walls)| {
            let (q1_s, median_s, q3_s) = quartiles(walls);
            MultitenantRow {
                mode,
                clients: workload.clients,
                regions,
                median_s,
                q1_s,
                q3_s,
                regions_per_second: regions as f64 / median_s,
                faster_than_turns: walls.iter().zip(&turns).filter(|(w, t)| w < t).count(),
                rounds,
            }
        })
        .collect()
}

/// The multi-tenant figure as printed, at the CI size when `smoke`.
/// Panics if overlap changes a tenant's results.
pub fn figure(smoke: bool) -> Figure {
    let workload = if smoke { MultitenantWorkload::smoke() } else { MultitenantWorkload::full() };
    let rows = run_multitenant(workload);
    let turns = rows[0].regions_per_second;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.name().to_string(),
                r.clients.to_string(),
                r.regions.to_string(),
                format!("{:.4}", r.median_s),
                format!("{:.4}-{:.4}", r.q1_s, r.q3_s),
                format!("{:.1}", r.regions_per_second),
                format!("{:.2}x", r.regions_per_second / turns),
                format!("{}/{}", r.faster_than_turns, r.rounds),
            ]
        })
        .collect();
    let header =
        ["mode", "clients", "regions", "median s", "IQR s", "regions/s", "vs turns", "faster"];
    let text = format!(
        "\n{}\nIn turns the harness runs one region at a time; overlapped, the device runs \
         every tenant's region at once, planned around the others' in-flight load onto \
         distinct workers, so their service times overlap. Results are byte-checked across \
         modes — overlap changes throughput, never results.\n",
        render_table(&header, &table)
    );
    let title = format!(
        "Multi-tenant regions: {} clients x {} regions, {} ms service time, {} workers, {} \
         alternated rounds",
        workload.clients,
        workload.regions_per_client,
        workload.service_ms,
        workload.workers,
        workload.rounds,
    );
    Figure::new(title, text, &rows)
}

impl JsonRow for MultitenantRow {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("mode", Json::str(self.mode.name())),
            ("clients", Json::usize(self.clients)),
            ("regions", Json::usize(self.regions)),
            ("median_s", Json::num(self.median_s)),
            ("q1_s", Json::num(self.q1_s)),
            ("q3_s", Json::num(self.q3_s)),
            ("regions_per_second", Json::num(self.regions_per_second)),
            ("faster_than_turns", Json::usize(self.faster_than_turns)),
            ("rounds", Json::usize(self.rounds)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multitenant_rows_are_result_stable_across_modes() {
        let workload = MultitenantWorkload {
            clients: 2,
            regions_per_client: 2,
            service_ms: 1,
            payload_len: 64,
            workers: 2,
            rounds: 2,
        };
        let rows = run_multitenant(workload);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!((row.regions, row.rounds), (4, 2));
            assert!(0.0 < row.q1_s && row.q1_s <= row.median_s && row.median_s <= row.q3_s);
            assert!(row.regions_per_second > 0.0);
        }
        assert_eq!(rows[0].mode, TenancyMode::Turns);
        assert_eq!(rows[0].faster_than_turns, 0, "the turns run never beats itself");
    }
}
