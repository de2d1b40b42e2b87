//! The "near-zero cost when disabled" gate, made deterministic: every
//! telemetry clock read goes through `monotonic_us()`, which counts
//! itself, so a run at the default `TelemetryLevel::Off` must finish with
//! the counter exactly where it started — no clock reads, no span
//! allocations, no measurable overhead. This lives in its own test binary
//! so no concurrently running `Spans`-level test can touch the
//! process-global counter mid-measurement.

use ompc::prelude::*;
use ompc::runtime::runtime::clock_reads;
use ompc_testutil::with_timeout;
use std::time::Duration;

#[test]
fn telemetry_off_reads_no_clock_on_either_real_backend() {
    with_timeout(Duration::from_secs(120), || {
        let before = clock_reads();
        let config = OmpcConfig::small();
        assert_eq!(config.telemetry, TelemetryLevel::Off, "Off is the default");
        let mut device = ClusterDevice::with_config(2, config);
        let bump = device.register_kernel_fn("bump", 1e-5, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0, 2.0]);
        region.target(bump, vec![Dependence::inout(a)]);
        region.target(bump, vec![Dependence::inout(a)]);
        region.map_from(a);
        region.run().unwrap();
        assert_eq!(device.buffer_f64s(a).unwrap(), vec![3.0, 4.0]);
        device.shutdown();
        assert_eq!(
            clock_reads(),
            before,
            "a telemetry-off run must never touch the monotonic clock"
        );
    });
}
