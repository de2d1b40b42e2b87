//! Quickstart: the paper's Listing 1 expressed with the Rust OMPC API.
//!
//! Two target tasks, `foo` and `bar`, operate on the same vector `A`. The
//! runtime distributes them to worker nodes, forwards `A` from `foo`'s node
//! to `bar`'s node without staging it on the head node, and brings the
//! result back when the region ends.
//!
//! Run with: `cargo run --example quickstart`

use ompc::prelude::*;

// The kernel names mirror the paper's Listing 1, which literally calls them
// `foo` and `bar`.
#[allow(clippy::disallowed_names)]
fn main() {
    // A cluster of 1 head node + 3 worker nodes, all as threads in this
    // process (the in-process analogue of `mpirun -np 4`).
    let mut device = ClusterDevice::spawn(3);

    // The bodies of the two `#pragma omp target` regions of Listing 1.
    let foo = device.register_kernel_fn("foo", 1e-4, |args| {
        let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
        args.set_f64s(0, &v);
    });
    let bar = device.register_kernel_fn("bar", 1e-4, |args| {
        let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * 10.0).collect();
        args.set_f64s(0, &v);
    });

    // #pragma omp target enter data map(to: A[:N]) nowait depend(out: *A)
    // #pragma omp target nowait depend(inout: *A)      -> foo(A)
    // #pragma omp target nowait depend(inout: *A)      -> bar(A)
    // #pragma omp target exit data map(from: A[:N]) nowait depend(out: *A)
    let mut region = device.target_region();
    let a = region.map_to_f64s(&[1.0, 2.0, 3.0, 4.0]);
    region.target(foo, vec![Dependence::inout(a)]);
    region.target(bar, vec![Dependence::inout(a)]);
    region.map_from(a);

    // The implicit barrier: the whole graph is scheduled with HEFT and
    // executed across the cluster.
    let report = region.run().expect("region execution failed");

    let result = device.buffer_f64s(a).expect("buffer must exist");
    println!("A after foo/bar on the cluster : {result:?}");
    println!("target tasks executed          : {}", report.target_tasks);
    println!("data movements                 : {}", report.data_events);
    println!("bytes moved between nodes      : {}", report.bytes_moved);
    println!("schedule time                  : {:?}", report.schedule_time);
    println!("execution time                 : {:?}", report.execution_time);
    assert_eq!(result, vec![20.0, 30.0, 40.0, 50.0]);

    device.shutdown();
    let device_report = device.report();
    println!("cluster startup                : {:?}", device_report.startup_time);
    println!("cluster shutdown               : {:?}", device_report.shutdown_time);
}
