//! The target-region builder: the user-facing analogue of OpenMP's
//! `target enter data` / `target nowait depend(...)` / `target exit data`
//! constructs (paper Listing 1 and §3).

use crate::buffer::BufferRegistry;
use crate::cluster::{ClusterDevice, HostFn};
use crate::runtime::RunRecord;
use crate::stats::RegionReport;
use crate::task::{RegionGraph, TaskKind};
use crate::types::{BufferId, Dependence, KernelId, MapType, OmpcResult, TaskId};
use std::collections::HashMap;
use std::sync::Arc;

/// A single-shot target region under construction.
///
/// Tasks are recorded in program order, dependence edges are derived from
/// the `depend` clauses, and nothing executes until [`TargetRegion::run`] is
/// called — mirroring the OMPC runtime, which delays execution to the
/// implicit barrier so the whole graph can be scheduled at once with HEFT.
pub struct TargetRegion<'d> {
    device: &'d ClusterDevice,
    graph: RegionGraph,
    host_fns: HashMap<usize, HostFn>,
}

impl<'d> TargetRegion<'d> {
    pub(crate) fn new(device: &'d ClusterDevice) -> Self {
        Self { device, graph: RegionGraph::new(), host_fns: HashMap::new() }
    }

    /// Number of tasks recorded so far.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether no tasks have been recorded.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// The region's task graph (for inspection and tests).
    pub fn graph(&self) -> &RegionGraph {
        &self.graph
    }

    /// `target enter data map(to: data)`: register `data` as a new buffer
    /// and schedule its distribution to the cluster.
    pub fn map_to(&mut self, data: Vec<u8>) -> BufferId {
        let buffer = self.device.buffers().register(data);
        self.enter_data(buffer, MapType::To);
        buffer
    }

    /// Convenience: [`TargetRegion::map_to`] for a slice of `f64`s.
    pub fn map_to_f64s(&mut self, values: &[f64]) -> BufferId {
        self.map_to(ompc_mpi::typed::f64s_to_bytes(values))
    }

    /// `target enter data map(alloc:)`: register a zero-filled buffer of
    /// `size` bytes that will be allocated on the cluster without copying.
    pub fn map_alloc(&mut self, size: usize) -> BufferId {
        let buffer = self.device.buffers().register_uninit(size);
        self.enter_data(buffer, MapType::Alloc);
        buffer
    }

    /// [`TargetRegion::map_to`] with **keep-resident** semantics
    /// ([`MapType::ToResident`]): the buffer is distributed once and then
    /// stays mapped on its worker across region executions. A later
    /// [`TargetRegion::map_from`] flushes its contents to the host without
    /// dropping the device copies; only [`TargetRegion::release`] (or the
    /// device-level [`crate::cluster::ClusterDevice::exit_data`]) ends the
    /// mapping. Re-entering the buffer in a later region generates **no**
    /// transfer — the residency-aware data manager sees it is already
    /// present.
    pub fn map_to_resident(&mut self, data: Vec<u8>) -> BufferId {
        let buffer = self.device.buffers().register(data);
        self.enter_data(buffer, MapType::ToResident);
        buffer
    }

    /// Convenience: [`TargetRegion::map_to_resident`] for a slice of
    /// `f64`s.
    pub fn map_to_resident_f64s(&mut self, values: &[f64]) -> BufferId {
        self.map_to_resident(ompc_mpi::typed::f64s_to_bytes(values))
    }

    /// Add an explicit `target enter data` task for an existing buffer.
    pub fn enter_data(&mut self, buffer: BufferId, map: MapType) -> TaskId {
        self.graph.add_task(
            TaskKind::EnterData { buffer, map },
            vec![Dependence::output(buffer)],
            format!("enter-data {buffer}"),
        )
    }

    /// `target nowait depend(...)`: offload `kernel` with the given
    /// dependences. The kernel's cost hint is taken from its registration.
    pub fn target(&mut self, kernel: KernelId, dependences: Vec<Dependence>) -> TaskId {
        self.target_labeled(kernel, dependences, format!("{kernel}"))
    }

    /// [`TargetRegion::target`] with an explicit trace label.
    pub fn target_labeled(
        &mut self,
        kernel: KernelId,
        dependences: Vec<Dependence>,
        label: impl Into<String>,
    ) -> TaskId {
        let cost_hint = self.device.kernel_cost(kernel);
        self.graph.add_task(TaskKind::Target { kernel, cost_hint }, dependences, label)
    }

    /// [`TargetRegion::target`] with an explicit cost hint in seconds,
    /// overriding the kernel's registered hint (useful when the cost
    /// depends on the buffer sizes of this particular invocation).
    pub fn target_with_cost(
        &mut self,
        kernel: KernelId,
        cost_hint: f64,
        dependences: Vec<Dependence>,
        label: impl Into<String>,
    ) -> TaskId {
        self.graph.add_task(TaskKind::Target { kernel, cost_hint }, dependences, label)
    }

    /// A classical OpenMP task: runs on the head node with access to the
    /// host buffer registry, ordered by its dependences like any other task.
    pub fn host_task<F>(&mut self, dependences: Vec<Dependence>, f: F) -> TaskId
    where
        F: Fn(&BufferRegistry) + Send + Sync + 'static,
    {
        let id = self.graph.add_task(
            TaskKind::Host { cost_hint: 1e-5 },
            dependences,
            "host-task".to_string(),
        );
        self.host_fns.insert(id.0, Arc::new(f));
        id
    }

    /// Add an explicit `target exit data` task.
    ///
    /// As in the paper's Listing 1 (`depend(out: *A)`), the exit-data task
    /// carries an `inout` dependence so it is ordered after every earlier
    /// reader and writer of the buffer — the device copies must not be
    /// released while other tasks may still consume them.
    pub fn exit_data(&mut self, buffer: BufferId, map: MapType) -> TaskId {
        self.graph.add_task(
            TaskKind::ExitData { buffer, map },
            vec![Dependence::inout(buffer)],
            format!("exit-data {buffer}"),
        )
    }

    /// `target exit data map(from:)`: bring the buffer's latest contents
    /// back to the host and release the device copies — unless the buffer
    /// is **keep-resident** ([`TargetRegion::map_to_resident`] /
    /// [`crate::cluster::ClusterDevice::enter_data`]), in which case this
    /// is a flush: the host copy is brought up to date and the device
    /// copies stay mapped for later regions.
    pub fn map_from(&mut self, buffer: BufferId) -> TaskId {
        self.exit_data(buffer, MapType::From)
    }

    /// `target exit data map(release:)`: drop the device copies without
    /// copying back.
    pub fn release(&mut self, buffer: BufferId) -> TaskId {
        self.exit_data(buffer, MapType::Release)
    }

    /// Execute the region: schedule the whole graph, dispatch the tasks to
    /// the worker nodes, and wait for completion (the implicit barrier at
    /// the end of an OpenMP parallel region).
    pub fn run(self) -> OmpcResult<RegionReport> {
        self.device.execute_region(self.graph, self.host_fns)
    }

    /// [`TargetRegion::run`], additionally returning this execution's own
    /// [`RunRecord`] (assignment, dispatch and completion orders, transfer
    /// plan, telemetry spans). With concurrent clients over one device,
    /// [`ClusterDevice::last_run_record`] only exposes whichever execution
    /// finished last; `run_recorded` hands each client the record of *its*
    /// region without racing the device-level slot.
    pub fn run_recorded(self) -> OmpcResult<(RegionReport, RunRecord)> {
        self.device.execute_region_recorded(self.graph, self.host_fns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::EdgeKind;

    #[test]
    fn region_builder_creates_expected_graph_shape() {
        let device = ClusterDevice::spawn(1);
        let k = device.register_kernel_fn("k", 1e-6, |_| {});
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0]);
        let b = region.map_alloc(8);
        let t1 = region.target(k, vec![Dependence::input(a), Dependence::output(b)]);
        let t2 = region.target(k, vec![Dependence::inout(b)]);
        region.map_from(b);
        region.release(a);

        let g = region.graph();
        assert_eq!(g.len(), 6);
        assert!(!region.is_empty());
        assert_eq!(region.len(), 6);
        // t1 depends on both enter-data tasks, t2 on t1.
        assert_eq!(g.predecessors(t1).len(), 2);
        assert_eq!(g.predecessors(t2), &[t1]);
        // The flow edge t1 -> t2 exists because t1 writes b and t2 reads it.
        assert!(g.edges().iter().any(|e| e.from == t1 && e.to == t2 && e.kind == EdgeKind::Flow));
    }

    #[test]
    fn exit_data_depends_on_last_writer() {
        let device = ClusterDevice::spawn(1);
        let k = device.register_kernel_fn("k", 1e-6, |_| {});
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[0.0]);
        let w = region.target(k, vec![Dependence::inout(a)]);
        let exit = region.map_from(a);
        let g = region.graph();
        assert_eq!(g.predecessors(exit), &[w]);
    }

    #[test]
    fn target_with_cost_overrides_hint() {
        let device = ClusterDevice::spawn(1);
        let k = device.register_kernel_fn("k", 1e-6, |_| {});
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[0.0]);
        let t = region.target_with_cost(k, 2.5, vec![Dependence::inout(a)], "expensive");
        match region.graph().task(t).kind {
            TaskKind::Target { cost_hint, .. } => assert!((cost_hint - 2.5).abs() < 1e-12),
            _ => panic!("expected a target task"),
        }
    }
}
