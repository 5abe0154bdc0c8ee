//! Fast kernel == naive reference kernel, at the workspace gate: all 19
//! paper pairings on three WfCommons shapes must build exactly the
//! schedules `cws_core::state::naive` builds. The fast side borrows one
//! shared `KernelTables` per workflow, as every sweep does. The crate's
//! property suite covers random and small shapes; this pins the larger
//! pipeline, broadcast and join shapes the kernel's shortcuts target.

use cloud_workflow_sched::core::state::naive;
use cloud_workflow_sched::core::KernelTables;
use cloud_workflow_sched::prelude::*;
use cloud_workflow_sched::workloads::{CyberShakeShape, EpigenomicsShape};

/// Run `f` on the naive reference kernel, switching back even on panic.
fn on_reference_kernel<T>(f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            naive::set_reference_kernel(false);
        }
    }
    naive::set_reference_kernel(true);
    let _reset = Reset;
    f()
}

#[test]
fn paper_set_fast_equals_naive_on_wfcommons_shapes() {
    let platform = Platform::ec2_paper();
    let workflows = [
        epigenomics(EpigenomicsShape {
            lanes: 10,
            chunks_per_lane: 20,
        }),
        cybershake(CyberShakeShape { synthesis: 200 }),
        montage_24(),
    ];
    for base in &workflows {
        let wf = Scenario::Pareto { seed: 42 }.apply(base);
        let tables = KernelTables::build(&wf, &platform);
        for strategy in Strategy::paper_set() {
            let fast = strategy.schedule_with(&wf, &platform, Some(&tables));
            let reference = on_reference_kernel(|| strategy.schedule(&wf, &platform));
            assert_eq!(
                fast,
                reference,
                "{} on {}: fast kernel diverged from the naive reference",
                strategy.label(),
                wf.name()
            );
        }
    }
}
