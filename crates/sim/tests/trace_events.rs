//! The replay's trace events, read back from the cws-obs trace a traced
//! replay emits. The trace sink is process-global, so this check lives
//! in a test binary of its own: no other test can emit into the ring.

use cws_core::Strategy;
use cws_dag::WorkflowBuilder;
use cws_obs::{self as obs, RingSink, TraceEvent};
use cws_platform::Platform;
use cws_sim::simulate;
use std::sync::Arc;

#[test]
fn traced_replay_is_chronological_and_complete() {
    let mut b = WorkflowBuilder::new("diamond");
    let a = b.task("a", 100.0);
    let x = b.task("x", 200.0);
    let y = b.task("y", 300.0);
    let z = b.task("z", 100.0);
    b.edge(a, x).edge(a, y).edge(x, z).edge(y, z);
    let wf = b.build().unwrap();
    let p = Platform::ec2_paper();
    let sched = Strategy::BASELINE.schedule(&wf, &p);

    let ring = Arc::new(RingSink::new(1 << 16));
    obs::install_sink(ring.clone());
    let report = simulate(&wf, &p, &sched);
    obs::clear_sink();
    report.verify_against(&sched, 1e-6).unwrap();

    // The billing events (BTU boundaries, reclaims) are emitted per VM
    // after the replay ends; the events before them follow the clock.
    let events = ring.events();
    let replay: Vec<&TraceEvent> = events
        .iter()
        .take_while(|e| {
            !matches!(
                e,
                TraceEvent::BtuBoundary { .. } | TraceEvent::VmReclaim { .. }
            )
        })
        .collect();
    for w in replay.windows(2) {
        assert!(w[0].time() <= w[1].time() + 1e-12, "{w:?}");
    }
    for task in wf.ids() {
        let t = task.index() as u32;
        let starts = replay
            .iter()
            .filter(|e| matches!(e, TraceEvent::TaskStart { task, .. } if *task == t))
            .count();
        let finishes = replay
            .iter()
            .filter(|e| matches!(e, TraceEvent::TaskFinish { task, .. } if *task == t))
            .count();
        assert_eq!((starts, finishes), (1, 1), "task {task}");
    }
    assert_eq!(
        replay
            .iter()
            .filter(|e| matches!(e, TraceEvent::VmBoot { .. }))
            .count(),
        sched.vm_count()
    );
}
