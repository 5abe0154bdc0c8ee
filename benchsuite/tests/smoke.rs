//! One unit of every workload at seed 7, a seed the workloads were not
//! sized with, through the library entry point: untraced, then traced,
//! where the one-thread replica's output must equal the entry point's.
//! Keeps the replicas from drifting away from the entry points.

use cws_benchsuite::{end_to_end, per_layer, run, WORKLOADS};

#[test]
fn every_workload_passes_its_checks_at_seed_7() {
    // One test, not one per workload: the traced runs switch the
    // program's global counters on and off.
    for w in &WORKLOADS {
        for trace in [false, true] {
            let o = run(w.name, 7, 0.0, trace).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(
                o.correct && o.failed == 0,
                "{} trace={trace}: {o:?}",
                w.name
            );
            let names: Vec<&str> = o.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            let want = if trace { per_layer() } else { end_to_end() };
            let want: Vec<&str> = want.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, want, "{}", w.name);
            assert!(
                o.metrics.iter().all(|(_, v, _)| v.is_finite()),
                "{}: {o:?}",
                w.name
            );
            if trace {
                assert!(
                    o.spans.as_deref().is_some_and(|s| !s.is_empty()),
                    "{}",
                    w.name
                );
            } else {
                assert!(
                    o.metrics.iter().all(|(_, v, _)| *v > 0.0),
                    "{}: {o:?}",
                    w.name
                );
            }
        }
    }
}
