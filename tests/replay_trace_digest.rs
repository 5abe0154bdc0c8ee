//! The replay's trace bytes, pinned across commits. Thread invariance
//! and reconciliation compare a build with itself; this test compares
//! it with the recorded digests of an earlier build, so a change to the
//! simulator's event order shows up even when every replay still
//! matches its plan.
//!
//! Every one of the 19 paper pairings is replayed twice, once plainly
//! and once with perturbed durations, at boot 0 and 120 s, on three
//! shapes: a layered DAG with uniform runtimes (many equal-time
//! events), Pareto epigenomics (pipelines) and montage-24 with Pareto
//! data sizes (distinct arrival times among one task's successors).
//! The `TraceEvent::to_json` lines of each shape fold into one FNV-1a
//! digest. The trace sink is process-global, so this check lives in a
//! test binary of its own.

use std::sync::Arc;

use cloud_workflow_sched::prelude::*;
use cloud_workflow_sched::sim::Simulator;
use cloud_workflow_sched::workloads::{layered_dag, EpigenomicsShape, LayeredShape};
use cws_obs::{self as obs, RingSink};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Run `replay` under a fresh ring sink, fold its trace lines into
/// `hash` and return the replay's `events_processed`.
fn traced(hash: &mut u64, replay: impl FnOnce() -> usize) -> usize {
    let ring = Arc::new(RingSink::new(1 << 20));
    obs::install_sink(ring.clone());
    let processed = replay();
    obs::clear_sink();
    let events = ring.events();
    assert_eq!(
        events.len() as u64,
        ring.recorded(),
        "the ring evicted trace events"
    );
    for e in &events {
        *hash = fnv1a(*hash, e.to_json().as_bytes());
        *hash = fnv1a(*hash, b"\n");
    }
    processed
}

/// Digest and summed `events_processed` of every replay of `wf`.
fn digest(wf: &Workflow) -> (u64, usize) {
    let mut hash = FNV_OFFSET;
    let mut processed = 0;
    for boot in [0.0, 120.0] {
        let platform = Platform::ec2_paper().with_boot_time(boot);
        for strategy in Strategy::paper_set() {
            let plan = strategy.schedule(wf, &platform);
            let sim = Simulator::new(wf, &platform, &plan);
            processed += traced(&mut hash, || sim.run().events_processed);
            processed += traced(&mut hash, || {
                sim.run_perturbed(|t, d| d * (0.8 + 0.1 * (t.index() % 5) as f64))
                    .events_processed
            });
        }
    }
    (hash, processed)
}

#[test]
fn replay_trace_bytes_match_the_recorded_digests() {
    obs::set_metrics_enabled(false);
    let layered = layered_dag(LayeredShape {
        levels: 8,
        min_width: 50,
        max_width: 50,
        edge_prob: 0.1,
        seed: 42,
    });
    let epigenomics = Scenario::Pareto { seed: 42 }.apply(&epigenomics(EpigenomicsShape {
        lanes: 10,
        chunks_per_lane: 20,
    }));
    let montage = DataSizeModel::ParetoSizes { seed: 42 }
        .apply(&Scenario::Pareto { seed: 42 }.apply(&montage_24()));
    let expected: [(&Workflow, u64, usize); 3] = [
        (&layered, 0x24ba_b036_1b7a_1ff6, 177_892),
        (&epigenomics, 0x0a9f_38fa_3d8c_b6d8, 171_876),
        (&montage, 0x5000_d2d6_9c9c_8f61, 6_508),
    ];
    for (wf, hash, processed) in expected {
        let got = digest(wf);
        assert_eq!(
            got,
            (hash, processed),
            "{}: replay trace digest {:#018x} over {} events, recorded {:#018x} over {}",
            wf.name(),
            got.0,
            got.1,
            hash,
            processed
        );
    }
}
