//! The simulator's two replay paths, held together. With a trace sink
//! installed, `Simulator::run_perturbed` replays through the event
//! queue, the only path that emits trace events. With none, a
//! consistent plan replays in one pass in dependency order. Both must
//! report the same `events_processed` and the same bits of every
//! observed start, finish and VM and of the makespan.
//!
//! Plans are drawn on layered and pegasus-shaped DAGs with Pareto
//! runtimes and Pareto data sizes, for every paper pairing, at boot 0
//! or 120 s, with plain or perturbed durations. Each plan is also
//! replayed tampered three times: with VM lists reversed, which
//! deadlocks whenever a reversed list holds a dependency; with one task
//! moved to another VM's list without updating its placement, which
//! makes the plan inconsistent, so both runs take the queue; and with
//! one VM relabelled with an id past the fleet, which both replays
//! ignore, since they index VMs by position. The trace sink is
//! process-global, so this check lives in a test binary of its own,
//! with a single test.

use std::sync::Arc;

use cloud_workflow_sched::core::VmId;
use cloud_workflow_sched::prelude::*;
use cloud_workflow_sched::sim::{SimReport, Simulator};
use cloud_workflow_sched::workloads::{
    layered_dag, CyberShakeShape, EpigenomicsShape, LayeredShape, LigoShape,
};
use cws_obs::{self as obs, RingSink};
use proptest::prelude::*;
// Both globs export a `Strategy` name (the scheduling enum and proptest's
// trait); the explicit import pins the unqualified name to the enum.
use cloud_workflow_sched::core::Strategy;
use proptest::strategy::Strategy as _;

/// A small DAG of one of five shapes, with Pareto runtimes and data
/// sizes.
fn arb_workflow() -> impl proptest::strategy::Strategy<Value = Workflow> {
    (0usize..5, 1usize..7, 1usize..7, 0.05f64..0.9, 0u64..1000).prop_map(
        |(shape, a, b, edge_prob, seed)| {
            let wf = match shape {
                0 => layered_dag(LayeredShape {
                    levels: a + 1,
                    min_width: 1,
                    max_width: b,
                    edge_prob,
                    seed,
                }),
                1 => epigenomics(EpigenomicsShape {
                    lanes: a.min(3),
                    chunks_per_lane: b,
                }),
                2 => cybershake(CyberShakeShape { synthesis: a + b }),
                3 => ligo(LigoShape {
                    groups: a.min(3),
                    banks_per_group: b,
                }),
                _ => montage_24(),
            };
            DataSizeModel::ParetoSizes { seed }.apply(&Scenario::Pareto { seed }.apply(&wf))
        },
    )
}

/// Replay `plan` with the queue (a sink installed) and with no sink,
/// and require the two reports to agree bit for bit.
fn assert_paths_agree(
    wf: &Workflow,
    platform: &Platform,
    plan: &Schedule,
    factor: &dyn Fn(TaskId) -> f64,
) {
    let sim = Simulator::new(wf, platform, plan);
    obs::install_sink(Arc::new(RingSink::new(16)));
    let queue = sim.run_perturbed(|t, d| d * factor(t));
    obs::clear_sink();
    let pass = sim.run_perturbed(|t, d| d * factor(t));
    prop_assert_eq!(bits(&queue), bits(&pass), "{}", plan.strategy);
}

/// Everything a report says, as comparable bits.
fn bits(r: &SimReport) -> (usize, u64, Vec<(u64, u64, u32)>) {
    let tasks = r
        .tasks
        .iter()
        .map(|t| (t.start.to_bits(), t.finish.to_bits(), t.vm.0))
        .collect();
    (r.events_processed, r.makespan.to_bits(), tasks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn queue_and_pass_replay_bit_identically(
        wf in arb_workflow(),
        boot in (0usize..2).prop_map(|i| [0.0, 120.0][i]),
        perturbed in (0usize..2).prop_map(|i| i == 1),
        reversed in 0u64..u64::MAX,
        moved in (0usize..1000, 0usize..1000, 0usize..1000),
        relabelled in 0usize..1000,
    ) {
        obs::set_metrics_enabled(false);
        let platform = Platform::ec2_paper().with_boot_time(boot);
        let factor = |t: TaskId| {
            if perturbed {
                0.6 + 0.1 * (t.index() % 9) as f64
            } else {
                1.0
            }
        };
        for strategy in Strategy::paper_set() {
            let plan = strategy.schedule(&wf, &platform);
            assert_paths_agree(&wf, &platform, &plan, &factor);

            // Reverse the VM lists `reversed` picks: a consistent plan,
            // deadlocked whenever a reversed list holds a dependency.
            let mut tampered = plan.clone();
            for (v, vm) in tampered.vms.iter_mut().enumerate() {
                if reversed >> (v % 64) & 1 == 1 {
                    vm.tasks.reverse();
                }
            }
            assert_paths_agree(&wf, &platform, &tampered, &factor);

            // Move one task to another VM's list, placement unchanged.
            let vm_count = plan.vms.len();
            if vm_count > 1 {
                let (task, to, at) = moved;
                let task = TaskId((task % wf.len()) as u32);
                let from = plan.placements[task.index()].vm.index();
                let to = (from + 1 + to % (vm_count - 1)) % vm_count;
                let mut tampered = plan.clone();
                let list = &mut tampered.vms[from].tasks;
                let entry = list.remove(list.iter().position(|e| e.0 == task).unwrap());
                let list = &mut tampered.vms[to].tasks;
                list.insert(at % (list.len() + 1), entry);
                assert_paths_agree(&wf, &platform, &tampered, &factor);
            }

            // Give one VM an id past the fleet, placements unchanged.
            let mut tampered = plan.clone();
            tampered.vms[relabelled % vm_count].id = VmId((vm_count + relabelled) as u32);
            assert_paths_agree(&wf, &platform, &tampered, &factor);
        }
    }
}
