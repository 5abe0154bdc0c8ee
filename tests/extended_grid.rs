//! Extended cross-validation: the post-paper additions (Pegasus suite,
//! bag-of-tasks, PCH, SHEFT, heterogeneous-pool HEFT, FFD packing) must
//! satisfy the same invariants as the paper's strategies — structural
//! validity and exact discrete-event replay.

use cloud_workflow_sched::core::alloc::{bot_ffd, heft_pool, pch, sheft_deadline, PoolSpec};
use cloud_workflow_sched::core::frontier::{frontier_only, pareto_front, CandidateSet};
use cloud_workflow_sched::prelude::*;
use cloud_workflow_sched::workloads::bag_of_tasks;
use cloud_workflow_sched::workloads::pegasus::{
    cybershake, epigenomics, ligo, CyberShakeShape, EpigenomicsShape, LigoShape,
};

fn pegasus_suite() -> Vec<Workflow> {
    vec![
        epigenomics(EpigenomicsShape {
            lanes: 2,
            chunks_per_lane: 3,
        }),
        cybershake(CyberShakeShape { synthesis: 12 }),
        ligo(LigoShape {
            groups: 2,
            banks_per_group: 3,
        }),
    ]
}

#[test]
fn paper_strategies_handle_the_pegasus_suite() {
    let platform = Platform::ec2_paper();
    for wf in pegasus_suite() {
        let wf = Scenario::Pareto { seed: 17 }.apply(&wf);
        for strategy in Strategy::paper_set() {
            let s = strategy.schedule(&wf, &platform);
            s.validate(&wf, &platform)
                .unwrap_or_else(|e| panic!("{} / {}: {e}", wf.name(), strategy.label()));
            verify(&wf, &platform, &s, 1e-6)
                .unwrap_or_else(|e| panic!("{} / {}: {e}", wf.name(), strategy.label()));
        }
    }
}

#[test]
fn extension_schedulers_replay_exactly() {
    let platform = Platform::ec2_paper();
    let wf = Scenario::Pareto { seed: 8 }.apply(&montage_24());
    let candidates = vec![
        pch(&wf, &platform, InstanceType::Medium),
        heft_pool(&wf, &platform, &PoolSpec::default()),
        heft_pool(
            &wf,
            &platform,
            &PoolSpec {
                rentable: vec![InstanceType::Small, InstanceType::Large],
                max_vms: Some(6),
            },
        ),
        sheft_deadline(&wf, &platform, wf.total_work()).schedule,
    ];
    for s in candidates {
        s.validate(&wf, &platform)
            .unwrap_or_else(|e| panic!("{}: {e}", s.strategy));
        verify(&wf, &platform, &s, 1e-6).unwrap_or_else(|e| panic!("{}: {e}", s.strategy));
    }
}

#[test]
fn insertion_heft_replays_exactly() {
    // Gap-inserted tasks execute chronologically per VM; the eager DES
    // must reproduce exactly the planned times (see state.rs docs).
    let platform = Platform::ec2_paper();
    for wf in paper_workflows() {
        let wf = Scenario::Pareto { seed: 12 }.apply(&wf);
        for machines in [1, 2, 4, 8] {
            let s = cloud_workflow_sched::core::alloc::heft_insertion(
                &wf,
                &platform,
                InstanceType::Small,
                machines,
            );
            s.validate(&wf, &platform)
                .unwrap_or_else(|e| panic!("{} x{machines}: {e}", wf.name()));
            verify(&wf, &platform, &s, 1e-6)
                .unwrap_or_else(|e| panic!("{} x{machines}: {e}", wf.name()));
        }
    }
}

#[test]
fn insertion_heft_never_slower_than_capped_pool_heft() {
    let platform = Platform::ec2_paper();
    let wf = Scenario::Pareto { seed: 12 }.apply(&montage_24());
    for machines in [2usize, 4, 8] {
        let ins = cloud_workflow_sched::core::alloc::heft_insertion(
            &wf,
            &platform,
            InstanceType::Small,
            machines,
        );
        let pool = heft_pool(
            &wf,
            &platform,
            &PoolSpec {
                rentable: vec![InstanceType::Small],
                max_vms: Some(machines),
            },
        );
        assert!(
            ins.makespan() <= pool.makespan() + 1e-6,
            "machines {machines}: insertion {} vs append {}",
            ins.makespan(),
            pool.makespan()
        );
    }
}

#[test]
fn bot_ffd_replays_and_beats_one_vm_per_task_cost() {
    let platform = Platform::ec2_paper();
    let bag = Scenario::Pareto { seed: 33 }.apply(&bag_of_tasks(40));
    let packed = bot_ffd(&bag, &platform, InstanceType::Small, 1);
    packed.validate(&bag, &platform).unwrap();
    verify(&bag, &platform, &packed, 1e-6).unwrap();
    let one = Strategy::BASELINE.schedule(&bag, &platform);
    assert!(packed.rental_cost(&platform) <= one.rental_cost(&platform) + 1e-9);
    assert!(packed.total_btus() <= one.total_btus());
}

#[test]
fn frontier_holds_across_pegasus_workflows() {
    let platform = Platform::ec2_paper();
    for wf in pegasus_suite() {
        let wf = Scenario::Pareto { seed: 23 }.apply(&wf);
        let points = pareto_front(&wf, &platform, CandidateSet::default());
        let front = frontier_only(&points);
        assert!(!front.is_empty(), "{}", wf.name());
        // the frontier is consistent: no member dominates another
        for a in &front {
            for b in &front {
                if a.label == b.label {
                    continue;
                }
                let dominates = a.makespan <= b.makespan + 1e-9
                    && a.cost <= b.cost + 1e-9
                    && (a.makespan < b.makespan - 1e-9 || a.cost < b.cost - 1e-9);
                assert!(
                    !dominates,
                    "{}: {} dominates {}",
                    wf.name(),
                    a.label,
                    b.label
                );
            }
        }
    }
}

#[test]
fn trace_round_trips_every_generator() {
    let mut all = pegasus_suite();
    all.extend(paper_workflows());
    all.push(bag_of_tasks(10));
    for wf in all {
        let parsed = Workflow::from_json(&wf.to_json()).expect("round trip parses");
        assert_eq!(parsed, wf, "{}", wf.name());
    }
}

#[test]
fn adaptive_selector_handles_every_workload_family() {
    let platform = Platform::ec2_paper();
    let mut all = pegasus_suite();
    all.extend(paper_workflows());
    all.push(bag_of_tasks(25));
    for wf in all {
        let wf = Scenario::Pareto { seed: 29 }.apply(&wf);
        for obj in [Objective::Savings, Objective::Gain, Objective::Balanced] {
            let strategy = select_strategy(&wf, obj);
            let s = strategy.schedule(&wf, &platform);
            s.validate(&wf, &platform)
                .unwrap_or_else(|e| panic!("{} / {obj}: {e}", wf.name()));
        }
    }
}

#[test]
fn jitter_replays_stay_precedence_consistent() {
    // Under jitter the observed schedule must still respect precedence:
    // every task starts at or after each predecessor's observed finish.
    let platform = Platform::ec2_paper();
    let wf = Scenario::Pareto { seed: 4 }.apply(&cstem());
    let plan = Strategy::parse("AllParExceed-s")
        .unwrap()
        .schedule(&wf, &platform);
    let sim = cloud_workflow_sched::sim::Simulator::new(&wf, &platform, &plan);
    let factors = JitterModel::new(0.3, 77).factors(wf.len(), 0);
    let report = sim.run_perturbed(|t, d| d * factors[t.index()]);
    for id in wf.ids() {
        for e in wf.predecessors(id) {
            assert!(
                report.tasks[id.index()].start >= report.tasks[e.from.index()].finish - 1e-6,
                "{id} starts before {} finishes under jitter",
                e.from
            );
        }
    }
}
