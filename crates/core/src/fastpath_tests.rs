//! Property tests proving the fast scheduling kernel (cached exec and
//! bandwidth/latency tables, level index, incremental busiest
//! tracking — see
//! [`crate::state`]) is *bit-identical* to the naive reference kernel
//! kept in [`crate::state::naive`].
//!
//! Every paper strategy plus the extended allocators (heterogeneous-pool
//! HEFT, insertion HEFT, Min-Min/Max-Min) is run twice on the same
//! workflow — once with the fast path, once with the thread-local
//! reference switch flipped — and the resulting [`Schedule`]s are
//! compared with `==` (exact f64 equality on every start/finish time, VM
//! meter and placement).

use crate::alloc::cpa::{baseline_cost, cpa_eager_types, one_vm_per_task_cost};
use crate::alloc::gain::gain_types;
use crate::alloc::levelpar::level_et_descending;
use crate::alloc::rent::budget_for_limit;
use crate::alloc::{heft_insertion, heft_pool, list_schedule, ListRule, PoolSpec};
use crate::pooled::{pooled_static, WarmVm};
use crate::schedule::Schedule;
use crate::state::{naive, KernelTables, LevelIndex, ScheduleBuilder};
use crate::strategy::{StaticAlloc, Strategy};
use crate::vm::VmId;
use cws_dag::{TaskId, Workflow};
use cws_platform::{InstanceType, Platform, Region};
// This module is compiled only behind `#[cfg(test)]` in lib.rs, so the
// cws-workloads edge is a dev-dependency, not an architecture layer —
// the per-file scanner cannot see the gate in lib.rs.
// cws-lint: allow(layering-contract)
use cws_workloads::random::{fork_join, layered_dag, ForkJoinShape, LayeredShape};
use cws_workloads::{
    cybershake, epigenomics, montage, CyberShakeShape, DataSizeModel, EpigenomicsShape,
    MontageShape, Scenario,
};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

/// Flip the thread-local reference switch for the duration of `f`,
/// restoring it even on panic so a failing case cannot poison later
/// cases on the same proptest worker thread.
fn with_reference_kernel<T>(f: impl FnOnce() -> T) -> T {
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

/// The AllPar pick at the start of a level, on a fresh [`LevelIndex`].
fn pick_in_fresh_level(
    sb: &ScheduleBuilder<'_>,
    task: TaskId,
    keep: impl FnMut(VmId) -> bool,
) -> Option<VmId> {
    let mut level = LevelIndex::new();
    level.begin(sb);
    sb.earliest_start_vm_in_level(task, &mut level, None, keep)
}

fn assert_kernels_agree(
    wf: &Workflow,
    platform: &Platform,
    label: &str,
    run: impl Fn() -> Schedule,
) {
    let fast = run();
    let reference = with_reference_kernel(&run);
    prop_assert!(
        fast == reference,
        "{label}: fast kernel diverged from the naive reference on {} \
         (fast makespan {}, reference makespan {})",
        wf.name(),
        fast.makespan(),
        reference.makespan()
    );
    fast.validate(wf, platform)
        .unwrap_or_else(|e| panic!("{label}: invalid schedule: {e}"));
}

/// Random layered DAGs. One draw in three keeps the generator's equal
/// 100 s runtimes, whose exact rank ties leave every critical-path step
/// and every CPA-Eager and GAIN pick to a tie-break.
fn arb_layered() -> impl proptest::strategy::Strategy<Value = Workflow> {
    (2usize..6, 1usize..5, 0.05f64..0.9, 0u64..1000, 0u32..3).prop_map(|(l, w, p, s, arm)| {
        let wf = layered_dag(LayeredShape {
            levels: l,
            min_width: 1,
            max_width: w,
            edge_prob: p,
            seed: s,
        });
        if arm == 0 {
            wf
        } else {
            Scenario::Pareto { seed: s }.apply(&wf)
        }
    })
}

/// A budget-driven type loop: CPA-Eager's or GAIN's.
type TypesFor = fn(&Workflow, &Platform, f64) -> Vec<InstanceType>;

fn arb_fork_join() -> impl proptest::strategy::Strategy<Value = Workflow> {
    (1usize..4, 1usize..5, 0u64..1000).prop_map(|(stages, fanout, seed)| {
        let wf = fork_join(ForkJoinShape { stages, fanout });
        Scenario::Pareto { seed }.apply(&wf)
    })
}

/// Small instances of the WfCommons shapes: Epigenomics pipelines, where
/// each stage's one parent host wins outright, CyberShake's two
/// broadcast roots, and Montage's joins over many hosts.
fn pegasus(family: usize, a: usize, b: usize, seed: u64) -> Workflow {
    let wf = match family {
        0 => epigenomics(EpigenomicsShape {
            lanes: a,
            chunks_per_lane: b,
        }),
        1 => cybershake(CyberShakeShape {
            synthesis: 2 * a + b,
        }),
        _ => {
            let projections = a + 2;
            montage(MontageShape {
                projections,
                overlaps: b.min(projections * (projections - 1) / 2),
            })
        }
    };
    Scenario::Pareto { seed }.apply(&wf)
}

fn arb_pegasus() -> impl proptest::strategy::Strategy<Value = Workflow> {
    (0usize..3, 1usize..4, 1usize..7, 0u64..1000)
        .prop_map(|(family, a, b, seed)| pegasus(family, a, b, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All 19 paper pairings, random layered DAGs.
    #[test]
    fn paper_set_is_bit_identical_on_layered_dags(wf in arb_layered()) {
        let p = Platform::ec2_paper();
        for strategy in Strategy::paper_set() {
            assert_kernels_agree(&wf, &p, &strategy.label(), || strategy.schedule(&wf, &p));
        }
    }

    /// All 19 paper pairings, fork-join DAGs (deep join fan-ins stress
    /// the ready-time reduction; repeated stages stress gap reuse).
    #[test]
    fn paper_set_is_bit_identical_on_fork_join_dags(wf in arb_fork_join()) {
        let p = Platform::ec2_paper();
        for strategy in Strategy::paper_set() {
            assert_kernels_agree(&wf, &p, &strategy.label(), || strategy.schedule(&wf, &p));
        }
    }

    /// All 19 paper pairings on the WfCommons shapes, with per-schedule
    /// and shared tables, at the paper's zero boot and at a 120 s boot.
    #[test]
    fn paper_set_is_bit_identical_on_pegasus_shapes(wf in arb_pegasus()) {
        for p in [Platform::ec2_paper(), Platform::ec2_paper().with_boot_time(120.0)] {
            let tables = KernelTables::build(&wf, &p);
            for strategy in Strategy::paper_set() {
                assert_kernels_agree(&wf, &p, &strategy.label(), || strategy.schedule(&wf, &p));
                assert_kernels_agree(&wf, &p, &strategy.label(), || {
                    strategy.schedule_with(&wf, &p, Some(&tables))
                });
            }
        }
    }

    /// [`ScheduleBuilder::earliest_start_vm_in_level`] on a fresh
    /// [`LevelIndex`] picks what the naive scan picks on mixed fleets —
    /// every type, three regions, VMs kept busy past their predecessors'
    /// finish — under three filters, at every step of a growing schedule. On the platform whose regions
    /// are closer to each other than VMs within one region are, a
    /// host's own key is not the one with the lowest bound; without
    /// payloads, a host's start can then tie another region's bound.
    #[test]
    fn first_level_pick_is_bit_identical_on_mixed_fleets(
        wf in arb_pegasus(),
        seed in 0u64..1000,
    ) {
        let payload_free = DataSizeModel::CpuIntensive.apply(&wf);
        for (wf, close_regions) in [(&wf, false), (&wf, true), (&payload_free, true)] {
            let mut p = Platform::ec2_paper();
            if close_regions {
                p.network.intra_region_latency_s = 600.0;
                p.network.inter_region_latency_s = 0.0;
            }
            let mut fast = ScheduleBuilder::new(wf, &p);
            let mut reference = with_reference_kernel(|| ScheduleBuilder::new(wf, &p));
            for (n, &task) in wf.topological_order().iter().enumerate() {
                let draw = (seed + n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
                let itype = InstanceType::ALL[draw as usize % InstanceType::ALL.len()];
                let all = |_: VmId| true;
                let of_type = |id: VmId| fast.vm(id).itype == itype;
                let sparse = |id: VmId| !(u64::from(id.0) + draw).is_multiple_of(3);
                let filters: [&dyn Fn(VmId) -> bool; 3] = [&all, &of_type, &sparse];
                for keep in filters {
                    prop_assert_eq!(
                        pick_in_fresh_level(&fast, task, keep),
                        pick_in_fresh_level(&reference, task, keep),
                        "task {:?} of {}", task, wf.name()
                    );
                }
                match pick_in_fresh_level(&fast, task, all) {
                    Some(vm) if !draw.is_multiple_of(3) => {
                        fast.place_on(task, vm);
                        reference.place_on(task, vm);
                    }
                    _ => {
                        let region = Region::ALL[(draw / 4) as usize % 3];
                        fast.place_on_new_in(task, itype, region);
                        reference.place_on_new_in(task, itype, region);
                    }
                }
            }
            prop_assert!(fast.build("mixed") == reference.build("mixed"));
        }
    }

    /// Extended allocators that consume the probe API directly.
    #[test]
    fn extended_allocators_are_bit_identical(
        wf in arb_layered(),
        machines in 1usize..4,
    ) {
        let p = Platform::ec2_paper();
        assert_kernels_agree(&wf, &p, "HEFT-pool", || {
            heft_pool(&wf, &p, &PoolSpec::default())
        });
        assert_kernels_agree(&wf, &p, "HEFT-ins", || {
            heft_insertion(&wf, &p, InstanceType::Medium, machines)
        });
        for rule in [ListRule::MinMin, ListRule::MaxMin] {
            assert_kernels_agree(&wf, &p, rule.name(), || {
                list_schedule(&wf, &p, rule, InstanceType::Small, machines)
            });
        }
    }

    /// All 19 pairings through the *reused-table* path: one
    /// [`KernelTables`] build lent to every schedule must reproduce the
    /// naive reference bit for bit, exactly as the per-schedule build
    /// does.
    #[test]
    fn paper_set_with_shared_tables_is_bit_identical(wf in arb_layered()) {
        let p = Platform::ec2_paper();
        let tables = KernelTables::build(&wf, &p);
        for strategy in Strategy::paper_set() {
            assert_kernels_agree(&wf, &p, &strategy.label(), || {
                strategy.schedule_with(&wf, &p, Some(&tables))
            });
        }
        // 19 fast schedules used the tables; the reference runs ignore
        // offered tables by design, so they add nothing here.
        prop_assert_eq!(tables.uses(), 19);
    }

    /// CPA-Eager and GAIN type vectors at budgets that do not saturate
    /// an equal-runtime DAG, and at budgets set from the rent of the
    /// reference's own result: that rent itself, the budget whose limit
    /// `budget + 1e-9` is exactly that rent, so the last accepted upgrade
    /// lands on the limit and the rent ledger must decide it by the exact
    /// sum, and the budget whose limit is one ulp under it.
    #[test]
    fn budget_loops_are_bit_identical_at_the_limit(wf in arb_layered(), peg in arb_pegasus()) {
        let p = Platform::ec2_paper();
        let loops: [(&str, TypesFor); 2] = [("CPA-Eager", cpa_eager_types), ("GAIN", gain_types)];
        for wf in [&wf, &peg] {
            for (label, types_for) in loops {
                for mult in [1.5, 3.0] {
                    let budget = mult * baseline_cost(wf, &p);
                    let reference = with_reference_kernel(|| types_for(wf, &p, budget));
                    prop_assert_eq!(&types_for(wf, &p, budget), &reference, "{} at {}x", label, mult);
                    let rent = one_vm_per_task_cost(wf, &p, &reference);
                    for budget in [rent, budget_for_limit(rent), budget_for_limit(rent.next_down())] {
                        let at_limit = with_reference_kernel(|| types_for(wf, &p, budget));
                        prop_assert_eq!(
                            &types_for(wf, &p, budget),
                            &at_limit,
                            "{} at {} from the rent of its {}x result", label, budget, mult
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// [`ScheduleBuilder::earliest_start_vm_in_level`] picks what the
    /// naive scan picks with the filter the level stands for, at every
    /// step of a level-by-level schedule, at boot 0 and 120 s. Each step
    /// asks for the AllParExceed pick, the AllParNotExceed pick (BTU
    /// fit) and an AllPar1LnS pick (one type), then places the task on
    /// one of them, on a fresh VM of a drawn type, or on a warm slot:
    /// the slots sit in two regions, hold two types and carry busy time,
    /// so each key's pack order differs from id order and changes from
    /// level to level.
    #[test]
    fn level_picker_matches_the_naive_scan(
        layered in arb_layered(),
        pegasus in arb_pegasus(),
        seed in 0u64..1000,
    ) {
        for (wf, boot) in [(&layered, 0.0), (&pegasus, 0.0), (&layered, 120.0), (&pegasus, 120.0)] {
            let p = Platform::ec2_paper().with_boot_time(boot);
            let warm: Vec<WarmVm> = (0..10)
                .map(|i| WarmVm {
                    itype: InstanceType::ALL[i % 2],
                    region: [p.default_region, Region::EuDublin][(i / 2) % 2],
                    available_rel: 30.0 * (i % 3) as f64,
                    btu_elapsed: 700.0 * (i % 5) as f64,
                })
                .collect();
            let mut sb = ScheduleBuilder::with_warm_pool(wf, &p, &warm);
            let mut level = LevelIndex::new();
            let (mut step, mut next_slot) = (seed, 0);
            for tasks in wf.levels() {
                level.begin(&sb);
                let mut used: Vec<VmId> = Vec::new();
                for task in level_et_descending(wf, tasks) {
                    step += 1;
                    let draw = step.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
                    let itype = InstanceType::ALL[draw as usize % InstanceType::ALL.len()];
                    let picks = {
                        let free = |id: VmId| !used.contains(&id);
                        let fits = |id: VmId| sb.fits_on(task, id);
                        [
                            (
                                sb.earliest_start_vm_in_level(task, &mut level, None, |_| true),
                                naive::earliest_start_vm_where(&sb, task, free),
                            ),
                            (
                                sb.earliest_start_vm_in_level(task, &mut level, None, fits),
                                naive::earliest_start_vm_where(&sb, task, |v| free(v) && fits(v)),
                            ),
                            (
                                sb.earliest_start_vm_in_level(task, &mut level, Some(itype), |_| true),
                                naive::earliest_start_vm_where(&sb, task, |id| {
                                    free(id) && sb.vm(id).itype == itype
                                }),
                            ),
                        ]
                    };
                    for (filter, (fast, reference)) in picks.iter().enumerate() {
                        prop_assert_eq!(
                            fast, reference,
                            "filter {} for {:?} of {} at boot {}", filter, task, wf.name(), boot
                        );
                    }
                    let vm = match picks[(draw / 4) as usize % 3].0 {
                        Some(vm) if !draw.is_multiple_of(4) => {
                            sb.place_on(task, vm);
                            vm
                        }
                        _ if draw % 8 < 4 && next_slot < warm.len() => {
                            next_slot += 1;
                            sb.claim_warm(task, next_slot - 1)
                        }
                        _ => sb.place_on_new(task, itype),
                    };
                    level.claim(vm);
                    used.push(vm);
                }
            }
            sb.build("levels").validate(wf, &p).unwrap();
        }
    }
}

/// The ISSUE-7 acceptance seeds: all 19 pairings through the shared
/// [`KernelTables`] path, bit-identical to the naive reference at each
/// pinned seed.
#[test]
fn paper_set_with_shared_tables_at_pinned_seeds() {
    let p = Platform::ec2_paper();
    for seed in [7u64, 42, 1337] {
        let wf = Scenario::Pareto { seed }.apply(&layered_dag(LayeredShape {
            levels: 5,
            min_width: 2,
            max_width: 8,
            edge_prob: 0.35,
            seed,
        }));
        let tables = KernelTables::build(&wf, &p);
        for strategy in Strategy::paper_set() {
            let fast = strategy.schedule_with(&wf, &p, Some(&tables));
            let reference = with_reference_kernel(|| strategy.schedule(&wf, &p));
            assert!(
                fast == reference,
                "{} diverged from the naive reference at seed {seed} \
                 (fast makespan {}, reference makespan {})",
                strategy.label(),
                fast.makespan(),
                reference.makespan()
            );
        }
        assert_eq!(tables.uses(), 19, "seed {seed}");
    }
}

/// The AllPar pairings of [`pooled_static`] over a warm pool whose slots
/// sit in two regions, so the rented fleet spans more than one
/// (region, type) key and the host-first bound must clear each of them.
/// Besides the paper's network, an hour of latency between regions lets
/// a host in the pool's region start later than a free VM beside it and
/// still beat every VM of the default region, and regions closer to each
/// other than VMs within one let the other region's bound undercut a
/// host's own.
#[test]
fn pooled_allpar_over_a_two_region_pool_is_bit_identical() {
    let networks: [fn(&mut Platform); 3] = [
        |_| {},
        |p| p.network.inter_region_latency_s = 3600.0,
        |p| {
            p.network.intra_region_latency_s = 600.0;
            p.network.inter_region_latency_s = 0.0;
        },
    ];
    let mut two_region_schedules = 0;
    for seed in 0..6u64 {
        for family in 0..3 {
            let wf = pegasus(family, 2, 3, seed);
            for (boot, (net, set_network)) in [0.0, 120.0]
                .into_iter()
                .flat_map(|boot| networks.into_iter().enumerate().map(move |n| (boot, n)))
            {
                let mut p = Platform::ec2_paper().with_boot_time(boot);
                set_network(&mut p);
                let regions = [p.default_region, Region::EuDublin];
                let itype = InstanceType::ALL[seed as usize % InstanceType::ALL.len()];
                let warm: Vec<WarmVm> = (0..12)
                    .map(|i| WarmVm {
                        itype,
                        region: regions[i % 2],
                        available_rel: 40.0 * (i / 2) as f64,
                        btu_elapsed: 900.0 * (i % 3) as f64,
                    })
                    .collect();
                for alloc in [StaticAlloc::AllParExceed, StaticAlloc::AllParNotExceed] {
                    let run = || pooled_static(&wf, &p, alloc, itype, &warm);
                    let fast = run();
                    let reference = with_reference_kernel(run);
                    assert!(
                        fast == reference,
                        "{alloc:?} on {} at boot {boot}, network {net}: fast kernel \
                         diverged from the naive reference",
                        wf.name()
                    );
                    let in_region = |r: Region| fast.schedule.vms.iter().any(|v| v.region == r);
                    if in_region(regions[0]) && in_region(regions[1]) {
                        two_region_schedules += 1;
                    }
                }
            }
        }
    }
    assert!(
        two_region_schedules > 0,
        "no pooled schedule spanned both regions"
    );
}
