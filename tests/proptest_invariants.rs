//! Property-based invariants over random workflows, runtimes and
//! strategies.

use cloud_workflow_sched::core::alloc::levelpar::level_et_descending;
use cloud_workflow_sched::core::alloc::onelns::{reduce_level, reduce_level_scheduled, Chain};
use cloud_workflow_sched::platform::billing::{
    btus_for_span, fits_in_current_btu, remaining_in_btu,
};
use cloud_workflow_sched::prelude::*;
use cloud_workflow_sched::workloads::random::{layered_dag, LayeredShape};
use cloud_workflow_sched::workloads::Pareto;
use proptest::prelude::*;
// Both globs export a `Strategy` name (the scheduling enum and proptest's
// trait); the explicit import pins the unqualified name to the enum.
use cloud_workflow_sched::core::Strategy;
use proptest::strategy::Strategy as _;

/// A random layered DAG with random Pareto-ish runtimes.
fn arb_workflow() -> impl proptest::strategy::Strategy<Value = Workflow> {
    (2usize..6, 1usize..5, 0.05f64..0.9, 0u64..1000).prop_map(
        |(levels, max_width, edge_prob, seed)| {
            let wf = layered_dag(LayeredShape {
                levels,
                min_width: 1,
                max_width,
                edge_prob,
                seed,
            });
            Scenario::Pareto { seed }.apply(&wf)
        },
    )
}

fn arb_strategy() -> impl proptest::strategy::Strategy<Value = Strategy> {
    (0usize..19).prop_map(|i| Strategy::paper_set()[i])
}

/// A three-level layered DAG up to 60 tasks wide, with Pareto or equal
/// runtimes: wide levels, and with equal runtimes many merges.
fn arb_wide_workflow() -> impl proptest::strategy::Strategy<Value = Workflow> {
    (0u64..1000, 0usize..2).prop_map(|(seed, equal)| {
        let wf = layered_dag(LayeredShape {
            levels: 3,
            min_width: 1,
            max_width: 60,
            edge_prob: 0.2,
            seed,
        });
        if equal == 1 {
            Scenario::BestCase.apply(&wf)
        } else {
            Scenario::Pareto { seed }.apply(&wf)
        }
    })
}

/// First-fit level reduction with every task scanning every chain: the
/// reference `reduce_level` and `reduce_level_scheduled` reproduce.
fn first_fit_full_scan(
    wf: &Workflow,
    level: &[TaskId],
    ready: impl Fn(TaskId) -> f64,
) -> Vec<Chain> {
    const EPS: f64 = 1e-9;
    let order = level_et_descending(wf, level);
    let capacity = order.first().map_or(0.0, |&t| wf.task(t).base_time);
    let horizon = level
        .iter()
        .map(|&t| ready(t) + wf.task(t).base_time)
        .fold(0.0_f64, f64::max);
    let chain_end = |tasks: &[TaskId]| {
        let mut by_ready = tasks.to_vec();
        by_ready.sort_by(|&a, &b| ready(a).total_cmp(&ready(b)).then(a.0.cmp(&b.0)));
        by_ready
            .iter()
            .fold(0.0_f64, |end, &t| end.max(ready(t)) + wf.task(t).base_time)
    };
    let mut chains: Vec<Chain> = Vec::new();
    for t in order {
        let et = wf.task(t).base_time;
        let slot = chains.iter_mut().find(|c| {
            if c.total + et > capacity + EPS {
                return false;
            }
            let mut merged = c.tasks.clone();
            merged.push(t);
            chain_end(&merged) <= horizon + EPS
        });
        match slot {
            Some(c) => {
                c.tasks.push(t);
                c.total += et;
            }
            None => chains.push(Chain {
                tasks: vec![t],
                total: et,
            }),
        }
    }
    chains
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_strategy_on_any_workflow_is_valid_and_replays(
        wf in arb_workflow(),
        strategy in arb_strategy(),
    ) {
        let platform = Platform::ec2_paper();
        let s = strategy.schedule(&wf, &platform);
        prop_assert!(s.validate(&wf, &platform).is_ok(),
            "{}: {:?}", strategy.label(), s.validate(&wf, &platform));
        prop_assert!(verify(&wf, &platform, &s, 1e-6).is_ok());
    }

    #[test]
    fn makespan_at_least_longest_task_at_max_speed(
        wf in arb_workflow(),
        strategy in arb_strategy(),
    ) {
        let platform = Platform::ec2_paper();
        let s = strategy.schedule(&wf, &platform);
        let longest = wf.tasks().iter().map(|t| t.base_time).fold(0.0_f64, f64::max);
        prop_assert!(s.makespan() >= longest / 2.7 - 1e-6);
    }

    #[test]
    fn btus_cover_busy_time(
        wf in arb_workflow(),
        strategy in arb_strategy(),
    ) {
        let platform = Platform::ec2_paper();
        let s = strategy.schedule(&wf, &platform);
        for vm in &s.vms {
            prop_assert!(vm.meter.btus() as f64 * BTU_SECONDS >= vm.meter.busy - 1e-6);
            prop_assert!(vm.meter.idle_seconds() >= 0.0);
            // a VM never pays a whole BTU more than it needs
            prop_assert!(vm.meter.btus() == btus_for_span(vm.meter.busy));
        }
        prop_assert_eq!(s.total_btus(), s.vms.iter().map(|v| v.meter.btus()).sum::<u64>());
    }

    #[test]
    fn one_vm_per_task_is_cost_upper_bound_among_small_statics(
        wf in arb_workflow(),
    ) {
        let platform = Platform::ec2_paper();
        let one = Strategy::parse("OneVMperTask-s").unwrap().schedule(&wf, &platform);
        let one_cost = one.total_cost(&wf, &platform);
        for label in ["StartParNotExceed-s", "StartParExceed-s",
                      "AllParNotExceed-s", "AllParExceed-s", "AllPar1LnS"] {
            let s = Strategy::parse(label).unwrap().schedule(&wf, &platform);
            prop_assert!(s.total_cost(&wf, &platform) <= one_cost + 1e-9,
                "{label} costs more than OneVMperTask-s");
        }
    }

    #[test]
    fn btu_arithmetic_is_consistent(span in 0.0f64..1e7, extra in 0.0f64..5e4) {
        // monotone
        prop_assert!(btus_for_span(span + extra) >= btus_for_span(span));
        // covering
        prop_assert!(btus_for_span(span) as f64 * BTU_SECONDS >= span - 1e-6);
        // minimal (except the zero-span minimum of one BTU)
        if span > 1.0 {
            prop_assert!((btus_for_span(span) - 1) as f64 * BTU_SECONDS < span + 1e-6);
        }
        // fit test agrees with remaining time
        let rem = remaining_in_btu(span);
        prop_assert!(fits_in_current_btu(span, rem));
        prop_assert!(!fits_in_current_btu(span, rem + 1.0));
    }

    #[test]
    fn pareto_samples_respect_scale(shape in 0.5f64..5.0, scale in 1.0f64..1e4, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let p = Pareto::new(shape, scale);
        for _ in 0..100 {
            let x = p.sample(&mut rng);
            prop_assert!(x >= scale);
            prop_assert!(x.is_finite());
        }
    }

    #[test]
    fn level_reduction_partitions_the_level(
        wf in arb_workflow(),
        wide in arb_wide_workflow(),
        ready_seed in 0u64..1000,
    ) {
        // A drawn readiness with ties, on the scale of the runtimes.
        let ready = |t: TaskId| ((u64::from(t.0) * 7919 + ready_seed * 104_729) % 4001) as f64;
        for wf in [&wf, &wide] {
            for level in wf.levels() {
                let chains = reduce_level(wf, level);
                let mut covered: Vec<TaskId> =
                    chains.iter().flat_map(|c| c.tasks.clone()).collect();
                covered.sort();
                let mut expected = level.to_vec();
                expected.sort();
                prop_assert_eq!(covered, expected, "chains must partition the level");
                // chain totals never exceed the longest task
                let longest = level.iter().map(|&t| wf.task(t).base_time).fold(0.0_f64, f64::max);
                for c in &chains {
                    prop_assert!(c.total <= longest + 1e-6);
                }
                // The shortcut past the first-fit scan changes no chain.
                prop_assert_eq!(&chains, &first_fit_full_scan(wf, level, |_| 0.0));
                prop_assert_eq!(
                    reduce_level_scheduled(wf, level, ready),
                    first_fit_full_scan(wf, level, ready)
                );
            }
        }
    }

    #[test]
    fn relative_metrics_are_antisymmetric_at_baseline(
        mk in 1.0f64..1e6, cost in 0.01f64..1e4,
    ) {
        let m = ScheduleMetrics {
            makespan: mk, cost, idle_seconds: 0.0, vm_count: 1, btus: 1,
        };
        let r = RelativeMetrics::vs(&m, &m);
        prop_assert!(r.gain_pct.abs() < 1e-9);
        prop_assert!(r.loss_pct.abs() < 1e-9);
        prop_assert!(r.in_target_square());
    }

    #[test]
    fn adaptive_selector_always_returns_runnable_strategy(
        wf in arb_workflow(),
        obj in (0usize..3).prop_map(|i| [Objective::Savings, Objective::Gain, Objective::Balanced][i]),
    ) {
        let platform = Platform::ec2_paper();
        let strategy = select_strategy(&wf, obj);
        let s = strategy.schedule(&wf, &platform);
        prop_assert!(s.validate(&wf, &platform).is_ok());
    }

    #[test]
    fn dot_export_is_well_formed(wf in arb_workflow()) {
        let dot = cloud_workflow_sched::dag::dot::to_dot(&wf);
        prop_assert!(dot.starts_with("digraph"));
        // prop_assert! stringifies its condition into a format string,
        // so brace literals and inline format! calls are hoisted out.
        let closed = dot.trim_end().ends_with("\u{7d}");
        prop_assert!(closed, "dot output must close its digraph block");
        for t in wf.tasks() {
            let node_line = format!("{} [label=", t.id);
            let present = dot.contains(&node_line);
            prop_assert!(present, "missing node line for {}", t.id);
        }
    }
}
