//! Kernel micro-benchmarks: the fast scheduling kernel vs the naive
//! reference (`cws_core::state::naive`) on representative strategies.
//! The JSON perf baseline lives in the `cws-bench` binary; this target
//! keeps the comparison runnable under `cargo bench -p cws-bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cws_core::state::naive;
use cws_core::{KernelTables, ScheduleBuilder, Strategy};
use cws_platform::{InstanceType, Platform};
use cws_workloads::random::{layered_dag, LayeredShape};
use cws_workloads::{montage_24, DataSizeModel, Scenario};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let platform = Platform::ec2_paper();
    let scenario = Scenario::Pareto { seed: 42 };
    let montage = scenario.apply(&DataSizeModel::CpuIntensive.apply(&montage_24()));
    let layered = scenario.apply(&layered_dag(LayeredShape {
        levels: 10,
        min_width: 100,
        max_width: 100,
        edge_prob: 0.3,
        seed: 42,
    }));

    let mut group = c.benchmark_group("kernel");
    for (wf_name, wf) in [("montage-24", &montage), ("layered-1000", &layered)] {
        for label in ["StartParExceed-s", "AllParExceed-m", "AllPar1LnSDyn"] {
            let strategy = Strategy::parse(label).expect("known label");
            group.bench_with_input(
                BenchmarkId::new(&format!("fast/{label}"), wf_name),
                wf,
                |b, wf| b.iter(|| strategy.schedule(black_box(wf), black_box(&platform))),
            );
            group.bench_with_input(
                BenchmarkId::new(&format!("naive/{label}"), wf_name),
                wf,
                |b, wf| {
                    naive::set_reference_kernel(true);
                    b.iter(|| strategy.schedule(black_box(wf), black_box(&platform)));
                    naive::set_reference_kernel(false);
                },
            );
        }
    }
    group.finish();

    // One probe answering every rented VM's start time. The fixture is
    // mid-schedule — half the layered DAG placed round-robin on 32
    // small VMs — so the probe sees real cross-VM arrivals.
    let tables = KernelTables::build(&layered, &platform);
    let mut sb = ScheduleBuilder::with_tables(&layered, &platform, Some(&tables));
    let order = layered.topological_order().to_vec();
    let (placed, rest) = order.split_at(order.len() / 2);
    for (i, &t) in placed.iter().enumerate() {
        if sb.vms().len() < 32 {
            sb.place_on_new(t, InstanceType::Small);
        } else {
            let vm = sb.vms()[i % 32].id;
            sb.place_on(t, vm);
        }
    }
    let probe_task = rest[0];
    let vm_ids: Vec<_> = sb.vms().iter().map(|v| v.id).collect();

    let mut group = c.benchmark_group("probe");
    group.bench_function("start_on/layered-1000x32vms", |b| {
        b.iter(|| {
            let mut probe = sb.probe(black_box(probe_task));
            let mut acc = 0.0;
            for &vm in &vm_ids {
                acc += probe.start_on(vm);
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
