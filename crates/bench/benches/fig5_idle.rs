//! Fig. 5 bench: regenerate the idle-time bars for all four workflows.

use criterion::{criterion_group, criterion_main, Criterion};
use cws_bench::{bench_config, show};
use cws_experiments::fig5::fig5;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let cfg = bench_config();

    for panel in fig5(&cfg) {
        show(&panel.to_table());
    }

    c.bench_function("fig5/all_four_panels", |b| b.iter(|| fig5(black_box(&cfg))));
}

criterion_group!(benches, bench);
criterion_main!(benches);
