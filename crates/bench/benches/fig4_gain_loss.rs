//! Fig. 4 bench: regenerate the gain-vs-loss scatter for all four
//! workflows (19 strategies each).

use criterion::{criterion_group, criterion_main, Criterion};
use cws_bench::{bench_config, show};
use cws_experiments::fig4::fig4;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let cfg = bench_config();

    // Print all four regenerated panels once.
    for panel in fig4(&cfg) {
        show(&panel.to_table());
    }

    c.bench_function("fig4/all_four_panels", |b| b.iter(|| fig4(black_box(&cfg))));
}

criterion_group!(benches, bench);
criterion_main!(benches);
