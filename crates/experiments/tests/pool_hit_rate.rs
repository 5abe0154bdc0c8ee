//! `run.pool_hit_rate` after a service campaign does not depend on the
//! thread count. Every cell's run sets the process-global gauge, so
//! without the campaign's own final write the last cell to finish
//! would win. The metrics registry is process-global, so this check
//! lives in a test binary of its own.

use cws_experiments::service_sweep::{default_spec, run_campaign};
use cws_obs::{self as obs, metrics::names};
use cws_platform::Platform;

#[test]
fn pool_hit_rate_gauge_is_thread_invariant() {
    let platform = Platform::ec2_paper();
    // The last grid cells are the cheapest, so at 4 threads they tend
    // to finish while the first, busy cells still run.
    let mut spec = default_spec(42);
    spec.rates_per_hour = vec![12.0, 0.5];
    let run = |threads: usize| {
        obs::MetricsRegistry::global().reset();
        obs::set_metrics_enabled(true);
        let report = run_campaign(&platform, &spec, threads);
        obs::set_metrics_enabled(false);
        let gauge = obs::MetricsRegistry::global()
            .snapshot()
            .gauge(names::RUN_POOL_HIT_RATE)
            .expect("a campaign with rentals sets the gauge");
        (gauge.to_bits(), report)
    };

    let (serial, report) = run(1);
    let last = report
        .cells
        .iter()
        .rev()
        .map(|c| &c.report.fleet)
        .find(|f| f.pool_hits + f.cold_rentals > 0)
        .expect("the default campaign rents machines");
    let expected = last.pool_hits as f64 / (last.pool_hits + last.cold_rentals) as f64;
    assert_eq!(
        serial,
        expected.to_bits(),
        "one thread ends on the last grid cell with rentals"
    );
    for _ in 0..3 {
        assert_eq!(run(4).0, serial, "the gauge moved at 4 threads");
    }
}
