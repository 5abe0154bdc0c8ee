//! The daemon records what the batch engine records: every admitted
//! submission leaves one `service.queue_wait` sample. The metrics
//! registry is process-global, so this test has a binary of its own.

use cws_obs as obs;
use cws_platform::Platform;
use cws_serve::{parse_request, ServeCore, ServeOptions};

#[test]
fn every_daemon_submission_records_a_queue_wait_sample() {
    const SUBMISSIONS: u64 = 5;
    let registry = obs::MetricsRegistry::global();
    registry.reset();
    obs::set_metrics_enabled(true);

    let mut core = ServeCore::new(&Platform::ec2_paper(), ServeOptions::default());
    for i in 0..SUBMISSIONS {
        let line = format!(
            "{{\"tenant\":\"t{}\",\"time\":{},\"workflow\":{{\"name\":\"demo\",\
             \"tasks\":[{{\"id\":\"t\",\"runtime_s\":600}}]}}}}",
            i % 2,
            i as f64 * 900.0
        );
        let (reply, done) = core.handle(&parse_request(&line).expect("valid request"));
        assert!(!done && reply.starts_with("{\"ok\":true"), "{reply}");
    }
    let samples = registry
        .histogram(obs::metrics::names::SERVICE_QUEUE_WAIT)
        .snapshot()
        .count;

    obs::set_metrics_enabled(false);
    registry.reset();
    assert_eq!(samples, SUBMISSIONS, "one queue-wait sample per submission");
}
