//! End-to-end daemon test: a real socket, JSON-lines requests, replies
//! parsed back. TCP on `127.0.0.1:0` (OS-assigned port) and, on unix
//! platforms, a unix socket path — the two flavors `--listen` accepts.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;

use cws_obs::json::{parse, Value};
use cws_platform::Platform;
use cws_serve::{Daemon, ServeCore, ServeOptions};

fn demo_submit(tenant: &str, time: f64) -> String {
    format!(
        "{{\"tenant\":\"{tenant}\",\"time\":{time},\"workflow\":{{\"name\":\"demo\",\"tasks\":[\
         {{\"id\":\"prep\",\"runtime_s\":120}},\
         {{\"id\":\"run\",\"runtime_s\":300,\"deps\":[{{\"task\":\"prep\",\"data_mb\":10}}]}},\
         {{\"id\":\"pack\",\"runtime_s\":60,\"deps\":[\"run\"]}}]}}}}"
    )
}

fn roundtrip<S: std::io::Read + Write>(stream: &mut BufReader<S>, line: &str) -> Value {
    let out = stream.get_mut();
    out.write_all(line.as_bytes()).expect("send");
    out.write_all(b"\n").expect("send newline");
    out.flush().expect("flush");
    let mut reply = String::new();
    stream.read_line(&mut reply).expect("read reply");
    parse(reply.trim()).unwrap_or_else(|e| panic!("reply not JSON ({e}): {reply:?}"))
}

fn ok(v: &Value) -> bool {
    v.get("ok") == Some(&Value::Bool(true))
}

#[test]
fn tcp_session_submits_reports_and_shuts_down() {
    let daemon = Daemon::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = daemon.local_addr().to_string();
    let platform = Platform::ec2_paper();
    let server = thread::spawn(move || {
        let mut core = ServeCore::new(&platform, ServeOptions::default());
        daemon.run(&mut core).expect("daemon run");
        core
    });

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut conn = BufReader::new(stream);

    // Two submissions for one tenant, one for another.
    let first = roundtrip(&mut conn, &demo_submit("astro", 0.0));
    assert!(ok(&first), "{first:?}");
    assert_eq!(first.get("tenant").and_then(Value::as_str), Some("astro"));
    assert_eq!(first.get("cold_rentals").and_then(Value::as_u64), Some(1));
    let makespan = first
        .get("makespan_s")
        .and_then(Value::as_f64)
        .expect("makespan");
    assert!(makespan >= 480.0, "3 chained tasks take at least their sum");

    let second = roundtrip(&mut conn, &demo_submit("astro", 700.0));
    assert!(ok(&second), "{second:?}");
    assert_eq!(
        second.get("pool_hits").and_then(Value::as_u64),
        Some(1),
        "the warm machine from the first submission must be claimed"
    );
    let third = roundtrip(&mut conn, &demo_submit("climate", 800.0));
    assert!(ok(&third));

    // Malformed line → structured error, connection stays usable.
    let err = roundtrip(&mut conn, "{\"tenant\":42}");
    assert_eq!(err.get("ok"), Some(&Value::Bool(false)));
    assert!(err.get("error").and_then(Value::as_str).is_some());

    // Mid-run report: three workflows, two tenants.
    let report = roundtrip(&mut conn, "{\"cmd\":\"report\"}");
    assert!(ok(&report), "{report:?}");
    let fleet = report
        .get("report")
        .and_then(|r| r.get("fleet"))
        .expect("fleet");
    assert_eq!(fleet.get("workflows").and_then(Value::as_u64), Some(3));

    // Shutdown settles every machine: final cost is positive.
    let last = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert!(ok(&last), "{last:?}");
    let fleet = last
        .get("report")
        .and_then(|r| r.get("fleet"))
        .expect("fleet");
    assert!(fleet.get("vms").and_then(Value::as_u64).unwrap_or(0) >= 1);
    assert!(fleet.get("cost_usd").and_then(Value::as_f64).unwrap_or(0.0) > 0.0);

    let core = server.join().expect("daemon thread");
    assert_eq!(core.clock(), 800.0, "clock ends at the last admission");
}

#[cfg(unix)]
#[test]
fn unix_socket_flavor_works() {
    let path = std::env::temp_dir().join(format!("cws-serve-e2e-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let addr = path.to_str().expect("utf8 temp path").to_string();
    assert!(addr.contains('/'), "unix flavor is chosen by the slash");

    let daemon = Daemon::bind(&addr).expect("bind unix socket");
    let platform = Platform::ec2_paper();
    let server = thread::spawn(move || {
        let mut core = ServeCore::new(&platform, ServeOptions::default());
        daemon.run(&mut core).expect("daemon run");
    });

    let stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    let mut conn = BufReader::new(stream);
    let reply = roundtrip(&mut conn, &demo_submit("astro", 0.0));
    assert!(ok(&reply), "{reply:?}");
    let last = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert!(ok(&last));
    server.join().expect("daemon thread");
    let _ = std::fs::remove_file(&path);
}

/// One bad client cannot stop the daemon. A non-UTF-8 line gets a
/// structured error and the connection stays usable; a client that
/// sends one and hangs up without reading ends only its own
/// connection; the next client is served and shuts the daemon down.
#[test]
fn bad_clients_end_only_their_own_connection() {
    let daemon = Daemon::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = daemon.local_addr().to_string();
    let platform = Platform::ec2_paper();
    let server = thread::spawn(move || {
        let mut core = ServeCore::new(&platform, ServeOptions::default());
        daemon.run(&mut core).expect("daemon run");
        core
    });

    let mut first = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    first.get_mut().write_all(b"\xff\xfe\n").expect("send");
    let mut reply = String::new();
    first.read_line(&mut reply).expect("read reply");
    let err = parse(reply.trim()).expect("error reply is JSON");
    assert_eq!(err.get("ok"), Some(&Value::Bool(false)), "{reply}");
    assert!(
        err.get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("UTF-8")),
        "{reply}"
    );
    let after = roundtrip(&mut first, &demo_submit("astro", 0.0));
    assert!(ok(&after), "connection survives a bad line: {after:?}");
    drop(first);

    let mut rude = TcpStream::connect(&addr).expect("connect");
    rude.write_all(b"\xff\xfe\n").expect("send");
    drop(rude);

    let mut last = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    let reply = roundtrip(&mut last, &demo_submit("climate", 100.0));
    assert!(ok(&reply), "{reply:?}");
    let done = roundtrip(&mut last, "{\"cmd\":\"shutdown\"}");
    assert!(ok(&done), "{done:?}");
    let fleet = done
        .get("report")
        .and_then(|r| r.get("fleet"))
        .expect("fleet");
    assert_eq!(fleet.get("workflows").and_then(Value::as_u64), Some(2));

    let core = server.join().expect("daemon thread");
    assert_eq!(core.clock(), 100.0);
}

/// A reply that cannot be delivered ends only its connection. A client
/// that has closed its read side makes the daemon's write fail at once
/// (a unix stream socket refuses writes to a peer that will not read):
/// the first client's submission is still admitted, the second client
/// is served, and its undeliverable `shutdown` still stops the daemon.
#[cfg(unix)]
#[test]
fn write_failures_end_only_their_connection_and_shutdown_still_stops() {
    use std::net::Shutdown;
    use std::os::unix::net::UnixStream;

    let path = std::env::temp_dir().join(format!("cws-serve-epipe-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let addr = path.to_str().expect("utf8 temp path").to_string();
    let daemon = Daemon::bind(&addr).expect("bind unix socket");
    let platform = Platform::ec2_paper();
    // The daemon hands its core back over a channel, so a daemon that
    // keeps running fails the test instead of hanging it.
    let (stopped, core_rx) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let mut core = ServeCore::new(&platform, ServeOptions::default());
        daemon.run(&mut core).expect("daemon run");
        let _ = stopped.send(core);
    });

    let mut deaf = UnixStream::connect(&path).expect("connect");
    deaf.shutdown(Shutdown::Read).expect("close read side");
    deaf.write_all(format!("{}\n", demo_submit("astro", 0.0)).as_bytes())
        .expect("send");

    let mut next = BufReader::new(UnixStream::connect(&path).expect("connect"));
    let reply = roundtrip(&mut next, &demo_submit("climate", 100.0));
    assert!(ok(&reply), "{reply:?}");
    next.get_ref()
        .shutdown(Shutdown::Read)
        .expect("close read side");
    next.get_mut()
        .write_all(b"{\"cmd\":\"shutdown\"}\n")
        .expect("send");

    let mut core = core_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("an undeliverable shutdown still stops the daemon");
    assert_eq!(
        core.report().fleet.workflows,
        2,
        "both submissions admitted"
    );
    drop(deaf);
    let _ = std::fs::remove_file(&path);
}
