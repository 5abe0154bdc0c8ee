//! The long-lived submission daemon: `cws-exp serve --listen <addr>`.
//!
//! Accepts JSON-lines requests (see [`crate::wire`]) over a unix or
//! TCP socket, routes each submission through the sharded pool, and
//! answers per-tenant cost/makespan reports. Tenants are created on
//! first submission; the simulation clock is monotone (a submission's
//! requested `time` is clamped to never move backwards).
//!
//! This module is the workspace's **wall-clock and IO boundary**: it
//! owns the only socket code and the only `SystemTime::now` call
//! outside `cws-bench` and the `cws-obs` manifest writer (an audited
//! startup stamp on stderr — never inside simulation state). The
//! `cws-analyze` `wall-clock-in-sim` lint allowlists exactly this
//! file; everything the daemon delegates to is pure simulation.
//!
//! Connections are served **sequentially, one request at a time**, so
//! a given submission sequence produces the same replies regardless of
//! connection timing — the same determinism contract as the batch
//! engines, minus arrival-time control (which the `time` field gives
//! back to the client).
//!
//! One client cannot stop the daemon. A line that is not UTF-8 gets an
//! `{"ok":false,"error":…}` reply like any other malformed request, and
//! a read or write failure (a reset, a broken pipe) ends only its own
//! connection: it is logged to stderr and the accept loop goes on. A
//! line longer than [`MAX_REQUEST_LINE_BYTES`] gets one error reply and
//! ends its connection, so no client can grow the line buffer without
//! bound. A `shutdown` whose reply cannot be delivered still stops the
//! daemon.

use crate::engine::{cold_makespan, Committer};
use crate::wire::{parse_request, Request, MAX_REQUEST_LINE_BYTES};
use cws_core::StaticAlloc;
use cws_dag::Workflow;
use cws_obs::json::{json_f64, json_str};
use cws_platform::{InstanceType, Platform};
use cws_service::{
    ArrivalModel, ReclaimPolicy, ServiceConfig, ServiceReport, TenantSpec, WorkloadKind,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;

/// Everything that parameterizes a daemon's scheduling, fixed at
/// startup (submissions choose the workflow, not the strategy).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Allocation strategy applied to every submission.
    pub alloc: StaticAlloc,
    /// Instance type rented.
    pub itype: InstanceType,
    /// Idle-reclaim policy of the pool.
    pub reclaim: ReclaimPolicy,
    /// VM boot delay in seconds.
    pub boot_time_s: f64,
    /// Warm-pool shard count.
    pub shards: usize,
    /// Seed recorded in reports (the daemon itself draws no random
    /// numbers — workflows arrive fully specified).
    pub seed: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            alloc: StaticAlloc::HeftStartParExceed,
            itype: InstanceType::Small,
            reclaim: ReclaimPolicy::AtBtuBoundary,
            boot_time_s: 0.0,
            shards: 1,
            seed: 0,
        }
    }
}

/// The outcome of one accepted submission, echoed back to the client.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitOutcome {
    /// Tenant index (stable across the daemon's lifetime).
    pub tenant: usize,
    /// Simulation time the submission was admitted at.
    pub time: f64,
    /// Makespan achieved against the shared pool (s).
    pub makespan_s: f64,
    /// Delay until the first task starts (s).
    pub queue_delay_s: f64,
    /// Machines claimed warm.
    pub pool_hits: usize,
    /// Fresh rentals.
    pub cold_rentals: usize,
    /// Task count.
    pub tasks: usize,
}

/// The daemon's simulation state: the sharded pool, the running report
/// fold, and the tenant registry — everything except the socket.
#[derive(Debug)]
pub struct ServeCore {
    opts: ServeOptions,
    /// The pool and report fold, behind the admission step the batch
    /// engine runs too.
    committer: Committer,
    /// Tenant names in creation order (index = tenant id).
    names: Vec<String>,
    /// Name → tenant id.
    index: BTreeMap<String, usize>,
    /// Monotone simulation clock (latest admission time).
    clock: f64,
    finished: bool,
}

impl ServeCore {
    /// Fresh state on `platform` under `opts`.
    #[must_use]
    pub fn new(platform: &Platform, opts: ServeOptions) -> Self {
        ServeCore {
            committer: Committer::new(
                platform.clone().with_boot_time(opts.boot_time_s),
                opts.alloc,
                opts.itype,
                opts.reclaim,
                opts.shards.max(1),
                0,
            ),
            names: Vec::new(),
            index: BTreeMap::new(),
            clock: 0.0,
            finished: false,
            opts,
        }
    }

    /// The tenant id for `name`, creating it on first use.
    pub fn tenant_id(&mut self, name: &str) -> usize {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len();
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        self.committer.acc.ensure_tenants(self.names.len());
        id
    }

    /// Current simulation clock (latest admission time).
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Admit one workflow for `tenant` at `time` (clamped to the
    /// monotone clock; `None` means "now"), schedule it against the
    /// pool and fold the outcome.
    pub fn submit(&mut self, tenant: &str, time: Option<f64>, wf: &Workflow) -> SubmitOutcome {
        let tenant = self.tenant_id(tenant);
        let now = time.unwrap_or(self.clock).max(self.clock);
        self.clock = now;
        let c = &mut self.committer;
        let cold_makespan_s = cold_makespan(wf, &c.platform, c.alloc, c.itype);
        let record = c.admit(tenant, now, wf, cold_makespan_s);
        SubmitOutcome {
            tenant,
            time: now,
            makespan_s: record.makespan_s,
            queue_delay_s: record.queue_delay_s,
            pool_hits: record.pool_hits,
            cold_rentals: record.cold_rentals,
            tasks: record.tasks,
        }
    }

    /// The per-tenant report of everything folded so far. Mid-run,
    /// machine costs cover **terminated** machines only — live pool
    /// machines are still accruing their bill; [`Self::finish`] (or
    /// the `shutdown` command) settles them.
    #[must_use]
    pub fn report(&mut self) -> ServiceReport {
        self.committer.drain();
        self.committer.acc.finish_report(&self.synthetic_config())
    }

    /// Terminate and bill every live machine. Idempotent; called by
    /// the `shutdown` command before its final report.
    pub fn finish(&mut self) {
        self.committer.finish();
        self.finished = true;
    }

    /// The [`ServiceConfig`] equivalent of this daemon's state, for
    /// report labelling: tenants in creation order, a trace model with
    /// no future arrivals (submissions arrive over the socket, not
    /// from a generator — `BagOfTasks(0)` marks "wire-supplied").
    fn synthetic_config(&self) -> ServiceConfig {
        ServiceConfig {
            alloc: self.opts.alloc,
            itype: self.opts.itype,
            reclaim: self.opts.reclaim,
            boot_time_s: self.opts.boot_time_s,
            tenants: self
                .names
                .iter()
                .map(|name| TenantSpec {
                    name: name.clone(),
                    kind: WorkloadKind::BagOfTasks(0),
                    rate_per_hour: 0.0,
                })
                .collect(),
            model: ArrivalModel::Trace(Vec::new()),
            seed: self.opts.seed,
        }
    }

    /// Handle one parsed request; returns the reply line (no trailing
    /// newline) and whether this was a shutdown.
    pub fn handle(&mut self, req: &Request) -> (String, bool) {
        match req {
            Request::Submit {
                tenant,
                time,
                workflow,
            } => {
                let o = self.submit(tenant, *time, workflow);
                let mut out = String::new();
                let _ = write!(
                    out,
                    "{{\"ok\":true,\"tenant\":{},\"time\":{},\"makespan_s\":{},\
                     \"queue_delay_s\":{},\"pool_hits\":{},\"cold_rentals\":{},\"tasks\":{}}}",
                    json_str(&self.names[o.tenant]),
                    json_f64(o.time),
                    json_f64(o.makespan_s),
                    json_f64(o.queue_delay_s),
                    o.pool_hits,
                    o.cold_rentals,
                    o.tasks
                );
                (out, false)
            }
            Request::Report => (
                format!("{{\"ok\":true,\"report\":{}}}", self.report().to_json()),
                false,
            ),
            Request::Shutdown => {
                self.finish();
                (
                    format!("{{\"ok\":true,\"report\":{}}}", self.report().to_json()),
                    true,
                )
            }
        }
    }
}

/// The bound socket. `bind` chooses the flavor by address shape: an
/// address containing `/` is a unix socket path, anything else is a
/// TCP address (`host:port`; port `0` asks the OS for a free one).
#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// The accept loop around a [`ServeCore`].
#[derive(Debug)]
pub struct Daemon {
    listener: Listener,
    addr: String,
}

impl Daemon {
    /// Bind `addr` (unix path if it contains `/`, TCP otherwise).
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(addr: &str) -> std::io::Result<Daemon> {
        if addr.contains('/') {
            #[cfg(unix)]
            {
                let listener = UnixListener::bind(addr)?;
                Ok(Daemon {
                    listener: Listener::Unix(listener),
                    addr: addr.to_string(),
                })
            }
            #[cfg(not(unix))]
            {
                Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix socket paths need a unix platform",
                ))
            }
        } else {
            let listener = TcpListener::bind(addr)?;
            let addr = listener
                .local_addr()
                .map_or_else(|_| addr.to_string(), |a| a.to_string());
            Ok(Daemon {
                listener: Listener::Tcp(listener),
                addr,
            })
        }
    }

    /// The bound address — for TCP this is the resolved one, so
    /// binding port 0 reveals the port actually chosen.
    #[must_use]
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Serve connections sequentially until a `shutdown` request. A
    /// connection's read or write failure ends that connection only.
    ///
    /// # Errors
    /// Propagates socket accept failures.
    pub fn run(&self, core: &mut ServeCore) -> std::io::Result<()> {
        // Audited wall-clock use (see the module docs): a startup
        // stamp on stderr for the operator. Simulation time starts at
        // zero regardless.
        let unix_now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        eprintln!(
            "cws-serve: listening on {} (started at unix {unix_now})",
            self.addr
        );
        loop {
            let served = match &self.listener {
                Listener::Tcp(l) => serve_connection(l.accept()?.0, core),
                #[cfg(unix)]
                Listener::Unix(l) => serve_connection(l.accept()?.0, core),
            };
            match served {
                Ok(true) => return Ok(()),
                Ok(false) => {}
                Err(e) => {
                    eprintln!("cws-serve: connection dropped: {e}");
                    // A shutdown whose reply could not be delivered
                    // has still settled the pool: stop all the same.
                    if core.finished {
                        return Ok(());
                    }
                }
            }
        }
    }
}

/// Serve one connection line by line; `Ok(true)` after a shutdown.
fn serve_connection<S: Read + Write>(stream: S, core: &mut ServeCore) -> std::io::Result<bool> {
    let mut reader = BufReader::new(stream);
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        let limit = MAX_REQUEST_LINE_BYTES as u64 + 1;
        if reader.by_ref().take(limit).read_until(b'\n', &mut bytes)? == 0 {
            return Ok(false); // client hung up
        }
        if bytes.len() > MAX_REQUEST_LINE_BYTES && bytes.last() != Some(&b'\n') {
            let out = reader.get_mut();
            out.write_all(
                format!(
                    "{{\"ok\":false,\"error\":\"request line longer than \
                     {MAX_REQUEST_LINE_BYTES} bytes\"}}\n"
                )
                .as_bytes(),
            )?;
            out.flush()?;
            return Ok(false); // the rest of the line is never read
        }
        let parsed = match std::str::from_utf8(&bytes) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => parse_request(line.trim()),
            Err(_) => Err("request line is not valid UTF-8".to_string()),
        };
        let (reply, done) = match parsed {
            Ok(req) => core.handle(&req),
            Err(e) => (
                format!("{{\"ok\":false,\"error\":{}}}", json_str(&e)),
                false,
            ),
        };
        let out = reader.get_mut();
        out.write_all(reply.as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()?;
        if done {
            return Ok(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::parse_request;
    use cws_platform::BTU_SECONDS;

    fn demo_line(tenant: &str, time: f64, runtime: f64) -> String {
        format!(
            "{{\"tenant\":\"{tenant}\",\"time\":{time},\"workflow\":{{\"name\":\"demo\",\
             \"tasks\":[{{\"id\":\"t\",\"runtime_s\":{runtime}}}]}}}}"
        )
    }

    fn submit(core: &mut ServeCore, line: &str) -> SubmitOutcome {
        match parse_request(line).expect("valid request") {
            Request::Submit {
                tenant,
                time,
                workflow,
            } => core.submit(&tenant, time, &workflow),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn clock_is_monotone_and_tenants_accumulate() {
        let p = Platform::ec2_paper();
        let mut core = ServeCore::new(&p, ServeOptions::default());
        let a = submit(&mut core, &demo_line("astro", 100.0, 60.0));
        assert_eq!(a.tenant, 0);
        assert_eq!(a.time, 100.0);
        // Requested time in the past → clamped to the clock.
        let b = submit(&mut core, &demo_line("climate", 50.0, 60.0));
        assert_eq!(b.tenant, 1);
        assert_eq!(b.time, 100.0);
        core.finish();
        let report = core.report();
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenants[0].name, "astro");
        assert_eq!(report.fleet.workflows, 2);
        assert!(report.fleet.cost_usd > 0.0);
    }

    #[test]
    fn warm_reuse_happens_across_submissions() {
        let p = Platform::ec2_paper();
        let mut core = ServeCore::new(&p, ServeOptions::default());
        let first = submit(&mut core, &demo_line("astro", 0.0, 600.0));
        assert_eq!(first.cold_rentals, 1);
        // Second submission inside the first machine's paid BTU.
        let second = submit(&mut core, &demo_line("astro", 700.0, 600.0));
        assert_eq!(second.pool_hits, 1, "the warm machine must be claimed");
        core.finish();
        assert_eq!(core.report().fleet.vms, 1, "one machine served both");
    }

    #[test]
    fn mid_run_report_counts_only_terminated_machines() {
        let p = Platform::ec2_paper();
        let mut core = ServeCore::new(&p, ServeOptions::default());
        submit(&mut core, &demo_line("astro", 0.0, 60.0));
        let mid = core.report();
        assert_eq!(mid.fleet.workflows, 1);
        assert_eq!(mid.fleet.vms, 0, "machine still live, bill still open");
        // A submission after the BTU reclaims the first machine.
        submit(&mut core, &demo_line("astro", 2.0 * BTU_SECONDS, 60.0));
        let later = core.report();
        assert_eq!(later.fleet.vms, 1, "first machine settled");
        core.finish();
        assert_eq!(core.report().fleet.vms, 2);
    }

    #[test]
    fn handle_formats_replies_and_shutdown() {
        let p = Platform::ec2_paper();
        let mut core = ServeCore::new(&p, ServeOptions::default());
        let req = parse_request(&demo_line("astro", 0.0, 60.0)).expect("valid");
        let (reply, done) = core.handle(&req);
        assert!(!done);
        assert!(
            reply.starts_with("{\"ok\":true,\"tenant\":\"astro\""),
            "{reply}"
        );
        let (reply, done) = core.handle(&Request::Shutdown);
        assert!(done);
        assert!(reply.contains("\"report\":{"), "{reply}");
        let parsed = cws_obs::json::parse(&reply).expect("reply is valid JSON");
        assert_eq!(
            parsed
                .get("report")
                .and_then(|r| r.get("fleet"))
                .and_then(|f| f.get("workflows"))
                .and_then(cws_obs::json::Value::as_u64),
            Some(1)
        );
    }

    /// An in-memory connection: reads `input`, collects the replies.
    struct Duplex<R> {
        input: R,
        output: Vec<u8>,
    }

    impl<R: Read> Read for Duplex<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl<R> Write for Duplex<R> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn overlong_line_gets_one_error_and_ends_only_its_connection() {
        let p = Platform::ec2_paper();
        let mut core = ServeCore::new(&p, ServeOptions::default());
        let overlong = std::io::repeat(b' ').take(MAX_REQUEST_LINE_BYTES as u64 + 1);
        let mut conn = Duplex {
            input: overlong.chain(&b"\n{\"cmd\":\"shutdown\"}\n"[..]),
            output: Vec::new(),
        };
        assert!(!serve_connection(&mut conn, &mut core).expect("no IO error"));
        assert_eq!(
            String::from_utf8(conn.output).expect("UTF-8 reply"),
            "{\"ok\":false,\"error\":\"request line longer than 67108864 bytes\"}\n"
        );
        assert!(
            !core.finished,
            "the shutdown after the long line is never read"
        );
    }

    #[test]
    fn line_at_the_limit_is_read() {
        let p = Platform::ec2_paper();
        let mut core = ServeCore::new(&p, ServeOptions::default());
        // A blank line of exactly the limit is skipped like any other.
        let blank = std::io::repeat(b' ').take(MAX_REQUEST_LINE_BYTES as u64);
        let mut conn = Duplex {
            input: blank.chain(&b"\n{\"cmd\":\"shutdown\"}\n"[..]),
            output: Vec::new(),
        };
        assert!(serve_connection(&mut conn, &mut core).expect("no IO error"));
        assert!(conn.output.starts_with(b"{\"ok\":true"));
    }
}
