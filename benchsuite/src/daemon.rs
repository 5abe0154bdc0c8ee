//! `daemon-tcp`: round trips to a `cws-exp serve --listen` daemon on a
//! loopback TCP socket, in a closed loop — one client, one connection,
//! the next request sent when the previous reply has arrived.

use crate::trace::{Layer, Tracer};
use crate::Workload;
use cws_obs::json::{json_f64, json_str};
use cws_platform::Platform;
use cws_serve::{parse_request, Daemon, Request, ServeCore, ServeOptions};
use cws_service::{ServiceConfig, TicketStream};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;

/// Pre-serialized workflow bodies per tenant. Setup renders each
/// tenant's first `BODY_POOL` submissions of the serve-pooled ticket
/// stream; later submissions reuse them in turn, with the ticket's own
/// `time` spliced into the request line.
const BODY_POOL: usize = 4096;

/// The stream's horizon: far beyond what any run can send.
const HORIZON_H: f64 = 1e7;

pub(crate) struct DaemonLoad {
    platform: Platform,
    names: Vec<String>,
    bodies: Vec<Vec<String>>,
    tickets: TicketStream,
    /// Submissions sent so far per tenant.
    seq: Vec<usize>,
    /// Every request sent, as (tenant, time, body), for the replay check.
    sent: Vec<(usize, f64, usize)>,
    conn: BufReader<TcpStream>,
    daemon: Option<JoinHandle<std::io::Result<()>>>,
    /// The traced replica's in-process twin of the daemon's core, and
    /// how many of the sent lines it has been fed.
    shadow: Option<(ServeCore, usize)>,
}

fn request_line(tenant: &str, time: f64, body: &str) -> String {
    format!(
        "{{\"tenant\":{},\"time\":{},\"workflow\":{body}}}\n",
        json_str(tenant),
        json_f64(time)
    )
}

impl DaemonLoad {
    pub(crate) fn setup(seed: u64) -> Result<Self, String> {
        let service = crate::serve::profile(false, HORIZON_H, seed);
        let bodies = pre_serialize(&service);
        let platform = Platform::ec2_paper();
        let daemon = Daemon::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = daemon.local_addr().to_string();
        let core_platform = platform.clone();
        let handle = std::thread::spawn(move || {
            let mut core = ServeCore::new(&core_platform, ServeOptions::default());
            daemon.run(&mut core)
        });
        let conn = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(DaemonLoad {
            platform,
            names: service.tenants.iter().map(|t| t.name.clone()).collect(),
            bodies,
            tickets: TicketStream::new(&service.tenants, &service.model, service.seed),
            seq: vec![0; service.tenants.len()],
            sent: Vec::new(),
            conn: BufReader::new(conn),
            daemon: Some(handle),
            shadow: None,
        })
    }

    fn line(&self, (tenant, time, body): (usize, f64, usize)) -> String {
        request_line(&self.names[tenant], time, &self.bodies[tenant][body])
    }

    fn send(&mut self, line: &str) -> Result<String, String> {
        self.conn
            .get_mut()
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.conn.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Send the next ticket's submission; returns the line and the reply.
    fn round_trip(&mut self) -> Result<(String, String), String> {
        let ticket = self.tickets.next().ok_or("ticket stream ran dry")?;
        let body = self.seq[ticket.tenant] % BODY_POOL;
        self.seq[ticket.tenant] += 1;
        let req = (ticket.tenant, ticket.time, body);
        self.sent.push(req);
        let line = self.line(req);
        let reply = self.send(&line)?;
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("daemon refused a submission: {reply}"));
        }
        Ok((line, reply))
    }

    /// Feed an in-process core the lines sent since its `fed`-th.
    fn feed(&self, core: &mut ServeCore, fed: usize) {
        for &req in &self.sent[fed..] {
            if let Ok(r) = parse_request(self.line(req).trim_end()) {
                core.handle(&r);
            }
        }
    }

    fn fresh_core(&self) -> ServeCore {
        ServeCore::new(&self.platform, ServeOptions::default())
    }
}

/// Render each tenant's first `BODY_POOL` workflows of the stream.
fn pre_serialize(service: &ServiceConfig) -> Vec<Vec<String>> {
    let kinds: Vec<_> = service.tenants.iter().map(|t| t.kind).collect();
    let mut bodies: Vec<Vec<String>> = vec![Vec::with_capacity(BODY_POOL); kinds.len()];
    let mut missing = kinds.len() * BODY_POOL;
    for ticket in TicketStream::new(&service.tenants, &service.model, service.seed) {
        let pool = &mut bodies[ticket.tenant];
        if pool.len() < BODY_POOL {
            pool.push(ticket.realize(kinds[ticket.tenant]).to_json());
            missing -= 1;
            if missing == 0 {
                break;
            }
        }
    }
    bodies
}

impl Workload for DaemonLoad {
    fn work_per_unit(&self) -> f64 {
        1.0
    }

    fn unit(&mut self) -> Result<(), String> {
        self.round_trip().map(drop)
    }

    /// The round trip, then the same line through `parse_request` and
    /// `ServeCore::handle` in process; the two replies must agree.
    fn replica(&mut self, t: &mut Tracer) -> Result<(), String> {
        let (mut core, fed) = self.shadow.take().unwrap_or_else(|| (self.fresh_core(), 0));
        self.feed(&mut core, fed);
        let (twin, reply) = t.unit(|t| -> Result<_, String> {
            let (line, reply) = t.span(Layer::Transport, |_| self.round_trip())?;
            let req = t.span(Layer::WireParse, |_| parse_request(line.trim_end()))?;
            let (twin, _) = t.span(Layer::Submit, |_| core.handle(&req));
            Ok((twin, reply))
        })?;
        self.shadow = Some((core, self.sent.len()));
        if twin != reply {
            return Err(format!("daemon replied {reply}, in-process core {twin}"));
        }
        Ok(())
    }

    /// The round trip includes the daemon's own parse and submit; what
    /// is left after taking out their in-process time is transport.
    fn settle(&self, t: &mut Tracer) {
        let inside = t.totals(Layer::WireParse).self_ns + t.totals(Layer::Submit).self_ns;
        t.subtract_self_ns(Layer::Transport, inside);
    }

    /// Shut the daemon down and compare its final report with an
    /// in-process core fed the same lines.
    fn finish(&mut self) -> Result<(), String> {
        let report = self.send("{\"cmd\":\"shutdown\"}\n")?;
        if let Some(handle) = self.daemon.take() {
            handle
                .join()
                .map_err(|_| "daemon thread panicked".to_string())?
                .map_err(|e| format!("daemon: {e}"))?;
        }
        let mut core = self.fresh_core();
        self.feed(&mut core, 0);
        let (expected, _) = core.handle(&Request::Shutdown);
        if expected != report {
            return Err("daemon's shutdown report differs from the in-process core's".to_string());
        }
        Ok(())
    }
}
