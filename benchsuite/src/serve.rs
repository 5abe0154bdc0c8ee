//! `serve-pooled` and `serve-light`: `cws-exp serve` batch runs, one
//! `run_sharded_summary` per unit. The two profiles use the same warm
//! pool in opposite ways: the paper profile reuses warm machines for
//! most submissions, the light profile reclaims every machine at once.

use crate::trace::{Layer, Tracer};
use crate::{Workload, THREADS};
use cws_core::pooled::pooled_static;
use cws_core::StaticAlloc;
use cws_obs as obs;
use cws_platform::{InstanceType, Platform};
use cws_serve::{run_sharded_summary, ShardedConfig, ShardedPool};
use cws_service::{
    ArrivalModel, ReclaimPolicy, ReportAccumulator, ServiceConfig, TenantSpec, TicketStream,
    WorkflowRecord, WorkloadKind,
};

/// The `cws-exp serve` tenant mixes. `light = false` is the paper
/// profile (three tenants, 120 s boot, BTU-boundary reclaim);
/// `light = true` is `--light` (one 50 000/h bag-of-tasks tenant, no
/// boot, immediate reclaim).
#[must_use]
pub fn profile(light: bool, hours: f64, seed: u64) -> ServiceConfig {
    let tenant = |name: &str, kind, rate_per_hour| TenantSpec {
        name: name.to_string(),
        kind,
        rate_per_hour,
    };
    let (boot_time_s, reclaim, tenants) = if light {
        (
            0.0,
            ReclaimPolicy::Immediate,
            vec![tenant("batch", WorkloadKind::UniformBag(4), 50_000.0)],
        )
    } else {
        (
            120.0,
            ReclaimPolicy::AtBtuBoundary,
            vec![
                tenant("astro", WorkloadKind::Montage24, 6.0),
                tenant("climate", WorkloadKind::CStem, 4.0),
                tenant("batch", WorkloadKind::BagOfTasks(16), 3.0),
            ],
        )
    };
    ServiceConfig {
        alloc: StaticAlloc::HeftStartParExceed,
        itype: InstanceType::Small,
        reclaim,
        boot_time_s,
        tenants,
        model: ArrivalModel::Poisson {
            horizon_s: hours * 3600.0,
        },
        seed,
    }
}

pub(crate) struct Serve {
    platform: Platform,
    cfg: ShardedConfig,
    /// Submissions the ticket stream yields: one unit's work.
    submissions: usize,
    /// The first run's summary; every later run must match it.
    reference: Option<String>,
}

impl Serve {
    /// `pooled`: the paper profile over 2000 h (about 26 000
    /// submissions). Otherwise the light profile over 2 h (about
    /// 100 000 submissions).
    pub(crate) fn setup(pooled: bool, seed: u64) -> Self {
        let service = if pooled {
            profile(false, 2000.0, seed)
        } else {
            profile(true, 2.0, seed)
        };
        let submissions = TicketStream::new(&service.tenants, &service.model, service.seed).count();
        Serve {
            platform: Platform::ec2_paper(),
            cfg: ShardedConfig {
                service,
                shards: 1,
                threads: THREADS,
                epoch: 64,
            },
            submissions,
            reference: None,
        }
    }

    fn check(&mut self, workflows: usize, got: String) -> Result<(), String> {
        if workflows != self.submissions {
            return Err(format!(
                "summary folded {workflows} workflows, the ticket stream has {}",
                self.submissions
            ));
        }
        match &self.reference {
            None => {
                self.reference = Some(got);
                Ok(())
            }
            Some(r) if *r == got => Ok(()),
            Some(_) => Err("serve summary differs between runs".to_string()),
        }
    }
}

impl Workload for Serve {
    fn work_per_unit(&self) -> f64 {
        self.submissions as f64
    }

    fn unit(&mut self) -> Result<(), String> {
        let s = run_sharded_summary(&self.platform, &self.cfg);
        self.check(s.fleet.workflows, s.to_json())
    }

    /// `cws_serve::engine`'s one-thread path: per ticket, prepare
    /// (realize + cold reference, muted like the engine's) and commit
    /// in arrival order, then settle the pool and fold the summary.
    fn replica(&mut self, t: &mut Tracer) -> Result<(), String> {
        let svc = &self.cfg.service;
        let platform = self.platform.clone().with_boot_time(svc.boot_time_s);
        let kinds: Vec<WorkloadKind> = svc.tenants.iter().map(|t| t.kind).collect();
        let (alloc, itype) = (svc.alloc, svc.itype);
        let (workflows, got) = t.unit(|t| {
            let mut pool = ShardedPool::new(svc.reclaim, self.cfg.shards);
            let mut acc = ReportAccumulator::new(svc.tenants.len());
            let mut tickets = t.span(Layer::Tickets, |_| {
                TicketStream::new(&svc.tenants, &svc.model, svc.seed)
            });
            while let Some(ticket) = t.span(Layer::Tickets, |_| tickets.next()) {
                let wf = t.span(Layer::Realize, |_| {
                    obs::quiet(|| ticket.realize(kinds[ticket.tenant]))
                });
                let cold_makespan_s = t.span(Layer::PooledCold, |_| {
                    obs::quiet(|| {
                        pooled_static(&wf, &platform, alloc, itype, &[])
                            .schedule
                            .makespan()
                    })
                });
                let now = ticket.time;
                t.span(Layer::Reclaim, |_| pool.reclaim_until(now));
                t.span(Layer::Fold, |_| pool.drain_folded(&mut acc, &platform));
                let (warm, slot_map) = t.span(Layer::WarmSlots, |_| pool.warm_slots(now));
                let pooled = t.span(Layer::PooledWarm, |_| {
                    pooled_static(&wf, &platform, alloc, itype, &warm)
                });
                t.span(Layer::Fold, |_| {
                    acc.record(&WorkflowRecord {
                        tenant: ticket.tenant,
                        arrival_s: now,
                        makespan_s: pooled.schedule.makespan(),
                        cold_makespan_s,
                        queue_delay_s: pooled
                            .schedule
                            .placements
                            .iter()
                            .map(|pl| pl.start)
                            .fold(f64::INFINITY, f64::min),
                        pool_hits: pooled.pool_hits(),
                        cold_rentals: pooled.cold_rentals(),
                        tasks: wf.len(),
                    });
                });
                t.span(Layer::Commit, |_| {
                    pool.commit(now, ticket.tenant, &pooled, &slot_map, &platform);
                });
            }
            t.span(Layer::Reclaim, |_| pool.finish());
            t.span(Layer::Fold, |_| {
                pool.drain_folded(&mut acc, &platform);
                let s = acc.finish_summary(svc);
                (s.fleet.workflows, s.to_json())
            })
        });
        self.check(workflows, got)
    }
}
