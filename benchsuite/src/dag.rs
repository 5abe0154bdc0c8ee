//! `dag-dense` and `dag-sparse`: what `cws-exp sweep --workflow
//! FILE.json` runs — all 19 pairings over one 10⁴-task interchange
//! document, every schedule replayed in the simulator.

use crate::replica;
use crate::trace::{Layer, Tracer};
use crate::{Workload, THREADS};
use cws_core::Strategy;
use cws_dag::Workflow;
use cws_experiments::trace_sweep::{trace_sweep, TraceSweep};
use cws_experiments::ExperimentConfig;
use cws_workloads::{epigenomics, layered_dag, EpigenomicsShape, LayeredShape};

pub(crate) struct Dag {
    config: ExperimentConfig,
    /// The interchange document, as a user's `--workflow` file holds it.
    doc: String,
    /// The document parsed once, as the timed sweeps take it.
    wf: Workflow,
    /// The first sweep's output; every later sweep must match it.
    reference: Option<String>,
}

impl Dag {
    /// `dense`: a layered 20×500 DAG, edge probability 0.1 (about
    /// 475 000 edges), drawn from `seed`, runtimes as generated. Pareto
    /// runtimes are left out on purpose: they swing CPA-Eager's upgrade
    /// rounds, and with them the sweep's cost, by ±25 % between seeds.
    /// `sparse`: epigenomics-50x50 (10 103 tasks, 12 552 edges), a
    /// fixed WfCommons shape with fixed runtimes, so `seed` does not
    /// change it.
    pub(crate) fn setup(dense: bool, seed: u64) -> Result<Self, String> {
        let generated = if dense {
            layered_dag(LayeredShape {
                levels: 20,
                min_width: 500,
                max_width: 500,
                edge_prob: 0.1,
                seed,
            })
        } else {
            epigenomics(EpigenomicsShape {
                lanes: 50,
                chunks_per_lane: 50,
            })
        };
        let doc = generated.to_json();
        let wf = Workflow::from_json(&doc).map_err(|e| format!("interchange round trip: {e}"))?;
        if wf != generated {
            return Err("interchange round trip changed the workflow".to_string());
        }
        Ok(Dag {
            config: ExperimentConfig::default(),
            doc,
            wf,
            reference: None,
        })
    }

    fn check(&mut self, got: String) -> Result<(), String> {
        match &self.reference {
            None => {
                self.reference = Some(got);
                Ok(())
            }
            Some(r) if *r == got => Ok(()),
            Some(_) => Err(format!(
                "{}: sweep output changed between runs",
                self.wf.name()
            )),
        }
    }
}

/// The sweep's table as `cws-exp sweep` prints it, plus every metric at
/// full precision.
fn output(s: &TraceSweep) -> String {
    format!("{}{:?}", s.to_table().to_csv(), s.results)
}

impl Workload for Dag {
    fn work_per_unit(&self) -> f64 {
        // 19 pairings plus the baseline schedule.
        20.0
    }

    fn unit(&mut self) -> Result<(), String> {
        // `validate_with_sim` is on: every schedule is replayed in the
        // simulator, and a divergence panics inside the sweep.
        let got = output(&trace_sweep(&self.config, &self.wf, THREADS));
        self.check(got)
    }

    /// Parse the document, then the sweep at one thread — the whole of
    /// `cws-exp sweep --workflow FILE.json`.
    fn replica(&mut self, t: &mut Tracer) -> Result<(), String> {
        let config = self.config.clone();
        let doc = &self.doc;
        let got = t.unit(|t| -> Result<String, String> {
            let wf = t
                .span(Layer::FromJson, |_| Workflow::from_json(doc))
                .map_err(|e| e.to_string())?;
            let p = replica::prepare(t, &config, wf);
            let results = Strategy::paper_set()
                .into_iter()
                .map(|s| replica::cell(t, &config, &p, s))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(t.span(Layer::Render, |_| {
                output(&TraceSweep {
                    workflow: p.wf.name().to_string(),
                    tasks: p.wf.len(),
                    edges: p.wf.edge_count(),
                    depth: p.wf.depth(),
                    total_work_s: p.wf.total_work(),
                    results,
                })
            }))
        })?;
        self.check(got)
    }
}
