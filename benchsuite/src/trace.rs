// cws-lint: allow-file(wall-clock-in-sim)
//! In-memory span recorder for the traced replica runs.
//!
//! The benchmark wraps each call into a crate's public API in a span
//! named after the layer it enters. Spans nest through a stack; when a
//! span closes, its self time (duration minus the time its direct
//! children cover) is added to its layer's totals. Raw spans are kept
//! in memory, up to [`SPAN_CAP`], and written out as JSON lines when
//! the run ends. A disabled tracer runs the same closures with no
//! clock reads, which is what `trace.overhead_pct` compares against.

use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the trace file (32 bytes each in memory).
/// Layer totals keep counting past the cap.
pub const SPAN_CAP: usize = 200_000;

macro_rules! layers {
    ($($variant:ident => $name:literal,)*) => {
        /// One layer of the system, as the benchmark sees it from the
        /// public call it wraps.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Layer {
            $(#[doc = $name] $variant,)*
        }

        impl Layer {
            /// Every layer, in reporting order.
            pub const ALL: &'static [Layer] = &[$(Layer::$variant,)*];

            /// The layer's metric-name prefix.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(Layer::$variant => $name,)*
                }
            }
        }
    };
}

layers! {
    Cpa => "core.schedule.cpa",
    AllPar => "core.schedule.allpar",
    Heft => "core.schedule.heft",
    Gain => "core.schedule.gain",
    OneLns => "core.schedule.onelns",
    SpotHeft => "core.schedule.spot_heft",
    SimReplay => "sim.replay",
    Realize => "workloads.realize",
    TablesBuild => "core.tables_build",
    Validate => "core.validate",
    Billing => "core.billing",
    SpotReplay => "sim.spot_replay",
    Render => "experiments.render",
    FromJson => "dag.from_json",
    Tickets => "service.tickets",
    PooledCold => "core.pooled_cold",
    PooledWarm => "core.pooled_warm",
    WarmSlots => "serve.warm_slots",
    Reclaim => "serve.reclaim",
    Commit => "serve.commit",
    Fold => "serve.fold",
    WireParse => "serve.wire_parse",
    Submit => "serve.submit",
    Transport => "daemon.transport",
}

/// Per-layer totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// One recorded span. `parent` is the index of the enclosing span in
/// the recorder's list; a root span (one replica unit) has none.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Option<Layer>,
    parent: Option<u32>,
    unit: u32,
    start_ns: u64,
    dur_ns: u64,
}

struct Open {
    index: Option<u32>,
    start: Instant,
    child_ns: u64,
}

/// The recorder. One per traced run, used from one thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    totals: Vec<LayerTotals>,
    unit: u32,
    /// Summed duration of the root spans (the replica's wall time).
    unit_ns: u64,
}

impl Tracer {
    /// A recorder; when `enabled` is false every span is a plain call.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            totals: vec![LayerTotals::default(); Layer::ALL.len()],
            unit: 0,
            unit_ns: 0,
        }
    }

    /// Run one replica unit under a root span.
    pub fn unit<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let r = self.open_close(None, f);
        self.unit += 1;
        r
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce(&mut Self) -> R) -> R {
        self.open_close(Some(layer), f)
    }

    fn open_close<R>(&mut self, layer: Option<Layer>, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let parent = self.stack.last().and_then(|o| o.index);
        let index = (self.spans.len() < SPAN_CAP).then(|| {
            self.spans.push(Span {
                layer,
                parent,
                unit: self.unit,
                start_ns: 0,
                dur_ns: 0,
            });
            u32::try_from(self.spans.len() - 1).expect("SPAN_CAP fits in u32")
        });
        let start = Instant::now();
        self.stack.push(Open {
            index,
            start,
            child_ns: 0,
        });
        let r = f(self);
        let end = Instant::now();
        let open = self.stack.pop().expect("span stack balanced");
        let dur_ns = nanos(end - open.start);
        let self_ns = dur_ns.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        match layer {
            Some(l) => {
                let t = &mut self.totals[l as usize];
                t.calls += 1;
                t.self_ns += self_ns;
            }
            None => self.unit_ns += dur_ns,
        }
        if let Some(i) = open.index {
            let s = &mut self.spans[i as usize];
            s.start_ns = nanos(open.start - self.origin);
            s.dur_ns = dur_ns;
        }
        r
    }

    /// Take `ns` of self time away from `layer`, for work a span
    /// covered that another layer's spans already account for.
    pub fn subtract_self_ns(&mut self, layer: Layer, ns: u64) {
        let t = &mut self.totals[layer as usize];
        t.self_ns = t.self_ns.saturating_sub(ns);
    }

    /// Totals for one layer.
    #[must_use]
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[layer as usize]
    }

    /// Replica units recorded.
    #[must_use]
    pub fn units(&self) -> u32 {
        self.unit
    }

    /// Summed layer self time as a share of the replica's wall time,
    /// percent.
    #[must_use]
    pub fn coverage_pct(&self) -> f64 {
        if self.unit_ns == 0 {
            return 0.0;
        }
        let covered: u64 = self.totals.iter().map(|t| t.self_ns).sum();
        100.0 * covered as f64 / self.unit_ns as f64
    }

    /// The recorded spans as JSON lines: `id`, `parent`, `unit` (spans
    /// of one replica unit share it), `layer` (`replica` for a unit's
    /// root), `start_ns` and `dur_ns`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"unit\":{},\"layer\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.unit,
                s.layer.map_or("replica", Layer::name),
                s.start_ns,
                s.dur_ns
            );
        }
        out
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_measure_coverage() {
        let mut t = Tracer::new(true);
        t.unit(|t| {
            t.span(Layer::Heft, |t| {
                t.span(Layer::Validate, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let heft = t.totals(Layer::Heft);
        let validate = t.totals(Layer::Validate);
        assert_eq!((heft.calls, validate.calls), (1, 1));
        assert!(validate.self_ns >= 2_000_000);
        assert!(heft.self_ns < validate.self_ns);
        assert!(t.coverage_pct() > 90.0);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.unit(|t| t.span(Layer::Cpa, |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.totals(Layer::Cpa).calls, 0);
        assert!(t.to_jsonl().is_empty());
    }
}
