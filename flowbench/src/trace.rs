//! The traced run: spans recorded from the benchmark's own code around its
//! calls into each layer's public functions.  Nothing inside the program is
//! instrumented.
//!
//! For every design a traced pass records
//!
//! * `stg.parse`, `stg.validate` — the flow's front end;
//! * `flow.run_flow` — one untraced `run_flow` call, the reference the
//!   layer calls are attributed against;
//! * `flow.mirror` — the calls the symbolic rung of `run_flow` makes, one
//!   span each: `logic.analyze` on the input, and on a CSC conflict
//!   `csc.solve` and `logic.analyze` on the encoded STG, then
//!   `netlist.synth` and `netlist.verify`.  The mirror stops where the
//!   rung would stop (a budget trip or a solver error);
//! * `stg.reach` and `stg.marking_reach` — the two fixpoints every
//!   `logic.analyze` runs, repeated alone on the same STG so the analysis'
//!   own time can be separated from them.
//!
//! Layer calls share one `bdd::Budget` per design (unlimited for ungoverned
//! designs, the design's limits otherwise), so every span also records the
//! BDD nodes and apply steps charged during it.

use crate::workloads::Design;
use bdd::Budget;
use csc::{solve_stg_symbolic_with, SolveStats};
use logic::{analyze_stg_with, LogicError};
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;
use stg::{ReachabilityConfig, Stg};
use synthkit::{run_flow, FlowReport, FlowRung};

/// One timed call, or a group of calls.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer function (or group) the span covers.
    pub name: &'static str,
    /// Index of the design the call worked on.
    pub design: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// BDD nodes charged to the budget during the call.
    pub nodes: u64,
    /// BDD apply steps charged to the budget during the call.
    pub steps: u64,
    /// Operation-cache hits of the state space the call returned.
    pub cache_hits: u64,
    /// Operation-cache lookups of the state space the call returned.
    pub cache_lookups: u64,
}

impl Span {
    /// Wall milliseconds of the span.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder; spans are written out once, at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    design: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), design: 0 }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let span = Span {
            name,
            design: self.design,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            nodes: 0,
            steps: 0,
            cache_hits: 0,
            cache_lookups: 0,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`, recording what it charged to
    /// `budget`.
    pub fn call<T>(&mut self, name: &'static str, budget: &Budget, f: impl FnOnce() -> T) -> T {
        let (nodes, steps) = (budget.nodes_spent(), budget.steps_spent());
        let id = self.begin(name);
        let out = f();
        self.end(id);
        self.spans[id].nodes = budget.nodes_spent() - nodes;
        self.spans[id].steps = budget.steps_spent() - steps;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Milliseconds of `id` not covered by its child spans.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::ms).sum();
        self.spans[id].ms() - children
    }

    /// Writes the spans as JSON lines, one span per line, with their self
    /// time and the design's name.
    pub fn write_jsonl(&self, path: &std::path::Path, designs: &[Design]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"design\":\"{}\",\"parent\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ms\":{},\"nodes\":{},\"steps\":{},\"cache_hits\":{},\
                 \"cache_lookups\":{}}}",
                s.name,
                designs[s.design].name,
                s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                self.self_ms(id),
                s.nodes,
                s.steps,
                s.cache_hits,
                s.cache_lookups,
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// What one traced pass learned besides its spans.
#[derive(Default)]
pub struct PassTally {
    /// Solver statistics of every successful `csc.solve` call.
    pub solves: Vec<(SolveStats, usize)>,
    /// `(report, run_flow wall ms, deadline ms)` of every reference call
    /// that returned a report.
    pub ladders: Vec<(FlowReport, f64, Option<u64>)>,
    /// Mirror ms minus reference `run_flow` ms, summed over the designs
    /// whose flow finished on the symbolic rung, where the mirror repeats
    /// the whole flow.
    pub trace_overhead_ms: f64,
}

/// The budget a layer call runs under: the design's limits, fresh.
fn fresh_budget(design: &Design) -> Budget {
    design.options.budget().unwrap_or_else(Budget::unlimited)
}

/// Traces one design: front end, reference `run_flow`, mirror, probes.
/// Returns the reference call's wall ms and result for the output checks.
pub fn trace_design(
    tracer: &mut Tracer,
    index: usize,
    design: &Design,
    tally: &mut PassTally,
) -> (f64, Result<FlowReport, String>) {
    tracer.design = index;
    let root = tracer.begin("design");
    let front = Budget::unlimited();
    let model = tracer.call("stg.parse", &front, || stg::parse_g(&design.g));
    let model = match model {
        Ok(model) => model,
        Err(e) => {
            tracer.end(root);
            return (0.0, Err(format!("parse: {e}")));
        }
    };
    let validation = tracer.call("stg.validate", &front, || stg::validate(&model));
    if let Some(error) = validation.errors().next() {
        tracer.end(root);
        return (0.0, Err(format!("validate: {error}")));
    }

    let reference = tracer.begin("flow.run_flow");
    let result = run_flow(&model, &design.options).map_err(|e| e.to_string());
    tracer.end(reference);
    let run_ms = tracer.spans()[reference].ms();
    if let Ok(report) = &result {
        tally.ladders.push((report.clone(), run_ms, design.options.timeout_ms));
    }

    let budget = fresh_budget(design);
    let reach = ReachabilityConfig { budget: Some(budget.clone()), ..Default::default() };
    let mirror = tracer.begin("flow.mirror");
    let analysed = mirror_symbolic_rung(tracer, design, &model, &budget, &reach, tally);
    tracer.end(mirror);
    if result.as_ref().is_ok_and(|r| r.rung == FlowRung::Symbolic && r.degradations.is_empty()) {
        tally.trace_overhead_ms += tracer.spans()[mirror].ms() - run_ms;
    }

    for stg in &analysed {
        probe_fixpoints(tracer, design, stg);
    }
    tracer.end(root);
    (run_ms, result)
}

/// The layer calls of `run_flow`'s symbolic rung, each in its own span.
/// Returns the STGs `logic.analyze` ran on.
fn mirror_symbolic_rung(
    tracer: &mut Tracer,
    design: &Design,
    model: &Stg,
    budget: &Budget,
    reach: &ReachabilityConfig,
    tally: &mut PassTally,
) -> Vec<Stg> {
    let code = design.options.initial_code;
    let mut analysed = vec![model.clone()];
    let analysis = tracer.call("logic.analyze", budget, || analyze_stg_with(model, code, reach));
    let (encoded, functions) = match analysis {
        Ok(analysis) => (model.clone(), analysis.functions),
        Err(LogicError::CscViolation { .. }) => {
            let solution = tracer.call("csc.solve", budget, || {
                solve_stg_symbolic_with(model, &design.options.solver, code, reach)
            });
            let Ok(solution) = solution else { return analysed };
            tally.solves.push((solution.stats.clone(), solution.inserted_signals.len()));
            analysed.push(solution.stg.clone());
            let analysis = tracer
                .call("logic.analyze", budget, || analyze_stg_with(&solution.stg, code, reach));
            match analysis {
                Ok(analysis) => (solution.stg, analysis.functions),
                Err(_) => return analysed,
            }
        }
        Err(_) => return analysed,
    };
    let circuit =
        tracer.call("netlist.synth", budget, || netlist::synthesize(&encoded, &functions));
    if let Ok(circuit) = circuit {
        let _ = tracer
            .call("netlist.verify", budget, || netlist::verify(&encoded, &circuit, code, reach));
    }
    analysed
}

/// The two fixpoints of `logic.analyze`, run alone on `stg`, each under a
/// fresh budget with the design's limits.
fn probe_fixpoints(tracer: &mut Tracer, design: &Design, stg: &Stg) {
    let code = design.options.initial_code;
    let budget = fresh_budget(design);
    let config = ReachabilityConfig::with_budget(budget.clone());
    let space =
        tracer.call("stg.reach", &budget, || stg.try_symbolic_encoded_state_space(code, &config));
    record_cache(tracer, space.as_ref().ok().map(stg::SymbolicStateSpace::manager_stats));
    let budget = fresh_budget(design);
    let config = ReachabilityConfig::with_budget(budget.clone());
    let space = tracer.call("stg.marking_reach", &budget, || stg.try_symbolic_state_space(&config));
    record_cache(tracer, space.as_ref().ok().map(stg::SymbolicStateSpace::manager_stats));
}

fn record_cache(tracer: &mut Tracer, stats: Option<bdd::BddStats>) {
    if let (Some(stats), Some(span)) = (stats, tracer.spans.last_mut()) {
        span.cache_hits = stats.cache_hits;
        span.cache_lookups = stats.cache_hits + stats.cache_misses;
    }
}

/// Sum starting from +0, so that an empty sum does not print as -0.
fn total(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |sum, v| sum + v)
}

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics of one traced pass, from the spans with index
/// `first..` and the pass tally.
pub fn layer_metrics(tracer: &Tracer, first: usize, tally: &PassTally) -> Vec<Metric> {
    let spans = &tracer.spans()[first..];
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let ms = |name| total(named(name).map(Span::ms));
    let nodes = |name| total(named(name).map(|s| s.nodes as f64));
    let steps = |name| total(named(name).map(|s| s.steps as f64));

    // Layer calls directly under a mirror span: what run_flow's own calls
    // are attributed against.
    let mirror_children = total(
        spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| tracer.spans()[p].name == "flow.mirror"))
            .map(Span::ms),
    );
    let mirror_layers = ["logic.analyze", "csc.solve", "netlist.verify"];
    let bdd_nodes = total(mirror_layers.iter().map(|&n| nodes(n)));
    let bdd_steps = total(mirror_layers.iter().map(|&n| steps(n)));
    let (hits, lookups) =
        spans.iter().fold((0u64, 0u64), |(h, l), s| (h + s.cache_hits, l + s.cache_lookups));

    let stage = |f: fn(&SolveStats) -> f64| total(tally.solves.iter().map(|(s, _)| f(s)));
    let evaluated = stage(|s| s.stage.candidates_evaluated as f64);
    let inserted = total(tally.solves.iter().map(|&(_, n)| n as f64));

    let (mut symbolic_ms, mut explicit_ms, mut overrun_ms) = (0.0, 0.0, 0.0);
    for (report, run_ms, deadline) in &tally.ladders {
        let (symbolic, explicit) = ladder_ms(report);
        symbolic_ms += symbolic;
        explicit_ms += explicit;
        if let Some(deadline) = deadline {
            overrun_ms += (run_ms - *deadline as f64).max(0.0);
        }
    }

    let analyze_ms = ms("logic.analyze");
    let run_flow_ms = ms("flow.run_flow");
    let traced_ms = ms("flow.mirror");
    vec![
        ("stg.parse_ms", ms("stg.parse"), "ms"),
        ("stg.validate_ms", ms("stg.validate"), "ms"),
        ("stg.reach_ms", ms("stg.reach"), "ms"),
        ("stg.marking_reach_ms", ms("stg.marking_reach"), "ms"),
        ("stg.reach_nodes", nodes("stg.reach") + nodes("stg.marking_reach"), "count"),
        ("stg.reach_steps", steps("stg.reach") + steps("stg.marking_reach"), "count"),
        ("csc.solve_ms", ms("csc.solve"), "ms"),
        ("csc.nodes", nodes("csc.solve"), "count"),
        ("csc.steps", steps("csc.solve"), "count"),
        ("csc.candidates_evaluated", evaluated, "count"),
        ("csc.candidates_pruned", stage(|s| s.stage.candidates_pruned as f64), "count"),
        ("csc.accept_ratio", if evaluated > 0.0 { inserted / evaluated } else { 0.0 }, "ratio"),
        ("csc.conflict_ms", stage(|s| s.stage.conflict_ms), "ms"),
        ("csc.search_ms", stage(|s| s.stage.search_ms), "ms"),
        ("csc.partition_ms", stage(|s| s.stage.partition_ms), "ms"),
        ("csc.insert_ms", stage(|s| s.stage.insert_ms), "ms"),
        ("logic.analyze_ms", analyze_ms, "ms"),
        ("logic.nodes", nodes("logic.analyze"), "count"),
        ("logic.steps", steps("logic.analyze"), "count"),
        ("logic.self_ms", analyze_ms - ms("stg.reach") - ms("stg.marking_reach"), "ms"),
        ("netlist.synth_ms", ms("netlist.synth"), "ms"),
        ("netlist.verify_ms", ms("netlist.verify"), "ms"),
        ("netlist.verify_nodes", nodes("netlist.verify"), "count"),
        ("bdd.nodes_total", bdd_nodes, "count"),
        ("bdd.steps_total", bdd_steps, "count"),
        (
            "bdd.cache_hit_ratio",
            if lookups > 0 { hits as f64 / lookups as f64 } else { 0.0 },
            "ratio",
        ),
        ("ladder.symbolic_ms", symbolic_ms, "ms"),
        ("ladder.explicit_ms", explicit_ms, "ms"),
        ("ladder.deadline_overrun_ms", overrun_ms, "ms"),
        ("flow.run_flow_ms", run_flow_ms, "ms"),
        ("flow.traced_ms", traced_ms, "ms"),
        ("flow.unattributed_ms", run_flow_ms - mirror_children, "ms"),
        ("flow.trace_overhead_ms", tally.trace_overhead_ms, "ms"),
    ]
}

/// Milliseconds a flow spent on the symbolic rungs before leaving them,
/// and on the explicit rung, read from its degradation trail.  A flow that
/// never descended spent nothing on either count.
pub fn ladder_ms(report: &FlowReport) -> (f64, f64) {
    let end_ms = report.cpu_seconds * 1e3;
    let at = |e: &synthkit::DegradationEvent| e.elapsed_ms as f64;
    let left_symbolic = report.degradations.iter().find(|e| e.to >= FlowRung::Explicit).map(at);
    let entered_explicit = report.degradations.iter().find(|e| e.to == FlowRung::Explicit).map(at);
    let left_explicit = report.degradations.iter().find(|e| e.from == FlowRung::Explicit).map(at);
    let explicit = match (entered_explicit, left_explicit) {
        (Some(entered), Some(left)) => left - entered,
        (Some(entered), None) if report.rung == FlowRung::Explicit => end_ms - entered,
        _ => 0.0,
    };
    (left_symbolic.unwrap_or(0.0), explicit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::default();
        let root = tracer.begin("design");
        let budget = Budget::unlimited();
        tracer
            .call("stg.parse", &budget, || std::thread::sleep(std::time::Duration::from_millis(3)));
        tracer.end(root);
        let child = tracer.spans()[1].ms();
        assert!(child >= 3.0);
        assert_eq!(tracer.spans()[1].parent, Some(root));
        assert!((tracer.self_ms(root) - (tracer.spans()[root].ms() - child)).abs() < 1e-9);
        assert_eq!(tracer.self_ms(1), child);
    }
}
