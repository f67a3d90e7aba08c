//! One timed flow, `.g` text → parse → validate → `run_flow`, and the check
//! of its output against the design's expectation.

use crate::workloads::{expectation, Design, ExpectedVerdict, DEADLINE_SLACK_MS};
use std::time::Instant;
use synthkit::{run_flow, FlowReport, FlowRung, NetlistVerdict};

/// What one flow returned, with its wall times.
pub struct FlowRun {
    /// Wall milliseconds of parse, validate and `run_flow` together.
    pub ms: f64,
    /// Wall milliseconds of the `run_flow` call alone (0 if it never ran).
    pub run_ms: f64,
    /// The report, or why the flow produced none.
    pub result: Result<FlowReport, String>,
}

/// Parses, validates and runs the flow on `design`, timing it.
pub fn run_design(design: &Design) -> FlowRun {
    let start = Instant::now();
    let failed = |why: String| FlowRun {
        ms: start.elapsed().as_secs_f64() * 1e3,
        run_ms: 0.0,
        result: Err(why),
    };
    let model = match stg::parse_g(&design.g) {
        Ok(model) => model,
        Err(e) => return failed(format!("parse: {e}")),
    };
    let validation = stg::validate(&model);
    if let Some(error) = validation.errors().next() {
        return failed(format!("validate: {error}"));
    }
    let run_start = Instant::now();
    let result = run_flow(&model, &design.options).map_err(|e| e.to_string());
    let end = Instant::now();
    FlowRun {
        ms: (end - start).as_secs_f64() * 1e3,
        run_ms: (end - run_start).as_secs_f64() * 1e3,
        result,
    }
}

/// The verdict on one flow.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Every check held.
    Pass,
    /// The flow returned an error or returned late: counted in `failed`.
    Failed(String),
    /// The flow returned a wrong answer: the run is not `correct`.
    Wrong(String),
}

/// Checks one flow against the design's expectation.  `expected_states` is
/// the oracle's count for the design.  Every message names the design.
pub fn check(design: &Design, expected_states: f64, run: &FlowRun) -> Outcome {
    let name = &design.name;
    let report = match &run.result {
        Ok(report) => report,
        Err(why) => return Outcome::Failed(format!("{name}: {why}")),
    };
    if let Some(deadline) = design.options.timeout_ms {
        let limit = deadline as f64 + DEADLINE_SLACK_MS;
        if run.run_ms > limit {
            return Outcome::Failed(format!(
                "{name}: returned after {:.0} ms, past its {deadline} ms deadline + {DEADLINE_SLACK_MS} ms slack",
                run.run_ms
            ));
        }
    }
    // A partial report claims no state count.
    if report.rung != FlowRung::PartialReport {
        let close = (report.states_f64 - expected_states).abs() <= expected_states * 1e-9;
        if !close {
            return Outcome::Wrong(format!(
                "{name}: {} states reported, {expected_states} expected",
                report.states_f64
            ));
        }
    }
    if design.governed() {
        return Outcome::Pass;
    }
    if !report.csc_satisfied {
        return Outcome::Wrong(format!("{name}: ungoverned Ok report without CSC"));
    }
    let expected = expectation(name).map(|e| e.verdict);
    let verdict = report.netlist.as_ref().map(|stage| &stage.verdict);
    match (expected, verdict) {
        (Some(ExpectedVerdict::Verified), Some(NetlistVerdict::Verified { .. }))
        | (Some(ExpectedVerdict::Failed), Some(NetlistVerdict::Failed { .. })) => Outcome::Pass,
        (expected, verdict) => Outcome::Wrong(format!(
            "{name}: netlist verdict {} where {expected:?} was expected",
            match verdict {
                None => "missing".to_owned(),
                Some(NetlistVerdict::NotRequested) => "not requested".to_owned(),
                Some(NetlistVerdict::Verified { .. }) => "Verified".to_owned(),
                Some(NetlistVerdict::Failed { diagnostics }) =>
                    format!("Failed ({} findings)", diagnostics.len()),
                Some(NetlistVerdict::Aborted { reason }) => format!("Aborted ({reason})"),
            }
        )),
    }
}
