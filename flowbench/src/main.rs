//! End-to-end benchmark of the state-encoding flow: for every design of a
//! workload, `.g` text → `stg::parse_g` → `stg::validate` →
//! `synthkit::run_flow` with netlist verification, every output checked.
//!
//! ```text
//! flowbench --workload <table2|wide|governed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread, one closed-loop client: each flow starts when
//! the previous one returns.  A run repeats passes over the workload for
//! `--seconds`; the seed permutes the order of the flows in each pass.
//! `setup_s` is scaled to a reference host speed (`speed.rs`).
//! With `--trace 0` the run prints the end-to-end metrics, with `--trace 1`
//! the per-layer metrics of the traced run (see `trace.rs`).  The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod check;
mod speed;
mod stats;
mod trace;
mod workloads;

use check::{check, run_design, FlowRun, Outcome};
use stats::{geomean, median, peak_rss_mb, quartiles};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use synthkit::FlowRung;
use trace::{layer_metrics, trace_design, Metric, PassTally, Tracer};
use workloads::{designs, expected_states, pass_order, Design, WORKLOADS};

/// Builds of the inputs timed for `setup_s` before the first flow, and again
/// after every pass, so that its median samples the whole run.
const SETUP_BUILDS: usize = 25;

/// A design whose flow took less than this is re-run after the pass until
/// the re-runs fill about this long, so that its median rests on enough
/// warm samples rather than on one cold flow per pass.  Re-runs are checked
/// but count in neither `attempted` nor `failed`.
const RERUN_FILL_MS: f64 = 20.0;

/// Cap on the re-runs of one design after one pass.
const MAX_RERUNS: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Tallies of the output checks over a run.
#[derive(Default)]
struct Checks {
    attempted: usize,
    failed: usize,
    wrong: usize,
    /// Distinct failure messages, in first-seen order.
    messages: Vec<String>,
}

impl Checks {
    fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        let message = match outcome {
            Outcome::Pass => return,
            Outcome::Failed(message) => message,
            Outcome::Wrong(message) => {
                self.wrong += 1;
                format!("WRONG {message}")
            }
        };
        self.failed += 1;
        self.note(message);
    }

    /// Records a re-run: it counts only if its answer is wrong.
    fn record_rerun(&mut self, outcome: Outcome) {
        if let Outcome::Wrong(message) = outcome {
            self.wrong += 1;
            self.note(format!("WRONG {message}"));
        }
    }

    fn note(&mut self, message: String) {
        if !self.messages.contains(&message) {
            self.messages.push(message);
        }
    }
}

/// Times the builds of the workload's inputs, each batch followed by runs
/// of the host-speed kernel (`speed.rs`).
struct Setup {
    builds: Vec<f64>,
    kernel_ms: Vec<f64>,
    kernel: speed::Kernel,
}

impl Setup {
    fn new() -> Self {
        Setup { builds: Vec::new(), kernel_ms: Vec::new(), kernel: speed::Kernel::new() }
    }

    /// Builds the inputs `SETUP_BUILDS` times, then runs the kernel; returns
    /// the last build.
    fn build(&mut self, workload: &str) -> Vec<Design> {
        let mut built = None;
        for _ in 0..SETUP_BUILDS {
            let start = Instant::now();
            let inputs =
                std::hint::black_box(designs(workload).expect("workload name was checked"));
            self.builds.push(start.elapsed().as_secs_f64());
            built = Some(inputs);
        }
        for _ in 0..speed::KERNEL_RUNS {
            self.kernel_ms.push(self.kernel.run_ms());
        }
        built.expect("at least one build")
    }

    /// Median build time in seconds, unscaled and scaled to the reference
    /// host speed.
    fn seconds(&self) -> (f64, f64) {
        let unscaled = median(&self.builds);
        (unscaled, unscaled * speed::REFERENCE_KERNEL_MS / median(&self.kernel_ms))
    }
}

/// Repeats passes until the next one would end past `seconds`; always runs
/// at least one.  `pass` runs pass number `i`.
fn measure(seconds: u64, mut pass: impl FnMut(usize)) {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    for i in 0.. {
        let start = Instant::now();
        pass(i);
        if Instant::now() + start.elapsed() > deadline {
            return;
        }
    }
}

fn end_to_end(
    args: &Args,
    inputs: &[Design],
    expected: &[f64],
    setup: &mut Setup,
    checks: &mut Checks,
) -> Vec<Metric> {
    let mut pass_walls = Vec::new();
    let mut design_ms: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let (mut literals, mut inserted) = (Vec::new(), Vec::new());
    let mut symbolic = 0usize;
    measure(args.seconds, |pass| {
        let order = pass_order(inputs.len(), args.seed, pass);
        let start = Instant::now();
        let runs: Vec<(usize, FlowRun)> =
            order.iter().map(|&i| (i, run_design(&inputs[i]))).collect();
        pass_walls.push(start.elapsed().as_secs_f64());
        let (mut pass_literals, mut pass_inserted) = (0usize, 0usize);
        for (i, run) in &runs {
            design_ms[*i].push(run.ms);
            if let Ok(report) = &run.result {
                pass_literals += report.netlist.as_ref().map_or(0, |stage| stage.literals);
                pass_inserted += report.inserted_signals;
                symbolic += usize::from(report.rung == FlowRung::Symbolic);
            }
            checks.record(check(&inputs[*i], expected[*i], run));
        }
        literals.push(pass_literals as f64);
        inserted.push(pass_inserted as f64);
        for (i, run) in &runs {
            if run.ms < RERUN_FILL_MS {
                let reruns = ((RERUN_FILL_MS / run.ms) as usize).min(MAX_RERUNS);
                for _ in 0..reruns {
                    let rerun = run_design(&inputs[*i]);
                    design_ms[*i].push(rerun.ms);
                    checks.record_rerun(check(&inputs[*i], expected[*i], &rerun));
                }
            }
        }
        setup.build(&args.workload);
    });

    println!("{:<24} {:>12} {:>12} {:>12} {:>6}", "design", "median ms", "q1 ms", "q3 ms", "flows");
    let medians: Vec<f64> = design_ms.iter().map(|ms| median(ms)).collect();
    for (design, (ms, flows)) in inputs.iter().zip(medians.iter().zip(&design_ms)) {
        let (q1, q3) = quartiles(flows);
        println!("{:<24} {ms:>12.3} {q1:>12.3} {q3:>12.3} {:>6}", design.name, flows.len());
    }
    let (unscaled_setup_s, setup_s) = setup.seconds();
    println!("setup_s unscaled {unscaled_setup_s:.9} s");
    let attempted = checks.attempted as f64;
    vec![
        ("flow_s", median(&pass_walls), "s"),
        ("design_ms_geomean", geomean(&medians), "ms"),
        ("peak_rss_mb", peak_rss_mb().expect("/proc/self/status has VmHWM"), "MiB"),
        ("setup_s", setup_s, "s"),
        ("ok_ratio", (checks.attempted - checks.failed) as f64 / attempted, "ratio"),
        ("literals_total", median(&literals), "count"),
        ("signals_inserted_total", median(&inserted), "count"),
        ("symbolic_ratio", symbolic as f64 / attempted, "ratio"),
    ]
}

fn traced(args: &Args, inputs: &[Design], expected: &[f64], checks: &mut Checks) -> Vec<Metric> {
    let mut tracer = Tracer::default();
    let mut per_pass: Vec<Vec<Metric>> = Vec::new();
    measure(args.seconds, |pass| {
        let first = tracer.spans().len();
        let mut tally = PassTally::default();
        for i in pass_order(inputs.len(), args.seed, pass) {
            let (run_ms, result) = trace_design(&mut tracer, i, &inputs[i], &mut tally);
            let run = FlowRun { ms: run_ms, run_ms, result };
            checks.record(check(&inputs[i], expected[i], &run));
        }
        per_pass.push(layer_metrics(&tracer, first, &tally));
    });
    let path = std::path::PathBuf::from(".bench_spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = tracer.write_jsonl(&path, inputs) {
        eprintln!("flowbench: could not write spans to {}: {e}", path.display());
    } else {
        println!("spans written to {}", path.display());
    }
    per_pass[0]
        .iter()
        .enumerate()
        .map(|(k, &(name, _, unit))| {
            let values: Vec<f64> = per_pass.iter().map(|pass| pass[k].1).collect();
            (name, median(&values), unit)
        })
        .collect()
}

/// The result line: integers for counts, shortest round-trip floats.
fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.wrong == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("flowbench: {message}");
            eprintln!(
                "usage: flowbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut setup = Setup::new();
    let inputs = setup.build(&args.workload);
    let expected: Vec<f64> = inputs.iter().map(expected_states).collect();
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(&args, &inputs, &expected, &mut checks)
    } else {
        end_to_end(&args, &inputs, &expected, &mut setup, &mut checks)
    };
    for message in &checks.messages {
        println!("failure: {message}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!("{}", result_json(&checks, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let a =
            args(&["--workload", "wide", "--seed", "3", "--seconds", "5", "--trace", "1"]).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("wide", 3, 5, true));
        assert!(args(&["--workload", "other"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "wide", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "wide", "--seconds"]).is_err());
        assert!(args(&["--workload", "wide", "--bogus", "1"]).is_err());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut checks = Checks::default();
        checks.record(Outcome::Pass);
        checks.record(Outcome::Failed("x: late".to_owned()));
        let line = result_json(&checks, &[("flow_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \
             \"metrics\": {\"flow_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
