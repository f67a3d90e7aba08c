//! The benchmark's workloads, their inputs and the expectations every flow
//! output is checked against.
//!
//! Why each workload exists, and which layer metric should move which
//! end-to-end metric on it, is recorded in `flowbench/README.md`.

use stg::benchmarks::{
    corpus_suite, counter, parallel_handshakes, pipeline_2ph, pulser, pulser_bank, sequencer,
    table2_suite, wide_conflict,
};
use stg::fuzz::{random_stg_with, FuzzConfig, SplitMix64};
use stg::Stg;
use synthkit::FlowOptions;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["table2", "wide", "governed"];

/// Fuzz STGs in the tail of `table2`.
pub const FUZZ_DRAWS: usize = 8;

/// The draw the `table2` fuzz tail uses.  It is fixed rather than taken
/// from `--seed`: with the draw following the seed, five to six of eight
/// designs changed between seeds and each failing one costs 0.2–2.4 s, so
/// `flow_s` and the failure share moved by more than any bound could
/// absorb.  `--seed` permutes the order of the flows instead.
pub const FUZZ_DRAW: u64 = 0;

/// Slack past a governed flow's deadline before its return counts as a
/// failure.
pub const DEADLINE_SLACK_MS: f64 = 50.0;

/// Upper bound on markings for the explicit state-count oracle.
const EXPLICIT_ORACLE_LIMIT: usize = 200_000;

/// One flow input: the `.g` text handed to the program, the options of its
/// `run_flow` call, and the model the text was written from, kept for the
/// state-count oracle only.
pub struct Design {
    /// Name the benchmark reports the design under.
    pub name: String,
    /// The `.g` text the timed flow parses.
    pub g: String,
    /// Flow options: netlist verification on, plus the governed limits.
    pub options: FlowOptions,
    /// The model the text was written from.
    pub model: Stg,
}

impl Design {
    fn new(name: &str, model: Stg, node_budget: Option<u64>, timeout_ms: Option<u64>) -> Self {
        Design {
            name: name.to_owned(),
            g: model.to_g(),
            options: FlowOptions {
                verify_netlist: true,
                node_budget,
                timeout_ms,
                ..FlowOptions::default()
            },
            model,
        }
    }

    /// Whether the flow runs under a budget (and so may degrade).
    pub fn governed(&self) -> bool {
        self.options.budget().is_some()
    }
}

/// The `table2` fuzz tail: `FUZZ_DRAWS` STGs of at most 2 branches of at
/// most 2 signals, drawn from the SplitMix64 stream of `draw`.
pub fn fuzz_draw(draw: u64) -> Vec<Stg> {
    let config = FuzzConfig { max_branches: 2, max_signals_per_branch: 2 };
    let mut rng = SplitMix64::new(draw);
    (0..FUZZ_DRAWS).map(|_| random_stg_with(rng.next_u64(), &config)).collect()
}

/// Builds the inputs of `workload`, or `None` for an unknown name.
pub fn designs(workload: &str) -> Option<Vec<Design>> {
    let designs = match workload {
        "table2" => table2_suite()
            .into_iter()
            .chain(corpus_suite())
            .map(|(name, model, _)| Design::new(name, model, None, None))
            .chain(fuzz_draw(FUZZ_DRAW).into_iter().map(|model| {
                let name = model.name().to_owned();
                Design::new(&name, model, None, None)
            }))
            .collect(),
        "wide" => vec![
            Design::new("par_hs24", parallel_handshakes(24), None, None),
            Design::new("pipe2_16", pipeline_2ph(16), None, None),
            Design::new("wide_conflict16", wide_conflict(16), None, None),
        ],
        "governed" => vec![
            Design::new("wide_conflict32", wide_conflict(32), Some(200_000), None),
            Design::new("counter4", counter(4), Some(20_000), None),
            Design::new("seq8", sequencer(8), Some(2_000), None),
            Design::new("pulser", pulser(), Some(64), None),
            Design::new("par_hs24", parallel_handshakes(24), Some(50_000_000), None),
            Design::new("wide_conflict8", wide_conflict(8), Some(20_000), Some(1_000)),
            Design::new("pulser_bank5", pulser_bank(5), Some(50_000), Some(1_000)),
        ],
        _ => return None,
    };
    Some(designs)
}

/// The order the flows of pass `pass` run in: a permutation of
/// `0..count` drawn from `seed`.
pub fn pass_order(count: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ (pass as u64).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut order: Vec<usize> = (0..count).collect();
    for i in (1..count).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// How the expected reachable-state count of a design is obtained.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StateOracle {
    /// A closed form of the design family.
    ClosedForm(f64),
    /// Explicit Petri-net reachability on the generated model.
    Explicit,
}

/// The netlist verdict an ungoverned flow must reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpectedVerdict {
    /// Speed-independent and trace-equivalent.
    Verified,
    /// Rejected with witnesses (the arbiter is not speed independent).
    Failed,
}

/// What every flow on a design is checked against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Expectation {
    /// Source of the expected input state count.
    pub states: StateOracle,
    /// Expected netlist verdict of an ungoverned flow.
    pub verdict: ExpectedVerdict,
}

/// Designs whose state count comes from explicit reachability (all below
/// the oracle limit).
const EXPLICIT_STATES: &[&str] = &[
    "handshake",
    "pulser",
    "vme_read",
    "master_read_like",
    "seq2",
    "seq4",
    "seq8",
    "counter2",
    "counter4",
    "par4",
    "pulser_bank2",
    "pulser_bank5",
    "arbiter",
    "pipe4_3",
    "mixed_handshake",
];

/// Closed-form reachable-state counts: `4^n` for `par_hsN` (n independent
/// four-phase handshakes), `6·4^n` for `wide_conflictN` (a six-state
/// conflicted core beside n handshakes) and `2^(n+1)` for `pipe2_N`.
pub fn closed_form_states(name: &str) -> Option<f64> {
    let param = |prefix: &str| name.strip_prefix(prefix)?.parse::<i32>().ok();
    if let Some(n) = param("par_hs") {
        Some(4f64.powi(n))
    } else if let Some(n) = param("wide_conflict") {
        Some(6.0 * 4f64.powi(n))
    } else {
        param("pipe2_").map(|n| 2f64.powi(n + 1))
    }
}

/// The expectation of a design, or `None` when the table does not cover it.
pub fn expectation(name: &str) -> Option<Expectation> {
    let states = if let Some(count) = closed_form_states(name) {
        StateOracle::ClosedForm(count)
    } else if EXPLICIT_STATES.contains(&name) || name.starts_with("fuzz_") {
        StateOracle::Explicit
    } else {
        return None;
    };
    let verdict =
        if name == "arbiter" { ExpectedVerdict::Failed } else { ExpectedVerdict::Verified };
    Some(Expectation { states, verdict })
}

/// The expected input state count of `design`.
///
/// # Panics
///
/// When the expectation table misses the design or the explicit oracle
/// exceeds its limit — both are defects of the benchmark itself.
pub fn expected_states(design: &Design) -> f64 {
    let expectation = expectation(&design.name)
        .unwrap_or_else(|| panic!("no expectation for design {}", design.name));
    match expectation.states {
        StateOracle::ClosedForm(count) => count,
        StateOracle::Explicit => design
            .model
            .net()
            .count_reachable_markings(EXPLICIT_ORACLE_LIMIT)
            .unwrap_or_else(|e| panic!("explicit oracle failed on {}: {e}", design.name))
            as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectation_table_covers_every_design() {
        for workload in WORKLOADS {
            for design in designs(workload).expect("known workload") {
                assert!(
                    expectation(&design.name).is_some(),
                    "{workload}/{} has no expectation",
                    design.name
                );
            }
        }
        assert!(designs("nope").is_none());
    }

    #[test]
    fn closed_forms_agree_with_explicit_reachability() {
        let explicit = |model: Stg| model.net().count_reachable_markings(100_000).unwrap() as f64;
        for n in 1..=4 {
            assert_eq!(
                closed_form_states(&format!("par_hs{n}")),
                Some(explicit(parallel_handshakes(n)))
            );
            assert_eq!(
                closed_form_states(&format!("wide_conflict{n}")),
                Some(explicit(wide_conflict(n)))
            );
        }
        for n in 2..=8 {
            assert_eq!(closed_form_states(&format!("pipe2_{n}")), Some(explicit(pipeline_2ph(n))));
        }
    }

    #[test]
    fn the_same_seed_reproduces_the_same_fuzz_draw() {
        let texts = |draw| fuzz_draw(draw).iter().map(Stg::to_g).collect::<Vec<_>>();
        assert_eq!(texts(FUZZ_DRAW), texts(FUZZ_DRAW));
        assert_eq!(texts(FUZZ_DRAW).len(), FUZZ_DRAWS);
        assert_ne!(texts(FUZZ_DRAW), texts(FUZZ_DRAW + 1));
        assert_eq!(pass_order(24, 7, 3), pass_order(24, 7, 3));
        assert_ne!(pass_order(24, 7, 3), pass_order(24, 8, 3));
        let mut order = pass_order(24, 7, 3);
        order.sort_unstable();
        assert_eq!(order, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn inputs_round_trip_through_the_parser() {
        for workload in WORKLOADS {
            for design in designs(workload).expect("known workload") {
                let parsed = stg::parse_g(&design.g).expect("generated text parses");
                assert_eq!(parsed.stats(), design.model.stats(), "{}", design.name);
            }
        }
    }
}
