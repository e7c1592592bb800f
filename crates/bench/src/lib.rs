//! # adaflow-bench — benchmark harness for every table and figure
//!
//! One binary per evaluation artifact of the paper (the hot paths are timed
//! by the repo benchmark under `benchmark/`):
//!
//! | Paper artifact | Binary | What it prints |
//! |---|---|---|
//! | Fig. 1(a) | `fig1a` | accuracy & FPS vs pruning rate, CNVW2A2/CIFAR-10 |
//! | Fig. 1(b) | `fig1b` | frame-loss traces at reconfiguration times 0–362 ms |
//! | Fig. 5(a) | `fig5a` | LUT/FF/BRAM/DSP for FINN vs Flexible vs Fixed sweep |
//! | Fig. 5(b,c) | `fig5bc` | accuracy vs energy/inference, CIFAR-10 & GTSRB |
//! | Table I | `table1` | frame loss, QoE, power, power efficiency for all four dataset/model pairs × both scenarios |
//! | Fig. 6(a,b) | `fig6` | frame-loss and QoE traces for Scenarios 1, 2, 1+2 with model-switch annotations |
//!
//! Run a binary with `cargo run --release -p adaflow-bench --bin table1`.
//! The four that average seeded runs (`fig1b`, `table1`, `monitoring`,
//! `ablations`) accept `--runs N`, N ≥ 1 (default: the paper's 100
//! repetitions), and exit with status 2 on any other argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use adaflow::{Library, LibraryGenerator};
use adaflow_model::{topology, CnnGraph, QuantSpec};
use adaflow_nn::DatasetKind;

/// A dataset/model combination evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Combo {
    /// Dataset.
    pub dataset: DatasetKind,
    /// Quantization variant.
    pub quant: QuantSpec,
}

impl Combo {
    /// The four combinations of Table I, in the paper's row order.
    #[must_use]
    pub fn all() -> [Combo; 4] {
        [
            Combo {
                dataset: DatasetKind::Cifar10,
                quant: QuantSpec::w2a2(),
            },
            Combo {
                dataset: DatasetKind::Gtsrb,
                quant: QuantSpec::w2a2(),
            },
            Combo {
                dataset: DatasetKind::Cifar10,
                quant: QuantSpec::w1a2(),
            },
            Combo {
                dataset: DatasetKind::Gtsrb,
                quant: QuantSpec::w1a2(),
            },
        ]
    }

    /// Paper-style display name, e.g. `CIFAR-10 / CNVW2A2`.
    #[must_use]
    pub fn label(&self) -> String {
        let ds = match self.dataset {
            DatasetKind::Cifar10 => "CIFAR-10",
            DatasetKind::Gtsrb => "GTSRB",
        };
        format!("{ds} / CNV{}", self.quant)
    }

    /// Builds the initial (unpruned) CNN graph of this combination.
    ///
    /// # Panics
    ///
    /// Never panics for the four paper combinations.
    #[must_use]
    pub fn initial_graph(&self) -> CnnGraph {
        let classes = self.dataset.classes();
        topology::cnv(self.quant, classes)
            .build()
            .expect("CNV reference topology builds")
            .renamed(format!(
                "cnv-{}-{}",
                self.quant.to_string().to_lowercase(),
                self.dataset.short_name()
            ))
    }

    /// Generates the AdaFlow library for this combination with the paper's
    /// evaluation setup (18 pruning rates, ZCU104).
    ///
    /// # Panics
    ///
    /// Panics if generation fails (cannot happen for the reference setups).
    #[must_use]
    pub fn build_library(&self) -> Library {
        LibraryGenerator::default_edge_setup()
            .generate(&self.initial_graph(), self.dataset)
            .expect("library generation succeeds for reference setups")
    }
}

/// The value of a `--runs N` flag: the number of seeded runs, N ≥ 1. The
/// figure binaries and the `adaflow_cli` simulators read it through here.
///
/// # Errors
///
/// An N that is not a whole number of at least 1.
pub fn parse_runs(n: &str) -> Result<usize, String> {
    match n.parse() {
        Ok(runs) if runs >= 1 => Ok(runs),
        _ => Err(format!(
            "--runs needs a whole number of at least 1, not `{n}`"
        )),
    }
}

/// The repetition count of a figure binary's arguments (the program name
/// left out): none gives the paper's 100 repetitions, `--runs N` gives N.
///
/// # Errors
///
/// Any other argument list, or an N that [`parse_runs`] refuses.
pub fn runs_from_args(args: &[String]) -> Result<usize, String> {
    match args {
        [] => Ok(100),
        [flag, n] if flag == "--runs" => parse_runs(n),
        _ => Err(format!(
            "unexpected arguments `{}`; usage: [--runs N]",
            args.join(" ")
        )),
    }
}

/// [`runs_from_args`] over this process's arguments; on an error it prints
/// the message and exits with status 2.
#[must_use]
pub fn runs_arg() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    runs_from_args(&args).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2)
    })
}

/// Formats a markdown-style table row.
#[must_use]
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Formats a header + separator for a markdown-style table.
#[must_use]
pub fn header(cells: &[&str]) -> String {
    let head = row(&cells.iter().map(|c| (*c).to_string()).collect::<Vec<_>>());
    let sep = format!("|{}", cells.iter().map(|_| "---|").collect::<String>());
    format!("{head}\n{sep}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_combos_in_paper_order() {
        let combos = Combo::all();
        assert_eq!(combos[0].label(), "CIFAR-10 / CNVW2A2");
        assert_eq!(combos[1].label(), "GTSRB / CNVW2A2");
        assert_eq!(combos[3].label(), "GTSRB / CNVW1A2");
    }

    #[test]
    fn initial_graphs_build() {
        for combo in Combo::all() {
            let g = combo.initial_graph();
            assert_eq!(g.conv_layers().count(), 6);
        }
    }

    #[test]
    fn runs_accepts_only_a_whole_count_of_at_least_one() {
        let runs = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            runs_from_args(&args)
        };
        assert_eq!(runs(""), Ok(100), "the paper's repetitions");
        assert_eq!(runs("--runs 5"), Ok(5));
        assert_eq!(runs("--runs 1"), Ok(1));
        // Each of these once ran a silent 100-run sweep, or panicked on 0.
        for bad in [
            "--runs 0",
            "--runs abc",
            "--runs -3",
            "--runs",
            "--run 5",
            "5",
        ] {
            let err = runs(bad).expect_err(bad);
            assert!(err.contains("--runs"), "{bad}: {err}");
        }
        assert!(runs("--runs 5 --runs 6").is_err());
    }

    #[test]
    fn table_formatting() {
        let h = header(&["a", "b"]);
        assert!(h.contains("| a | b |"));
        assert!(h.contains("|---|---|"));
        assert_eq!(row(&["1".into(), "2".into()]), "| 1 | 2 |");
    }
}
