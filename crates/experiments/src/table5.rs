//! Table V — test-results conclusion summary: which strategy to use per
//! workflow class and objective.
//!
//! The paper's Table V is qualitative; here it is *computed*: for every
//! paper workflow the winner under each objective is determined from the
//! measured gain/loss points (Pareto runtimes), and the adaptive
//! selector's Table V recommendation is printed alongside for
//! comparison.

use crate::report::{fmt_f, Table};
use crate::run::{paper_matrix, ExperimentConfig, StrategyResult};
use cws_core::adaptive::{select_strategy, Objective};
use cws_dag::metrics::StructureMetrics;

/// One row of the computed Table V.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Workflow name.
    pub workflow: String,
    /// Structural class (Table V's row label).
    pub class: String,
    /// Measured winner when maximising savings.
    pub savings_winner: String,
    /// Its savings%.
    pub savings_value: f64,
    /// Measured winner when maximising gain inside the target square
    /// (falls back to overall max gain when the square is empty).
    pub gain_winner: String,
    /// Its gain%.
    pub gain_value: f64,
    /// Measured winner when maximising `min(gain%, savings%)`.
    pub balanced_winner: String,
    /// Its balanced score.
    pub balanced_value: f64,
    /// What the adaptive selector (the transcription of the paper's
    /// Table V) recommends for each objective.
    pub adaptive: [String; 3],
}

fn best_by(
    results: &[StrategyResult],
    mut key: impl FnMut(&StrategyResult) -> f64,
) -> &StrategyResult {
    results
        .iter()
        .max_by(|a, b| key(a).total_cmp(&key(b)))
        .expect("at least one strategy")
}

fn row_from_results(m: &cws_dag::Workflow, results: &[StrategyResult]) -> Table5Row {
    let savings = best_by(results, |r| r.relative.savings_pct());
    let in_square: Vec<StrategyResult> = results
        .iter()
        .filter(|r| r.relative.in_target_square())
        .cloned()
        .collect();
    let gain = if in_square.is_empty() {
        best_by(results, |r| r.relative.gain_pct).clone()
    } else {
        best_by(&in_square, |r| r.relative.gain_pct).clone()
    };
    let balanced = best_by(results, |r| {
        r.relative.gain_pct.min(r.relative.savings_pct())
    });

    let adaptive = [
        select_strategy(m, Objective::Savings).label(),
        select_strategy(m, Objective::Gain).label(),
        select_strategy(m, Objective::Balanced).label(),
    ];

    Table5Row {
        workflow: m.name().to_string(),
        class: StructureMetrics::compute(m).classify().to_string(),
        savings_winner: savings.label.clone(),
        savings_value: savings.relative.savings_pct(),
        gain_winner: gain.label.clone(),
        gain_value: gain.relative.gain_pct,
        balanced_winner: balanced.label.clone(),
        balanced_value: balanced
            .relative
            .gain_pct
            .min(balanced.relative.savings_pct()),
        adaptive,
    }
}

/// Regenerate the computed Table V for the four paper workflows.
#[must_use]
pub fn table5(config: &ExperimentConfig) -> Vec<Table5Row> {
    table5_threaded(config, 1)
}

/// [`table5`] with the (workflow × strategy) cells fanned over `threads`
/// workers. Output is identical for any thread count.
#[must_use]
pub fn table5_threaded(config: &ExperimentConfig, threads: usize) -> Vec<Table5Row> {
    paper_matrix(config, threads)
        .map(|(row, results)| row_from_results(&row.wf, &results))
        .collect()
}

/// Render the rows as one table.
#[must_use]
pub fn table5_report(rows: &[Table5Row]) -> Table {
    let mut t = Table::new(
        "Table V — conclusion summary (measured winners; adaptive recommendation in brackets)",
        &["workflow", "class", "savings", "gain", "balanced"],
    );
    for r in rows {
        t.row(vec![
            r.workflow.clone(),
            r.class.clone(),
            format!(
                "{} ({}%) [{}]",
                r.savings_winner,
                fmt_f(r.savings_value, 0),
                r.adaptive[0]
            ),
            format!(
                "{} ({}%) [{}]",
                r.gain_winner,
                fmt_f(r.gain_value, 0),
                r.adaptive[1]
            ),
            format!(
                "{} ({}%) [{}]",
                r.balanced_winner,
                fmt_f(r.balanced_value, 0),
                r.adaptive[2]
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Table5Row> {
        table5(&ExperimentConfig::default())
    }

    #[test]
    fn four_rows_with_expected_classes() {
        let r = rows();
        assert_eq!(r.len(), 4);
        assert_eq!(r[3].class, "sequential");
        assert!(r[2].workflow.contains("mapreduce"));
    }

    #[test]
    fn savings_winners_actually_save() {
        for r in rows() {
            assert!(
                r.savings_value > 0.0,
                "{}: best savings {}%",
                r.workflow,
                r.savings_value
            );
        }
    }

    #[test]
    fn dynamic_strategies_win_savings_on_parallel_workflows() {
        // Paper: "Overall the dynamic AllPar1LnSDyn SA can be used in
        // profit oriented scenarios" — on parallel workflows a dynamic or
        // small packed strategy should top savings; it must never be a
        // large-instance strategy.
        for r in rows() {
            assert!(
                !r.savings_winner.ends_with("-l"),
                "{}: {}",
                r.workflow,
                r.savings_winner
            );
        }
    }

    #[test]
    fn adaptive_recommendations_are_valid_labels() {
        for r in rows() {
            for a in &r.adaptive {
                assert!(
                    cws_core::Strategy::parse(a).is_some(),
                    "unparseable adaptive label {a}"
                );
            }
        }
    }

    #[test]
    fn report_renders() {
        let t = table5_report(&rows());
        assert_eq!(t.rows.len(), 4);
        assert!(t.to_ascii().contains("Table V"));
    }
}
