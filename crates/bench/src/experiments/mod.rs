//! Experiment modules, one per paper table/figure, and the id → runner
//! table the `experiments` driver dispatches on. See the per-experiment
//! index in `DESIGN.md`.

pub mod ablation_cleaning;
pub mod ablation_eir;
pub mod baseline_pca;
pub mod baseline_scheduling;
pub mod baseline_subinterval;
pub mod fig01_mlpx_error;
pub mod fig02_dirty_examples;
pub mod fig03_error_vs_events;
pub mod fig05_cleaning_examples;
pub mod fig06_error_reduction;
pub mod fig07_cleaned_vs_events;
pub mod fig08_eir_curve;
pub mod fig09_importance_hibench;
pub mod fig10_importance_cloudsuite;
pub mod fig11_interactions_hibench;
pub mod fig12_interactions_cloudsuite;
pub mod fig13_param_event_interactions;
pub mod fig14_tuning_sweep;
pub mod fig15_profiling_cost;
pub mod fig16_colocation;
pub mod findings_summary;
pub mod method_b_direct;
pub mod table1_threshold_coverage;
pub mod table2_benchmarks;
pub mod table3_events;
pub mod table4_spark_params;

mod common;

pub use common::{ExpConfig, Scale};

use counterminer::CmError;

/// One experiment the `experiments` driver can run.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The id given on the command line (`table2`, `fig08`, …).
    pub id: &'static str,
    /// Runs the experiment and renders its report.
    pub run: fn(&ExpConfig) -> Result<String, CmError>,
}

/// A table entry for a module whose `run(&ExpConfig)` returns a
/// displayable result.
macro_rules! experiment {
    ($id:literal, $module:ident) => {
        Experiment {
            id: $id,
            run: |cfg| $module::run(cfg).map(|result| result.to_string()),
        }
    };
}

/// Every experiment, in the order `experiments all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table2",
        run: |_| Ok(table2_benchmarks::run().to_string()),
    },
    Experiment {
        id: "table3",
        run: |_| Ok(table3_events::run().to_string()),
    },
    Experiment {
        id: "table4",
        run: |_| Ok(table4_spark_params::run().to_string()),
    },
    experiment!("fig01", fig01_mlpx_error),
    experiment!("fig02", fig02_dirty_examples),
    experiment!("fig03", fig03_error_vs_events),
    experiment!("table1", table1_threshold_coverage),
    experiment!("fig05", fig05_cleaning_examples),
    experiment!("fig06", fig06_error_reduction),
    experiment!("fig07", fig07_cleaned_vs_events),
    experiment!("fig08", fig08_eir_curve),
    experiment!("fig09", fig09_importance_hibench),
    experiment!("fig10", fig10_importance_cloudsuite),
    experiment!("fig11", fig11_interactions_hibench),
    experiment!("fig12", fig12_interactions_cloudsuite),
    experiment!("fig13", fig13_param_event_interactions),
    experiment!("fig14", fig14_tuning_sweep),
    experiment!("fig15", fig15_profiling_cost),
    experiment!("fig16", fig16_colocation),
    experiment!("ablation_cleaning", ablation_cleaning),
    experiment!("ablation_eir", ablation_eir),
    experiment!("baseline_subinterval", baseline_subinterval),
    experiment!("baseline_scheduling", baseline_scheduling),
    experiment!("baseline_pca", baseline_pca),
    experiment!("method_b_direct", method_b_direct),
    experiment!("findings", findings_summary),
];

/// Looks an experiment up by id.
///
/// # Errors
///
/// An unknown id; the message lists every valid one.
pub fn find(id: &str) -> Result<&'static Experiment, String> {
    EXPERIMENTS.iter().find(|e| e.id == id).ok_or_else(|| {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        format!(
            "unknown experiment {id:?}; valid ids: all, {}",
            ids.join(", ")
        )
    })
}
