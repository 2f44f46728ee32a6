//! The importance ranker (Section III-C): SGBRT performance models with
//! Event Importance Refinement (EIR).
//!
//! A model `IPC = perf(e1, …, en)` is trained, event importances are
//! computed (Friedman squared-improvement, Eqs. 10–11), the 10 least
//! important events are pruned, and the model is retrained — iterating
//! until few events remain. The iteration with the lowest held-out
//! relative error (Eq. 14) is the **Most Accurate Performance Model
//! (MAPM)**; its importances are the final ranking.

use crate::CmError;
use cm_events::EventId;
use cm_ml::{metrics, BinnedDataset, Dataset, Sgbrt, SgbrtConfig, Trainer, MAX_BINS};
use cm_rng::{mix_seed, Rng};
use cm_stats::estimator::{rank_stability, Posterior};

/// Configuration of the importance ranker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImportanceConfig {
    /// SGBRT hyperparameters for every EIR iteration.
    pub sgbrt: SgbrtConfig,
    /// Events pruned per iteration (10 in the paper).
    pub prune_step: usize,
    /// Fraction of rows held out for model-error evaluation. The paper
    /// trains on `m` examples and tests on `m/4`, i.e. one fifth held
    /// out.
    pub test_fraction: f64,
    /// Stop pruning when at most this many events remain.
    pub min_events: usize,
    /// Seed for the train/test split.
    pub seed: u64,
    /// Monte-Carlo draws per ranking-stability score (`bayes` mode only;
    /// ignored by the point path).
    pub stability_draws: usize,
    /// Size of the top-K prefix whose order the stability score checks.
    pub stability_top_k: usize,
}

impl Default for ImportanceConfig {
    fn default() -> Self {
        ImportanceConfig {
            sgbrt: SgbrtConfig::default(),
            prune_step: 10,
            test_fraction: 0.2,
            min_events: 20,
            seed: 0,
            stability_draws: 64,
            stability_top_k: 5,
        }
    }
}

/// One EIR iteration's record: how many events were in the model and how
/// accurate it was (one point of the Fig. 8 curve).
#[derive(Debug, Clone, PartialEq)]
pub struct EirIteration {
    /// Number of input events of this iteration's model.
    pub n_events: usize,
    /// Held-out relative error (Eq. 14), as a fraction.
    pub error: f64,
    /// Ranking-stability score of this round's model (`bayes` mode only):
    /// the probability that the top-K importance order holds when
    /// importances are resampled from their posteriors. `None` for the
    /// point path.
    pub stability: Option<f64>,
}

/// Uncertainty attached to an [`EirResult`] when ranking `bayes`-cleaned
/// data: per-event importance standard deviations and the Monte-Carlo
/// ranking-stability score.
#[derive(Debug, Clone, PartialEq)]
pub struct RankUncertainty {
    /// Probability (0..=1) that the MAPM's top-K order survives
    /// resampling every importance from its posterior.
    pub stability: f64,
    /// Importance standard deviations, aligned with
    /// [`EirResult::ranking`] (same order, same units — percent).
    pub stds: Vec<f64>,
    /// The K the stability score was computed over.
    pub top_k: usize,
}

/// The outcome of the EIR procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct EirResult {
    /// The per-iteration error curve, from all events down to
    /// `min_events` (Fig. 8).
    pub iterations: Vec<EirIteration>,
    /// Which iteration produced the most accurate model.
    pub best_iteration: usize,
    /// The MAPM ranking: `(event, importance %)`, descending, importance
    /// normalized to sum to 100 over the MAPM's events.
    pub ranking: Vec<(EventId, f64)>,
    /// The most accurate performance model itself.
    pub mapm: Sgbrt,
    /// The events (dataset columns) the MAPM uses, in column order.
    pub mapm_events: Vec<EventId>,
    /// Ranking uncertainty (`bayes` mode only; `None` for the point path).
    pub uncertainty: Option<RankUncertainty>,
}

impl EirResult {
    /// The top `k` events of the MAPM ranking.
    pub fn top(&self, k: usize) -> &[(EventId, f64)] {
        &self.ranking[..k.min(self.ranking.len())]
    }

    /// Held-out error of the MAPM, as a fraction.
    pub fn best_error(&self) -> f64 {
        self.iterations[self.best_iteration].error
    }

    /// Per-event confidence intervals on the MAPM importances at the
    /// given confidence level, aligned with [`ranking`](Self::ranking):
    /// `(event, lower, upper)` in percent. `None` unless the analysis
    /// ran in `bayes` mode.
    pub fn confidence_intervals(&self, confidence: f64) -> Option<Vec<(EventId, f64, f64)>> {
        let uncertainty = self.uncertainty.as_ref()?;
        Some(
            self.ranking
                .iter()
                .zip(&uncertainty.stds)
                .map(|(&(event, importance), &std)| {
                    let (lo, hi) = Posterior::new(importance, std * std).interval(confidence);
                    (event, lo, hi)
                })
                .collect(),
        )
    }
}

/// The importance ranker.
///
/// # Examples
///
/// See the `importance_integration` test and the `quickstart` example
/// for end-to-end usage against simulated workloads.
#[derive(Debug, Clone, Default)]
pub struct ImportanceRanker {
    config: ImportanceConfig,
}

impl ImportanceRanker {
    /// Creates a ranker with the given configuration.
    pub fn new(config: ImportanceConfig) -> Self {
        ImportanceRanker { config }
    }

    /// The ranker's configuration.
    pub fn config(&self) -> &ImportanceConfig {
        &self.config
    }

    /// Runs EIR on a dataset whose columns correspond to `events`
    /// (column `j` holds values of `events[j]`) and whose target is IPC.
    ///
    /// # Errors
    ///
    /// Returns [`CmError::Invalid`] when `events` does not match the
    /// dataset width, or propagates training errors.
    pub fn rank(&self, data: &Dataset, events: &[EventId]) -> Result<EirResult, CmError> {
        self.rank_with_uncertainty(data, events, None)
    }

    /// [`rank`](Self::rank) with optional per-column uncertainty from
    /// the `bayes` cleaner: `column_uncertainty[j]` is the relative
    /// reconstruction uncertainty of `events[j]`'s data (see
    /// [`VarianceAggregate::relative_uncertainty`](crate::VarianceAggregate::relative_uncertainty)).
    ///
    /// When `Some`, each round's importances get standard deviations
    /// `std_j = importance_j · u_j` (importances are column aggregates
    /// of the column's data, so their relative noise is bounded by the
    /// data's), a Monte-Carlo ranking-stability score is computed per
    /// round and for the final MAPM ranking, and the result carries a
    /// [`RankUncertainty`]. The ranking itself is **identical** to
    /// [`rank`](Self::rank) — uncertainty only annotates it.
    ///
    /// # Errors
    ///
    /// As [`rank`](Self::rank), plus [`CmError::Invalid`] when the
    /// uncertainty slice length does not match `events` or
    /// `stability_draws` is zero.
    pub fn rank_with_uncertainty(
        &self,
        data: &Dataset,
        events: &[EventId],
        column_uncertainty: Option<&[f64]>,
    ) -> Result<EirResult, CmError> {
        if events.len() != data.n_features() {
            return Err(CmError::Invalid(
                "event list must match dataset feature count",
            ));
        }
        if self.config.prune_step == 0 {
            return Err(CmError::Invalid("prune_step must be at least 1"));
        }
        if let Some(u) = column_uncertainty {
            if u.len() != events.len() {
                return Err(CmError::Invalid(
                    "column uncertainty must match event count",
                ));
            }
            if self.config.stability_draws == 0 {
                return Err(CmError::Invalid("stability_draws must be at least 1"));
            }
        }

        let mut rng = Rng::seed_from_u64(self.config.seed);
        let (train, test) = data.train_test_split(self.config.test_fraction, &mut rng)?;

        // Active columns into the original dataset, shrinking each round.
        let mut active: Vec<usize> = (0..data.n_features()).collect();
        let mut iterations = Vec::new();
        let mut best: Option<(usize, f64, Sgbrt, Vec<usize>)> = None;

        // With the hist trainer, quantize the training rows once per EIR
        // run: every pruning round retrains on a zero-copy column view of
        // this shared binning, so retraining never re-quantizes (and
        // never materializes a pruned copy of the raw training matrix).
        let binned = match self.config.sgbrt.trainer {
            Trainer::Hist => Some(BinnedDataset::from_dataset(&train, MAX_BINS)),
            Trainer::Exact => None,
        };

        loop {
            let _round = cm_obs::span!("eir.round", round = iterations.len());
            let (model, test_view) = match &binned {
                Some(binned) => {
                    // Training reads bin codes only; just the held-out
                    // rows need a raw-value projection for prediction.
                    let train_view = binned.select(&active)?;
                    let test_view = test.select_features(&active)?;
                    let model = self.config.sgbrt.fit_binned(&train_view, train.targets())?;
                    (model, test_view)
                }
                None => {
                    // The two view projections are independent gathers;
                    // training and batch prediction fan out on the pool
                    // themselves.
                    let (train_view, test_view) = cm_par::join(
                        || train.select_features(&active),
                        || test.select_features(&active),
                    );
                    let train_view = train_view?;
                    (self.config.sgbrt.fit(&train_view)?, test_view?)
                }
            };
            let preds = model.predict_batch(test_view.rows());
            let error = metrics::relative_error(test_view.targets(), &preds)?;
            // The paper's pruning curve, one point per round: how the
            // held-out error moves as the event set shrinks.
            cm_obs::series_push("eir.cv_error", active.len() as f64, error);
            // Bayes only: score how stable this round's top-K order is
            // under resampling. A separate importance read keeps the
            // point path's arithmetic untouched.
            let stability = match column_uncertainty {
                Some(u) => {
                    let importances = model.feature_importances();
                    let stds: Vec<f64> = importances
                        .iter()
                        .zip(&active)
                        .map(|(&imp, &col)| imp * u[col])
                        .collect();
                    let score = rank_stability(
                        &importances,
                        &stds,
                        self.config.stability_top_k,
                        self.config.stability_draws,
                        mix_seed(self.config.seed, iterations.len() as u64),
                    )
                    .map_err(CmError::Stats)?;
                    cm_obs::series_push("eir.stability", active.len() as f64, score);
                    Some(score)
                }
                None => None,
            };
            iterations.push(EirIteration {
                n_events: active.len(),
                error,
                stability,
            });
            let is_better = best.as_ref().is_none_or(|(_, e, _, _)| error < *e);
            if is_better {
                best = Some((iterations.len() - 1, error, model.clone(), active.clone()));
            }

            if active.len() <= self.config.min_events {
                break;
            }
            // Prune the `prune_step` least important events (never below
            // min_events).
            let importances = model.feature_importances();
            let mut order: Vec<usize> = (0..active.len()).collect();
            order.sort_by(|&a, &b| importances[a].total_cmp(&importances[b]));
            let prune = self
                .config
                .prune_step
                .min(active.len() - self.config.min_events);
            let drop: std::collections::HashSet<usize> = order[..prune].iter().copied().collect();
            active = active
                .iter()
                .enumerate()
                .filter(|(local, _)| !drop.contains(local))
                .map(|(_, &global)| global)
                .collect();
        }

        if cm_obs::enabled() {
            cm_obs::counter_add("eir.rounds", iterations.len() as u64);
            cm_obs::counter_add(
                "eir.events_pruned",
                (data.n_features() - active.len()) as u64,
            );
        }

        let (best_iteration, _, mapm, mapm_active) =
            best.expect("at least one iteration always runs");
        let mapm_events: Vec<EventId> = mapm_active.iter().map(|&c| events[c]).collect();
        let importances = mapm.feature_importances();
        // Sort events and (in bayes mode) their uncertainties together,
        // so `uncertainty.stds` stays aligned with `ranking`.
        let mut order: Vec<usize> = (0..mapm_events.len()).collect();
        order.sort_by(|&a, &b| importances[b].total_cmp(&importances[a]));
        let ranking: Vec<(EventId, f64)> = order
            .iter()
            .map(|&i| (mapm_events[i], importances[i]))
            .collect();

        let uncertainty = match column_uncertainty {
            Some(u) => {
                let stds: Vec<f64> = order
                    .iter()
                    .map(|&i| importances[i] * u[mapm_active[i]])
                    .collect();
                let means: Vec<f64> = ranking.iter().map(|&(_, imp)| imp).collect();
                let top_k = self.config.stability_top_k;
                let stability = rank_stability(
                    &means,
                    &stds,
                    top_k,
                    self.config.stability_draws,
                    mix_seed(self.config.seed, u64::MAX),
                )
                .map_err(CmError::Stats)?;
                Some(RankUncertainty {
                    stability,
                    stds,
                    top_k,
                })
            }
            None => None,
        };

        Ok(EirResult {
            iterations,
            best_iteration,
            ranking,
            mapm,
            mapm_events,
            uncertainty,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_ml::TreeConfig;

    /// y depends strongly on column 0, weakly on 1, not at all on 2..6.
    fn synthetic(n: usize, seed: u64) -> (Dataset, Vec<EventId>) {
        let mut rng = Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..7).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| {
                2.0 - 1.0 * (r[0] + 0.3 * r[0] * r[0]) - 0.25 * r[1]
                    + 0.01 * rng.gen_range(-1.0..1.0)
            })
            .collect();
        let events = (0..7).map(EventId::new).collect();
        (Dataset::new(rows, y).unwrap(), events)
    }

    fn fast_config() -> ImportanceConfig {
        ImportanceConfig {
            sgbrt: SgbrtConfig {
                n_trees: 60,
                tree: TreeConfig::default(),
                ..SgbrtConfig::default()
            },
            prune_step: 2,
            min_events: 3,
            ..ImportanceConfig::default()
        }
    }

    #[test]
    fn recovers_dominant_feature() {
        let (data, events) = synthetic(400, 1);
        let result = ImportanceRanker::new(fast_config())
            .rank(&data, &events)
            .unwrap();
        assert_eq!(result.ranking[0].0, EventId::new(0));
        assert!(result.ranking[0].1 > 50.0);
        // Importances sum to 100.
        let total: f64 = result.ranking.iter().map(|(_, v)| v).sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn eir_curve_has_expected_bookkeeping() {
        let (data, events) = synthetic(300, 2);
        let result = ImportanceRanker::new(fast_config())
            .rank(&data, &events)
            .unwrap();
        // 7 -> 5 -> 3 events.
        let ns: Vec<usize> = result.iterations.iter().map(|i| i.n_events).collect();
        assert_eq!(ns, vec![7, 5, 3]);
        assert!(result.best_iteration < result.iterations.len());
        assert_eq!(
            result.best_error(),
            result.iterations[result.best_iteration].error
        );
        assert!(result.mapm_events.len() >= 3);
    }

    #[test]
    fn pruning_keeps_informative_features() {
        let (data, events) = synthetic(400, 3);
        let result = ImportanceRanker::new(fast_config())
            .rank(&data, &events)
            .unwrap();
        // The dominant event must survive to the MAPM.
        assert!(result.mapm_events.contains(&EventId::new(0)));
    }

    #[test]
    fn top_k_truncates() {
        let (data, events) = synthetic(200, 4);
        let result = ImportanceRanker::new(fast_config())
            .rank(&data, &events)
            .unwrap();
        assert_eq!(result.top(2).len(), 2);
        assert!(result.top(100).len() <= 7);
    }

    #[test]
    fn validates_inputs() {
        let (data, _) = synthetic(50, 5);
        let ranker = ImportanceRanker::new(fast_config());
        let wrong_events: Vec<EventId> = (0..3).map(EventId::new).collect();
        assert!(ranker.rank(&data, &wrong_events).is_err());

        let bad = ImportanceConfig {
            prune_step: 0,
            ..fast_config()
        };
        let events: Vec<EventId> = (0..7).map(EventId::new).collect();
        assert!(ImportanceRanker::new(bad).rank(&data, &events).is_err());
    }

    #[test]
    fn uncertainty_annotates_without_changing_the_ranking() {
        let (data, events) = synthetic(300, 11);
        let ranker = ImportanceRanker::new(fast_config());
        let point = ranker.rank(&data, &events).unwrap();
        let u = vec![0.05; events.len()];
        let bayes = ranker
            .rank_with_uncertainty(&data, &events, Some(&u))
            .unwrap();
        // Identical ranking and error curve; only annotation differs.
        assert_eq!(point.ranking, bayes.ranking);
        assert_eq!(
            point.iterations.iter().map(|i| i.error).collect::<Vec<_>>(),
            bayes.iterations.iter().map(|i| i.error).collect::<Vec<_>>(),
        );
        assert!(point.uncertainty.is_none());
        assert!(point.iterations.iter().all(|i| i.stability.is_none()));
        let uncertainty = bayes.uncertainty.as_ref().unwrap();
        assert_eq!(uncertainty.stds.len(), bayes.ranking.len());
        assert!((0.0..=1.0).contains(&uncertainty.stability));
        for i in &bayes.iterations {
            let s = i.stability.unwrap();
            assert!((0.0..=1.0).contains(&s), "{s}");
        }
        // stds proportional to importances: aligned with ranking order.
        for (&(_, imp), &std) in bayes.ranking.iter().zip(&uncertainty.stds) {
            assert!((std - imp * 0.05).abs() < 1e-9);
        }
        let intervals = bayes.confidence_intervals(0.95).unwrap();
        assert_eq!(intervals.len(), bayes.ranking.len());
        for ((event, lo, hi), &(re, imp)) in intervals.into_iter().zip(&bayes.ranking) {
            assert_eq!(event, re);
            assert!(lo <= imp && imp <= hi);
        }
        assert!(point.confidence_intervals(0.95).is_none());
    }

    #[test]
    fn zero_uncertainty_is_perfectly_stable() {
        let (data, events) = synthetic(200, 12);
        let u = vec![0.0; events.len()];
        let result = ImportanceRanker::new(fast_config())
            .rank_with_uncertainty(&data, &events, Some(&u))
            .unwrap();
        assert_eq!(result.uncertainty.as_ref().unwrap().stability, 1.0);
        assert!(result.iterations.iter().all(|i| i.stability == Some(1.0)));
    }

    #[test]
    fn uncertainty_validates_inputs() {
        let (data, events) = synthetic(100, 13);
        let ranker = ImportanceRanker::new(fast_config());
        assert!(ranker
            .rank_with_uncertainty(&data, &events, Some(&[0.1; 2]))
            .is_err());
        let bad = ImportanceConfig {
            stability_draws: 0,
            ..fast_config()
        };
        let u = vec![0.1; events.len()];
        assert!(ImportanceRanker::new(bad)
            .rank_with_uncertainty(&data, &events, Some(&u))
            .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, events) = synthetic(200, 6);
        let a = ImportanceRanker::new(fast_config())
            .rank(&data, &events)
            .unwrap();
        let b = ImportanceRanker::new(fast_config())
            .rank(&data, &events)
            .unwrap();
        assert_eq!(a.ranking, b.ranking);
        assert_eq!(
            a.iterations.iter().map(|i| i.error).collect::<Vec<_>>(),
            b.iterations.iter().map(|i| i.error).collect::<Vec<_>>()
        );
    }

    /// Both trainers must tell the same qualitative story: the dominant
    /// event tops the MAPM ranking and the held-out errors stay close.
    #[test]
    fn exact_and_hist_trainers_agree_on_dominant_event() {
        let (data, events) = synthetic(400, 8);
        let with_trainer = |trainer| {
            let mut config = fast_config();
            config.sgbrt.trainer = trainer;
            ImportanceRanker::new(config).rank(&data, &events).unwrap()
        };
        let exact = with_trainer(Trainer::Exact);
        let hist = with_trainer(Trainer::Hist);
        assert_eq!(exact.ranking[0].0, EventId::new(0));
        assert_eq!(hist.ranking[0].0, EventId::new(0));
        let (e, h) = (exact.best_error(), hist.best_error());
        assert!((h - e).abs() / e < 0.25, "exact {e} vs hist {h}");
    }

    /// The hist EIR path (bin once, retrain on column views) must be
    /// thread-count invariant end to end.
    #[test]
    fn hist_ranking_is_thread_count_invariant() {
        let (data, events) = synthetic(250, 9);
        let mut config = fast_config();
        config.sgbrt.trainer = Trainer::Hist;
        cm_par::set_max_threads(1);
        let serial = ImportanceRanker::new(config).rank(&data, &events).unwrap();
        cm_par::set_max_threads(2);
        let two = ImportanceRanker::new(config).rank(&data, &events).unwrap();
        cm_par::set_max_threads(0);
        let parallel = ImportanceRanker::new(config).rank(&data, &events).unwrap();
        assert_eq!(serial, two);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn ranking_is_thread_count_invariant() {
        let (data, events) = synthetic(250, 7);
        cm_par::set_max_threads(1);
        let serial = ImportanceRanker::new(fast_config())
            .rank(&data, &events)
            .unwrap();
        cm_par::set_max_threads(0);
        let parallel = ImportanceRanker::new(fast_config())
            .rank(&data, &events)
            .unwrap();
        assert_eq!(serial, parallel);
    }
}
