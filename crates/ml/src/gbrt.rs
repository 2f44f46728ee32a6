use crate::binning::{BinnedDataset, BinnedView, MAX_BINS};
use crate::tree::{FlatForest, RegressionTree, TreeConfig};
use crate::{hist, Dataset, MlError};
use cm_rng::{mix_seed, Rng};

/// Rows per parallel chunk for batch prediction and residual updates.
const PREDICT_CHUNK: usize = 64;

/// Which split-search algorithm trains each boosting stage.
///
/// `Hist` is the one trainer the pipeline runs. `Exact` is kept as the
/// reference oracle: tests, the cross-validation oracle and the trainer
/// benches select it through [`SgbrtConfig::trainer`] to check that
/// binning moves split placement, not the objective.
///
/// # Examples
///
/// ```
/// use cm_ml::{SgbrtConfig, Trainer};
///
/// assert_eq!(SgbrtConfig::default().trainer, Trainer::Hist);
/// let oracle = SgbrtConfig {
///     trainer: Trainer::Exact,
///     ..SgbrtConfig::default()
/// };
/// assert_ne!(oracle, SgbrtConfig::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Trainer {
    /// Presorted exact search, the reference oracle: every distinct
    /// value is a candidate threshold, O(rows) per feature per node.
    Exact,
    /// Histogram-binned search (the default): features are quantized
    /// once into ≤ [`MAX_BINS`] bins, nodes scan O(bins) candidates over
    /// gradient histograms, and sibling histograms are derived by
    /// subtraction. Same objective, near-identical models, much faster
    /// on EIR-sized data.
    #[default]
    Hist,
}

/// Configuration for the stochastic gradient boosted ensemble
/// (Friedman 2002, the algorithm the paper uses via scikit-learn).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgbrtConfig {
    /// Number of boosting stages.
    pub n_trees: usize,
    /// Shrinkage applied to each stage's contribution.
    pub learning_rate: f64,
    /// Fraction of rows sampled (without replacement) per stage — the
    /// "stochastic" in SGBRT.
    pub subsample: f64,
    /// Per-stage tree shape.
    pub tree: TreeConfig,
    /// RNG seed for the row subsampling, making training reproducible.
    /// Stage `t` subsamples with an independent stream derived from
    /// `(seed, t)`, so the trained model is bit-identical at any thread
    /// count.
    pub seed: u64,
    /// Split-search algorithm. Both trainers draw identical per-stage
    /// subsamples from the same seed streams.
    pub trainer: Trainer,
}

impl Default for SgbrtConfig {
    fn default() -> Self {
        SgbrtConfig {
            n_trees: 120,
            learning_rate: 0.1,
            subsample: 0.7,
            tree: TreeConfig::default(),
            seed: 0,
            trainer: Trainer::default(),
        }
    }
}

impl SgbrtConfig {
    /// Returns the config with a different seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Trains an ensemble on `data`, dispatching on
    /// [`SgbrtConfig::trainer`]. The histogram path quantizes `data`
    /// once ([`BinnedDataset::from_dataset`]) and trains on the binned
    /// view; callers that retrain repeatedly on column subsets (the EIR
    /// loop) should bin once themselves and call
    /// [`SgbrtConfig::fit_binned`] per round instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use cm_ml::{Dataset, SgbrtConfig};
    ///
    /// let rows: Vec<Vec<f64>> = (0..80)
    ///     .map(|i| vec![i as f64, (i % 7) as f64])
    ///     .collect();
    /// let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] + r[1]).collect();
    /// let data = Dataset::new(rows, y)?;
    /// let config = SgbrtConfig { n_trees: 25, ..SgbrtConfig::default() };
    /// let model = config.fit(&data)?;
    /// let pred = model.predict(&[40.0, 5.0]);
    /// assert!((pred - 85.0).abs() < 25.0, "prediction {pred}");
    /// # Ok::<(), cm_ml::MlError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidConfig`] for out-of-range
    /// hyperparameters or [`MlError::EmptyDataset`] via dataset
    /// construction.
    pub fn fit(self, data: &Dataset) -> Result<Sgbrt, MlError> {
        match self.trainer {
            Trainer::Exact => self.fit_exact(data),
            Trainer::Hist => {
                let binned = BinnedDataset::from_dataset(data, MAX_BINS);
                self.fit_binned(&binned.view(), data.targets())
            }
        }
    }

    fn validate(&self) -> Result<(), MlError> {
        if self.n_trees == 0 {
            return Err(MlError::InvalidConfig("n_trees must be at least 1"));
        }
        if !(self.learning_rate > 0.0 && self.learning_rate <= 1.0) {
            return Err(MlError::InvalidConfig("learning_rate must be in (0, 1]"));
        }
        if !(self.subsample > 0.0 && self.subsample <= 1.0) {
            return Err(MlError::InvalidConfig("subsample must be in (0, 1]"));
        }
        Ok(())
    }

    /// The per-stage subsample of stage `t` — shared by both trainers so
    /// switching trainer never changes which rows a stage sees.
    fn stage_sample(&self, n: usize, t: usize) -> Vec<usize> {
        let subsample_n = ((n as f64) * self.subsample).round().max(1.0) as usize;
        let mut rng = Rng::seed_from_u64(mix_seed(self.seed, t as u64));
        let mut sample: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut sample);
        sample.truncate(subsample_n);
        sample
    }

    fn fit_exact(self, data: &Dataset) -> Result<Sgbrt, MlError> {
        self.validate()?;
        record_fit(self.n_trees, "exact");
        let n = data.n_rows();
        let base = data.targets().iter().sum::<f64>() / n as f64;
        let mut residuals: Vec<f64> = data.targets().iter().map(|&y| y - base).collect();
        let mut trees = Vec::with_capacity(self.n_trees);

        for t in 0..self.n_trees {
            let sample = self.stage_sample(n, t);
            // Retarget the feature matrix at the current residuals —
            // no per-stage clone of the rows.
            let tree = RegressionTree::fit_with_targets(data, &residuals, &sample, self.tree)?;
            let step: Vec<f64> = cm_par::map_chunked(n, PREDICT_CHUNK, |range| {
                range.map(|i| tree.predict(data.row(i))).collect()
            });
            for (r, p) in residuals.iter_mut().zip(&step) {
                *r -= self.learning_rate * p;
            }
            trees.push(tree);
        }

        Ok(Sgbrt::from_parts(
            base,
            self.learning_rate,
            trees,
            data.n_features(),
        ))
    }

    /// Trains a histogram-binned ensemble directly on a pre-quantized
    /// view, regardless of [`SgbrtConfig::trainer`]. The EIR loop bins
    /// its training split once and calls this with a shrinking
    /// [`BinnedDataset::select`] view each pruning round, so retraining
    /// never re-quantizes — the residual updates run entirely in bin
    /// space via the per-tree router.
    ///
    /// # Examples
    ///
    /// ```
    /// use cm_ml::{BinnedDataset, Dataset, SgbrtConfig, MAX_BINS};
    ///
    /// let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
    /// let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
    /// let data = Dataset::new(rows, y)?;
    /// let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
    /// let config = SgbrtConfig { n_trees: 20, ..SgbrtConfig::default() };
    /// let model = config.fit_binned(&binned.view(), data.targets())?;
    /// assert_eq!(model.n_trees(), 20);
    /// # Ok::<(), cm_ml::MlError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidConfig`] for out-of-range
    /// hyperparameters and [`MlError::InconsistentShape`] when `targets`
    /// does not pair with the view's rows.
    pub fn fit_binned(self, view: &BinnedView<'_>, targets: &[f64]) -> Result<Sgbrt, MlError> {
        self.validate()?;
        record_fit(self.n_trees, "hist");
        let n = view.n_rows();
        if targets.len() != n {
            return Err(MlError::InconsistentShape {
                expected: n,
                found: targets.len(),
            });
        }
        if n == 0 {
            return Err(MlError::EmptyDataset);
        }
        let base = targets.iter().sum::<f64>() / n as f64;
        let mut residuals: Vec<f64> = targets.iter().map(|&y| y - base).collect();
        let mut trees = Vec::with_capacity(self.n_trees);

        for t in 0..self.n_trees {
            let sample = self.stage_sample(n, t);
            let fitted = hist::fit_hist_tree(view, &residuals, &sample, self.tree)?;
            // Route every row through the tree by bin code — no raw
            // feature reads in the training loop.
            let step: Vec<f64> = cm_par::map_chunked(n, PREDICT_CHUNK, |range| {
                range.map(|i| fitted.route(view, i)).collect()
            });
            for (r, p) in residuals.iter_mut().zip(&step) {
                *r -= self.learning_rate * p;
            }
            trees.push(fitted.tree);
        }

        Ok(Sgbrt::from_parts(
            base,
            self.learning_rate,
            trees,
            view.n_features(),
        ))
    }
}

/// One observability record per training run: which trainer ran and how
/// many stages it will grow. Counted at entry (not per stage) so the
/// totals are independent of how the stages are scheduled.
fn record_fit(n_trees: usize, trainer: &str) {
    if cm_obs::enabled() {
        cm_obs::counter_add("ml.fits", 1);
        cm_obs::counter_add("ml.trees_grown", n_trees as u64);
        cm_obs::label_set("ml.trainer", trainer);
    }
}

/// K-fold cross-validation of an SGBRT configuration: returns the
/// held-out relative error (Eq. 14 of the paper) of each fold.
///
/// Folds are contiguous row ranges (rows are assumed already shuffled or
/// exchangeable, as the simulator's interval rows are after windowing).
/// Folds train concurrently on the [`cm_par`] pool; each fold is a pure
/// function of `(config, data, fold)`, so the returned errors are
/// identical at any thread count.
///
/// # Errors
///
/// Returns [`MlError::InvalidConfig`] unless `2 <= k <= n_rows`, plus
/// any training failure.
pub fn cross_validate(config: SgbrtConfig, data: &Dataset, k: usize) -> Result<Vec<f64>, MlError> {
    if k < 2 || k > data.n_rows() {
        return Err(MlError::InvalidConfig("k must be in 2..=n_rows"));
    }
    let n = data.n_rows();
    let folds: Vec<usize> = (0..k).collect();
    cm_par::try_map(&folds, |&fold| {
        let lo = fold * n / k;
        let hi = (fold + 1) * n / k;
        let train_idx: Vec<usize> = (0..n).filter(|i| *i < lo || *i >= hi).collect();
        let test_idx: Vec<usize> = (lo..hi).collect();
        let pick = |idx: &[usize]| {
            Dataset::new(
                idx.iter().map(|&i| data.row(i).to_vec()).collect(),
                idx.iter().map(|&i| data.target(i)).collect(),
            )
        };
        let train = pick(&train_idx)?;
        let test = pick(&test_idx)?;
        let model = config.fit(&train)?;
        let preds = model.predict_batch(test.rows());
        crate::metrics::relative_error(test.targets(), &preds)
    })
}

/// A trained stochastic gradient boosted regression tree ensemble.
///
/// # Examples
///
/// ```
/// use cm_ml::{Dataset, SgbrtConfig};
///
/// let rows: Vec<Vec<f64>> = (0..80).map(|i| vec![(i % 10) as f64]).collect();
/// let y: Vec<f64> = rows.iter().map(|r| r[0] * r[0]).collect();
/// let data = Dataset::new(rows, y)?;
/// let model = SgbrtConfig::default().with_seed(3).fit(&data)?;
/// // Nonlinear fit: prediction near the true square.
/// assert!((model.predict(&[7.0]) - 49.0).abs() < 5.0);
/// # Ok::<(), cm_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sgbrt {
    base: f64,
    learning_rate: f64,
    n_features: usize,
    /// The trees flattened into one contiguous 16-byte-node array — the
    /// model's only stored form; every prediction walks it.
    flat: FlatForest,
    /// Friedman relative importances, normalized to sum to 100.
    importances: Vec<f64>,
}

impl Sgbrt {
    /// Assembles a model: flattens the trees into the compact predictor
    /// and accumulates their Friedman importances (Eqs. 10–11 of the
    /// paper), in tree order, once. The nested trees are dropped.
    fn from_parts(
        base: f64,
        learning_rate: f64,
        trees: Vec<RegressionTree>,
        n_features: usize,
    ) -> Self {
        let mut importances = vec![0.0; n_features];
        for tree in &trees {
            tree.accumulate_importance(&mut importances);
        }
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for v in &mut importances {
                *v *= 100.0 / total;
            }
        }
        Sgbrt {
            base,
            learning_rate,
            n_features,
            flat: FlatForest::from_trees(&trees),
            importances,
        }
    }

    /// Predicts the target for one feature row: a one-row walk of the
    /// same traversal [`Sgbrt::predict_batch`] runs.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the training width.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut out = [0.0];
        self.predict_block(&[row], &mut out);
        out[0]
    }

    /// Predicts a batch of rows: owned vectors (`&[Vec<f64>]`) or
    /// slices, e.g. the `chunks_exact(n_features)` of one packed probe
    /// buffer that the interaction sweeps reuse across calls.
    ///
    /// Chunks fan out across threads; within a chunk the flat forest's
    /// blocked traversal streams the node array once per row block
    /// instead of once per row. Leaf values accumulate in tree order,
    /// so every prediction is bit-identical to [`Sgbrt::predict`].
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the training width.
    pub fn predict_batch<R: AsRef<[f64]> + Sync>(&self, rows: &[R]) -> Vec<f64> {
        cm_par::map_chunked(rows.len(), PREDICT_CHUNK, |range| {
            let mut out = vec![0.0; range.len()];
            self.predict_block(&rows[range], &mut out);
            out
        })
    }

    /// Walks the flat forest over `rows` and applies the boosting affine
    /// map `base + learning_rate · sum`.
    fn predict_block<R: AsRef<[f64]>>(&self, rows: &[R], out: &mut [f64]) {
        for row in rows {
            assert_eq!(
                row.as_ref().len(),
                self.n_features,
                "feature row length does not match the fitted ensemble"
            );
        }
        self.flat.predict_rows_into(rows, out);
        for v in out {
            *v = self.base + self.learning_rate * *v;
        }
    }

    /// Number of boosting stages.
    pub fn n_trees(&self) -> usize {
        self.flat.n_trees()
    }

    /// Number of features the model was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Friedman relative feature importance, normalized to sum to 100
    /// (Eqs. 10–11 of the paper): each feature's squared-error
    /// improvements are summed over the splits that use it and averaged
    /// over trees.
    ///
    /// Returns all zeros when no tree made any split (constant target).
    pub fn feature_importances(&self) -> Vec<f64> {
        self.importances.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn friedman_like(n: usize, seed: u64) -> Dataset {
        // y = 10·sin(x0) + 5·x1² + x2, x3 irrelevant.
        let mut rng = Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..4).map(|_| rng.gen_range(0.0..3.0)).collect())
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 10.0 * r[0].sin() + 5.0 * r[1] * r[1] + r[2])
            .collect();
        Dataset::new(rows, y).unwrap()
    }

    #[test]
    fn learns_nonlinear_function() {
        let train = friedman_like(400, 1);
        let test = friedman_like(100, 2);
        let model = SgbrtConfig {
            n_trees: 200,
            ..SgbrtConfig::default()
        }
        .fit(&train)
        .unwrap();
        let preds = model.predict_batch(test.rows());
        let err = metrics::relative_error(test.targets(), &preds).unwrap();
        assert!(err < 0.15, "relative error {err}");
    }

    #[test]
    fn importance_ranks_strong_features_first() {
        let data = friedman_like(500, 3);
        let model = SgbrtConfig::default().with_seed(1).fit(&data).unwrap();
        let imp = model.feature_importances();
        assert!((imp.iter().sum::<f64>() - 100.0).abs() < 1e-6);
        // x1 (quadratic, biggest range of effect) dominates; x3 is noise.
        assert!(imp[1] > imp[3]);
        assert!(imp[0] > imp[3]);
        assert!(imp[3] < 5.0, "irrelevant feature importance {}", imp[3]);
    }

    #[test]
    fn constant_target_predicts_constant() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let data = Dataset::new(rows, vec![3.25; 20]).unwrap();
        let model = SgbrtConfig::default().fit(&data).unwrap();
        assert!((model.predict(&[100.0]) - 3.25).abs() < 1e-9);
        assert!(model.feature_importances().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn training_is_seed_deterministic() {
        let data = friedman_like(150, 4);
        let a = SgbrtConfig::default().with_seed(7).fit(&data).unwrap();
        let b = SgbrtConfig::default().with_seed(7).fit(&data).unwrap();
        let c = SgbrtConfig::default().with_seed(8).fit(&data).unwrap();
        let row = data.row(0);
        assert_eq!(a.predict(row), b.predict(row));
        assert_eq!(a, b);
        // Different subsampling almost surely changes the model.
        assert_ne!(a.predict(row), c.predict(row));
    }

    #[test]
    fn training_is_thread_count_invariant() {
        let data = friedman_like(200, 9);
        let config = SgbrtConfig {
            n_trees: 30,
            ..SgbrtConfig::default()
        };
        cm_par::set_max_threads(1);
        let serial = config.fit(&data).unwrap();
        cm_par::set_max_threads(4);
        let parallel = config.fit(&data).unwrap();
        cm_par::set_max_threads(0);
        let default_threads = config.fit(&data).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial, default_threads);
    }

    /// The batch API over owned rows is bit for bit the one-row walk,
    /// including the empty batch.
    #[test]
    fn predict_batch_matches_predict_exactly() {
        let data = friedman_like(300, 11);
        let model = SgbrtConfig {
            n_trees: 50,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        let owned = model.predict_batch(data.rows());
        assert_eq!(owned.len(), data.n_rows());
        for (row, &a) in data.rows().iter().zip(&owned) {
            assert_eq!(a.to_bits(), model.predict(row).to_bits());
        }
        assert!(model.predict_batch::<Vec<f64>>(&[]).is_empty());
    }

    /// A packed row-major buffer, split with `chunks_exact`, goes through
    /// the same batch API and matches the one-row walk bit for bit.
    #[test]
    fn predict_batch_flat_matches_predict() {
        let data = friedman_like(150, 29);
        let model = SgbrtConfig {
            n_trees: 30,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        let flat: Vec<f64> = data.rows().iter().flatten().copied().collect();
        let slices: Vec<&[f64]> = flat.chunks_exact(model.n_features()).collect();
        let batch = model.predict_batch(&slices);
        assert_eq!(batch.len(), data.n_rows());
        for (row, &b) in data.rows().iter().zip(&batch) {
            assert_eq!(model.predict(row).to_bits(), b.to_bits());
        }
        assert!(model.predict_batch::<&[f64]>(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "feature row length")]
    fn predict_batch_rejects_wrong_width_rows() {
        let data = friedman_like(50, 33);
        let model = SgbrtConfig {
            n_trees: 5,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        model.predict_batch(&[vec![1.0, 2.0, 3.0, 4.0], vec![1.0, 2.0, 3.0]]);
    }

    #[test]
    fn shrinkage_slows_fitting() {
        let data = friedman_like(200, 5);
        let fast = SgbrtConfig {
            n_trees: 10,
            learning_rate: 0.5,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        let slow = SgbrtConfig {
            n_trees: 10,
            learning_rate: 0.01,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        let fast_err = metrics::mse(data.targets(), &fast.predict_batch(data.rows())).unwrap();
        let slow_err = metrics::mse(data.targets(), &slow.predict_batch(data.rows())).unwrap();
        assert!(fast_err < slow_err);
    }

    #[test]
    fn invalid_configs_rejected() {
        let data = friedman_like(50, 6);
        for cfg in [
            SgbrtConfig {
                n_trees: 0,
                ..SgbrtConfig::default()
            },
            SgbrtConfig {
                learning_rate: 0.0,
                ..SgbrtConfig::default()
            },
            SgbrtConfig {
                learning_rate: 1.5,
                ..SgbrtConfig::default()
            },
            SgbrtConfig {
                subsample: 0.0,
                ..SgbrtConfig::default()
            },
        ] {
            assert!(cfg.fit(&data).is_err(), "{cfg:?} should be rejected");
        }
    }

    #[test]
    fn cross_validation_returns_k_fold_errors() {
        let data = friedman_like(200, 20);
        let config = SgbrtConfig {
            n_trees: 40,
            ..SgbrtConfig::default()
        };
        let errors = cross_validate(config, &data, 4).unwrap();
        assert_eq!(errors.len(), 4);
        // A learnable function: every fold achieves a sane error.
        for e in &errors {
            assert!(*e < 0.5, "fold error {e}");
        }
        assert!(cross_validate(config, &data, 1).is_err());
        assert!(cross_validate(config, &data, 500).is_err());
    }

    #[test]
    fn cross_validation_is_thread_count_invariant() {
        let data = friedman_like(120, 21);
        let config = SgbrtConfig {
            n_trees: 15,
            ..SgbrtConfig::default()
        };
        cm_par::set_max_threads(1);
        let serial = cross_validate(config, &data, 3).unwrap();
        cm_par::set_max_threads(0);
        let parallel = cross_validate(config, &data, 3).unwrap();
        assert_eq!(serial, parallel);
    }

    /// Oracle: the histogram trainer's cross-validated error must track
    /// the exact trainer's on the Friedman-style dataset — the binning
    /// is an approximation of split *placement*, not of the objective.
    #[test]
    fn hist_cv_error_within_tolerance_of_exact() {
        let data = friedman_like(600, 31);
        let cv_mean = |trainer: Trainer| {
            let cfg = SgbrtConfig {
                n_trees: 60,
                trainer,
                ..SgbrtConfig::default()
            };
            let errs = cross_validate(cfg, &data, 4).unwrap();
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let exact = cv_mean(Trainer::Exact);
        let hist = cv_mean(Trainer::Hist);
        assert!(
            (hist - exact).abs() / exact < 0.05,
            "hist CV error {hist} drifted from exact {exact}"
        );
    }

    #[test]
    fn hist_training_is_thread_count_invariant() {
        let data = friedman_like(300, 17);
        let config = SgbrtConfig {
            n_trees: 30,
            trainer: Trainer::Hist,
            ..SgbrtConfig::default()
        };
        cm_par::set_max_threads(1);
        let serial = config.fit(&data).unwrap();
        cm_par::set_max_threads(2);
        let two = config.fit(&data).unwrap();
        cm_par::set_max_threads(0);
        let all = config.fit(&data).unwrap();
        assert_eq!(serial, two);
        assert_eq!(serial, all);
    }

    /// Forcing one worker (the serial path `CM_THREADS=1` takes) must
    /// reproduce the pooled result.
    #[test]
    fn hist_serial_fallback_matches_pooled_run() {
        let data = friedman_like(250, 19);
        let config = SgbrtConfig {
            n_trees: 20,
            trainer: Trainer::Hist,
            ..SgbrtConfig::default()
        };
        cm_par::set_max_threads(1);
        let serial = config.fit(&data).unwrap();
        let serial_preds = serial.predict_batch(data.rows());
        cm_par::set_max_threads(0);
        let pooled = config.fit(&data).unwrap();
        assert_eq!(serial, pooled);
        assert_eq!(serial_preds, pooled.predict_batch(data.rows()));
    }

    /// `fit` with the hist trainer is exactly `fit_binned` over a
    /// freshly binned view — the convenience path adds nothing.
    #[test]
    fn fit_binned_matches_hist_fit() {
        let data = friedman_like(200, 23);
        let config = SgbrtConfig {
            n_trees: 25,
            trainer: Trainer::Hist,
            ..SgbrtConfig::default()
        };
        let via_fit = config.fit(&data).unwrap();
        let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
        let via_view = config.fit_binned(&binned.view(), data.targets()).unwrap();
        assert_eq!(via_fit, via_view);
    }

    /// The EIR reuse contract: training on a zero-copy column view of a
    /// once-binned dataset is bit-identical to re-binning the projected
    /// dataset — pruning rounds can skip re-quantization entirely.
    #[test]
    fn binned_column_view_matches_rebinned_projection() {
        let data = friedman_like(300, 27);
        let config = SgbrtConfig {
            n_trees: 20,
            trainer: Trainer::Hist,
            ..SgbrtConfig::default()
        };
        let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
        for cols in [vec![0usize, 2], vec![3, 1], vec![0, 1, 2, 3]] {
            let view = binned.select(&cols).unwrap();
            let via_view = config.fit_binned(&view, data.targets()).unwrap();
            let projected = data.select_features(&cols).unwrap();
            let via_projection = config.fit(&projected).unwrap();
            assert_eq!(via_view, via_projection, "columns {cols:?}");
        }
    }

    #[test]
    fn subsample_one_uses_all_rows() {
        let data = friedman_like(100, 7);
        let model = SgbrtConfig {
            subsample: 1.0,
            n_trees: 20,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        assert_eq!(model.n_trees(), 20);
        assert_eq!(model.n_features(), 4);
    }
}
