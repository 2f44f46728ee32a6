//! The interaction ranker (Section III-D).
//!
//! For each pair of important events a linear model is fit with all
//! other events held at their means; the **residual variance** of that
//! linear model against the performance surface (Eq. 12) measures how
//! strongly the pair interacts — a linear model captures two
//! non-interacting events perfectly, so residuals indicate interaction.
//! Intensities are normalized across pairs (Eq. 13).

use crate::CmError;
use cm_events::EventId;
use cm_ml::{Dataset, Sgbrt};
use cm_stats::regression::MultipleLinear;

/// One ranked event-pair interaction.
#[derive(Debug, Clone, PartialEq)]
pub struct PairInteraction {
    /// The event pair (in ranking-list order).
    pub pair: (EventId, EventId),
    /// Raw residual variance `v` (Eq. 12).
    pub intensity: f64,
    /// Normalized share of the total across ranked pairs (Eq. 13), in
    /// percent.
    pub share: f64,
}

/// The interaction ranker.
#[derive(Debug, Clone, Default)]
pub struct InteractionRanker;

impl InteractionRanker {
    /// Creates an interaction ranker.
    pub fn new() -> Self {
        InteractionRanker
    }

    /// Ranks all pairs among `top_events` by interaction intensity.
    ///
    /// `model` is the MAPM over `model_events` (column order), and
    /// `data` the dataset the model was trained on (same columns).
    /// For each pair, every other feature is pinned at its dataset mean,
    /// the pair's observed joint values are swept, the MAPM predicts the
    /// performance surface, and a linear model in the two events is fit
    /// to that surface; its residual sum of squares is the intensity.
    ///
    /// Returns pairs sorted by descending intensity.
    ///
    /// # Errors
    ///
    /// Returns [`CmError::Invalid`] when fewer than two top events are
    /// given or an event is not a model column; propagates regression
    /// failures.
    pub fn rank_pairs(
        &self,
        model: &Sgbrt,
        model_events: &[EventId],
        data: &Dataset,
        top_events: &[EventId],
    ) -> Result<Vec<PairInteraction>, CmError> {
        if top_events.len() < 2 {
            return Err(CmError::Invalid(
                "interaction ranking needs at least two events",
            ));
        }
        if model_events.len() != data.n_features() {
            return Err(CmError::Invalid(
                "event list must match dataset feature count",
            ));
        }
        let cols = resolve_columns(model_events, top_events)?;

        // Mean row: all features at their dataset means.
        let means = column_means(data);

        // Each pair's sweep-and-fit is independent; fan the O(P²) loop
        // out across the pool. `try_map` keeps pair order and surfaces
        // the lowest-indexed error, like the serial loop did.
        let pairs = index_pairs(top_events.len());
        record_sweep(pairs.len(), pairs.len() * data.n_rows());
        let intensities = cm_par::try_map(&pairs, |&(i, j)| {
            pair_intensity(model, data, &means, cols[i], cols[j])
        })?;
        let mut out: Vec<PairInteraction> = pairs
            .iter()
            .zip(intensities)
            .map(|(&(i, j), intensity)| PairInteraction {
                pair: (top_events[i], top_events[j]),
                intensity,
                share: 0.0,
            })
            .collect();
        let total: f64 = out.iter().map(|p| p.intensity).sum();
        if total > 0.0 {
            for p in &mut out {
                p.share = p.intensity / total * 100.0;
            }
        }
        out.sort_by(|a, b| b.intensity.total_cmp(&a.intensity));
        Ok(out)
    }

    /// Ranks pairs by **additivity-corrected** interaction intensity:
    /// the cross-difference
    /// `f(a, b) - f(a, ·) - f(·, b) + f(·, ·)` of the MAPM surface,
    /// squared and summed over the observed joint values (Friedman's
    /// H-statistic numerator).
    ///
    /// Eq. 12's pairwise *linear* residual (see
    /// [`InteractionRanker::rank_pairs`]) also counts each event's own
    /// nonlinearity — over a tree-ensemble surface, whose main effects
    /// are piecewise constant, that term dominates, so every pair
    /// containing the single most important event ranks high. The
    /// cross-difference cancels main effects exactly and isolates the
    /// joint term, matching the paper's *intent* ("if two events are
    /// orthogonal, the combined effect is predictable from the
    /// individual ones"). The pipeline uses this variant.
    ///
    /// # Errors
    ///
    /// Same conditions as [`InteractionRanker::rank_pairs`].
    pub fn rank_pairs_additive(
        &self,
        model: &Sgbrt,
        model_events: &[EventId],
        data: &Dataset,
        top_events: &[EventId],
    ) -> Result<Vec<PairInteraction>, CmError> {
        if top_events.len() < 2 {
            return Err(CmError::Invalid(
                "interaction ranking needs at least two events",
            ));
        }
        if model_events.len() != data.n_features() {
            return Err(CmError::Invalid(
                "event list must match dataset feature count",
            ));
        }
        let cols = resolve_columns(model_events, top_events)?;

        let means = column_means(data);
        let f0 = model.predict(&means);

        // Univariate partial responses, shared across pairs. Each event's
        // sweep packs its probes into one flat buffer and predicts its
        // `chunks_exact` rows as a single batch.
        let nf = means.len();
        let partials: Vec<Vec<f64>> = cm_par::map(&cols, |&c| {
            let mut probes = Vec::with_capacity(data.n_rows() * nf);
            for row in data.rows() {
                let start = probes.len();
                probes.extend_from_slice(&means);
                probes[start + c] = row[c];
            }
            model.predict_batch(&probes.chunks_exact(nf).collect::<Vec<_>>())
        });

        // The O(P²) cross-difference loop, fanned out per pair. Summation
        // order within a pair is unchanged, so intensities are
        // bit-identical to the serial loop at any thread count.
        let pairs = index_pairs(top_events.len());
        // Probe rows: one row of probes per dataset row, for each
        // univariate partial and each pair surface.
        record_sweep(pairs.len(), (cols.len() + pairs.len()) * data.n_rows());
        let mut out: Vec<PairInteraction> = cm_par::map(&pairs, |&(i, j)| {
            let (ca, cb) = (cols[i], cols[j]);
            let mut probes = Vec::with_capacity(data.n_rows() * nf);
            for row in data.rows() {
                let start = probes.len();
                probes.extend_from_slice(&means);
                probes[start + ca] = row[ca];
                probes[start + cb] = row[cb];
            }
            let f_ab = model.predict_batch(&probes.chunks_exact(nf).collect::<Vec<_>>());
            let mut v = 0.0;
            for r in 0..data.n_rows() {
                let cross = f_ab[r] - partials[i][r] - partials[j][r] + f0;
                v += cross * cross;
            }
            PairInteraction {
                pair: (top_events[i], top_events[j]),
                intensity: v,
                share: 0.0,
            }
        });
        let total: f64 = out.iter().map(|p| p.intensity).sum();
        if total > 0.0 {
            for p in &mut out {
                p.share = p.intensity / total * 100.0;
            }
        }
        out.sort_by(|a, b| b.intensity.total_cmp(&a.intensity));
        Ok(out)
    }

    /// Interaction intensity between two raw observable series and a
    /// target (Eq. 12 applied directly to observations). Used for the
    /// Spark case study's (configuration parameter, event) pairs where
    /// no MAPM surface exists.
    ///
    /// # Errors
    ///
    /// Propagates regression failures (mismatched lengths, collinear
    /// inputs, too few points).
    pub fn observed_intensity(
        &self,
        xs_a: &[f64],
        xs_b: &[f64],
        target: &[f64],
    ) -> Result<f64, CmError> {
        let rows: Vec<Vec<f64>> = xs_a.iter().zip(xs_b).map(|(&a, &b)| vec![a, b]).collect();
        let linear = MultipleLinear::fit(&rows, target).map_err(CmError::Stats)?;
        linear
            .residual_sum_of_squares(&rows, target)
            .map_err(CmError::Stats)
    }
}

/// One observability record per interaction sweep: how many pairs were
/// ranked and how many probe rows the MAPM predicted for them.
fn record_sweep(pairs: usize, probe_rows: usize) {
    if cm_obs::enabled() {
        cm_obs::counter_add("interaction.pairs", pairs as u64);
        cm_obs::counter_add("interaction.probe_rows", probe_rows as u64);
    }
}

/// Per-column means of a dataset — the "mean row" both rankers pin
/// non-swept features to.
pub(crate) fn column_means(data: &Dataset) -> Vec<f64> {
    let n = data.n_rows() as f64;
    let mut means = vec![0.0; data.n_features()];
    for row in data.rows() {
        for (m, &v) in means.iter_mut().zip(row) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= n;
    }
    means
}

/// Maps each top event to its model column, erroring on the first event
/// that is not a model input.
fn resolve_columns(
    model_events: &[EventId],
    top_events: &[EventId],
) -> Result<Vec<usize>, CmError> {
    top_events
        .iter()
        .map(|&event| {
            model_events
                .iter()
                .position(|&e| e == event)
                .ok_or(CmError::Invalid("top event is not a model input"))
        })
        .collect()
}

/// All index pairs `(i, j)` with `i < j < len`, in the serial loop's
/// enumeration order.
fn index_pairs(len: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(len * (len - 1) / 2);
    for i in 0..len {
        for j in i + 1..len {
            pairs.push((i, j));
        }
    }
    pairs
}

fn pair_intensity(
    model: &Sgbrt,
    data: &Dataset,
    means: &[f64],
    ca: usize,
    cb: usize,
) -> Result<f64, CmError> {
    // Sweep the pair over its observed joint values, others at means.
    // Probes are packed into one flat buffer — no per-row Vec — and its
    // `chunks_exact` rows are predicted in a single batch.
    let nf = means.len();
    let mut probes = Vec::with_capacity(data.n_rows() * nf);
    let mut pair_rows = Vec::with_capacity(data.n_rows());
    for row in data.rows() {
        let start = probes.len();
        probes.extend_from_slice(means);
        probes[start + ca] = row[ca];
        probes[start + cb] = row[cb];
        pair_rows.push(vec![row[ca], row[cb]]);
    }
    let surface = model.predict_batch(&probes.chunks_exact(nf).collect::<Vec<_>>());
    let linear = MultipleLinear::fit(&pair_rows, &surface).map_err(CmError::Stats)?;
    linear
        .residual_sum_of_squares(&pair_rows, &surface)
        .map_err(CmError::Stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_ml::SgbrtConfig;
    use cm_rng::Rng;

    /// y = a·b + c (a,b interact; c is additive).
    fn interacting_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[1] + 0.8 * r[2]).collect();
        Dataset::new(rows, y).unwrap()
    }

    fn events(n: usize) -> Vec<EventId> {
        (0..n).map(EventId::new).collect()
    }

    #[test]
    fn interacting_pair_ranks_first() {
        let data = interacting_dataset(500, 1);
        let ev = events(3);
        let model = SgbrtConfig {
            n_trees: 150,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        let ranked = InteractionRanker::new()
            .rank_pairs(&model, &ev, &data, &ev)
            .unwrap();
        assert_eq!(ranked.len(), 3);
        let top = &ranked[0];
        assert_eq!(
            (
                top.pair.0.index().min(top.pair.1.index()),
                top.pair.0.index().max(top.pair.1.index())
            ),
            (0, 1),
            "expected (e0, e1) to dominate: {ranked:?}"
        );
        // Shares sum to 100.
        let total: f64 = ranked.iter().map(|p| p.share).sum();
        assert!((total - 100.0).abs() < 1e-6);
        // Dominance is clear.
        assert!(top.share > 60.0, "top share {}", top.share);
    }

    #[test]
    fn additive_feature_pairs_have_low_intensity() {
        let data = interacting_dataset(500, 2);
        let ev = events(3);
        let model = SgbrtConfig::default().fit(&data).unwrap();
        let ranked = InteractionRanker::new()
            .rank_pairs(&model, &ev, &data, &ev)
            .unwrap();
        // (0,2) and (1,2) are additive pairs: far weaker than (0,1).
        let intensity_of = |a: usize, b: usize| {
            ranked
                .iter()
                .find(|p| {
                    let (x, y) = (p.pair.0.index(), p.pair.1.index());
                    (x, y) == (a, b) || (x, y) == (b, a)
                })
                .unwrap()
                .intensity
        };
        assert!(intensity_of(0, 1) > 3.0 * intensity_of(0, 2));
        assert!(intensity_of(0, 1) > 3.0 * intensity_of(1, 2));
    }

    #[test]
    fn validates_inputs() {
        let data = interacting_dataset(50, 3);
        let ev = events(3);
        let model = SgbrtConfig::default().fit(&data).unwrap();
        let ranker = InteractionRanker::new();
        assert!(ranker
            .rank_pairs(&model, &ev, &data, &[EventId::new(0)])
            .is_err());
        assert!(ranker
            .rank_pairs(&model, &ev, &data, &[EventId::new(0), EventId::new(9)])
            .is_err());
        assert!(ranker.rank_pairs(&model, &events(2), &data, &ev).is_err());
    }

    #[test]
    fn additive_variant_isolates_the_product_pair() {
        // y = a*b + c^2: the naive Eq. 12 residual flags pairs with c
        // (its own curvature); the cross-difference must not.
        let mut rng = Rng::seed_from_u64(9);
        let rows: Vec<Vec<f64>> = (0..600)
            .map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[1] + r[2] * r[2]).collect();
        let data = Dataset::new(rows, y).unwrap();
        let ev = events(3);
        let model = SgbrtConfig {
            n_trees: 200,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        let ranked = InteractionRanker::new()
            .rank_pairs_additive(&model, &ev, &data, &ev)
            .unwrap();
        let top = &ranked[0];
        let pair = (
            top.pair.0.index().min(top.pair.1.index()),
            top.pair.0.index().max(top.pair.1.index()),
        );
        assert_eq!(pair, (0, 1), "expected (e0, e1): {ranked:?}");
        assert!(top.share > 50.0, "top share {}", top.share);
    }

    #[test]
    fn additive_variant_validates_like_the_linear_one() {
        let data = interacting_dataset(50, 10);
        let ev = events(3);
        let model = SgbrtConfig::default().fit(&data).unwrap();
        let ranker = InteractionRanker::new();
        assert!(ranker
            .rank_pairs_additive(&model, &ev, &data, &[EventId::new(0)])
            .is_err());
        assert!(ranker
            .rank_pairs_additive(&model, &ev, &data, &[EventId::new(0), EventId::new(9)])
            .is_err());
    }

    #[test]
    fn column_means_averages_each_feature() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 30.0]];
        let data = Dataset::new(rows, vec![0.0; 3]).unwrap();
        assert_eq!(column_means(&data), vec![3.0, 20.0]);
    }

    #[test]
    fn index_pairs_enumerates_upper_triangle_in_order() {
        assert_eq!(index_pairs(3), vec![(0, 1), (0, 2), (1, 2)]);
        assert!(index_pairs(1).is_empty());
    }

    #[test]
    fn rankings_are_thread_count_invariant() {
        let data = interacting_dataset(300, 11);
        let ev = events(3);
        let model = SgbrtConfig::default().fit(&data).unwrap();
        let ranker = InteractionRanker::new();
        cm_par::set_max_threads(1);
        let serial = ranker.rank_pairs(&model, &ev, &data, &ev).unwrap();
        let serial_add = ranker.rank_pairs_additive(&model, &ev, &data, &ev).unwrap();
        cm_par::set_max_threads(0);
        let parallel = ranker.rank_pairs(&model, &ev, &data, &ev).unwrap();
        let parallel_add = ranker.rank_pairs_additive(&model, &ev, &data, &ev).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial_add, parallel_add);
    }

    #[test]
    fn observed_intensity_detects_product_targets() {
        let mut rng = Rng::seed_from_u64(4);
        let a: Vec<f64> = (0..200).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..200).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let linear_target: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| 2.0 * x - y).collect();
        let product_target: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
        let ranker = InteractionRanker::new();
        let v_linear = ranker.observed_intensity(&a, &b, &linear_target).unwrap();
        let v_product = ranker.observed_intensity(&a, &b, &product_target).unwrap();
        assert!(v_linear < 1e-9, "linear target should fit exactly");
        assert!(v_product > 1.0);
    }
}
