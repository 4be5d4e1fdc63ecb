//! Fluent construction of a [`Fume`] instance.
//!
//! FUME runs are parameterized along several axes — fairness metric,
//! DaRE forest hyperparameters, lattice search bounds, parallelism —
//! that historically had to be assembled by hand through
//! [`FumeConfig`]'s field setters. [`Fume::builder`] consolidates them
//! into one fluent entry point:
//!
//! ```
//! use fume_core::prelude::*;
//! use fume_tabular::datasets::planted_toy;
//! use fume_tabular::split::train_test_split;
//!
//! let (data, group) = planted_toy().generate_scaled(0.5, 3).unwrap();
//! let (train, test) = train_test_split(&data, 0.3, 3).unwrap();
//! let fume = Fume::builder()
//!     .metric(FairnessMetric::StatisticalParity)
//!     .forest(DareConfig::small(3))
//!     .support(SupportRange::new(0.02, 0.25).unwrap())
//!     .top_k(5)
//!     .build();
//! let report = fume.run(&ExplainRequest::new(&train, &test, group)).unwrap();
//! assert!(!report.top_k.is_empty());
//! ```

use fume_fairness::FairnessMetric;
use fume_forest::DareConfig;
use fume_lattice::{LiteralGen, RuleToggles, SupportRange};

use crate::algorithm::Fume;
use crate::config::FumeConfig;

/// Fluent builder for [`Fume`], created by [`Fume::builder`].
///
/// Every knob defaults to the paper's configuration
/// ([`FumeConfig::default`]); set only what differs.
#[derive(Debug, Clone, Default)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct FumeBuilder {
    config: FumeConfig,
}

impl FumeBuilder {
    /// The fairness notion whose violation is being explained.
    pub fn metric(mut self, metric: FairnessMetric) -> Self {
        self.config.metric = metric;
        self
    }

    /// Rule 2's support range.
    pub fn support(mut self, support: SupportRange) -> Self {
        self.config.support = support;
        self
    }

    /// Rule 3's interpretability cap (max literals per subset).
    pub fn max_literals(mut self, eta: usize) -> Self {
        self.config.max_literals = eta;
        self
    }

    /// How many subsets to report (the paper uses `k = 5`).
    pub fn top_k(mut self, k: usize) -> Self {
        self.config.top_k = k;
        self
    }

    /// Hyperparameters of the DaRE forest.
    pub fn forest(mut self, forest: DareConfig) -> Self {
        self.config.forest = forest;
        self
    }

    /// Pruning-rule ablation switches.
    pub fn toggles(mut self, toggles: RuleToggles) -> Self {
        self.config.toggles = toggles;
        self
    }

    /// Attributes excluded from explanations (e.g. the protected
    /// attribute itself).
    pub fn exclude_attrs(mut self, attrs: Vec<u16>) -> Self {
        self.config.exclude_attrs = attrs;
        self
    }

    /// Level-1 literal generation strategy. Selecting
    /// [`LiteralGen::WithRanges`] also enables redundancy pruning, as
    /// [`FumeConfig::with_literal_gen`] does.
    pub fn literal_gen(mut self, gen: LiteralGen) -> Self {
        self.config = self.config.with_literal_gen(gen);
        self
    }

    /// Worker threads for parallel subset evaluation (each eval unlearns
    /// from its own clone of the forest). Defaults to all available
    /// cores.
    pub fn n_jobs(mut self, jobs: usize) -> Self {
        self.config.n_jobs = Some(jobs);
        self
    }

    /// Directory to checkpoint the run into (persisted forest + search
    /// state at every lattice-level boundary). A crashed run restarts
    /// from the last completed level via [`Fume::resume`].
    pub fn checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.config.checkpoint_dir = Some(dir.into());
        self
    }

    /// The accumulated [`FumeConfig`], for callers that want the raw
    /// configuration rather than a [`Fume`] instance.
    pub fn into_config(self) -> FumeConfig {
        self.config
    }

    /// Finishes the builder.
    pub fn build(self) -> Fume {
        Fume::new(self.config)
    }
}

impl Fume {
    /// Starts a fluent builder with the paper's default configuration —
    /// the preferred way to construct a [`Fume`] instance.
    #[must_use = "the builder must be consumed by .build()"]
    pub fn builder() -> FumeBuilder {
        FumeBuilder::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_equal_default_config() {
        assert_eq!(Fume::builder().build().config(), &FumeConfig::default());
    }

    #[test]
    fn builder_sets_every_knob() {
        let toggles = RuleToggles { prune_redundant: true, ..RuleToggles::default() };
        let cfg = Fume::builder()
            .metric(FairnessMetric::PredictiveParity)
            .support(SupportRange::new(0.01, 0.5).unwrap())
            .max_literals(3)
            .top_k(7)
            .forest(DareConfig::small(9))
            .toggles(toggles)
            .exclude_attrs(vec![2, 4])
            .n_jobs(2)
            .checkpoint_dir("/tmp/fume-ckpt")
            .into_config();
        assert_eq!(cfg.metric, FairnessMetric::PredictiveParity);
        assert!((cfg.support.min - 0.01).abs() < 1e-12);
        assert_eq!(cfg.max_literals, 3);
        assert_eq!(cfg.top_k, 7);
        assert_eq!(cfg.forest, DareConfig::small(9));
        assert!(cfg.toggles.prune_redundant);
        assert_eq!(cfg.exclude_attrs, vec![2, 4]);
        assert_eq!(cfg.n_jobs, Some(2));
        assert_eq!(
            cfg.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("/tmp/fume-ckpt"))
        );
    }

    #[test]
    fn literal_gen_with_ranges_enables_redundancy_pruning() {
        let cfg = Fume::builder().literal_gen(LiteralGen::WithRanges).into_config();
        assert_eq!(cfg.literal_gen, LiteralGen::WithRanges);
        assert!(cfg.toggles.prune_redundant);
    }
}
