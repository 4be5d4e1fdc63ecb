//! The workloads and their seeded set-up.
//!
//! Every workload runs the paper's quick preset (`RunScale::quick()`:
//! 25 trees, depth 8, `max_literals` 2, top-5) with the explain's
//! parallelism pinned to 2 threads and the forest's to 1, so timings do
//! not depend on the host's core count and no more than two compute
//! threads run at once. The seed drives data generation,
//! the 70/30 split, the forest seed and the serve clients' request
//! order.

use std::time::{Duration, Instant};

use fume_bench::common::Prepared;
use fume_bench::RunScale;
use fume_core::{Fume, FumeConfig};
use fume_fairness::FairnessMetric;
use fume_forest::DareForest;
use fume_lattice::SupportRange;
use fume_serve::{Engine, EngineOptions, ExplainOverrides};
use fume_tabular::datasets::{adult, german_credit, PaperDataset};
use fume_tabular::{Dataset, GroupSpec};

/// Explain parallelism (`FumeConfig::n_jobs`).
pub const N_JOBS: usize = 2;
/// Forest parallelism (`DareConfig::n_jobs`). Each explain worker
/// deletes through the forest, so any more would run `N_JOBS` times as
/// many threads, more than a 2-vCPU host has.
const FOREST_JOBS: usize = 1;

/// One explain question: a fairness metric and a support range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub metric: FairnessMetric,
    pub support: (f64, f64),
}

impl Shape {
    pub fn fume(&self, base: &FumeConfig) -> Fume {
        let (min, max) = self.support;
        Fume::builder()
            .metric(self.metric)
            .support(SupportRange::new(min, max).expect("static support range"))
            .max_literals(base.max_literals)
            .top_k(base.top_k)
            .forest(base.forest.clone())
            .n_jobs(N_JOBS)
            .build()
    }

    pub fn overrides(&self) -> ExplainOverrides {
        ExplainOverrides {
            metric: Some(self.metric),
            support: Some(self.support),
            ..ExplainOverrides::default()
        }
    }

    pub fn label(&self) -> String {
        let tag = match self.metric {
            FairnessMetric::StatisticalParity => "SP",
            FairnessMetric::EqualizedOdds => "EO",
            FairnessMetric::PredictiveParity => "PP",
            FairnessMetric::EqualOpportunity => "EOpp",
        };
        format!(
            "{tag} {:.0}-{:.0}%",
            self.support.0 * 100.0,
            self.support.1 * 100.0
        )
    }
}

pub struct Workload {
    pub name: &'static str,
    pub dataset: fn() -> PaperDataset,
    pub shapes: Vec<Shape>,
    /// Warm repeats of every shape in the serve phase, across all clients.
    pub warm_per_shape: usize,
    /// Closed-loop serve clients; each waits for its reply before sending on.
    pub clients: usize,
    pub engine: EngineOptions,
}

/// Seed of replica `j` of a run; replica 0 uses the run's own seed.
pub fn replica_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add((j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

const PAPER_SHAPE: Shape = Shape {
    metric: FairnessMetric::StatisticalParity,
    support: (0.05, 0.15),
};

pub fn workload(name: &str) -> Option<Workload> {
    let explain = |name, dataset| Workload {
        name,
        dataset,
        shapes: vec![PAPER_SHAPE],
        warm_per_shape: 100,
        // A cold job gets the explain's two eval threads, so
        // `serve_cold_mean_s` and `explain_s` time the same search
        // through the engine and through `Fume::run`. One worker keeps
        // the compute threads at two, as `EngineOptions::job_jobs` asks,
        // and one client keeps repeats from queueing behind each other,
        // which put `serve_warm_p50_ms` between a waited and an unwaited
        // latency.
        clients: 1,
        engine: EngineOptions {
            workers: 1,
            job_jobs: N_JOBS,
            ..EngineOptions::default()
        },
    };
    match name {
        "german-t3" => Some(explain("german-t3", german_credit)),
        "serve-audit" => {
            // Per metric the support ranges are disjoint, so no two
            // shapes can evaluate the same row set: cache hits then come
            // from repeats of a completed shape (and a shape meeting its
            // own row set again a level deeper), so the hit count repeats
            // exactly from run to run.
            let mut shapes = Vec::new();
            for metric in [
                FairnessMetric::StatisticalParity,
                FairnessMetric::EqualizedOdds,
                FairnessMetric::PredictiveParity,
            ] {
                for support in [(0.04, 0.08), (0.09, 0.15), (0.16, 0.25)] {
                    shapes.push(Shape { metric, support });
                }
            }
            Some(Workload {
                name: "serve-audit",
                dataset: adult,
                shapes,
                warm_per_shape: 24,
                clients: 2,
                engine: EngineOptions::default(),
            })
        }
        _ => None,
    }
}

/// Everything a run works on, built from the seed.
pub struct Env {
    pub train: Dataset,
    pub test: Dataset,
    pub group: GroupSpec,
    pub base: FumeConfig,
    pub engine: Engine,
}

impl Env {
    pub fn forest(&self) -> &DareForest {
        self.engine.forest()
    }
}

/// Times of one set-up's parts.
pub struct SetupTimes {
    pub generate: Duration,
    pub fit: Duration,
    pub total: Duration,
}

/// Generates and splits the data, fits the forest and builds the engine
/// around it.
pub fn setup(w: &Workload, seed: u64) -> (Env, SetupTimes) {
    let t0 = Instant::now();
    let mut p = Prepared::new(&(w.dataset)(), RunScale::quick(), seed);
    p.forest_cfg.n_jobs = Some(FOREST_JOBS);
    let generate = t0.elapsed();
    let t1 = Instant::now();
    let forest = p.fit();
    let fit = t1.elapsed();
    let base = FumeConfig::default()
        .with_forest(p.forest_cfg.clone())
        .with_jobs(N_JOBS);
    let engine = Engine::with_forest(
        base.clone(),
        p.train.clone(),
        p.test.clone(),
        p.group,
        forest,
        w.engine.clone(),
    )
    .expect("non-empty generated data");
    let total = t0.elapsed();
    let env = Env {
        train: p.train,
        test: p.test,
        group: p.group,
        base,
        engine,
    };
    (
        env,
        SetupTimes {
            generate,
            fit,
            total,
        },
    )
}
