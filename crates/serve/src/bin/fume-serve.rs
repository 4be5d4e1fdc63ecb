//! `fume-serve` — a persistent FUME explain server.
//!
//! Loads a CSV once, trains the DaRE forest once, keeps the eval cache
//! hot, and serves explain
//! requests as newline-delimited JSON — over stdin/stdout, and
//! optionally a Unix-domain socket at the same time.
//!
//! ```text
//! fume-serve --data loans.csv --label approved --positive yes \
//!     --sensitive sex --privileged male --workers 2
//! ```
//!
//! Then, per line on stdin (see `docs/serving.md` for the protocol):
//!
//! ```text
//! {"op":"explain","id":"r1"}
//! {"op":"stats","id":"r2"}
//! {"op":"shutdown","id":"r3"}
//! ```

use std::io::{BufReader, Write};
use std::process::exit;

use fume_core::{checkpoint, Fume, FumeConfig};
use fume_fairness::FairnessMetric;
use fume_forest::DareConfig;
use fume_lattice::{LiteralGen, SupportRange};
use fume_serve::transport::unix::serve_unix;
use fume_serve::{serve_lines, Engine, EngineHandle, EngineOptions};
use fume_tabular::csv::{read_csv, CsvOptions};
use fume_tabular::discretize::{discretize, Discretizer};
use fume_tabular::split::train_test_split;
use fume_tabular::{workers, Dataset, GroupSpec};

struct Args {
    data: String,
    label: String,
    positive: String,
    sensitive: String,
    privileged: String,
    metric: FairnessMetric,
    support: SupportRange,
    max_literals: usize,
    top_k: usize,
    trees: usize,
    depth: usize,
    seed: u64,
    test_fraction: f64,
    bins: usize,
    ranges: bool,
    trace: Option<String>,
    workers: usize,
    queue_depth: usize,
    jobs_within: usize,
    cache_capacity: usize,
    socket: Option<String>,
    acceptors: usize,
    checkpoint_root: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: fume-serve --data FILE.csv --label COL --positive VALUE \
         --sensitive COL --privileged VALUE\n\
         dataset/model options (as in fume-cli):\n\
                  --metric <sp|eo|pp>   default fairness metric (default sp)\n\
                  --support MIN:MAX     default support range (default 0.05:0.15)\n\
                  --max-literals N      default interpretability cap (default 2)\n\
                  --top-k K             default subsets to report (default 5)\n\
                  --trees N             forest size (default 50)\n\
                  --depth D             max tree depth (default 10)\n\
                  --seed S              RNG seed (default 0)\n\
                  --test-fraction F     held-out fraction (default 0.3)\n\
                  --bins B              numeric discretization bins (default 5)\n\
                  --ranges              generate <=/>= literals on binned columns\n\
                  --trace FILE          write a JSONL span/counter trace (or set FUME_TRACE)\n\
         serving options:\n\
                  --workers N           concurrent explain jobs (default 2)\n\
                  --queue-depth N       queued jobs before `busy` (default 16)\n\
                  --jobs-within N       eval threads inside one job (default 1)\n\
                  --cache-capacity N    eval-cache entries, 0 disables (default 4096)\n\
                  --socket PATH         also serve a Unix-domain socket at PATH\n\
                  --acceptors N         concurrent socket connections (default 2)\n\
                  --checkpoint-root DIR crash-resumable per-job checkpoints under DIR"
    );
    exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("fume-serve: {msg}");
    exit(1)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        data: String::new(),
        label: "label".into(),
        positive: "1".into(),
        sensitive: String::new(),
        privileged: String::new(),
        metric: FairnessMetric::StatisticalParity,
        support: SupportRange::medium(),
        max_literals: 2,
        top_k: 5,
        trees: 50,
        depth: 10,
        seed: 0,
        test_fraction: 0.3,
        bins: 5,
        ranges: false,
        trace: std::env::var("FUME_TRACE").ok().filter(|s| !s.is_empty()),
        workers: 2,
        queue_depth: 16,
        jobs_within: 1,
        cache_capacity: 4096,
        socket: None,
        acceptors: 2,
        checkpoint_root: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--data" => args.data = value(),
            "--label" => args.label = value(),
            "--positive" => args.positive = value(),
            "--sensitive" => args.sensitive = value(),
            "--privileged" => args.privileged = value(),
            "--metric" => {
                args.metric = match value().as_str() {
                    "sp" => FairnessMetric::StatisticalParity,
                    "eo" => FairnessMetric::EqualizedOdds,
                    "pp" => FairnessMetric::PredictiveParity,
                    other => fail(format!("unknown metric `{other}` (sp|eo|pp)")),
                }
            }
            "--support" => {
                let v = value();
                let Some((lo, hi)) = v.split_once(':') else {
                    fail(format!("--support expects MIN:MAX, got `{v}`"))
                };
                let (lo, hi) = match (lo.parse(), hi.parse()) {
                    (Ok(a), Ok(b)) => (a, b),
                    _ => fail(format!("--support expects numbers, got `{v}`")),
                };
                args.support = SupportRange::new(lo, hi).unwrap_or_else(|e| fail(e));
            }
            "--max-literals" => args.max_literals = value().parse().unwrap_or_else(|_| usage()),
            "--top-k" => args.top_k = value().parse().unwrap_or_else(|_| usage()),
            "--trees" => args.trees = value().parse().unwrap_or_else(|_| usage()),
            "--depth" => args.depth = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--test-fraction" => {
                args.test_fraction = value().parse().unwrap_or_else(|_| usage())
            }
            "--bins" => args.bins = value().parse().unwrap_or_else(|_| usage()),
            "--ranges" => args.ranges = true,
            "--trace" => args.trace = Some(value()),
            "--workers" => args.workers = value().parse().unwrap_or_else(|_| usage()),
            "--queue-depth" => args.queue_depth = value().parse().unwrap_or_else(|_| usage()),
            "--jobs-within" => args.jobs_within = value().parse().unwrap_or_else(|_| usage()),
            "--cache-capacity" => {
                args.cache_capacity = value().parse().unwrap_or_else(|_| usage())
            }
            "--socket" => args.socket = Some(value()),
            "--acceptors" => args.acceptors = value().parse().unwrap_or_else(|_| usage()),
            "--checkpoint-root" => args.checkpoint_root = Some(value()),
            "--help" | "-h" => usage(),
            other => fail(format!("unknown flag `{other}`")),
        }
    }
    if args.data.is_empty() || args.sensitive.is_empty() || args.privileged.is_empty() {
        usage();
    }
    args
}

/// The same loading pipeline as `fume-cli`, so a served report is
/// byte-identical to a CLI run over the same flags.
fn load(args: &Args) -> (Dataset, Dataset, GroupSpec) {
    let opts = CsvOptions {
        label_column: args.label.clone(),
        positive_label: args.positive.clone(),
        ..CsvOptions::default()
    };
    let raw = read_csv(&args.data, &opts).unwrap_or_else(|e| fail(e));
    let data = discretize(&raw, Discretizer::Quantile(args.bins)).unwrap_or_else(|e| fail(e));
    let attr = data
        .schema()
        .attribute_index(&args.sensitive)
        .unwrap_or_else(|e| fail(e));
    let privileged_code = data
        .schema()
        .attribute(attr)
        .ok()
        .and_then(|a| a.code_of(&args.privileged))
        .unwrap_or_else(|| {
            fail(format!(
                "value `{}` not found in column `{}`",
                args.privileged, args.sensitive
            ))
        });
    let group = GroupSpec::new(attr, privileged_code);
    let (train, test) =
        train_test_split(&data, args.test_fraction, args.seed).unwrap_or_else(|e| fail(e));
    (train, test, group)
}

fn config(args: &Args) -> FumeConfig {
    Fume::builder()
        .metric(args.metric)
        .support(args.support)
        .max_literals(args.max_literals)
        .top_k(args.top_k)
        .literal_gen(if args.ranges {
            LiteralGen::WithRanges
        } else {
            LiteralGen::EqOnly
        })
        .forest(
            DareConfig::default()
                .with_trees(args.trees)
                .with_max_depth(args.depth)
                .with_seed(args.seed),
        )
        .into_config()
}

/// FNV-1a over a canonical rendering of the engine-defining flags
/// (mirrors `fume-cli`'s `config_hash` for `fume-trace diff`).
fn config_hash(args: &Args) -> u64 {
    let canonical = format!(
        "serve|{:?}|{}:{}|{}|{}|{}|{}|{}|{}|{}",
        args.metric,
        args.support.min,
        args.support.max,
        args.max_literals,
        args.top_k,
        args.trees,
        args.depth,
        args.seed,
        args.bins,
        args.ranges,
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serves stdin/stdout until EOF or a `shutdown` request, then starts
/// the engine drain (which also stops any socket acceptors).
fn stdio_loop(handle: EngineHandle<'_, '_>) {
    serve_lines(handle, BufReader::new(std::io::stdin()), std::io::stdout());
    handle.shutdown();
}

fn main() {
    let args = parse_args();
    if args.trace.is_some() {
        fume_obs::install();
    }
    let (train, test, group) = load(&args);
    eprintln!(
        "fume-serve: loaded {} train / {} test rows, {} attributes; sensitive `{}` (privileged `{}`)",
        train.num_rows(),
        test.num_rows(),
        train.num_attributes(),
        args.sensitive,
        args.privileged
    );
    if args.trace.is_some() {
        let rec = fume_obs::global().expect("recorder installed when tracing");
        rec.set_meta("seed", args.seed.to_string());
        rec.set_meta("config_hash", format!("{:016x}", config_hash(&args)));
        rec.set_meta(
            "dataset_fingerprint",
            format!("{:016x}", checkpoint::fingerprint(&train, &test, group)),
        );
        rec.set_meta("dataset", args.data.clone());
    }
    let opts = EngineOptions {
        workers: args.workers.max(1),
        queue_depth: args.queue_depth.max(1),
        job_jobs: args.jobs_within.max(1),
        cache_capacity: args.cache_capacity,
        checkpoint_root: args.checkpoint_root.as_ref().map(Into::into),
    };
    let engine = Engine::new(config(&args), train, test, group, opts)
        .unwrap_or_else(|e| fail(e));
    eprintln!(
        "fume-serve: engine ready ({} workers, queue depth {}, cache capacity {}); \
         reading NDJSON requests from stdin{}",
        args.workers.max(1),
        args.queue_depth.max(1),
        args.cache_capacity,
        args.socket.as_deref().map(|s| format!(" and socket {s}")).unwrap_or_default()
    );
    engine.serve(|handle| match &args.socket {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            workers::scoped_workers(
                1,
                |_| {
                    if let Err(e) = serve_unix(handle, &path, args.acceptors.max(1)) {
                        eprintln!("fume-serve: socket error: {e}");
                        handle.shutdown();
                    }
                },
                || stdio_loop(handle),
            )
        }
        None => stdio_loop(handle),
    });
    // With lock-order tracking active (debug builds or FUME_DEEPCHECK=1)
    // any inversion recorded during the session is a correctness bug:
    // report every cycle and refuse to exit cleanly. With tracking off
    // the graph is empty and this is free.
    let cycles = fume_obs::sync::cycle_reports();
    if !cycles.is_empty() {
        for cycle in &cycles {
            eprintln!("fume-serve: {cycle}");
        }
        fail(format!("{} lock-order cycle(s) detected during the session", cycles.len()));
    }
    let stats = engine.stats();
    eprintln!(
        "fume-serve: drained; {} jobs ({} failed, {} busy rejections), cache {} hits / {} misses / {} evictions",
        stats.jobs,
        stats.jobs_failed,
        stats.busy_rejections,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions
    );
    if let Some(path) = &args.trace {
        let rec = fume_obs::global().expect("recorder installed when tracing");
        match std::fs::write(path, rec.events_to_jsonl()) {
            Ok(()) => {
                eprintln!("fume-serve: wrote {} trace events to {path}", rec.event_count())
            }
            Err(e) => fail(format!("cannot write trace `{path}`: {e}")),
        }
        let _ = write!(std::io::stderr(), "\n{}", rec.profile_table());
    }
}
