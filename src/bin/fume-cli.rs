//! `fume-cli` — run FUME on your own CSV data from the command line.
//!
//! ```text
//! fume-cli explain --data loans.csv --label approved --positive yes \
//!     --sensitive sex --privileged male --support 0.05:0.15 --top-k 5
//! fume-cli slices  --data loans.csv --label approved --positive yes \
//!     --sensitive sex --privileged male
//! fume-cli baseline --data loans.csv --label approved --positive yes \
//!     --sensitive sex --privileged male
//! fume-cli serve    --data loans.csv --label approved --positive yes \
//!     --sensitive sex --privileged male --workers 2
//! ```
//!
//! `serve` loads the CSV and trains the forest once, then answers
//! newline-delimited JSON requests on stdin/stdout (and optionally a
//! Unix-domain socket) until EOF or a `shutdown` request; see
//! `docs/serving.md` for the protocol.

use std::io::BufReader;
use std::process::exit;

use fume::core::{drop_unpriv_unfavor, find_slices, ExplainRequest, Fume, FumeConfig};
use fume::fairness::FairnessMetric;
use fume::forest::{DareConfig, DareForest};
use fume::lattice::{LiteralGen, SupportRange};
use fume::serve::transport::unix::serve_unix;
use fume::serve::{serve_lines, Engine, EngineHandle, EngineOptions};
use fume::tabular::csv::{read_csv, CsvOptions};
use fume::tabular::discretize::{discretize, Discretizer};
use fume::tabular::split::train_test_split;
use fume::tabular::{workers, Classifier, Dataset, GroupSpec};

struct Args {
    command: String,
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
    progress: bool,
    checkpoint_dir: Option<String>,
    resume: bool,
    json: bool,
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
        "usage: fume-cli <explain|slices|baseline|serve> --data FILE.csv --label COL \
         --positive VALUE --sensitive COL --privileged VALUE\n\
         options: --metric M            fairness metric (default sp): sp|eo|pp or a report tag,\n\
                                        statistical_parity|equalized_odds|predictive_parity|\n\
                                        equal_opportunity\n\
                  --support MIN:MAX     support range (default 0.05:0.15)\n\
                  --max-literals N      interpretability cap (default 2)\n\
                  --top-k K             subsets to report (default 5)\n\
                  --trees N             forest size (default 50)\n\
                  --depth D             max tree depth (default 10)\n\
                  --seed S              RNG seed (default 0)\n\
                  --test-fraction F     held-out fraction (default 0.3)\n\
                  --bins B              numeric discretization bins (default 5)\n\
                  --ranges              generate <=/>= literals on binned columns\n\
                  --trace FILE          write a JSONL span/counter trace (or set FUME_TRACE)\n\
         not with serve:\n\
                  --progress            live search status line on stderr (level, evals/s, ETA)\n\
                  --checkpoint-dir DIR  checkpoint the explain run (forest + search state)\n\
                  --resume              continue a crashed run from --checkpoint-dir\n\
                  --json                print the explain report as canonical JSON (schema 1)\n\
         serve only (metric/support/max-literals/top-k are request defaults):\n\
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
    eprintln!("fume-cli: {msg}");
    exit(1)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().cloned() else { usage() };
    if !matches!(command.as_str(), "explain" | "slices" | "baseline" | "serve") {
        usage();
    }
    let serve = command == "serve";
    let mut args = Args {
        command,
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
        progress: false,
        checkpoint_dir: None,
        resume: false,
        json: false,
        workers: 2,
        queue_depth: 16,
        jobs_within: 1,
        cache_capacity: 4096,
        socket: None,
        acceptors: 2,
        checkpoint_root: None,
    };
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--data" => args.data = value(),
            "--label" => args.label = value(),
            "--positive" => args.positive = value(),
            "--sensitive" => args.sensitive = value(),
            "--privileged" => args.privileged = value(),
            "--workers" | "--queue-depth" | "--jobs-within" | "--cache-capacity" | "--socket"
            | "--acceptors" | "--checkpoint-root"
                if !serve =>
            {
                fail(format!("{flag} only applies to the serve command"))
            }
            "--metric" => {
                let v = value();
                args.metric = FairnessMetric::from_tag(&v).unwrap_or_else(|| {
                    fail(format!(
                        "unknown metric `{v}` (sp|eo|pp, statistical_parity, equalized_odds, \
                         predictive_parity or equal_opportunity)"
                    ))
                });
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
                args.support =
                    SupportRange::new(lo, hi).unwrap_or_else(|e| fail(e));
            }
            "--max-literals" => {
                args.max_literals = value().parse().unwrap_or_else(|_| usage())
            }
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
            "--progress" => args.progress = true,
            "--checkpoint-dir" => args.checkpoint_dir = Some(value()),
            "--resume" => args.resume = true,
            "--json" => args.json = true,
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
    if args.resume && args.checkpoint_dir.is_none() {
        fail("--resume requires --checkpoint-dir");
    }
    if args.json && args.command != "explain" {
        fail("--json only applies to the explain command");
    }
    if args.checkpoint_dir.is_some() && args.command != "explain" {
        fail("--checkpoint-dir only applies to the explain command");
    }
    if args.progress && args.command == "serve" {
        fail("--progress does not apply to the serve command");
    }
    args
}

fn load(args: &Args) -> (Dataset, Dataset, GroupSpec) {
    let opts = CsvOptions {
        label_column: args.label.clone(),
        positive_label: args.positive.clone(),
        ..CsvOptions::default()
    };
    let raw = read_csv(&args.data, &opts).unwrap_or_else(|e| fail(e));
    let data = discretize(&raw, Discretizer::Quantile(args.bins))
        .unwrap_or_else(|e| fail(e));
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
    let mut builder = Fume::builder()
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
        );
    if let Some(dir) = &args.checkpoint_dir {
        builder = builder.checkpoint_dir(dir);
    }
    builder.into_config()
}

/// FNV-1a over a canonical rendering of the run-defining flags — the
/// `config_hash` stamped into the trace header so `fume-trace diff`
/// users can tell config drift from perf drift. The canonical string
/// starts with the command, so `serve` hashes as `serve|…`.
fn config_hash(args: &Args) -> u64 {
    let canonical = format!(
        "{}|{:?}|{}:{}|{}|{}|{}|{}|{}|{}|{}",
        args.command,
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
    fume::obs::fnv1a(fume::obs::FNV1A_OFFSET, canonical.as_bytes())
}

/// Serves stdin/stdout until EOF or a `shutdown` request, then starts
/// the engine drain (which also stops any socket acceptors).
fn stdio_loop(handle: EngineHandle<'_, '_>) {
    serve_lines(handle, BufReader::new(std::io::stdin()), std::io::stdout());
    handle.shutdown();
}

/// Runs the persistent engine until drained; exits nonzero if the
/// session recorded a lock-order cycle.
fn serve(args: &Args, cfg: FumeConfig, train: Dataset, test: Dataset, group: GroupSpec) {
    let opts = EngineOptions {
        workers: args.workers.max(1),
        queue_depth: args.queue_depth.max(1),
        job_jobs: args.jobs_within.max(1),
        cache_capacity: args.cache_capacity,
        checkpoint_root: args.checkpoint_root.as_ref().map(Into::into),
    };
    let engine = Engine::new(cfg, train, test, group, opts).unwrap_or_else(|e| fail(e));
    eprintln!(
        "fume-cli: engine ready ({} workers, queue depth {}, cache capacity {}); \
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
                        eprintln!("fume-cli: socket error: {e}");
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
    let cycles = fume::obs::sync::cycle_reports();
    if !cycles.is_empty() {
        for cycle in &cycles {
            eprintln!("fume-cli: {cycle}");
        }
        fail(format!("{} lock-order cycle(s) detected during the session", cycles.len()));
    }
    let stats = engine.stats();
    eprintln!(
        "fume-cli: drained; {} jobs ({} failed, {} busy rejections), cache {} hits / {} misses / {} evictions",
        stats.jobs,
        stats.jobs_failed,
        stats.busy_rejections,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions
    );
}

fn main() {
    let args = parse_args();
    if args.trace.is_some() {
        fume::obs::install();
    }
    if args.progress {
        fume::obs::progress::set_observer(|snap| {
            // Rewrite one stderr status line in place.
            eprint!("\r\x1b[K{}", fume::obs::progress::status_line(snap));
        });
    }
    let (train, test, group) = load(&args);
    let banner = format!(
        "loaded {} train / {} test rows, {} attributes; sensitive `{}` (privileged `{}`)",
        train.num_rows(),
        test.num_rows(),
        train.num_attributes(),
        args.sensitive,
        args.privileged
    );
    if args.json || args.command == "serve" {
        // Keep stdout pure JSON (or NDJSON replies) for scripting.
        eprintln!("{banner}");
    } else {
        println!("{banner}");
    }
    let cfg = config(&args);
    if args.trace.is_some() {
        let rec = fume::obs::global().expect("recorder installed when tracing");
        rec.set_meta("seed", args.seed.to_string());
        rec.set_meta("config_hash", format!("{:016x}", config_hash(&args)));
        rec.set_meta(
            "dataset_fingerprint",
            format!("{:016x}", fume::core::checkpoint::fingerprint(&train, &test, group)),
        );
        rec.set_meta("dataset", args.data.clone());
    }

    match args.command.as_str() {
        "explain" => {
            let fume = if args.resume {
                // fail() exits; the unwrap_or_else is the CLI's error style
                let dir = args.checkpoint_dir.as_deref().unwrap_or_else(|| usage());
                Fume::resume(dir).unwrap_or_else(|e| fail(e))
            } else {
                Fume::new(cfg)
            };
            match fume.run(&ExplainRequest::new(&train, &test, group)) {
                Ok(report) if args.json => println!("{}", report.to_json()),
                Ok(report) => {
                    println!(
                        "\nmodel accuracy {:.1}% · {} violation |F| = {:.4} · \
                         {} unlearning ops in {:.2}s\n",
                        report.original_accuracy * 100.0,
                        report.metric.name(),
                        report.original_bias,
                        report.unlearning_operations,
                        report.search_time.as_secs_f64()
                    );
                    print!("{}", report.to_markdown());
                    eprint!("\n{}", report.timing_table());
                }
                Err(e) => fail(e),
            }
        }
        "slices" => {
            let forest = DareForest::fit(&train, cfg.forest.clone());
            println!("\nmodel accuracy {:.1}%\n", forest.accuracy(&test) * 100.0);
            let params = cfg.search_params().unwrap_or_else(|e| fail(e));
            let slices = find_slices(&forest, &test, &params, args.top_k);
            println!("| # | Slice | Support | Slice error | Rest error |");
            println!("|---|---|---|---|---|");
            for (i, s) in slices.iter().enumerate() {
                println!(
                    "| {} | {} | {:.2}% | {:.2}% | {:.2}% |",
                    i + 1,
                    s.pattern,
                    s.support * 100.0,
                    s.slice_error * 100.0,
                    s.rest_error * 100.0
                );
            }
        }
        "serve" => serve(&args, cfg, train, test, group),
        "baseline" => {
            let b = drop_unpriv_unfavor(&train, &test, group, args.metric, &cfg.forest);
            println!(
                "\nDropUnprivUnfavor: removes {:.2}% of training data\n\
                 bias {:.4} -> {:.4} (parity reduction {:.2}%)\n\
                 accuracy {:.2}% -> {:.2}%",
                b.removed_fraction * 100.0,
                b.bias_before,
                b.bias_after,
                b.parity_reduction * 100.0,
                b.accuracy_before * 100.0,
                b.accuracy_after * 100.0
            );
        }
        _ => usage(),
    }

    if args.progress {
        // Terminate the rewriting status line.
        eprintln!();
    }
    if let Some(path) = &args.trace {
        let rec = fume::obs::global().expect("recorder installed when tracing");
        match std::fs::write(path, rec.events_to_jsonl()) {
            Ok(()) => eprintln!("fume-cli: wrote {} trace events to {path}", rec.event_count()),
            Err(e) => fail(format!("cannot write trace `{path}`: {e}")),
        }
        eprint!("\n{}", rec.profile_table());
    }
}
