//! End-to-end explain benchmark of FUME with a per-layer ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload german-t3 --seed 1 --seconds 60 --trace 0
//! ```
//!
//! Workloads (`BENCHMARK.json` records why each was chosen):
//! * `german-t3` — paper Table 3: many cheap unlearn-evals on a small
//!   forest, where per-eval fixed costs weigh most;
//! * `serve-audit` — one `fume_serve::Engine` on Adult answering a mix of
//!   metrics × support ranges for two closed-loop clients, where repeats
//!   are served from the cross-request cache.
//!
//! A run measures independent replicas of its workload, as many as fit in
//! `--seconds`, each built from a seed derived from `--seed` (data,
//! split, forest): every replica is set up, explained through `Fume::run`
//! on the pre-trained forest, and served through the engine. Samples are
//! pooled over replicas, because one seed's lattice can be a fifth larger
//! or smaller than another's, and bounding the run by time rather than by
//! replica count keeps it within `--seconds` on a busy host.
//! Every answer is checked: every reply of a shape, cold or warm, must
//! serialize byte-identically to the `Fume::run` report of that shape, and
//! every top-k ρ must equal, bitwise, a recompute by clone → `delete` →
//! `FairnessMetric::bias`. With `--trace 0` no recorder is installed and
//! the end-to-end metrics are printed; with `--trace 1` one replica is
//! measured by timing each layer's public calls from outside (see
//! `traced`) and the per-layer metrics are printed. The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`. A
//! failed check exits with status 1. `notes.json` maps each per-layer
//! metric to the end-to-end metric it should move.

mod measure;
mod serve;
mod traced;
mod workload;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fume_core::{parity_reduction, ExplainRequest, FumeReport, RemovalSpec};
use fume_tabular::float;

use measure::{mean, median, ms, peak_rss_mb, percentile, process_cpu_s, Ledger, Metrics};
use traced::{distinct_evaluated, replay, Replay, TimedRemoval};
use workload::{replica_seed, setup, workload, Env, SetupTimes, Shape, Workload, N_JOBS};

/// Set-ups of a run's first replica; `setup_s` is the median of these
/// and of one set-up per further replica.
const SETUP_REPS: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad(&"expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One `Fume::run` of a shape on the pre-trained forest.
struct Explained {
    report: Result<FumeReport, String>,
    wall: Duration,
    cpu_s: f64,
}

fn explain(env: &Env, shape: &Shape, removal: RemovalSpec<'_>) -> Explained {
    let fume = shape.fume(&env.base);
    let request = ExplainRequest::new(&env.train, &env.test, env.group)
        .with_model(env.forest())
        .with_removal(removal);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let report = fume.run(&request).map_err(|e| e.to_string());
    let wall = t0.elapsed();
    Explained {
        report,
        wall,
        cpu_s: process_cpu_s() - cpu0,
    }
}

/// Explains every shape of one replica through `Fume::run` with
/// production removal. Returns each shape's report (when it ran), the
/// reference every later answer for that input must equal.
fn explain_replica(
    env: &Env,
    w: &Workload,
    acc: &mut Accum,
    ledger: &mut Ledger,
) -> Vec<Option<(FumeReport, String)>> {
    w.shapes
        .iter()
        .map(|shape| {
            let e = explain(env, shape, RemovalSpec::Dare);
            acc.walls.push(e.wall.as_secs_f64());
            acc.cpus.push(e.cpu_s);
            match e.report {
                Ok(report) => {
                    ledger.record(true, String::new);
                    check_top_k(env, shape, &report, ledger);
                    let json = report.to_json();
                    Some((report, json))
                }
                Err(e) => {
                    ledger.record(false, || format!("explain {}: {e}", shape.label()));
                    None
                }
            }
        })
        .collect()
}

/// Every top-k ρ against an independent clone → delete → bias recompute.
fn check_top_k(env: &Env, shape: &Shape, report: &FumeReport, ledger: &mut Ledger) {
    for s in &report.top_k {
        let r = replay(
            env.forest(),
            &env.train,
            &env.test,
            env.group,
            shape.metric,
            &s.rows,
        );
        let rho = parity_reduction(report.original_bias, r.bias_value);
        ledger.record(float::bit_eq(rho, s.parity_reduction), || {
            format!(
                "{}: top-k `{}` reports rho {:.17}, recompute gives {rho:.17}",
                shape.label(),
                s.pattern,
                s.parity_reduction
            )
        });
    }
}

/// The traced explains: one `Fume::run` per shape through
/// [`TimedRemoval`], then a layer-by-layer replay of every distinct
/// subset it evaluated.
struct TracedPhase {
    walls: Vec<f64>,
    /// Lattice nodes generated, explored and pruned, summed over shapes.
    lattice: (f64, f64, f64),
    /// `search_time - unlearn_time` of each untraced report.
    bookkeeping_ms: Vec<f64>,
    evals: Vec<Duration>,
    /// Eval time minus the replayed delete and bias times, per eval.
    overheads: Vec<f64>,
    warm: Duration,
    unlearn_job_time: Duration,
    replays: Vec<Replay>,
}

fn traced_phase(
    env: &Env,
    w: &Workload,
    refs: &[(FumeReport, String)],
    ledger: &mut Ledger,
) -> TracedPhase {
    let reports: Vec<&FumeReport> = refs.iter().map(|(r, _)| r).collect();
    let mut phase = TracedPhase {
        walls: Vec::new(),
        lattice: lattice_counts(&reports),
        bookkeeping_ms: reports
            .iter()
            .map(|r| ms(r.search_time.saturating_sub(r.unlearn_time)))
            .collect(),
        evals: Vec::new(),
        overheads: Vec::new(),
        warm: Duration::ZERO,
        unlearn_job_time: Duration::ZERO,
        replays: Vec::new(),
    };
    for (shape, (_, reference)) in w.shapes.iter().zip(refs) {
        let timed = TimedRemoval::new(env.forest(), &env.train);
        let e = explain(env, shape, RemovalSpec::Shared(&timed));
        phase.walls.push(e.wall.as_secs_f64());
        let report = match e.report {
            Ok(report) => report,
            Err(err) => {
                ledger.record(false, || format!("traced explain {}: {err}", shape.label()));
                continue;
            }
        };
        ledger.record(report.to_json() == *reference, || {
            format!(
                "traced explain {}: the timing wrapper changed the report",
                shape.label()
            )
        });
        phase.unlearn_job_time += report.unlearn_time * N_JOBS as u32;
        let replays: HashMap<&[u32], Replay> = distinct_evaluated(&report)
            .into_iter()
            .map(|rows| {
                let r = replay(
                    env.forest(),
                    &env.train,
                    &env.test,
                    env.group,
                    shape.metric,
                    rows,
                );
                (rows, r)
            })
            .collect();
        let mismatched = report
            .evaluated
            .iter()
            .filter(|s| {
                let rho =
                    parity_reduction(report.original_bias, replays[s.rows.as_slice()].bias_value);
                !float::bit_eq(rho, s.rho)
            })
            .count();
        ledger.record(mismatched == 0, || {
            format!(
                "{}: {mismatched} evaluated rho differ from their replay",
                shape.label()
            )
        });
        let (evals, warm) = timed.into_parts();
        phase.warm += warm;
        for (rows, took) in evals {
            phase.evals.push(took);
            match replays.get(rows.as_slice()) {
                Some(r) => phase.overheads.push(ms(took) - ms(r.delete) - ms(r.bias)),
                None => {
                    ledger.record(false, || {
                        format!(
                            "{}: an evaluated subset is missing from the report",
                            shape.label()
                        )
                    });
                }
            }
        }
        phase.replays.extend(replays.into_values());
    }
    phase
}

fn lattice_counts(reports: &[&FumeReport]) -> (f64, f64, f64) {
    let (mut generated, mut explored, mut pruned) = (0, 0, 0);
    for l in reports.iter().flat_map(|r| &r.levels) {
        generated += l.generated;
        explored += l.explored;
        pruned += l.pruned_rule1
            + l.pruned_redundant
            + l.pruned_support_low
            + l.pruned_rule3
            + l.pruned_rule4
            + l.pruned_rule5;
    }
    (generated as f64, explored as f64, pruned as f64)
}

/// Samples pooled over a run's replicas.
#[derive(Default)]
struct Accum {
    setups: Vec<SetupTimes>,
    walls: Vec<f64>,
    cpus: Vec<f64>,
    cold_s: Vec<f64>,
    warm_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    warm_bookkeeping_ms: Vec<f64>,
    requests: usize,
    window: Duration,
    hits: u64,
    misses: u64,
    busy: u64,
    /// `VmHWM` once replica 0 is done: the same work in every run,
    /// however many replicas follow.
    peak_rss_mb: f64,
}

/// Serves the replica's shapes and checks every reply against its
/// `Fume::run` reference, then the engine's cache accounting.
fn serve_replica(
    env: &Env,
    w: &Workload,
    seed: u64,
    refs: &[(FumeReport, String)],
    acc: &mut Accum,
    ledger: &mut Ledger,
) {
    let served = serve::serve(env, w, seed, refs);
    for r in &served.requests {
        let label = w.shapes[r.shape].label();
        let ok = match &r.outcome {
            Ok((same, search, unlearn)) => {
                acc.queue_ms.push(ms(r.latency.saturating_sub(*search)));
                if !r.cold {
                    acc.warm_bookkeeping_ms
                        .push(ms(search.saturating_sub(*unlearn)));
                }
                ledger.record(*same, || {
                    format!(
                        "serve {label} (cold: {}): reply differs from Fume::run",
                        r.cold
                    )
                })
            }
            Err(e) => ledger.record(false, || format!("serve {label}: {e}")),
        };
        if ok && r.cold {
            acc.cold_s.push(r.latency.as_secs_f64());
        } else if ok {
            acc.warm_ms.push(ms(r.latency));
        }
    }
    // With disjoint shapes and repeats sent only after their cold reply,
    // the engine must unlearn each distinct row set of a metric exactly
    // once and evict nothing.
    let mut distinct: Vec<(u8, &[u32])> = Vec::new();
    for (shape, (report, _)) in w.shapes.iter().zip(refs) {
        let tag = shape.metric as u8;
        distinct.extend(
            distinct_evaluated(report)
                .into_iter()
                .map(|rows| (tag, rows)),
        );
    }
    distinct.sort_unstable();
    distinct.dedup();
    let cache = served.stats.cache;
    ledger.record(
        cache.misses == distinct.len() as u64 && cache.evictions == 0,
        || {
            format!(
                "engine cache: {} misses and {} evictions, expected {} misses and none",
                cache.misses,
                cache.evictions,
                distinct.len()
            )
        },
    );
    acc.requests += served.requests.len();
    acc.window += served.window;
    acc.hits += cache.hits;
    acc.misses += cache.misses;
    acc.busy += served.stats.busy_rejections;
}

/// Whether replica `j` still fits the run: an untraced run measures
/// replicas while the slowest one so far would still end within
/// `--seconds`, so a run lasts about `--seconds` however busy the host
/// is; a traced run measures replica 0 only.
fn next_replica_fits(args: &Args, j: usize, elapsed: Duration, slowest: Duration) -> bool {
    if j == 0 {
        return true;
    }
    !args.trace && elapsed + slowest <= Duration::from_secs_f64(args.seconds)
}

fn run(args: &Args, w: &Workload, ledger: &mut Ledger) -> Metrics {
    let mut acc = Accum::default();
    let mut traced: Option<TracedPhase> = None;
    let started = Instant::now();
    let mut slowest = Duration::ZERO;
    let mut n_replicas = 0;
    while next_replica_fits(args, n_replicas, started.elapsed(), slowest) {
        let replica_started = Instant::now();
        let j = n_replicas;
        n_replicas += 1;
        let seed = replica_seed(args.seed, j);
        // The first replica is set up several times: the same seed must
        // fit the same forest, and `setup_s` gets more samples.
        let reps = if j == 0 { SETUP_REPS } else { 1 };
        let mut env: Option<Env> = None;
        // Set-ups past the first are not part of a replica's cost.
        let mut repeated_setups = Duration::ZERO;
        for rep in 0..reps {
            let (next, times) = setup(w, seed);
            if rep > 0 {
                repeated_setups += times.total;
            }
            if let Some(prev) = &env {
                ledger.record(prev.forest() == next.forest(), || {
                    "the same seed fitted a different forest".to_string()
                });
            }
            env = Some(next);
            acc.setups.push(times);
        }
        let env = env.expect("at least one set-up");
        let Some(refs) = explain_replica(&env, w, &mut acc, ledger)
            .into_iter()
            .collect::<Option<Vec<_>>>()
        else {
            continue; // a failed explain leaves nothing to check the rest against
        };
        if j == 0 {
            // Lets a reader confirm that another seed explains other data.
            let digest = refs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, (_, json)| {
                json.bytes().fold(h, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                })
            });
            eprintln!(
                "seed {seed}: {} train / {} test rows, report digest {digest:016x}",
                env.train.num_rows(),
                env.test.num_rows()
            );
        }
        if args.trace {
            traced = Some(traced_phase(&env, w, &refs, ledger));
        }
        serve_replica(&env, w, seed, &refs, &mut acc, ledger);
        if j == 0 {
            acc.peak_rss_mb = peak_rss_mb();
        }
        let took = replica_started.elapsed().saturating_sub(repeated_setups);
        slowest = slowest.max(took);
        let explained: f64 = acc.walls[acc.walls.len() - w.shapes.len()..].iter().sum();
        eprintln!(
            "replica {j}: explains {explained:.3} s, replica {:.3} s",
            took.as_secs_f64()
        );
    }
    if acc.cold_s.is_empty() || acc.warm_ms.is_empty() {
        return Metrics::default();
    }
    eprintln!(
        "samples: {} explains over {n_replicas} replicas, {} set-ups, {} cold and {} warm requests",
        acc.walls.len(),
        acc.setups.len(),
        acc.cold_s.len(),
        acc.warm_ms.len()
    );
    let mut m = Metrics::default();
    match traced {
        None => {
            m.put("explain_s", mean(&acc.walls), "s");
            m.put("explain_cpu_s", mean(&acc.cpus), "s");
            m.put("serve_cold_mean_s", mean(&acc.cold_s), "s");
            let setup_s: Vec<f64> = acc.setups.iter().map(|t| t.total.as_secs_f64()).collect();
            m.put("setup_s", median(&setup_s), "s");
            m.put("peak_rss_mb", acc.peak_rss_mb, "MiB");
            m.put(
                "serve_rps",
                acc.requests as f64 / acc.window.as_secs_f64(),
                "1/s",
            );
            m.put("serve_warm_p50_ms", percentile(&acc.warm_ms, 0.5), "ms");
        }
        Some(t) => {
            let (generated, explored, pruned) = t.lattice;
            let of = |f: &dyn Fn(&Replay) -> Duration| -> Vec<f64> {
                t.replays.iter().map(|r| ms(f(r))).collect()
            };
            let (clone, delete, bias) = (of(&|r| r.clone), of(&|r| r.delete), of(&|r| r.bias));
            let evals: Vec<f64> = t.evals.iter().map(|d| ms(*d)).collect();
            let eval_sum: Duration = t.evals.iter().sum();
            let gen_ms: Vec<f64> = acc.setups.iter().map(|s| ms(s.generate)).collect();
            let fit_ms: Vec<f64> = acc.setups.iter().map(|s| ms(s.fit)).collect();
            let sum = |f: &dyn Fn(&Replay) -> usize| t.replays.iter().map(f).sum::<usize>() as f64;
            let lookups = (acc.hits + acc.misses).max(1);
            m.put("tabular.generate_ms", median(&gen_ms), "ms");
            m.put("forest.fit_ms", median(&fit_ms), "ms");
            m.put("forest.clone_ms_p50", percentile(&clone, 0.5), "ms");
            m.put("forest.delete_ms_p50", percentile(&delete, 0.5), "ms");
            m.put("forest.delete_ms_p90", percentile(&delete, 0.9), "ms");
            m.put(
                "forest.subtrees_retrained",
                sum(&|r| r.report.subtrees_retrained),
                "count",
            );
            m.put(
                "forest.nodes_updated",
                sum(&|r| r.report.nodes_updated),
                "count",
            );
            m.put("fairness.bias_ms_p50", percentile(&bias, 0.5), "ms");
            m.put("core.evals", evals.len() as f64, "count");
            m.put("core.eval_ms_p50", percentile(&evals, 0.5), "ms");
            m.put("core.eval_ms_p90", percentile(&evals, 0.9), "ms");
            m.put(
                "core.eval_overhead_ms_p50",
                percentile(&t.overheads, 0.5),
                "ms",
            );
            m.put("core.warm_ms", ms(t.warm) / w.shapes.len() as f64, "ms");
            m.put(
                "core.worker_busy_pct",
                100.0 * eval_sum.as_secs_f64() / t.unlearn_job_time.as_secs_f64(),
                "%",
            );
            m.put("lattice.bookkeeping_ms", median(&t.bookkeeping_ms), "ms");
            m.put("lattice.generated", generated, "count");
            m.put("lattice.explored", explored, "count");
            m.put("lattice.pruned", pruned, "count");
            m.put(
                "serve.queue_wait_ms_p50",
                percentile(&acc.queue_ms, 0.5),
                "ms",
            );
            m.put("serve.warm_ms_p90", percentile(&acc.warm_ms, 0.9), "ms");
            m.put(
                "serve.warm_bookkeeping_ms_p50",
                percentile(&acc.warm_bookkeeping_ms, 0.5),
                "ms",
            );
            m.put(
                "serve.cache_hit_pct",
                100.0 * acc.hits as f64 / lookups as f64,
                "%",
            );
            m.put("serve.unlearn_evals", acc.misses as f64, "count");
            m.put("serve.busy_rejections", acc.busy as f64, "count");
            m.put(
                "trace.overhead_ms",
                1e3 * (mean(&t.walls) - mean(&acc.walls)),
                "ms",
            );
        }
    }
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nusage: --workload <german-t3|serve-audit> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let mut ledger = Ledger::default();
    let metrics = run(&args, &w, &mut ledger);
    eprintln!(
        "{} seed {} ({}): {} of {} operations failed",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        ledger.failed,
        ledger.attempted
    );
    eprint!("{}", metrics.table());
    println!("{}", metrics.result_line(&ledger));
    if ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
