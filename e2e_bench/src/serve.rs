//! The serve phase: closed-loop clients against one `fume_serve::Engine`.
//!
//! Each shape's first request is sent by the client that owns the shape
//! (shapes are dealt round-robin), and a repeat is sent only after that
//! first reply has completed. Repeats therefore never race the cold
//! request that fills the cache, so the engine's hit and miss counts
//! are fixed by the request mix alone.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use fume_core::FumeReport;
use fume_serve::{EngineStats, JobReply};
use fume_tabular::rng::{SeedableRng, SliceRandom, StdRng};

use crate::workload::{Env, Workload};

pub struct Served {
    pub shape: usize,
    pub cold: bool,
    /// Submit → reply.
    pub latency: Duration,
    /// Whether the reply's canonical report JSON equals the shape's
    /// reference, with the reply's search and unlearn times; or why the
    /// request failed.
    pub outcome: Result<(bool, Duration, Duration), String>,
}

pub struct ServeRun {
    pub requests: Vec<Served>,
    /// First submit → last reply.
    pub window: Duration,
    pub stats: EngineStats,
}

/// Each client's request list: its own shapes' first requests, then its
/// share of a seeded shuffle of all repeats, as `(shape, cold)`.
fn schedules(w: &Workload, seed: u64) -> Vec<Vec<(usize, bool)>> {
    let n = w.shapes.len();
    let mut repeats: Vec<usize> = (0..n).flat_map(|s| vec![s; w.warm_per_shape]).collect();
    repeats.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5e7e_a0d1));
    (0..w.clients)
        .map(|c| {
            let cold = (c..n).step_by(w.clients).map(|s| (s, true));
            let warm = repeats
                .iter()
                .skip(c)
                .step_by(w.clients)
                .map(|&s| (s, false));
            cold.chain(warm).collect()
        })
        .collect()
}

/// Serves the workload's request mix on the replica's engine; every
/// reply is compared with `refs`, each shape's `Fume::run` report and
/// its canonical JSON.
pub fn serve(env: &Env, w: &Workload, seed: u64, refs: &[(FumeReport, String)]) -> ServeRun {
    let plans = schedules(w, seed);
    let completed = Mutex::new(vec![false; w.shapes.len()]);
    let wake = Condvar::new();
    let (requests, window) = env.engine.serve(|handle| {
        let t0 = Instant::now();
        let per_client: Vec<Vec<Served>> = std::thread::scope(|scope| {
            let clients: Vec<_> = plans
                .iter()
                .map(|plan| {
                    let (completed, wake) = (&completed, &wake);
                    scope.spawn(move || {
                        let mut out = Vec::with_capacity(plan.len());
                        for &(shape, cold) in plan {
                            if !cold {
                                let mut done = completed.lock().expect("client panicked");
                                while !done[shape] {
                                    done = wake.wait(done).expect("client panicked");
                                }
                            }
                            let sent = Instant::now();
                            let reply = handle
                                .explain(w.shapes[shape].overrides())
                                .map_err(|e| e.kind().to_string())
                                .and_then(|ticket| ticket.wait().map_err(|e| e.to_string()));
                            let latency = sent.elapsed();
                            let outcome = match reply {
                                Ok(JobReply::Report(r)) => Ok((
                                    r.to_json() == refs[shape].1,
                                    r.search_time,
                                    r.unlearn_time,
                                )),
                                Ok(JobReply::Stats(_)) => Err("stats reply".to_string()),
                                Err(e) => Err(e),
                            };
                            if cold {
                                // A failed first request still releases the
                                // repeats; they are checked (and fail) alike.
                                completed.lock().expect("client panicked")[shape] = true;
                                wake.notify_all();
                            }
                            out.push(Served {
                                shape,
                                cold,
                                latency,
                                outcome,
                            });
                        }
                        out
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        (
            per_client.into_iter().flatten().collect::<Vec<_>>(),
            t0.elapsed(),
        )
    });
    ServeRun {
        requests,
        window,
        stats: env.engine.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::workload;

    #[test]
    fn every_shape_is_sent_cold_once_and_repeated_as_configured() {
        let w = workload("serve-audit").expect("known workload");
        let plans = schedules(&w, 7);
        let all: Vec<(usize, bool)> = plans.iter().flatten().copied().collect();
        for s in 0..w.shapes.len() {
            assert_eq!(all.iter().filter(|&&r| r == (s, true)).count(), 1);
            assert_eq!(
                all.iter().filter(|&&r| r == (s, false)).count(),
                w.warm_per_shape
            );
        }
        assert_eq!(plans, schedules(&w, 7), "the seed fixes the request order");
        assert_ne!(plans, schedules(&w, 8));
    }
}
