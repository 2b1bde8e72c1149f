//! What every workload shares: the run context, the query set, and the
//! timed rounds over a [`ReadView`] whose first round is also the
//! correctness gate against the oracle.

use crate::harness::{BestOf, Calibration, Metrics, Tracer};
use crate::oracle::{mliq_ok, tiq_ok, Expected};
use gauss_storage::{AccessStats, PageStore, StatsSnapshot};
use gauss_tree::{MliqResult, ReadView};
use pfv::Pfv;
use std::cell::Cell;
use std::path::PathBuf;
use std::time::Instant;

/// TIQ threshold and accuracy of every workload (`tiq(q, 0.2, 0.01)`).
pub const THETA: f64 = 0.2;
pub const ACCURACY: f64 = 0.01;

/// Timed rounds a run needs before its minima are trusted.
pub const MIN_ROUNDS: usize = 5;

/// The batch queries are run in this many chunks, one `batch` call each, so
/// that a chunk, like a query, keeps the minimum of its repetitions.
pub const BATCH_CHUNKS: usize = 4;

/// A traced run asks a quarter of the queries: its time goes to the probes.
pub const TRACED_QUERY_SHARE: usize = 4;

/// State of one benchmark run.
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed-rounds window, in seconds.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Scratch directory for file-backed stores and the span file.
    pub out_dir: PathBuf,
    /// Load-generator threads: `min(2, nproc)`.
    pub threads: usize,
    pub tracer: Tracer,
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub calib: Calibration,
}

impl Ctx {
    /// Counts one checked operation; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Unwraps a library result inside a checked operation.
    pub fn checked<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn min_rounds(&self) -> usize {
        if self.quick {
            1
        } else {
            MIN_ROUNDS
        }
    }

    /// The 1-MLIQ or TIQ count of this run for a workload that asks `full`
    /// queries untraced. The batch queries are never cut: a `batch` call over
    /// a handful of queries ends before the second thread has done any work.
    pub fn query_count(&self, full: usize) -> usize {
        if self.trace {
            full.div_ceil(TRACED_QUERY_SHARE)
        } else {
            full
        }
    }
}

/// `count` indices evenly strided over `0..n` (all of them when
/// `count >= n`).
pub fn strided(n: usize, count: usize) -> Vec<usize> {
    let count = count.min(n);
    (0..count).map(|k| k * n / count).collect()
}

/// The queries of a workload: one pool, of which 1-MLIQ, TIQ and the batch
/// phase each ask an evenly strided subset, so a pool that is ordered by
/// stratum (see `tree_workload::stratified_queries`) gives all three the same
/// mix. The largest of the three asks the whole pool.
pub struct QuerySet {
    pub queries: Vec<Pfv>,
    /// Indices into `queries` of the 1-MLIQ queries.
    pub mliq: Vec<usize>,
    /// Indices into `queries` of the TIQ queries.
    pub tiq: Vec<usize>,
    /// Indices into `queries` of the batch queries, a subset of `mliq`.
    pub batch_idx: Vec<usize>,
    /// The batch queries themselves, contiguous for the executor.
    pub batch: Vec<Pfv>,
}

impl QuerySet {
    pub fn new(queries: Vec<Pfv>, mliq: usize, tiq: usize, batch: usize) -> Self {
        let mliq = strided(queries.len(), mliq);
        let tiq = strided(queries.len(), tiq);
        let batch_idx: Vec<usize> = strided(mliq.len(), batch)
            .into_iter()
            .map(|k| mliq[k])
            .collect();
        let batch = batch_idx.iter().map(|&i| queries[i].clone()).collect();
        Self {
            queries,
            mliq,
            tiq,
            batch_idx,
            batch,
        }
    }

    /// Up to `count` of the 1-MLIQ queries, evenly strided: a small sample
    /// with the mix of the whole.
    pub fn sample(&self, count: usize) -> Vec<Pfv> {
        let picks = strided(self.mliq.len(), count);
        picks
            .into_iter()
            .map(|k| self.queries[self.mliq[k]].clone())
            .collect()
    }

    /// One flag per query of the pool: is it a TIQ query?
    pub fn tiq_flags(&self) -> Vec<bool> {
        let mut flags = vec![false; self.queries.len()];
        for &i in &self.tiq {
            flags[i] = true;
        }
        flags
    }
}

/// Page-access counts of one serial pass over the queries. Logical reads do
/// not depend on cache state, so they repeat exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassCounts {
    pub mliq: StatsSnapshot,
    pub tiq: StatsSnapshot,
}

/// What the timed rounds collected.
pub struct Rounds {
    /// Per-query best 1-MLIQ wall time, in µs (untraced rounds).
    pub mliq_us: BestOf,
    /// Per-query best TIQ wall time, in µs (untraced rounds).
    pub tiq_us: BestOf,
    /// The 1-MLIQ queries at `traced_pos` in traced rounds (`--trace 1`).
    pub mliq_traced_us: BestOf,
    /// Positions in the 1-MLIQ list of the queries a traced round asks.
    pub traced_pos: Vec<usize>,
    /// Pool counters of round 0's serial passes.
    pub counts: PassCounts,
}

/// Queries a traced round runs: enough to compare with the same queries'
/// untraced minima, few enough to leave the traced run's time to the probes.
pub const TRACED_QUERIES: usize = 200;

/// The chunks of the batch queries.
pub fn batch_chunks(qs: &QuerySet) -> std::slice::Chunks<'_, Pfv> {
    qs.batch
        .chunks(qs.batch.len().div_ceil(BATCH_CHUNKS).max(1))
}

/// Queries per second over the per-chunk minima.
pub fn batch_qps(qs: &QuerySet, us: &BestOf) -> f64 {
    qs.batch.len() as f64 * 1e6 / us.best().iter().sum::<f64>()
}

/// One `batch(threads).k_mliq` call per chunk of the batch queries, back to
/// back; each call's wall time goes into `us`. `before` runs ahead of every
/// call, outside the timer: a cold workload empties its caches there, so a
/// chunk starts from the same state each time and its minimum means something.
/// Returns the answers in batch order, unless a call failed.
pub fn batch_pass<S: PageStore + Send, V: ReadView<S> + Sync>(
    ctx: &mut Ctx,
    view: &V,
    qs: &QuerySet,
    threads: usize,
    us: &mut BestOf,
    before: &dyn Fn(),
) -> Option<Vec<Vec<MliqResult>>> {
    let mut answers = Some(Vec::with_capacity(qs.batch.len()));
    for (c, chunk) in batch_chunks(qs).enumerate() {
        before();
        let span = ctx
            .tracer
            .enter("executor.batch", us.rounds() as u32, threads as i32);
        let t = Instant::now();
        let res = view.batch(threads).k_mliq(chunk, 1);
        us.record(c, t.elapsed().as_secs_f64() * 1e6);
        ctx.tracer.exit(span);
        match (ctx.checked(res, "batch k_mliq"), &mut answers) {
            (Some(got), Some(all)) => all.extend(got),
            _ => answers = None,
        }
    }
    us.end_round();
    answers
}

/// Runs rounds over the queries: at least the minimum count, then for as
/// long as one more round still fits into `ctx.seconds`. One round: the
/// calibration loop, `before`, the 1-MLIQ pass, the TIQ pass. `setup` is called `extra_setups` times between passes, at even
/// fractions of the window: there a workload repeats its set-up, spread
/// through the run and not back-to-back.
///
/// Round 0 is the correctness gate as well, outside the timers: the 1-MLIQ
/// id and the TIQ set of every query against `expected`, the batch
/// executor against the serial answers. Later rounds must repeat round 0's
/// 1-MLIQ answers. `stats` are the pool counters behind `view`; round 0's
/// deltas are returned as the page counts.
///
/// With tracing on, odd rounds wrap each of `TRACED_QUERIES` strided 1-MLIQ
/// queries in a span and feed `mliq_traced_us`; even rounds run bare,
/// so the same run yields the traced and the untraced figure. A traced run
/// repeats no set-up.
#[allow(clippy::too_many_arguments)]
pub fn run_rounds<S: PageStore + Send, V: ReadView<S> + Sync>(
    ctx: &mut Ctx,
    view: &V,
    stats: &AccessStats,
    qs: &QuerySet,
    expected: &[Expected],
    before: &dyn Fn(),
    extra_setups: usize,
    setup: &mut dyn FnMut(&mut Ctx),
) -> Rounds {
    let traced_pos = strided(qs.mliq.len(), TRACED_QUERIES);
    let mut out = Rounds {
        mliq_us: BestOf::new(qs.mliq.len()),
        tiq_us: BestOf::new(qs.tiq.len()),
        mliq_traced_us: BestOf::new(traced_pos.len()),
        traced_pos,
        counts: PassCounts::default(),
    };
    let trace_on = ctx.tracer.enabled();
    // A traced run needs each kind of round at least twice.
    let min_rounds = if trace_on {
        2 * ctx.min_rounds().min(2)
    } else {
        ctx.min_rounds()
    };
    // The first set-up came before the window; the extra ones fall at even
    // fractions of it, each at the first pause (three a round) past its due
    // time, so the repetitions sample moments spread over the whole run.
    let extra_setups = if trace_on { 0 } else { extra_setups };
    let share = ctx.seconds / (extra_setups + 1) as f64;
    let window = Instant::now();
    let mut setups_done = 0usize;
    // Seconds spent in `setup` so far.
    let setup_s = Cell::new(0.0f64);
    let mut pause = |ctx: &mut Ctx, now: bool| {
        let due = (setups_done + 1) as f64 * share;
        if setups_done < extra_setups && (now || window.elapsed().as_secs_f64() >= due) {
            let t = Instant::now();
            setup(ctx);
            setup_s.set(setup_s.get() + t.elapsed().as_secs_f64());
            setups_done += 1;
        }
    };
    // Round 0's 1-MLIQ answers, by pool index.
    let mut serial: Vec<Vec<MliqResult>> = vec![Vec::new(); qs.queries.len()];
    // Seconds the rounds so far took, their set-ups not counted.
    let (mut round, mut rounds_s) = (0usize, 0.0f64);
    while round < min_rounds
        || window.elapsed().as_secs_f64() + rounds_s / round as f64 <= ctx.seconds
    {
        let (round_start, setup_before) = (Instant::now(), setup_s.get());
        let traced = trace_on && round % 2 == 1;
        // A traced round asks the 1-MLIQ queries at `traced_pos` only.
        let asked = if traced {
            out.traced_pos.len()
        } else {
            qs.mliq.len()
        };
        ctx.tracer.set_enabled(traced);
        let r = round as u32;
        let round_span = ctx.tracer.enter("round", r, -1);
        ctx.calib.sample();
        before();

        let start = stats.snapshot();
        for k in 0..asked {
            let i = qs.mliq[if traced { out.traced_pos[k] } else { k }];
            let span = ctx.tracer.enter("query.k_mliq", r, i as i32);
            let t = Instant::now();
            let res = view.k_mliq(&qs.queries[i], 1);
            let us = t.elapsed().as_secs_f64() * 1e6;
            ctx.tracer.exit(span);
            let timings = if traced {
                &mut out.mliq_traced_us
            } else {
                &mut out.mliq_us
            };
            timings.record(k, us);
            let got = ctx.checked(res, "k_mliq").unwrap_or_default();
            if round == 0 {
                ctx.check(mliq_ok(&expected[i], &got), || {
                    format!(
                        "1-MLIQ of query {i}: got {got:?}, oracle {:?}",
                        expected[i].mliq_ids
                    )
                });
                serial[i] = got;
            } else {
                ctx.check(got == serial[i], || {
                    format!("1-MLIQ of query {i} changed in round {round}: {got:?}")
                });
            }
        }
        if traced {
            out.mliq_traced_us.end_round();
        } else {
            out.mliq_us.end_round();
        }
        let after_mliq = stats.snapshot();
        pause(ctx, false);

        if !traced {
            let start_tiq = stats.snapshot();
            for (k, &i) in qs.tiq.iter().enumerate() {
                let t = Instant::now();
                let res = view.tiq(&qs.queries[i], THETA, ACCURACY);
                out.tiq_us.record(k, t.elapsed().as_secs_f64() * 1e6);
                let got = ctx.checked(res, "tiq").unwrap_or_default();
                if round == 0 {
                    let e = &expected[i];
                    ctx.check(tiq_ok(e, &got), || {
                        let ids: Vec<u64> = got.iter().map(|r| r.id).collect();
                        format!(
                            "TIQ of query {i}: got {ids:?}, oracle {:?} (+{:?})",
                            e.tiq_in, e.tiq_boundary
                        )
                    });
                }
            }
            out.tiq_us.end_round();
            if round == 0 {
                out.counts = PassCounts {
                    mliq: after_mliq.since(&start),
                    tiq: stats.snapshot().since(&start_tiq),
                };
            }
            pause(ctx, false);

            if round == 0 {
                let mut untimed = BestOf::new(batch_chunks(qs).count());
                let answers = batch_pass(ctx, view, qs, ctx.threads, &mut untimed, before);
                let same = answers.is_some_and(|a| {
                    a.len() == qs.batch_idx.len()
                        && a.iter()
                            .zip(&qs.batch_idx)
                            .all(|(got, &i)| got == &serial[i])
                });
                ctx.check(same, || {
                    "batch executor answers differ from serial".to_string()
                });
            }
            pause(ctx, false);
        }
        ctx.tracer.exit(round_span);
        ctx.tracer.set_enabled(trace_on);
        // Whether one more round fits is judged by the mean round without its
        // set-ups: the later rounds repeat none.
        rounds_s += round_start.elapsed().as_secs_f64() - (setup_s.get() - setup_before);
        round += 1;
    }
    // A window too short for its set-ups (`--quick`) owes them here.
    for _ in 0..extra_setups {
        pause(ctx, true);
    }
    out
}

/// The five query-side end-to-end metrics every workload reports.
pub fn put_query_metrics(ctx: &mut Ctx, rounds: &Rounds, qs: &QuerySet) {
    let m = &mut ctx.metrics;
    m.put("mliq_p50_us", rounds.mliq_us.percentile(0.5));
    m.put("mliq_p90_us", rounds.mliq_us.percentile(0.9));
    m.put("tiq_p50_us", rounds.tiq_us.percentile(0.5));
    m.put("tiq_p90_us", rounds.tiq_us.percentile(0.9));
    let reads = rounds.counts.mliq.logical_reads + rounds.counts.tiq.logical_reads;
    let queries = qs.mliq.len() + qs.tiq.len();
    m.put("pages_per_query", reads as f64 / queries as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_subsets_are_even_and_nested_where_promised() {
        assert_eq!(strided(10, 5), [0, 2, 4, 6, 8]);
        assert_eq!(strided(7, 3), [0, 2, 4]);
        assert_eq!(strided(3, 9), [0, 1, 2], "never more than there are");
        assert!(strided(0, 4).is_empty());

        let pool: Vec<Pfv> = (0..12)
            .map(|i| Pfv::new(vec![f64::from(i)], vec![1.0]).expect("valid pfv"))
            .collect();
        let qs = QuerySet::new(pool, 6, 12, 3);
        assert_eq!(qs.mliq, [0, 2, 4, 6, 8, 10]);
        assert_eq!(qs.tiq.len(), 12, "the largest kind asks the whole pool");
        assert_eq!(qs.batch_idx, [0, 4, 8], "batch queries are 1-MLIQ queries");
        assert_eq!(qs.batch[1].means()[0], 4.0);
        assert_eq!(qs.tiq_flags().iter().filter(|&&f| f).count(), 12);
        let sample = qs.sample(2);
        assert_eq!((sample[0].means()[0], sample[1].means()[0]), (0.0, 6.0));
    }
}
