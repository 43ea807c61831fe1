//! `explain_offline`: the paper's own operation at paper scale, through
//! the library alone. One caller thread runs
//! `ExplainSession::run(&[ExplainRequest::explain(q, an)])` back to back
//! on a warmed `ExplainEngine` over lUrU, 100k objects, d = 3, α = 0.6.
//! Every pair is fresh, so no cache ever hits. The run is cut into
//! rounds; each ends with a write probe of single inserts through
//! `ExplainEngine::apply`, so both samples span the whole run.

use crate::fixture::{dataset, draw_pairs, engine_config, warm, Pair, UpdateSource};
use crate::trace::{
    plan_layers, split_stage1, wire_layers, write_layers, Decomposed, Layers, Recorder, Traced,
    WindowSpan,
};
use crate::util::{
    mean, median, ms, ms_between, peak_rss_mb, quantile, setup_median, sub_seed, Rng, SetupTimes,
};
use crate::{Args, Outcome};
use crp_core::{
    CrpError, CrpOutcome, ExplainEngine, ExplainRequest, ExplainSession, ExplainStrategy,
};
use crp_data::wire::Response;
use crp_uncertain::{ObjectId, UncertainObject, Update};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const CARDINALITY: usize = 100_000;
const SETUPS: usize = 5;
const WARMUP_PAIRS: usize = 300;
/// Rounds of explains followed by inserts. Spreading both samples over
/// the run keeps a slow stretch of the host from landing on one of
/// them only.
const ROUNDS: usize = 10;
/// Share of `--seconds` the explains take at [`NOMINAL_RATE`], spread
/// over the rounds.
const EXPLAIN_SHARE: f64 = 0.75;
/// Explains per second this workload ran at when the benchmark was
/// defined. Frozen: each run explains a fixed number of pairs,
/// `EXPLAIN_SHARE * --seconds * NOMINAL_RATE`, so a faster engine
/// finishes sooner instead of doing more work, and the memory the
/// rounds leave behind does not depend on the host's speed.
const NOMINAL_RATE: f64 = 400.0;
/// Inserts at the end of each round.
const INSERTS_PER_ROUND: usize = 50;
/// Traced pairs re-driven one at a time for the stage-1 / FMCS split:
/// ten of each free-candidate count 0..=14.
const REDRIVE_PAIRS: usize = 150;
/// Served outcomes per round re-checked against the lemma-free Naive-I.
const NAIVE_PER_ROUND: usize = 2;
/// Naive-I enumerates every candidate subset; the check samples pairs
/// small enough for that to finish.
const NAIVE_MAX_CANDIDATES: usize = 10;

/// Generates the dataset and opens a warmed engine over it.
fn setup(seed: u64) -> Result<(ExplainEngine, SetupTimes), String> {
    let t0 = Instant::now();
    let ds = dataset(CARDINALITY, seed);
    let t1 = Instant::now();
    let engine = ExplainEngine::new(ds, engine_config()).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    warm(&engine);
    let t3 = Instant::now();
    let times = SetupTimes {
        total: (t3 - t0).as_secs_f64(),
        generate: (t1 - t0).as_secs_f64(),
        build: (t3 - t2).as_secs_f64(),
        start: (t2 - t1).as_secs_f64(),
    };
    Ok((engine, times))
}

/// One explained pair as the caller saw it.
struct Served {
    pair: usize,
    latency_ms: f64,
    result: Result<CrpOutcome, CrpError>,
}

/// Runs the `n` pairs from `pool[next..]` back to back; returns what
/// was served and the phase's length in seconds.
fn read_phase(
    session: &dyn ExplainSession,
    pool: &[Pair],
    next: &mut usize,
    n: usize,
) -> (Vec<Served>, f64) {
    let start = Instant::now();
    let end = (*next + n).min(pool.len());
    let mut served = Vec::new();
    while *next < end {
        let pair = &pool[*next];
        let t = Instant::now();
        let result = session
            .run(&[ExplainRequest::explain(&pair.q, pair.an)])
            .into_single();
        served.push(Served {
            pair: *next,
            latency_ms: ms(t.elapsed()),
            result,
        });
        *next += 1;
    }
    (served, start.elapsed().as_secs_f64())
}

/// What the traced rounds record: each explain's span, the windows
/// behind them, and the caller's own gap between calls.
struct TraceLog {
    spans: Decomposed,
    windows: Vec<WindowSpan>,
    lag: Vec<f64>,
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (engine, t) = setup(args.seed)?;
        times.push(t);
        kept = Some(engine);
    }
    let mut engine = kept.expect("at least one setup");

    // Input selection (not part of set-up): fresh pairs for the run,
    // and warm-up pairs explained before it.
    let per_round = (EXPLAIN_SHARE * args.seconds * NOMINAL_RATE / ROUNDS as f64) as usize;
    let (ds, tree) = (engine.dataset(), engine.object_tree());
    let drawing = Instant::now();
    let warmup = draw_pairs(ds, tree, sub_seed(args.seed, 2), WARMUP_PAIRS);
    let pool = draw_pairs(ds, tree, sub_seed(args.seed, 3), per_round * ROUNDS);
    let drawing = drawing.elapsed().as_secs_f64();
    read_phase(&engine, &warmup, &mut 0, WARMUP_PAIRS);

    let mut updates = UpdateSource::domain_inserts(engine.dataset(), sub_seed(args.seed, 5));
    let base = args.trace.then(|| engine.dataset().clone());
    let epoch0 = engine.epoch();
    let rec = Arc::new(Recorder::default());
    rec.set_enabled(true);
    let mut log = TraceLog {
        spans: Decomposed::new(),
        windows: Vec::new(),
        lag: Vec::new(),
    };
    let mut mismatches = Vec::new();
    let mut next = 0;
    // Explains of the untraced rounds (every round unless tracing, the
    // first half when tracing) and of the traced ones.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut plain_secs = 0.0;
    let mut batches: Vec<Vec<Update<UncertainObject>>> = Vec::new();
    let mut update_ms = Vec::new();
    let mut update_spans = Decomposed::new();
    let mut update_failed = 0u64;
    for round in 0..ROUNDS {
        let (served, first) = if args.trace && round >= ROUNDS / 2 {
            let session = Traced::new(&engine, Arc::clone(&rec));
            let first = traced.len();
            let round_served = traced_phase(&session, &rec, &pool, &mut next, per_round, &mut log);
            traced.extend(round_served);
            (&traced, first)
        } else {
            let first = plain.len();
            let (round_served, secs) = read_phase(&engine, &pool, &mut next, per_round);
            plain_secs += secs;
            plain.extend(round_served);
            (&plain, first)
        };
        // A seeded sample of this round's outcomes against Naive-I,
        // before the inserts move the epoch.
        mismatches.extend(naive_check(
            &engine,
            &pool,
            &served[first..],
            sub_seed(args.seed, 6 + round as u64),
        ));

        // Write probe: single inserts through the library. Deletes and
        // replaces are left out at this size: `RTree::remove` panics on
        // a 100k-object packed tree (see README.md, known defect).
        for _ in 0..INSERTS_PER_ROUND {
            let intended = Instant::now();
            let u = updates.next_insert();
            if args.trace {
                batches.push(vec![u.clone()]);
            }
            let start = Instant::now();
            let ok = engine.apply(u).is_ok();
            let end = Instant::now();
            update_failed += u64::from(!ok);
            update_ms.push(ms(end - start));
            update_spans.push(intended, start, end, Instant::now());
        }
    }
    // Peak memory of the timed rounds, before any verification.
    let rss = peak_rss_mb();
    let inserts = update_ms.len();
    if engine.epoch().0 != epoch0.0 + inserts as u64 - update_failed {
        mismatches.push(format!(
            "write probe: epoch {} after {inserts} inserts from {epoch0}",
            engine.epoch(),
        ));
    }
    if update_spans.misattributed() > 0 || log.spans.misattributed() > 0 {
        mismatches.push("a traced call falls outside its own interval".into());
    }

    // The updated engine must explain exactly like a fresh one built
    // on the final dataset.
    let served: &[Served] = if args.trace { &traced } else { &plain };
    let fresh =
        ExplainEngine::new(engine.dataset().clone(), engine_config()).map_err(|e| e.to_string())?;
    for s in served.iter().step_by((served.len() / 16).max(1)) {
        let pair = &pool[s.pair];
        let request = [ExplainRequest::explain(&pair.q, pair.an)];
        let got = engine.run(&request).into_single();
        let want = fresh.run(&request).into_single();
        if crate::trace::wire_result(&got) != crate::trace::wire_result(&want) {
            mismatches.push(format!(
                "after the write probe, ({:?}, {}) differs from a fresh engine",
                pair.q.coords(),
                pair.an
            ));
        }
    }
    drop(fresh);

    let explains = plain.len() + traced.len();
    let failed = plain
        .iter()
        .chain(&traced)
        .filter(|s| s.result.is_err())
        .count() as u64
        + update_failed;
    let attempted = (explains + inserts) as u64;
    let mut metrics = Layers::new();
    if args.trace {
        let latencies = |v: &[Served]| v.iter().map(|s| s.latency_ms).collect::<Vec<_>>();
        let (p_plain, p_traced) = (median(&latencies(&plain)), median(&latencies(&traced)));
        metrics.insert("trace.overhead_pct", 100.0 * (p_traced - p_plain) / p_plain);
        plan_layers(&log.windows, &mut metrics);
        metrics.insert("loadgen.lag_p99_ms", quantile(&log.lag, 0.99));
        metrics.insert("serve.pre_exec_ms", mean(&log.spans.pre));
        metrics.insert("plan.run_ms", mean(&log.spans.exec));
        metrics.insert("serve.post_exec_ms", mean(&log.spans.post));
        // Stage-1 / FMCS split, re-driven after the timed rounds on two
        // fresh forks of the final engine: one answers only stage-1,
        // the other whole explains, and no pair repeats on either, so
        // neither cache ever holds the pair. Pairs rotate through every
        // free-candidate count, so the first traced ones cover each
        // count evenly.
        let (stage1_fork, explain_fork) = (engine.fork(), engine.fork());
        let (mut stage1, mut fmcs) = (Vec::new(), Vec::new());
        for s in traced.iter().take(REDRIVE_PAIRS) {
            let pair = &pool[s.pair];
            let (a, b) = split_stage1(&stage1_fork, &explain_fork, &pair.q, pair.an);
            stage1.push(a);
            fmcs.push(b);
        }
        metrics.insert("filter.stage1_ms", mean(&stage1));
        metrics.insert("fmcs.self_ms", mean(&fmcs));
        metrics.insert("data.generate_s", setup_median(&times, |t| t.generate));
        metrics.insert("serve.start_s", setup_median(&times, |t| t.start));
        metrics.insert("rtree.build_s", setup_median(&times, |t| t.build));
        metrics.insert("update.pre_exec_ms", mean(&update_spans.pre));
        metrics.insert("backend.apply_ms", mean(&update_spans.exec));
        metrics.insert("update.post_exec_ms", mean(&update_spans.post));
        metrics.insert("serve.updates_per_batch", 1.0);
        let replies: Vec<Response> = traced
            .iter()
            .map(|s| Response::Outcomes {
                epoch: epoch0,
                results: vec![crate::trace::wire_result(&s.result)],
            })
            .collect();
        wire_layers(&replies, &mut metrics);
        write_layers(
            base.as_ref().expect("kept when tracing"),
            &batches,
            work,
            &mut metrics,
        )?;
    } else {
        let latencies: Vec<f64> = plain.iter().map(|s| s.latency_ms).collect();
        metrics.insert("setup_s", setup_median(&times, |t| t.total));
        metrics.insert("peak_rss_mb", rss);
        metrics.insert("explain_p50_ms", quantile(&latencies, 0.5));
        metrics.insert("explain_p99_ms", quantile(&latencies, 0.99));
        metrics.insert("explains_per_s", latencies.len() as f64 / plain_secs);
        metrics.insert("update_p50_ms", quantile(&update_ms, 0.5));
        metrics.insert("update_p95_ms", quantile(&update_ms, 0.95));
        metrics.insert(
            "completed_pct",
            100.0 * (attempted - failed) as f64 / attempted as f64,
        );
    }
    eprintln!(
        "explain_offline: {explains} explains in {ROUNDS} rounds ({} pairs drawn in {drawing:.1} s), \
         {inserts} inserts",
        pool.len(),
    );
    Ok(Outcome {
        mismatches,
        attempted,
        failed,
        metrics,
    })
}

/// A traced round: each explain goes through the [`Traced`] session
/// decorator, whose span is joined to the call that made it.
fn traced_phase(
    traced: &Traced<&ExplainEngine>,
    rec: &Recorder,
    pool: &[Pair],
    next: &mut usize,
    n: usize,
    log: &mut TraceLog,
) -> Vec<Served> {
    let end = (*next + n).min(pool.len());
    let mut served = Vec::new();
    // (call, return) per explain; spans join them after.
    let mut calls: Vec<(Instant, Instant)> = Vec::new();
    // The caller's own gap between one return and the next call.
    let mut intended = Instant::now();
    while *next < end {
        let pair = &pool[*next];
        let t = Instant::now();
        let result = traced
            .run(&[ExplainRequest::explain(&pair.q, pair.an)])
            .into_single();
        let done = Instant::now();
        log.lag.push(ms_between(intended, t));
        calls.push((t, done));
        served.push(Served {
            pair: *next,
            latency_ms: ms(done - t),
            result,
        });
        *next += 1;
        intended = Instant::now();
    }
    let windows = rec.take_windows();
    assert_eq!(windows.len(), calls.len(), "one span per run");
    for (w, &(t, done)) in windows.iter().zip(&calls) {
        log.spans.push(t, w.start, w.end, done);
    }
    log.windows.extend(windows);
    served
}

/// Re-explains a seeded sample of served pairs with the lemma-free
/// Naive-I baseline; causes and responsibilities must match.
fn naive_check(engine: &ExplainEngine, pool: &[Pair], served: &[Served], seed: u64) -> Vec<String> {
    let mut eligible: Vec<&Served> = served
        .iter()
        .filter(|s| pool[s.pair].candidates <= NAIVE_MAX_CANDIDATES)
        .collect();
    let mut rng = Rng::new(seed);
    let mut mismatches = Vec::new();
    for _ in 0..NAIVE_PER_ROUND.min(eligible.len()) {
        let s = eligible.swap_remove(rng.below(eligible.len()));
        let pair = &pool[s.pair];
        let naive = engine
            .run(&[ExplainRequest::explain(&pair.q, pair.an)
                .with_strategy(ExplainStrategy::NaiveI { max_subsets: None })])
            .into_single();
        match (cause_key(&s.result), cause_key(&naive)) {
            (Ok(cp), Ok(nv)) if cp == nv => {}
            (cp, nv) => mismatches.push(format!(
                "({:?}, {}): CP {:?} vs Naive-I {:?}",
                pair.q.coords(),
                pair.an,
                cp,
                nv
            )),
        }
    }
    mismatches
}

fn cause_key(result: &Result<CrpOutcome, CrpError>) -> Result<Vec<(ObjectId, u64)>, String> {
    result
        .as_ref()
        .map(|o| {
            o.causes
                .iter()
                .map(|c| (c.id, c.responsibility.to_bits()))
                .collect()
        })
        .map_err(|e| e.to_string())
}
