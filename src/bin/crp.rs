//! `crp` — command-line front end for the library.
//!
//! ```text
//! # Who is in the (probabilistic) reverse skyline?
//! crp query   --data cars.csv --schema points  --query 11580,49000
//! crp query   --data nba.csv  --schema seasons --query 3500,1500,600,800 --alpha 0.5
//!
//! # Why is an object missing? (CR for point data, CP for season data.)
//! crp explain --data cars.csv --schema points  --query 11580,49000 --object 42
//! crp explain --data nba.csv  --schema seasons --query 3500,1500,600,800 \
//!             --alpha 0.5 --object 23 [--budget-checks 2000000]
//!
//! # Explain many non-answers in one engine session (rayon-parallel;
//! # --objects takes comma-separated ids, or "all" for every object).
//! crp explain-batch --data cars.csv --schema points --query 11580,49000 \
//!                   --objects 42,57,93 [--serial]
//!
//! # Replay a live-session workload: interleaved inserts/deletes/
//! # replaces and explain calls against one mutable engine session
//! # (incremental index maintenance; see crp_data::workload for the
//! # file format). Ends with the session's update counters.
//! crp replay --data cars.csv --schema points --query 11580,49000 \
//!            --workload ops.txt
//!
//! # Concurrent replay (MVCC): consecutive updates are applied as one
//! # batch publishing an epoch snapshot, and every explain op fans its
//! # ids across N reader threads pinned to the snapshot — readers
//! # never block behind the writer. --session-dir adds durability:
//! # batches are write-ahead logged before they apply, the session
//! # checkpoints on exit, and reopening the directory resumes from the
//! # last complete epoch (the workload file can then be the next day's
//! # update stream).
//! crp replay --data cars.csv --schema points --query 11580,49000 \
//!            --workload ops.txt --readers 4 [--session-dir state/]
//!
//! # Plan a whole workload — an α range and/or a grid of nearby
//! # queries over a fixed non-answer set — as ONE request: the planner
//! # computes each (object, query) cell's dominance rows once, shares
//! # them across the α range, and reports what it saved.
//! crp sweep --data nba.csv --schema seasons --query 3500,1500,600,800 \
//!           --objects 23,42 --alphas 0.3,0.5,0.7 \
//!           --q-grid 10:10,25:25
//!
//! # Serve the session over TCP: concurrent clients' explain requests
//! # are gathered into planner windows (closed on size or a few-ms
//! # deadline) and compiled as ONE workload each, so stage-1 work
//! # dedups across clients; admission control sheds past the queue cap
//! # with a typed retry hint. --session-dir makes updates durable
//! # (WAL + checkpoint on graceful shutdown).
//! crp serve --data cars.csv --schema points --query 11580,49000 \
//!           [--addr 127.0.0.1:0 --window-max 16 --window-ms 4 \
//!            --queue-cap 64 --session-dir state/]
//!
//! # Talk to a running server (the wire format lives in crp_data::wire).
//! crp client --addr 127.0.0.1:4820 --objects 42,57 [--alphas 0.3,0.5]
//! crp client --addr 127.0.0.1:4820 --update day2.ops
//! crp client --addr 127.0.0.1:4820 --candidates 42 --query 11580,49000
//! crp client --addr 127.0.0.1:4820 --stats
//! crp client --addr 127.0.0.1:4820 --shutdown
//!
//! # Emit a synthetic stand-in dataset as CSV.
//! crp generate --kind nba   --out league.csv
//! crp generate --kind cardb --out cars.csv
//! ```
//!
//! Schemas are documented in `crp_data::io`: `points` = `label,a1..aD`
//! (certain data), `seasons` = `player_id,label,a1..aD` (uncertain data,
//! equal sample probabilities per id).
//!
//! `explain`, `explain-batch`, `sweep` and `replay` cap the checks of
//! each command's plan — every subset check and every completion-bound
//! check of the contingency search — with `--budget-checks N` (default
//! `PlanLimits::DEFAULT_MAX_CHECKS`, 5,000,000), shared by every explain
//! of a multi-object plan; a capped explain reports a typed partial
//! result.
//!
//! Unknown flags are rejected with a usage error and a nonzero exit —
//! a typo like `--aplha` fails loudly instead of silently running with
//! the default.

use prsq_crp::data::wire::WireResult;
use prsq_crp::data::{
    cardb_dataset, load_points, load_season_records, load_workload, nba_dataset,
    write_season_records, CarDbConfig, FaultSpec, FaultVfs, NbaConfig, RealVfs, Vfs, WorkloadOp,
};
use prsq_crp::prelude::*;
use prsq_crp::serve::{Client, ErasedSnapshot, ServeBackend, ServeConfig, Server, VolatileBackend};
use prsq_crp::uncertain::Epoch;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

const USAGE: &str = "usage: crp <query|explain|explain-batch|sweep|replay|serve|client|generate> \
     [--data FILE \
     --schema points|seasons --query a1,a2,… --alpha A --object ID \
     --objects ID,ID,…|all --alphas A,A,… --q-grid d1:d2,d1:d2,… \
     --budget-checks N --serial --workload FILE --readers N --session-dir DIR \
     --inject seed=N[,eio-every=K,enospc-at=K,torn-at=K,lying-every=K] \
     --deadline-ms N --budget-nodes N \
     --addr HOST:PORT --window-max N --window-ms N --queue-cap N \
     --class interactive|batch|best-effort --update FILE \
     --candidates ID --stats --shutdown \
     | --kind nba|cardb --out FILE]";

/// Parsed command line: every token accounted for, or an error.
#[derive(Debug)]
struct Cli {
    command: String,
    values: HashMap<&'static str, String>,
}

/// The flags each subcommand accepts. `(name, takes_value)`.
fn accepted_flags(command: &str) -> Option<&'static [(&'static str, bool)]> {
    const QUERY: &[(&str, bool)] = &[
        ("--data", true),
        ("--schema", true),
        ("--query", true),
        ("--alpha", true),
    ];
    const EXPLAIN: &[(&str, bool)] = &[
        ("--data", true),
        ("--schema", true),
        ("--query", true),
        ("--alpha", true),
        ("--budget-checks", true),
        ("--object", true),
    ];
    const EXPLAIN_BATCH: &[(&str, bool)] = &[
        ("--data", true),
        ("--schema", true),
        ("--query", true),
        ("--alpha", true),
        ("--budget-checks", true),
        ("--objects", true),
        ("--serial", false),
    ];
    const REPLAY: &[(&str, bool)] = &[
        ("--data", true),
        ("--schema", true),
        ("--query", true),
        ("--alpha", true),
        ("--budget-checks", true),
        ("--workload", true),
        ("--serial", false),
        ("--readers", true),
        ("--session-dir", true),
        ("--inject", true),
        ("--deadline-ms", true),
        ("--budget-nodes", true),
    ];
    const SWEEP: &[(&str, bool)] = &[
        ("--data", true),
        ("--schema", true),
        ("--query", true),
        ("--alpha", true),
        ("--alphas", true),
        ("--q-grid", true),
        ("--budget-checks", true),
        ("--objects", true),
        ("--serial", false),
    ];
    const SERVE: &[(&str, bool)] = &[
        ("--data", true),
        ("--schema", true),
        ("--query", true),
        ("--alpha", true),
        ("--serial", false),
        ("--addr", true),
        ("--window-max", true),
        ("--window-ms", true),
        ("--queue-cap", true),
        ("--session-dir", true),
    ];
    const CLIENT: &[(&str, bool)] = &[
        ("--addr", true),
        ("--class", true),
        ("--query", true),
        ("--objects", true),
        ("--alphas", true),
        ("--update", true),
        ("--candidates", true),
        ("--stats", false),
        ("--shutdown", false),
    ];
    const GENERATE: &[(&str, bool)] = &[("--kind", true), ("--out", true)];
    match command {
        "query" => Some(QUERY),
        "explain" => Some(EXPLAIN),
        "explain-batch" => Some(EXPLAIN_BATCH),
        "sweep" => Some(SWEEP),
        "replay" => Some(REPLAY),
        "serve" => Some(SERVE),
        "client" => Some(CLIENT),
        "generate" => Some(GENERATE),
        _ => None,
    }
}

/// Strict parser: the first token is the subcommand, everything after
/// must be a flag the subcommand accepts (with its value when the flag
/// takes one). Anything unrecognized is an error, not a silent no-op.
fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let command = args.first().cloned().unwrap_or_default();
    let spec =
        accepted_flags(&command).ok_or_else(|| format!("unknown command {command:?}\n{USAGE}"))?;
    let mut values: HashMap<&'static str, String> = HashMap::new();
    let mut i = 1;
    while i < args.len() {
        let tok = &args[i];
        let Some(&(name, takes_value)) = spec.iter().find(|(name, _)| name == tok) else {
            return Err(format!(
                "unrecognized argument {tok:?} for `crp {command}`\n{USAGE}"
            ));
        };
        if values.contains_key(name) {
            return Err(format!("duplicate flag {name}"));
        }
        if takes_value {
            let value = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("flag {name} requires a value"))?;
            values.insert(name, value.clone());
            i += 2;
        } else {
            values.insert(name, String::new());
            i += 1;
        }
    }
    Ok(Cli { command, values })
}

impl Cli {
    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn require(&self, name: &str, hint: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("{name} {hint} required"))
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name)
            .map(|raw| raw.parse().map_err(|e| format!("bad {name}: {e}")))
            .transpose()
    }
}

/// `--alphas 0.3,0.5,0.7` — the α list of a sweep request.
fn parse_alphas(raw: &str) -> Result<Vec<f64>, String> {
    let alphas: Result<Vec<f64>, _> = raw.split(',').map(|tok| tok.trim().parse()).collect();
    match alphas {
        Ok(v) if !v.is_empty() => Ok(v),
        Ok(_) => Err("--alphas needs at least one value".into()),
        Err(e) => Err(format!("bad --alphas {raw:?}: {e}")),
    }
}

/// `--q-grid d1:d2,d1:d2,…` — offset vectors added to the base query
/// point; the sweep always includes the base point itself.
fn parse_q_grid(raw: &str, base: &Point) -> Result<Vec<Point>, String> {
    let mut grid = vec![base.clone()];
    for entry in raw.split(',') {
        let coords: Result<Vec<f64>, _> = entry.split(':').map(|c| c.trim().parse()).collect();
        let offsets = coords.map_err(|e| format!("bad --q-grid entry {entry:?}: {e}"))?;
        if offsets.len() != base.dim() {
            return Err(format!(
                "--q-grid entry {entry:?} has {} offset(s) but the query has {} attribute(s)",
                offsets.len(),
                base.dim()
            ));
        }
        grid.push(Point::new(
            base.coords()
                .iter()
                .zip(&offsets)
                .map(|(c, d)| c + d)
                .collect::<Vec<f64>>(),
        ));
    }
    Ok(grid)
}

fn parse_query_point(raw: &str) -> Result<Point, String> {
    let coords: Result<Vec<f64>, _> = raw.split(',').map(|c| c.trim().parse::<f64>()).collect();
    match coords {
        Ok(v) if !v.is_empty() => Ok(Point::new(v)),
        Ok(_) => Err("query point needs at least one coordinate".into()),
        Err(e) => Err(format!("bad query point {raw:?}: {e}")),
    }
}

fn load(schema: &str, path: &str) -> Result<UncertainDataset, String> {
    match schema {
        "points" => load_points(path).map_err(|e| e.to_string()),
        "seasons" => load_season_records(path).map_err(|e| e.to_string()),
        other => Err(format!("unknown schema {other:?} (use points|seasons)")),
    }
}

fn label_of(ds: &UncertainDataset, id: ObjectId) -> String {
    ds.get(id)
        .and_then(|o| o.label())
        .map(str::to_string)
        .unwrap_or_else(|| id.to_string())
}

fn cmd_query(ds: &UncertainDataset, q: &Point, alpha: f64) -> Result<(), String> {
    if ds.is_certain() {
        let tree = build_object_rtree(ds, RTreeParams::paper_default(q.dim()));
        let mut stats = QueryStats::default();
        let rs = reverse_skyline_rtree(ds, tree.frozen(), q, &mut stats);
        println!("reverse skyline of {q} — {} object(s):", rs.len());
        for id in rs {
            println!("  {}", label_of(ds, id));
        }
        println!("({} node accesses)", stats.node_accesses);
    } else {
        let answers = probabilistic_reverse_skyline(ds, q, alpha);
        println!(
            "probabilistic reverse skyline of {q} at α = {alpha} — {} object(s):",
            answers.len()
        );
        for (id, prob) in answers {
            println!("  {} (Pr = {prob:.3})", label_of(ds, id));
        }
    }
    Ok(())
}

/// The session configuration every CLI engine shares: auto strategy
/// (CR for certain data, CP otherwise) and the library's CP
/// configuration. Work caps ride on each request, not the session.
fn cli_engine_config(alpha: f64, parallel: bool) -> EngineConfig {
    EngineConfig {
        alpha,
        parallel,
        ..EngineConfig::default()
    }
}

fn build_engine(ds: UncertainDataset, alpha: f64, parallel: bool) -> Result<ExplainEngine, String> {
    ExplainEngine::new(ds, cli_engine_config(alpha, parallel)).map_err(|e| e.to_string())
}

fn print_outcome(ds: &UncertainDataset, object: ObjectId, outcome: &CrpOutcome) {
    println!(
        "{} is a NON-ANSWER; {} actual cause(s):",
        label_of(ds, object),
        outcome.causes.len()
    );
    for cause in outcome.by_responsibility() {
        println!(
            "  {:<32} responsibility 1/{}{}",
            label_of(ds, cause.id),
            cause.min_contingency.len() + 1,
            if cause.counterfactual {
                "  (counterfactual)"
            } else {
                ""
            }
        );
    }
}

fn cmd_explain(
    engine: &ExplainEngine,
    q: &Point,
    object: ObjectId,
    budget: u64,
) -> Result<(), String> {
    let ds = engine.dataset();
    let request = ExplainRequest::explain(q, object).with_check_budget(budget);
    match engine.run(&[request]).into_single() {
        Ok(out) => {
            print_outcome(ds, object, &out);
            Ok(())
        }
        Err(CrpError::NotANonAnswer { prob }) => {
            println!(
                "{} is an ANSWER (Pr = {prob:.3}) — answers have no causes \
                 (deletion monotonicity)",
                label_of(ds, object)
            );
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

/// `explain-batch`: one engine session, many non-answers, one
/// rayon-parallel plan under one check cap.
fn cmd_explain_batch(
    engine: &ExplainEngine,
    q: &Point,
    objects: &[ObjectId],
    budget: u64,
) -> Result<(), String> {
    let ds = engine.dataset();
    let started = std::time::Instant::now();
    let request = ExplainRequest::batch(q, objects).with_check_budget(budget);
    let outcomes = engine.run(&[request]).results;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut non_answers = 0usize;
    let mut answers = 0usize;
    let mut failures = 0usize;
    for (&object, outcome) in objects.iter().zip(&outcomes) {
        match outcome {
            Ok(out) => {
                non_answers += 1;
                print_outcome(ds, object, out);
            }
            Err(CrpError::NotANonAnswer { prob }) => {
                answers += 1;
                println!("{} is an ANSWER (Pr = {prob:.3})", label_of(ds, object));
            }
            Err(e) => {
                failures += 1;
                println!("{}: {e}", label_of(ds, object));
            }
        }
    }
    let io = engine.accumulated_io();
    println!(
        "batch of {}: {non_answers} non-answer(s) explained, {answers} answer(s), \
         {failures} failure(s) in {elapsed_ms:.1} ms ({} node accesses)",
        objects.len(),
        io.node_accesses
    );
    // Mirror the single-object command's contract: anything that was
    // neither explained nor classified as an answer is an error, and
    // scripts must be able to see it in the exit code.
    if failures > 0 {
        return Err(format!("{failures} of {} object(s) failed", objects.len()));
    }
    Ok(())
}

/// `replay`: one mutable engine session serving an interleaved stream
/// of updates and explain calls. Updates are applied incrementally
/// (condense + reinsert on the R-trees) — the dataset is never
/// re-indexed from scratch — and the session's maintenance counters are
/// reported at the end.
fn cmd_replay(
    engine: &mut ExplainEngine,
    q: &Point,
    ops: &[WorkloadOp],
    budget: u64,
) -> Result<(), String> {
    let started = std::time::Instant::now();
    let mut updates = 0usize;
    let mut explains = 0usize;
    let mut failures = 0usize;
    for op in ops {
        match op {
            WorkloadOp::Update(update) => {
                updates += 1;
                let verb = update.verb();
                let id = update.id();
                match engine.apply(update.clone()) {
                    Ok(epoch) => println!("{verb} {id} → {epoch}"),
                    Err(e) => {
                        failures += 1;
                        println!("{verb} {id} FAILED: {e}");
                    }
                }
            }
            WorkloadOp::Explain(_) | WorkloadOp::ExplainAll => {
                let ids: Vec<ObjectId> = match op {
                    WorkloadOp::Explain(ids) => ids.clone(),
                    _ => engine.dataset().iter().map(|o| o.id()).collect(),
                };
                explains += ids.len();
                let ds = engine.dataset();
                let request = ExplainRequest::batch(q, &ids).with_check_budget(budget);
                for (&object, outcome) in ids.iter().zip(engine.run(&[request]).results) {
                    match outcome {
                        Ok(out) => print_outcome(ds, object, &out),
                        Err(CrpError::NotANonAnswer { prob }) => {
                            println!("{} is an ANSWER (Pr = {prob:.3})", label_of(ds, object))
                        }
                        Err(e) => {
                            failures += 1;
                            println!("{}: {e}", label_of(ds, object));
                        }
                    }
                }
            }
        }
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let io = engine.accumulated_io();
    println!(
        "replay of {updates} update(s) + {explains} explain call(s) in {elapsed_ms:.1} ms \
         ({failures} failure(s))"
    );
    println!(
        "session totals: {} node accesses | updates: {} inserted, {} removed, {} reinserted",
        io.node_accesses, io.inserts, io.removes, io.reinserts
    );
    if failures > 0 {
        return Err(format!("{failures} operation(s) failed"));
    }
    Ok(())
}

/// What `--readers`/`--session-dir` replay runs against: a volatile
/// MVCC session, or one whose batches are write-ahead logged first.
enum ReplaySession {
    Volatile(MvccEngine<ExplainEngine>),
    Durable(DurableSession<ExplainEngine>),
}

impl ReplaySession {
    fn mvcc(&self) -> &MvccEngine<ExplainEngine> {
        match self {
            ReplaySession::Volatile(mvcc) => mvcc,
            ReplaySession::Durable(session) => session.mvcc(),
        }
    }

    fn apply_batch(&mut self, updates: Vec<Update<UncertainObject>>) -> Result<Epoch, String> {
        match self {
            ReplaySession::Volatile(mvcc) => mvcc.apply_batch(updates).map_err(|e| e.to_string()),
            ReplaySession::Durable(session) => {
                session.apply_batch(updates).map_err(|e| e.to_string())
            }
        }
    }
}

/// `replay --readers N [--session-dir DIR]`: the same workload stream,
/// served MVCC-style. Consecutive updates coalesce into one batch that
/// publishes a single epoch snapshot; each explain op first flushes the
/// pending batch, then pins the published snapshot and fans its ids
/// across `readers` threads — every thread explains against the same
/// immutable epoch, so output is bit-identical to the serial path and
/// deterministic regardless of thread interleaving. With a session
/// directory, batches are fsynced to the write-ahead log *before* they
/// apply and the session checkpoints on exit; reopening the directory
/// resumes from the last complete epoch, ignoring `--data`.
#[allow(clippy::too_many_arguments)]
fn cmd_replay_mvcc(
    ds: UncertainDataset,
    q: &Point,
    ops: &[WorkloadOp],
    readers: usize,
    session_dir: Option<&str>,
    config: EngineConfig,
    limits: PlanLimits,
    inject: Option<FaultSpec>,
) -> Result<(), String> {
    let make = move |ds: UncertainDataset| ExplainEngine::new(ds, config);
    let fault = inject.map(FaultVfs::over_real);
    let mut session = match session_dir {
        Some(dir) => {
            let vfs: Arc<dyn Vfs> = match &fault {
                Some(f) => Arc::new(f.clone()),
                None => Arc::new(RealVfs),
            };
            let session =
                DurableSession::open_with_vfs(dir, ds, make, vfs).map_err(|e| e.to_string())?;
            let recovery = session.recovery();
            if !recovery.batches.is_empty() || recovery.truncated {
                println!(
                    "recovered {dir} at {}: {} committed WAL batch(es){}",
                    session.epoch(),
                    recovery.batches.len(),
                    if recovery.truncated {
                        ", torn tail dropped"
                    } else {
                        ""
                    }
                );
            }
            ReplaySession::Durable(session)
        }
        None => ReplaySession::Volatile(MvccEngine::new(make(ds).map_err(|e| e.to_string())?)),
    };

    fn flush(
        session: &mut ReplaySession,
        pending: &mut Vec<Update<UncertainObject>>,
        batches: &mut usize,
    ) -> Result<(), String> {
        if pending.is_empty() {
            return Ok(());
        }
        let n = pending.len();
        let epoch = session.apply_batch(std::mem::take(pending))?;
        *batches += 1;
        println!("batch of {n} update(s) → {epoch}");
        Ok(())
    }

    let started = std::time::Instant::now();
    let mut pending: Vec<Update<UncertainObject>> = Vec::new();
    let mut updates = 0usize;
    let mut batches = 0usize;
    let mut explains = 0usize;
    let mut failures = 0usize;
    let mut partials = 0usize;
    for op in ops {
        match op {
            WorkloadOp::Update(update) => {
                updates += 1;
                pending.push(update.clone());
            }
            WorkloadOp::Explain(_) | WorkloadOp::ExplainAll => {
                flush(&mut session, &mut pending, &mut batches)?;
                let snapshot = session.mvcc().pin();
                let engine = snapshot.engine();
                let ds = engine.dataset();
                let ids: Vec<ObjectId> = match op {
                    WorkloadOp::Explain(ids) => ids.clone(),
                    _ => ds.iter().map(|o| o.id()).collect(),
                };
                explains += ids.len();
                // The serving executor: contiguous chunks, one planner
                // window per reader; concatenating the per-window
                // results restores workload order. Each explain
                // carries the CLI's budget limits.
                let requests: Vec<ExplainRequest> = ids
                    .iter()
                    .map(|&id| ExplainRequest::explain(q, id).with_limits(limits))
                    .collect();
                let outcomes: Vec<Result<CrpOutcome, CrpError>> =
                    fan_out(engine, &requests, readers)
                        .into_iter()
                        .flat_map(|window| window.per_request)
                        .flatten()
                        .collect();
                for (&object, outcome) in ids.iter().zip(&outcomes) {
                    match outcome {
                        Ok(out) => print_outcome(ds, object, out),
                        Err(CrpError::NotANonAnswer { prob }) => {
                            println!("{} is an ANSWER (Pr = {prob:.3})", label_of(ds, object))
                        }
                        Err(CrpError::Partial(progress)) => {
                            partials += 1;
                            println!("{}: {progress}", label_of(ds, object));
                        }
                        Err(e) => {
                            failures += 1;
                            println!("{}: {e}", label_of(ds, object));
                        }
                    }
                }
            }
        }
    }
    flush(&mut session, &mut pending, &mut batches)?;

    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let io = session
        .mvcc()
        .with_writer(|writer| writer.accumulated_io())
        .map_err(|e| e.to_string())?;
    println!(
        "replay of {updates} update(s) in {batches} batch(es) + {explains} explain call(s) \
         across {readers} reader(s) in {elapsed_ms:.1} ms \
         ({failures} failure(s), {partials} partial(s))"
    );
    if let Some(f) = &fault {
        println!("fault injection: {} vfs op(s) gated", f.op_count());
    }
    println!(
        "session totals: {} node accesses | updates: {} inserted, {} removed, {} reinserted",
        io.node_accesses, io.inserts, io.removes, io.reinserts
    );
    let counters = session.mvcc().counters();
    println!(
        "mvcc: {} snapshot(s) published, {} retired, {} live in ring, serving {}",
        counters.published, counters.retired, counters.live, counters.epoch
    );
    if let ReplaySession::Durable(durable) = &session {
        let manifest = durable.checkpoint().map_err(|e| e.to_string())?;
        println!(
            "wal: {} byte(s) in {}; checkpointed at {}",
            durable.wal_bytes(),
            durable.dir().display(),
            manifest.epoch
        );
    }
    if failures > 0 {
        return Err(format!("{failures} operation(s) failed"));
    }
    Ok(())
}

/// `sweep`: one planned request over a query grid × non-answer set ×
/// α list. The point of the subcommand is the plan report: how many
/// stage-1 work units and traversals the workload really needed and
/// how many tasks shared a unit's rows — the counters the `plan_sweep`
/// bench tracks, on the user's own data.
fn cmd_sweep(
    engine: &ExplainEngine,
    queries: Vec<Point>,
    objects: &[ObjectId],
    alphas: Vec<f64>,
    serial: bool,
    budget: u64,
) -> Result<(), String> {
    let ds = engine.dataset();
    let mut request = ExplainRequest::query_sweep(queries.clone(), objects)
        .with_alphas(alphas.clone())
        .with_check_budget(budget);
    if serial {
        request = request.serial();
    }
    let started = std::time::Instant::now();
    let report = engine.run(std::slice::from_ref(&request));
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut failures = 0usize;
    let mut results = report.results.iter();
    for (qi, q) in queries.iter().enumerate() {
        for &object in objects {
            for &alpha in &alphas {
                let outcome = results.next().expect("one result per task");
                let label = label_of(ds, object);
                match outcome {
                    Ok(out) => {
                        let top = out
                            .by_responsibility()
                            .first()
                            .map(|c| {
                                format!(
                                    "{} (1/{})",
                                    label_of(ds, c.id),
                                    c.min_contingency.len() + 1
                                )
                            })
                            .unwrap_or_else(|| "-".into());
                        println!(
                            "q#{qi} {q} α={alpha:<5} {label:<24} {} cause(s), top {top}",
                            out.causes.len()
                        );
                    }
                    Err(CrpError::NotANonAnswer { prob }) => {
                        println!("q#{qi} {q} α={alpha:<5} {label:<24} ANSWER (Pr = {prob:.3})");
                    }
                    Err(e) => {
                        failures += 1;
                        println!("q#{qi} {q} α={alpha:<5} {label:<24} {e}");
                    }
                }
            }
        }
    }
    println!("plan: {} in {elapsed_ms:.1} ms", report.counters);
    let io = engine.accumulated_io();
    println!("session totals: {} node accesses", io.node_accesses);
    if failures > 0 {
        return Err(format!("{failures} task(s) failed"));
    }
    Ok(())
}

fn parse_objects(raw: &str, ds: &UncertainDataset) -> Result<Vec<ObjectId>, String> {
    if raw == "all" {
        return Ok(ds.iter().map(|o| o.id()).collect());
    }
    raw.split(',')
        .map(|tok| {
            tok.trim()
                .parse::<u32>()
                .map(ObjectId)
                .map_err(|e| format!("bad object id {tok:?}: {e}"))
        })
        .collect()
}

fn cmd_generate(kind: &str, out: &str) -> Result<(), String> {
    let ds = match kind {
        "nba" => nba_dataset(&NbaConfig::default()),
        "cardb" => cardb_dataset(&CarDbConfig::default()),
        other => return Err(format!("unknown kind {other:?} (use nba|cardb)")),
    };
    write_season_records(&ds, out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} objects ({} records) to {out}",
        ds.len(),
        ds.total_samples()
    );
    Ok(())
}

/// The WAL-backed [`ServeBackend`] behind `crp serve --session-dir`:
/// every update batch is WAL-committed before its epoch is published,
/// and checkpoint compacts the log into a manifest. The mutex guards
/// the writer only; pinned snapshots read lock-free.
struct DurableBackend {
    session: Mutex<DurableSession<ExplainEngine>>,
}

impl DurableBackend {
    fn lock(&self) -> std::sync::MutexGuard<'_, DurableSession<ExplainEngine>> {
        self.session.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl ServeBackend for DurableBackend {
    fn pin(&self) -> Arc<dyn ErasedSnapshot> {
        self.lock().pin()
    }

    fn apply(&self, updates: Vec<Update<UncertainObject>>) -> Result<Epoch, String> {
        self.lock().apply_batch(updates).map_err(|e| e.to_string())
    }

    fn checkpoint(&self) -> Result<(), String> {
        self.lock()
            .checkpoint()
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// SIGINT/SIGTERM → a flag the serve loop polls, so ^C drains queued
/// windows and checkpoints instead of killing the process mid-batch.
/// The handler only stores to an atomic (async-signal-safe).
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

fn cmd_serve(cli: &Cli) -> Result<(), String> {
    let data = cli.require("--data", "FILE")?;
    let schema = cli.get("--schema").unwrap_or("points");
    let default_query = match cli.get("--query") {
        Some(raw) => Some(parse_query_point(raw)?),
        None => None,
    };
    let alpha: f64 = cli.parse("--alpha")?.unwrap_or(0.5);
    let ds = load(schema, data)?;
    if let (Some(q), Some(dim)) = (&default_query, ds.dim()) {
        if q.dim() != dim {
            return Err(format!(
                "query has {} attributes but the data has {dim}",
                q.dim()
            ));
        }
    }
    let serve_config = ServeConfig {
        addr: cli.get("--addr").unwrap_or("127.0.0.1:0").to_string(),
        window_max: cli.parse("--window-max")?.unwrap_or(16),
        window_ms: cli.parse("--window-ms")?.unwrap_or(4),
        queue_cap: cli.parse("--queue-cap")?.unwrap_or(64),
        default_query,
    };
    let objects = ds.len();
    let parallel = !cli.has("--serial");
    let make =
        move |ds: UncertainDataset| ExplainEngine::new(ds, cli_engine_config(alpha, parallel));
    let backend: Arc<dyn ServeBackend> = match cli.get("--session-dir") {
        Some(dir) => {
            let session = DurableSession::open(dir, ds, make).map_err(|e| e.to_string())?;
            let recovery = session.recovery();
            if !recovery.batches.is_empty() || recovery.truncated {
                println!(
                    "recovered {dir} at {}: {} committed WAL batch(es){}",
                    session.epoch(),
                    recovery.batches.len(),
                    if recovery.truncated {
                        ", torn tail dropped"
                    } else {
                        ""
                    }
                );
            }
            Arc::new(DurableBackend {
                session: Mutex::new(session),
            })
        }
        None => Arc::new(VolatileBackend::new(make(ds).map_err(|e| e.to_string())?)),
    };

    signals::install();
    let window_max = serve_config.window_max;
    let window_ms = serve_config.window_ms;
    let queue_cap = serve_config.queue_cap;
    let server = Server::start(backend, serve_config).map_err(|e| e.to_string())?;
    let stats = server.stats();
    println!(
        "serving on {} — {objects} object(s), window ≤{window_max} req / {window_ms} ms, \
         queue cap {queue_cap}",
        server.local_addr(),
    );
    // Tests and scripts scrape the port from this line; make sure it
    // crosses the pipe before the first connection arrives.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    while !signals::requested() && !server.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    server.request_shutdown();
    server.join();
    println!(
        "shutdown: {} window(s) over {} request(s), dedup {}%, {} shed, p50 {} µs, p99 {} µs",
        stats.windows(),
        stats.requests(),
        stats.dedup_pct(),
        stats.shed(),
        stats.quantile_us(50),
        stats.quantile_us(99),
    );
    Ok(())
}

fn print_wire_results(results: &[WireResult]) {
    for (i, result) in results.iter().enumerate() {
        match result {
            WireResult::Causes(causes) => {
                println!("task #{i}: NON-ANSWER, {} actual cause(s):", causes.len());
                for c in causes {
                    println!(
                        "  {:<8} responsibility {:.4}{}{}",
                        c.id.to_string(),
                        c.responsibility,
                        if c.counterfactual {
                            "  (counterfactual)"
                        } else {
                            ""
                        },
                        if c.contingency.is_empty() {
                            String::new()
                        } else {
                            format!(
                                "  contingency [{}]",
                                c.contingency
                                    .iter()
                                    .map(|id| id.to_string())
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            )
                        },
                    );
                }
            }
            WireResult::Answer { prob } => println!("task #{i}: ANSWER (Pr = {prob:.3})"),
            WireResult::Partial(p) => println!(
                "task #{i}: PARTIAL ({}) — {}/{} task(s), {} node(s), {} subset(s), \
                 {} bound check(s), {} ms",
                p.reason.as_str(),
                p.done,
                p.total,
                p.nodes,
                p.subsets,
                p.bound_checks,
                p.ms,
            ),
            WireResult::Failed { message } => println!("task #{i}: FAILED — {message}"),
        }
    }
}

fn cmd_client(cli: &Cli) -> Result<(), String> {
    let addr = cli.require("--addr", "HOST:PORT")?;
    let class: ClientClass = cli
        .get("--class")
        .unwrap_or("interactive")
        .parse()
        .map_err(|e| format!("bad --class: {e}"))?;
    let (mut client, epoch) = Client::connect_as(addr, class).map_err(|e| e.to_string())?;
    println!("connected to {addr} (serving {epoch})");
    let mut acted = false;
    if let Some(file) = cli.get("--update") {
        let ops = load_workload(file).map_err(|e| e.to_string())?;
        let mut updates = Vec::new();
        for op in ops {
            match op {
                WorkloadOp::Update(u) => updates.push(u),
                WorkloadOp::Explain(_) | WorkloadOp::ExplainAll => {
                    return Err(format!(
                        "{file}: only insert/replace/delete ops can ride --update \
                         (explains go through --objects)"
                    ));
                }
            }
        }
        let (epoch, count) = client.update(updates).map_err(|e| e.to_string())?;
        println!("applied {count} update(s) → {epoch}");
        acted = true;
    }
    if let Some(raw) = cli.get("--objects") {
        let query = match cli.get("--query") {
            Some(raw) => Some(parse_query_point(raw)?),
            None => None,
        };
        let alphas = match cli.get("--alphas") {
            Some(raw) => parse_alphas(raw)?,
            None => Vec::new(),
        };
        let reply = if raw == "all" {
            client.explain_all(query.as_ref(), &alphas)
        } else {
            let ids = raw
                .split(',')
                .map(|tok| {
                    tok.trim()
                        .parse::<u32>()
                        .map(ObjectId)
                        .map_err(|e| format!("bad object id {tok:?}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            client.explain(&ids, query.as_ref(), &alphas)
        };
        let (epoch, results) = reply.map_err(|e| e.to_string())?;
        println!("{} result(s) at {epoch}:", results.len());
        print_wire_results(&results);
        acted = true;
    }
    if let Some(raw) = cli.get("--candidates") {
        let an = ObjectId(raw.parse().map_err(|e| format!("bad --candidates: {e}"))?);
        let q = parse_query_point(cli.require("--query", "a1,a2,… (--candidates needs one)")?)?;
        let ids = client.candidates(&q, an).map_err(|e| e.to_string())?;
        println!(
            "{} stage-1 candidate(s) for {an}: [{}]",
            ids.len(),
            ids.iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        acted = true;
    }
    if cli.has("--stats") {
        for (key, value) in client.stats().map_err(|e| e.to_string())? {
            println!("{key:>16} {value}");
        }
        acted = true;
    }
    if cli.has("--shutdown") {
        client.shutdown().map_err(|e| e.to_string())?;
        println!("server is shutting down");
        acted = true;
    }
    if !acted {
        return Err(
            "client needs an action: --update, --objects, --candidates, --stats, or --shutdown"
                .into(),
        );
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    match cli.command.as_str() {
        "generate" => {
            let kind = cli.require("--kind", "nba|cardb")?;
            let out = cli.require("--out", "FILE")?;
            cmd_generate(kind, out)
        }
        "serve" => cmd_serve(&cli),
        "client" => cmd_client(&cli),
        "query" | "explain" | "explain-batch" | "sweep" | "replay" => {
            let data = cli.require("--data", "FILE")?;
            let schema = cli.get("--schema").unwrap_or("points");
            let q = parse_query_point(cli.require("--query", "a1,a2,…")?)?;
            let alpha: f64 = cli.parse("--alpha")?.unwrap_or(0.5);
            let ds = load(schema, data)?;
            if ds.dim() != Some(q.dim()) {
                return Err(format!(
                    "query has {} attributes but the data has {:?}",
                    q.dim(),
                    ds.dim()
                ));
            }
            if cli.command == "query" {
                return cmd_query(&ds, &q, alpha);
            }
            let given_budget: Option<u64> = cli.parse("--budget-checks")?;
            let budget = given_budget.unwrap_or(PlanLimits::DEFAULT_MAX_CHECKS);
            if cli.command == "replay" {
                let ops =
                    load_workload(cli.require("--workload", "FILE")?).map_err(|e| e.to_string())?;
                let readers = cli.parse::<usize>("--readers")?.unwrap_or(0);
                let session_dir = cli.get("--session-dir");
                let limits = PlanLimits {
                    deadline_ms: cli.parse("--deadline-ms")?,
                    max_node_accesses: cli.parse("--budget-nodes")?,
                    max_checks: given_budget,
                };
                let inject = cli.parse::<FaultSpec>("--inject")?;
                if inject.is_some() && session_dir.is_none() {
                    return Err(
                        "--inject requires --session-dir (faults target the durability path)"
                            .into(),
                    );
                }
                // The path follows the flags the user gave; the default
                // check cap alone keeps the in-place session.
                if readers > 0 || session_dir.is_some() || !limits.is_unlimited() {
                    let config = cli_engine_config(alpha, !cli.has("--serial"));
                    let limits = PlanLimits {
                        max_checks: Some(budget),
                        ..limits
                    };
                    return cmd_replay_mvcc(
                        ds,
                        &q,
                        &ops,
                        readers.max(1),
                        session_dir,
                        config,
                        limits,
                        inject,
                    );
                }
                let mut engine = build_engine(ds, alpha, !cli.has("--serial"))?;
                return cmd_replay(&mut engine, &q, &ops, budget);
            }
            if cli.command == "sweep" {
                let raw = cli.require("--objects", "ID,ID,… (or 'all')")?;
                let objects = parse_objects(raw, &ds)?;
                let alphas = match cli.get("--alphas") {
                    Some(raw) => parse_alphas(raw)?,
                    None => vec![alpha],
                };
                let queries = match cli.get("--q-grid") {
                    Some(raw) => parse_q_grid(raw, &q)?,
                    None => vec![q.clone()],
                };
                let engine = build_engine(ds, alpha, !cli.has("--serial"))?;
                let serial = cli.has("--serial");
                return cmd_sweep(&engine, queries, &objects, alphas, serial, budget);
            }
            if cli.command == "explain" {
                let id = ObjectId(
                    cli.require("--object", "ID")?
                        .parse()
                        .map_err(|e| format!("bad --object: {e}"))?,
                );
                let engine = build_engine(ds, alpha, true)?;
                cmd_explain(&engine, &q, id, budget)
            } else {
                let raw = cli.require("--objects", "ID,ID,… (or 'all')")?;
                let ids = parse_objects(raw, &ds)?;
                let engine = build_engine(ds, alpha, !cli.has("--serial"))?;
                cmd_explain_batch(&engine, &q, &ids, budget)
            }
        }
        _ => unreachable!("parse_cli rejects unknown commands"),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_cli, parse_query_point};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn query_point_parsing() {
        assert_eq!(
            parse_query_point("1, 2.5,3").unwrap().coords(),
            &[1.0, 2.5, 3.0]
        );
        assert!(parse_query_point("").is_err());
        assert!(parse_query_point("1,x").is_err());
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        // A typo'd flag is an error, not a silent no-op.
        let err = parse_cli(&args(&[
            "explain", "--data", "x.csv", "--query", "1,2", "--aplha", "0.5",
        ]))
        .unwrap_err();
        assert!(err.contains("--aplha"), "{err}");
        // A flag from another subcommand is rejected too.
        let err = parse_cli(&args(&["query", "--data", "x.csv", "--object", "3"])).unwrap_err();
        assert!(err.contains("--object"), "{err}");
        // Unknown subcommands are rejected with usage.
        let err = parse_cli(&args(&["frobnicate"])).unwrap_err();
        assert!(err.contains("usage"), "{err}");
        // Missing values are rejected.
        let err = parse_cli(&args(&["explain", "--data"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        // Duplicate flags are rejected.
        let err = parse_cli(&args(&["explain", "--data", "a.csv", "--data", "b.csv"])).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        // The CPU picks the compute kernels: no command takes `--kernel`.
        for command in [
            "explain",
            "explain-batch",
            "sweep",
            "replay",
            "serve",
            "query",
            "generate",
        ] {
            let err = parse_cli(&args(&[command, "--kernel", "scalar"])).unwrap_err();
            assert!(err.contains("--kernel"), "{command}: {err}");
        }
    }

    #[test]
    fn filter_flag_parsing() {
        // Stage 1 always reads the packed image: no command takes a
        // filter representation, whatever the value.
        for command in [
            "query",
            "explain",
            "explain-batch",
            "sweep",
            "replay",
            "serve",
            "client",
            "generate",
        ] {
            for value in ["auto", "pointer", "packed"] {
                assert!(
                    parse_cli(&args(&[command, "--filter", value])).is_err(),
                    "{command} --filter {value}"
                );
            }
        }
    }

    #[test]
    fn serve_flag_parsing() {
        // The full serving surface parses: engine flags + tuning +
        // multi-process stage-1.
        let cli = parse_cli(&args(&[
            "serve",
            "--data",
            "x.csv",
            "--query",
            "5,5",
            "--alpha",
            "0.6",
            "--addr",
            "127.0.0.1:0",
            "--window-max",
            "32",
            "--window-ms",
            "2",
            "--queue-cap",
            "128",
            "--session-dir",
            "state",
        ]))
        .unwrap();
        assert_eq!(cli.get("--addr"), Some("127.0.0.1:0"));
        assert_eq!(cli.parse::<usize>("--window-max").unwrap(), Some(32));
        assert_eq!(cli.parse::<u64>("--window-ms").unwrap(), Some(2));
        assert_eq!(cli.parse::<usize>("--queue-cap").unwrap(), Some(128));
        assert_eq!(cli.get("--session-dir"), Some("state"));
        // Serving tuning is rejected on non-serving subcommands, and
        // vice versa for replay-only flags.
        assert!(parse_cli(&args(&["explain", "--window-max", "8"])).is_err());
        assert!(parse_cli(&args(&["serve", "--workload", "ops"])).is_err());
        assert!(parse_cli(&args(&["serve", "--readers", "4"])).is_err());
        // Missing values and duplicates stay errors here too.
        assert!(parse_cli(&args(&["serve", "--addr"])).is_err());
        assert!(parse_cli(&args(&["serve", "--addr", "a:1", "--addr", "b:2"])).is_err());
    }

    #[test]
    fn client_flag_parsing() {
        // One connection, every verb expressible.
        let cli = parse_cli(&args(&[
            "client",
            "--addr",
            "127.0.0.1:4820",
            "--class",
            "best-effort",
            "--objects",
            "4,7",
            "--query",
            "5,5",
            "--alphas",
            "0.3,0.7",
            "--stats",
        ]))
        .unwrap();
        assert_eq!(cli.get("--addr"), Some("127.0.0.1:4820"));
        assert_eq!(cli.get("--class"), Some("best-effort"));
        assert_eq!(cli.get("--objects"), Some("4,7"));
        assert!(cli.has("--stats"));
        assert!(!cli.has("--shutdown"));
        // --stats / --shutdown are bare flags: a trailing value is a
        // stray positional and gets rejected.
        assert!(parse_cli(&args(&["client", "--addr", "a:1", "--stats", "yes"])).is_err());
        // The engine-side flags don't leak into the client.
        assert!(parse_cli(&args(&["client", "--addr", "a:1", "--data", "x.csv"])).is_err());
        // --candidates takes the non-answer id.
        let cli = parse_cli(&args(&[
            "client",
            "--addr",
            "a:1",
            "--candidates",
            "42",
            "--query",
            "5,5",
        ]))
        .unwrap();
        assert_eq!(cli.get("--candidates"), Some("42"));
    }

    #[test]
    fn sweep_flag_parsing() {
        use super::{parse_alphas, parse_q_grid};
        use prsq_crp::prelude::Point;
        // The sweep subcommand accepts the workload flags.
        let cli = parse_cli(&args(&[
            "sweep",
            "--data",
            "x.csv",
            "--query",
            "5,5",
            "--objects",
            "all",
            "--alphas",
            "0.3,0.5,0.7",
            "--q-grid",
            "1:1,2.5:2.5",
            "--serial",
        ]))
        .unwrap();
        assert_eq!(cli.get("--alphas"), Some("0.3,0.5,0.7"));
        assert_eq!(cli.get("--q-grid"), Some("1:1,2.5:2.5"));
        assert!(cli.has("--serial"));

        // Value parsing: α lists and offset grids, strictly validated.
        assert_eq!(parse_alphas("0.3, 0.5").unwrap(), vec![0.3, 0.5]);
        assert!(parse_alphas("0.3,x").unwrap_err().contains("--alphas"));
        let base = Point::from([5.0, 5.0]);
        let grid = parse_q_grid("1:1,-2:0.5", &base).unwrap();
        assert_eq!(grid.len(), 3, "base point + two offsets");
        assert_eq!(grid[0].coords(), &[5.0, 5.0]);
        assert_eq!(grid[1].coords(), &[6.0, 6.0]);
        assert_eq!(grid[2].coords(), &[3.0, 5.5]);
        // Wrong arity and junk are errors, not silent truncation.
        assert!(parse_q_grid("1:1:1", &base).unwrap_err().contains("offset"));
        assert!(parse_q_grid("1:x", &base).unwrap_err().contains("--q-grid"));

        // Sweep-only flags are rejected elsewhere; --object is not a
        // sweep flag (sweeps take --objects).
        assert!(parse_cli(&args(&["explain", "--alphas", "0.5"])).is_err());
        assert!(parse_cli(&args(&["explain-batch", "--q-grid", "1:1"])).is_err());
        assert!(parse_cli(&args(&["query", "--alphas", "0.5"])).is_err());
        assert!(parse_cli(&args(&["sweep", "--object", "3"])).is_err());
        assert!(parse_cli(&args(&["sweep", "--workload", "ops.txt"])).is_err());
    }

    #[test]
    fn replay_flag_parsing() {
        // The replay subcommand accepts the workload flags.
        let cli = parse_cli(&args(&[
            "replay",
            "--data",
            "x.csv",
            "--workload",
            "ops.txt",
            "--serial",
        ]))
        .unwrap();
        assert_eq!(cli.get("--workload"), Some("ops.txt"));
        assert!(cli.has("--serial"));
        // --workload belongs to replay only.
        assert!(parse_cli(&args(&["explain", "--workload", "ops.txt"])).is_err());
        assert!(parse_cli(&args(&["query", "--workload", "ops.txt"])).is_err());
        // --object belongs to explain, not replay.
        assert!(parse_cli(&args(&["replay", "--object", "3"])).is_err());
    }

    #[test]
    fn mvcc_replay_flag_parsing() {
        // --readers / --session-dir are replay flags and take values.
        let cli = parse_cli(&args(&[
            "replay",
            "--workload",
            "ops.txt",
            "--readers",
            "4",
            "--session-dir",
            "state",
        ]))
        .unwrap();
        assert_eq!(cli.parse::<usize>("--readers").unwrap(), Some(4));
        assert_eq!(cli.get("--session-dir"), Some("state"));
        // A non-numeric reader count fails at parse, not silently as 0.
        let cli = parse_cli(&args(&["replay", "--readers", "many"])).unwrap();
        assert!(cli.parse::<usize>("--readers").is_err());
        // Both flags need a value…
        assert!(parse_cli(&args(&["replay", "--readers"])).is_err());
        assert!(parse_cli(&args(&["replay", "--session-dir"])).is_err());
        // …and belong to replay only.
        for flag in [&["--readers", "4"][..], &["--session-dir", "state"][..]] {
            for command in ["query", "explain", "explain-batch", "sweep", "generate"] {
                let mut argv = vec![command];
                argv.extend_from_slice(flag);
                assert!(parse_cli(&args(&argv)).is_err(), "{command} {flag:?}");
            }
        }
    }

    #[test]
    fn fault_and_budget_flag_parsing() {
        use prsq_crp::data::FaultSpec;

        // All four flags parse on replay, and the typed values come out.
        let cli = parse_cli(&args(&[
            "replay",
            "--workload",
            "ops.txt",
            "--inject",
            "seed=7,eio-every=100,torn-at=42",
            "--deadline-ms",
            "250",
            "--budget-nodes",
            "5000",
            "--budget-checks",
            "100000",
        ]))
        .unwrap();
        let spec = cli.parse::<FaultSpec>("--inject").unwrap().unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.eio_every, Some(100));
        assert_eq!(spec.torn_at, Some(42));
        assert_eq!(spec.enospc_at, None);
        assert_eq!(cli.parse::<u64>("--deadline-ms").unwrap(), Some(250));
        assert_eq!(cli.parse::<u64>("--budget-nodes").unwrap(), Some(5000));
        assert_eq!(cli.parse::<u64>("--budget-checks").unwrap(), Some(100_000));

        // Bad values fail at parse with the flag named — never silently.
        let cli = parse_cli(&args(&["replay", "--inject", "eio-every=3"])).unwrap();
        assert!(
            cli.parse::<FaultSpec>("--inject")
                .unwrap_err()
                .contains("seed"),
            "an injection schedule without a seed is not reproducible"
        );
        let cli = parse_cli(&args(&["replay", "--inject", "seed=1,frobnicate=2"])).unwrap();
        assert!(cli.parse::<FaultSpec>("--inject").is_err());
        let cli = parse_cli(&args(&["replay", "--deadline-ms", "soon"])).unwrap();
        assert!(cli.parse::<u64>("--deadline-ms").is_err());
        let cli = parse_cli(&args(&["replay", "--budget-nodes", "-1"])).unwrap();
        assert!(cli.parse::<u64>("--budget-nodes").is_err());

        // Every one of them takes a value…
        for flag in [
            "--inject",
            "--deadline-ms",
            "--budget-nodes",
            "--budget-checks",
        ] {
            assert!(parse_cli(&args(&["replay", flag])).is_err(), "{flag}");
        }
        // …and belongs to replay only.
        for flag in [
            &["--inject", "seed=1"][..],
            &["--deadline-ms", "100"][..],
            &["--budget-nodes", "10"][..],
        ] {
            for command in ["query", "explain", "explain-batch", "sweep", "generate"] {
                let mut argv = vec![command];
                argv.extend_from_slice(flag);
                assert!(parse_cli(&args(&argv)).is_err(), "{command} {flag:?}");
            }
        }
    }

    #[test]
    fn one_subset_budget_flag() {
        // --budget-checks is the one work cap of every explaining
        // command…
        for command in ["explain", "explain-batch", "sweep", "replay"] {
            let cli = parse_cli(&args(&[command, "--budget-checks", "7"])).unwrap();
            assert_eq!(cli.parse::<u64>("--budget-checks").unwrap(), Some(7));
            assert!(parse_cli(&args(&[command, "--budget-checks"])).is_err());
        }
        for command in ["query", "serve", "client", "generate"] {
            assert!(parse_cli(&args(&[command, "--budget-checks", "7"])).is_err());
        }
        // …and the old per-explain flag is gone everywhere.
        for command in ["explain", "explain-batch", "sweep", "replay", "serve"] {
            let argv = format!("{command} --budget 5");
            let argv: Vec<&str> = argv.split(' ').collect();
            assert!(parse_cli(&args(&argv)).is_err(), "{argv:?}");
        }
    }
}
