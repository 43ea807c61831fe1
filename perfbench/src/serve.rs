//! `serve_rw`: the serving stack over real TCP, reads beside writes.
//!
//! It starts `Server::start` in-process with the deployed
//! `ServeConfig` defaults (window 16 / 4 ms, queue cap 64) over a
//! `DurableSession` in a fresh directory — the `crp serve
//! --session-dir` configuration — on the 20k-object serving fixture,
//! and drives it from two connections, a reader and a dedicated
//! writer, one generator thread each. The run alternates two phases
//! in segments of [`SEGMENT_SECS`]: open loop, Poisson reads at
//! [`READ_RATE`] beside single updates at [`WRITE_RATE`], shaped so
//! that the tails time commits (see [`open_schedule`]); then closed
//! loop, [`DEPTH`] reads in flight with the writer idle. The whole run
//! shares one CPU (see [`run`]).

use crate::fixture::{dataset, engine_config, point_key, warm, Grid, UpdateSource};
use crate::loadgen::{poisson, Conn, Mode, Sent};
use crate::trace::{
    plan_layers, split_stage1, wire_layers, wire_result, write_layers, Decomposed, Layers,
    Recorder, TracedBackend,
};
use crate::util::{
    mean, median, peak_rss_mb, pin_to_current_cpu, quantile, setup_median, sub_seed, SetupTimes,
    Spinner,
};
use crate::{Args, Outcome};
use crp_core::{ExplainEngine, ExplainRequest, ExplainSession};
use crp_data::wire::{Request, Response, WireResult};
use crp_serve::{ErasedSnapshot, ServeBackend, ServeConfig, Server};
use crp_uncertain::{Epoch, ObjectId, UncertainDataset, UncertainObject, Update};
use prsq_crp::DurableSession;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CARDINALITY: usize = 20_000;
const SETUPS: usize = 5;
/// Explains sent through the server at the end of every set-up.
const WARMUP_EXPLAINS: usize = 32;
/// The open-loop Poisson read rate. Writes stall the one collector for
/// 25–60 ms at a time and reads queue behind them; the explains in
/// flight must stay below the first admission load step (16). See
/// README.md, "Rates are frozen".
const READ_RATE: f64 = 120.0;
/// The single-update rate beside the reads. Each group commit holds
/// the collector for 25–40 ms, so the writes take a quarter to a third
/// of its time; the share of reads that wait behind one stays below a
/// half, and the median read stays a read.
const WRITE_RATE: f64 = 8.0;
/// Every second update is chased by an explain this many milliseconds
/// behind it, as a client reading right after its write: past the
/// update's 4 ms group-commit wait, so the explain usually waits for
/// the whole commit.
const CHASE_GAP_MS: f64 = 5.0;
/// Every `FOLLOW_EVERY`-th update has a second update this many
/// milliseconds behind it, as two writers at once: past the first
/// one's group-commit window (a read window of up to 5 ms, then 4 ms),
/// so it waits for the first commit and then pays its own.
const FOLLOW_GAP_MS: f64 = 12.0;
const FOLLOW_EVERY: usize = 8;
/// A run alternates open-loop and closed-loop phases in segments of
/// about this many seconds, so every metric samples the whole run.
const SEGMENT_SECS: f64 = 7.0;
/// Share of each segment in the open-loop phase; the closed-loop phase
/// takes the rest.
const OPEN_SHARE: f64 = 0.75;
/// Requests in flight in the closed-loop phase: just below the first
/// admission load step (a quarter of the queue cap, 16), so every
/// window runs under the same budget, and as many requests as that
/// allows share each window's timer and thread wake-ups.
const DEPTH: usize = 15;
/// Grid indices at and past this are reserved for set-up warm-up.
const WARMUP_BASE: usize = 900_000;

/// `crp serve --session-dir`'s backend: every batch is WAL-committed
/// before its epoch is published; the mutex guards the writer only.
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

struct Running {
    /// The run seed (arrival schedules derive from it).
    seed: u64,
    backend: Arc<DurableBackend>,
    dir: PathBuf,
    server: Server,
    rec: Option<Arc<Recorder>>,
    reader: Conn,
    writer: Conn,
    /// Warm-up replies: (grid index, reply).
    warmup: Vec<(usize, Response)>,
}

impl Running {
    /// Shuts the server down (it drains and checkpoints); returns the
    /// session directory.
    fn stop(self) -> PathBuf {
        drop(self.reader);
        drop(self.writer);
        self.server.request_shutdown();
        self.server.join();
        self.dir
    }

    fn published(&self) -> UncertainDataset {
        self.backend
            .pin()
            .discrete_dataset()
            .expect("discrete session")
            .clone()
    }
}

fn setup(
    args: &Args,
    work: &Path,
    grid: &Grid,
    rep: usize,
) -> Result<(Running, SetupTimes), String> {
    let t0 = Instant::now();
    let ds = dataset(CARDINALITY, args.seed);
    let t1 = Instant::now();
    let mut build = Duration::ZERO;
    let make = |ds: UncertainDataset| {
        let t = Instant::now();
        let engine = ExplainEngine::new(ds, engine_config())?;
        warm(&engine);
        build = t.elapsed();
        Ok(engine)
    };
    let dir = work.join(format!("serve_rw-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = DurableSession::open(&dir, ds, make).map_err(|e| e.to_string())?;
    let durable = Arc::new(DurableBackend {
        session: Mutex::new(session),
    });
    let rec = args.trace.then(|| Arc::new(Recorder::default()));
    let backend: Arc<dyn ServeBackend> = match &rec {
        Some(rec) => {
            let live = Arc::clone(&durable);
            Arc::new(TracedBackend::new(
                Arc::clone(&durable) as Arc<dyn ServeBackend>,
                Arc::clone(rec),
                Box::new(move || live.lock().counters().live),
            ))
        }
        None => Arc::clone(&durable) as Arc<dyn ServeBackend>,
    };
    let server = Server::start(backend, ServeConfig::default()).map_err(|e| e.to_string())?;
    let mut reader = Conn::open(server.local_addr())?;
    let writer = Conn::open(server.local_addr())?;
    let mut warmup = Vec::with_capacity(WARMUP_EXPLAINS);
    for k in WARMUP_BASE..WARMUP_BASE + WARMUP_EXPLAINS {
        warmup.push((k, reader.call(&explain(grid, k))?));
    }
    let t2 = Instant::now();
    let times = SetupTimes {
        total: (t2 - t0).as_secs_f64(),
        generate: (t1 - t0).as_secs_f64(),
        build: build.as_secs_f64(),
        start: (t2 - t1).as_secs_f64() - build.as_secs_f64(),
    };
    Ok((
        Running {
            seed: args.seed,
            backend: durable,
            dir,
            server,
            rec,
            reader,
            writer,
            warmup,
        },
        times,
    ))
}

fn explain(grid: &Grid, k: usize) -> Request {
    let (q, an) = grid.request(k);
    Request::Explain {
        ids: vec![an],
        all: false,
        query: Some(q),
        alphas: Vec::new(),
    }
}

/// The logs of one pass over the workload's phases.
struct Pass {
    open_reads: Vec<Sent>,
    closed_reads: Vec<Sent>,
    closed_secs: f64,
    writes: Vec<Sent>,
    /// Peak RSS once the reads and writes finished.
    rss_mb: f64,
}

impl Pass {
    /// Open-loop explain latencies, from intended send time.
    fn read_latencies(&self) -> Vec<f64> {
        self.open_reads
            .iter()
            .filter_map(Sent::latency_ms)
            .collect()
    }

    /// Update latencies, from intended send time.
    fn update_latencies(&self) -> Vec<f64> {
        self.writes.iter().filter_map(Sent::latency_ms).collect()
    }

    /// Closed-loop explains answered per second.
    fn closed_rate(&self) -> f64 {
        self.closed_reads
            .iter()
            .filter(|s| s.done.is_some())
            .count() as f64
            / self.closed_secs
    }
}

/// One open-loop phase's due times, in seconds from its start: reads
/// (Poisson, plus one [`CHASE_GAP_MS`] behind every second update) and
/// updates (every `1 / WRITE_RATE` s, plus one [`FOLLOW_GAP_MS`] behind
/// every [`FOLLOW_EVERY`]-th).
///
/// The two extras shape the tails. A commit holds the one collector
/// for 25–60 ms, and the slowest reads and updates are the ones that
/// wait for a whole commit. Left to chance, they are too few: p99 and
/// p95 then time whichever commits the host happened to preempt.
/// Chasers are about 3 % of the reads and followers about 11 % of the
/// updates, so the slowest percent of reads and the slowest 5 % of
/// updates are ones that waited for whole commits, and
/// `explain_p99_ms` and `update_p95_ms` time commits more than
/// preemptions.
fn open_schedule(secs: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut reads = poisson(READ_RATE, secs, seed);
    let mut writes = Vec::new();
    for k in 0..(secs * WRITE_RATE).ceil() as usize {
        let t = k as f64 / WRITE_RATE;
        writes.push(t);
        if k % 2 == 0 {
            reads.push(t + CHASE_GAP_MS / 1e3);
        }
        if k % FOLLOW_EVERY == FOLLOW_EVERY / 2 {
            writes.push(t + FOLLOW_GAP_MS / 1e3);
        }
    }
    reads.sort_by(f64::total_cmp);
    (reads, writes)
}

/// One pass: segments of open-loop reads beside paced writes, each
/// followed by closed-loop reads with the writer idle.
fn pass(
    run: &mut Running,
    grid: &Grid,
    updates: &[Update<UncertainObject>],
    secs: f64,
    next_read: &mut usize,
    next_write: &mut usize,
) -> Result<Pass, String> {
    let segments = (secs / SEGMENT_SECS).round().max(1.0);
    let (open_secs, closed_secs) = (
        OPEN_SHARE * secs / segments,
        (1.0 - OPEN_SHARE) * secs / segments,
    );
    let mut out = Pass {
        open_reads: Vec::new(),
        closed_reads: Vec::new(),
        closed_secs: 0.0,
        writes: Vec::new(),
        rss_mb: 0.0,
    };
    let update = |k: usize| Request::Update {
        updates: vec![updates[k].clone()],
    };
    for _ in 0..segments as usize {
        let (read_due, write_due) = open_schedule(open_secs, sub_seed(run.seed, *next_read as u64));
        let start = Instant::now();
        let (reader, writer) = (&mut run.reader, &mut run.writer);
        let (first_read, first_write) = (*next_read, *next_write);
        let (reads, writes) = std::thread::scope(|scope| {
            let writes = scope.spawn(|| {
                writer.run(
                    Mode::Open {
                        start,
                        due: write_due,
                    },
                    first_write,
                    update,
                )
            });
            let reads = reader.run(
                Mode::Open {
                    start,
                    due: read_due,
                },
                first_read,
                |k| explain(grid, k),
            );
            (reads, writes.join().expect("writer thread"))
        });
        let (reads, writes) = (reads?, writes?);
        *next_read += reads.len();
        *next_write += writes.len();
        out.open_reads.extend(reads);
        out.writes.extend(writes);

        let t = Instant::now();
        let reads = run.reader.run(
            Mode::Closed {
                depth: DEPTH,
                until: t + Duration::from_secs_f64(closed_secs),
            },
            *next_read,
            |k| explain(grid, k),
        )?;
        out.closed_secs += reads
            .iter()
            .filter_map(|s| s.done)
            .max()
            .map_or(closed_secs, |d| (d - t).as_secs_f64());
        *next_read += reads.len();
        out.closed_reads.extend(reads);
    }
    out.rss_mb = peak_rss_mb();
    Ok(out)
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    // The whole run (server, generator, verification) shares one CPU,
    // which an idle-priority spin loop keeps from halting while the
    // server runs. A halted vCPU is woken through the hypervisor's
    // scheduler; on a shared host that wake-up, paid several times per
    // request, measured the host's load rather than the program. See
    // README.md, "One busy CPU".
    pin_to_current_cpu()?;
    let spinner = Spinner::start();
    // Input selection, outside set-up: the query grid and the update
    // stream depend only on the seeded dataset.
    let ds0 = dataset(CARDINALITY, args.seed);
    let grid = {
        let engine = ExplainEngine::new(ds0.clone(), engine_config()).map_err(|e| e.to_string())?;
        Grid::select(engine.dataset(), engine.object_tree(), args.seed)
    };
    let mut source =
        UpdateSource::new(&ds0, grid.region.clone(), &grid.ans, sub_seed(args.seed, 7));
    let updates: Vec<Update<UncertainObject>> = (0..(WRITE_RATE * args.seconds * 1.2) as usize
        + 64)
        .map(|_| source.next_update())
        .collect();

    let mut times = Vec::with_capacity(SETUPS);
    let mut kept: Option<Running> = None;
    for rep in 0..SETUPS {
        if let Some(done) = kept.take() {
            let _ = std::fs::remove_dir_all(done.stop());
        }
        let (running, t) = setup(args, work, &grid, rep)?;
        times.push(t);
        kept = Some(running);
    }
    let mut running = kept.expect("at least one setup");
    let epoch0 = running.backend.pin().epoch();

    let (mut next_read, mut next_write) = (0usize, 0usize);
    let mut metrics = Layers::new();
    let mut passes = Vec::new();
    let mut applies = Vec::new();
    let mut trace_mismatches = Vec::new();
    if let Some(rec) = running.rec.clone() {
        let half = args.seconds / 2.0;
        passes.push(pass(
            &mut running,
            &grid,
            &updates,
            half,
            &mut next_read,
            &mut next_write,
        )?);
        rec.set_enabled(true);
        passes.push(pass(
            &mut running,
            &grid,
            &updates,
            half,
            &mut next_read,
            &mut next_write,
        )?);
        rec.set_enabled(false);
        let plain = &passes[0];
        let traced = &passes[1];
        let p50 = |p: &Pass| {
            median(
                &p.open_reads
                    .iter()
                    .filter_map(Sent::latency_ms)
                    .collect::<Vec<_>>(),
            )
        };
        metrics.insert(
            "trace.overhead_pct",
            100.0 * (p50(traced) - p50(plain)) / p50(plain),
        );
        applies = span_layers(traced, &grid, &rec, &mut metrics, &mut trace_mismatches)?;
    } else {
        passes.push(pass(
            &mut running,
            &grid,
            &updates,
            args.seconds,
            &mut next_read,
            &mut next_write,
        )?);
    }
    drop(spinner);
    // ---- verification ----
    let mut reads: Vec<(usize, &Response, bool)> =
        running.warmup.iter().map(|(k, r)| (*k, r, false)).collect();
    let mut writes: Vec<&Sent> = Vec::new();
    for p in &passes {
        for s in p.open_reads.iter().chain(&p.closed_reads) {
            if let Some(reply) = &s.reply {
                reads.push((s.input, reply, true));
            }
        }
        writes.extend(&p.writes);
    }
    let mut check = Check {
        mismatches: trace_mismatches,
        capture_at: applies.first().map(|a| a.start_epoch),
        ..Check::default()
    };
    let replay = verify(
        &ds0, epoch0, &grid, &reads, &writes, &updates, args.trace, &mut check,
    )?;
    let published = running.published();
    if published.epoch() != replay.epoch() || published.objects() != replay.objects() {
        check.mismatches.push(format!(
            "served dataset at {} differs from the replay at {}",
            published.epoch(),
            replay.epoch()
        ));
    }
    let (recovered, _) = crp_data::wal::recover_session(&running.dir).map_err(|e| e.to_string())?;
    if recovered.epoch() != replay.epoch() || recovered.objects() != replay.objects() {
        check.mismatches.push(format!(
            "WAL recovery landed on {}, last acked epoch {}",
            recovered.epoch(),
            replay.epoch()
        ));
    }
    {
        let dir = running.stop();
        let reopened = DurableSession::open(&dir, UncertainDataset::new(), |d| {
            ExplainEngine::new(d, engine_config())
        })
        .map_err(|e| e.to_string())?;
        let ds = reopened.pin().engine().dataset().clone();
        if ds.epoch() != replay.epoch() || ds.objects() != replay.objects() {
            check.mismatches.push(format!(
                "reopened session at {}, last acked epoch {}",
                ds.epoch(),
                replay.epoch()
            ));
        }
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- metrics ----
    let last = passes.last().expect("at least one pass");
    let depths: Vec<f64> = last.open_reads.iter().map(|s| s.in_flight as f64).collect();
    let attempted = passes
        .iter()
        .map(|p| p.open_reads.len() + p.closed_reads.len() + p.writes.len())
        .sum::<usize>() as u64;
    if args.trace {
        metrics.insert("data.generate_s", setup_median(&times, |t| t.generate));
        metrics.insert("rtree.build_s", setup_median(&times, |t| t.build));
        metrics.insert("serve.start_s", setup_median(&times, |t| t.start));
        metrics.insert("serve.shed", check.shed as f64);
        metrics.insert("serve.partial", check.partial as f64);
        metrics.insert("filter.stage1_ms", mean(&check.stage1_ms));
        metrics.insert("fmcs.self_ms", mean(&check.fmcs_ms));
        let replies: Vec<Response> = last
            .open_reads
            .iter()
            .filter_map(|s| s.reply.clone())
            .collect();
        wire_layers(&replies, &mut metrics);
        let batches: Vec<Vec<Update<UncertainObject>>> =
            applies.into_iter().map(|a| a.batch).collect();
        let base = check
            .captured
            .take()
            .ok_or("the replay never reached the first traced batch")?;
        write_layers(&base, &batches, work, &mut metrics)?;
    } else {
        let (reads, writes) = (last.read_latencies(), last.update_latencies());
        metrics.insert("setup_s", setup_median(&times, |t| t.total));
        metrics.insert("peak_rss_mb", last.rss_mb);
        metrics.insert("explain_p50_ms", quantile(&reads, 0.5));
        metrics.insert("explain_p99_ms", quantile(&reads, 0.99));
        metrics.insert("explains_per_s", last.closed_rate());
        metrics.insert("update_p50_ms", quantile(&writes, 0.5));
        metrics.insert("update_p95_ms", quantile(&writes, 0.95));
        metrics.insert(
            "completed_pct",
            100.0 * (attempted - check.failed) as f64 / attempted as f64,
        );
    }
    eprintln!(
        "serve_rw: {} open-loop + {} closed-loop explains, {} updates, {} failed; \
         open-loop explains in flight at send: p99 {}, max {}",
        last.open_reads.len(),
        last.closed_reads.len(),
        last.writes.len(),
        check.failed,
        quantile(&depths, 0.99),
        depths.iter().copied().fold(0.0, f64::max),
    );
    Ok(Outcome {
        mismatches: check.mismatches,
        attempted,
        failed: check.failed,
        metrics,
    })
}

/// One recorded write batch, with the epoch it applied on top of.
struct Applied {
    start_epoch: Epoch,
    batch: Vec<Update<UncertainObject>>,
}

/// Per-layer numbers from the traced pass's spans: each request's
/// latency split into before / inside / after its window's `run` (or
/// its batch's `apply`), plus the window and batch counters.
fn span_layers(
    pass: &Pass,
    grid: &Grid,
    rec: &Recorder,
    layers: &mut Layers,
    mismatches: &mut Vec<String>,
) -> Result<Vec<Applied>, String> {
    let windows = rec.take_windows();
    let mut by_key: HashMap<(ObjectId, [u64; 3]), usize> = HashMap::new();
    for (i, w) in windows.iter().enumerate() {
        for key in &w.keys {
            by_key.insert(*key, i);
        }
    }
    let mut reads = Decomposed::new();
    for s in &pass.open_reads {
        let (Some(done), Some(Response::Outcomes { .. })) = (s.done, &s.reply) else {
            continue;
        };
        let (q, an) = grid.request(s.input);
        let w = by_key
            .get(&(an, point_key(&q)))
            .ok_or("an answered explain has no window span")?;
        reads.push(s.intended, windows[*w].start, windows[*w].end, done);
    }
    let spans = rec.take_applies();
    let by_epoch: HashMap<u64, usize> = spans
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.epoch.map(|e| (e.0, i)))
        .collect();
    let mut writes = Decomposed::new();
    for s in &pass.writes {
        let (Some(done), Some(Response::Applied { epoch, .. })) = (s.done, &s.reply) else {
            continue;
        };
        let a = by_epoch
            .get(&epoch.0)
            .ok_or("an acked update has no apply span")?;
        writes.push(s.intended, spans[*a].start, spans[*a].end, done);
    }
    plan_layers(&windows, layers);
    layers.insert("serve.pre_exec_ms", mean(&reads.pre));
    layers.insert("plan.run_ms", mean(&reads.exec));
    layers.insert("serve.post_exec_ms", mean(&reads.post));
    layers.insert("update.pre_exec_ms", mean(&writes.pre));
    layers.insert("backend.apply_ms", mean(&writes.exec));
    layers.insert("update.post_exec_ms", mean(&writes.post));
    let misattributed = reads.misattributed() + writes.misattributed();
    if misattributed > 0 {
        mismatches.push(format!(
            "{misattributed} traced request(s) fall outside their own window or batch span"
        ));
    }
    layers.insert(
        "loadgen.lag_p99_ms",
        quantile(
            &pass.open_reads.iter().map(Sent::lag_ms).collect::<Vec<_>>(),
            0.99,
        ),
    );
    let nb = spans.len().max(1) as f64;
    layers.insert(
        "serve.updates_per_batch",
        spans.iter().map(|a| a.batch.len()).sum::<usize>() as f64 / nb,
    );
    layers.insert(
        "mvcc.live_epochs",
        spans.iter().map(|a| a.live_epochs).sum::<usize>() as f64 / nb,
    );
    Ok(spans
        .into_iter()
        .filter_map(|a| {
            let end = a.epoch?;
            Some(Applied {
                start_epoch: Epoch(end.0 - a.batch.len() as u64),
                batch: a.batch,
            })
        })
        .collect())
}

/// What verification found, plus the traced re-drive's samples.
#[derive(Default)]
struct Check {
    mismatches: Vec<String>,
    /// Measured ops shed, partial, or errored.
    failed: u64,
    shed: u64,
    partial: u64,
    /// Per-pair stage-1 and FMCS-self times re-driven on the replay
    /// engine (traced runs only).
    stage1_ms: Vec<f64>,
    fmcs_ms: Vec<f64>,
    /// Clone the replay dataset when it reaches this epoch...
    capture_at: Option<Epoch>,
    /// ...into here.
    captured: Option<UncertainDataset>,
}

/// Reads re-driven one at a time for the stage-1 / FMCS split.
const REDRIVE_READS: usize = 64;

/// Replays the acked update stream in send order on an offline engine
/// and checks every served outcome against it at the reply's epoch.
/// Returns the replayed dataset.
#[allow(clippy::too_many_arguments)]
fn verify(
    ds0: &UncertainDataset,
    epoch0: Epoch,
    grid: &Grid,
    reads: &[(usize, &Response, bool)],
    writes: &[&Sent],
    updates: &[Update<UncertainObject>],
    redrive: bool,
    check: &mut Check,
) -> Result<UncertainDataset, String> {
    // Served outcomes by epoch; failures are counted, never compared.
    let mut at: BTreeMap<u64, Vec<(usize, &WireResult)>> = BTreeMap::new();
    for &(k, reply, counted) in reads {
        let fail = match reply {
            Response::Outcomes { epoch, results } if results.len() == 1 => {
                if let WireResult::Partial(_) = results[0] {
                    check.partial += u64::from(counted);
                    true
                } else {
                    at.entry(epoch.0).or_default().push((k, &results[0]));
                    false
                }
            }
            Response::Busy { .. } => {
                check.shed += u64::from(counted);
                true
            }
            _ => true,
        };
        check.failed += u64::from(fail && counted);
    }
    // Acked updates in send order; every update advances the epoch by
    // exactly one, so the k-th acked update lands on epoch0 + k + 1 and
    // its group's ack carries the epoch of the group's last update.
    let mut acked: Vec<(&Update<UncertainObject>, u64)> = Vec::new();
    for s in writes {
        match &s.reply {
            Some(Response::Applied { epoch, count: 1 }) => acked.push((&updates[s.input], epoch.0)),
            _ => check.failed += 1,
        }
    }
    for (i, &(_, epoch)) in acked.iter().enumerate() {
        let own = epoch0.0 + i as u64 + 1;
        let group_end = acked.get(i + 1).is_none_or(|&(_, next)| next != epoch);
        if epoch < own || (group_end && epoch != own) {
            check.mismatches.push(format!(
                "acked update {i} reports epoch {epoch}, its own epoch is {own}"
            ));
        }
    }

    let mut engine = ExplainEngine::new(ds0.clone(), engine_config()).map_err(|e| e.to_string())?;
    warm(&engine);
    let mut redriven = 0usize;
    let mut step = |engine: &ExplainEngine, check: &mut Check| {
        let epoch = engine.epoch();
        if check.capture_at == Some(epoch) {
            check.captured = Some(engine.dataset().clone());
        }
        let Some(served) = at.remove(&epoch.0) else {
            return;
        };
        let inputs: Vec<_> = served.iter().map(|(k, _)| grid.request(*k)).collect();
        if redrive {
            // Each sampled pair on fresh forks: an empty cache, as a
            // request that shares no window would see.
            for (q, an) in inputs.iter().take(REDRIVE_READS.saturating_sub(redriven)) {
                let (stage1, fmcs) = split_stage1(&engine.fork(), &engine.fork(), q, *an);
                check.stage1_ms.push(stage1);
                check.fmcs_ms.push(fmcs);
                redriven += 1;
            }
        }
        let requests: Vec<ExplainRequest> = inputs
            .iter()
            .map(|(q, an)| ExplainRequest::batch(q, &[*an]))
            .collect();
        let report = engine.run(&requests);
        for ((k, got), want) in served.iter().zip(&report.results) {
            if **got != wire_result(want) {
                check.mismatches.push(format!(
                    "grid request {k} at {epoch}: served {got:?}, offline {:?}",
                    wire_result(want)
                ));
            }
        }
    };
    step(&engine, check);
    for (update, _) in &acked {
        engine.apply((*update).clone()).map_err(|e| e.to_string())?;
        step(&engine, check);
    }
    for (epoch, served) in at {
        check.mismatches.push(format!(
            "{} outcome(s) served at epoch {epoch}, which the acked stream never reaches",
            served.len()
        ));
    }
    Ok(engine.dataset().clone())
}
