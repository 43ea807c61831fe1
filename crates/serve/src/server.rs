//! The serving loop: acceptor + per-connection readers + one
//! collector that closes planner windows.
//!
//! Threading model (thread-per-core in spirit — no async runtime, no
//! epoll; plain blocking `std::net` threads):
//!
//! * an **acceptor** blocks in `accept` and spawns one reader thread
//!   per connection; each reader drops its own handle from the
//!   server's connection map when its connection closes, and a
//!   shutdown request wakes the acceptor with a loopback self-connect;
//! * each **reader** decodes frames, runs admission control inline
//!   (pure [`crp_core::admission`] over an atomic queue-depth
//!   counter), answers `hello`/`stats`/`candidates` immediately, and
//!   forwards `explain`/`update` jobs to the collector;
//! * the **collector** gathers explain jobs into *planner windows* —
//!   closed on size ([`ServeConfig::window_max`]) or on a few-ms
//!   deadline ([`ServeConfig::window_ms`]) — compiles each window as
//!   ONE workload through the planner (so requests for the same
//!   `(an, q)` share one stage-1 unit *across clients*), executes it
//!   against a pinned snapshot, and demuxes the
//!   per-request outcomes back to each connection. Updates
//!   **group-commit at window boundaries**: concurrent clients' update
//!   requests coalesce (up to `window_max` per batch) into one backend
//!   batch — one snapshot publish, one WAL append + fsync in a durable
//!   session — so every window sees exactly one epoch and the writer's
//!   per-publish cost amortizes across the batch.
//!
//! `candidates` is a diagnostic verb: the pinned snapshot's stage-1
//! candidate ids for one non-answer, answered inline by the reader.

use crate::backend::ServeBackend;
use crate::stats::ServeStats;
use crp_core::StopReason;
use crp_core::{
    admission, execute_window, Admission, ClientClass, CrpError, ExplainRequest, PlanLimits,
};
use crp_data::wire::{
    decode_frame, write_frame, Request, Response, WireCause, WireError, WirePartial, WireResult,
    WireStop,
};
use crp_geom::Point;
use crp_uncertain::{UncertainObject, Update};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long blocking reads and the collector's queue waits last before
/// re-checking the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Tuning for one [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// A window closes as soon as it holds this many explain requests.
    pub window_max: usize,
    /// …or when this many milliseconds pass since its first request.
    pub window_ms: u64,
    /// Queue capacity that admission control sheds against.
    pub queue_cap: usize,
    /// Query point for explain requests that don't carry their own.
    pub default_query: Option<Point>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            window_max: 16,
            window_ms: 4,
            queue_cap: 64,
            default_query: None,
        }
    }
}

/// One admitted explain request, waiting in the collector's queue.
struct ExplainJob {
    conn: Arc<Conn>,
    request: ExplainRequest,
    limits: PlanLimits,
    enqueued: Instant,
}

enum Job {
    Explain(Box<ExplainJob>),
    Update {
        conn: Arc<Conn>,
        updates: Vec<Update<UncertainObject>>,
    },
}

/// The write half of one connection; readers and the collector both
/// reply through it.
struct Conn {
    writer: Mutex<TcpStream>,
}

impl Conn {
    /// Best-effort framed reply; a client that hung up just stops
    /// receiving. A reply over [`MAX_FRAME`] is replaced by an error
    /// naming its size and the cap, so the client never waits on a
    /// reply that was never sent.
    fn send(&self, resp: &Response) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e @ WireError::TooLarge { .. }) = write_frame(&mut *w, &resp.encode()) {
            let err = Response::Error {
                message: format!("reply not sent: {e}"),
            };
            let _ = write_frame(&mut *w, &err.encode());
        }
    }
}

/// Maps one planner outcome onto the wire.
fn wire_result(result: &Result<crp_core::CrpOutcome, CrpError>) -> WireResult {
    match result {
        Ok(outcome) => WireResult::Causes(
            outcome
                .causes
                .iter()
                .map(|c| WireCause {
                    id: c.id,
                    responsibility: c.responsibility,
                    counterfactual: c.counterfactual,
                    contingency: c.min_contingency.clone(),
                })
                .collect(),
        ),
        Err(CrpError::NotANonAnswer { prob }) => WireResult::Answer { prob: *prob },
        Err(CrpError::Partial(p)) => WireResult::Partial(WirePartial {
            reason: match p.reason {
                StopReason::DeadlineExceeded => WireStop::Deadline,
                StopReason::NodeAccessBudget => WireStop::Nodes,
                StopReason::CheckBudget => WireStop::Checks,
            },
            done: p.tasks_completed,
            total: p.tasks_total,
            nodes: p.node_accesses,
            subsets: p.subsets_examined,
            bound_checks: p.bound_checks,
            ms: p.elapsed_ms,
        }),
        Err(other) => WireResult::Failed {
            message: other.to_string(),
        },
    }
}

/// A running server. Dropping it does NOT stop it — call
/// [`Server::request_shutdown`] (or send the wire `shutdown` verb)
/// and then [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServeStats>,
    pending: Arc<AtomicUsize>,
    acceptor: Option<JoinHandle<()>>,
    collector: Option<JoinHandle<()>>,
    conns: Conns,
}

/// The live connection threads, keyed by connection number; each
/// thread removes its own entry when its connection closes.
type Conns = Arc<Mutex<HashMap<u64, JoinHandle<()>>>>;

/// Everything a connection reader needs, bundled so spawning stays
/// readable.
struct Shared {
    backend: Arc<dyn ServeBackend>,
    config: ServeConfig,
    stats: Arc<ServeStats>,
    pending: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    tx: Sender<Job>,
}

/// Sets the shutdown flag and wakes the acceptor out of its blocking
/// `accept` with a loopback connection to the listener, which the
/// acceptor drops unserved.
fn begin_shutdown(shutdown: &AtomicBool, addr: SocketAddr) {
    shutdown.store(true, Ordering::SeqCst);
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let _ = TcpStream::connect((ip, addr.port()));
}

impl Server {
    /// Binds, spawns the acceptor and collector, and returns
    /// immediately; connections are served until shutdown.
    pub fn start(backend: Arc<dyn ServeBackend>, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServeStats::new());
        let pending = Arc::new(AtomicUsize::new(0));
        let conns: Conns = Arc::new(Mutex::new(HashMap::new()));
        let (tx, rx) = mpsc::channel::<Job>();

        let collector = {
            let backend = Arc::clone(&backend);
            let stats = Arc::clone(&stats);
            let pending = Arc::clone(&pending);
            let window_max = config.window_max.max(1);
            let window_ms = config.window_ms;
            std::thread::spawn(move || {
                collector_loop(&*backend, &rx, &stats, &pending, window_max, window_ms)
            })
        };

        let acceptor = {
            let shared = Shared {
                backend,
                config,
                stats: Arc::clone(&stats),
                pending: Arc::clone(&pending),
                shutdown: Arc::clone(&shutdown),
                addr,
                tx,
            };
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                let shared = Arc::new(shared);
                let mut next_id: u64 = 0;
                loop {
                    let stream = match listener.accept() {
                        Ok((stream, _)) => stream,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    };
                    // The wake-up connection of `begin_shutdown` (or a
                    // client racing it) is dropped unserved.
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let id = next_id;
                    next_id += 1;
                    let thread_shared = Arc::clone(&shared);
                    let thread_conns = Arc::clone(&conns);
                    // Spawning under the lock means the handle is in
                    // the map before the thread can remove it.
                    let mut live = conns.lock().unwrap_or_else(|e| e.into_inner());
                    let spawned = std::thread::Builder::new()
                        .name(format!("crp-serve-conn-{id}"))
                        .spawn(move || {
                            reader_loop(stream, &thread_shared);
                            // A reader that panicked skips this and
                            // leaves its handle for `join` to collect.
                            thread_conns
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .remove(&id);
                        });
                    // A failed spawn (thread or memory limits) drops
                    // this one connection; the acceptor keeps
                    // accepting.
                    if let Ok(handle) = spawned {
                        live.insert(id, handle);
                    }
                }
                // Dropping `shared` drops the last cloneable Sender;
                // the collector drains whatever is queued and exits.
            })
        };

        Ok(Server {
            addr,
            shutdown,
            stats,
            pending,
            acceptor: Some(acceptor),
            collector: Some(collector),
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving counters (shared with the running threads).
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.stats)
    }

    /// True once shutdown was requested (wire verb, signal, or
    /// [`Server::request_shutdown`]).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Ask the server to stop: stop accepting, drain queued windows,
    /// checkpoint. Returns immediately; [`Server::join`] waits.
    pub fn request_shutdown(&self) {
        begin_shutdown(&self.shutdown, self.addr);
    }

    /// Blocks until shutdown is requested, then joins every thread —
    /// by which point all queued windows have executed, pending
    /// updates were applied, and the backend was checkpointed.
    pub fn join(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        let handles: Vec<_> =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()))
                .into_values()
                .collect();
        for h in handles {
            let _ = h.join();
        }
        if let Some(c) = self.collector.take() {
            let _ = c.join();
        }
        debug_assert_eq!(
            self.pending.load(Ordering::SeqCst),
            0,
            "queue fully drained"
        );
    }
}

/// One connection: decode frames, admit, answer or forward.
fn reader_loop(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(Conn {
        writer: Mutex::new(writer),
    });
    let mut stream = stream;
    let mut class = ClientClass::Interactive;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Serve every complete frame already buffered.
        loop {
            match decode_frame(&buf) {
                Ok(Some((payload, used))) => {
                    buf.drain(..used);
                    if !handle_payload(&payload, &conn, &mut class, shared) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    conn.send(&Response::Error {
                        message: format!("bad frame: {e}"),
                    });
                    return;
                }
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

/// Returns false when the connection should close.
fn handle_payload(
    payload: &str,
    conn: &Arc<Conn>,
    class: &mut ClientClass,
    shared: &Shared,
) -> bool {
    let request = match Request::decode(payload) {
        Ok(r) => r,
        Err(e) => {
            conn.send(&Response::Error {
                message: format!("bad request: {e}"),
            });
            return true;
        }
    };
    match request {
        Request::Hello { class: token } => match token.parse::<ClientClass>() {
            Ok(c) => {
                *class = c;
                conn.send(&Response::Welcome {
                    epoch: shared.backend.pin().epoch(),
                });
            }
            Err(e) => conn.send(&Response::Error {
                message: e.to_string(),
            }),
        },
        Request::Explain {
            ids,
            all,
            query,
            alphas,
        } => {
            let Some(q) = query.or_else(|| shared.config.default_query.clone()) else {
                conn.send(&Response::Error {
                    message: "no query point: pass q=… or start the server with --query".into(),
                });
                return true;
            };
            let ids = if all {
                match shared.backend.pin().discrete_dataset() {
                    Some(ds) => ds.iter().map(|o| o.id()).collect(),
                    None => {
                        conn.send(&Response::Error {
                            message: "explain all needs a discrete dataset".into(),
                        });
                        return true;
                    }
                }
            } else {
                ids
            };
            if ids.is_empty() {
                conn.send(&Response::Error {
                    message: "explain needs at least one object id".into(),
                });
                return true;
            }
            let depth = shared.pending.load(Ordering::SeqCst);
            match admission(*class, depth, shared.config.queue_cap) {
                Admission::Shed { retry_after_ms } => {
                    shared.stats.record_shed();
                    conn.send(&Response::Busy { retry_after_ms });
                }
                Admission::Accept(limits) => {
                    let request = ExplainRequest::batch(&q, &ids)
                        .with_alphas(alphas)
                        .with_limits(limits);
                    shared.pending.fetch_add(1, Ordering::SeqCst);
                    let job = Job::Explain(Box::new(ExplainJob {
                        conn: Arc::clone(conn),
                        request,
                        limits,
                        enqueued: Instant::now(),
                    }));
                    if shared.tx.send(job).is_err() {
                        shared.pending.fetch_sub(1, Ordering::SeqCst);
                        conn.send(&Response::Error {
                            message: "server is shutting down".into(),
                        });
                    }
                }
            }
        }
        Request::Update { updates } => {
            let job = Job::Update {
                conn: Arc::clone(conn),
                updates,
            };
            if shared.tx.send(job).is_err() {
                conn.send(&Response::Error {
                    message: "server is shutting down".into(),
                });
            }
        }
        Request::Candidates { an, query } => {
            let reply = match shared.backend.pin().session().candidate_ids(&query, an) {
                Ok(ids) => Response::Ids { ids },
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            };
            conn.send(&reply);
        }
        Request::Stats => {
            let epoch = shared.backend.pin().epoch();
            conn.send(&Response::Stats {
                fields: shared
                    .stats
                    .fields(epoch, shared.pending.load(Ordering::SeqCst)),
            });
        }
        Request::Shutdown => {
            begin_shutdown(&shared.shutdown, shared.addr);
            conn.send(&Response::Bye);
            return false;
        }
    }
    true
}

/// The window loop: gather → execute as one plan → demux; updates
/// group-commit at window boundaries; on shutdown drain everything
/// queued, then checkpoint.
///
/// `window_max` governs both sides of the loop. Explain jobs gather
/// into planner windows of up to `window_max` requests. Update jobs
/// gather into write batches of up to `window_max` requests that apply
/// as ONE backend batch — one snapshot publish (and, in a durable
/// session, one WAL append + fsync) no matter how many clients
/// contributed — with every contributor acked on the shared epoch.
/// `window_max = 1` therefore means fully per-request serving:
/// singleton read windows and singleton write batches.
///
/// Updates queued while an explain window is gathering do not break
/// the window; they defer to its boundary and group-commit there. An
/// explain that was queued behind a not-yet-applied update executes
/// against the pre-batch snapshot — ordinary MVCC reader semantics; a
/// client that waited for its `applied` ack always sees its own write.
fn collector_loop(
    backend: &dyn ServeBackend,
    rx: &Receiver<Job>,
    stats: &ServeStats,
    pending: &AtomicUsize,
    window_max: usize,
    window_ms: u64,
) {
    let mut backlog: VecDeque<Job> = VecDeque::new();
    'serve: loop {
        if backlog.is_empty() {
            match rx.recv_timeout(POLL) {
                Ok(job) => backlog.push_back(job),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break 'serve,
            }
        }
        match backlog.pop_front().expect("backlog is non-empty") {
            Job::Update { conn, updates } => {
                // Group commit: gather more update jobs — never past a
                // queued explain — until the batch or deadline fills.
                let mut writes = vec![(conn, updates)];
                let deadline = Instant::now() + Duration::from_millis(window_ms);
                while writes.len() < window_max {
                    match backlog.front() {
                        Some(Job::Update { .. }) => match backlog.pop_front() {
                            Some(Job::Update { conn, updates }) => writes.push((conn, updates)),
                            _ => unreachable!("front was an update"),
                        },
                        Some(_) => break,
                        None => {
                            let now = Instant::now();
                            if now >= deadline {
                                break;
                            }
                            match rx.recv_timeout(deadline - now) {
                                Ok(job) => backlog.push_back(job),
                                Err(RecvTimeoutError::Timeout) => break,
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                    }
                }
                apply_updates(backend, stats, writes);
            }
            Job::Explain(first) => {
                let limits = first.limits;
                let mut window = vec![*first];
                let mut deferred: Vec<Job> = Vec::new();
                let deadline = Instant::now() + Duration::from_millis(window_ms);
                while window.len() < window_max {
                    match backlog.front() {
                        // Same-budget explains join the window…
                        Some(Job::Explain(j)) if j.limits == limits => match backlog.pop_front() {
                            Some(Job::Explain(j)) => window.push(*j),
                            _ => unreachable!("front was an explain"),
                        },
                        // …updates defer to this window's boundary
                        // (they group-commit there)…
                        Some(Job::Update { .. }) => {
                            deferred.push(backlog.pop_front().expect("front was an update"));
                        }
                        // …and a different-budget explain is a window
                        // boundary.
                        Some(_) => break,
                        None => {
                            let now = Instant::now();
                            if now >= deadline {
                                break;
                            }
                            match rx.recv_timeout(deadline - now) {
                                Ok(job) => backlog.push_back(job),
                                Err(RecvTimeoutError::Timeout) => break,
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                    }
                }
                // The deferred updates lead the backlog again, in
                // arrival order: the next iteration group-commits them
                // — this window's boundary.
                for job in deferred.into_iter().rev() {
                    backlog.push_front(job);
                }
                run_window(backend, stats, pending, window);
            }
        }
    }
    // Channel closed: everything queued was already drained by the
    // recv loop above. Make the session durable before exiting.
    let _ = backend.checkpoint();
}

/// One group-committed write batch. Every contributor's ops apply as a
/// single backend batch — one publish — and each contributor is acked
/// with the shared epoch and its own op count. On rejection the whole
/// group receives the error: a durable session validates the batch
/// before logging it, so nothing from a rejected group applies.
fn apply_updates(
    backend: &dyn ServeBackend,
    stats: &ServeStats,
    writes: Vec<(Arc<Conn>, Vec<Update<UncertainObject>>)>,
) {
    let mut merged: Vec<Update<UncertainObject>> = Vec::new();
    let mut acks: Vec<(Arc<Conn>, usize)> = Vec::with_capacity(writes.len());
    for (conn, updates) in writes {
        acks.push((conn, updates.len()));
        merged.extend(updates);
    }
    match backend.apply(merged) {
        Ok(epoch) => {
            stats.record_update_batch(acks.len() as u64);
            for (conn, count) in acks {
                conn.send(&Response::Applied { epoch, count });
            }
        }
        Err(message) => {
            for (conn, _) in acks {
                conn.send(&Response::Error {
                    message: message.clone(),
                });
            }
        }
    }
}

/// Execute one planner window against a pinned snapshot and demux the
/// outcomes back per connection.
fn run_window(
    backend: &dyn ServeBackend,
    stats: &ServeStats,
    pending: &AtomicUsize,
    window: Vec<ExplainJob>,
) {
    let snapshot = backend.pin();
    let requests: Vec<ExplainRequest> = window.iter().map(|j| j.request.clone()).collect();
    let report = execute_window(snapshot.session(), &requests);
    stats.record_window(window.len() as u64, &report.counters);
    debug_assert_eq!(report.per_request.len(), window.len());
    for (job, results) in window.into_iter().zip(report.per_request) {
        let results: Vec<WireResult> = results.iter().map(wire_result).collect();
        job.conn.send(&Response::Outcomes {
            epoch: report.epoch,
            results,
        });
        pending.fetch_sub(1, Ordering::SeqCst);
        stats.record_latency_us(job.enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, VolatileBackend};
    use crp_core::{EngineConfig, ExplainEngine};
    use crp_uncertain::UncertainDataset;

    #[test]
    fn closed_connections_release_their_handles() {
        let ds =
            UncertainDataset::from_points(vec![Point::from([10.0, 10.0]), Point::from([7.0, 7.0])])
                .unwrap();
        let engine = ExplainEngine::new(ds, EngineConfig::default()).unwrap();
        let server = Server::start(
            Arc::new(VolatileBackend::new(engine)),
            ServeConfig::default(),
        )
        .unwrap();
        for _ in 0..50 {
            // A served round trip proves the connection was accepted
            // and its reader thread spawned before the client closes.
            let mut client = Client::connect(server.local_addr()).unwrap();
            client.stats().unwrap();
        }
        // Every client is gone: once the readers notice, each drops
        // its own handle.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let held = server.conns.lock().unwrap().len();
            if held == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{held} handle(s) of closed connections still held"
            );
            std::thread::sleep(POLL);
        }
        server.request_shutdown();
        server.join();
    }
}
