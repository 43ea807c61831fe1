//! The serving wire protocol: length-prefixed frames carrying the
//! workload grammar over a byte stream (`crp serve` / `crp client`).
//!
//! ## Framing
//!
//! Every message is one **frame**: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 text, capped at [`MAX_FRAME`].
//! Framing is strict and panic-free: an over-long declaration is
//! [`WireError::TooLarge`], a stream that ends mid-frame is
//! [`WireError::Truncated`], and non-UTF-8 payload bytes are
//! [`WireError::Utf8`] — torn input is always a typed error, never a
//! panic (property-tested against arbitrary buffers and every
//! truncation point).
//!
//! ## Grammar
//!
//! Payloads are line-oriented text in the style of
//! [`crate::workload`] — update frames literally reuse its
//! `insert`/`replace`/`delete` lines, so a replay workload file can be
//! replayed over a socket unchanged:
//!
//! ```text
//! →  hello class=interactive
//! ←  welcome epoch=0
//! →  explain 42,57 q=11580,49000 alphas=0.3,0.5
//! ←  outcomes epoch=0 n=4
//!    ok 7:0.5:0:9+11 13:1:1:-
//!    answer p=0.75
//!    …
//! →  update
//!    insert 91 4200,1800;3900,2100
//!    delete 13
//! ←  applied epoch=1 count=2
//! →  candidates 42 q=11580,49000
//! ←  ids 7,9,13
//! →  stats
//! ←  stats
//!    windows=12
//!    …
//! →  shutdown
//! ←  bye
//! ```
//!
//! Floating-point fields use Rust's `{}` formatting, which is the
//! shortest decimal that round-trips exactly — so query points, α
//! values and responsibilities survive the text encoding bit-for-bit.
//! Inserted objects follow the workload grammar's equal-probability
//! convention (samples separated by `;`), like the season-record
//! schema.

use crate::io::CsvError;
use crate::workload::{parse_workload, WorkloadOp};
use crp_geom::Point;
use crp_uncertain::{Epoch, ObjectId, UncertainObject, Update};
use std::fmt;
use std::io::{Read, Write};

/// Hard ceiling on one frame's payload bytes (1 MiB). Anything larger
/// is a protocol error on both ends — the collector must never buffer
/// an unbounded frame on behalf of one connection.
pub const MAX_FRAME: usize = 1 << 20;

/// A typed wire failure. Decoding never panics: every malformed input
/// maps onto one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// A frame declared (or was asked to carry) more than
    /// [`MAX_FRAME`] payload bytes.
    TooLarge {
        /// The declared/requested payload length.
        len: usize,
    },
    /// The stream ended mid-frame: `have` bytes arrived of the
    /// `needed` the header promised (header bytes count too).
    Truncated {
        /// Bytes actually present.
        have: usize,
        /// Bytes the frame needs in total.
        needed: usize,
    },
    /// The payload was not valid UTF-8.
    Utf8,
    /// The payload text does not parse under the verb grammar.
    Malformed {
        /// What was wrong with it.
        reason: String,
    },
    /// Socket-level failure while reading or writing a frame.
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TooLarge { len } => {
                write!(f, "frame of {len} byte(s) exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::Truncated { have, needed } => {
                write!(f, "torn frame: {have} of {needed} byte(s)")
            }
            WireError::Utf8 => write!(f, "frame payload is not UTF-8"),
            WireError::Malformed { reason } => write!(f, "malformed message: {reason}"),
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

fn malformed(reason: impl Into<String>) -> WireError {
    WireError::Malformed {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------- frames

/// Encodes one frame: 4-byte big-endian length + payload.
pub fn encode_frame(payload: &str) -> Result<Vec<u8>, WireError> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(WireError::TooLarge { len: bytes.len() });
    }
    let mut out = Vec::with_capacity(4 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
    Ok(out)
}

/// Tries to decode one frame from the front of `buf`.
///
/// `Ok(None)` means the buffer holds a prefix of a frame and more
/// bytes are needed — a short read is not an error until the stream
/// actually ends (see [`read_frame`]). `Ok(Some((payload, consumed)))`
/// hands back the payload and how many buffer bytes it used.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(String, usize)>, WireError> {
    let Some(header) = buf.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(header.try_into().expect("4-byte slice")) as usize;
    if len > MAX_FRAME {
        return Err(WireError::TooLarge { len });
    }
    let Some(payload) = buf.get(4..4 + len) else {
        return Ok(None);
    };
    let text = std::str::from_utf8(payload).map_err(|_| WireError::Utf8)?;
    Ok(Some((text.to_string(), 4 + len)))
}

/// Reads one frame from a blocking stream. `Ok(None)` is a clean EOF
/// at a frame boundary; EOF mid-frame is [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, WireError> {
    let mut header = [0u8; 4];
    let mut have = 0;
    while have < 4 {
        match r.read(&mut header[have..]) {
            Ok(0) if have == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated { have, needed: 4 }),
            Ok(n) => have += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(WireError::TooLarge { len });
    }
    let mut payload = vec![0u8; len];
    let mut have = 0;
    while have < len {
        match r.read(&mut payload[have..]) {
            Ok(0) => {
                return Err(WireError::Truncated {
                    have: 4 + have,
                    needed: 4 + len,
                })
            }
            Ok(n) => have += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| WireError::Utf8)
}

/// Writes one frame to a blocking stream and flushes it.
pub fn write_frame(w: &mut impl Write, payload: &str) -> Result<(), WireError> {
    let frame = encode_frame(payload)?;
    w.write_all(&frame)
        .map_err(|e| WireError::Io(e.to_string()))?;
    w.flush().map_err(|e| WireError::Io(e.to_string()))
}

// -------------------------------------------------------------- requests

/// One client→server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Introduce the connection's client class (a plain token the
    /// server maps onto its admission policy).
    Hello {
        /// The class token (no whitespace).
        class: String,
    },
    /// Explain non-answers: explicit ids or `all`, an optional query
    /// point (the server's default when absent) and an optional α list
    /// (an α-sweep when longer than one).
    Explain {
        /// Ids to explain; empty iff `all`.
        ids: Vec<ObjectId>,
        /// Explain every resident object instead of `ids`.
        all: bool,
        /// Query point override.
        query: Option<Point>,
        /// α override / sweep; empty keeps the server default.
        alphas: Vec<f64>,
    },
    /// Apply one update batch at the next window boundary — the lines
    /// after the verb are literal [`crate::workload`] update lines.
    Update {
        /// The batch, in line order.
        updates: Vec<Update<UncertainObject>>,
    },
    /// Stage-1 candidate ids for one non-answer (a diagnostic: the
    /// set the refinement stage consumes).
    Candidates {
        /// The non-answer.
        an: ObjectId,
        /// The query point.
        query: Point,
    },
    /// Serving counters (windows, dedup, shed, latency percentiles).
    Stats,
    /// Drain in-flight windows, checkpoint, and stop the server.
    Shutdown,
}

fn encode_point(p: &Point) -> String {
    p.coords()
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_point(raw: &str) -> Result<Point, WireError> {
    let coords: Result<Vec<f64>, _> = raw.split(',').map(|c| c.trim().parse::<f64>()).collect();
    match coords {
        Ok(v) if !v.is_empty() => Ok(Point::new(v)),
        _ => Err(malformed(format!("bad point {raw:?}"))),
    }
}

fn encode_ids(ids: &[ObjectId]) -> String {
    if ids.is_empty() {
        return "-".into();
    }
    ids.iter()
        .map(|id| id.0.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_ids(raw: &str) -> Result<Vec<ObjectId>, WireError> {
    if raw == "-" {
        return Ok(Vec::new());
    }
    raw.split(',')
        .map(|tok| {
            tok.trim()
                .parse::<u32>()
                .map(ObjectId)
                .map_err(|_| malformed(format!("bad object id {tok:?}")))
        })
        .collect()
}

fn parse_alpha_list(raw: &str) -> Result<Vec<f64>, WireError> {
    let alphas: Result<Vec<f64>, _> = raw.split(',').map(|tok| tok.trim().parse()).collect();
    match alphas {
        Ok(v) if !v.is_empty() => Ok(v),
        _ => Err(malformed(format!("bad alphas {raw:?}"))),
    }
}

fn parse_u64(raw: &str, what: &str) -> Result<u64, WireError> {
    raw.parse::<u64>()
        .map_err(|_| malformed(format!("bad {what} {raw:?}")))
}

/// `key=value` suffix option, or an error naming the unknown key.
fn split_kv(tok: &str) -> Result<(&str, &str), WireError> {
    tok.split_once('=')
        .ok_or_else(|| malformed(format!("expected key=value, got {tok:?}")))
}

/// The workload grammar's sample text for one object:
/// `x,y[;x,y…]` (equal appearance probabilities).
fn encode_samples(o: &UncertainObject) -> String {
    o.samples()
        .iter()
        .map(|s| encode_point(s.point()))
        .collect::<Vec<_>>()
        .join(";")
}

fn encode_update_line(u: &Update<UncertainObject>) -> String {
    match u {
        Update::Insert(o) => format!("insert {} {}", o.id().0, encode_samples(o)),
        Update::Replace(o) => format!("replace {} {}", o.id().0, encode_samples(o)),
        Update::Delete(id) => format!("delete {}", id.0),
    }
}

impl Request {
    /// The frame payload for this request.
    pub fn encode(&self) -> String {
        match self {
            Request::Hello { class } => format!("hello class={class}"),
            Request::Explain {
                ids,
                all,
                query,
                alphas,
            } => {
                let mut line = if *all {
                    "explain all".to_string()
                } else {
                    format!("explain {}", encode_ids(ids))
                };
                if let Some(q) = query {
                    line.push_str(&format!(" q={}", encode_point(q)));
                }
                if !alphas.is_empty() {
                    line.push_str(&format!(
                        " alphas={}",
                        alphas
                            .iter()
                            .map(f64::to_string)
                            .collect::<Vec<_>>()
                            .join(",")
                    ));
                }
                line
            }
            Request::Update { updates } => {
                let mut text = "update".to_string();
                for u in updates {
                    text.push('\n');
                    text.push_str(&encode_update_line(u));
                }
                text
            }
            Request::Candidates { an, query } => {
                format!("candidates {} q={}", an.0, encode_point(query))
            }
            Request::Stats => "stats".into(),
            Request::Shutdown => "shutdown".into(),
        }
    }

    /// Parses a frame payload as a request.
    pub fn decode(payload: &str) -> Result<Request, WireError> {
        let mut lines = payload.lines();
        let first = lines.next().unwrap_or("").trim_end();
        let (verb, rest) = match first.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (first, ""),
        };
        let single_line = |req: Request, mut lines: std::str::Lines<'_>| {
            if lines.next().is_some() {
                Err(malformed(format!("{verb} takes a single line")))
            } else {
                Ok(req)
            }
        };
        match verb {
            "hello" => {
                let (key, class) = split_kv(rest)?;
                if key != "class" || class.is_empty() || class.contains(char::is_whitespace) {
                    return Err(malformed(format!("bad hello {rest:?}")));
                }
                single_line(
                    Request::Hello {
                        class: class.to_string(),
                    },
                    lines,
                )
            }
            "explain" => {
                let mut toks = rest.split_whitespace();
                let ids_tok = toks
                    .next()
                    .ok_or_else(|| malformed("explain needs ids (or 'all')"))?;
                let (ids, all) = if ids_tok == "all" {
                    (Vec::new(), true)
                } else {
                    (parse_ids(ids_tok)?, false)
                };
                if !all && ids.is_empty() {
                    return Err(malformed("explain needs at least one id"));
                }
                let mut query = None;
                let mut alphas = Vec::new();
                for tok in toks {
                    match split_kv(tok)? {
                        ("q", v) => query = Some(parse_point(v)?),
                        ("alphas", v) => alphas = parse_alpha_list(v)?,
                        (key, _) => {
                            return Err(malformed(format!("unknown explain option {key:?}")))
                        }
                    }
                }
                single_line(
                    Request::Explain {
                        ids,
                        all,
                        query,
                        alphas,
                    },
                    lines,
                )
            }
            "update" => {
                if !rest.is_empty() {
                    return Err(malformed("update takes its ops on following lines"));
                }
                let body: String = lines.collect::<Vec<_>>().join("\n");
                let ops = parse_workload(&body).map_err(|e| match e {
                    CsvError::Empty => malformed("update needs at least one op"),
                    other => malformed(other.to_string()),
                })?;
                let updates = ops
                    .into_iter()
                    .map(|op| match op {
                        WorkloadOp::Update(u) => Ok(u),
                        WorkloadOp::Explain(_) | WorkloadOp::ExplainAll => Err(malformed(
                            "explain ops belong in explain frames, not update frames",
                        )),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Update { updates })
            }
            "candidates" => {
                let mut toks = rest.split_whitespace();
                let an_tok = toks
                    .next()
                    .ok_or_else(|| malformed("candidates needs an object id"))?;
                let an = ObjectId(
                    an_tok
                        .parse::<u32>()
                        .map_err(|_| malformed(format!("bad object id {an_tok:?}")))?,
                );
                let mut query = None;
                for tok in toks {
                    match split_kv(tok)? {
                        ("q", v) => query = Some(parse_point(v)?),
                        (key, _) => {
                            return Err(malformed(format!("unknown candidates option {key:?}")))
                        }
                    }
                }
                let query = query.ok_or_else(|| malformed("candidates needs q=…"))?;
                single_line(Request::Candidates { an, query }, lines)
            }
            "stats" if rest.is_empty() => single_line(Request::Stats, lines),
            "shutdown" if rest.is_empty() => single_line(Request::Shutdown, lines),
            other => Err(malformed(format!("unknown request verb {other:?}"))),
        }
    }
}

// ------------------------------------------------------------- responses

/// Which plan budget tripped, as carried on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireStop {
    /// The wall deadline passed.
    Deadline,
    /// The node-access ceiling was reached.
    Nodes,
    /// The check ceiling (subset and completion-bound checks) was
    /// reached.
    Checks,
}

impl WireStop {
    /// The grammar token.
    pub fn as_str(self) -> &'static str {
        match self {
            WireStop::Deadline => "deadline",
            WireStop::Nodes => "nodes",
            WireStop::Checks => "checks",
        }
    }
}

impl std::str::FromStr for WireStop {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, WireError> {
        match s {
            "deadline" => Ok(WireStop::Deadline),
            "nodes" => Ok(WireStop::Nodes),
            "checks" => Ok(WireStop::Checks),
            other => Err(malformed(format!("unknown stop reason {other:?}"))),
        }
    }
}

/// One actual cause on the wire: `id:responsibility:cf:γ` where `γ` is
/// the minimal contingency ids joined by `+`, or `-` when empty.
#[derive(Clone, Debug, PartialEq)]
pub struct WireCause {
    /// The causing object.
    pub id: ObjectId,
    /// `r = 1/(1+|Γ_min|)`.
    pub responsibility: f64,
    /// `Γ_min = ∅`.
    pub counterfactual: bool,
    /// One minimal contingency set.
    pub contingency: Vec<ObjectId>,
}

/// Progress counters of a budget-tripped task (the wire image of the
/// engine's `PartialProgress`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WirePartial {
    /// Which limit tripped.
    pub reason: WireStop,
    /// Tasks that finished before the trip.
    pub done: u64,
    /// Tasks in the whole plan.
    pub total: u64,
    /// Node accesses charged so far.
    pub nodes: u64,
    /// Subset checks charged so far.
    pub subsets: u64,
    /// Completion-bound checks charged so far.
    pub bound_checks: u64,
    /// Wall milliseconds to the trip.
    pub ms: u64,
}

/// One per-task result line inside an `outcomes` frame.
#[derive(Clone, Debug, PartialEq)]
pub enum WireResult {
    /// The object is a non-answer; its actual causes.
    Causes(Vec<WireCause>),
    /// The object is an answer (no causes by deletion monotonicity).
    Answer {
        /// Its reverse-skyline probability.
        prob: f64,
    },
    /// A plan budget tripped; the result is missing, never wrong.
    Partial(WirePartial),
    /// The task failed (unknown object, bad α, …).
    Failed {
        /// The error text (newline-free).
        message: String,
    },
}

/// One server→client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Connection accepted; the currently published epoch.
    Welcome {
        /// The epoch readers are pinned to.
        epoch: Epoch,
    },
    /// Per-task results of an explain request, in task order.
    Outcomes {
        /// The pinned epoch the window executed against.
        epoch: Epoch,
        /// One entry per task.
        results: Vec<WireResult>,
    },
    /// An update batch was validated, logged and published.
    Applied {
        /// The post-batch epoch.
        epoch: Epoch,
        /// Updates in the batch.
        count: usize,
    },
    /// Admission control shed this request; try again later.
    Busy {
        /// Suggested client back-off.
        retry_after_ms: u64,
    },
    /// Stage-1 candidate ids (ascending), `-` when empty.
    Ids {
        /// The candidate set.
        ids: Vec<ObjectId>,
    },
    /// Serving counters as `key=value` lines.
    Stats {
        /// Counter name/value pairs, in server order.
        fields: Vec<(String, String)>,
    },
    /// The request failed before reaching a plan.
    Error {
        /// The error text (newline-free).
        message: String,
    },
    /// The server acknowledges shutdown (or connection close).
    Bye,
}

/// Newlines would break the line grammar; flatten them on encode.
fn flatten(message: &str) -> String {
    message.replace(['\n', '\r'], " ")
}

fn encode_cause(c: &WireCause) -> String {
    let gamma = if c.contingency.is_empty() {
        "-".to_string()
    } else {
        c.contingency
            .iter()
            .map(|id| id.0.to_string())
            .collect::<Vec<_>>()
            .join("+")
    };
    format!(
        "{}:{}:{}:{}",
        c.id.0,
        c.responsibility,
        u8::from(c.counterfactual),
        gamma
    )
}

fn parse_cause(tok: &str) -> Result<WireCause, WireError> {
    let mut parts = tok.splitn(4, ':');
    let (Some(id), Some(resp), Some(cf), Some(gamma)) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(malformed(format!("bad cause {tok:?}")));
    };
    let id = ObjectId(
        id.parse::<u32>()
            .map_err(|_| malformed(format!("bad cause id {id:?}")))?,
    );
    let responsibility = resp
        .parse::<f64>()
        .map_err(|_| malformed(format!("bad responsibility {resp:?}")))?;
    let counterfactual = match cf {
        "0" => false,
        "1" => true,
        other => return Err(malformed(format!("bad counterfactual flag {other:?}"))),
    };
    let contingency = if gamma == "-" {
        Vec::new()
    } else {
        gamma
            .split('+')
            .map(|t| {
                t.parse::<u32>()
                    .map(ObjectId)
                    .map_err(|_| malformed(format!("bad contingency id {t:?}")))
            })
            .collect::<Result<Vec<_>, _>>()?
    };
    Ok(WireCause {
        id,
        responsibility,
        counterfactual,
        contingency,
    })
}

fn encode_result(r: &WireResult) -> String {
    match r {
        WireResult::Causes(causes) => {
            let mut line = "ok".to_string();
            for c in causes {
                line.push(' ');
                line.push_str(&encode_cause(c));
            }
            line
        }
        WireResult::Answer { prob } => format!("answer p={prob}"),
        WireResult::Partial(p) => format!(
            "partial reason={} done={} total={} nodes={} subsets={} bound_checks={} ms={}",
            p.reason.as_str(),
            p.done,
            p.total,
            p.nodes,
            p.subsets,
            p.bound_checks,
            p.ms
        ),
        WireResult::Failed { message } => format!("fail {}", flatten(message)),
    }
}

fn parse_result(line: &str) -> Result<WireResult, WireError> {
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb {
        "ok" => {
            let causes = rest
                .split_whitespace()
                .map(parse_cause)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(WireResult::Causes(causes))
        }
        "answer" => {
            let (key, v) = split_kv(rest)?;
            if key != "p" {
                return Err(malformed(format!("bad answer line {rest:?}")));
            }
            let prob = v
                .parse::<f64>()
                .map_err(|_| malformed(format!("bad probability {v:?}")))?;
            Ok(WireResult::Answer { prob })
        }
        "partial" => {
            let mut p = WirePartial {
                reason: WireStop::Deadline,
                done: 0,
                total: 0,
                nodes: 0,
                subsets: 0,
                bound_checks: 0,
                ms: 0,
            };
            let mut saw_reason = false;
            for tok in rest.split_whitespace() {
                match split_kv(tok)? {
                    ("reason", v) => {
                        p.reason = v.parse()?;
                        saw_reason = true;
                    }
                    ("done", v) => p.done = parse_u64(v, "done")?,
                    ("total", v) => p.total = parse_u64(v, "total")?,
                    ("nodes", v) => p.nodes = parse_u64(v, "nodes")?,
                    ("subsets", v) => p.subsets = parse_u64(v, "subsets")?,
                    ("bound_checks", v) => p.bound_checks = parse_u64(v, "bound_checks")?,
                    ("ms", v) => p.ms = parse_u64(v, "ms")?,
                    (key, _) => return Err(malformed(format!("unknown partial field {key:?}"))),
                }
            }
            if !saw_reason {
                return Err(malformed("partial needs reason=…"));
            }
            Ok(WireResult::Partial(p))
        }
        "fail" => Ok(WireResult::Failed {
            message: rest.to_string(),
        }),
        other => Err(malformed(format!("unknown result verb {other:?}"))),
    }
}

fn parse_epoch_field(tok: &str) -> Result<Epoch, WireError> {
    let (key, v) = split_kv(tok)?;
    if key != "epoch" {
        return Err(malformed(format!("expected epoch=…, got {tok:?}")));
    }
    Ok(Epoch(parse_u64(v, "epoch")?))
}

impl Response {
    /// The frame payload for this response.
    pub fn encode(&self) -> String {
        match self {
            Response::Welcome { epoch } => format!("welcome epoch={}", epoch.0),
            Response::Outcomes { epoch, results } => {
                let mut text = format!("outcomes epoch={} n={}", epoch.0, results.len());
                for r in results {
                    text.push('\n');
                    text.push_str(&encode_result(r));
                }
                text
            }
            Response::Applied { epoch, count } => {
                format!("applied epoch={} count={count}", epoch.0)
            }
            Response::Busy { retry_after_ms } => {
                format!("busy retry-after-ms={retry_after_ms}")
            }
            Response::Ids { ids } => format!("ids {}", encode_ids(ids)),
            Response::Stats { fields } => {
                let mut text = "stats".to_string();
                for (k, v) in fields {
                    text.push('\n');
                    text.push_str(&format!("{}={}", flatten(k), flatten(v)));
                }
                text
            }
            Response::Error { message } => format!("err {}", flatten(message)),
            Response::Bye => "bye".into(),
        }
    }

    /// Parses a frame payload as a response.
    pub fn decode(payload: &str) -> Result<Response, WireError> {
        let mut lines = payload.lines();
        let first = lines.next().unwrap_or("").trim_end();
        let (verb, rest) = match first.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (first, ""),
        };
        let single_line = |resp: Response, mut lines: std::str::Lines<'_>| {
            if lines.next().is_some() {
                Err(malformed(format!("{verb} takes a single line")))
            } else {
                Ok(resp)
            }
        };
        match verb {
            "welcome" => {
                let epoch = parse_epoch_field(rest)?;
                single_line(Response::Welcome { epoch }, lines)
            }
            "outcomes" => {
                let mut toks = rest.split_whitespace();
                let epoch = parse_epoch_field(
                    toks.next()
                        .ok_or_else(|| malformed("outcomes needs epoch"))?,
                )?;
                let n_tok = toks.next().ok_or_else(|| malformed("outcomes needs n"))?;
                let (key, v) = split_kv(n_tok)?;
                if key != "n" {
                    return Err(malformed(format!("expected n=…, got {n_tok:?}")));
                }
                let n = parse_u64(v, "result count")? as usize;
                if let Some(extra) = toks.next() {
                    return Err(malformed(format!("unexpected outcomes field {extra:?}")));
                }
                let results = lines.map(parse_result).collect::<Result<Vec<_>, _>>()?;
                if results.len() != n {
                    return Err(malformed(format!(
                        "outcomes declared {n} result(s) but carried {}",
                        results.len()
                    )));
                }
                Ok(Response::Outcomes { epoch, results })
            }
            "applied" => {
                let mut toks = rest.split_whitespace();
                let epoch = parse_epoch_field(
                    toks.next()
                        .ok_or_else(|| malformed("applied needs epoch"))?,
                )?;
                let count_tok = toks
                    .next()
                    .ok_or_else(|| malformed("applied needs count"))?;
                let (key, v) = split_kv(count_tok)?;
                if key != "count" {
                    return Err(malformed(format!("expected count=…, got {count_tok:?}")));
                }
                let count = parse_u64(v, "count")? as usize;
                single_line(Response::Applied { epoch, count }, lines)
            }
            "busy" => {
                let (key, v) = split_kv(rest)?;
                if key != "retry-after-ms" {
                    return Err(malformed(format!("bad busy line {rest:?}")));
                }
                let retry_after_ms = parse_u64(v, "retry-after-ms")?;
                single_line(Response::Busy { retry_after_ms }, lines)
            }
            "ids" => {
                let ids = parse_ids(rest)?;
                single_line(Response::Ids { ids }, lines)
            }
            "stats" if rest.is_empty() => {
                let fields = lines
                    .map(|line| {
                        let (k, v) = split_kv(line)?;
                        Ok((k.to_string(), v.to_string()))
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                Ok(Response::Stats { fields })
            }
            "err" => Ok(Response::Error {
                message: rest.to_string(),
            }),
            "bye" if rest.is_empty() => single_line(Response::Bye, lines),
            other => Err(malformed(format!("unknown response verb {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_reasons_name_what_they_count() {
        for stop in [WireStop::Deadline, WireStop::Nodes, WireStop::Checks] {
            assert_eq!(stop.as_str().parse::<WireStop>().unwrap(), stop);
        }
        assert_eq!(WireStop::Checks.as_str(), "checks");
        assert!("subsets".parse::<WireStop>().is_err());
    }

    #[test]
    fn frames_round_trip() {
        let frame = encode_frame("hello class=batch").unwrap();
        let (payload, consumed) = decode_frame(&frame).unwrap().unwrap();
        assert_eq!(payload, "hello class=batch");
        assert_eq!(consumed, frame.len());
        // Two frames back to back decode one at a time.
        let mut two = frame.clone();
        two.extend_from_slice(&encode_frame("stats").unwrap());
        let (first, used) = decode_frame(&two).unwrap().unwrap();
        assert_eq!(first, "hello class=batch");
        let (second, _) = decode_frame(&two[used..]).unwrap().unwrap();
        assert_eq!(second, "stats");
    }

    #[test]
    fn torn_frames_are_incomplete_not_errors() {
        let frame = encode_frame("shutdown").unwrap();
        for cut in 0..frame.len() {
            assert_eq!(decode_frame(&frame[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_frames_are_typed_errors() {
        let huge = "x".repeat(MAX_FRAME + 1);
        assert_eq!(
            encode_frame(&huge).unwrap_err(),
            WireError::TooLarge { len: MAX_FRAME + 1 }
        );
        let mut header = Vec::new();
        header.extend_from_slice(&((MAX_FRAME as u32) + 1).to_be_bytes());
        assert!(matches!(
            decode_frame(&header).unwrap_err(),
            WireError::TooLarge { .. }
        ));
    }

    #[test]
    fn stream_eof_mid_frame_is_truncated() {
        let frame = encode_frame("stats").unwrap();
        // Clean EOF at a boundary.
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
        // EOF inside the header and inside the payload.
        for cut in 1..frame.len() {
            let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
            assert!(
                matches!(read_frame(&mut cursor), Err(WireError::Truncated { .. })),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Hello {
                class: "interactive".into(),
            },
            Request::Explain {
                ids: vec![ObjectId(42), ObjectId(57)],
                all: false,
                query: Some(Point::from([11580.0, 49000.0])),
                alphas: vec![0.3, 0.5],
            },
            Request::Explain {
                ids: Vec::new(),
                all: true,
                query: None,
                alphas: Vec::new(),
            },
            Request::Update {
                updates: vec![
                    Update::Insert(
                        UncertainObject::with_equal_probs(
                            ObjectId(91),
                            vec![Point::from([4200.0, 1800.0]), Point::from([3900.0, 2100.0])],
                        )
                        .unwrap(),
                    ),
                    Update::Delete(ObjectId(13)),
                ],
            },
            Request::Candidates {
                an: ObjectId(42),
                query: Point::from([1.5, 2.5]),
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in requests {
            let text = req.encode();
            assert_eq!(Request::decode(&text).unwrap(), req, "{text}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Welcome { epoch: Epoch(7) },
            Response::Outcomes {
                epoch: Epoch(3),
                results: vec![
                    WireResult::Causes(vec![
                        WireCause {
                            id: ObjectId(7),
                            responsibility: 0.5,
                            counterfactual: false,
                            contingency: vec![ObjectId(9), ObjectId(11)],
                        },
                        WireCause {
                            id: ObjectId(13),
                            responsibility: 1.0,
                            counterfactual: true,
                            contingency: Vec::new(),
                        },
                    ]),
                    WireResult::Answer { prob: 0.75 },
                    WireResult::Partial(WirePartial {
                        reason: WireStop::Nodes,
                        done: 1,
                        total: 4,
                        nodes: 4096,
                        subsets: 12,
                        bound_checks: 30,
                        ms: 18,
                    }),
                    WireResult::Failed {
                        message: "object 99 not in the dataset".into(),
                    },
                    WireResult::Causes(Vec::new()),
                ],
            },
            Response::Applied {
                epoch: Epoch(4),
                count: 2,
            },
            Response::Busy { retry_after_ms: 40 },
            Response::Ids {
                ids: vec![ObjectId(7), ObjectId(9)],
            },
            Response::Ids { ids: Vec::new() },
            Response::Stats {
                fields: vec![
                    ("windows".into(), "12".into()),
                    ("p99_us".into(), "1024".into()),
                ],
            },
            Response::Error {
                message: "bad request".into(),
            },
            Response::Bye,
        ];
        for resp in responses {
            let text = resp.encode();
            assert_eq!(Response::decode(&text).unwrap(), resp, "{text}");
        }
    }

    #[test]
    fn malformed_messages_are_typed_errors() {
        for bad in [
            "",
            "frobnicate",
            "hello",
            "hello class=",
            "hello kind=batch",
            "explain",
            "explain all extra=1",
            "explain 1,x",
            "explain 1 q=",
            "explain 1 alphas=zebra",
            "update",
            "update\nexplain 1",
            "update\nfrobnicate 3",
            "candidates",
            "candidates 1",
            "candidates x q=1,2",
            "stats extra",
            "shutdown now",
            "stats\nsecond line", // requests, not responses, here
        ] {
            assert!(
                matches!(Request::decode(bad), Err(WireError::Malformed { .. })),
                "{bad:?}"
            );
        }
        for bad in [
            "",
            "welcome",
            "welcome epoch=x",
            "outcomes epoch=1",
            "outcomes epoch=1 n=2\nok",
            "outcomes epoch=1 n=0\nok",
            "outcomes epoch=1 n=1\nwat",
            "outcomes epoch=1 n=1\nok 1:0.5:2:-",
            "outcomes epoch=1 n=1\npartial done=1",
            "applied epoch=1",
            "busy retry-after-ms=soon",
            "ids 1,x",
            "stats trailing",
            "bye bye",
        ] {
            assert!(
                matches!(Response::decode(bad), Err(WireError::Malformed { .. })),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn update_frames_reuse_the_workload_grammar() {
        // A literal replay-workload fragment (comments included) is a
        // valid update frame body.
        let req = Request::decode(
            "update\n# maintenance\ninsert 57 4200,1800 ; 3900,2100\nreplace 57 4100,1950\ndelete 13",
        )
        .unwrap();
        let Request::Update { updates } = req else {
            panic!("expected update");
        };
        assert_eq!(updates.len(), 3);
        assert_eq!(updates[0].verb(), "insert");
        assert_eq!(updates[2], Update::Delete(ObjectId(13)));
    }
}
