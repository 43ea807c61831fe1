//! The load generator: one thread per connection, each sending on a
//! schedule and reading replies on the same thread.
//!
//! * **Open loop** — requests fall due on a schedule fixed in advance,
//!   whatever the server does. Latency is timed from the
//!   *intended* time, so a stall is charged to every request it delays,
//!   and how late the generator itself ran is kept per request.
//! * **Closed loop** — a fixed number of requests in flight; each reply
//!   releases the next send.
//!
//! The wire carries no request id. Admitted explains and updates are
//! answered in FIFO order by the collector, while `busy` is written by
//! the connection thread ahead of queued outcomes. Replies are
//! therefore attributed conservatively: an outcome, ack or error goes
//! to the oldest open request, a `busy` to the newest.

use crate::util::{wait_readable, Rng};
use crp_core::ClientClass;
use crp_data::wire::{decode_frame, write_frame, Request, Response};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long to wait for outstanding replies once sending stops.
const DRAIN: Duration = Duration::from_secs(30);

/// One sent request and what came back.
pub struct Sent {
    /// Index into the caller's input list.
    pub input: usize,
    pub intended: Instant,
    pub sent: Instant,
    /// Requests already open on the connection when this one was sent.
    pub in_flight: usize,
    pub done: Option<Instant>,
    pub reply: Option<Response>,
}

impl Sent {
    /// Milliseconds from intended send to reply.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| crate::util::ms(d - self.intended))
    }

    pub fn lag_ms(&self) -> f64 {
        crate::util::ms(self.sent - self.intended)
    }
}

pub enum Mode {
    /// Sends the `k`-th request at `start + due[k]` seconds (`due`
    /// ascending), whatever the server does.
    Open { start: Instant, due: Vec<f64> },
    /// Keeps `depth` requests in flight until `until`.
    Closed { depth: usize, until: Instant },
}

/// Due times of a Poisson process of `rate` per second over `secs`
/// seconds — independent users — with gaps drawn from a stream seeded
/// by `seed`.
pub fn poisson(rate: f64, secs: f64, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    let mut due = Vec::new();
    let mut t = 0.0;
    while t < secs {
        due.push(t);
        t += -(1.0 - rng.unit()).ln() / rate;
    }
    due
}

/// A framed connection driven from one thread.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects and declares the interactive class.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
        };
        let hello = Request::Hello {
            class: ClientClass::Interactive.as_str().into(),
        };
        match conn.call(&hello)? {
            Response::Welcome { .. } => Ok(conn),
            other => Err(format!("hello: unexpected reply {other:?}")),
        }
    }

    fn send(
        &mut self,
        input: usize,
        intended: Instant,
        req: &Request,
        log: &mut Vec<Sent>,
        open: &mut VecDeque<usize>,
    ) -> Result<(), String> {
        let sent = Instant::now();
        write_frame(&mut self.stream, &req.encode()).map_err(|e| format!("send: {e}"))?;
        let in_flight = open.len();
        open.push_back(log.len());
        log.push(Sent {
            input,
            intended,
            sent,
            in_flight,
            done: None,
            reply: None,
        });
        Ok(())
    }

    /// Reads whatever is available (waiting at most `timeout`) and
    /// attributes every complete reply. Returns how many replies
    /// arrived.
    fn receive(
        &mut self,
        log: &mut [Sent],
        open: &mut VecDeque<usize>,
        timeout: Duration,
    ) -> Result<usize, String> {
        if !wait_readable(self.stream.as_raw_fd(), timeout) {
            return Ok(0);
        }
        let mut chunk = [0u8; 65536];
        let n = self
            .stream
            .read(&mut chunk)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let now = Instant::now();
        self.buf.extend_from_slice(&chunk[..n]);
        let mut replies = 0;
        while let Some((payload, used)) =
            decode_frame(&self.buf).map_err(|e| format!("frame: {e}"))?
        {
            self.buf.drain(..used);
            let resp = Response::decode(&payload).map_err(|e| format!("decode: {e}"))?;
            let slot = match resp {
                Response::Busy { .. } => open.pop_back(),
                _ => open.pop_front(),
            }
            .ok_or_else(|| format!("reply with no open request: {payload}"))?;
            log[slot].done = Some(now);
            log[slot].reply = Some(resp);
            replies += 1;
        }
        Ok(replies)
    }

    fn drain(
        &mut self,
        log: &mut [Sent],
        mut open: VecDeque<usize>,
        deadline: Instant,
    ) -> Result<(), String> {
        while !open.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return Err(format!("{} request(s) never answered", open.len()));
            }
            self.receive(
                log,
                &mut open,
                (deadline - now).min(Duration::from_millis(100)),
            )?;
        }
        Ok(())
    }

    /// Runs one phase, sending `make(k)` as the `k`-th request (`k`
    /// counts from `first`), then waits for every reply.
    pub fn run(
        &mut self,
        mode: Mode,
        first: usize,
        make: impl Fn(usize) -> Request,
    ) -> Result<Vec<Sent>, String> {
        let mut log: Vec<Sent> = Vec::new();
        let mut open: VecDeque<usize> = VecDeque::new();
        let mut k = 0usize;
        match mode {
            Mode::Open { start, due } => {
                while let Some(&offset) = due.get(k) {
                    let due = start + Duration::from_secs_f64(offset);
                    let now = Instant::now();
                    if now >= due {
                        self.send(first + k, due, &make(first + k), &mut log, &mut open)?;
                        k += 1;
                        continue;
                    }
                    self.receive(&mut log, &mut open, due - now)?;
                }
            }
            Mode::Closed { depth, until } => {
                while Instant::now() < until {
                    while open.len() < depth {
                        let now = Instant::now();
                        self.send(first + k, now, &make(first + k), &mut log, &mut open)?;
                        k += 1;
                    }
                    self.receive(&mut log, &mut open, Duration::from_millis(100))?;
                }
            }
        }
        self.drain(&mut log, open, Instant::now() + DRAIN)?;
        Ok(log)
    }

    /// One request/reply round trip outside any measured phase.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        let (mut log, mut open) = (Vec::new(), VecDeque::new());
        self.send(0, Instant::now(), req, &mut log, &mut open)?;
        self.drain(&mut log, open, Instant::now() + DRAIN)?;
        log.pop()
            .and_then(|s| s.reply)
            .ok_or_else(|| "no reply".to_string())
    }
}
