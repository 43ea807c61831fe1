//! The client half of the wire protocol: a blocking framed
//! connection.

use crp_core::ClientClass;
use crp_data::wire::{read_frame, write_frame, Request, Response, WireError, WireResult};
use crp_geom::Point;
use crp_uncertain::{Epoch, ObjectId, UncertainObject, Update};
use std::fmt;
use std::net::{TcpStream, ToSocketAddrs};

/// Everything that can go wrong on the client side of a conversation.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failed.
    Wire(WireError),
    /// Connecting failed.
    Io(std::io::Error),
    /// The server said no (wire `err`).
    Server(String),
    /// The server shed the request; retry after the hinted backoff.
    Busy {
        /// Server-suggested backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The server answered with a differently-typed response than the
    /// verb calls for.
    Unexpected(String),
    /// The server closed the connection at a frame boundary.
    Closed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Busy { retry_after_ms } => {
                write!(f, "shed: retry after {retry_after_ms} ms")
            }
            ClientError::Unexpected(got) => write!(f, "unexpected response: {got}"),
            ClientError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One framed, blocking connection to a [`crate::Server`].
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects without introducing itself (the server then treats the
    /// connection as [`ClientClass::Interactive`]).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Connects and sends `hello`; returns the epoch the server
    /// currently serves.
    pub fn connect_as(
        addr: impl ToSocketAddrs,
        class: ClientClass,
    ) -> Result<(Self, Epoch), ClientError> {
        let mut client = Self::connect(addr)?;
        let epoch = client.hello(class)?;
        Ok((client, epoch))
    }

    /// Declares this connection's serving class.
    pub fn hello(&mut self, class: ClientClass) -> Result<Epoch, ClientError> {
        match self.request(&Request::Hello {
            class: class.as_str().to_string(),
        })? {
            Response::Welcome { epoch } => Ok(epoch),
            other => Err(unexpected(other)),
        }
    }

    /// One request/response round trip.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &req.encode())?;
        match read_frame(&mut self.stream)? {
            Some(payload) => Ok(Response::decode(&payload)?),
            None => Err(ClientError::Closed),
        }
    }

    /// Writes every request back-to-back, then reads one response per
    /// request. Admitted explains come back in request order (the
    /// collector serves FIFO); `busy` sheds and inline verbs reply
    /// from the reader thread and may interleave ahead, so callers
    /// asserting on a pipelined conversation should match responses by
    /// type, not position.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ClientError> {
        for req in reqs {
            write_frame(&mut self.stream, &req.encode())?;
        }
        let mut out = Vec::with_capacity(reqs.len());
        for _ in reqs {
            match read_frame(&mut self.stream)? {
                Some(payload) => out.push(Response::decode(&payload)?),
                None => return Err(ClientError::Closed),
            }
        }
        Ok(out)
    }

    /// Explains `ids` (optionally at an explicit query point and α
    /// list); returns the epoch the window ran at plus one result per
    /// task in request expansion order.
    pub fn explain(
        &mut self,
        ids: &[ObjectId],
        query: Option<&Point>,
        alphas: &[f64],
    ) -> Result<(Epoch, Vec<WireResult>), ClientError> {
        self.explain_request(&Request::Explain {
            ids: ids.to_vec(),
            all: false,
            query: query.cloned(),
            alphas: alphas.to_vec(),
        })
    }

    /// Explains every live object.
    pub fn explain_all(
        &mut self,
        query: Option<&Point>,
        alphas: &[f64],
    ) -> Result<(Epoch, Vec<WireResult>), ClientError> {
        self.explain_request(&Request::Explain {
            ids: Vec::new(),
            all: true,
            query: query.cloned(),
            alphas: alphas.to_vec(),
        })
    }

    fn explain_request(&mut self, req: &Request) -> Result<(Epoch, Vec<WireResult>), ClientError> {
        match self.request(req)? {
            Response::Outcomes { epoch, results } => Ok((epoch, results)),
            Response::Busy { retry_after_ms } => Err(ClientError::Busy { retry_after_ms }),
            other => Err(unexpected(other)),
        }
    }

    /// Applies one update batch at the next window boundary; returns
    /// the epoch it published and how many updates it held.
    pub fn update(
        &mut self,
        updates: Vec<Update<UncertainObject>>,
    ) -> Result<(Epoch, usize), ClientError> {
        match self.request(&Request::Update { updates })? {
            Response::Applied { epoch, count } => Ok((epoch, count)),
            other => Err(unexpected(other)),
        }
    }

    /// Stage-1 candidate ids for one non-answer (ascending).
    pub fn candidates(&mut self, q: &Point, an: ObjectId) -> Result<Vec<ObjectId>, ClientError> {
        match self.request(&Request::Candidates {
            an,
            query: q.clone(),
        })? {
            Response::Ids { ids } => Ok(ids),
            other => Err(unexpected(other)),
        }
    }

    /// The server's counters as `key=value` pairs.
    pub fn stats(&mut self) -> Result<Vec<(String, String)>, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats { fields } => Ok(fields),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to drain, checkpoint, and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: Response) -> ClientError {
    match resp {
        Response::Error { message } => ClientError::Server(message),
        other => ClientError::Unexpected(other.encode()),
    }
}
