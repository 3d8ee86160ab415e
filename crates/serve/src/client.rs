//! Blocking TCP client for the prediction service.
//!
//! [`Client`] is a thin frame-level wrapper; [`Client::run_trace`] is
//! the convenience path the load generator uses: open → feed in batches
//! (honouring `Busy` backpressure with bounded retries) → close.

use crate::proto::{
    Frame, ProtoError, WireMode, WirePreset, MAX_FRAME, PROTO_VERSION, RECORD_BYTES,
};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use zbp_model::{BranchRecord, DynamicTrace, MispredictStats};

/// Default records per feed frame — comfortably under [`MAX_FRAME`].
pub const DEFAULT_BATCH: usize = 4096;

/// How a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Proto(ProtoError),
    /// The server answered with an error frame.
    Server(String),
    /// The server kept answering `Busy` past the retry budget.
    Saturated {
        /// `Busy` replies received before giving up.
        attempts: u32,
    },
    /// The server replied with a frame the protocol does not allow
    /// here.
    UnexpectedFrame,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Saturated { attempts } => {
                write!(f, "server still busy after {attempts} attempts")
            }
            ClientError::UnexpectedFrame => f.write_str("unexpected reply frame"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// What one remotely-replayed stream produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteReport {
    /// Stream id the server assigned.
    pub id: u64,
    /// Shard the stream ran on.
    pub shard: u32,
    /// Final misprediction statistics.
    pub stats: MispredictStats,
    /// Pipeline restarts delivered.
    pub flushes: u64,
    /// Records the server consumed.
    pub records: u64,
    /// `Busy` replies absorbed (and retried) along the way.
    pub busy_retries: u64,
}

/// A blocking connection to a prediction service.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Outgoing frame bytes, reused by every request.
    wbuf: Vec<u8>,
    /// Busy-retry budget per request.
    max_retries: u32,
    /// Sleep between Busy retries is the server hint capped here.
    max_backoff: Duration,
    /// `Busy` replies absorbed by `feed` retry loops.
    busy_retries: u64,
}

impl Client {
    /// Connects to the service and performs the version handshake.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure;
    /// [`ProtoError::VersionMismatch`] (wrapped in
    /// [`ClientError::Proto`]) when the server speaks an incompatible
    /// protocol revision.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            wbuf: Vec::new(),
            max_retries: 10_000,
            max_backoff: Duration::from_millis(20),
            busy_retries: 0,
        };
        match client.call(&Frame::Hello { version: PROTO_VERSION })? {
            Frame::HelloOk { version } if version == PROTO_VERSION => Ok(client),
            Frame::HelloOk { version } => Err(ClientError::Proto(ProtoError::VersionMismatch {
                ours: PROTO_VERSION,
                theirs: version,
            })),
            Frame::Err { message } => Err(ClientError::Server(message)),
            _ => Err(ClientError::UnexpectedFrame),
        }
    }

    /// Replaces the per-request Busy-retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Client {
        self.max_retries = max_retries;
        self
    }

    /// Sends one frame and reads one reply, without Busy handling.
    ///
    /// # Errors
    ///
    /// Framing failures, or [`ClientError::Proto`] with an EOF when the
    /// server closed the connection.
    pub fn call(&mut self, frame: &Frame) -> Result<Frame, ClientError> {
        use std::io::Write;
        frame.write_with(&mut self.writer, &mut self.wbuf)?;
        self.writer.flush().map_err(ProtoError::Io)?;
        match Frame::read_from(&mut self.reader)? {
            Some(f) => Ok(f),
            None => Err(ClientError::Proto(ProtoError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )))),
        }
    }

    /// Like [`call`](Client::call), but retries the request while the
    /// server answers `Busy`, sleeping the hinted delay (capped) between
    /// attempts. Returns the terminal reply and the retry count.
    ///
    /// # Errors
    ///
    /// [`ClientError::Saturated`] once the retry budget is exhausted.
    pub fn call_retrying(&mut self, frame: &Frame) -> Result<(Frame, u64), ClientError> {
        let mut retries = 0u64;
        loop {
            match self.call(frame)? {
                Frame::Busy { retry_after_ms } => {
                    if retries >= u64::from(self.max_retries) {
                        return Err(ClientError::Saturated { attempts: self.max_retries });
                    }
                    retries += 1;
                    let hint = Duration::from_millis(u64::from(retry_after_ms));
                    std::thread::sleep(hint.min(self.max_backoff));
                }
                reply => return Ok((reply, retries)),
            }
        }
    }

    /// Opens a stream, feeds the whole trace in `batch`-sized frames
    /// (retrying through backpressure), closes it, and returns the
    /// server's accounting.
    ///
    /// # Errors
    ///
    /// Any transport, server, or saturation failure along the way.
    pub fn run_trace(
        &mut self,
        preset: impl Into<WirePreset>,
        mode: WireMode,
        trace: &DynamicTrace,
        batch: usize,
    ) -> Result<RemoteReport, ClientError> {
        let batch = batch.clamp(1, MAX_FRAME / RECORD_BYTES);
        let mut busy_retries = 0u64;
        let open = Frame::Open {
            preset: preset.into(),
            mode,
            traced: false,
            label: trace.label().to_string(),
        };
        let (reply, r) = self.call_retrying(&open)?;
        busy_retries += r;
        let (id, shard) = match reply {
            Frame::OpenOk { id, shard } => (id, shard),
            Frame::Err { message } => return Err(ClientError::Server(message)),
            _ => return Err(ClientError::UnexpectedFrame),
        };
        for chunk in trace.as_slice().chunks(batch) {
            let feed = Frame::Feed { id, batch: chunk.to_vec() };
            let (reply, r) = self.call_retrying(&feed)?;
            busy_retries += r;
            match reply {
                Frame::FeedOk { .. } => {}
                Frame::Err { message } => return Err(ClientError::Server(message)),
                _ => return Err(ClientError::UnexpectedFrame),
            }
        }
        let close = Frame::Close { id, tail_instrs: trace.tail_instrs() };
        let (reply, r) = self.call_retrying(&close)?;
        busy_retries += r;
        match reply {
            Frame::CloseOk { stats, flushes, records } => {
                Ok(RemoteReport { id, shard, stats, flushes, records, busy_retries })
            }
            Frame::Err { message } => Err(ClientError::Server(message)),
            _ => Err(ClientError::UnexpectedFrame),
        }
    }

    /// Opens one stream (retrying through backpressure) and returns
    /// `(stream id, shard)`. The connection can hold any number of
    /// open streams at once — the soak load generator multiplexes
    /// thousands per socket.
    ///
    /// # Errors
    ///
    /// Any transport, server, or saturation failure.
    pub fn open(
        &mut self,
        preset: impl Into<WirePreset>,
        mode: WireMode,
        traced: bool,
        label: &str,
    ) -> Result<(u64, u32), ClientError> {
        let open = Frame::Open { preset: preset.into(), mode, traced, label: label.to_string() };
        match self.call_retrying(&open)?.0 {
            Frame::OpenOk { id, shard } => Ok((id, shard)),
            Frame::Err { message } => Err(ClientError::Server(message)),
            _ => Err(ClientError::UnexpectedFrame),
        }
    }

    /// Feeds one raw batch to an already-open stream (retrying through
    /// backpressure); returns the server's running record count.
    ///
    /// # Errors
    ///
    /// Any transport, server, or saturation failure.
    pub fn feed(&mut self, id: u64, batch: &[BranchRecord]) -> Result<u64, ClientError> {
        let (reply, retries) = self.call_retrying(&Frame::Feed { id, batch: batch.to_vec() })?;
        self.busy_retries += retries;
        match reply {
            Frame::FeedOk { records } => Ok(records),
            Frame::Err { message } => Err(ClientError::Server(message)),
            _ => Err(ClientError::UnexpectedFrame),
        }
    }

    /// `Busy` replies absorbed by [`feed`](Client::feed) retry loops
    /// over the connection's lifetime.
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Closes an open stream (retrying through backpressure) and
    /// returns the server's final accounting.
    ///
    /// # Errors
    ///
    /// Any transport, server, or saturation failure.
    pub fn close(
        &mut self,
        id: u64,
        tail_instrs: u64,
    ) -> Result<(MispredictStats, u64, u64), ClientError> {
        match self.call_retrying(&Frame::Close { id, tail_instrs })?.0 {
            Frame::CloseOk { stats, flushes, records } => Ok((stats, flushes, records)),
            Frame::Err { message } => Err(ClientError::Server(message)),
            _ => Err(ClientError::UnexpectedFrame),
        }
    }
}
