//! The wire protocol: length-prefixed frames carrying versioned,
//! totally-decodable messages.
//!
//! ## Framing
//!
//! Every message travels as one frame: a little-endian `u32` payload
//! length followed by that many payload bytes. The length is capped at
//! [`MAX_FRAME`]; an oversized frame is *drained* (bounded buffer, no
//! allocation proportional to the claimed length) and reported as
//! [`FrameError::Oversized`] — the stream stays positioned at the next
//! frame, so the connection survives and the peer gets a structured
//! protocol error instead of a hangup.
//!
//! ## Payload encoding
//!
//! Payloads use the repo's one canonical codec
//! ([`matelda_table::wire::Reader`]/[`Writer`]): a magic byte,
//! a protocol version, a message tag, then tagged fields. The decoder
//! is *total* — every byte sequence either decodes or returns a
//! [`DecodeError`]; it never panics and never allocates more than the
//! frame it was handed (proven by the never-panic proptests in
//! `tests/proto.rs`).

use matelda_table::wire::{DecodeError, Reader, Writer};
use std::io::{self, Read, Write};

/// Hard cap on a frame's payload length. Requests and responses are a
/// few hundred bytes of paths and counters; a frame claiming more than
/// this is garbage (or an attack) by definition.
pub const MAX_FRAME: u32 = 256 * 1024;

/// Leading byte of every payload, so a stray non-Matelda peer fails
/// fast with [`DecodeError::BadMagic`] instead of a field soup.
const MAGIC: u8 = 0xA7;

/// Protocol version; bump on any message-layout change.
/// v2: [`DetectOutcome::degraded`] + [`ErrorKind::StorageFull`].
pub const PROTO_VERSION: u32 = 2;

/// What went wrong reading a frame off the socket.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The connection died mid-frame (truncated length or payload).
    Truncated,
    /// The frame header claimed more than [`MAX_FRAME`] bytes. The
    /// oversized payload has been drained; the stream is usable.
    Oversized { claimed: u32 },
    /// An OS-level I/O error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "connection died mid-frame"),
            FrameError::Oversized { claimed } => {
                write!(f, "frame of {claimed} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: `len:u32le` then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME as usize, "outbound frame exceeds cap");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. Total: every outcome is a value, never a panic.
///
/// * clean EOF before any header byte → [`FrameError::Closed`];
/// * EOF mid-header or mid-payload → [`FrameError::Truncated`];
/// * length above [`MAX_FRAME`] → the payload is drained through a
///   fixed 8 KiB buffer and [`FrameError::Oversized`] returned with the
///   stream left at the next frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME {
        // Drain without trusting the claimed length for allocation.
        let mut remaining = len as u64;
        let mut sink = [0u8; 8192];
        while remaining > 0 {
            let want = sink.len().min(remaining as usize);
            match r.read(&mut sink[..want]) {
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => remaining -= n as u64,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        return Err(FrameError::Oversized { claimed: len });
    }
    let mut payload = vec![0u8; len as usize];
    match r.read_exact(&mut payload) {
        Ok(()) => Ok(payload),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(FrameError::Truncated),
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// One detection job: which lakes, which knobs. Paths are resolved on
/// the *server's* filesystem — the daemon serves lakes it can see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectJob {
    /// Directory of dirty CSV tables.
    pub dirty_dir: String,
    /// Directory of the clean reference lake (the labeling oracle).
    pub clean_dir: String,
    /// Labeling budget in cells.
    pub budget: u64,
    /// Pipeline seed.
    pub seed: u64,
    /// Paper variant, as in the CLI: `standard`, `edf`, `rs`, `santos`,
    /// `sf`, `tpdf` or `tucf`.
    pub variant: String,
    /// Per-request deadline in milliseconds; `0` disables it. A blown
    /// deadline degrades the run through the stage watchdog and
    /// `FaultPolicy::Skip` — it never kills the daemon.
    pub deadline_ms: u64,
    /// Bypass the memo-cache on read (the result is still stored).
    pub fresh: bool,
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Run (or answer from cache) one detection.
    Detect(DetectJob),
    /// Graceful shutdown: stop admitting, drain in-flight runs,
    /// acknowledge, exit.
    Shutdown,
}

/// The distilled result of a detection run, server→client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectOutcome {
    /// Order-stable digest of the full `DetectionResult` (see
    /// `DetectionResult::digest`): the bit-identity witness.
    pub digest: u64,
    /// Labels actually spent.
    pub labels_used: u64,
    /// Domain folds formed.
    pub n_domain_folds: u64,
    /// Quality folds formed.
    pub n_quality_folds: u64,
    /// Cells flagged erroneous.
    pub flagged: u64,
    /// Tables quarantined by fault degradation.
    pub quarantined_tables: u64,
    /// Stages actually executed for this response (0 for a cache hit).
    pub stages_run: u64,
    /// Stages restored from the run's checkpoint frontier.
    pub stages_restored: u64,
    /// Whether the answer came from the validated memo-cache.
    pub cached: bool,
    /// Whether the run lost its durability to a storage fault
    /// (`DurabilityPolicy::Degrade`): the result is still bit-correct,
    /// but this run cannot be resumed and was not memoized durably.
    pub degraded: bool,
}

/// Structured failure classes, mirroring the CLI's exit-code taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request frame or payload was malformed (connection survives).
    Protocol,
    /// The request decoded but asks something invalid (unknown variant…).
    BadRequest,
    /// Reading the lake directories failed.
    Ingest,
    /// The checkpoint/cache layer refused (corrupt or foreign data).
    Checkpoint,
    /// The detection run itself faulted; only this request is poisoned.
    Faulted,
    /// The daemon's disk budget cannot fit this *active* run under
    /// strict durability. Completed state was already eligible for
    /// eviction — this is "the live run itself does not fit". Retry
    /// after freeing space, raising `--state-budget-bytes`, or running
    /// without strict durability.
    StorageFull,
}

impl ErrorKind {
    fn code(self) -> u8 {
        match self {
            ErrorKind::Protocol => 0,
            ErrorKind::BadRequest => 1,
            ErrorKind::Ingest => 2,
            ErrorKind::Checkpoint => 3,
            ErrorKind::Faulted => 4,
            ErrorKind::StorageFull => 5,
        }
    }

    fn from_code(c: u8) -> Result<Self, DecodeError> {
        Ok(match c {
            0 => ErrorKind::Protocol,
            1 => ErrorKind::BadRequest,
            2 => ErrorKind::Ingest,
            3 => ErrorKind::Checkpoint,
            4 => ErrorKind::Faulted,
            5 => ErrorKind::StorageFull,
            other => return Err(DecodeError::Malformed(format!("error kind {other}"))),
        })
    }
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// The detection finished (possibly degraded — see the outcome).
    Result(DetectOutcome),
    /// Backpressure: both the active slots and the bounded admission
    /// queue are full. Retry later; nothing was started.
    Busy {
        /// Runs currently executing.
        active: u64,
        /// Requests currently waiting in the admission queue.
        queued: u64,
    },
    /// The daemon is draining for shutdown and admits nothing new.
    ShuttingDown,
    /// Graceful-shutdown acknowledgement: every in-flight run drained
    /// (and therefore checkpointed through its last completed stage).
    ShutdownAck {
        /// Runs that were in flight when the shutdown was requested.
        drained: u64,
    },
    /// A structured failure; the connection survives.
    Error {
        /// The failure class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

const TAG_PING: u8 = 1;
const TAG_DETECT: u8 = 2;
const TAG_SHUTDOWN: u8 = 3;

const TAG_PONG: u8 = 1;
const TAG_RESULT: u8 = 2;
const TAG_BUSY: u8 = 3;
const TAG_SHUTTING_DOWN: u8 = 4;
const TAG_SHUTDOWN_ACK: u8 = 5;
const TAG_ERROR: u8 = 6;

fn header(w: &mut Writer, tag: u8) {
    w.write_u8(MAGIC);
    w.write_u32(PROTO_VERSION);
    w.write_u8(tag);
}

fn read_header(r: &mut Reader<'_>) -> Result<u8, DecodeError> {
    if r.read_u8()? != MAGIC {
        return Err(DecodeError::BadMagic { expected: "matelda-serve" });
    }
    let version = r.read_u32()?;
    if version != PROTO_VERSION {
        return Err(DecodeError::BadVersion { found: version, expected: PROTO_VERSION });
    }
    r.read_u8()
}

/// Encodes a request payload (framing is separate — [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = Writer::new();
    match req {
        Request::Ping => header(&mut w, TAG_PING),
        Request::Detect(job) => {
            header(&mut w, TAG_DETECT);
            w.write_str(&job.dirty_dir);
            w.write_str(&job.clean_dir);
            w.write_u64(job.budget);
            w.write_u64(job.seed);
            w.write_str(&job.variant);
            w.write_u64(job.deadline_ms);
            w.write_bool(job.fresh);
        }
        Request::Shutdown => header(&mut w, TAG_SHUTDOWN),
    }
    w.into_bytes()
}

/// Decodes a request payload. Total; trailing bytes are an error.
pub fn decode_request(bytes: &[u8]) -> Result<Request, DecodeError> {
    let mut r = Reader::new(bytes);
    let req = match read_header(&mut r)? {
        TAG_PING => Request::Ping,
        TAG_DETECT => Request::Detect(DetectJob {
            dirty_dir: r.read_str()?,
            clean_dir: r.read_str()?,
            budget: r.read_u64()?,
            seed: r.read_u64()?,
            variant: r.read_str()?,
            deadline_ms: r.read_u64()?,
            fresh: r.read_bool()?,
        }),
        TAG_SHUTDOWN => Request::Shutdown,
        other => return Err(DecodeError::Malformed(format!("request tag {other}"))),
    };
    r.finish()?;
    Ok(req)
}

/// Encodes a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = Writer::new();
    match resp {
        Response::Pong => header(&mut w, TAG_PONG),
        Response::Result(o) => {
            header(&mut w, TAG_RESULT);
            encode_outcome(&mut w, o);
        }
        Response::Busy { active, queued } => {
            header(&mut w, TAG_BUSY);
            w.write_u64(*active);
            w.write_u64(*queued);
        }
        Response::ShuttingDown => header(&mut w, TAG_SHUTTING_DOWN),
        Response::ShutdownAck { drained } => {
            header(&mut w, TAG_SHUTDOWN_ACK);
            w.write_u64(*drained);
        }
        Response::Error { kind, message } => {
            header(&mut w, TAG_ERROR);
            w.write_u8(kind.code());
            w.write_str(message);
        }
    }
    w.into_bytes()
}

/// Decodes a response payload. Total; trailing bytes are an error.
pub fn decode_response(bytes: &[u8]) -> Result<Response, DecodeError> {
    let mut r = Reader::new(bytes);
    let resp = match read_header(&mut r)? {
        TAG_PONG => Response::Pong,
        TAG_RESULT => Response::Result(decode_outcome(&mut r)?),
        TAG_BUSY => Response::Busy { active: r.read_u64()?, queued: r.read_u64()? },
        TAG_SHUTTING_DOWN => Response::ShuttingDown,
        TAG_SHUTDOWN_ACK => Response::ShutdownAck { drained: r.read_u64()? },
        TAG_ERROR => {
            Response::Error { kind: ErrorKind::from_code(r.read_u8()?)?, message: r.read_str()? }
        }
        other => return Err(DecodeError::Malformed(format!("response tag {other}"))),
    };
    r.finish()?;
    Ok(resp)
}

/// Encodes just the outcome fields — shared between the response codec
/// and the memo-cache's on-disk entry format.
pub fn encode_outcome(w: &mut Writer, o: &DetectOutcome) {
    w.write_u64(o.digest);
    w.write_u64(o.labels_used);
    w.write_u64(o.n_domain_folds);
    w.write_u64(o.n_quality_folds);
    w.write_u64(o.flagged);
    w.write_u64(o.quarantined_tables);
    w.write_u64(o.stages_run);
    w.write_u64(o.stages_restored);
    w.write_bool(o.cached);
    w.write_bool(o.degraded);
}

/// Decodes the outcome fields (see [`encode_outcome`]).
pub fn decode_outcome(r: &mut Reader<'_>) -> Result<DetectOutcome, DecodeError> {
    Ok(DetectOutcome {
        digest: r.read_u64()?,
        labels_used: r.read_u64()?,
        n_domain_folds: r.read_u64()?,
        n_quality_folds: r.read_u64()?,
        flagged: r.read_u64()?,
        quarantined_tables: r.read_u64()?,
        stages_run: r.read_u64()?,
        stages_restored: r.read_u64()?,
        cached: r.read_bool()?,
        degraded: r.read_bool()?,
    })
}
