//! The client side: one-shot requests and a deterministic retry loop
//! that survives daemon crashes and backpressure.

use crate::proto::{
    decode_response, encode_request, read_frame, write_frame, FrameError, Request, Response,
};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Deterministic retry policy: attempt `n` sleeps
/// `base_ms << min(n, 6)` milliseconds (exponential, capped at 64×
/// base) plus a seed-deterministic jitter of up to a quarter step.
/// Determinism is *per seed*: the same `seed` replays the exact same
/// schedule — tests rely on that — while two clients with different
/// seeds desynchronize instead of stampeding a restarting daemon in
/// lockstep.
#[derive(Debug, Clone, Copy)]
pub struct Retry {
    /// Total attempts (the first try included). 0 behaves as 1.
    pub attempts: u32,
    /// Base backoff in milliseconds.
    pub base_ms: u64,
    /// Hard cap on *total* sleep across all backoffs, in milliseconds;
    /// 0 means uncapped. The schedule is truncated, never stretched:
    /// the first backoff that would overflow the budget is clamped to
    /// the remainder and becomes the last.
    pub budget_ms: u64,
    /// Jitter seed (see the type docs for the determinism contract).
    pub seed: u64,
}

impl Default for Retry {
    fn default() -> Self {
        Retry { attempts: 10, base_ms: 50, budget_ms: 0, seed: 0 }
    }
}

/// splitmix64-style jitter in `0..=span`, a pure function of
/// `(seed, attempt)` — replayable, but decorrelated across seeds.
fn jitter(seed: u64, attempt: u32, span: u64) -> u64 {
    if span == 0 {
        return 0;
    }
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(attempt) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % (span + 1)
}

impl Retry {
    fn step_ms(&self, attempt: u32) -> u64 {
        let base = self.base_ms << attempt.min(6);
        base + jitter(self.seed, attempt, base / 4)
    }

    /// The backoff before retry number `attempt` (0-based), budget
    /// aside.
    pub fn backoff(&self, attempt: u32) -> Duration {
        Duration::from_millis(self.step_ms(attempt))
    }

    /// The complete sleep schedule in milliseconds — entry `n` is the
    /// sleep between attempt `n` and attempt `n + 1` — computable up
    /// front and exactly what [`request_with_retry`] executes. Its sum
    /// never exceeds `budget_ms` (when set), so attempts made is
    /// `schedule().len() + 1` regardless of how the daemon fails.
    pub fn schedule(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut spent = 0u64;
        for n in 0..self.attempts.max(1).saturating_sub(1) {
            let mut step = self.step_ms(n);
            if self.budget_ms > 0 {
                let left = self.budget_ms.saturating_sub(spent);
                if left == 0 {
                    break;
                }
                step = step.min(left);
            }
            spent = spent.saturating_add(step);
            out.push(step);
        }
        out
    }
}

/// Whether a transport error is worth retrying: the kinds a crashing,
/// restarting or overloaded daemon actually produces on the wire.
/// Anything else — a malformed response, permission trouble, an
/// unroutable address — replays the same failure on every attempt, so
/// the loop returns it immediately as [`ClientError::Fatal`].
pub fn is_retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::Interrupted
    )
}

/// Why a retried request ultimately gave up.
#[derive(Debug)]
pub enum ClientError {
    /// Every attempt failed at the transport layer; the last error.
    Unreachable(io::Error),
    /// The daemon kept answering `Busy` through every attempt.
    Overloaded,
    /// The daemon is shutting down and refused admission.
    ShuttingDown,
    /// A non-retryable transport/protocol error (see [`is_retryable`]);
    /// returned without burning further attempts.
    Fatal(io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Unreachable(e) => write!(f, "daemon unreachable: {e}"),
            ClientError::Overloaded => write!(f, "daemon overloaded (Busy on every attempt)"),
            ClientError::ShuttingDown => write!(f, "daemon is shutting down"),
            ClientError::Fatal(e) => write!(f, "non-retryable transport error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Sends one request over a fresh connection and reads one response.
/// Transport and protocol failures surface as `io::Error` — retryable
/// by [`request_with_retry`].
pub fn request(addr: SocketAddr, req: &Request) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, &encode_request(req))?;
    let payload = read_frame(&mut stream).map_err(|e| match e {
        FrameError::Io(io) => io,
        other => io::Error::new(io::ErrorKind::UnexpectedEof, other.to_string()),
    })?;
    decode_response(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// [`request`] with deterministic backoff across transport failures and
/// `Busy` responses.
///
/// This is the crash-tolerance loop: a daemon SIGKILLed mid-request
/// shows up here as a connection reset (retry), a restarting daemon as
/// a refused connection (retry), an overloaded one as `Busy` (retry) —
/// and because the daemon checkpoints per stage under a stable key, the
/// retried request *resumes* the dead run instead of restarting it.
/// Non-retryable transport errors (see [`is_retryable`]) abort the loop
/// at once; any other response is final and returned as-is. Total sleep
/// follows [`Retry::schedule`] exactly, so `budget_ms` bounds how long
/// a caller can be stuck here.
pub fn request_with_retry(
    addr: SocketAddr,
    req: &Request,
    retry: Retry,
) -> Result<Response, ClientError> {
    let schedule = retry.schedule();
    let mut last_io: Option<io::Error> = None;
    let mut saw_busy = false;
    for attempt in 0.. {
        match request(addr, req) {
            Ok(Response::Busy { .. }) => saw_busy = true,
            Ok(Response::ShuttingDown) => return Err(ClientError::ShuttingDown),
            Ok(resp) => return Ok(resp),
            Err(e) if is_retryable(&e) => last_io = Some(e),
            Err(e) => return Err(ClientError::Fatal(e)),
        }
        match schedule.get(attempt) {
            Some(ms) => std::thread::sleep(Duration::from_millis(*ms)),
            None => break,
        }
    }
    // Prefer the transport error when both happened: it is the one the
    // operator can act on.
    match last_io {
        Some(e) => Err(ClientError::Unreachable(e)),
        None if saw_busy => Err(ClientError::Overloaded),
        None => Err(ClientError::Unreachable(io::Error::other("no attempts were made"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::write_frame;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn schedule_is_replayable_and_seed_decorrelated() {
        let retry = Retry { attempts: 6, base_ms: 50, budget_ms: 0, seed: 7 };
        assert_eq!(retry.schedule(), retry.schedule(), "same seed replays exactly");
        for (n, &step) in retry.schedule().iter().enumerate() {
            let base = 50u64 << (n as u32).min(6);
            assert!(step >= base && step <= base + base / 4, "step {n} = {step} off the envelope");
        }
        let other = Retry { seed: 8, ..retry };
        assert_ne!(retry.schedule(), other.schedule(), "different seeds desynchronize");
    }

    #[test]
    fn budget_caps_total_sleep_and_clamps_the_last_step() {
        let retry = Retry { attempts: 100, base_ms: 100, budget_ms: 250, seed: 0 };
        let schedule = retry.schedule();
        assert!(schedule.len() < 99, "budget must truncate the schedule");
        assert!(schedule.iter().sum::<u64>() <= 250, "total sleep exceeds --retry-budget-ms");
        // The budget is spent exactly, not undershot: the last step is
        // clamped to the remainder rather than dropped.
        assert_eq!(schedule.iter().sum::<u64>(), 250);
    }

    #[test]
    fn transient_kinds_are_retryable_and_protocol_kinds_are_not() {
        use io::ErrorKind as K;
        for kind in [
            K::ConnectionRefused,
            K::ConnectionReset,
            K::ConnectionAborted,
            K::BrokenPipe,
            K::UnexpectedEof,
            K::TimedOut,
            K::WouldBlock,
            K::Interrupted,
        ] {
            assert!(is_retryable(&io::Error::from(kind)), "{kind:?} must retry");
        }
        for kind in [K::InvalidData, K::InvalidInput, K::PermissionDenied, K::Unsupported] {
            assert!(!is_retryable(&io::Error::from(kind)), "{kind:?} must be fatal");
        }
    }

    /// A one-shot server that accepts `n` connections and hands each
    /// socket to `serve`; returns (addr, accept counter, join handle).
    fn tiny_server(
        n: u64,
        serve: impl Fn(std::net::TcpStream) + Send + 'static,
    ) -> (SocketAddr, Arc<AtomicU64>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&accepted);
        let handle = std::thread::spawn(move || {
            for _ in 0..n {
                let Ok((stream, _)) = listener.accept() else { return };
                counter.fetch_add(1, Ordering::SeqCst);
                serve(stream);
            }
        });
        (addr, accepted, handle)
    }

    #[test]
    fn a_garbled_response_is_fatal_after_exactly_one_attempt() {
        let (addr, accepted, handle) = tiny_server(4, |mut stream| {
            // Read the request first: closing a socket with unread bytes
            // makes the kernel send a reset instead of a FIN, and a reset
            // can reach the client before it reads the reply, which it
            // then sees as a retryable `ConnectionReset`. With the request
            // consumed, the close is a FIN that follows the reply.
            let _ = read_frame(&mut stream);
            // A well-framed payload that is not a decodable Response.
            let _ = write_frame(&mut stream, b"\xFFnot a response\xFF");
        });
        let retry = Retry { attempts: 4, base_ms: 1, budget_ms: 0, seed: 0 };
        match request_with_retry(addr, &Request::Ping, retry) {
            Err(ClientError::Fatal(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            other => panic!("expected Fatal(InvalidData), got {other:?}"),
        }
        assert_eq!(accepted.load(Ordering::SeqCst), 1, "fatal errors must not retry");
        drop(handle); // server thread parks on accept; process exit reaps it
    }

    #[test]
    fn the_budget_bounds_attempts_against_a_flapping_daemon() {
        // Every accept closes the socket before answering: UnexpectedEof
        // (or a reset), retryable each time. The budget truncates the
        // schedule to 3 sleeps, so exactly 4 connections happen even
        // though `attempts` allows 50.
        let (addr, accepted, _handle) = tiny_server(64, drop);
        let retry = Retry { attempts: 50, base_ms: 2, budget_ms: 6, seed: 3 };
        let expected = retry.schedule().len() as u64 + 1;
        match request_with_retry(addr, &Request::Ping, retry) {
            Err(ClientError::Unreachable(e)) => {
                assert!(is_retryable(&e), "gave up on a retryable kind: {e}")
            }
            other => panic!("expected Unreachable, got {other:?}"),
        }
        assert_eq!(accepted.load(Ordering::SeqCst), expected, "schedule length + 1 attempts");
    }
}
