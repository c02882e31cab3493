//! Wire client and in-process duplex transport.
//!
//! [`WireClient`] drives the [`crate::wire`] protocol over any
//! `Read + Write` stream — a [`DuplexPipe`] end for in-process use, a
//! `UnixStream` for a socket server (see [`crate::wire::serve_unix`]).
//! Every method is a strict request/response round trip, except that
//! [`await_responses`](WireClient::await_responses) answers from the
//! client's **stash** when it can: the responses a
//! [`Submitted`](crate::wire::Response::Submitted) carried back because
//! the runtime ran the group to completion while admitting it. An ingest
//! request on a threaded runtime so costs one round trip. Service-side
//! rejections come back as typed
//! [`ClientError::Service`] values, so a remote caller
//! sheds load (`TenantBusy`, `QueueFull`, `Overloaded`) exactly like an
//! in-process one.
//!
//! The [`DuplexPipe`] is a pair of bounded-unbounded byte queues with
//! condvar wakeups — the smallest transport that exercises the real
//! streaming frame reader (partial reads, interleaved frames, clean
//! close) without touching the filesystem or network, which keeps the
//! fault-injection tests hermetic and deterministic.

use crate::error::ServiceError;
use crate::runtime::{RuntimeError, RuntimeHandle, DEFAULT_MAILBOX_CAP};
use crate::service::{OpResponse, SessionOp, SessionSpec, SessionStatus};
use crate::stats::{RecoveryHealth, ServiceStats};
use crate::wire::{
    self, decode_response, encode_request, read_frame, write_frame, Request, Response, WireError,
};
use relperf_measure::ScratchThreeWayComparator;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

// ---------------------------------------------------------------------
// In-process duplex transport
// ---------------------------------------------------------------------

/// One direction of the pipe: a byte queue plus its wakeup.
struct Channel {
    state: Mutex<ChannelState>,
    ready: Condvar,
}

struct ChannelState {
    buf: VecDeque<u8>,
    closed: bool,
}

impl Channel {
    fn new() -> Arc<Self> {
        Arc::new(Channel {
            state: Mutex::new(ChannelState {
                buf: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        })
    }

    fn close(&self) {
        self.state.lock().expect("pipe poisoned").closed = true;
        self.ready.notify_all();
    }
}

/// One end of an in-process duplex byte stream (see [`duplex`]).
///
/// `Read` blocks until bytes arrive or the peer closes (then returns
/// `Ok(0)`, the standard EOF). `Write` never blocks (the buffer is
/// unbounded — wire frames are small and strictly request/response) and
/// fails with `BrokenPipe` after the peer is gone.
pub struct DuplexPipe {
    recv: Arc<Channel>,
    send: Arc<Channel>,
}

/// A connected pair of in-process stream ends: what one end writes, the
/// other reads, in order.
pub fn duplex() -> (DuplexPipe, DuplexPipe) {
    let a_to_b = Channel::new();
    let b_to_a = Channel::new();
    (
        DuplexPipe {
            recv: Arc::clone(&b_to_a),
            send: Arc::clone(&a_to_b),
        },
        DuplexPipe {
            recv: a_to_b,
            send: b_to_a,
        },
    )
}

impl Read for DuplexPipe {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut state = self.recv.state.lock().expect("pipe poisoned");
        while state.buf.is_empty() {
            if state.closed {
                return Ok(0);
            }
            state = self
                .recv
                .ready
                .wait(state)
                .expect("pipe poisoned");
        }
        let n = out.len().min(state.buf.len());
        for slot in out.iter_mut().take(n) {
            *slot = state.buf.pop_front().expect("checked non-empty");
        }
        Ok(n)
    }
}

impl Write for DuplexPipe {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let mut state = self.send.state.lock().expect("pipe poisoned");
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer closed the pipe",
            ));
        }
        state.buf.extend(bytes);
        drop(state);
        self.send.ready.notify_all();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for DuplexPipe {
    fn drop(&mut self) {
        // Closing either end unblocks both directions: our reader side so
        // the peer's writes fail fast, our writer side so the peer's
        // blocked read returns EOF.
        self.recv.close();
        self.send.close();
    }
}

impl fmt::Debug for DuplexPipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DuplexPipe").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The service rejected the request (admission control, backpressure,
    /// load shedding, bad spec …) — same typed vocabulary as in-process.
    Service(ServiceError),
    /// The runtime gave up waiting for responses.
    Wait(RuntimeError),
    /// Framing, codec, or transport failure.
    Wire(WireError),
    /// The server answered with a response type the request cannot
    /// produce — a protocol bug, not tenant input.
    Protocol(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Service(e) => write!(f, "service rejected the request: {e}"),
            ClientError::Wait(e) => write!(f, "wait failed: {e}"),
            ClientError::Wire(e) => write!(f, "wire failure: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A bounded, deterministic retry schedule for backpressure rejections
/// (see [`WireClient::submit_with_retry`]).
///
/// Only the three *transient* admission errors are retried —
/// [`TenantBusy`](ServiceError::TenantBusy),
/// [`QueueFull`](ServiceError::QueueFull), and
/// [`Overloaded`](ServiceError::Overloaded) — each of which guarantees
/// the op group was **not** admitted, so a resubmit can never duplicate
/// work. Everything else (bad specs, unknown sessions, wire faults, and
/// in particular [`ServiceError::Journal`], whose `Crashed`/`Io` cases
/// leave an ambiguous-commit window) aborts immediately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total submission attempts (the first try included). Treated as at
    /// least 1.
    pub max_attempts: usize,
    /// Sleep before retry *k* is `backoff_schedule[k-1]`, clamped to the
    /// last entry once the schedule runs out. Empty means no sleeping —
    /// useful against an in-process sync-mode server, where the
    /// between-attempt [`collect_ready`](WireClient::collect_ready) drain
    /// is what makes progress.
    pub backoff_schedule: Vec<Duration>,
}

impl Default for RetryPolicy {
    /// Four attempts with a doubling 1 ms / 2 ms / 4 ms backoff.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_schedule: vec![
                Duration::from_millis(1),
                Duration::from_millis(2),
                Duration::from_millis(4),
            ],
        }
    }
}

/// SplitMix64: the standard 64-bit finalizer-style mixer — one pass
/// turns `(seed ^ attempt)` into well-distributed jitter bits with no
/// RNG state to carry.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// `attempts` tries with no sleeping between them — fully
    /// deterministic, the right shape for tests and sync-mode runtimes.
    pub fn immediate(attempts: usize) -> Self {
        RetryPolicy {
            max_attempts: attempts,
            backoff_schedule: Vec::new(),
        }
    }

    /// Seeded exponential backoff with bounded jitter: the sleep before
    /// retry *k* is `min(cap, base · 2^(k-1))` scaled by a factor in
    /// `[0.75, 1.25)` drawn from a SplitMix64 mix of `seed` and `k`.
    ///
    /// The whole schedule is **precomputed here**, so two clients built
    /// with the same arguments sleep the exact same sequence — retry
    /// behavior stays reproducible (and pinnable by test) while distinct
    /// seeds de-synchronize a thundering herd. No time source and no
    /// shared RNG is consulted, preserving the exactly-once admission
    /// argument of [`submit_with_retry`](WireClient::submit_with_retry):
    /// jitter changes *when* a retry happens, never *whether* an op
    /// group could be admitted twice.
    pub fn exponential(max_attempts: usize, base: Duration, cap: Duration, seed: u64) -> Self {
        let retries = max_attempts.saturating_sub(1);
        let schedule = (1..=retries as u64)
            .map(|k| {
                let exp = base.saturating_mul(1u32 << (k - 1).min(31) as u32).min(cap);
                // Top 53 bits → uniform in [0, 1): full f64 precision.
                let unit = (splitmix64(seed ^ k) >> 11) as f64 / (1u64 << 53) as f64;
                let scaled = exp.as_nanos() as f64 * (0.75 + 0.5 * unit);
                Duration::from_nanos(scaled as u64)
            })
            .collect();
        RetryPolicy {
            max_attempts,
            backoff_schedule: schedule,
        }
    }

    /// The sleep before retry number `retry` (1-based); `None` when the
    /// schedule is empty.
    pub fn backoff(&self, retry: usize) -> Option<Duration> {
        let last = self.backoff_schedule.last()?;
        Some(
            *self
                .backoff_schedule
                .get(retry.saturating_sub(1))
                .unwrap_or(last),
        )
    }
}

/// Client-side counters accumulated by
/// [`submit_with_retry`](WireClient::submit_with_retry) over the client's
/// lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryStats {
    /// Submission attempts sent over the wire (first tries included).
    pub attempts: u64,
    /// Attempts that were retries of a backpressure rejection.
    pub retries: u64,
    /// Calls that exhausted their policy and surfaced the final error.
    pub exhausted: u64,
    /// Responses drained opportunistically between attempts.
    pub drained_responses: u64,
}

/// What a successful [`submit_with_retry`](WireClient::submit_with_retry)
/// returned.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitOutcome {
    /// Admission tickets of the accepted op group, in op order.
    pub seqs: Vec<u64>,
    /// Attempts this call used (1 = accepted first try).
    pub attempts: usize,
    /// Responses drained between attempts — already delivered to this
    /// call, so a later `await_responses` will not see them again.
    pub drained: Vec<OpResponse>,
}

/// A synchronous wire-protocol client over any duplex byte stream.
#[derive(Debug)]
pub struct WireClient<S> {
    stream: S,
    retry_stats: RetryStats,
    /// Per-tenant responses that arrived with a `Submitted` and no await
    /// or collect has returned yet, sorted by seq. Each response is in
    /// the stash or in the server's mailbox, never both.
    stash: HashMap<u64, Vec<OpResponse>>,
}

impl<S: Read + Write> WireClient<S> {
    /// Wraps an already-connected duplex stream (e.g. a `UnixStream`).
    pub fn new(stream: S) -> Self {
        WireClient {
            stream,
            retry_stats: RetryStats::default(),
            stash: HashMap::new(),
        }
    }

    /// Puts responses back into the tenant's stash, keeping it sorted and
    /// bounded like a default runtime's mailbox: beyond the default
    /// [`mailbox_cap`](crate::runtime::RuntimeConfig::mailbox_cap) the
    /// oldest (lowest seq) are dropped, so a client that never awaits or
    /// collects holds no more than the server would.
    fn stash(&mut self, tenant: u64, responses: Vec<OpResponse>) {
        if responses.is_empty() {
            return;
        }
        let stash = self.stash.entry(tenant).or_default();
        stash.extend(responses);
        stash.sort_by_key(|r| r.seq);
        let over = stash.len().saturating_sub(DEFAULT_MAILBOX_CAP);
        stash.drain(..over);
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        let payload = read_frame(&mut self.stream, wire::MAX_FRAME_PAYLOAD)?;
        Ok(decode_response(&payload)?)
    }

    /// Opens a fresh session on the served runtime.
    pub fn create_session(
        &mut self,
        tenant: u64,
        session: u64,
        spec: SessionSpec,
    ) -> Result<(), ClientError> {
        match self.call(&Request::CreateSession {
            tenant,
            session,
            spec,
        })? {
            Response::Created => Ok(()),
            Response::Error { error } => Err(ClientError::Service(error)),
            _ => Err(ClientError::Protocol("unexpected response to CreateSession")),
        }
    }

    /// Rebuilds a session from snapshot bytes.
    pub fn restore_session(
        &mut self,
        tenant: u64,
        session: u64,
        bytes: Vec<u8>,
    ) -> Result<(), ClientError> {
        match self.call(&Request::RestoreSession {
            tenant,
            session,
            bytes,
        })? {
            Response::Restored => Ok(()),
            Response::Error { error } => Err(ClientError::Service(error)),
            _ => Err(ClientError::Protocol("unexpected response to RestoreSession")),
        }
    }

    /// Atomically submits an op group, returning the admission tickets.
    /// Responses that came back with the tickets go to the stash, where
    /// [`await_responses`](WireClient::await_responses) and
    /// [`collect_ready`](WireClient::collect_ready) find them.
    /// Backpressure and shedding come back as
    /// [`ClientError::Service`] with the same typed errors
    /// (`TenantBusy`, `QueueFull`, `Overloaded`) an in-process caller
    /// sees.
    pub fn submit(
        &mut self,
        tenant: u64,
        session: u64,
        ops: Vec<SessionOp>,
    ) -> Result<Vec<u64>, ClientError> {
        match self.call(&Request::Submit {
            tenant,
            session,
            ops,
        })? {
            Response::Submitted { seqs, ready } => {
                self.stash(tenant, ready);
                Ok(seqs)
            }
            Response::Error { error } => Err(ClientError::Service(error)),
            _ => Err(ClientError::Protocol("unexpected response to Submit")),
        }
    }

    /// [`submit`](WireClient::submit) with bounded, deterministic retry of
    /// the transient backpressure rejections (`TenantBusy`, `QueueFull`,
    /// `Overloaded`).
    ///
    /// Between attempts the client drains
    /// [`collect_ready`](WireClient::collect_ready) — which both frees
    /// tenant in-flight budget and, against a sync-mode runtime, *is* the
    /// scheduling step that makes room — then sleeps the policy's backoff.
    /// Each retried error guarantees the group was not admitted, so no op
    /// is ever submitted twice; non-transient errors (including the
    /// ambiguous [`ServiceError::Journal`] cases) abort on first sight.
    /// Progress is tallied in [`retry_stats`](WireClient::retry_stats).
    pub fn submit_with_retry(
        &mut self,
        tenant: u64,
        session: u64,
        ops: Vec<SessionOp>,
        policy: &RetryPolicy,
    ) -> Result<SubmitOutcome, ClientError> {
        let max_attempts = policy.max_attempts.max(1);
        let mut drained = Vec::new();
        for attempt in 1..=max_attempts {
            self.retry_stats.attempts += 1;
            match self.submit(tenant, session, ops.clone()) {
                Ok(seqs) => {
                    return Ok(SubmitOutcome {
                        seqs,
                        attempts: attempt,
                        drained,
                    })
                }
                Err(ClientError::Service(
                    e @ (ServiceError::TenantBusy { .. }
                    | ServiceError::QueueFull { .. }
                    | ServiceError::Overloaded { .. }),
                )) => {
                    if attempt == max_attempts {
                        self.retry_stats.exhausted += 1;
                        return Err(ClientError::Service(e));
                    }
                    self.retry_stats.retries += 1;
                    let ready = self.collect_ready(tenant)?;
                    self.retry_stats.drained_responses += ready.len() as u64;
                    drained.extend(ready);
                    if let Some(pause) = policy.backoff(attempt) {
                        if !pause.is_zero() {
                            std::thread::sleep(pause);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on the final attempt")
    }

    /// The client-side retry counters accumulated so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.retry_stats
    }

    /// Blocks until the named tickets have responses, then returns them
    /// sorted by seq. Tickets the stash answers cost no round trip; an
    /// `Await` is sent only for the rest. On failure the stashed ones
    /// stay stashed.
    pub fn await_responses(
        &mut self,
        tenant: u64,
        seqs: &[u64],
        timeout: Duration,
    ) -> Result<Vec<OpResponse>, ClientError> {
        let (mut got, kept): (Vec<OpResponse>, Vec<OpResponse>) = self
            .stash
            .remove(&tenant)
            .unwrap_or_default()
            .into_iter()
            .partition(|r| seqs.contains(&r.seq));
        self.stash(tenant, kept);
        let rest: Vec<u64> = seqs
            .iter()
            .copied()
            .filter(|&s| !got.iter().any(|r| r.seq == s))
            .collect();
        if rest.is_empty() {
            return Ok(got);
        }
        let reply = self.call(&Request::Await {
            tenant,
            seqs: rest,
            timeout_ms: timeout.as_millis().min(u64::MAX as u128) as u64,
        });
        let responses = match reply {
            Ok(Response::Responses { responses }) => responses,
            failed => {
                self.stash(tenant, got);
                return Err(match failed {
                    Ok(Response::WaitError { error }) => ClientError::Wait(error),
                    Ok(Response::Error { error }) => ClientError::Service(error),
                    Ok(_) => ClientError::Protocol("unexpected response to Await"),
                    Err(e) => e,
                });
            }
        };
        got.extend(responses);
        got.sort_by_key(|r| r.seq);
        Ok(got)
    }

    /// Drains whatever responses are already delivered for the tenant:
    /// the stash first, then what a `Collect` returns.
    pub fn collect_ready(&mut self, tenant: u64) -> Result<Vec<OpResponse>, ClientError> {
        let mut ready = self.stash.remove(&tenant).unwrap_or_default();
        match self.call(&Request::Collect { tenant }) {
            Ok(Response::Responses { responses }) => {
                ready.extend(responses);
                Ok(ready)
            }
            failed => {
                self.stash(tenant, ready);
                Err(match failed {
                    Ok(_) => ClientError::Protocol("unexpected response to Collect"),
                    Err(e) => e,
                })
            }
        }
    }

    /// Reads one session's status summary (`None`: not hosted, not
    /// spilled).
    pub fn session_status(
        &mut self,
        tenant: u64,
        session: u64,
    ) -> Result<Option<SessionStatus>, ClientError> {
        Ok(self.status_with_health(tenant, session)?.0)
    }

    /// [`session_status`](WireClient::session_status) plus the service's
    /// recovery health gauges — what the last crash recovery or failover
    /// promotion replayed (all zero on a clean boot). The pair is what a
    /// reconciling client wants after a failover: *whether* its session
    /// survived, and *whether* it is talking to a promoted service.
    pub fn status_with_health(
        &mut self,
        tenant: u64,
        session: u64,
    ) -> Result<(Option<SessionStatus>, RecoveryHealth), ClientError> {
        match self.call(&Request::Status { tenant, session })? {
            Response::Status { status, recovery } => Ok((status, recovery)),
            _ => Err(ClientError::Protocol("unexpected response to Status")),
        }
    }

    /// Delivers one replication `SHIP` envelope to a follower served by
    /// [`serve_follower`](crate::wire::serve_follower), returning its
    /// applied watermark. Replication rejections come back typed
    /// ([`ServiceError::Replication`]).
    pub fn ship(&mut self, envelope: Vec<u8>) -> Result<u64, ClientError> {
        match self.call(&Request::Ship { envelope })? {
            Response::ShipAck { watermark, .. } => Ok(watermark),
            Response::Error { error } => Err(ClientError::Service(error)),
            _ => Err(ClientError::Protocol("unexpected response to Ship")),
        }
    }

    /// Reads the service-wide counters.
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            _ => Err(ClientError::Protocol("unexpected response to Stats")),
        }
    }

    /// Closes the connection cleanly (the server acknowledges and hangs
    /// up).
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        match self.call(&Request::Goodbye)? {
            Response::Goodbye => Ok(()),
            _ => Err(ClientError::Protocol("unexpected response to Goodbye")),
        }
    }
}

impl WireClient<DuplexPipe> {
    /// Spawns an in-process server thread over a [`duplex`] pipe and
    /// returns the connected client plus the server's join handle (which
    /// resolves once the client says [`goodbye`](WireClient::goodbye) or
    /// drops).
    pub fn connect_in_proc<C>(
        handle: RuntimeHandle<C>,
    ) -> (Self, JoinHandle<Result<(), WireError>>)
    where
        C: ScratchThreeWayComparator + Send + Sync + 'static,
    {
        let (client_end, mut server_end) = duplex();
        let server = std::thread::spawn(move || wire::serve_connection(&handle, &mut server_end));
        (WireClient::new(client_end), server)
    }
}
