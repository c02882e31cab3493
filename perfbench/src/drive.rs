//! The load generator: a journaled `ServiceRuntime` served over unix
//! sockets by `serve_unix`, driven closed-loop by one client thread per
//! connection.

use crate::inputs::{
    same_table, Campaign, Check, Inputs, Workload, JOURNAL, RUNTIME, SESSION, SHARDS,
};
use crate::trace::Recorder;
use relperf_core::cluster::Parallelism;
use relperf_measure::ScratchThreeWayComparator;
use relperf_service::client::{ClientError, WireClient};
use relperf_service::journal::{FileJournalStore, JournalStore};
use relperf_service::runtime::ServiceRuntime;
use relperf_service::service::{OpOutcome, OpResponse, SessionService};
use relperf_service::snapshot;
use relperf_service::stats::ServiceStats;
use relperf_service::wire::serve_unix;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a client waits for one request's responses before counting
/// it as failed.
const AWAIT_TIMEOUT: Duration = Duration::from_secs(60);

/// One tenant as a connection sees it.
#[derive(Debug, Clone, Copy)]
pub struct Tenant {
    pub id: u64,
    /// Position across all connections; picks the tenant's campaigns.
    pub slot: usize,
    pub shard: usize,
}

/// A running service with its connected clients.
pub struct Stack<C: ScratchThreeWayComparator + Send + Sync + 'static, S> {
    pub runtime: ServiceRuntime<C>,
    server: JoinHandle<io::Result<()>>,
    pub clients: Vec<WireClient<S>>,
    pub tenants: Vec<Vec<Tenant>>,
    dir: PathBuf,
}

/// Opens one full stack under `dir`: a `FileJournalStore` per shard
/// (passed through `wrap_store`), `SessionService::with_journal`,
/// `ServiceRuntime::start`, a bound socket served by `serve_unix`, and one
/// connected client per connection (streams passed through
/// `wrap_stream`). This is what `setup_s` times.
pub fn open_stack<C, S>(
    workload: Workload,
    conns: &[usize],
    comparator: C,
    dir: &Path,
    wrap_store: impl Fn(FileJournalStore) -> Box<dyn JournalStore>,
    wrap_stream: impl Fn(UnixStream) -> S,
) -> Result<Stack<C, S>, String>
where
    C: ScratchThreeWayComparator + Send + Sync + 'static,
    S: Read + Write,
{
    let service = journaled_service(workload, comparator, dir, wrap_store)?;
    let runtime = ServiceRuntime::start(service, RUNTIME);
    let socket = dir.join("sock");
    let listener =
        UnixListener::bind(&socket).map_err(|e| format!("bind {}: {e}", socket.display()))?;
    let handle = runtime.handle();
    let n = conns.len();
    let server = std::thread::spawn(move || serve_unix(handle, listener, Some(n)));
    let clients = (0..n)
        .map(|_| UnixStream::connect(&socket).map(|s| WireClient::new(wrap_stream(s))))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let tenants = assign_tenants(conns, |t| runtime.service().shard_index(t, SESSION));
    Ok(Stack {
        runtime,
        server,
        clients,
        tenants,
        dir: dir.to_path_buf(),
    })
}

/// The workload's `SessionService` journaled through one
/// `FileJournalStore` per shard under `dir`, each passed through
/// `wrap_store`.
pub fn journaled_service<C: ScratchThreeWayComparator + Send + Sync>(
    workload: Workload,
    comparator: C,
    dir: &Path,
    wrap_store: impl Fn(FileJournalStore) -> Box<dyn JournalStore>,
) -> Result<SessionService<C>, String> {
    let stores = (0..SHARDS)
        .map(|i| FileJournalStore::open(dir.join(format!("shard-{i:02}"))).map(&wrap_store))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("journal store: {e}"))?;
    SessionService::with_journal(
        comparator,
        Parallelism::serial(),
        workload.limits(),
        JOURNAL,
        stores,
    )
    .map_err(|e| format!("with_journal: {e}"))
}

/// The untraced store wrapper.
pub fn plain_store(s: FileJournalStore) -> Box<dyn JournalStore> {
    Box::new(s)
}

/// Gives connection `c` only tenants whose session lives on a shard
/// `≡ c (mod connections)`, so each connection can bound its own
/// per-shard in-flight count without talking to the others.
fn assign_tenants(per_conn: &[usize], shard_of: impl Fn(u64) -> usize) -> Vec<Vec<Tenant>> {
    let n = per_conn.len();
    let mut out: Vec<Vec<Tenant>> = vec![Vec::new(); n];
    let mut slot = 0;
    let mut id = 1u64;
    while out
        .iter()
        .zip(per_conn)
        .any(|(have, want)| have.len() < *want)
    {
        let shard = shard_of(id);
        let c = shard % n;
        if out[c].len() < per_conn[c] {
            out[c].push(Tenant { id, slot, shard });
            slot += 1;
        }
        id += 1;
    }
    out
}

impl<C: ScratchThreeWayComparator + Send + Sync + 'static, S: Read + Write> Stack<C, S> {
    /// Says goodbye on every connection, joins the server, stops the
    /// runtime, and removes the stack's files.
    pub fn close(self) -> Result<(), String> {
        for client in self.clients {
            client.goodbye().map_err(|e| format!("goodbye: {e}"))?;
        }
        self.server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("serve_unix: {e}"))?;
        self.runtime.shutdown();
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("cleanup: {e}"))
    }
}

/// One completed request inside the measured window.
#[derive(Debug, Clone, Copy)]
pub struct UnitSample {
    pub start: Instant,
    pub end: Instant,
    pub campaign: usize,
    pub step: usize,
}

impl UnitSample {
    pub fn latency(&self) -> Duration {
        self.end - self.start
    }
}

/// What one connection did in the measured window.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Counted requests that started and finished inside the window.
    pub samples: Vec<UnitSample>,
    /// Units (waves or values) acknowledged inside the window.
    pub units: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Responses that disagreed with the oracle.
    pub mismatches: u64,
    pub snapshot_bytes: u64,
    pub snapshots: u64,
    /// Service counters read over the wire at the window's start and
    /// after the drain (connection 0 only).
    pub stats: Option<(ServiceStats, ServiceStats)>,
    pub first_error: Option<String>,
}

/// The measured window: requests count when they start at or after
/// `start` and finish before `end`; no request is sent after `end`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
}

struct TenantState {
    tenant: Tenant,
    campaigns: usize,
    step: usize,
}

struct InFlight {
    idx: usize,
    start: Instant,
    seqs: Vec<u64>,
    in_window: bool,
}

/// Runs one connection's closed loop until the window ends, then drains.
/// Each tenant has at most one request in flight; at most `window`
/// tenants are in flight, and at most `slots` per shard when the
/// registry is smaller than the tenant count.
pub fn run_connection<S: Read + Write>(
    client: &mut WireClient<S>,
    tenants: &[Tenant],
    inputs: &Inputs,
    win: Window,
    read_stats: bool,
    recorder: Option<&Recorder>,
) -> ConnResult {
    let workload = inputs.workload;
    let window = workload.window();
    let slots = match workload {
        Workload::Fleet => Some(workload.limits().sessions_per_shard),
        _ => None,
    };
    let mut states: Vec<TenantState> = tenants
        .iter()
        .map(|&tenant| TenantState {
            tenant,
            campaigns: 0,
            step: 0,
        })
        .collect();
    let mut idle: VecDeque<usize> = (0..states.len()).collect();
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut busy = [0usize; SHARDS];
    let mut out = ConnResult::default();
    let mut stats_start: Option<ServiceStats> = None;
    let mut abort = false;
    let pool = &inputs.pool;
    loop {
        let now = Instant::now();
        if read_stats && stats_start.is_none() && now >= win.start {
            match client.stats() {
                Ok(s) => stats_start = Some(s),
                Err(e) => fail(&mut out, &mut abort, 1, e),
            }
        }
        if !abort && now < win.end {
            while inflight.len() < window {
                let Some(pos) = idle
                    .iter()
                    .position(|&i| slots.is_none_or(|cap| busy[states[i].tenant.shard] < cap))
                else {
                    break;
                };
                let idx = idle.remove(pos).expect("position is in range");
                let st = &states[idx];
                let campaign = &pool[campaign_of(st, pool.len())];
                let in_window = Instant::now() >= win.start;
                match submit_step(client, st, campaign, &mut out, in_window) {
                    Ok((start, seqs)) => {
                        busy[st.tenant.shard] += 1;
                        inflight.push_back(InFlight {
                            idx,
                            start,
                            seqs,
                            in_window,
                        });
                    }
                    Err(e) => {
                        fail(
                            &mut out,
                            &mut abort,
                            campaign.steps[st.step].ops.len() as u64,
                            e,
                        );
                        break;
                    }
                }
            }
        }
        let Some(job) = inflight.pop_front() else {
            break;
        };
        let st = &mut states[job.idx];
        let k = campaign_of(st, pool.len());
        let step = &pool[k].steps[st.step];
        let tenant = st.tenant;
        let result = client.await_responses(tenant.id, &job.seqs, AWAIT_TIMEOUT);
        let end = Instant::now();
        busy[tenant.shard] -= 1;
        let responses = match result {
            Ok(r) => r,
            Err(e) => {
                fail(&mut out, &mut abort, job.seqs.len() as u64, e);
                continue;
            }
        };
        match verify(&responses, job.seqs.len(), &step.check) {
            Ok(0) => {}
            Ok(snapshot_bytes) => {
                out.snapshot_bytes += snapshot_bytes;
                out.snapshots += 1;
            }
            Err(what) => {
                out.mismatches += 1;
                out.first_error.get_or_insert(format!(
                    "tenant {} campaign {k} step {}: {what}",
                    tenant.id, st.step
                ));
            }
        }
        if let Some(rec) = recorder {
            rec.record_full(
                "client.request",
                rec.at(job.start),
                rec.at(end),
                0,
                tenant.id,
            );
        }
        if job.in_window && end <= win.end && step.counted() {
            out.units += step.units;
            out.samples.push(UnitSample {
                start: job.start,
                end,
                campaign: k,
                step: st.step,
            });
        }
        st.step += 1;
        if st.step == pool[k].steps.len() {
            st.step = 0;
            st.campaigns += 1;
        }
        idle.push_back(job.idx);
    }
    if read_stats {
        match (stats_start, client.stats()) {
            (Some(a), Ok(b)) => out.stats = Some((a, b)),
            (_, Err(e)) => fail(&mut out, &mut abort, 1, e),
            (None, Ok(_)) => {}
        }
    }
    out
}

/// The pool index of a tenant's current campaign.
fn campaign_of(st: &TenantState, pool: usize) -> usize {
    (st.tenant.slot + st.campaigns) % pool
}

fn fail(out: &mut ConnResult, abort: &mut bool, ops: u64, e: ClientError) {
    out.failed += ops;
    *abort = true;
    out.first_error.get_or_insert(e.to_string());
}

/// Sends one step: opens the session first on a campaign's first step,
/// checks `Status` before the closing snapshot, then submits the group.
fn submit_step<S: Read + Write>(
    client: &mut WireClient<S>,
    st: &TenantState,
    campaign: &Campaign,
    out: &mut ConnResult,
    in_window: bool,
) -> Result<(Instant, Vec<u64>), ClientError> {
    let step = &campaign.steps[st.step];
    let id = st.tenant.id;
    if st.step == 0 {
        if in_window {
            out.attempted += 1;
        }
        client.create_session(id, SESSION, campaign.spec)?;
    }
    if let Check::Snapshot { total } = step.check {
        let status = client.session_status(id, SESSION)?;
        if status.map(|s| s.total_measurements) != Some(total) {
            out.mismatches += 1;
            out.first_error.get_or_insert(format!(
                "tenant {id}: status {status:?}, expected {total} measurements"
            ));
        }
    }
    if in_window {
        out.attempted += step.ops.len() as u64;
    }
    let start = Instant::now();
    let seqs = client.submit(id, SESSION, step.ops.clone())?;
    Ok((start, seqs))
}

/// Checks one step's responses; returns the snapshot bytes received.
pub fn verify(responses: &[OpResponse], expected: usize, check: &Check) -> Result<u64, String> {
    if responses.len() != expected {
        return Err(format!("{} responses for {expected} ops", responses.len()));
    }
    let mut snapshot_bytes = 0;
    for r in responses {
        match (&r.result, check) {
            (Err(e), _) => return Err(format!("op failed: {e}")),
            (Ok(OpOutcome::Scored(wave)), Check::Table(want)) => {
                if !same_table(&wave.table, want) {
                    return Err("score table differs from the ClusterSession oracle".into());
                }
            }
            (Ok(OpOutcome::Snapshot(bytes)), Check::Snapshot { total }) => {
                let snap = snapshot::decode(bytes).map_err(|e| format!("snapshot decode: {e}"))?;
                if snap.state.total_measurements() != *total {
                    return Err(format!(
                        "snapshot holds {} measurements, expected {total}",
                        snap.state.total_measurements()
                    ));
                }
                snapshot_bytes += bytes.len() as u64;
            }
            (Ok(OpOutcome::Ingested | OpOutcome::Closed), _) => {}
            (Ok(other), _) => return Err(format!("unexpected outcome {other:?}")),
        }
    }
    if matches!(check, Check::Snapshot { .. }) && snapshot_bytes == 0 {
        return Err("no snapshot in the closing step".into());
    }
    Ok(snapshot_bytes)
}

/// Drives every connection of `stack` on its own thread over `win`; the
/// calling thread runs `edge(true)` when the window opens and
/// `edge(false)` when it closes.
pub fn run_window<C, S>(
    stack: &mut Stack<C, S>,
    inputs: &Arc<Inputs>,
    win: Window,
    recorder: Option<&Arc<Recorder>>,
    mut edge: impl FnMut(bool),
) -> Vec<ConnResult>
where
    C: ScratchThreeWayComparator + Send + Sync + 'static,
    S: Read + Write + Send,
{
    std::thread::scope(|scope| {
        let joins: Vec<_> = stack
            .clients
            .iter_mut()
            .zip(&stack.tenants)
            .enumerate()
            .map(|(c, (client, tenants))| {
                let inputs = Arc::clone(inputs);
                let recorder = recorder.cloned();
                scope.spawn(move || {
                    run_connection(client, tenants, &inputs, win, c == 0, recorder.as_deref())
                })
            })
            .collect();
        for (at, opening) in [(win.start, true), (win.end, false)] {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            edge(opening);
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread panicked"))
            .collect()
    })
}
