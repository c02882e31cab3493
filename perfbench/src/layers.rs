//! Per-layer measurements of the traced run: the core replay, the
//! per-tier solo costs, and the wire codec re-timing.

use crate::drive::{journaled_service, open_stack, plain_store, verify};
use crate::inputs::{apply, same_table, Campaign, Check, Inputs, RUNTIME, SESSION};
use crate::stats::{median, union_len};
use crate::trace::{with_context, Recorder, Span, TimedComparator};
use relperf_core::cluster::ScoreTable;
use relperf_core::session::ClusterSession;
use relperf_measure::ScratchThreeWayComparator;
use relperf_service::client::WireClient;
use relperf_service::runtime::ServiceRuntime;
use relperf_service::service::{
    OpOutcome, OpResponse, SessionKey, SessionOp, SessionService, WaveOutcome,
};
use relperf_service::snapshot::{self, SessionSnapshot};
use relperf_service::wire::{
    decode_frame, decode_request, decode_response, encode_request, encode_response,
};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Passes of the core replay over the input pool; per-step bare times are
/// the median over passes, counts and busy time are per pass.
const REPLAY_PASSES: usize = 3;

/// What the direct `ClusterSession` replay of the input pool measured
/// (counts and busy time per pass over the pool).
#[derive(Debug, Default)]
pub struct CoreReplay {
    pub score_ms: Vec<f64>,
    pub self_ms: Vec<f64>,
    pub scores: u64,
    pub compares: u64,
    pub compare_busy_s: f64,
    pub compare_p50_us: f64,
    pub extend_ns: u64,
    pub extend_values: u64,
    /// Bare execute time of every step, `[campaign][step]`.
    pub bare: Vec<Vec<Duration>>,
    pub mismatches: u64,
}

/// Replays every pool campaign through a bare `ClusterSession` whose
/// comparator is a [`TimedComparator`]: `core.score` spans around
/// `score`, `core.extend` spans around `extend`/`try_extend_all`. A
/// campaign without any `Score` (ingest) is scored once at its final
/// size, so the core and comparator layers report what one `Score` over
/// the ingested samples would cost.
pub fn core_replay(inputs: &Inputs, recorder: &std::sync::Arc<Recorder>) -> CoreReplay {
    let cmp = TimedComparator::new(inputs.comparator(), std::sync::Arc::clone(recorder));
    let mut out = CoreReplay::default();
    let mut score_spans: Vec<Span> = Vec::new();
    let mut bare: Vec<Vec<Vec<f64>>> = inputs
        .pool
        .iter()
        .map(|c| vec![Vec::new(); c.steps.len()])
        .collect();
    for _ in 0..REPLAY_PASSES {
        for (k, campaign) in inputs.pool.iter().enumerate() {
            let spec = campaign.spec;
            let mut session = ClusterSession::with_criterion(
                spec.algorithms,
                &cmp,
                spec.config,
                spec.seed,
                spec.criterion,
            );
            let mut scored = false;
            for (i, step) in campaign.steps.iter().enumerate() {
                let req = ((k as u64) << 16) + i as u64 + 1;
                let started = Instant::now();
                let mut table = None;
                for op in &step.ops {
                    let id = recorder.new_id();
                    let start = recorder.now();
                    with_context(id, req, || apply(&mut session, op, &mut table));
                    let end = recorder.now();
                    let name = match op {
                        SessionOp::Score => "core.score",
                        SessionOp::Extend { values, .. } | SessionOp::ExtendAll { values, .. } => {
                            out.extend_ns += end - start;
                            out.extend_values += values.len() as u64;
                            "core.extend"
                        }
                        _ => continue,
                    };
                    let span = span(id, name, start, end, req);
                    recorder.push(span);
                    if name == "core.score" {
                        score_spans.push(span);
                    }
                }
                bare[k][i].push(started.elapsed().as_secs_f64());
                if let (Some(got), Check::Table(want)) = (&table, &step.check) {
                    scored = true;
                    if !same_table(got, want) {
                        out.mismatches += 1;
                    }
                }
            }
            if !scored {
                let id = recorder.new_id();
                let req = ((k as u64) << 16) + 0xFFFF;
                let start = recorder.now();
                with_context(id, req, || {
                    session.score();
                });
                let span = span(id, "core.score", start, recorder.now(), req);
                recorder.push(span);
                score_spans.push(span);
            }
        }
    }
    out.bare = bare
        .iter()
        .map(|steps| {
            steps
                .iter()
                .map(|t| Duration::from_secs_f64(median(t)))
                .collect()
        })
        .collect();
    let compares = recorder.spans("measure.compare");
    for s in &score_spans {
        let covered: Vec<(u64, u64)> = compares
            .iter()
            .filter(|c| c.end > s.start && c.start < s.end)
            .map(|c| (c.start.max(s.start), c.end.min(s.end)))
            .collect();
        out.score_ms.push(s.dur() as f64 / 1e6);
        out.self_ms
            .push((s.dur() - union_len(&covered)) as f64 / 1e6);
    }
    let passes = REPLAY_PASSES as u64;
    out.scores = score_spans.len() as u64 / passes;
    out.extend_values /= passes;
    out.extend_ns /= passes;
    out.compares = cmp.counters.calls.load(Ordering::Relaxed) / passes;
    out.compare_busy_s = cmp.counters.busy_ns.load(Ordering::Relaxed) as f64 / 1e9 / passes as f64;
    out.compare_p50_us = median(
        &compares
            .iter()
            .map(|c| c.dur() as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    out
}

fn span(id: u64, name: &'static str, start: u64, end: u64, req: u64) -> Span {
    Span {
        id,
        name,
        start,
        end,
        parent: 0,
        req,
        thread: crate::trace::thread_no(),
    }
}

// ---------------------------------------------------------------------
// Per-tier costs
// ---------------------------------------------------------------------

/// One way of driving a single tenant's campaign; each tier adds one
/// layer on top of the previous one.
trait Tier {
    fn open(&mut self, campaign: &Campaign) -> Result<(), String>;
    /// Executes one op group and returns its responses.
    fn step(&mut self, ops: &[SessionOp]) -> Result<Vec<OpResponse>, String>;
}

const TENANT: u64 = 1;

/// Tier 0: a bare `ClusterSession`, called directly.
struct Direct<C: ScratchThreeWayComparator + Sync> {
    comparator: C,
    session: Option<ClusterSession<C>>,
}

impl<C: ScratchThreeWayComparator + Sync + Clone> Tier for Direct<C> {
    fn open(&mut self, campaign: &Campaign) -> Result<(), String> {
        let s = campaign.spec;
        self.session = Some(ClusterSession::with_criterion(
            s.algorithms,
            self.comparator.clone(),
            s.config,
            s.seed,
            s.criterion,
        ));
        Ok(())
    }

    fn step(&mut self, ops: &[SessionOp]) -> Result<Vec<OpResponse>, String> {
        let key = SessionKey {
            tenant: TENANT,
            session: SESSION,
        };
        let mut out = Vec::with_capacity(ops.len());
        for (seq, op) in ops.iter().enumerate() {
            if matches!(op, SessionOp::Close) {
                self.session = None;
                out.push(OpResponse {
                    key,
                    seq: seq as u64,
                    result: Ok(OpOutcome::Closed),
                });
                continue;
            }
            let session = self.session.as_mut().ok_or("session closed")?;
            let mut table: Option<ScoreTable> = None;
            apply(session, op, &mut table);
            let result = match op {
                SessionOp::Score => {
                    let table = table.expect("score produced a table");
                    OpOutcome::Scored(WaveOutcome {
                        clustering: table.final_assignment(),
                        table,
                        converged: session.converged(),
                        waves: session.waves(),
                        stable_run: session.stable_run(),
                    })
                }
                SessionOp::Snapshot => OpOutcome::Snapshot(snapshot::encode(&SessionSnapshot {
                    config: session.config(),
                    seed: session.seed(),
                    criterion: session.criterion(),
                    state: session.export_state(),
                    rng_states: Vec::new(),
                })),
                _ => OpOutcome::Ingested,
            };
            out.push(OpResponse {
                key,
                seq: seq as u64,
                result: Ok(result),
            });
        }
        Ok(out)
    }
}

/// Tier 1: the journaled `SessionService`, drained synchronously.
struct Sync1<C: ScratchThreeWayComparator + Send + Sync>(SessionService<C>);

impl<C: ScratchThreeWayComparator + Send + Sync> Tier for Sync1<C> {
    fn open(&mut self, campaign: &Campaign) -> Result<(), String> {
        self.0
            .create_session(TENANT, SESSION, campaign.spec)
            .map_err(|e| e.to_string())
    }

    fn step(&mut self, ops: &[SessionOp]) -> Result<Vec<OpResponse>, String> {
        self.0
            .submit_all(TENANT, SESSION, ops.to_vec())
            .map_err(|e| e.to_string())?;
        Ok(self.0.run_batch())
    }
}

/// Tier 2: the pipelined `ServiceRuntime`.
struct Runtime2<C: ScratchThreeWayComparator + Send + Sync + 'static>(ServiceRuntime<C>);

impl<C: ScratchThreeWayComparator + Send + Sync + 'static> Tier for Runtime2<C> {
    fn open(&mut self, campaign: &Campaign) -> Result<(), String> {
        self.0
            .create_session(TENANT, SESSION, campaign.spec)
            .map_err(|e| e.to_string())
    }

    fn step(&mut self, ops: &[SessionOp]) -> Result<Vec<OpResponse>, String> {
        let seqs = self
            .0
            .submit_all(TENANT, SESSION, ops.to_vec())
            .map_err(|e| e.to_string())?;
        self.0
            .await_responses(TENANT, &seqs, Duration::from_secs(60))
            .map_err(|e| e.to_string())
    }
}

/// Tier 3: a `WireClient` over a unix socket into the runtime.
struct Wire3<S>(WireClient<S>);

impl<S: std::io::Read + std::io::Write> Tier for Wire3<S> {
    fn open(&mut self, campaign: &Campaign) -> Result<(), String> {
        self.0
            .create_session(TENANT, SESSION, campaign.spec)
            .map_err(|e| e.to_string())
    }

    fn step(&mut self, ops: &[SessionOp]) -> Result<Vec<OpResponse>, String> {
        let seqs = self
            .0
            .submit(TENANT, SESSION, ops.to_vec())
            .map_err(|e| e.to_string())?;
        self.0
            .await_responses(TENANT, &seqs, Duration::from_secs(60))
            .map_err(|e| e.to_string())
    }
}

/// Runs one campaign on `tier`, verifying every step and pushing each
/// counted step's latency (ms) plus the recorder-time interval of every
/// `Score` step.
fn run_campaign(
    tier: &mut dyn Tier,
    campaign: &Campaign,
    lat_ms: &mut Vec<f64>,
    score_windows: &mut Vec<(Instant, Instant)>,
) -> Result<(), String> {
    tier.open(campaign)?;
    for step in &campaign.steps {
        let start = Instant::now();
        let responses = tier.step(&step.ops)?;
        let end = Instant::now();
        verify(&responses, step.ops.len(), &step.check)?;
        if step.counted() {
            lat_ms.push((end - start).as_secs_f64() * 1e3);
        }
        if matches!(step.check, Check::Table(_)) {
            score_windows.push((start, end));
        }
    }
    Ok(())
}

/// Per-tier solo costs and the per-score thread count.
#[derive(Debug, Default)]
pub struct Tiers {
    /// Median counted-step latency per tier: session, service, runtime, wire.
    pub p50_ms: [f64; 4],
    /// Median of the paired per-step differences between adjacent tiers
    /// (service − session, runtime − service, wire − runtime): the cost
    /// of the added layer.
    pub added_ms: [f64; 3],
    pub rounds: usize,
    /// Median distinct comparator threads per `Score` on the runtime tier.
    pub threads_per_score: f64,
}

/// Drives the workload's campaign shape with one tenant four ways,
/// interleaved round by round for about `budget`. Every round runs the
/// same campaign on each tier, so step `i` of one tier pairs with step
/// `i` of the next.
pub fn tiers(inputs: &Inputs, dir: &Path, budget: Duration) -> Result<Tiers, String> {
    let comparator = inputs.comparator();
    let mut direct = Direct {
        comparator: &comparator,
        session: None,
    };
    let w = inputs.workload;
    let service = |comparator, name| journaled_service(w, comparator, &dir.join(name), plain_store);
    let mut sync = Sync1(service(inputs.comparator(), "service")?);
    let mut runtime = Runtime2(ServiceRuntime::start(
        service(inputs.comparator(), "runtime")?,
        RUNTIME,
    ));
    let mut stack = open_stack(
        w,
        &[1],
        inputs.comparator(),
        &dir.join("wire"),
        plain_store,
        |s| s,
    )?;
    let mut wire = Wire3(stack.clients.pop().expect("one client"));
    let mut lat: [Vec<f64>; 4] = Default::default();
    let mut ignored = Vec::new();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || started.elapsed() < budget {
        let campaign = &inputs.pool[rounds % inputs.pool.len()];
        let tiers: [&mut dyn Tier; 4] = [&mut direct, &mut sync, &mut runtime, &mut wire];
        for (t, tier) in tiers.into_iter().enumerate() {
            run_campaign(tier, campaign, &mut lat[t], &mut ignored)?;
        }
        rounds += 1;
    }
    stack.clients.push(wire.0);
    stack.close()?;
    runtime.0.shutdown();
    drop(sync);

    // One more campaign through a runtime whose comparator is timed:
    // which threads run the comparisons of one score.
    let recorder = Recorder::new();
    let timed = TimedComparator::new(inputs.comparator(), std::sync::Arc::clone(&recorder));
    let mut traced = Runtime2(ServiceRuntime::start(
        journaled_service(w, timed, &dir.join("traced"), plain_store)?,
        RUNTIME,
    ));
    let mut windows = Vec::new();
    run_campaign(&mut traced, &inputs.pool[0], &mut Vec::new(), &mut windows)?;
    traced.0.shutdown();
    let compares = recorder.spans("measure.compare");
    let threads: Vec<f64> = windows
        .iter()
        .map(|&(a, b)| {
            let (a, b) = (recorder.at(a), recorder.at(b));
            let mut ids: Vec<u64> = compares
                .iter()
                .filter(|c| c.start >= a && c.end <= b)
                .map(|c| c.thread)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len() as f64
        })
        .collect();
    let added = |t: usize| -> f64 {
        let diffs: Vec<f64> = lat[t + 1]
            .iter()
            .zip(&lat[t])
            .map(|(hi, lo)| hi - lo)
            .collect();
        median(&diffs)
    };
    Ok(Tiers {
        added_ms: [added(0), added(1), added(2)],
        p50_ms: lat.map(|l| median(&l)),
        rounds,
        threads_per_score: median(&threads),
    })
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

/// Re-times the public codec on captured frames: decode + re-encode of
/// every request and response, in µs per request/response pair (median
/// of several passes).
pub fn codec_us_per_req(requests: &[Vec<u8>], responses: &[Vec<u8>]) -> Result<f64, String> {
    let payloads = |frames: &[Vec<u8>]| -> Result<Vec<Vec<u8>>, String> {
        frames
            .iter()
            .map(|f| {
                decode_frame(f)
                    .map(<[u8]>::to_vec)
                    .map_err(|e| e.to_string())
            })
            .collect()
    };
    let req = payloads(requests)?;
    let resp = payloads(responses)?;
    let pairs = req.len().min(resp.len());
    if pairs == 0 {
        return Err("no wire frames captured".into());
    }
    let mut passes = Vec::new();
    for _ in 0..7 {
        let start = Instant::now();
        for (q, r) in req.iter().zip(&resp) {
            let decoded = decode_request(q).map_err(|e| e.to_string())?;
            std::hint::black_box(encode_request(&decoded));
            let decoded = decode_response(r).map_err(|e| e.to_string())?;
            std::hint::black_box(encode_response(&decoded));
        }
        passes.push(start.elapsed().as_secs_f64() * 1e6 / pairs as f64);
    }
    Ok(median(&passes))
}
