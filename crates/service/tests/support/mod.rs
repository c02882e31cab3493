//! Scaffolding shared by the service's integration suites, pulled into
//! each with `mod support;`:
//!
//! - the comparator and noisy measurements every bit-identity suite
//!   drives, and the `Scored` lookup;
//! - the scripted 3-tenant journaled campaign (`script`, `apply`,
//!   `golden`) behind the crash-point and partition sweeps;
//! - the multi-tenant wave `Script`s and their direct `ClusterSession`
//!   reference, behind the interleaving proptests;
//! - an independent word-wise FNV-1a, for tests that seal their own bytes.
//!
//! A directory module, so Cargo does not build it as a test target.

// Every suite compiles its own copy of this module and uses only part of
// it, so whatever a suite leaves unused would warn there.
#![allow(dead_code)]

use rand::prelude::*;
use relperf_core::cluster::{ClusterConfig, Parallelism, ScoreTable};
use relperf_core::session::{ClusterSession, ConvergenceCriterion};
use relperf_measure::compare::{BootstrapComparator, BootstrapConfig};
use relperf_service::prelude::*;
use relperf_service::service::SessionService;

pub fn comparator() -> BootstrapComparator {
    BootstrapComparator::with_config(
        5,
        BootstrapConfig {
            reps: 10,
            ..Default::default()
        },
    )
}

pub fn noisy(center: f64, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| center + rng.random_range(-0.2..0.2)).collect()
}

pub fn scored(responses: &[OpResponse], seq: u64) -> WaveOutcome {
    let r = responses.iter().find(|r| r.seq == seq).unwrap();
    match r.result.clone().unwrap() {
        OpOutcome::Scored(w) => w,
        other => panic!("expected Scored, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// The scripted multi-tenant journaled campaign
// ---------------------------------------------------------------------------

pub const SHARDS: usize = 4;
/// Tenant/session pairs of the scripted multi-tenant campaign.
pub const TENANTS: [(u64, u64); 3] = [(1, 9), (2, 5), (3, 7)];
/// Waves driven per tenant by the script (plus one probe wave after).
pub const WAVES: u64 = 3;
/// Measurements a wave adds to a session (two 5-value extends).
pub const WAVE_MEASUREMENTS: usize = 10;

pub fn config() -> JournalConfig {
    JournalConfig {
        group_commit: 1,
        compact_every: 1024,
    }
}

pub fn handles(n: usize) -> Vec<MemJournalStore> {
    (0..n).map(|_| MemJournalStore::new()).collect()
}

pub fn boxed(handles: &[MemJournalStore]) -> Vec<Box<dyn JournalStore>> {
    handles
        .iter()
        .map(|h| Box::new(h.clone()) as Box<dyn JournalStore>)
        .collect()
}

pub fn journaled(handles: &[MemJournalStore]) -> SessionService<BootstrapComparator> {
    SessionService::with_journal(
        comparator(),
        Parallelism::auto(),
        ServiceLimits::default(),
        config(),
        boxed(handles),
    )
    .unwrap()
}

/// One wave as a single atomic admission group: two extends plus a score.
/// One group ⇒ one journal record ⇒ all-or-nothing durability, which is
/// what lets the harness resolve "did the crashed step land?" from the
/// session's wave count alone.
pub fn wave_ops(wave: u64) -> Vec<SessionOp> {
    vec![
        SessionOp::Extend {
            alg: 0,
            values: noisy(1.0, 5, wave * 2),
        },
        SessionOp::Extend {
            alg: 1,
            values: noisy(2.0, 5, wave * 2 + 1),
        },
        SessionOp::Score,
    ]
}

pub fn run_wave(
    service: &SessionService<BootstrapComparator>,
    tenant: u64,
    session: u64,
    wave: u64,
) -> WaveOutcome {
    let seqs = service.submit_all(tenant, session, wave_ops(wave)).unwrap();
    let score = *seqs.last().unwrap();
    scored(&service.run_batch(), score)
}

/// One step of the scripted campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Create(u64, u64),
    Wave(u64, u64, u64),
    Compact,
}

pub fn script() -> Vec<Step> {
    let mut steps: Vec<Step> = TENANTS.iter().map(|&(t, s)| Step::Create(t, s)).collect();
    for wave in 0..WAVES {
        steps.extend(TENANTS.iter().map(|&(t, s)| Step::Wave(t, s, wave)));
        steps.push(Step::Compact);
    }
    steps
}

pub fn apply(service: &SessionService<BootstrapComparator>, step: Step) -> Option<WaveOutcome> {
    match step {
        Step::Create(t, s) => {
            service.create_session(t, s, SessionSpec::new(2, 33 + t)).unwrap();
            None
        }
        Step::Wave(t, s, w) => Some(run_wave(service, t, s, w)),
        Step::Compact => {
            service.compact_all().unwrap();
            None
        }
    }
}

/// The fault-free golden: every wave outcome of the script plus one probe
/// wave per tenant at the end, from a journaled run that never crashes
/// and ships nothing.
pub fn golden() -> (Vec<Option<WaveOutcome>>, Vec<WaveOutcome>) {
    let handles = handles(SHARDS);
    let service = journaled(&handles);
    let outcomes: Vec<Option<WaveOutcome>> =
        script().into_iter().map(|step| apply(&service, step)).collect();
    let probes = TENANTS
        .iter()
        .map(|&(t, s)| run_wave(&service, t, s, WAVES))
        .collect();
    (outcomes, probes)
}

// ---------------------------------------------------------------------------
// Multi-tenant wave scripts
// ---------------------------------------------------------------------------

/// One tenant's scripted session: per-wave measurement vectors for `p`
/// algorithms, scored after each wave.
pub struct Script {
    pub tenant: u64,
    pub session: u64,
    pub p: usize,
    pub seed: u64,
    pub waves: Vec<Vec<Vec<f64>>>,
}

impl Script {
    /// The spec the script's session is created with under `cfg`.
    pub fn spec(&self, cfg: ClusterConfig) -> SessionSpec {
        SessionSpec {
            algorithms: self.p,
            config: cfg,
            seed: self.seed,
            criterion: ConvergenceCriterion::default(),
        }
    }
}

pub fn scripts(num_tenants: usize, waves: usize, value_seed: u64) -> Vec<Script> {
    (0..num_tenants as u64)
        .map(|tenant| {
            let p = 2 + (tenant as usize % 3);
            Script {
                tenant,
                session: 100 + tenant,
                p,
                seed: 7 + tenant,
                waves: (0..waves)
                    .map(|w| {
                        (0..p)
                            .map(|alg| {
                                noisy(
                                    1.0 + alg as f64,
                                    4,
                                    value_seed ^ (tenant << 20) ^ ((w as u64) << 10) ^ alg as u64,
                                )
                            })
                            .collect()
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Drives each script through a private `ClusterSession` — the reference
/// the service must match bit for bit.
pub fn direct_tables(scripts: &[Script], cfg: ClusterConfig) -> Vec<Vec<ScoreTable>> {
    let cmp = comparator();
    scripts
        .iter()
        .map(|s| {
            let mut session = ClusterSession::new(s.p, &cmp, cfg, s.seed);
            s.waves
                .iter()
                .map(|wave| {
                    for (alg, values) in wave.iter().enumerate() {
                        session.extend(alg, values).unwrap();
                    }
                    session.score().clone()
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Frame checksum reference
// ---------------------------------------------------------------------------

/// FNV-1a 64 offset basis: the starting `hash` of every fresh checksum and
/// of a replication lane's digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Word-wise FNV-1a 64 continued from `hash`: the little-endian `u64`
/// words of `bytes`, then its 0–7 tail bytes. Wire frames, journal
/// records, `SHIP` envelopes, lane digests and session checksums all use
/// this hash. It is written out here, not called from the crate, so a test
/// that seals its own bytes checks the crate's implementation against an
/// independent one.
pub fn fnv1a64_words(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        hash = (hash ^ u64::from_le_bytes(word.try_into().unwrap())).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        hash = (hash ^ u64::from(b)).wrapping_mul(PRIME);
    }
    hash
}
