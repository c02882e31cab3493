//! Workload definitions and seeded input generation.
//!
//! Every input is generated from the `--seed` argument before any timing:
//! a workload draws a pool of campaigns (session spec plus the op group of
//! every step) and its tenants cycle through the pool. Each step carries
//! the check its response must pass; for scored waves that is the table a
//! bare [`ClusterSession`] produces from the same values, spec, and seed.

use relperf_bench::paper_comparator;
use relperf_core::cluster::{ClusterConfig, Parallelism, ScoreTable};
use relperf_core::session::{ClusterSession, ConvergenceCriterion};
use relperf_measure::compare::BootstrapComparator;
use relperf_measure::{stream_seed, ScratchThreeWayComparator};
use relperf_service::journal::JournalConfig;
use relperf_service::runtime::RuntimeConfig;
use relperf_service::service::{ServiceLimits, SessionOp, SessionSpec};
use relperf_workloads::experiment::{measure_all_seeded, Experiment};
use std::time::Duration;

/// Registry shards, one journal store each.
pub const SHARDS: usize = 16;
/// Session id every tenant uses; a campaign closes it and the next one
/// reopens it fresh.
pub const SESSION: u64 = 1;
/// Clustering repetitions of every session.
pub const REPETITIONS: usize = 50;
/// Every workload's runtime: one scheduler thread per core.
pub const RUNTIME: RuntimeConfig = RuntimeConfig {
    scheduler_threads: 2,
    cadence: Duration::from_millis(1),
    mailbox_cap: 16384,
};
/// Every workload's journal: group commit amortizes `fsync` over 64 ops.
pub const JOURNAL: JournalConfig = JournalConfig {
    group_commit: 64,
    compact_every: 1024,
};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Solo,
    Fleet,
    Ingest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "solo_campaign" => Some(Workload::Solo),
            "fleet_campaign" => Some(Workload::Fleet),
            "ingest_stream" => Some(Workload::Ingest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Solo => "solo_campaign",
            Workload::Fleet => "fleet_campaign",
            Workload::Ingest => "ingest_stream",
        }
    }

    /// Tenants per connection (connections = this slice's length).
    pub fn tenants_per_connection(self) -> &'static [usize] {
        match self {
            Workload::Solo => &[1],
            Workload::Fleet => &[32, 32],
            Workload::Ingest => &[16, 16],
        }
    }

    /// Most tenants one connection keeps in flight.
    pub fn window(self) -> usize {
        match self {
            Workload::Solo => 1,
            Workload::Fleet => 8,
            Workload::Ingest => 16,
        }
    }

    pub fn limits(self) -> ServiceLimits {
        match self {
            // 16 shards x 2 slots = 32 resident sessions for 64 tenants:
            // spill and rehydrate run all the time.
            Workload::Fleet => ServiceLimits {
                sessions_per_shard: 2,
                ..ServiceLimits::default()
            },
            _ => ServiceLimits::default(),
        }
    }

    /// Distinct campaigns in the input pool.
    fn pool_size(self) -> usize {
        match self {
            Workload::Solo => 32,
            Workload::Fleet => 64,
            Workload::Ingest => 16,
        }
    }
}

/// What a step's responses must show.
#[derive(Debug, Clone)]
pub enum Check {
    /// A scored wave: the `Score` response's table, bit for bit.
    Table(ScoreTable),
    /// An ingest group: every op `Ingested`.
    Ingested,
    /// The closing snapshot: `Status` and the decoded snapshot both report
    /// `total` measurements.
    Snapshot { total: usize },
}

/// One closed-loop request: an op group submitted atomically.
#[derive(Debug, Clone)]
pub struct Step {
    pub ops: Vec<SessionOp>,
    pub check: Check,
    /// Work the step delivers to the user: 1 per scored wave, the value
    /// count per ingest group, 0 for bookkeeping steps.
    pub units: u64,
}

impl Step {
    /// Whether the step counts toward the latency and throughput metrics.
    pub fn counted(&self) -> bool {
        self.units > 0
    }
}

/// One campaign of the pool.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub spec: SessionSpec,
    pub steps: Vec<Step>,
}

/// A workload's generated inputs.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub comparator_seed: u64,
    pub pool: Vec<Campaign>,
}

impl Inputs {
    pub fn comparator(&self) -> BootstrapComparator {
        paper_comparator(self.comparator_seed)
    }

    /// The workload's effective configuration, rendered from the constants
    /// the run uses. Every run prints it on stderr, so the record of what
    /// was measured cannot drift from the code.
    pub fn describe(&self) -> String {
        let w = self.workload;
        let experiment = match w {
            Workload::Solo => "Experiment::table1(10)",
            Workload::Fleet | Workload::Ingest => "Experiment::fig1()",
        };
        let shape = match w {
            Workload::Solo | Workload::Fleet => format!(
                "{experiment}; {WAVES} waves of (p x Extend of {PER_WAVE} values, Score), Close on the last"
            ),
            Workload::Ingest => format!(
                "{experiment}; {GROUPS} groups of (p x ExtendAll of {PER_GROUP} values), Status check, (Snapshot, Close)"
            ),
        };
        [
            format!("workload           {}", w.name()),
            format!("tenants/connection {:?}", w.tenants_per_connection()),
            format!("in flight/conn     {}", w.window()),
            format!("campaign pool      {}", w.pool_size()),
            format!("campaign           {shape}"),
            format!("session spec       {:?} (campaign 0)", self.pool[0].spec),
            format!("comparator         paper_comparator: {:?}", self.comparator().config()),
            format!("service            {SHARDS} shards, scheduler Parallelism::serial(), one FileJournalStore per shard"),
            format!("service limits     {:?}", w.limits()),
            format!("runtime config     {RUNTIME:?}"),
            format!("journal config     {JOURNAL:?}"),
            "seed               campaign k: measure_all_seeded(.., stream_seed(seed, k + 1), serial), session seed stream_seed(stream_seed(seed, k + 1), 7); comparator seed stream_seed(seed, 0xC0FFEE)".to_string(),
        ]
        .join("\n")
    }
}

pub fn spec(algorithms: usize, seed: u64) -> SessionSpec {
    SessionSpec {
        algorithms,
        config: ClusterConfig {
            repetitions: REPETITIONS,
            parallelism: Parallelism::serial(),
            ..ClusterConfig::default()
        },
        seed,
        criterion: ConvergenceCriterion::default(),
    }
}

/// Scored-campaign shape: `waves` waves of `per_wave` values per algorithm.
const WAVES: usize = 6;
const PER_WAVE: usize = 5;
/// Ingest shape: `GROUPS` submits of one `ExtendAll` per algorithm.
const GROUPS: usize = 10;
const PER_GROUP: usize = 256;

/// Generates the workload's input pool from `seed`, computing every
/// scored wave's expected table with a bare `ClusterSession`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let comparator_seed = stream_seed(seed, 0x00C0_FFEE);
    let comparator = paper_comparator(comparator_seed);
    let pool = (0..workload.pool_size() as u64)
        .map(|k| {
            let campaign_seed = stream_seed(seed, k + 1);
            match workload {
                Workload::Solo => {
                    scored_campaign(&Experiment::table1(10), campaign_seed, &comparator)
                }
                Workload::Fleet => scored_campaign(&Experiment::fig1(), campaign_seed, &comparator),
                Workload::Ingest => ingest_campaign(&Experiment::fig1(), campaign_seed),
            }
        })
        .collect();
    Inputs {
        workload,
        comparator_seed,
        pool,
    }
}

/// Simulated measurements, `n` per algorithm.
fn measurements(exp: &Experiment, n: usize, seed: u64) -> Vec<Vec<f64>> {
    measure_all_seeded(exp, n, seed, Parallelism::serial())
        .into_iter()
        .map(|m| m.sample.values().to_vec())
        .collect()
}

fn scored_campaign(exp: &Experiment, seed: u64, comparator: &BootstrapComparator) -> Campaign {
    let values = measurements(exp, WAVES * PER_WAVE, seed);
    let spec = spec(values.len(), stream_seed(seed, 7));
    let mut steps: Vec<Step> = (0..WAVES)
        .map(|w| {
            let mut ops: Vec<SessionOp> = values
                .iter()
                .enumerate()
                .map(|(alg, v)| SessionOp::Extend {
                    alg,
                    values: v[w * PER_WAVE..(w + 1) * PER_WAVE].to_vec(),
                })
                .collect();
            ops.push(SessionOp::Score);
            Step {
                ops,
                // Filled in by the oracle below.
                check: Check::Ingested,
                units: 1,
            }
        })
        .collect();
    // The last wave also closes the session, so the next campaign can
    // reopen it.
    steps
        .last_mut()
        .expect("campaign has waves")
        .ops
        .push(SessionOp::Close);
    let mut campaign = Campaign { spec, steps };
    let tables = replay(&campaign, comparator);
    for (step, table) in campaign.steps.iter_mut().zip(tables) {
        step.check = Check::Table(table.expect("every wave scores"));
    }
    campaign
}

fn ingest_campaign(exp: &Experiment, seed: u64) -> Campaign {
    let values = measurements(exp, GROUPS * PER_GROUP, seed);
    let p = values.len();
    let mut steps: Vec<Step> = (0..GROUPS)
        .map(|g| Step {
            ops: values
                .iter()
                .enumerate()
                .map(|(alg, v)| SessionOp::ExtendAll {
                    alg,
                    values: v[g * PER_GROUP..(g + 1) * PER_GROUP].to_vec(),
                })
                .collect(),
            check: Check::Ingested,
            units: (PER_GROUP * p) as u64,
        })
        .collect();
    steps.push(Step {
        ops: vec![SessionOp::Snapshot, SessionOp::Close],
        check: Check::Snapshot {
            total: GROUPS * PER_GROUP * p,
        },
        units: 0,
    });
    Campaign {
        spec: spec(p, stream_seed(seed, 7)),
        steps,
    }
}

/// The oracle: drives a campaign through a bare `ClusterSession` and
/// returns each step's score table (if it scored). The traced run's core
/// replay and the per-tier `Direct` tier apply ops through the same
/// [`apply`].
pub fn replay<C: ScratchThreeWayComparator + Sync>(
    campaign: &Campaign,
    comparator: C,
) -> Vec<Option<ScoreTable>> {
    let spec = campaign.spec;
    let mut session = ClusterSession::with_criterion(
        spec.algorithms,
        comparator,
        spec.config,
        spec.seed,
        spec.criterion,
    );
    campaign
        .steps
        .iter()
        .map(|step| {
            let mut table = None;
            for op in &step.ops {
                apply(&mut session, op, &mut table);
            }
            table
        })
        .collect()
}

/// Applies one op the way the service executes it.
pub fn apply<C: ScratchThreeWayComparator + Sync>(
    session: &mut ClusterSession<C>,
    op: &SessionOp,
    table: &mut Option<ScoreTable>,
) {
    match op {
        SessionOp::Push { alg, value } => session.push(*alg, *value).expect("finite input"),
        SessionOp::Extend { alg, values } => session.extend(*alg, values).expect("finite input"),
        SessionOp::ExtendAll { alg, values } => {
            session.try_extend_all(*alg, values).expect("finite input")
        }
        SessionOp::Score => *table = Some(session.score().clone()),
        SessionOp::Snapshot | SessionOp::Close => {}
    }
}

/// Bitwise table equality (`==` on `f64` would let `-0.0` match `0.0`).
pub fn same_table(a: &ScoreTable, b: &ScoreTable) -> bool {
    a.num_classes() == b.num_classes()
        && a.score_rows().len() == b.score_rows().len()
        && a.score_rows().iter().zip(b.score_rows()).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
        })
}
