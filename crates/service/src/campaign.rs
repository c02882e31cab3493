//! Adaptive measurement campaigns driven *through* the service.
//!
//! A [`ServiceCampaign`] runs the same wave loop as
//! [`AdaptiveExperiment`](relperf_workloads::adaptive::AdaptiveExperiment),
//! one [`CampaignDriver`], but ingests and scores each wave by submitting
//! `Extend`/`Score` ops to a [`SessionService`] instead of owning a
//! private session — so many campaigns from many tenants share one
//! scheduler, one comparator, and one capacity budget. Admission is the
//! commit point: the driver keeps the advanced RNG streams and counts
//! only once [`SessionService::submit_all`] admits the whole wave.
//!
//! Determinism carries over unchanged: the draws are a pure function of
//! the carried RNG states, and the service guarantees wave-for-wave
//! bit-identity with a private
//! [`ClusterSession`](relperf_core::session::ClusterSession) — so a
//! service campaign's tables equal `AdaptiveExperiment`'s for the same
//! seeds, budgets, and waves (tested in `tests/`).
//!
//! # Checkpoint / restore
//!
//! [`checkpoint`](ServiceCampaign::checkpoint) attaches the carried RNG
//! states to the hosted session's [`snapshot`];
//! [`resume`](ServiceCampaign::resume) restores the session, reads every
//! placement's count from its sample, and continues every stream where it
//! stopped — bit-identical to an uninterrupted run.

use crate::error::ServiceError;
use crate::service::{OpOutcome, SessionOp, SessionService, SessionSpec, WaveOutcome};
use crate::snapshot::{self, SnapshotError};
use relperf_core::cluster::ClusterConfig;
use relperf_core::session::ConvergenceCriterion;
use relperf_measure::ScratchThreeWayComparator;
use relperf_workloads::adaptive::{CampaignDriver, WaveSchedule};
use relperf_workloads::experiment::Experiment;

/// A live hosted campaign (see the [module docs](self)).
#[derive(Debug)]
pub struct ServiceCampaign<'a, C: ScratchThreeWayComparator + Send + Sync> {
    service: &'a SessionService<C>,
    tenant: u64,
    session: u64,
    /// The wave loop (draws fan out per the session config's parallelism).
    driver: CampaignDriver<'a>,
    /// The last scored wave, if any.
    last: Option<WaveOutcome>,
}

impl<'a, C: ScratchThreeWayComparator + Send + Sync> ServiceCampaign<'a, C> {
    /// Opens a hosted session for the campaign and sets up the carried
    /// measurement streams (the same streams
    /// [`measure_all_seeded`](relperf_workloads::experiment::measure_all_seeded)
    /// would use under `measure_seed`).
    ///
    /// # Panics
    /// Panics when the schedule is invalid (caller configuration, same
    /// policy as `AdaptiveExperiment::new`); tenant-shaped problems (spec
    /// validation, capacity) come back as typed errors.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        service: &'a SessionService<C>,
        experiment: &'a Experiment,
        tenant: u64,
        session: u64,
        config: ClusterConfig,
        criterion: ConvergenceCriterion,
        schedule: WaveSchedule,
        measure_seed: u64,
        cluster_seed: u64,
    ) -> Result<Self, ServiceError> {
        let driver = CampaignDriver::new(experiment, schedule, config.parallelism, measure_seed);
        service.create_session(
            tenant,
            session,
            SessionSpec {
                algorithms: experiment.placements.len(),
                config,
                seed: cluster_seed,
                criterion,
            },
        )?;
        Ok(ServiceCampaign { service, tenant, session, driver, last: None })
    }

    /// Resumes a campaign from checkpoint bytes produced by
    /// [`checkpoint`](ServiceCampaign::checkpoint): restores the hosted
    /// session and continues every placement's measurement stream from its
    /// carried RNG state. A checkpoint whose placements hold different
    /// measurement counts does not fit the uniform schedule: it fails with
    /// [`SnapshotError::Malformed`] and nothing is restored.
    pub fn resume(
        service: &'a SessionService<C>,
        experiment: &'a Experiment,
        tenant: u64,
        session: u64,
        schedule: WaveSchedule,
        bytes: &[u8],
    ) -> Result<Self, ServiceError> {
        let snap = snapshot::decode(bytes)?;
        let drawn = snap.state.samples.iter().map(|s| s.as_ref().map_or(0, |s| s.len())).collect();
        let driver = CampaignDriver::resume(
            experiment,
            schedule,
            snap.config.parallelism,
            &snap.rng_states,
            drawn,
        )
        .map_err(|what| ServiceError::BadSnapshot(SnapshotError::Malformed(what)))?;
        let last = snap.state.table.as_ref().map(|table| WaveOutcome {
            clustering: table.final_assignment(),
            table: table.clone(),
            converged: snap.state.converged,
            waves: snap.state.waves,
            stable_run: snap.state.stable_run,
        });
        service.restore_snapshot(tenant, session, snap)?;
        Ok(ServiceCampaign { service, tenant, session, driver, last })
    }

    /// Measurements drawn per placement so far.
    pub fn measurements_per_algorithm(&self) -> usize {
        self.driver.measurements_per_algorithm()
    }

    /// `true` once the hosted session's criterion has been met.
    pub fn converged(&self) -> bool {
        self.last.as_ref().is_some_and(|w| w.converged)
    }

    /// `true` while the budget allows another wave.
    pub fn budget_remaining(&self) -> bool {
        self.driver.budget_remaining()
    }

    /// The last scored wave, if any.
    pub fn last_wave(&self) -> Option<&WaveOutcome> {
        self.last.as_ref()
    }

    /// Draws the next measurement wave, submits one `Extend` per placement
    /// plus a `Score` (atomically, via
    /// [`SessionService::submit_all`] — a backpressure rejection queues
    /// nothing and leaves the campaign's RNG streams untouched, so the
    /// wave can simply be retried after a drain), and drives a scheduler
    /// batch to completion.
    ///
    /// Note that [`SessionService::run_batch`] drains *all* queued work —
    /// a campaign is a well-behaved co-driver of a shared service, not an
    /// isolated client; other tenants' responses are simply delivered in
    /// the same batch. The campaign assumes it is the only driver
    /// *submitting ops for its own session* and that no other thread
    /// drains batches concurrently (a racing driver surfaces as a typed
    /// [`ServiceError::ResponseLost`], never a panic).
    ///
    /// # Panics
    /// Panics when the budget is exhausted (check
    /// [`budget_remaining`](ServiceCampaign::budget_remaining)).
    pub fn wave(&mut self) -> Result<&WaveOutcome, ServiceError> {
        let seqs = self.driver.wave(|waves| {
            let mut ops: Vec<SessionOp> = waves
                .into_iter()
                .enumerate()
                .map(|(alg, values)| SessionOp::Extend { alg, values })
                .collect();
            ops.push(SessionOp::Score);
            self.service.submit_all(self.tenant, self.session, ops)
        })?;
        let score_seq = *seqs.last().expect("ops were non-empty");
        let OpOutcome::Scored(wave) = self.expect_outcome(score_seq)? else {
            unreachable!("a Score op answers with Scored");
        };
        Ok(self.last.insert(wave))
    }

    /// Runs waves until the criterion is met or the budget is exhausted;
    /// `Ok(true)` when the campaign converged.
    pub fn run_to_convergence(&mut self) -> Result<bool, ServiceError> {
        while !self.converged() && self.budget_remaining() {
            self.wave()?;
        }
        Ok(self.converged())
    }

    /// Checkpoints the campaign: the hosted session's snapshot with this
    /// campaign's carried per-placement RNG states attached.
    pub fn checkpoint(&self) -> Result<Vec<u8>, ServiceError> {
        let seq = self
            .service
            .submit(self.tenant, self.session, SessionOp::Snapshot)?;
        let outcome = self.expect_outcome(seq)?;
        let OpOutcome::Snapshot(bytes) = outcome else {
            unreachable!("a Snapshot op answers with Snapshot");
        };
        let mut snap = snapshot::decode(&bytes)?;
        snap.rng_states = self.driver.rng_states();
        Ok(snapshot::encode(&snap))
    }

    /// Closes the hosted session, freeing its slot.
    pub fn close(self) -> Result<(), ServiceError> {
        let seq = self
            .service
            .submit(self.tenant, self.session, SessionOp::Close)?;
        self.expect_outcome(seq).map(|_| ())
    }

    /// Runs a batch and extracts the response to `seq`, surfacing the
    /// first error among this campaign's other responses. When a racing
    /// driver drained the batch first the response is gone from our view:
    /// that is reported as [`ServiceError::ResponseLost`], not a panic.
    fn expect_outcome(&self, seq: u64) -> Result<OpOutcome, ServiceError> {
        let mut wanted = None;
        for response in self.service.run_batch() {
            if response.key.tenant != self.tenant || response.key.session != self.session {
                continue;
            }
            match response.result {
                Err(e) => return Err(e),
                Ok(outcome) if response.seq == seq => wanted = Some(outcome),
                Ok(_) => {}
            }
        }
        wanted.ok_or(ServiceError::ResponseLost { seq })
    }
}
