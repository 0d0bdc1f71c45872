//! The fetch state machine: one event-driven driver behind every fetch
//! and every transfer the grid runs.
//!
//! Each job runs the paper's Fig. 1 scenario as a state machine over the
//! grid's one simulator: arrival → catalog/selection latency → decision →
//! GridFTP transfer with stall detection, seeded backoff retries resuming
//! from MODE E restart markers, suspect marking and next-best failover.
//! Monitoring keeps running underneath, and every monitor tick pushes the
//! hosts' fresh disk and CPU limits into the running sessions.
//!
//! [`DataGrid::replay_concurrent`] runs a whole workload — N clients with
//! seeded arrival times — through the driver at once, so every selection
//! decision is made while other clients' transfers already consume the
//! links it is scoring. The blocking calls run the same machine with one
//! job:
//!
//! * [`DataGrid::fetch`], [`DataGrid::fetch_with`],
//!   [`DataGrid::fetch_from`] and [`DataGrid::fetch_with_recovery`] start
//!   a fetch job in its decision phase (the plain calls with one attempt
//!   and no failover);
//! * [`DataGrid::transfer_between`],
//!   [`DataGrid::transfer_between_with_recovery`],
//!   [`DataGrid::striped_transfer_between`] and
//!   [`DataGrid::third_party_transfer`] start a copy job — fixed hosts,
//!   no catalog, no choice, no failover — in its first attempt.
//!
//! Both kinds record the same `selection.decision` audit entries,
//! `transfer.*` spans, events and metrics; only a replay adds its
//! `replay.*` records and the per-job timeline accounting.
//! [`modelcheck`](super::modelcheck) restates one fetch job's machine and
//! proves it can neither hang nor leak.
//!
//! Determinism: the driver consumes randomness only through the grid's
//! own seeded sources (selector, backoff jitter, background traffic), and
//! every routing decision is by value, never by map-iteration order — two
//! runs from the same seed produce byte-identical event logs.

#![expect(
    clippy::unreachable,
    reason = "unreachable!() on timer/owner routes and job kinds the state machine cannot produce, cross-checked by grid::modelcheck"
)]
#![expect(
    clippy::expect_used,
    reason = "the self-re-arming monitor timer keeps the queue non-empty; scored candidates imply a registered file"
)]

use std::collections::HashMap;

use datagrid_catalog::name::LogicalFileName;
use datagrid_gridftp::error::TransferError;
use datagrid_gridftp::executor::{
    RecoveredTransfer, SessionStatus, TransferEndpoint, TransferSession,
};
use datagrid_gridftp::instrument::protocol_label;
use datagrid_gridftp::transfer::{PhaseRecord, TransferOutcome, TransferRequest};
use datagrid_obs::{Event, PhaseProfiler};
use datagrid_simnet::engine::{EngineStats, EventKind, FlowId};
use datagrid_simnet::time::{SimDuration, SimTime};
use datagrid_simnet::topology::Bandwidth;
use datagrid_sysmon::host::HostId;

use super::{DataGrid, FetchOptions, FetchReport, SESSION_TOKEN_BASE, TOK_MONITOR};
use crate::error::GridError;
use crate::factors::CandidateScore;
use crate::recovery::{RecoveredFetch, RecoveryOptions};

/// One scheduled fetch in a replay workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayJob {
    /// Simulated arrival time (clamped to "now" if already past).
    pub at: SimTime,
    /// The requesting host.
    pub client: HostId,
    /// The logical file to fetch.
    pub lfn: String,
}

/// Terminal state of one replayed fetch.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayStatus {
    /// The fetch delivered the full file.
    Completed {
        /// Host that served the winning replica.
        winner: String,
        /// Payload bytes delivered across all attempts (equals the file
        /// size).
        bytes: u64,
        /// `true` when the file was already present at the client.
        local_hit: bool,
    },
    /// Every candidate the failover policy was willing to try was
    /// abandoned (the per-job analogue of
    /// [`GridError::AllReplicasFailed`]).
    Failed {
        /// Hosts tried and abandoned, in order.
        failed: Vec<String>,
    },
}

impl ReplayStatus {
    /// `true` for [`ReplayStatus::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, ReplayStatus::Completed { .. })
    }
}

/// The full record of one replayed fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Requesting host name.
    pub client: String,
    /// The logical file requested.
    pub lfn: String,
    /// When the job entered the system.
    pub submitted: SimTime,
    /// When the job reached a terminal state.
    pub finished: SimTime,
    /// Transfer attempts across all replicas tried.
    pub attempts: u32,
    /// Replicas abandoned before the terminal state.
    pub failovers: u32,
    /// Payload bytes moved, including work lost to stalled attempts.
    pub payload_moved: u64,
    /// How the job ended.
    pub status: ReplayStatus,
}

impl ReplayOutcome {
    /// Submission-to-terminal latency (queueing + decision + transfer).
    pub fn latency(&self) -> SimDuration {
        self.finished - self.submitted
    }
}

/// The result of one [`DataGrid::replay_concurrent`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Per-job outcomes, in submission (input) order.
    pub outcomes: Vec<ReplayOutcome>,
    /// Simulated time when the replay started.
    pub started: SimTime,
    /// Simulated time when the last job reached a terminal state.
    pub finished: SimTime,
}

impl ReplayReport {
    /// Wall time of the whole replay in simulated seconds.
    pub fn makespan(&self) -> SimDuration {
        self.finished - self.started
    }

    /// Jobs that delivered their full file.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status.is_completed())
            .count()
    }

    /// Jobs that exhausted every candidate.
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.completed()
    }
}

/// What a job is waiting for.
enum Phase {
    /// Its arrival timer.
    Arrival,
    /// The catalog + selection-server round trip.
    Deciding,
    /// A retry backoff pause.
    Backoff { pause: SimDuration },
    /// A synthesised local disk read.
    LocalRead { started: SimTime },
    /// A GridFTP session it owns.
    Transferring(Box<TransferSession>),
    /// Nothing: terminal.
    Done,
}

/// What a job moves.
enum Target {
    /// A logical file: catalog query, replica choice, failover.
    Fetch {
        /// The replica currently being fetched.
        choice: Option<CandidateScore>,
    },
    /// A copy between fixed hosts: no catalog, no choice, no failover.
    Copy {
        /// Stripe servers, in stripe order.
        sources: Vec<HostId>,
        /// Name of the first stripe server, for spans and events.
        src_name: String,
        /// Third-party controller; `None` means the destination drives
        /// the copy and may reuse a cached control channel.
        control: Option<HostId>,
        /// The whole request; retries ask for its uncommitted tail.
        req: TransferRequest,
    },
}

impl Target {
    /// Hosts serving the current attempt, in stripe order (empty before a
    /// fetch's first decision).
    fn sources(&self) -> &[HostId] {
        match self {
            Target::Fetch {
                choice: Some(choice),
            } => std::slice::from_ref(&choice.host),
            Target::Fetch { choice: None } => &[],
            Target::Copy { sources, .. } => sources,
        }
    }

    /// Name of the first serving host.
    fn source_name(&self) -> &str {
        match self {
            Target::Fetch { choice } => choice.as_ref().map_or("", |c| c.host_name.as_str()),
            Target::Copy { src_name, .. } => src_name,
        }
    }

    /// Whether the destination drives the transfer and so may reuse (and
    /// keeps open) a cached control channel: every job but a third-party
    /// copy.
    fn caches_control(&self) -> bool {
        !matches!(
            self,
            Target::Copy {
                control: Some(_),
                ..
            }
        )
    }
}

struct JobState {
    /// The receiving host: the fetching client or the copy destination.
    client: HostId,
    client_name: String,
    /// The logical file a fetch serves (empty for a copy).
    lfn: String,
    target: Target,
    submitted: SimTime,
    /// Size of the requested file (set at a fetch's first decision).
    total_bytes: u64,
    /// Bytes committed by MODE E restart markers in the current episode.
    committed: u64,
    /// Attempts against the current replica.
    episode_attempts: u32,
    /// Attempts across all replicas.
    attempts: u32,
    failed_over: Vec<String>,
    payload_moved: u64,
    decision_started: SimTime,
    /// Audit sequence number of this job's latest decision, for attaching
    /// the measured time to the *right* entry under interleaving.
    audit_seq: Option<u64>,
    phase: Phase,
    /// Token block of the live GridFTP session, if any (key into
    /// [`Driver::session_blocks`]).
    session_block: Option<u64>,
    /// Data flows the live session has started, mirrored into
    /// [`Driver::flow_owner`]; the buffer is reused across attempts.
    owned_flows: Vec<FlowId>,
}

impl JobState {
    /// The logical file to label this job's transfer span with.
    fn span_lfn(&self) -> Option<&str> {
        matches!(self.target, Target::Fetch { .. }).then_some(self.lfn.as_str())
    }
}

/// What a one-job run behind a blocking call keeps for its caller, beyond
/// the job's own state.
#[derive(Default)]
struct Solo {
    /// Replica host forced by [`DataGrid::fetch_from`] (the `"forced"`
    /// policy label).
    forced: Option<String>,
    /// The latest ranking and the index chosen from it.
    ranking: Vec<CandidateScore>,
    chosen: usize,
    /// Catalog and selection time summed over every decision round.
    decision_latency: SimDuration,
    /// The committed offset each retry resumed from.
    resumed_from: Vec<u64>,
    backoff_total: SimDuration,
    /// The final attempt's outcome, once the job completed.
    outcome: Option<TransferOutcome>,
}

/// The event loop: grid + per-job state machines. `grid` and the
/// driver's own fields are disjoint, so job state can be borrowed while
/// grid methods run.
struct Driver<'a> {
    grid: &'a mut DataGrid,
    options: FetchOptions,
    recovery: &'a RecoveryOptions,
    states: Vec<JobState>,
    /// Control-timer token -> job index (arrival, decision, backoff and
    /// local-read timers; removed when fired).
    timers: HashMap<u64, usize>,
    /// Session token block -> job index, for O(1) routing of session
    /// timers (control/ramp/completion/watchdog) without scanning jobs.
    session_blocks: HashMap<u64, usize>,
    /// Data-flow id -> job index, for O(1) routing of flow completions.
    /// Never iterated (HashMap order must stay unobservable).
    flow_owner: HashMap<FlowId, usize>,
    /// Reusable ranked-candidate buffer for [`Driver::decide`].
    cand_buf: Vec<CandidateScore>,
    /// Reusable monitor-tick batch of `(flow, cap)` refreshes.
    cap_buf: Vec<(FlowId, Bandwidth)>,
    /// Reusable fresh-endpoint list for monitor-tick refreshes.
    fresh_buf: Vec<TransferEndpoint>,
    /// A replay's per-job records, in submission order (empty in a
    /// one-job run).
    outcomes: Vec<Option<ReplayOutcome>>,
    /// Set for a one-job run behind a blocking call, which records no
    /// `replay.*` events, metrics or per-job timeline entries.
    solo: Option<Solo>,
    remaining: usize,
    /// The grid's phase profiler, held here for the duration of the run
    /// so span guards can borrow it while `grid` methods take `&mut`.
    prof: PhaseProfiler,
}

/// A finished run: the job states, a replay's per-job records and a
/// one-job run's record.
struct Finished {
    states: Vec<JobState>,
    outcomes: Vec<Option<ReplayOutcome>>,
    solo: Solo,
}

/// Runs the jobs `setup` adds to completion on `grid`, lending the
/// driver the grid's profiler. On error every live session is torn down,
/// so no flow outlives the run.
fn drive<'a>(
    grid: &'a mut DataGrid,
    options: FetchOptions,
    recovery: &'a RecoveryOptions,
    solo: Option<Solo>,
    setup: impl FnOnce(&mut Driver<'a>) -> Result<(), GridError>,
) -> Result<Finished, GridError> {
    let prof = std::mem::take(&mut grid.prof);
    let mut driver = Driver {
        grid,
        options,
        recovery,
        states: Vec::new(),
        timers: HashMap::new(),
        session_blocks: HashMap::new(),
        flow_owner: HashMap::new(),
        cand_buf: Vec::new(),
        cap_buf: Vec::new(),
        fresh_buf: Vec::new(),
        outcomes: Vec::new(),
        solo,
        remaining: 0,
        prof,
    };
    let result = setup(&mut driver).and_then(|()| driver.run());
    if result.is_err() {
        driver.abort_live_sessions();
    }
    driver.grid.prof = driver.prof;
    result.map(|()| Finished {
        states: driver.states,
        outcomes: driver.outcomes,
        solo: driver.solo.unwrap_or_default(),
    })
}

/// The recovery ladder of the plain calls: the default stall watchdog,
/// one attempt and no failover, so an outage ends the call with an error
/// instead of waiting on it forever.
pub(super) fn plain_recovery() -> RecoveryOptions {
    let defaults = RecoveryOptions::default();
    defaults
        .with_retry(defaults.retry.with_max_attempts(1))
        .with_max_failovers(0)
}

impl DataGrid {
    /// Replays `jobs` — each a client/file/arrival-time triple — against
    /// this grid **concurrently**: every job runs the paper's Fig. 1
    /// scenario with the recovery semantics of
    /// [`DataGrid::fetch_with_recovery`], but all jobs share the event
    /// loop, so their transfers contend for bandwidth and their selection
    /// decisions observe each other's traffic (especially under
    /// [`SelectionMode::ContentionAware`](super::SelectionMode)).
    ///
    /// Per job, the terminal state is either `Completed` with the full
    /// file delivered or `Failed` after suspect-marking and next-best
    /// failover ran out of candidates — a replay never hangs and never
    /// leaks flows.
    ///
    /// # Errors
    ///
    /// Configuration errors surface as `Err` (unknown files/hosts,
    /// invalid requests); per-job transfer failures do not — they end in
    /// [`ReplayStatus::Failed`].
    pub fn replay_concurrent(
        &mut self,
        jobs: &[ReplayJob],
        options: FetchOptions,
        recovery: &RecoveryOptions,
    ) -> Result<ReplayReport, GridError> {
        let started = self.sim.now();
        self.obs.metrics_mut().add("replay.jobs", jobs.len() as u64);
        self.obs.emit(
            Event::new(started, "replay", "replay.start")
                .with("jobs", jobs.len())
                .with("mode", self.selection_mode.label()),
        );
        // Open the first timeline window at the replay boundary even if no
        // monitor tick has fired yet.
        self.sample_timeline();
        let raw = drive(self, options, recovery, None, |driver| {
            driver.states.reserve(jobs.len());
            driver.outcomes = std::iter::repeat_with(|| None).take(jobs.len()).collect();
            for job in jobs {
                let at = job.at.max(started);
                let target = Target::Fetch { choice: None };
                let idx = driver.push_job(job.client, &job.lfn, target, at);
                let token = driver.grid.alloc_session_tokens();
                driver.grid.sim.schedule_timer(at, token);
                driver.timers.insert(token, idx);
            }
            Ok(())
        })?
        .outcomes;
        // Close the timeline on the drained state of the network.
        self.sample_timeline();
        let finished = self.sim.now();
        // `run` returns only once every job has recorded its outcome.
        let outcomes: Vec<ReplayOutcome> = raw
            .into_iter()
            .map(|o| o.expect("every replay job reached a terminal state"))
            .collect();
        let completed = outcomes.iter().filter(|o| o.status.is_completed()).count();
        self.obs.emit(
            Event::new(finished, "replay", "replay.end")
                .with("completed", completed)
                .with("failed", outcomes.len() - completed)
                .with("makespan_secs", (finished - started).as_secs_f64()),
        );
        Ok(ReplayReport {
            outcomes,
            started,
            finished,
        })
    }

    /// Runs one fetch of `lfn` by `client` through the driver, starting
    /// with its decision round trip: the engine behind every blocking
    /// fetch call. `forced` pins the replica host (the `"forced"` policy
    /// label of [`DataGrid::fetch_from`]).
    pub(super) fn fetch_one(
        &mut self,
        client: HostId,
        lfn: &str,
        options: FetchOptions,
        recovery: &RecoveryOptions,
        forced: Option<&str>,
    ) -> Result<RecoveredFetch, GridError> {
        let solo = Solo {
            forced: forced.map(str::to_string),
            ..Solo::default()
        };
        let Finished {
            mut states, solo, ..
        } = drive(self, options, recovery, Some(solo), |driver| {
            let target = Target::Fetch { choice: None };
            let idx = driver.push_job(client, lfn, target, driver.grid.sim.now());
            driver.begin_decision(idx)
        })?;
        let st = states.swap_remove(0);
        let (
            Some(transfer),
            Target::Fetch {
                choice: Some(choice),
            },
        ) = (solo.outcome, st.target)
        else {
            return Err(GridError::AllReplicasFailed {
                lfn: st.lfn,
                failed: st.failed_over,
            });
        };
        Ok(RecoveredFetch {
            report: FetchReport {
                lfn: LogicalFileName::new(st.lfn)?,
                client: st.client_name,
                local_hit: choice.is_local,
                candidates: solo.ranking,
                chosen: solo.chosen,
                transfer,
                decision_latency: solo.decision_latency,
            },
            failed_over: st.failed_over,
            attempts: st.attempts,
            payload_moved: st.payload_moved,
            backoff_total: solo.backoff_total,
        })
    }

    /// Runs one copy of `req` from `sources` (stripe order) to `dst`
    /// through the driver, starting with its first attempt: the engine
    /// behind every blocking transfer call. `control` makes it a
    /// third-party copy orchestrated from that host.
    pub(super) fn copy_one(
        &mut self,
        sources: &[HostId],
        dst: HostId,
        control: Option<HostId>,
        req: TransferRequest,
        recovery: &RecoveryOptions,
    ) -> Result<RecoveredTransfer, GridError> {
        let solo = Some(Solo::default());
        let Finished {
            mut states, solo, ..
        } = drive(self, FetchOptions::default(), recovery, solo, |driver| {
            let target = Target::Copy {
                sources: sources.to_vec(),
                src_name: sources
                    .first()
                    .map(|s| driver.grid.hosts[s.index()].name().to_string())
                    .unwrap_or_default(),
                control,
                req,
            };
            let idx = driver.push_job(dst, "", target, driver.grid.sim.now());
            driver.start_attempt(idx)
        })?;
        let st = states.swap_remove(0);
        let Some(outcome) = solo.outcome else {
            return Err(GridError::Transfer(TransferError::RetriesExhausted {
                attempts: st.attempts,
                delivered: st.committed,
            }));
        };
        Ok(RecoveredTransfer {
            outcome,
            attempts: st.attempts,
            resumed_from: solo.resumed_from,
            payload_moved: st.payload_moved,
            backoff_total: solo.backoff_total,
        })
    }
}

/// Attributes the solver passes between two engine snapshots to the phase
/// at `path`: calls are solves, items are the flows they touched.
fn record_solves(
    prof: &PhaseProfiler,
    path: &[&'static str],
    before: &EngineStats,
    after: &EngineStats,
) {
    let solves = (after.incremental_solves + after.full_solves)
        .saturating_sub(before.incremental_solves + before.full_solves);
    if solves > 0 {
        prof.record_external(
            path,
            solves,
            after
                .solver_flows_touched
                .saturating_sub(before.solver_flows_touched),
        );
    }
}

impl Driver<'_> {
    fn run(&mut self) -> Result<(), GridError> {
        while self.remaining > 0 {
            let before = self.grid.sim.stats();
            let ev = {
                let _settle = self.prof.span("settle");
                // The grid's monitor timer re-arms itself forever, so the
                // queue is never empty.
                self.grid
                    .sim
                    .next_event()
                    .expect("the monitor timer keeps the queue non-empty")
            };
            // Attribute the solver work this settle step triggered to a
            // nested `settle/solve` phase, from the engine's own counters.
            let after = self.grid.sim.stats();
            record_solves(&self.prof, &["settle", "solve"], &before, &after);
            // Cohort batching: count batched solve passes and the per-event
            // solves they replaced, so the profile shows the batching win.
            let avoided = after.solves_avoided.saturating_sub(before.solves_avoided);
            if avoided > 0 {
                self.prof.record_external(
                    &["settle", "batch"],
                    after.batched_solves.saturating_sub(before.batched_solves),
                    avoided,
                );
            }
            // 1. Control timers (arrival, decision latency, backoff,
            //    local read) — exact token match.
            if let EventKind::TimerFired(tok) = &ev.kind {
                if *tok >= SESSION_TOKEN_BASE {
                    if let Some(idx) = self.timers.remove(tok) {
                        self.on_control(idx)?;
                        continue;
                    }
                    // 2a. Session timers (control/ramp/completion/
                    //     watchdog): the token block identifies the owner
                    //     directly. A block with no live session — or one
                    //     whose session disowns the token — is a stale
                    //     watchdog from a finished attempt.
                    let block = (*tok - SESSION_TOKEN_BASE) / TransferSession::TOKENS_PER_SESSION;
                    if let Some(&idx) = self.session_blocks.get(&block) {
                        let owned = matches!(
                            &self.states[idx].phase,
                            Phase::Transferring(session) if session.owns(&ev)
                        );
                        if owned {
                            self.on_session_event(idx, &ev)?;
                            continue;
                        }
                    }
                }
            }
            // 2b. Data-flow completions: the flow index identifies the
            //     owner; unowned completions are NWS probes.
            if let EventKind::FlowCompleted(done) = &ev.kind {
                if let Some(&idx) = self.flow_owner.get(&done.id) {
                    self.on_session_event(idx, &ev)?;
                    continue;
                }
            }
            // 3. Grid plumbing: monitoring, probes, faults, stale timers.
            let monitor_tick = matches!(ev.kind, EventKind::TimerFired(TOK_MONITOR));
            self.grid.handle_internal(&ev);
            if monitor_tick {
                // Host loads just advanced: push fresh disk/CPU limits
                // into every running transfer, so a transfer started
                // against a momentarily saturated host recovers as the
                // load subsides (and vice versa), as one batch that
                // solves each touched component once.
                let before = self.grid.sim.stats();
                {
                    let _refresh = self.prof.span("refresh");
                    self.cap_buf.clear();
                    for st in &mut self.states {
                        if let Phase::Transferring(session) = &mut st.phase {
                            self.fresh_buf.clear();
                            for &src in st.target.sources() {
                                self.fresh_buf.push(self.grid.endpoint_for(src));
                            }
                            let dst_fresh = self.grid.endpoint_for(st.client);
                            session.refresh_endpoints(
                                &self.grid.sim,
                                &self.fresh_buf,
                                dst_fresh,
                                &mut self.cap_buf,
                            );
                        }
                    }
                    self.grid.sim.set_flow_caps(&self.cap_buf);
                }
                let after = self.grid.sim.stats();
                record_solves(&self.prof, &["refresh", "solve"], &before, &after);
            }
        }
        Ok(())
    }

    /// Adds a job for `client` that entered the system at `at`; returns
    /// its index.
    fn push_job(&mut self, client: HostId, lfn: &str, target: Target, at: SimTime) -> usize {
        self.remaining += 1;
        self.states.push(JobState {
            client,
            client_name: self.grid.hosts[client.index()].name().to_string(),
            lfn: lfn.to_string(),
            target,
            submitted: at,
            total_bytes: 0,
            committed: 0,
            episode_attempts: 0,
            attempts: 0,
            failed_over: Vec::new(),
            payload_moved: 0,
            decision_started: at,
            audit_seq: None,
            phase: Phase::Arrival,
            session_block: None,
            owned_flows: Vec::new(),
        });
        self.states.len() - 1
    }

    /// Allocates a control token for `idx` firing after `pause`.
    fn schedule_control(&mut self, idx: usize, pause: SimDuration) {
        let token = self.grid.alloc_session_tokens();
        self.grid.sim.schedule_timer_after(pause, token);
        self.timers.insert(token, idx);
    }

    /// Starts a decision round: the catalog + selection-server round trip
    /// from the job's client, ending in [`Driver::decide`].
    fn begin_decision(&mut self, idx: usize) -> Result<(), GridError> {
        self.states[idx].decision_started = self.grid.sim.now();
        self.states[idx].phase = Phase::Deciding;
        let latency = self.grid.service_latency(self.states[idx].client)?;
        self.schedule_control(idx, latency);
        Ok(())
    }

    /// Mirrors the flows the job's live session has started into
    /// [`Driver::flow_owner`]. Called after every session call that can
    /// start flows; the per-job `owned_flows` list keeps the mirror exact
    /// without ever iterating the map.
    fn sync_session_flows(&mut self, idx: usize) {
        let st = &mut self.states[idx];
        if let Phase::Transferring(session) = &st.phase {
            for id in session.active_flow_ids() {
                if !st.owned_flows.contains(&id) {
                    st.owned_flows.push(id);
                    self.flow_owner.insert(id, idx);
                }
            }
        }
    }

    /// Unregisters a finished attempt's session block and flow mirror
    /// (buffer capacity is kept for the next attempt).
    fn release_session(&mut self, idx: usize) {
        let st = &mut self.states[idx];
        if let Some(block) = st.session_block.take() {
            self.session_blocks.remove(&block);
        }
        for id in st.owned_flows.drain(..) {
            self.flow_owner.remove(&id);
        }
    }

    /// Tears down every live session after an error ended the run early.
    /// Their pending timers stay queued and are ignored as stale session
    /// tokens.
    fn abort_live_sessions(&mut self) {
        for st in &mut self.states {
            if let Phase::Transferring(session) = &mut st.phase {
                session.abort(&mut self.grid.sim);
                st.phase = Phase::Done;
            }
        }
    }

    fn on_control(&mut self, idx: usize) -> Result<(), GridError> {
        match std::mem::replace(&mut self.states[idx].phase, Phase::Done) {
            Phase::Arrival => self.begin_decision(idx),
            Phase::Deciding => self.decide(idx),
            Phase::Backoff { pause } => {
                {
                    let _retry = self.prof.span("retry");
                    let now = self.grid.sim.now();
                    if let Some(tl) = self.grid.timeline.as_mut() {
                        tl.record_retry(now);
                    }
                    let st = &self.states[idx];
                    if let Some(solo) = &mut self.solo {
                        solo.resumed_from.push(st.committed);
                    }
                    self.grid.obs.metrics_mut().inc("transfer.retries");
                    if self.grid.obs.is_enabled() {
                        self.grid.obs.emit(
                            Event::new(now, "gridftp", "transfer.retry")
                                .with("src", st.target.source_name())
                                .with("dst", st.client_name.as_str())
                                .with("attempt", st.episode_attempts + 1)
                                .with("backoff_secs", pause.as_secs_f64())
                                .with("resume_offset", st.committed),
                        );
                    }
                }
                self.start_attempt(idx)
            }
            Phase::LocalRead { started } => {
                let now = self.grid.sim.now();
                let st = &mut self.states[idx];
                st.attempts += 1;
                let bytes = st.total_bytes;
                st.payload_moved += bytes;
                let outcome = TransferOutcome {
                    payload_bytes: bytes,
                    wire_bytes: 0,
                    streams: 0,
                    stripes: 0,
                    started,
                    finished: now,
                    phases: vec![PhaseRecord {
                        name: "data",
                        start: started,
                        end: now,
                    }],
                };
                {
                    let st = &self.states[idx];
                    self.grid.record_transfer_for(
                        &st.client_name,
                        &st.client_name,
                        "local",
                        &outcome,
                        st.span_lfn(),
                    );
                }
                self.finish_transfer(idx, outcome);
                Ok(())
            }
            Phase::Transferring(_) | Phase::Done => {
                unreachable!("control timers only target waiting jobs")
            }
        }
    }

    /// Scores candidates, records the decision and launches the chosen
    /// replica's first attempt. Re-entered after an abandon with the
    /// failed hosts excluded (the `"failover"` policy label).
    fn decide(&mut self, idx: usize) -> Result<(), GridError> {
        let guard = self.prof.span("decide");
        let st = &mut self.states[idx];
        let client = st.client;
        // The ranking lands in the driver's reusable buffer; the chosen
        // candidate is moved out of it below, so a decision allocates no
        // candidate list of its own.
        self.grid
            .score_candidates_into(client, &st.lfn, &mut self.cand_buf)?;
        self.prof.add_items(self.cand_buf.len() as u64);
        let failover = !st.failed_over.is_empty();
        let forced = self.solo.as_mut().and_then(|solo| solo.forced.as_mut());
        let (chosen, label) = if failover {
            let next = self
                .cand_buf
                .iter()
                .position(|c| !st.failed_over.contains(&c.host_name));
            match next {
                Some(i) => (i, Some("failover")),
                None => {
                    drop(guard);
                    self.fail_job(idx);
                    return Ok(());
                }
            }
        } else if let Some(host) = forced {
            match self.cand_buf.iter().position(|c| c.host_name == *host) {
                Some(i) => (i, Some("forced")),
                None => {
                    return Err(GridError::UnknownHost {
                        name: std::mem::take(host),
                    })
                }
            }
        } else {
            (self.grid.selector.choose(&self.cand_buf), None)
        };
        let decision_latency = self.grid.sim.now() - st.decision_started;
        let seq = self.grid.obs.audit().next_seq();
        self.grid.record_selection(
            &st.lfn,
            client,
            &self.cand_buf,
            chosen,
            decision_latency,
            label,
        );
        if let Some(solo) = &mut self.solo {
            solo.ranking.clone_from(&self.cand_buf);
            solo.chosen = chosen;
            solo.decision_latency += decision_latency;
        }
        st.target = Target::Fetch {
            choice: Some(self.cand_buf.swap_remove(chosen)),
        };
        st.audit_seq = Some(seq);
        st.committed = 0;
        st.episode_attempts = 0;
        if !failover {
            let name = LogicalFileName::new(st.lfn.as_str())?;
            st.total_bytes = self
                .grid
                .catalog
                .lookup(&name)
                .expect("scored candidates imply a registered file")
                .entry()
                .size_bytes();
        }
        drop(guard);
        self.start_attempt(idx)
    }

    /// Starts one transfer attempt: a synthesised local read for a
    /// fetch's local hit, a GridFTP session otherwise, asking for the
    /// request's uncommitted tail on retries.
    fn start_attempt(&mut self, idx: usize) -> Result<(), GridError> {
        let guard = self.prof.span("dispatch");
        let st = &self.states[idx];
        let client = st.client;
        let (req, is_local) = match &st.target {
            Target::Copy { req, .. } => (*req, false),
            Target::Fetch { choice } => (
                TransferRequest::new(st.total_bytes)
                    .with_protocol(self.options.protocol)
                    .with_parallelism(self.options.parallelism)
                    .with_protection(self.options.protection),
                choice.as_ref().is_some_and(|c| c.is_local),
            ),
        };
        let total = req.payload_bytes();
        if is_local {
            self.prof.add_items(total);
            let rate = self.grid.hosts[client.index()].available_disk_read();
            let pause = rate.time_for_bytes(total);
            self.states[idx].phase = Phase::LocalRead {
                started: self.grid.sim.now(),
            };
            drop(guard);
            self.schedule_control(idx, pause);
            return Ok(());
        }
        let Some(&src) = st.target.sources().first() else {
            return Err(GridError::Transfer(TransferError::InvalidRequest {
                reason: "a transfer needs at least one source".into(),
            }));
        };
        let committed = st.committed;
        let attempt_req = if committed == 0 {
            req
        } else {
            let base_offset = req.range.map_or(0, |r| r.offset);
            req.with_range(base_offset + committed, total - committed)
        };
        // A cached control channel serves a destination-driven transfer
        // from a single server only.
        let cache_key = (self.grid.node_of(client), self.grid.node_of(src));
        let cached = st.target.caches_control()
            && st.target.sources().len() == 1
            && self.grid.control_cached(cache_key);
        let tcp = self
            .grid
            .tcp_for(self.grid.node_of(src), self.grid.node_of(client))?;
        let base = self.grid.alloc_session_tokens();
        // The session takes ownership of the endpoint list; the refresh
        // buffer regrows on the next monitor tick.
        let mut endpoints = std::mem::take(&mut self.fresh_buf);
        endpoints.clear();
        for &s in st.target.sources() {
            endpoints.push(self.grid.endpoint_for(s));
        }
        let mut session = TransferSession::striped(
            attempt_req,
            endpoints,
            self.grid.endpoint_for(client),
            tcp,
            base,
        )?
        .with_costs(self.grid.costs)
        .with_cached_control(cached)
        .with_stall_timeout(self.recovery.stall_timeout);
        if let Target::Copy {
            control: Some(controller),
            ..
        } = &st.target
        {
            session = session.with_control_from(self.grid.node_of(*controller));
        }
        self.prof.add_items(total - committed);
        let st = &mut self.states[idx];
        st.episode_attempts += 1;
        st.attempts += 1;
        session.start(&mut self.grid.sim);
        st.phase = Phase::Transferring(Box::new(session));
        st.owned_flows.clear();
        let block = (base - SESSION_TOKEN_BASE) / TransferSession::TOKENS_PER_SESSION;
        st.session_block = Some(block);
        self.session_blocks.insert(block, idx);
        drop(guard);
        Ok(())
    }

    fn on_session_event(
        &mut self,
        idx: usize,
        ev: &datagrid_simnet::engine::SimEvent,
    ) -> Result<(), GridError> {
        let status = {
            let Phase::Transferring(session) = &mut self.states[idx].phase else {
                unreachable!("owner scan only matches transferring jobs");
            };
            session.handle(&mut self.grid.sim, ev)
        };
        match status {
            SessionStatus::InProgress => {
                // Ramp-up may have just started the data flows; mirror
                // them into the dispatch index.
                self.sync_session_flows(idx);
                Ok(())
            }
            SessionStatus::Complete(outcome) => {
                self.release_session(idx);
                let st = &mut self.states[idx];
                st.payload_moved += outcome.payload_bytes;
                let st = &self.states[idx];
                match st.target.sources().first() {
                    Some(&src) if st.target.caches_control() => {
                        let cache_key = (self.grid.node_of(st.client), self.grid.node_of(src));
                        self.grid.remember_control(cache_key);
                    }
                    _ => {}
                }
                let protocol = match &st.target {
                    Target::Copy { req, .. } => req.protocol,
                    Target::Fetch { .. } => self.options.protocol,
                };
                self.grid.record_transfer_for(
                    st.target.source_name(),
                    &st.client_name,
                    protocol_label(protocol),
                    &outcome,
                    st.span_lfn(),
                );
                self.finish_transfer(idx, outcome);
                Ok(())
            }
            SessionStatus::Failed(failure) => {
                self.release_session(idx);
                let st = &mut self.states[idx];
                st.committed += failure.restart_offset();
                st.payload_moved += failure.delivered_payload;
                st.phase = Phase::Done; // placeholder until rescheduled below
                let (attempts, committed) = (st.episode_attempts, st.committed);
                self.grid.obs.metrics_mut().inc("transfer.stalls");
                if self.grid.obs.is_enabled() {
                    let st = &self.states[idx];
                    self.grid.obs.emit(
                        Event::new(failure.at, "gridftp", "transfer.stall")
                            .with("src", st.target.source_name())
                            .with("dst", st.client_name.as_str())
                            .with("attempt", attempts)
                            .with("delivered", failure.delivered_payload)
                            .with("committed", committed)
                            .with("resumable", failure.resumable),
                    );
                }
                if self.recovery.retry.exhausted(attempts) {
                    self.abandon_replica(idx)
                } else {
                    let pause = self
                        .recovery
                        .retry
                        .backoff(attempts - 1, &mut self.grid.recovery_rng);
                    if let Some(solo) = &mut self.solo {
                        solo.backoff_total += pause;
                    }
                    self.states[idx].phase = Phase::Backoff { pause };
                    self.schedule_control(idx, pause);
                    Ok(())
                }
            }
        }
    }

    /// The current replica's retries are exhausted: record the abandon,
    /// then for a fetch mark the replica suspect, record the failover and
    /// either fail the job or schedule the next decision round. A copy has
    /// nothing to fail over to and fails at once.
    fn abandon_replica(&mut self, idx: usize) -> Result<(), GridError> {
        let guard = self.prof.span("failover");
        let now = self.grid.sim.now();
        self.grid.obs.metrics_mut().inc("transfer.abandoned");
        let st = &mut self.states[idx];
        if self.grid.obs.is_enabled() {
            self.grid.obs.emit(
                Event::new(now, "gridftp", "transfer.abandoned")
                    .with("src", st.target.source_name())
                    .with("dst", st.client_name.as_str())
                    .with("attempts", st.episode_attempts)
                    .with("delivered", st.committed),
            );
        }
        let choice = match &mut st.target {
            Target::Fetch { choice } => choice.take(),
            Target::Copy { .. } => None,
        };
        let Some(choice) = choice else {
            drop(guard);
            self.fail_job(idx);
            return Ok(());
        };
        if let Some(tl) = self.grid.timeline.as_mut() {
            tl.record_failover(now);
        }
        self.grid.catalog.mark_suspect(&choice.location);
        self.grid.invalidate_scores();
        self.grid.obs.metrics_mut().inc("selection.failovers");
        if self.grid.obs.is_enabled() {
            self.grid.obs.emit(
                Event::new(now, "select", "selection.failover")
                    .with("lfn", st.lfn.as_str())
                    .with("abandoned", choice.host_name.as_str())
                    .with("attempts", st.episode_attempts)
                    .with("delivered", st.committed),
            );
        }
        st.failed_over.push(choice.host_name);
        if st.failed_over.len() as u64 > u64::from(self.recovery.max_failovers) {
            drop(guard);
            self.fail_job(idx);
            return Ok(());
        }
        drop(guard);
        self.begin_decision(idx)
    }

    /// Terminal success: attach the measured time to this job's decision
    /// and record the outcome (for a replay, with its timeline and
    /// `replay.*` records).
    fn finish_transfer(&mut self, idx: usize, outcome: TransferOutcome) {
        let st = &self.states[idx];
        if let Some(seq) = st.audit_seq {
            let secs = outcome.duration().as_secs_f64();
            if let Some(decision) = self.grid.obs.audit_mut().decision_mut_by_seq(seq) {
                decision.attach_measured(st.target.source_name(), secs);
            }
        }
        if let Some(solo) = &mut self.solo {
            solo.outcome = Some(outcome);
            self.states[idx].phase = Phase::Done;
            self.remaining -= 1;
            return;
        }
        let Target::Fetch {
            choice: Some(choice),
        } = &st.target
        else {
            unreachable!("replays schedule fetch jobs only")
        };
        let winner = choice.host_name.clone();
        let delivered = st.committed + outcome.payload_bytes;
        let now = self.grid.sim.now();
        let latency_secs = (now - st.submitted).as_secs_f64();
        if let Some(tl) = self.grid.timeline.as_mut() {
            tl.observe_latency(now, latency_secs);
            tl.record_completion(now, true);
        }
        self.grid.obs.metrics_mut().inc("replay.completed");
        if self.grid.obs.is_enabled() {
            self.grid.obs.emit(
                Event::new(now, "replay", "replay.job.done")
                    .with("client", st.client_name.as_str())
                    .with("lfn", st.lfn.as_str())
                    .with("winner", winner.as_str())
                    .with("bytes", delivered)
                    .with("secs", latency_secs),
            );
        }
        self.outcomes[idx] = Some(ReplayOutcome {
            client: st.client_name.clone(),
            lfn: st.lfn.clone(),
            submitted: st.submitted,
            finished: self.grid.sim.now(),
            attempts: st.attempts,
            failovers: u32::try_from(st.failed_over.len()).unwrap_or(u32::MAX),
            payload_moved: st.payload_moved,
            status: ReplayStatus::Completed {
                winner,
                bytes: delivered,
                local_hit: choice.is_local,
            },
        });
        self.states[idx].phase = Phase::Done;
        self.remaining -= 1;
    }

    /// Terminal failure: every candidate the policy allowed was tried and
    /// abandoned.
    fn fail_job(&mut self, idx: usize) {
        if self.solo.is_none() {
            let st = &self.states[idx];
            if let Some(tl) = self.grid.timeline.as_mut() {
                tl.record_completion(self.grid.sim.now(), false);
            }
            self.grid.obs.metrics_mut().inc("replay.failed");
            if self.grid.obs.is_enabled() {
                self.grid.obs.emit(
                    Event::new(self.grid.sim.now(), "replay", "replay.job.failed")
                        .with("client", st.client_name.as_str())
                        .with("lfn", st.lfn.as_str())
                        .with("failed_over", st.failed_over.len()),
                );
            }
            self.outcomes[idx] = Some(ReplayOutcome {
                client: st.client_name.clone(),
                lfn: st.lfn.clone(),
                submitted: st.submitted,
                finished: self.grid.sim.now(),
                attempts: st.attempts,
                failovers: u32::try_from(st.failed_over.len()).unwrap_or(u32::MAX),
                payload_moved: st.payload_moved,
                status: ReplayStatus::Failed {
                    failed: st.failed_over.clone(),
                },
            });
        }
        self.states[idx].phase = Phase::Done;
        self.remaining -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{small_grid, with_file};
    use super::*;
    use datagrid_simnet::engine::FlowTag;

    /// A configuration error in one replayed job ends the replay early.
    /// The sessions of the other jobs go down with it, so no orphaned flow
    /// completion reaches the grid's monitoring loop afterwards.
    #[test]
    fn replay_error_tears_down_live_sessions() {
        let mut grid = with_file(small_grid(31));
        grid.catalog_mut()
            .register_logical("file-b".parse().unwrap(), 256 << 20)
            .unwrap();
        grid.place_replica("file-b", "slow").unwrap();
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        let now = grid.now();
        let jobs = [
            ReplayJob {
                at: now,
                client,
                lfn: "file-b".into(),
            },
            ReplayJob {
                at: now + SimDuration::from_secs(5),
                client,
                lfn: "file-missing".into(),
            },
        ];
        let err = grid
            .replay_concurrent(&jobs, FetchOptions::default(), &RecoveryOptions::default())
            .unwrap_err();
        assert!(matches!(err, GridError::Catalog(_)), "{err}");
        assert_eq!(grid.network().flow_count_by_tag(FlowTag::User), 0);
        grid.warm_up(SimDuration::from_secs(600));
        let report = grid.fetch(client, "file-a").unwrap();
        assert_eq!(report.transfer.payload_bytes, 16 << 20);
    }
}
