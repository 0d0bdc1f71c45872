//! Concurrent multi-client fetch replay.
//!
//! The blocking fetch paths ([`DataGrid::fetch_with`],
//! [`DataGrid::fetch_with_recovery`]) drive one transfer at a time: the
//! caller's event loop owns the simulator until the fetch resolves, so two
//! fetches never share the wire. That is exactly the paper's Table 1
//! setting — and exactly *not* a production grid, where every selection
//! decision is made while other clients' transfers are already consuming
//! the links it is scoring.
//!
//! [`DataGrid::replay_concurrent`] replays a whole workload — N clients
//! with seeded arrival times — against **one shared simulator**. Each job
//! runs the full Fig. 1 scenario as an event-driven state machine
//! (arrival → catalog/selection latency → decision → GridFTP transfer
//! with stall detection, seeded backoff retries, suspect marking and
//! next-best failover), and all in-flight transfers contend for bandwidth
//! in the same max-min allocation. Everything the blocking paths record —
//! `selection.decision` audit entries, `transfer.*` spans and metrics,
//! `selection.failover` events — is recorded here too, interleaved in
//! simulated-time order.
//!
//! Determinism: the replay consumes randomness only through the grid's
//! own seeded sources (selector, backoff jitter, background traffic), and
//! every routing decision is by value, never by map-iteration order — two
//! runs from the same seed produce byte-identical event logs.

use std::collections::HashMap;

use datagrid_catalog::name::LogicalFileName;
use datagrid_gridftp::executor::{SessionStatus, TransferSession};
use datagrid_gridftp::instrument::protocol_label;
use datagrid_gridftp::transfer::{PhaseRecord, TransferOutcome, TransferRequest};
use datagrid_obs::{Event, PhaseProfiler};
use datagrid_simnet::engine::{EngineStats, EventKind, FlowId};
use datagrid_simnet::time::{SimDuration, SimTime};
use datagrid_simnet::topology::Bandwidth;
use datagrid_sysmon::host::HostId;

use super::{DataGrid, FetchOptions, SESSION_TOKEN_BASE, TOK_MONITOR};
use crate::error::GridError;
use crate::factors::CandidateScore;
use crate::recovery::RecoveryOptions;

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

struct JobState {
    client: HostId,
    client_name: String,
    lfn: String,
    submitted: SimTime,
    /// Size of the requested file (set at the first decision).
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
    /// The replica currently being fetched.
    choice: Option<CandidateScore>,
    phase: Phase,
    /// Token block of the live GridFTP session, if any (key into
    /// [`Driver::session_blocks`]).
    session_block: Option<u64>,
    /// Data flows the live session has started, mirrored into
    /// [`Driver::flow_owner`]; the buffer is reused across attempts.
    owned_flows: Vec<FlowId>,
}

/// The replay event loop: grid + per-job state machines. `grid` and the
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
    outcomes: Vec<Option<ReplayOutcome>>,
    remaining: usize,
    /// The grid's phase profiler, held here for the duration of the run
    /// so span guards can borrow it while `grid` methods take `&mut`.
    prof: PhaseProfiler,
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
        let prof = std::mem::take(&mut self.prof);
        let mut driver = Driver {
            grid: self,
            options,
            recovery,
            states: Vec::with_capacity(jobs.len()),
            timers: HashMap::new(),
            session_blocks: HashMap::new(),
            flow_owner: HashMap::new(),
            cand_buf: Vec::new(),
            cap_buf: Vec::new(),
            outcomes: std::iter::repeat_with(|| None).take(jobs.len()).collect(),
            remaining: jobs.len(),
            prof,
        };
        for (idx, job) in jobs.iter().enumerate() {
            let token = driver.grid.alloc_session_tokens();
            driver.grid.sim.schedule_timer(job.at.max(started), token);
            driver.timers.insert(token, idx);
            driver.states.push(JobState {
                client: job.client,
                client_name: driver.grid.hosts[job.client.index()].name().to_string(),
                lfn: job.lfn.clone(),
                submitted: job.at.max(started),
                total_bytes: 0,
                committed: 0,
                episode_attempts: 0,
                attempts: 0,
                failed_over: Vec::new(),
                payload_moved: 0,
                decision_started: SimTime::ZERO,
                audit_seq: None,
                choice: None,
                phase: Phase::Arrival,
                session_block: None,
                owned_flows: Vec::new(),
            });
        }
        let run_result = driver.run();
        let raw = driver.outcomes;
        let prof = driver.prof;
        self.prof = prof;
        run_result?;
        // Close the timeline on the drained state of the network.
        self.sample_timeline();
        let finished = self.sim.now();
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
    // lint: hot-path
    fn run(&mut self) -> Result<(), GridError> {
        while self.remaining > 0 {
            let before = self.grid.sim.stats();
            let ev = {
                let _settle = self.prof.span("settle");
                self.grid
                    .sim
                    .next_event()
                    .expect("pending replay jobs keep the queue non-empty")
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
                // into every running transfer, as the blocking paths do,
                // as one batch that solves each touched component once.
                let before = self.grid.sim.stats();
                {
                    let _refresh = self.prof.span("refresh");
                    self.cap_buf.clear();
                    for st in &mut self.states {
                        if let Phase::Transferring(session) = &mut st.phase {
                            let choice =
                                st.choice.as_ref().expect("transferring jobs have a choice");
                            let fresh = [self.grid.endpoint_for(choice.host)];
                            let dst_fresh = self.grid.endpoint_for(st.client);
                            session.refresh_endpoints(
                                &self.grid.sim,
                                &fresh,
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

    /// Allocates a control token for `idx` firing after `pause`.
    fn schedule_control(&mut self, idx: usize, pause: SimDuration) {
        let token = self.grid.alloc_session_tokens();
        self.grid.sim.schedule_timer_after(pause, token);
        self.timers.insert(token, idx);
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

    fn on_control(&mut self, idx: usize) -> Result<(), GridError> {
        match std::mem::replace(&mut self.states[idx].phase, Phase::Done) {
            Phase::Arrival => {
                self.states[idx].decision_started = self.grid.sim.now();
                self.states[idx].phase = Phase::Deciding;
                let latency = self.grid.service_latency(self.states[idx].client);
                self.schedule_control(idx, latency);
                Ok(())
            }
            Phase::Deciding => self.decide(idx),
            Phase::Backoff { pause } => {
                {
                    let _retry = self.prof.span("retry");
                    let now = self.grid.sim.now();
                    if let Some(tl) = self.grid.timeline.as_mut() {
                        tl.record_retry(now);
                    }
                    self.grid.obs.metrics_mut().inc("transfer.retries");
                    if self.grid.obs.is_enabled() {
                        let st = &self.states[idx];
                        let choice = st.choice.as_ref().expect("backoff implies a choice");
                        self.grid.obs.emit(
                            Event::new(now, "gridftp", "transfer.retry")
                                .with("src", choice.host_name.as_str())
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
                        Some(&st.lfn),
                    );
                }
                self.finish_transfer(idx, &outcome, true);
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
        let client = self.states[idx].client;
        // The ranking lands in the driver's reusable buffer; the chosen
        // candidate is moved out of it below, so a decision allocates no
        // candidate list of its own.
        self.grid
            .score_candidates_into(client, &self.states[idx].lfn, &mut self.cand_buf)?;
        self.prof.add_items(self.cand_buf.len() as u64);
        let failover = !self.states[idx].failed_over.is_empty();
        let chosen = if failover {
            let next = self
                .cand_buf
                .iter()
                .position(|c| !self.states[idx].failed_over.contains(&c.host_name));
            match next {
                Some(i) => i,
                None => {
                    drop(guard);
                    self.fail_job(idx);
                    return Ok(());
                }
            }
        } else {
            self.grid.selector.choose(&self.cand_buf)
        };
        let decision_latency = self.grid.sim.now() - self.states[idx].decision_started;
        let seq = self.grid.obs.audit().next_seq();
        self.grid.record_selection(
            &self.states[idx].lfn,
            client,
            &self.cand_buf,
            chosen,
            decision_latency,
            failover.then_some("failover"),
        );
        let choice = self.cand_buf.swap_remove(chosen);
        let st = &mut self.states[idx];
        st.audit_seq = Some(seq);
        st.choice = Some(choice);
        st.committed = 0;
        st.episode_attempts = 0;
        if !failover {
            let name = LogicalFileName::new(&st.lfn)?;
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

    /// Starts one transfer attempt against the current choice — a
    /// synthesised local read for local hits, a GridFTP session
    /// otherwise, resuming from the committed offset on retries.
    fn start_attempt(&mut self, idx: usize) -> Result<(), GridError> {
        let guard = self.prof.span("dispatch");
        let (is_local, choice_host) = {
            let choice = self.states[idx]
                .choice
                .as_ref()
                .expect("attempts follow a decision");
            (choice.is_local, choice.host)
        };
        let client = self.states[idx].client;
        let total = self.states[idx].total_bytes;
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
        let committed = self.states[idx].committed;
        let req = TransferRequest::new(total)
            .with_protocol(self.options.protocol)
            .with_parallelism(self.options.parallelism)
            .with_protection(self.options.protection);
        let attempt_req = if committed == 0 {
            req
        } else {
            req.with_range(committed, total - committed)
        };
        let cache_key = (self.grid.node_of(client), self.grid.node_of(choice_host));
        let cached = self.grid.control_cached(cache_key);
        let tcp = self
            .grid
            .tcp_for(self.grid.node_of(choice_host), self.grid.node_of(client));
        let base = self.grid.alloc_session_tokens();
        let mut session = TransferSession::new(
            attempt_req,
            self.grid.endpoint_for(choice_host),
            self.grid.endpoint_for(client),
            tcp,
            base,
        )?
        .with_costs(self.grid.costs)
        .with_cached_control(cached)
        .with_stall_timeout(self.recovery.stall_timeout);
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

    // lint: hot-path
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
                let cache_key = {
                    let st = &self.states[idx];
                    let choice = st.choice.as_ref().expect("transferring jobs have a choice");
                    (self.grid.node_of(st.client), self.grid.node_of(choice.host))
                };
                self.grid.remember_control(cache_key);
                let protocol = protocol_label(self.options.protocol);
                {
                    let st = &self.states[idx];
                    let choice = st.choice.as_ref().expect("transferring jobs have a choice");
                    self.grid.record_transfer_for(
                        &choice.host_name,
                        &st.client_name,
                        protocol,
                        &outcome,
                        Some(&st.lfn),
                    );
                }
                self.finish_transfer(idx, &outcome, false);
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
                    let choice = st.choice.as_ref().expect("stalled jobs have a choice");
                    self.grid.obs.emit(
                        Event::new(failure.at, "gridftp", "transfer.stall")
                            .with("src", choice.host_name.as_str())
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
                    self.states[idx].phase = Phase::Backoff { pause };
                    self.schedule_control(idx, pause);
                    Ok(())
                }
            }
        }
    }

    /// The current replica's retries are exhausted: mark it suspect,
    /// record the failover, and either fail the job or schedule the next
    /// decision round.
    fn abandon_replica(&mut self, idx: usize) -> Result<(), GridError> {
        let guard = self.prof.span("failover");
        let st = &mut self.states[idx];
        let choice = st.choice.take().expect("abandon follows attempts");
        let now = self.grid.sim.now();
        if let Some(tl) = self.grid.timeline.as_mut() {
            tl.record_failover(now);
        }
        self.grid.obs.metrics_mut().inc("transfer.abandoned");
        if self.grid.obs.is_enabled() {
            self.grid.obs.emit(
                Event::new(now, "gridftp", "transfer.abandoned")
                    .with("src", choice.host_name.as_str())
                    .with("dst", st.client_name.as_str())
                    .with("attempts", st.episode_attempts)
                    .with("delivered", st.committed),
            );
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
        self.states[idx].decision_started = now;
        self.states[idx].phase = Phase::Deciding;
        let latency = self.grid.service_latency(self.states[idx].client);
        drop(guard);
        self.schedule_control(idx, latency);
        Ok(())
    }

    /// Terminal success: attach the measured time to this job's decision
    /// and record the outcome.
    fn finish_transfer(&mut self, idx: usize, outcome: &TransferOutcome, local_hit: bool) {
        let st = &mut self.states[idx];
        let choice = st.choice.as_ref().expect("finishing jobs have a choice");
        let winner = choice.host_name.clone();
        if local_hit {
            st.payload_moved += outcome.payload_bytes;
        }
        let delivered = st.committed + outcome.payload_bytes;
        if let Some(seq) = st.audit_seq {
            let secs = outcome.duration().as_secs_f64();
            if let Some(decision) = self.grid.obs.audit_mut().decision_mut_by_seq(seq) {
                decision.attach_measured(&winner, secs);
            }
        }
        let st = &self.states[idx];
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
            failovers: st.failed_over.len() as u32,
            payload_moved: st.payload_moved,
            status: ReplayStatus::Completed {
                winner,
                bytes: delivered,
                local_hit,
            },
        });
        self.states[idx].phase = Phase::Done;
        self.remaining -= 1;
    }

    /// Terminal failure: every candidate the policy allowed was tried and
    /// abandoned.
    fn fail_job(&mut self, idx: usize) {
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
            failovers: st.failed_over.len() as u32,
            payload_moved: st.payload_moved,
            status: ReplayStatus::Failed {
                failed: st.failed_over.clone(),
            },
        });
        self.states[idx].phase = Phase::Done;
        self.remaining -= 1;
    }
}
