//! The Data Grid orchestrator.
//!
//! [`DataGrid`] composes every subsystem of the reproduction — the network
//! simulator, simulated hosts, MDS, NWS sensors, the replica catalog, the
//! selection server and the GridFTP executor — and executes the paper's
//! Fig. 1 scenario end to end:
//!
//! 1. the client asks the replica catalog for the physical locations of a
//!    logical file,
//! 2. the replica selection server obtains the three system factors for
//!    every candidate from the information services,
//! 3. the cost model ranks the candidates and one is chosen,
//! 4. the replica is fetched over GridFTP while monitoring continues.
//!
//! Build one with [`GridBuilder`]. Time is explicit: monitoring (host load
//! sampling, MDS refresh, NWS bandwidth probes) runs on a fixed interval
//! whenever the grid advances, including *during* transfers.

#![expect(
    clippy::panic,
    reason = "orphan timer/flow panics guard routes no caller can produce (a failed driver run tears down its sessions); the builder and suggested_parallelism panic on unroutable pairs as documented # Panics contracts"
)]
#![expect(
    clippy::expect_used,
    reason = "advance_to's own sentinel timer keeps the queue non-empty (no fetch nests inside it any more); host, link and MDS lookups are construction invariants"
)]

pub mod modelcheck;
pub mod replay;

use std::cell::RefCell;
use std::collections::HashMap;

use datagrid_catalog::catalog::ReplicaCatalog;
use datagrid_catalog::name::{LogicalFileName, PhysicalFileName};
#[cfg(doc)]
use datagrid_gridftp::error::TransferError;
use datagrid_gridftp::executor::{
    ProtocolCosts, RecoveredTransfer, TransferEndpoint, TransferSession,
};
use datagrid_gridftp::instrument::span_from_outcome;
use datagrid_gridftp::transfer::{
    DataChannelProtection, Protocol, TransferOutcome, TransferRequest,
};
use datagrid_obs::{
    CandidateAudit, Event, MetricsRegistry, PhaseProfiler, Recorder, SelectionAuditLog,
    SelectionDecision, TimelineRecorder,
};
use datagrid_simnet::background::BackgroundProfile;
use datagrid_simnet::engine::{EventKind, FlowId, FlowSpec, FlowTag, NetSim, SimEvent};
use datagrid_simnet::fault::FaultPlan;
use datagrid_simnet::rng::SimRng;
use datagrid_simnet::tcp::TcpParams;
use datagrid_simnet::time::{SimDuration, SimTime};
use datagrid_simnet::topology::{LinkId, NodeId, Path, Topology};
use datagrid_simnet::trace::NetworkTrace;
use datagrid_sysmon::host::{HostId, HostSpec, SimHost};
use datagrid_sysmon::load::LoadModel;
use datagrid_sysmon::mds::MdsDirectory;
use datagrid_sysmon::nws::sensor::BandwidthSensor;
use datagrid_sysmon::nws::NwsRegistry;

use crate::cost::{CostModel, Weights};
use crate::error::GridError;
use crate::factors::{rank_by_score, CandidateScore, SystemFactors};
use crate::policy::{ReplicaSelector, SelectionPolicy};
use crate::recovery::{RecoveredFetch, RecoveryOptions};
use replay::plain_recovery;

/// Histogram bounds (seconds) for whole transfers — the paper's measured
/// times span roughly a second to a few hundred seconds.
const TRANSFER_BOUNDS_SECS: &[f64] = datagrid_obs::metrics::LATENCY_BOUNDS_SECS;
/// Histogram bounds (seconds) for sub-transfer phases (auth, handshake,
/// ramp-up, data, teardown) — much finer than whole transfers.
const PHASE_BOUNDS_SECS: &[f64] = &[0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0];
/// Histogram bounds for cost-model scores, which live in `[0, 1]`.
const SCORE_BOUNDS: &[f64] = &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
/// Histogram bounds for parallel stream counts (the Fig. 4 sweep range).
const STREAM_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
/// Histogram bounds (seconds) for catalog + selection decision latency.
const DECISION_BOUNDS_SECS: &[f64] = &[0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0];

const TOK_MONITOR: u64 = 0;
const TOK_SENTINEL: u64 = 1;
/// Probe-launch timers: `TOK_PROBE_BASE + pair_index`.
const TOK_PROBE_BASE: u64 = 1000;
const SESSION_TOKEN_BASE: u64 = 1 << 20;

/// Multiplier applied to the cost-model score of a replica whose location
/// is marked suspect in the catalog (a recent transfer from it was
/// abandoned). The replica stays selectable — it may be the only copy —
/// but healthy candidates outrank it until the mark is cleared. NWS keeps
/// reporting the pre-fault bandwidth while a site is dark (probes through
/// it never complete), so the penalty must be strong enough to demote a
/// top-scoring site below realistic remote candidates.
const SUSPECT_SCORE_FACTOR: f64 = 0.15;

/// How the selection server obtains `BW_P` when scoring candidates.
///
/// The paper's selection service ranks replicas on NWS *forecasts* —
/// smoothed history that reacts to contention only as fast as the probe
/// interval. Under a single client that is exactly Table 1; under many
/// concurrent clients every decision made between two probes is blind to
/// the bandwidth the other in-flight transfers already consumed.
/// [`SelectionMode::ContentionAware`] instead reads the *effective
/// residual* bandwidth of the path at decision time through the engine's
/// phantom-flow probe ([`NetSim::available_bandwidth`]), so a path
/// saturated by other replicas' transfers scores low immediately.
///
/// [`SelectionMode::Static`] is the default: the paper's behaviour, and
/// the mode every Table 1 reproduction pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionMode {
    /// NWS sensor forecast when a sensor covers the path (falling back to
    /// the residual probe on unmonitored paths) — the paper's behaviour.
    #[default]
    Static,
    /// Effective residual bandwidth from the max-min solver at decision
    /// time, on every path, monitored or not.
    ContentionAware,
}

impl SelectionMode {
    /// Stable label used in reports and audit records.
    pub fn label(self) -> &'static str {
        match self {
            SelectionMode::Static => "static",
            SelectionMode::ContentionAware => "contention-aware",
        }
    }
}

/// Options controlling how a fetched replica is transferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOptions {
    /// Parallel TCP streams (0 = plain stream mode).
    pub parallelism: u32,
    /// Protocol family (the paper's scenario always uses GridFTP; FTP is
    /// here for baselines).
    pub protocol: Protocol,
    /// Data-channel protection level (GridFTP `PROT`).
    pub protection: DataChannelProtection,
}

impl Default for FetchOptions {
    fn default() -> Self {
        FetchOptions {
            parallelism: 0,
            protocol: Protocol::GridFtp,
            protection: DataChannelProtection::Clear,
        }
    }
}

impl FetchOptions {
    /// Sets the stream count.
    pub fn with_parallelism(mut self, parallelism: u32) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the data-channel protection level.
    pub fn with_protection(mut self, protection: DataChannelProtection) -> Self {
        self.protection = protection;
        self
    }
}

/// The result of one end-to-end fetch (the paper's Table 1 row set).
#[derive(Debug, Clone, PartialEq)]
pub struct FetchReport {
    /// The requested logical file.
    pub lfn: LogicalFileName,
    /// The requesting host's name.
    pub client: String,
    /// `true` when the file was already present at the client's site.
    pub local_hit: bool,
    /// All candidates, ranked by descending score.
    pub candidates: Vec<CandidateScore>,
    /// Index into `candidates` of the replica actually used.
    pub chosen: usize,
    /// The executed transfer (synthesised local read for local hits).
    pub transfer: TransferOutcome,
    /// Time spent in catalog and selection-server queries before the
    /// transfer began.
    pub decision_latency: SimDuration,
}

impl FetchReport {
    /// The candidate that was fetched.
    pub fn chosen_candidate(&self) -> &CandidateScore {
        &self.candidates[self.chosen]
    }
}

struct PendingHost {
    node: NodeId,
    spec: HostSpec,
    cpu: LoadModel,
    io: LoadModel,
}

/// Builder for a [`DataGrid`].
///
/// Construct the topology (hosts with [`GridBuilder::add_host`], switches
/// and routers with [`GridBuilder::add_switch`], cables through
/// [`GridBuilder::topology_mut`]), pick what to monitor, then
/// [`build`](GridBuilder::build).
pub struct GridBuilder {
    topo: Topology,
    seed: u64,
    monitor_interval: SimDuration,
    probe_bytes: u64,
    sensor_noise: f64,
    tcp_window: u64,
    weights: Weights,
    policy: SelectionPolicy,
    costs: ProtocolCosts,
    hosts: Vec<PendingHost>,
    background: Vec<BackgroundProfile>,
    monitored: Vec<(NodeId, NodeId)>,
    catalog_host: Option<String>,
    control_cache_ttl: SimDuration,
    watched_links: Vec<LinkId>,
    recording: bool,
    event_capacity: usize,
    selection_mode: SelectionMode,
    timeline: Option<SimDuration>,
}

impl GridBuilder {
    /// Creates a builder; `seed` drives all randomness in the grid.
    pub fn new(seed: u64) -> Self {
        GridBuilder {
            topo: Topology::new(),
            seed,
            monitor_interval: SimDuration::from_secs(10),
            probe_bytes: 512 * 1024,
            sensor_noise: 0.03,
            tcp_window: 256 * 1024,
            weights: Weights::PAPER_DEFAULT,
            policy: SelectionPolicy::CostModel,
            costs: ProtocolCosts::default(),
            hosts: Vec::new(),
            background: Vec::new(),
            monitored: Vec::new(),
            catalog_host: None,
            control_cache_ttl: SimDuration::from_secs(600),
            watched_links: Vec::new(),
            recording: true,
            event_capacity: Recorder::DEFAULT_EVENT_CAPACITY,
            selection_mode: SelectionMode::default(),
            timeline: None,
        }
    }

    /// Direct access to the topology for wiring links and routers.
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// Adds a network-only node (switch/router).
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.topo.add_node(name)
    }

    /// Adds a storage/compute host with the given load dynamics; the
    /// topology node carries the host's name.
    pub fn add_host(&mut self, spec: HostSpec, cpu: LoadModel, io: LoadModel) -> NodeId {
        let node = self.topo.add_node(spec.name.clone());
        self.hosts.push(PendingHost {
            node,
            spec,
            cpu,
            io,
        });
        node
    }

    /// Registers a directed path for NWS bandwidth monitoring.
    pub fn monitor_path(&mut self, src: NodeId, dst: NodeId) -> &mut Self {
        self.monitored.push((src, dst));
        self
    }

    /// Monitors every ordered pair of distinct hosts (small grids only:
    /// probes cost bandwidth, as in a real NWS deployment).
    pub fn monitor_all_host_pairs(&mut self) -> &mut Self {
        for i in 0..self.hosts.len() {
            for j in 0..self.hosts.len() {
                if i != j {
                    self.monitored
                        .push((self.hosts[i].node, self.hosts[j].node));
                }
            }
        }
        self
    }

    /// Adds WAN cross traffic.
    pub fn add_background(&mut self, profile: BackgroundProfile) -> &mut Self {
        self.background.push(profile);
        self
    }

    /// Sets the monitoring interval (default 10 s).
    pub fn monitor_interval(&mut self, interval: SimDuration) -> &mut Self {
        self.monitor_interval = interval;
        self
    }

    /// Sets the NWS probe size (default 512 KiB).
    pub fn probe_bytes(&mut self, bytes: u64) -> &mut Self {
        self.probe_bytes = bytes;
        self
    }

    /// Sets the relative sensor measurement noise (default 3 %).
    pub fn sensor_noise(&mut self, sigma: f64) -> &mut Self {
        self.sensor_noise = sigma;
        self
    }

    /// Sets the TCP window ceiling used by transfers and probes.
    pub fn tcp_window(&mut self, bytes: u64) -> &mut Self {
        self.tcp_window = bytes;
        self
    }

    /// Sets the cost-model weights (default: the paper's 0.8/0.1/0.1).
    pub fn weights(&mut self, weights: Weights) -> &mut Self {
        self.weights = weights;
        self
    }

    /// Sets the selection policy (default: the cost model).
    pub fn policy(&mut self, policy: SelectionPolicy) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Sets protocol cost constants (GSI, per-byte CPU).
    pub fn protocol_costs(&mut self, costs: ProtocolCosts) -> &mut Self {
        self.costs = costs;
        self
    }

    /// Records utilisation samples for these links on every monitoring
    /// tick (see [`DataGrid::network_trace`]).
    pub fn watch_links<I: IntoIterator<Item = LinkId>>(&mut self, links: I) -> &mut Self {
        self.watched_links.extend(links);
        self
    }

    /// Sets how long an idle authenticated control connection stays cached
    /// (default 600 s; zero disables caching).
    pub fn control_cache_ttl(&mut self, ttl: SimDuration) -> &mut Self {
        self.control_cache_ttl = ttl;
        self
    }

    /// Enables or disables observability recording (events and selection
    /// audit). Recording is on by default; metrics are always collected.
    pub fn recording(&mut self, enabled: bool) -> &mut Self {
        self.recording = enabled;
        self
    }

    /// Capacity of the in-memory event ring buffer (default
    /// [`Recorder::DEFAULT_EVENT_CAPACITY`]). Oldest events are evicted
    /// once it fills; the drop count is tracked.
    pub fn event_capacity(&mut self, capacity: usize) -> &mut Self {
        self.event_capacity = capacity;
        self
    }

    /// Sets how the selection server reads `BW_P`
    /// (default: [`SelectionMode::Static`], the paper's behaviour).
    pub fn selection_mode(&mut self, mode: SelectionMode) -> &mut Self {
        self.selection_mode = mode;
        self
    }

    /// Enables the sim-time health timeline with `window`-wide buckets
    /// (default: off). The grid then folds link utilization, active
    /// flows, decisions, failovers and fetch latencies into fixed windows
    /// — see [`DataGrid::timeline`].
    pub fn timeline_window(&mut self, window: SimDuration) -> &mut Self {
        self.timeline = Some(window);
        self
    }

    /// Places the replica catalog / selection servers on a named host
    /// (default: the first host added).
    pub fn catalog_host(&mut self, name: impl Into<String>) -> &mut Self {
        self.catalog_host = Some(name.into());
        self
    }

    /// Builds the grid.
    ///
    /// # Panics
    ///
    /// Panics if no hosts were added, the catalog host is unknown, or a
    /// monitored path is unroutable.
    pub fn build(self) -> DataGrid {
        assert!(!self.hosts.is_empty(), "a grid needs at least one host");
        let timeline_window = self.timeline;
        let root = SimRng::seed_from_u64(self.seed);
        let mut sim = NetSim::new(self.topo, self.seed);
        for profile in self.background {
            sim.add_background(profile);
        }

        let mut hosts = Vec::new();
        let mut host_nodes = Vec::new();
        let mut host_by_name = HashMap::new();
        let mut host_at_node = HashMap::new();
        let mut mds = MdsDirectory::new();
        for (i, pending) in self.hosts.into_iter().enumerate() {
            let id = HostId(u32::try_from(i).expect("few hosts"));
            let rng = root.fork(&format!("host:{}", pending.spec.name));
            let host = SimHost::new(
                pending.spec,
                pending.cpu,
                pending.io,
                self.monitor_interval,
                rng,
            );
            mds.register(id, &host);
            host_by_name.insert(host.name().to_string(), id);
            host_at_node.insert(pending.node, id);
            host_nodes.push(pending.node);
            hosts.push(host);
        }

        // The paper's BW_P normalises against the grid's *highest
        // theoretical bandwidth*, a grid-wide constant, so fractions are
        // comparable across candidates on different paths.
        let reference = sim
            .topology()
            .max_link_capacity()
            .expect("a grid topology has links");
        let mut nws = NwsRegistry::new();
        for &(src, dst) in &self.monitored {
            let path = sim
                .routing()
                .path(src, dst)
                .unwrap_or_else(|| panic!("monitored path {src} -> {dst} is unroutable"));
            if sim.topology().path_capacity(path).is_none() {
                continue; // node-local path needs no sensor
            }
            let rng = root.fork(&format!("sensor:{}:{}", src.index(), dst.index()));
            nws.install(BandwidthSensor::new(
                src,
                dst,
                reference,
                self.sensor_noise,
                rng,
            ));
        }

        let catalog_node = match &self.catalog_host {
            Some(name) => {
                let id = host_by_name
                    .get(name.as_str())
                    .unwrap_or_else(|| panic!("catalog host {name:?} is not a grid host"));
                host_nodes[id.index()]
            }
            None => host_nodes[0],
        };

        let selector = ReplicaSelector::new(
            self.policy,
            CostModel::new(self.weights),
            root.fork("selector"),
        );

        // First monitoring tick shortly after start-up.
        sim.schedule_timer(SimTime::from_secs_f64(1.0), TOK_MONITOR);

        let mut grid = DataGrid {
            sim,
            hosts,
            host_nodes,
            host_by_name,
            host_at_node,
            mds,
            nws,
            catalog: ReplicaCatalog::new(),
            selector,
            costs: self.costs,
            monitor_interval: self.monitor_interval,
            probe_bytes: self.probe_bytes,
            tcp_window: self.tcp_window,
            catalog_node,
            pending_probes: HashMap::new(),
            next_session_base: SESSION_TOKEN_BASE,
            monitored: self.monitored,
            control_cache_ttl: self.control_cache_ttl,
            control_cache: HashMap::new(),
            trace: NetworkTrace::watching(self.watched_links),
            obs: {
                let mut rec = Recorder::with_capacity(self.event_capacity);
                rec.set_enabled(self.recording);
                rec
            },
            next_span_id: 0,
            recovery_rng: root.fork("recovery"),
            selection_mode: self.selection_mode,
            timeline: None,
            timeline_scratch: Vec::new(),
            prof: PhaseProfiler::new(),
            score_scratch: RefCell::new(ScoreScratch::default()),
            selection_epoch: 0,
        };
        if let Some(window) = timeline_window {
            grid.enable_timeline(window);
        }
        grid
    }
}

/// One client's cached candidate ranking, stored structure-of-arrays so
/// repeat decisions reuse the parallel factor/score columns without
/// re-deriving them (the paper's per-decision BW_P/CPU_P/IO_P gathering).
#[derive(Debug, Clone, Default)]
struct ScoreEntry {
    /// Whether the columns below hold a ranking at all.
    valid: bool,
    /// Logical file the ranking answers for.
    lfn: String,
    /// [`DataGrid::selection_epoch`] the ranking was computed under.
    epoch: u64,
    /// [`NetSim::net_version`] at compute time; checked only when
    /// `used_residual` is set.
    net_version: u64,
    /// Whether any candidate's `BW_P` came from a live residual-bandwidth
    /// probe (contention-aware mode, or the sensorless fallback) rather
    /// than purely from sensor/MDS readings. Residual reads go stale the
    /// moment any flow starts, ends or changes cap, so such entries are
    /// additionally keyed on the network version.
    used_residual: bool,
    /// Ranked candidate columns, best first (post [`rank_by_score`]).
    host: Vec<HostId>,
    name: Vec<String>,
    location: Vec<PhysicalFileName>,
    bw: Vec<f64>,
    cpu: Vec<f64>,
    io: Vec<f64>,
    score: Vec<f64>,
    local: Vec<bool>,
}

impl ScoreEntry {
    /// Overwrites the entry with a freshly ranked candidate list.
    fn store(
        &mut self,
        lfn: &str,
        epoch: u64,
        net_version: u64,
        used_residual: bool,
        ranked: &[CandidateScore],
    ) {
        self.valid = true;
        self.lfn.clear();
        self.lfn.push_str(lfn);
        self.epoch = epoch;
        self.net_version = net_version;
        self.used_residual = used_residual;
        self.host.clear();
        self.name.clear();
        self.location.clear();
        self.bw.clear();
        self.cpu.clear();
        self.io.clear();
        self.score.clear();
        self.local.clear();
        for c in ranked {
            self.host.push(c.host);
            self.name.push(c.host_name.clone());
            self.location.push(c.location.clone());
            self.bw.push(c.factors.bandwidth_fraction);
            self.cpu.push(c.factors.cpu_idle);
            self.io.push(c.factors.io_idle);
            self.score.push(c.score);
            self.local.push(c.is_local);
        }
    }

    /// Rebuilds the ranked candidate list from the columns into `out`
    /// (assumed cleared), reusing its capacity.
    fn materialize_into(&self, out: &mut Vec<CandidateScore>) {
        out.reserve(self.host.len());
        for i in 0..self.host.len() {
            out.push(CandidateScore {
                host: self.host[i],
                host_name: self.name[i].clone(),
                location: self.location[i].clone(),
                factors: SystemFactors {
                    bandwidth_fraction: self.bw[i],
                    cpu_idle: self.cpu[i],
                    io_idle: self.io[i],
                },
                score: self.score[i],
                is_local: self.local[i],
            });
        }
    }
}

/// Per-client score cache owned by [`DataGrid`], behind a `RefCell` so the
/// pure query [`DataGrid::score_candidates`] can fill it through `&self`
/// (same pattern as the engine's phantom-probe scratch).
#[derive(Debug, Clone, Default)]
struct ScoreScratch {
    /// One slot per client host, indexed by [`HostId::index`].
    entries: Vec<ScoreEntry>,
    /// Queries answered from a still-valid entry.
    hits: u64,
    /// Queries that had to re-derive factors and re-rank.
    misses: u64,
}

/// The assembled Data Grid: network, hosts, monitoring, catalog and the
/// replica selection service.
///
/// `DataGrid` is `Clone`, which makes counterfactual ("oracle") evaluation
/// possible: clone the grid, force a different replica choice on the clone
/// and compare outcomes under identical randomness.
#[derive(Clone)]
pub struct DataGrid {
    sim: NetSim,
    hosts: Vec<SimHost>,
    host_nodes: Vec<NodeId>,
    host_by_name: HashMap<String, HostId>,
    host_at_node: HashMap<NodeId, HostId>,
    mds: MdsDirectory,
    nws: NwsRegistry,
    catalog: ReplicaCatalog,
    selector: ReplicaSelector,
    costs: ProtocolCosts,
    monitor_interval: SimDuration,
    probe_bytes: u64,
    tcp_window: u64,
    catalog_node: NodeId,
    pending_probes: HashMap<FlowId, (NodeId, NodeId)>,
    next_session_base: u64,
    monitored: Vec<(NodeId, NodeId)>,
    control_cache_ttl: SimDuration,
    /// (control node, server node) -> cache expiry.
    control_cache: HashMap<(NodeId, NodeId), SimTime>,
    trace: NetworkTrace,
    obs: Recorder,
    next_span_id: u64,
    /// Jitter source for retry backoff, forked from the grid seed.
    recovery_rng: SimRng,
    /// How `BW_P` is obtained during candidate scoring.
    selection_mode: SelectionMode,
    /// Sim-time windowed health series, when enabled.
    timeline: Option<TimelineRecorder>,
    /// Reusable buffer for per-link utilization sampling.
    timeline_scratch: Vec<f64>,
    /// Hot-path phase profiler (counts always; wall-clock timings only
    /// under the `prof-timing` feature of `datagrid-obs`).
    pub(crate) prof: PhaseProfiler,
    /// Reusable per-client candidate-ranking cache (see [`ScoreScratch`]).
    score_scratch: RefCell<ScoreScratch>,
    /// Bumped by every state change that can move a score — sensor
    /// records, MDS refreshes, catalog/suspect mutations, fault edges,
    /// policy or mode switches. Entries from older epochs are stale.
    selection_epoch: u64,
}

impl std::fmt::Debug for DataGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataGrid")
            .field("now", &self.sim.now())
            .field("hosts", &self.hosts.len())
            .field("sensors", &self.nws.len())
            .field("files", &self.catalog.file_count())
            .finish_non_exhaustive()
    }
}

impl DataGrid {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The underlying network simulator (read-only).
    pub fn network(&self) -> &NetSim {
        &self.sim
    }

    /// Turns per-solve max-min certification on or off in the underlying
    /// simulator (see [`NetSim::set_validation`] and
    /// `datagrid_simnet::verify`) — the plumbing behind the bench bins'
    /// `--verify` flag.
    pub fn set_network_validation(&mut self, enabled: bool) {
        self.sim.set_validation(enabled);
    }

    /// Arms or disarms same-instant cohort batching in the underlying
    /// simulator (see [`NetSim::set_event_batching`]; default on). The
    /// per-event path exists for differential testing only.
    pub fn set_event_batching(&mut self, enabled: bool) {
        self.sim.set_event_batching(enabled);
    }

    /// Overrides how the underlying simulator scopes rate re-solves
    /// (see [`datagrid_simnet::engine::SolverMode`]; default incremental).
    /// The from-scratch full mode exists as the differential-testing
    /// baseline the fuzz harness pairs against.
    pub fn set_solver_mode(&mut self, mode: datagrid_simnet::engine::SolverMode) {
        self.sim.set_solver_mode(mode);
    }

    /// Invalidates every cached candidate ranking by advancing the
    /// selection epoch. Called whenever monitoring, the catalog, faults or
    /// the selector itself change anything a score is derived from.
    pub(crate) fn invalidate_scores(&mut self) {
        self.selection_epoch += 1;
    }

    /// `(hits, misses)` of the reusable score scratch — how many
    /// [`DataGrid::score_candidates`] queries were answered from cache
    /// versus re-derived.
    pub fn score_scratch_stats(&self) -> (u64, u64) {
        let scratch = self.score_scratch.borrow();
        (scratch.hits, scratch.misses)
    }

    /// Resolves a host name.
    pub fn host_id(&self, name: &str) -> Option<HostId> {
        self.host_by_name.get(name).copied()
    }

    /// The simulated host behind an id.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn host(&self, id: HostId) -> &SimHost {
        &self.hosts[id.index()]
    }

    /// The topology node a host sits on.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn node_of(&self, id: HostId) -> NodeId {
        self.host_nodes[id.index()]
    }

    /// All host ids, in creation order.
    pub fn host_ids(&self) -> impl Iterator<Item = HostId> + '_ {
        (0u32..).map(HostId).take(self.hosts.len())
    }

    /// The replica catalog.
    pub fn catalog(&self) -> &ReplicaCatalog {
        &self.catalog
    }

    /// Mutable access to the replica catalog.
    pub fn catalog_mut(&mut self) -> &mut ReplicaCatalog {
        self.invalidate_scores();
        &mut self.catalog
    }

    /// The MDS information directory.
    pub fn mds(&self) -> &MdsDirectory {
        &self.mds
    }

    /// The NWS sensor registry.
    pub fn nws(&self) -> &NwsRegistry {
        &self.nws
    }

    /// Utilisation traces of the links registered with
    /// [`GridBuilder::watch_links`], sampled on every monitoring tick.
    pub fn network_trace(&self) -> &NetworkTrace {
        &self.trace
    }

    /// The replica selection server.
    pub fn selector_mut(&mut self) -> &mut ReplicaSelector {
        self.invalidate_scores();
        &mut self.selector
    }

    /// How the selection server currently reads `BW_P`.
    pub fn selection_mode(&self) -> SelectionMode {
        self.selection_mode
    }

    /// Switches how the selection server reads `BW_P`. Takes effect on
    /// the next scoring query; past audit records are untouched.
    pub fn set_selection_mode(&mut self, mode: SelectionMode) {
        self.selection_mode = mode;
        self.invalidate_scores();
    }

    /// Compacts the network engine's reusable scratch buffers back to the
    /// current flow population — see [`NetSim::shrink_scratch`]. Intended
    /// between workload sweeps, once a burst of concurrent transfers has
    /// drained.
    pub fn shrink_network_scratch(&mut self) {
        self.sim.shrink_scratch();
    }

    /// The observability recorder: structured event history, metrics
    /// registry and the replica-selection audit log.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Mutable recorder access — toggle recording, attach measured
    /// counterfactual times to audit entries, or clear history.
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.obs
    }

    /// The replica-selection decision audit log (one entry per
    /// [`DataGrid::fetch_with`] / [`DataGrid::fetch_from`] call while
    /// recording is enabled).
    pub fn audit(&self) -> &SelectionAuditLog {
        self.obs.audit()
    }

    /// The sim-time health timeline, when enabled (via
    /// [`GridBuilder::timeline_window`] or [`DataGrid::enable_timeline`]).
    pub fn timeline(&self) -> Option<&TimelineRecorder> {
        self.timeline.as_ref()
    }

    /// Mutable timeline access — e.g. to fold extra per-run markers in.
    pub fn timeline_mut(&mut self) -> Option<&mut TimelineRecorder> {
        self.timeline.as_mut()
    }

    /// Starts (or restarts) the health timeline with `window`-wide
    /// buckets. Link labels come from the topology; the solver-counter
    /// baseline is rebased to now, so a timeline attached after a warm-up
    /// phase attributes only subsequent work.
    pub fn enable_timeline(&mut self, window: SimDuration) {
        let topo = self.sim.topology();
        let links = (0..topo.link_count())
            .map(|i| {
                let (a, b) = topo.link_endpoints(LinkId::from_index(i));
                format!("{}->{}", topo.node_name(a), topo.node_name(b))
            })
            .collect();
        let mut tl = TimelineRecorder::new(window, links);
        let s = self.sim.stats();
        tl.rebase_engine_totals(s.incremental_solves + s.full_solves, s.solver_flows_touched);
        self.timeline = Some(tl);
    }

    /// The hot-path phase profiler. Counts (calls, items) are always
    /// collected and deterministic; wall-clock timings appear only when
    /// `datagrid-obs` is built with its `prof-timing` feature.
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.prof
    }

    /// Folds the network's instantaneous state — per-link utilization,
    /// active flows, solver-work deltas — into the health timeline.
    /// No-op when the timeline is disabled.
    fn sample_timeline(&mut self) {
        let Some(tl) = self.timeline.as_mut() else {
            return;
        };
        let now = self.sim.now();
        let mut utils = std::mem::take(&mut self.timeline_scratch);
        self.sim.link_utilizations_into(&mut utils);
        tl.sample_network(now, &utils, self.sim.active_flow_count());
        self.timeline_scratch = utils;
        let s = self.sim.stats();
        tl.record_engine_totals(
            now,
            s.incremental_solves + s.full_solves,
            s.solver_flows_touched,
        );
    }

    /// A point-in-time metrics snapshot: everything in the live registry
    /// plus the counters maintained outside it by the network engine
    /// (`simnet.*`) and the replica catalog (`catalog.*`).
    ///
    /// Render with [`MetricsRegistry::render_text`] or
    /// [`MetricsRegistry::render_json`]; both are deterministic, so two
    /// identically seeded runs export byte-identical snapshots.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut m = self.obs.metrics_snapshot();
        let s = self.sim.stats();
        m.set_counter("simnet.events_processed", s.events_processed);
        m.set_counter("simnet.timers_fired", s.timers_fired);
        m.set_counter("simnet.flows_started", s.flows_started);
        m.set_counter("simnet.flows_completed", s.flows_completed);
        m.set_counter(
            "simnet.background_flows_started",
            s.background_flows_started,
        );
        m.set_counter("simnet.bytes_completed", s.bytes_completed);
        m.set_counter("simnet.fault_transitions", s.fault_transitions);
        m.set_counter("simnet.flows_dropped", s.flows_dropped);
        m.set_counter("simnet.incremental_solves", s.incremental_solves);
        m.set_counter("simnet.full_solves", s.full_solves);
        m.set_counter("simnet.solver_flows_touched", s.solver_flows_touched);
        m.set_counter("simnet.auto_shrinks", s.auto_shrinks);
        m.set_counter("simnet.event_cohorts", s.event_cohorts);
        m.set_counter("simnet.batched_solves", s.batched_solves);
        m.set_counter("simnet.solves_avoided", s.solves_avoided);
        m.set_counter("simnet.transitions_certified", s.transitions_certified);
        m.set_counter(
            "simnet.transition_flows_checked",
            s.transition_flows_checked,
        );
        let (hits, misses) = self.score_scratch_stats();
        m.set_counter("selection.scratch_hits", hits);
        m.set_counter("selection.scratch_misses", misses);
        let c = self.catalog.stats();
        m.set_counter("catalog.lookups", c.lookups());
        m.set_counter("catalog.hits", c.hits());
        m.set_counter("catalog.misses", c.misses());
        m.set_counter("catalog.lists", c.lists());
        m.set_counter("catalog.mutations", c.mutations());
        m
    }

    /// Data discovery, the opening step of the paper's Fig. 1 scenario:
    /// the application "specifies the characteristics of the desired data"
    /// and the catalog returns matching logical file names.
    pub fn discover(&self, query: &[(&str, &str)]) -> Vec<LogicalFileName> {
        self.catalog
            .find_by_attributes(query)
            .into_iter()
            .map(|e| e.name().clone())
            .collect()
    }

    /// Registers a logical file and drops one replica on `host` (the data
    /// is assumed to already exist there — use
    /// [`DataGrid::replicate`] to create copies by moving bytes).
    ///
    /// # Errors
    ///
    /// [`GridError::UnknownHost`] or catalog errors.
    pub fn place_replica(&mut self, lfn: &str, host: &str) -> Result<PhysicalFileName, GridError> {
        let name = LogicalFileName::new(lfn)?;
        if !self.host_by_name.contains_key(host) {
            return Err(GridError::UnknownHost {
                name: host.to_string(),
            });
        }
        let pfn = PhysicalFileName::new(host, format!("/storage/{lfn}"))?;
        self.catalog.add_replica(&name, pfn.clone())?;
        self.invalidate_scores();
        Ok(pfn)
    }

    /// Installs a deterministic fault schedule on the underlying network.
    /// Fault transitions are recorded as `fault.*` events and metrics as
    /// the grid advances through them.
    ///
    /// # Panics
    ///
    /// Panics if the plan references unknown links or nodes, or schedules
    /// a fault before the current simulated time.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.obs
            .metrics_mut()
            .add("fault.scheduled", plan.len() as u64);
        self.sim.install_fault_plan(plan);
    }

    /// Advances simulated time to `until`, running monitoring on the way.
    pub fn advance_to(&mut self, until: SimTime) {
        if until <= self.sim.now() {
            return;
        }
        self.sim.schedule_timer(until, TOK_SENTINEL);
        loop {
            let ev = self
                .sim
                .next_event()
                .expect("sentinel timer keeps the queue non-empty");
            if matches!(ev.kind, EventKind::TimerFired(TOK_SENTINEL)) {
                break;
            }
            self.handle_internal(&ev);
        }
    }

    /// Advances simulated time by `duration` (e.g. to warm up sensors
    /// before an experiment).
    pub fn warm_up(&mut self, duration: SimDuration) {
        self.advance_to(self.sim.now() + duration);
    }

    /// The TCP parameters a connection between two nodes experiences
    /// (window ceiling from configuration, loss from the path).
    ///
    /// # Errors
    ///
    /// [`GridError::Unroutable`] if no route joins the nodes.
    pub fn tcp_for(&self, src: NodeId, dst: NodeId) -> Result<TcpParams, GridError> {
        Ok(self.tcp_on(self.route(src, dst)?))
    }

    /// [`DataGrid::tcp_for`] over an already resolved path.
    fn tcp_on(&self, path: &Path) -> TcpParams {
        TcpParams {
            max_window: self.tcp_window,
            loss_rate: self.sim.topology().path_loss(path),
            ..TcpParams::default()
        }
    }

    /// The route from `src` to `dst`.
    fn route(&self, src: NodeId, dst: NodeId) -> Result<&Path, GridError> {
        self.sim
            .routing()
            .path(src, dst)
            .ok_or_else(|| GridError::Unroutable {
                from: self.sim.topology().node_name(src).to_string(),
                to: self.sim.topology().node_name(dst).to_string(),
            })
    }

    /// A transfer endpoint snapshot of a host's current resources.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn endpoint_for(&self, id: HostId) -> TransferEndpoint {
        let host = &self.hosts[id.index()];
        TransferEndpoint::new(
            self.host_nodes[id.index()],
            host.available_disk_read(),
            host.available_disk_write(),
            host.cpu_headroom(),
            host.spec().compute_index(),
        )
    }

    /// Runs a transfer between two grid hosts while monitoring continues.
    /// This is the measurement primitive behind the paper's Fig. 3 and
    /// Fig. 4 experiments.
    ///
    /// # Errors
    ///
    /// [`GridError::Transfer`] for invalid requests, or wrapping
    /// [`TransferError::RetriesExhausted`] when the transfer stalls (the
    /// plain calls watch for stalls like the recovering ones but make a
    /// single attempt).
    pub fn transfer_between(
        &mut self,
        src: HostId,
        dst: HostId,
        req: TransferRequest,
    ) -> Result<TransferOutcome, GridError> {
        self.striped_transfer_between(&[src], dst, req)
    }

    /// Runs a transfer between two grid hosts with stall detection,
    /// seeded exponential-backoff retries and MODE E restart-marker
    /// resume, while monitoring continues. Each retry of a MODE E
    /// transfer picks up from the last committed byte; stream-mode
    /// retries restart from zero. Every stall, backoff pause and resume
    /// is recorded as `transfer.*` events and metrics.
    ///
    /// # Errors
    ///
    /// [`GridError::Transfer`] for invalid requests, or wrapping
    /// [`TransferError::RetriesExhausted`] when every permitted attempt
    /// stalled.
    pub fn transfer_between_with_recovery(
        &mut self,
        src: HostId,
        dst: HostId,
        req: TransferRequest,
        recovery: &RecoveryOptions,
    ) -> Result<RecoveredTransfer, GridError> {
        self.copy_one(&[src], dst, None, req, recovery)
    }

    /// Runs a striped transfer from several stripe servers to one
    /// destination host while monitoring continues (GridFTP's striped
    /// transfer feature — the paper's future work item 1).
    ///
    /// # Errors
    ///
    /// As [`DataGrid::transfer_between`], plus [`GridError::Transfer`]
    /// for an empty source list.
    pub fn striped_transfer_between(
        &mut self,
        sources: &[HostId],
        dst: HostId,
        req: TransferRequest,
    ) -> Result<TransferOutcome, GridError> {
        Ok(self
            .copy_one(sources, dst, None, req, &plain_recovery())?
            .outcome)
    }

    /// `true` if an authenticated control connection for `key` is cached
    /// and fresh.
    fn control_cached(&self, key: (NodeId, NodeId)) -> bool {
        self.control_cache
            .get(&key)
            .is_some_and(|&expiry| self.sim.now() <= expiry)
    }

    /// Records that a control connection for `key` is open, resetting its
    /// idle expiry.
    fn remember_control(&mut self, key: (NodeId, NodeId)) {
        if self.control_cache_ttl.is_zero() {
            return;
        }
        if let Some(expiry) = self.sim.now().checked_add(self.control_cache_ttl) {
            self.control_cache.insert(key, expiry);
        }
    }

    /// A third-party transfer: `client` orchestrates a copy from
    /// `src_host` to `dst_host` over its control channels while the data
    /// flows directly between the two servers — the GridFTP feature that
    /// lets the replica manager move data without routing bytes through
    /// itself. Monitoring continues throughout.
    ///
    /// # Errors
    ///
    /// As [`DataGrid::transfer_between`].
    pub fn third_party_transfer(
        &mut self,
        client: HostId,
        src: HostId,
        dst: HostId,
        req: TransferRequest,
    ) -> Result<TransferOutcome, GridError> {
        Ok(self
            .copy_one(&[src], dst, Some(client), req, &plain_recovery())?
            .outcome)
    }

    /// Creates a new physical replica of `lfn` on `dst_host` by copying
    /// from the first registered location over GridFTP, then registers it
    /// — the replica management service's *create* operation.
    ///
    /// # Errors
    ///
    /// Catalog errors, [`GridError::UnknownHost`], or transfer errors.
    pub fn replicate(
        &mut self,
        lfn: &str,
        dst_host: &str,
        parallelism: u32,
    ) -> Result<TransferOutcome, GridError> {
        let name = LogicalFileName::new(lfn)?;
        let record = self.catalog.lookup(&name).ok_or_else(|| {
            GridError::Catalog(datagrid_catalog::CatalogError::UnknownFile {
                name: lfn.to_string(),
            })
        })?;
        let src_pfn = record
            .locations()
            .first()
            .ok_or_else(|| GridError::NoReplicas {
                lfn: lfn.to_string(),
            })?
            .clone();
        let bytes = record.entry().size_bytes();
        let src_host = self.host_of_pfn(&src_pfn)?;
        let dst = self
            .host_id(dst_host)
            .ok_or_else(|| GridError::UnknownHost {
                name: dst_host.to_string(),
            })?;
        let req = TransferRequest::new(bytes).with_parallelism(parallelism);
        let outcome = self.transfer_between(src_host, dst, req)?;
        let pfn = PhysicalFileName::new(dst_host, format!("/storage/{lfn}"))?;
        self.catalog.add_replica(&name, pfn)?;
        self.invalidate_scores();
        Ok(outcome)
    }

    /// The selection server's core query: scores every registered replica
    /// of `lfn` for a fetch by `client`, ranked best first. Pure query —
    /// does not advance time or transfer anything.
    ///
    /// # Errors
    ///
    /// Catalog errors, [`GridError::NoReplicas`] or
    /// [`GridError::ReplicaOffGrid`].
    pub fn score_candidates(
        &self,
        client: HostId,
        lfn: &str,
    ) -> Result<Vec<CandidateScore>, GridError> {
        let mut out = Vec::new();
        self.score_candidates_into(client, lfn, &mut out)?;
        Ok(out)
    }

    /// [`DataGrid::score_candidates`] into a caller-owned buffer: `out` is
    /// cleared and refilled, so a replay loop can reuse one allocation
    /// across every decision it makes.
    ///
    /// # Errors
    ///
    /// As [`DataGrid::score_candidates`]; on error `out` is left cleared.
    pub fn score_candidates_into(
        &self,
        client: HostId,
        lfn: &str,
        out: &mut Vec<CandidateScore>,
    ) -> Result<(), GridError> {
        out.clear();
        let net_now = self.sim.net_version();
        {
            let mut scratch = self.score_scratch.borrow_mut();
            if scratch.entries.len() < self.hosts.len() {
                scratch
                    .entries
                    .resize_with(self.hosts.len(), ScoreEntry::default);
            }
            let entry = &scratch.entries[client.index()];
            if entry.valid
                && entry.epoch == self.selection_epoch
                && entry.lfn == lfn
                && (!entry.used_residual || entry.net_version == net_now)
            {
                entry.materialize_into(out);
                scratch.hits += 1;
                return Ok(());
            }
        }
        // Borrow released: the fresh path probes the network through
        // `&self` and must be free to take its own shared borrows.
        let used_residual = match self.compute_scores(client, lfn, out) {
            Ok(flag) => flag,
            Err(e) => {
                out.clear();
                return Err(e);
            }
        };
        let mut scratch = self.score_scratch.borrow_mut();
        scratch.misses += 1;
        scratch.entries[client.index()].store(
            lfn,
            self.selection_epoch,
            net_now,
            used_residual,
            out,
        );
        Ok(())
    }

    /// The uncached scoring path behind [`DataGrid::score_candidates`]:
    /// catalog query, factor gathering, policy scoring, ranking. Also
    /// reports whether any candidate's `BW_P` came from a residual-
    /// bandwidth probe (which keys the cache on the network version).
    fn compute_scores(
        &self,
        client: HostId,
        lfn: &str,
        out: &mut Vec<CandidateScore>,
    ) -> Result<bool, GridError> {
        let name = LogicalFileName::new(lfn)?;
        let locations = self.catalog.replicas(&name)?;
        if locations.is_empty() {
            return Err(GridError::NoReplicas {
                lfn: lfn.to_string(),
            });
        }
        let client_node = self.node_of(client);
        self.route(client_node, self.catalog_node)?;
        out.reserve(locations.len());
        let mut used_residual = false;
        for pfn in locations.iter().cloned() {
            let host_id = self.host_of_pfn(&pfn)?;
            let node = self.node_of(host_id);
            self.route(node, client_node)?;
            let is_local = host_id == client;
            let (factors, residual) = self.gather_factors(node, client_node, &pfn, is_local);
            used_residual |= residual;
            let mut score = self.selector.score(&factors);
            if self.catalog.is_suspect(&pfn) {
                score *= SUSPECT_SCORE_FACTOR;
            }
            out.push(CandidateScore {
                host: host_id,
                host_name: pfn.host().to_string(),
                location: pfn,
                factors,
                score,
                is_local,
            });
        }
        rank_by_score(out);
        Ok(used_residual)
    }

    /// The paper's full Fig. 1 scenario with default transfer options.
    ///
    /// # Errors
    ///
    /// See [`DataGrid::fetch_with`].
    pub fn fetch(&mut self, client: HostId, lfn: &str) -> Result<FetchReport, GridError> {
        self.fetch_with(client, lfn, FetchOptions::default())
    }

    /// The paper's full Fig. 1 scenario: catalog query, factor gathering,
    /// policy choice, GridFTP transfer. Time advances through every step;
    /// monitoring keeps running.
    ///
    /// # Errors
    ///
    /// Catalog errors, [`GridError::NoReplicas`],
    /// [`GridError::ReplicaOffGrid`], transfer errors, or
    /// [`GridError::AllReplicasFailed`] when the chosen replica stalls
    /// (the plain calls watch for stalls but make a single attempt and
    /// never fail over).
    pub fn fetch_with(
        &mut self,
        client: HostId,
        lfn: &str,
        options: FetchOptions,
    ) -> Result<FetchReport, GridError> {
        Ok(self
            .fetch_one(client, lfn, options, &plain_recovery(), None)?
            .report)
    }

    /// Like [`DataGrid::fetch_with`] but forcing the replica on
    /// `from_host` — the counterfactual probe used for oracle evaluation
    /// and for regenerating the paper's Table 1 (which measures the
    /// transfer time of *every* candidate).
    ///
    /// # Errors
    ///
    /// As [`DataGrid::fetch_with`], plus [`GridError::UnknownHost`] if the
    /// forced host holds no replica.
    pub fn fetch_from(
        &mut self,
        client: HostId,
        lfn: &str,
        from_host: &str,
        options: FetchOptions,
    ) -> Result<FetchReport, GridError> {
        Ok(self
            .fetch_one(client, lfn, options, &plain_recovery(), Some(from_host))?
            .report)
    }

    /// The paper's Fig. 1 scenario hardened for faulty grids: catalog
    /// query, factor gathering, policy choice, then a GridFTP transfer
    /// with stall detection and retries — and when the chosen replica's
    /// retries are exhausted, the site is marked suspect in the catalog,
    /// candidates are re-ranked (suspects are penalised) and the fetch
    /// fails over to the next-best replica. The whole episode — faults,
    /// stalls, backoff pauses, failovers and the final winner — is
    /// recorded through the observability layer.
    ///
    /// # Errors
    ///
    /// Catalog errors, [`GridError::NoReplicas`],
    /// [`GridError::ReplicaOffGrid`], transfer errors, or
    /// [`GridError::AllReplicasFailed`] when every candidate was tried
    /// and abandoned.
    pub fn fetch_with_recovery(
        &mut self,
        client: HostId,
        lfn: &str,
        options: FetchOptions,
        recovery: &RecoveryOptions,
    ) -> Result<RecoveredFetch, GridError> {
        self.fetch_one(client, lfn, options, recovery, None)
    }

    /// Suggests a parallel stream count for transfers from `src` to `dst`:
    /// enough streams for their aggregate TCP ceiling (window/loss bound)
    /// to cover the path's bottleneck capacity, clamped to `[1, 16]` (the
    /// range the paper sweeps in Fig. 4). Clean short paths get 1; the
    /// lossy Li-Zen path lands near the Fig. 4 sweet spot automatically.
    ///
    /// # Panics
    ///
    /// Panics if the hosts are unroutable.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int casts saturate, and the stream count is clamped to 1..=16 right after"
    )]
    pub fn suggested_parallelism(&self, src: HostId, dst: HostId) -> u32 {
        let s = self.node_of(src);
        let d = self.node_of(dst);
        let path = self
            .sim
            .routing()
            .path(s, d)
            .unwrap_or_else(|| panic!("no route {s} -> {d}"));
        let Some(capacity) = self.sim.topology().path_capacity(path) else {
            return 1; // node-local
        };
        let per_stream = self.tcp_on(path).steady_rate(path.rtt()).as_bps();
        if per_stream <= 0.0 {
            return 16;
        }
        ((capacity.as_bps() / per_stream).ceil() as u32).clamp(1, 16)
    }

    /// The current `BW_P` estimate from `src` to `dst` host, if a sensor
    /// is installed and warmed up.
    pub fn bandwidth_fraction(&self, src: HostId, dst: HostId) -> Option<f64> {
        self.nws
            .sensor(self.node_of(src), self.node_of(dst))
            .and_then(BandwidthSensor::bandwidth_fraction)
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Catalog and selection server query latency for a client: two round
    /// trips to the catalog node plus processing.
    ///
    /// # Errors
    ///
    /// [`GridError::Unroutable`] if the client cannot reach the catalog.
    fn service_latency(&self, client: HostId) -> Result<SimDuration, GridError> {
        let rtt = self.route(self.node_of(client), self.catalog_node)?.rtt();
        Ok(rtt * 2 + SimDuration::from_millis(5))
    }

    fn host_of_pfn(&self, pfn: &PhysicalFileName) -> Result<HostId, GridError> {
        self.host_by_name
            .get(pfn.host())
            .copied()
            .ok_or_else(|| GridError::ReplicaOffGrid {
                location: pfn.to_string(),
            })
    }

    /// Gathers one candidate's factors; the second return says whether
    /// `BW_P` was read from the live residual-bandwidth probe (true) or
    /// purely from sensor/MDS state (false).
    fn gather_factors(
        &self,
        replica_node: NodeId,
        client_node: NodeId,
        _pfn: &PhysicalFileName,
        is_local: bool,
    ) -> (SystemFactors, bool) {
        let host_id = self.host_at_node[&replica_node];
        let rec = self
            .mds
            .lookup(self.hosts[host_id.index()].name())
            .expect("grid hosts are MDS-registered");
        let (bw, residual) = if is_local {
            (1.0, false)
        } else {
            match self.selection_mode {
                // Contention-aware BW_P: what a new stream would actually
                // get *right now*, with every in-flight transfer's
                // allocation already subtracted by the max-min solver.
                SelectionMode::ContentionAware => {
                    (self.instantaneous_fraction(replica_node, client_node), true)
                }
                SelectionMode::Static => match self
                    .nws
                    .sensor(replica_node, client_node)
                    .and_then(BandwidthSensor::bandwidth_fraction)
                {
                    Some(fraction) => (fraction, false),
                    None => (self.instantaneous_fraction(replica_node, client_node), true),
                },
            }
        };
        (SystemFactors::new(bw, rec.cpu_idle, rec.io_idle), residual)
    }

    /// Fallback `BW_P` when no sensor history exists: the rate a new
    /// stream would get right now, over the grid-wide reference bandwidth.
    fn instantaneous_fraction(&self, src: NodeId, dst: NodeId) -> f64 {
        let Some(path) = self.sim.routing().path(src, dst) else {
            return 0.0;
        };
        if self.sim.topology().path_capacity(path).is_none() {
            return 1.0; // node-local
        }
        let reference = self
            .sim
            .topology()
            .max_link_capacity()
            .expect("grids have links");
        let cap = self.tcp_on(path).steady_rate(path.rtt());
        let avail = self.sim.available_bandwidth(src, dst, Some(cap));
        (avail.as_bps() / reference.as_bps()).clamp(0.0, 1.0)
    }

    fn alloc_session_tokens(&mut self) -> u64 {
        let base = self.next_session_base;
        self.next_session_base += TransferSession::TOKENS_PER_SESSION;
        base
    }

    /// Records one replica-selection decision: the audit entry with every
    /// candidate's factor breakdown, a `selection.decision` event, and the
    /// selection metrics. `candidates` arrive ranked best-first from
    /// [`rank_by_score`], so the slice index is the rank.
    fn record_selection(
        &mut self,
        lfn: &str,
        client: HostId,
        candidates: &[CandidateScore],
        chosen: usize,
        decision_latency: SimDuration,
        policy_override: Option<&str>,
    ) {
        let now = self.sim.now();
        let picked = &candidates[chosen];
        if let Some(tl) = self.timeline.as_mut() {
            tl.record_decision(now);
        }
        {
            let m = self.obs.metrics_mut();
            m.inc("selection.decisions");
            if picked.is_local {
                m.inc("selection.local_hits");
            }
            m.register_histogram("selection.score", SCORE_BOUNDS)
                .observe(picked.score);
            m.register_histogram("selection.decision_seconds", DECISION_BOUNDS_SECS)
                .observe(decision_latency.as_secs_f64());
        }
        if !self.obs.is_enabled() {
            return;
        }
        let w = self.selector.cost_model().weights();
        let client_name = self.hosts[client.index()].name().to_string();
        let policy = match policy_override {
            Some(label) => label.to_string(),
            None => self.selector.policy().name().to_string(),
        };
        let winner = picked.host_name.clone();
        self.obs.emit(
            Event::new(now, "select", "selection.decision")
                .with("lfn", lfn)
                .with("client", client_name.as_str())
                .with("policy", policy.as_str())
                .with("winner", winner.as_str())
                .with("score", picked.score)
                .with("candidates", candidates.len()),
        );
        let audited = candidates
            .iter()
            .enumerate()
            .map(|(rank, c)| CandidateAudit {
                host: c.host_name.clone(),
                bw_p: c.factors.bandwidth_fraction,
                cpu_p: c.factors.cpu_idle,
                io_p: c.factors.io_idle,
                weighted_bw: w.bandwidth * c.factors.bandwidth_fraction,
                weighted_cpu: w.cpu * c.factors.cpu_idle,
                weighted_io: w.io * c.factors.io_idle,
                score: c.score,
                is_local: c.is_local,
                rank,
                measured_secs: None,
            })
            .collect();
        self.obs.record_decision(SelectionDecision {
            time: now,
            lfn: lfn.to_string(),
            client: client_name,
            policy,
            weights: (w.bandwidth, w.cpu, w.io),
            candidates: audited,
            winner,
        });
    }

    /// Records one finished transfer: span events, latency/byte/stream
    /// metrics and per-phase timing histograms. `protocol` is a stable
    /// label (`"gridftp"`, `"ftp"`, `"local"`); `lfn` labels the span of a
    /// fetch.
    pub(crate) fn record_transfer_for(
        &mut self,
        src: &str,
        dst: &str,
        protocol: &'static str,
        outcome: &TransferOutcome,
        lfn: Option<&str>,
    ) {
        let id = self.next_span_id;
        self.next_span_id += 1;
        // The per-protocol / per-phase metric keys come from tiny closed
        // sets; interning them keeps this path off the allocator.
        let protocol_key = match protocol {
            "gridftp" => "transfer.count.gridftp",
            "ftp" => "transfer.count.ftp",
            "local" => "transfer.count.local",
            other => {
                self.obs
                    .metrics_mut()
                    .inc(&format!("transfer.count.{other}"));
                ""
            }
        };
        let m = self.obs.metrics_mut();
        m.inc("transfer.count");
        if !protocol_key.is_empty() {
            m.inc(protocol_key);
        }
        m.add("transfer.payload_bytes", outcome.payload_bytes);
        m.add("transfer.wire_bytes", outcome.wire_bytes);
        m.register_histogram("transfer.seconds", TRANSFER_BOUNDS_SECS)
            .observe(outcome.duration().as_secs_f64());
        m.register_histogram("transfer.streams", STREAM_BOUNDS)
            .observe(f64::from(outcome.streams.max(1)));
        for phase in &outcome.phases {
            let phase_key = match phase.name {
                "control" => "transfer.phase_seconds.control",
                "data" => "transfer.phase_seconds.data",
                "completion" => "transfer.phase_seconds.completion",
                other => {
                    self.obs
                        .metrics_mut()
                        .register_histogram(
                            &format!("transfer.phase_seconds.{other}"),
                            PHASE_BOUNDS_SECS,
                        )
                        .observe((phase.end - phase.start).as_secs_f64());
                    continue;
                }
            };
            self.obs
                .metrics_mut()
                .register_histogram(phase_key, PHASE_BOUNDS_SECS)
                .observe((phase.end - phase.start).as_secs_f64());
        }
        if self.obs.is_enabled() {
            let span = span_from_outcome(id, src, dst, protocol, lfn, outcome);
            for event in span.to_events() {
                self.obs.emit(event);
            }
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "probe tokens are TOK_PROBE_BASE plus a monitored-pair index, which is a usize"
    )]
    fn handle_internal(&mut self, ev: &SimEvent) {
        match &ev.kind {
            EventKind::TimerFired(TOK_MONITOR) => self.on_monitor_tick(),
            EventKind::TimerFired(tok)
                if (TOK_PROBE_BASE..TOK_PROBE_BASE + self.monitored.len() as u64).contains(tok) =>
            {
                self.launch_probe((tok - TOK_PROBE_BASE) as usize);
            }
            EventKind::TimerFired(tok) if *tok >= SESSION_TOKEN_BASE => {
                // A stale watchdog or backoff timer from a transfer
                // session that has already finished; harmless.
            }
            EventKind::TimerFired(other) => {
                panic!("orphan timer token {other} reached the grid loop")
            }
            EventKind::FaultChanged(notice) => {
                self.invalidate_scores();
                if let Some(tl) = self.timeline.as_mut() {
                    tl.record_fault(ev.time);
                }
                // Capture the post-transition network shape immediately —
                // a fault can reroute or strand flows between monitor
                // ticks, and that is exactly what the timeline is for.
                self.sample_timeline();
                let label = notice.kind.label();
                let m = self.obs.metrics_mut();
                m.inc("fault.transitions");
                if notice.active || notice.kind.is_instant() {
                    m.inc(&format!("fault.{label}"));
                }
                self.obs.emit(
                    Event::new(
                        ev.time,
                        "fault",
                        if notice.active || notice.kind.is_instant() {
                            "fault.start"
                        } else {
                            "fault.end"
                        },
                    )
                    .with("kind", label)
                    .with("index", notice.index),
                );
            }
            EventKind::FlowCompleted(done) => {
                let Some((src, dst)) = self.pending_probes.remove(&done.id) else {
                    panic!("orphan flow completion {:?}", done.id);
                };
                let measured = done.avg_throughput();
                if let Some(sensor) = self.nws.sensor_mut(src, dst) {
                    sensor.record(ev.time, measured);
                    self.invalidate_scores();
                }
                self.obs.metrics_mut().inc("nws.probes_completed");
                if self.obs.is_enabled() {
                    self.obs.emit(
                        Event::new(ev.time, "nws", "probe.complete")
                            .with("src", src.index())
                            .with("dst", dst.index())
                            .with("mbps", measured.as_mbps()),
                    );
                }
            }
        }
    }

    fn on_monitor_tick(&mut self) {
        // Hosts advance and the MDS refreshes below: every cached CPU_P /
        // IO_P reading is about to go stale.
        self.invalidate_scores();
        self.trace.sample(&self.sim);
        self.sample_timeline();
        let now = self.sim.now();
        for (id, host) in (0u32..).map(HostId).zip(self.hosts.iter_mut()) {
            host.advance_to(now);
            self.mds.refresh(id, host, now);
        }
        self.obs.metrics_mut().inc("monitor.ticks");
        for i in 0..self.hosts.len() {
            let (name, cpu, io) = {
                let h = &self.hosts[i];
                (h.name().to_string(), h.cpu_idle(), h.io_idle())
            };
            let m = self.obs.metrics_mut();
            m.set_gauge(&format!("host.{name}.cpu_idle"), cpu);
            m.set_gauge(&format!("host.{name}.io_idle"), io);
        }
        let watched: Vec<(LinkId, f64)> = self
            .trace
            .iter()
            .filter_map(|(link, t)| t.samples().last().map(|s| (link, s.utilization)))
            .collect();
        for (link, utilization) in watched {
            self.obs.metrics_mut().set_gauge(
                &format!("net.link.{}.utilization", link.index()),
                utilization,
            );
        }
        // Stagger one probe per monitored path across the interval: NWS
        // serialises probes within a clique so measurements do not contend
        // with each other and distort themselves.
        let n = self.monitored.len() as u64;
        for i in 0..n {
            let offset = self.monitor_interval.saturating_mul(i) / (n + 1);
            self.sim.schedule_timer_after(offset, TOK_PROBE_BASE + i);
        }
        self.sim
            .schedule_timer_after(self.monitor_interval, TOK_MONITOR);
    }

    /// Launches the probe for monitored pair `index`, unless its previous
    /// probe is still in flight (a slow path must not pile up probes).
    #[expect(
        clippy::disallowed_methods,
        reason = "any() over the in-flight probes does not depend on their order"
    )]
    fn launch_probe(&mut self, index: usize) {
        let (src, dst) = self.monitored[index];
        if self.pending_probes.values().any(|&p| p == (src, dst)) {
            return;
        }
        let tcp = self
            .tcp_for(src, dst)
            .expect("build rejects unroutable monitored pairs");
        let cap = tcp.steady_rate(self.sim.rtt(src, dst));
        let id = self.sim.start_flow(
            FlowSpec::new(src, dst, self.probe_bytes)
                .with_cap(cap)
                .with_tag(FlowTag::Probe),
        );
        self.pending_probes.insert(id, (src, dst));
        self.obs.metrics_mut().inc("nws.probes_started");
        if self.obs.is_enabled() {
            self.obs.emit(
                Event::new(self.sim.now(), "nws", "probe.start")
                    .with("src", src.index())
                    .with("dst", dst.index())
                    .with("bytes", self.probe_bytes),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagrid_simnet::topology::{Bandwidth, LinkSpec};

    const MB: u64 = 1 << 20;

    fn ms(m: u64) -> SimDuration {
        SimDuration::from_millis(m)
    }

    fn mbps(m: f64) -> Bandwidth {
        Bandwidth::from_mbps(m)
    }

    /// client --1Gbps-- switch --{fast: 100Mbps | slow: 10Mbps}-- replicas
    pub(crate) fn small_grid(seed: u64) -> DataGrid {
        let mut b = GridBuilder::new(seed);
        let client = b.add_host(
            HostSpec::new("client").with_cpu(2, 2.0),
            LoadModel::Constant(0.1),
            LoadModel::Constant(0.1),
        );
        let fast = b.add_host(
            HostSpec::new("fast").with_cpu(1, 2.8),
            LoadModel::Constant(0.2),
            LoadModel::Constant(0.1),
        );
        let slow = b.add_host(
            HostSpec::new("slow").with_cpu(1, 0.9),
            LoadModel::Constant(0.4),
            LoadModel::Constant(0.3),
        );
        let sw = b.add_switch("switch");
        let t = b.topology_mut();
        t.add_duplex_link(client, sw, LinkSpec::new(Bandwidth::from_gbps(1.0), ms(1)));
        t.add_duplex_link(fast, sw, LinkSpec::new(mbps(100.0), ms(4)));
        // Loss makes a single stream Mathis-limited (~6.5 Mbps) below the
        // 10 Mbps link, so parallel streams have room to win.
        t.add_duplex_link(slow, sw, LinkSpec::new(mbps(10.0), ms(10)).with_loss(0.01));
        b.monitor_all_host_pairs();
        b.build()
    }

    pub(crate) fn with_file(mut grid: DataGrid) -> DataGrid {
        grid.catalog_mut()
            .register_logical("file-a".parse().unwrap(), 16 * MB)
            .unwrap();
        grid.place_replica("file-a", "fast").unwrap();
        grid.place_replica("file-a", "slow").unwrap();
        grid
    }

    #[test]
    fn builder_wires_hosts_and_sensors() {
        let grid = small_grid(1);
        assert_eq!(grid.host_ids().count(), 3);
        assert!(grid.host_id("fast").is_some());
        assert!(grid.host_id("nope").is_none());
        // 3 hosts -> 6 ordered pairs monitored.
        assert_eq!(grid.nws().len(), 6);
        assert_eq!(grid.mds().len(), 3);
    }

    #[test]
    fn warm_up_populates_sensors_and_mds() {
        let mut grid = small_grid(2);
        grid.warm_up(SimDuration::from_secs(120));
        assert_eq!(grid.now(), SimTime::from_secs_f64(120.0));
        let client = grid.host_id("client").unwrap();
        let fast = grid.host_id("fast").unwrap();
        // The fast path carries ~100 Mbps of the grid's 1 Gbps reference.
        let frac = grid.bandwidth_fraction(fast, client).expect("warm sensor");
        assert!(
            (0.05..0.2).contains(&frac),
            "BW_P ≈ 0.1 expected, got {frac}"
        );
        let slow = grid.host_id("slow").unwrap();
        let slow_frac = grid.bandwidth_fraction(slow, client).expect("warm sensor");
        assert!(slow_frac < frac, "slow path must score below fast");
        let rec = grid.mds().lookup("slow").unwrap();
        assert!((rec.cpu_idle - 0.6).abs() < 1e-9);
        assert!(rec.updated > SimTime::ZERO);
    }

    #[test]
    fn score_candidates_ranks_fast_first() {
        let mut grid = with_file(small_grid(3));
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        let scored = grid.score_candidates(client, "file-a").unwrap();
        assert_eq!(scored.len(), 2);
        assert_eq!(scored[0].host_name, "fast");
        assert!(scored[0].score > scored[1].score);
        // Slow path: 10/1000 of the client NIC... BW_P is relative to the
        // path's own bottleneck, so the difference comes from loss,
        // sharing and host state; both fractions are valid.
        for c in &scored {
            assert!((0.0..=1.0).contains(&c.factors.bandwidth_fraction));
            assert!((0.0..=1.0).contains(&c.score));
        }
    }

    #[test]
    fn fetch_selects_and_transfers_fast_replica() {
        let mut grid = with_file(small_grid(4));
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        let report = grid.fetch(client, "file-a").unwrap();
        assert_eq!(report.chosen_candidate().host_name, "fast");
        assert!(!report.local_hit);
        assert_eq!(report.transfer.payload_bytes, 16 * MB);
        assert!(report.decision_latency > SimDuration::ZERO);
        // 16 MiB at ~100 Mbps ≈ 1.3 s; allow for slow start + handshake.
        let secs = report.transfer.duration().as_secs_f64();
        assert!((1.0..6.0).contains(&secs), "duration {secs}");
    }

    #[test]
    fn fetch_prefers_local_replica() {
        let mut grid = with_file(small_grid(5));
        grid.place_replica("file-a", "client").unwrap();
        grid.warm_up(SimDuration::from_secs(60));
        let client = grid.host_id("client").unwrap();
        let report = grid.fetch(client, "file-a").unwrap();
        assert!(report.local_hit);
        assert_eq!(report.chosen_candidate().host_name, "client");
        // Local disk read ≈ 16 MiB at ~50 MB/s < 1 s.
        assert!(report.transfer.duration().as_secs_f64() < 1.0);
        assert_eq!(report.transfer.wire_bytes, 0);
    }

    #[test]
    fn fetch_from_forces_the_slow_candidate() {
        let mut grid = with_file(small_grid(6));
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        let forced = grid
            .fetch_from(client, "file-a", "slow", FetchOptions::default())
            .unwrap();
        assert_eq!(forced.chosen_candidate().host_name, "slow");
        let free = grid.fetch(client, "file-a").unwrap();
        assert!(
            forced.transfer.duration() > free.transfer.duration(),
            "slow {} should exceed fast {}",
            forced.transfer.duration(),
            free.transfer.duration()
        );
        let err = grid
            .fetch_from(client, "file-a", "mars", FetchOptions::default())
            .unwrap_err();
        assert!(matches!(err, GridError::UnknownHost { .. }));
    }

    #[test]
    fn score_order_predicts_transfer_order() {
        // The paper's Table 1 claim: higher score => faster transfer.
        let mut grid = with_file(small_grid(7));
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        let scored = grid.score_candidates(client, "file-a").unwrap();
        let mut durations = Vec::new();
        for c in &scored {
            let mut probe_grid = grid.clone();
            let report = probe_grid
                .fetch_from(client, "file-a", &c.host_name, FetchOptions::default())
                .unwrap();
            durations.push(report.transfer.duration());
        }
        assert!(
            durations.windows(2).all(|w| w[0] <= w[1]),
            "transfer times should be sorted like scores: {durations:?}"
        );
    }

    #[test]
    fn errors_for_missing_files_and_hosts() {
        let mut grid = small_grid(8);
        let client = grid.host_id("client").unwrap();
        assert!(matches!(
            grid.fetch(client, "ghost").unwrap_err(),
            GridError::Catalog(_)
        ));
        grid.catalog_mut()
            .register_logical("empty".parse().unwrap(), MB)
            .unwrap();
        assert!(matches!(
            grid.fetch(client, "empty").unwrap_err(),
            GridError::NoReplicas { .. }
        ));
        assert!(matches!(
            grid.place_replica("empty", "mars").unwrap_err(),
            GridError::UnknownHost { .. }
        ));
    }

    #[test]
    fn replica_off_grid_detected() {
        let mut grid = small_grid(9);
        grid.catalog_mut()
            .register_logical("file-x".parse().unwrap(), MB)
            .unwrap();
        grid.catalog_mut()
            .add_replica(
                &"file-x".parse().unwrap(),
                "gsiftp://elsewhere/d/f".parse().unwrap(),
            )
            .unwrap();
        let client = grid.host_id("client").unwrap();
        assert!(matches!(
            grid.score_candidates(client, "file-x").unwrap_err(),
            GridError::ReplicaOffGrid { .. }
        ));
    }

    #[test]
    fn replicate_moves_bytes_and_registers() {
        let mut grid = with_file(small_grid(10));
        grid.warm_up(SimDuration::from_secs(30));
        let outcome = grid.replicate("file-a", "client", 4).unwrap();
        assert_eq!(outcome.payload_bytes, 16 * MB);
        let replicas = grid.catalog().replicas(&"file-a".parse().unwrap()).unwrap();
        assert_eq!(replicas.len(), 3);
        assert!(replicas.iter().any(|p| p.host() == "client"));
    }

    #[test]
    fn transfer_between_respects_parallelism_options() {
        let mut grid = small_grid(11);
        grid.warm_up(SimDuration::from_secs(30));
        let slow = grid.host_id("slow").unwrap();
        let client = grid.host_id("client").unwrap();
        let single = grid
            .transfer_between(slow, client, TransferRequest::new(8 * MB))
            .unwrap();
        let parallel = grid
            .transfer_between(
                slow,
                client,
                TransferRequest::new(8 * MB).with_parallelism(8),
            )
            .unwrap();
        assert!(
            parallel.duration() < single.duration(),
            "parallel {} vs single {}",
            parallel.duration(),
            single.duration()
        );
    }

    #[test]
    fn clone_gives_independent_counterfactuals() {
        let mut grid = with_file(small_grid(12));
        grid.warm_up(SimDuration::from_secs(60));
        let client = grid.host_id("client").unwrap();
        let mut a = grid.clone();
        let mut b = grid.clone();
        let ra = a.fetch(client, "file-a").unwrap();
        let rb = b.fetch(client, "file-a").unwrap();
        // Identical clones evolve identically.
        assert_eq!(ra.transfer.duration(), rb.transfer.duration());
        // And the original is untouched.
        assert_eq!(grid.now(), SimTime::from_secs_f64(60.0));
    }

    #[test]
    fn monitoring_keeps_running_during_transfers() {
        let mut grid = with_file(small_grid(13));
        grid.warm_up(SimDuration::from_secs(30));
        let client = grid.host_id("client").unwrap();
        let fast = grid.host_id("fast").unwrap();
        let samples_before = grid
            .nws()
            .sensor(grid.node_of(fast), grid.node_of(client))
            .unwrap()
            .series()
            .len();
        // A long transfer over the slow path (~16 MiB at ≈10 Mbps ≈ 13 s,
        // spanning one or two 10 s monitor ticks).
        let _ = grid
            .fetch_from(client, "file-a", "slow", FetchOptions::default())
            .unwrap();
        let samples_after = grid
            .nws()
            .sensor(grid.node_of(fast), grid.node_of(client))
            .unwrap()
            .series()
            .len();
        assert!(
            samples_after > samples_before,
            "probes must fire during transfers: {samples_before} -> {samples_after}"
        );
    }

    #[test]
    fn policies_change_choices() {
        let mut grid = with_file(small_grid(14));
        grid.warm_up(SimDuration::from_secs(60));
        let client = grid.host_id("client").unwrap();
        grid.selector_mut().set_policy(SelectionPolicy::RoundRobin);
        let first = grid.fetch(client, "file-a").unwrap();
        let second = grid.fetch(client, "file-a").unwrap();
        assert_ne!(
            first.chosen_candidate().host_name,
            second.chosen_candidate().host_name,
            "round robin must rotate"
        );
    }

    #[test]
    fn debug_formatting_mentions_state() {
        let grid = small_grid(15);
        let s = format!("{grid:?}");
        assert!(s.contains("DataGrid"));
        assert!(s.contains("hosts"));
    }

    #[test]
    fn fetch_records_audit_metrics_and_span_events() {
        let mut grid = with_file(small_grid(16));
        grid.warm_up(SimDuration::from_secs(60));
        let client = grid.host_id("client").unwrap();
        let report = grid.fetch(client, "file-a").unwrap();

        let audit = grid.audit();
        assert_eq!(audit.len(), 1);
        let decision = audit.last().unwrap();
        assert_eq!(decision.lfn, "file-a");
        assert_eq!(decision.client, "client");
        assert_eq!(decision.winner, report.chosen_candidate().host_name);
        assert_eq!(decision.candidates.len(), 2);
        assert_eq!(decision.weights, (0.8, 0.1, 0.1));
        // Ranked best-first; the winner carries its measured time.
        assert_eq!(decision.hosts_by_rank()[0], decision.winner);
        let winner = decision.winner_audit().unwrap();
        assert!(winner.measured_secs.unwrap() > 0.0);
        assert!(winner.bw_p > 0.0 && winner.cpu_p > 0.0 && winner.io_p > 0.0);
        let recomputed = winner.weighted_bw + winner.weighted_cpu + winner.weighted_io;
        assert!((recomputed - winner.score).abs() < 1e-9);

        let metrics = grid.metrics_snapshot();
        assert_eq!(metrics.counter("selection.decisions"), 1);
        assert_eq!(metrics.counter("transfer.count"), 1);
        assert_eq!(metrics.counter("transfer.count.gridftp"), 1);
        assert_eq!(metrics.histogram("transfer.seconds").unwrap().count(), 1);
        assert!(metrics.counter("monitor.ticks") >= 6);
        assert!(metrics.counter("nws.probes_completed") > 0);
        assert!(metrics.counter("catalog.lookups") > 0);
        assert!(metrics.counter("simnet.flows_completed") > 0);
        assert!(metrics.gauge("host.client.cpu_idle").is_some());

        // The span closed with the served logical file attached.
        let jsonl = grid.recorder().events_jsonl();
        assert!(jsonl.contains("\"kind\":\"span.open\""));
        assert!(jsonl.contains("\"lfn\":\"file-a\""));
        assert!(jsonl.contains("\"kind\":\"span.close\""));
        assert!(jsonl.contains("\"kind\":\"selection.decision\""));
    }

    #[test]
    fn disabled_recording_keeps_metrics_but_no_events_or_audit() {
        let mut grid = {
            let mut b = GridBuilder::new(17);
            let client = b.add_host(
                HostSpec::new("client").with_cpu(2, 2.0),
                LoadModel::Constant(0.1),
                LoadModel::Constant(0.1),
            );
            let other = b.add_host(
                HostSpec::new("other"),
                LoadModel::Constant(0.1),
                LoadModel::Constant(0.1),
            );
            b.topology_mut()
                .add_duplex_link(client, other, LinkSpec::new(mbps(100.0), ms(1)));
            b.recording(false);
            b.build()
        };
        grid.catalog_mut()
            .register_logical("f".parse().unwrap(), MB)
            .unwrap();
        grid.place_replica("f", "client").unwrap();
        let client = grid.host_id("client").unwrap();
        grid.fetch(client, "f").unwrap();
        assert!(!grid.recorder().is_enabled());
        assert_eq!(grid.recorder().events().len(), 0);
        assert!(grid.audit().is_empty());
        // Metrics still accrue: they are cheap and always truthful.
        assert_eq!(grid.metrics_snapshot().counter("selection.decisions"), 1);
        assert_eq!(grid.metrics_snapshot().counter("transfer.count.local"), 1);
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    clippy::wildcard_enum_match_arm,
    reason = "tests pin exact values; outside library scope"
)]
mod recovery_grid_tests {
    use super::tests::{small_grid, with_file};
    use super::*;
    use crate::recovery::RecoveryOptions;
    use datagrid_gridftp::retry::RetryPolicy;

    const MB: u64 = 1 << 20;

    fn quick_recovery() -> RecoveryOptions {
        RecoveryOptions::default()
            .with_retry(
                RetryPolicy::default()
                    .with_max_attempts(2)
                    .with_base_backoff(SimDuration::from_secs(1))
                    .with_jitter(0.0),
            )
            .with_stall_timeout(SimDuration::from_secs(1))
    }

    #[test]
    fn suspect_mark_demotes_candidate() {
        let mut grid = with_file(small_grid(21));
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        let healthy = grid.score_candidates(client, "file-a").unwrap();
        assert_eq!(healthy[0].host_name, "fast");
        let fast_loc = healthy[0].location.clone();
        grid.catalog_mut().mark_suspect(&fast_loc);
        let marked = grid.score_candidates(client, "file-a").unwrap();
        assert_eq!(
            marked[0].host_name, "slow",
            "suspect penalty must demote fast below slow"
        );
        grid.catalog_mut().clear_suspect(&fast_loc);
        let cleared = grid.score_candidates(client, "file-a").unwrap();
        assert_eq!(cleared[0].host_name, "fast");
        assert_eq!(cleared[0].score, healthy[0].score);
    }

    #[test]
    fn clean_fetch_needs_no_recovery() {
        let mut grid = with_file(small_grid(22));
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        let rec = grid
            .fetch_with_recovery(client, "file-a", FetchOptions::default(), &quick_recovery())
            .unwrap();
        assert!(rec.clean());
        assert_eq!(rec.report.chosen_candidate().host_name, "fast");
        assert_eq!(rec.payload_moved, 16 * MB);
        assert_eq!(rec.backoff_total, SimDuration::ZERO);
    }

    #[test]
    fn transient_outage_is_retried_on_the_same_replica() {
        let mut grid = with_file(small_grid(23));
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        let fast = grid.host_id("fast").unwrap();
        let fast_node = grid.node_of(fast);
        // Down for 2 s shortly after the transfer starts; one stall +
        // one resumed attempt fits inside the 2-attempt budget.
        grid.install_fault_plan(FaultPlan::new().host_blackout(
            SimTime::from_secs_f64(121.0),
            SimDuration::from_secs(2),
            fast_node,
        ));
        let rec = grid
            .fetch_with_recovery(
                client,
                "file-a",
                FetchOptions::default().with_parallelism(4),
                &quick_recovery(),
            )
            .unwrap();
        assert!(rec.attempts >= 2, "{rec:?}");
        assert!(rec.failed_over.is_empty(), "no failover needed");
        assert_eq!(rec.report.chosen_candidate().host_name, "fast");
        // MODE E markers: nothing is re-sent.
        assert_eq!(rec.payload_moved, 16 * MB);
        let m = grid.metrics_snapshot();
        assert!(m.counter("transfer.stalls") >= 1);
        assert!(m.counter("transfer.retries") >= 1);
        assert_eq!(m.counter("fault.host_blackout"), 1);
        let kinds: Vec<&str> = grid.recorder().events().map(|e| e.kind).collect();
        assert!(kinds.contains(&"fault.start"));
        assert!(kinds.contains(&"fault.end"));
        assert!(kinds.contains(&"transfer.stall"));
        assert!(kinds.contains(&"transfer.retry"));
    }

    #[test]
    fn dead_replica_fails_over_to_next_best() {
        let mut grid = with_file(small_grid(24));
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        let fast = grid.host_id("fast").unwrap();
        let fast_node = grid.node_of(fast);
        // Fast goes dark for a long time: retries exhaust, then the
        // fetch must complete from the slow replica.
        grid.install_fault_plan(FaultPlan::new().host_blackout(
            SimTime::from_secs_f64(121.0),
            SimDuration::from_secs(10_000),
            fast_node,
        ));
        let rec = grid
            .fetch_with_recovery(
                client,
                "file-a",
                FetchOptions::default().with_parallelism(4),
                &quick_recovery(),
            )
            .unwrap();
        assert_eq!(rec.failed_over, vec!["fast".to_string()]);
        assert_eq!(rec.report.chosen_candidate().host_name, "slow");
        assert_eq!(rec.report.transfer.payload_bytes, 16 * MB);
        assert!(rec.attempts >= 3, "2 on fast + at least 1 on slow");
        // The abandoned site is now suspect in the catalog.
        let fast_loc = rec
            .report
            .candidates
            .iter()
            .find(|c| c.host_name == "fast")
            .unwrap()
            .location
            .clone();
        assert!(grid.catalog().is_suspect(&fast_loc));
        let m = grid.metrics_snapshot();
        assert_eq!(m.counter("selection.failovers"), 1);
        assert!(m.counter("transfer.abandoned") >= 1);
        // The audit holds both the original decision and the failover
        // re-selection, with the failover policy labelled.
        let audit = grid.audit();
        assert!(audit.len() >= 2);
        let last = audit.last().unwrap();
        assert_eq!(last.policy, "failover");
        assert_eq!(last.winner, "slow");
        let kinds: Vec<&str> = grid.recorder().events().map(|e| e.kind).collect();
        assert!(kinds.contains(&"selection.failover"));
    }

    #[test]
    fn all_replicas_dead_is_reported() {
        let mut grid = with_file(small_grid(25));
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        let fast_node = grid.node_of(grid.host_id("fast").unwrap());
        let slow_node = grid.node_of(grid.host_id("slow").unwrap());
        grid.install_fault_plan(
            FaultPlan::new()
                .host_blackout(
                    SimTime::from_secs_f64(121.0),
                    SimDuration::from_secs(100_000),
                    fast_node,
                )
                .host_blackout(
                    SimTime::from_secs_f64(121.0),
                    SimDuration::from_secs(100_000),
                    slow_node,
                ),
        );
        let err = grid
            .fetch_with_recovery(
                client,
                "file-a",
                FetchOptions::default().with_parallelism(4),
                &quick_recovery(),
            )
            .unwrap_err();
        match err {
            GridError::AllReplicasFailed { lfn, failed } => {
                assert_eq!(lfn, "file-a");
                assert_eq!(failed.len(), 2);
            }
            other => panic!("unexpected error {other}"),
        }
    }
}

#[cfg(test)]
mod unroutable_tests {
    use super::*;
    use crate::ReplayJob;
    use datagrid_simnet::topology::{Bandwidth, LinkSpec};

    const MB: u64 = 1 << 20;

    /// Two islands, `a`–`b` and `c`–`d`, with no link between them. The
    /// catalog runs on `a`; `file-a` lives only on `d`.
    fn islands() -> DataGrid {
        let mut b = GridBuilder::new(7);
        let idle = || LoadModel::Constant(0.0);
        let link = LinkSpec::new(Bandwidth::from_mbps(80.0), SimDuration::from_millis(5));
        let mut node = |name| b.add_host(HostSpec::new(name), idle(), idle());
        let (a, bb, c, d) = (node("a"), node("b"), node("c"), node("d"));
        b.topology_mut().add_duplex_link(a, bb, link);
        b.topology_mut().add_duplex_link(c, d, link);
        let mut grid = b.build();
        grid.catalog_mut()
            .register_logical("file-a".parse().unwrap(), 4 * MB)
            .unwrap();
        grid.place_replica("file-a", "d").unwrap();
        grid
    }

    fn unroutable(from: &str, to: &str) -> GridError {
        GridError::Unroutable {
            from: from.into(),
            to: to.into(),
        }
    }

    #[test]
    fn client_cut_off_from_the_catalog_gets_an_error() {
        let mut grid = islands();
        let c = grid.host_id("c").unwrap();
        assert_eq!(
            grid.score_candidates(c, "file-a").unwrap_err(),
            unroutable("c", "a")
        );
        assert_eq!(grid.fetch(c, "file-a").unwrap_err(), unroutable("c", "a"));
        assert_eq!(grid.network().flow_count_by_tag(FlowTag::User), 0);
    }

    #[test]
    fn replica_cut_off_from_the_client_gets_an_error() {
        let mut grid = islands();
        let b = grid.host_id("b").unwrap();
        assert_eq!(
            grid.score_candidates(b, "file-a").unwrap_err(),
            unroutable("d", "b")
        );
        assert_eq!(grid.fetch(b, "file-a").unwrap_err(), unroutable("d", "b"));
        let jobs = [ReplayJob {
            at: SimTime::ZERO,
            client: b,
            lfn: "file-a".into(),
        }];
        let err = grid
            .replay_concurrent(&jobs, FetchOptions::default(), &RecoveryOptions::default())
            .unwrap_err();
        assert_eq!(err, unroutable("d", "b"));
        let a = grid.host_id("a").unwrap();
        let d = grid.host_id("d").unwrap();
        let err = grid
            .transfer_between(d, a, TransferRequest::new(MB))
            .unwrap_err();
        assert_eq!(err, unroutable("d", "a"));
        assert_eq!(grid.network().flow_count_by_tag(FlowTag::User), 0);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use datagrid_simnet::topology::{Bandwidth, LinkSpec};

    #[test]
    fn watched_links_collect_samples_on_ticks() {
        let mut b = GridBuilder::new(42);
        let a = b.add_host(
            HostSpec::new("a"),
            LoadModel::Constant(0.1),
            LoadModel::Constant(0.1),
        );
        let c = b.add_host(
            HostSpec::new("c"),
            LoadModel::Constant(0.1),
            LoadModel::Constant(0.1),
        );
        let (fwd, _) = b.topology_mut().add_duplex_link(
            a,
            c,
            LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(2)),
        );
        b.watch_links([fwd]);
        b.monitor_path(a, c);
        let mut grid = b.build();
        grid.warm_up(SimDuration::from_secs(65));
        let trace = grid.network_trace().link(fwd).expect("watched");
        // Ticks at 1, 11, ..., 61 s -> 7 samples.
        assert!(
            trace.samples().len() >= 6,
            "samples {}",
            trace.samples().len()
        );
        // Probes occasionally light the link up.
        assert!(trace.peak().unwrap() >= 0.0);
    }
}

#[cfg(test)]
mod scratch_tests {
    use super::tests::{small_grid, with_file};
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn score_scratch_hit_returns_identical_ranking() {
        let mut grid = with_file(small_grid(11));
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        let fresh = grid.score_candidates(client, "file-a").unwrap();
        let (h0, m0) = grid.score_scratch_stats();
        let cached = grid.score_candidates(client, "file-a").unwrap();
        let (h1, m1) = grid.score_scratch_stats();
        assert_eq!(h1, h0 + 1, "second identical query must hit");
        assert_eq!(m1, m0, "second identical query must not recompute");
        assert_eq!(fresh, cached, "cache must reproduce the ranking exactly");
    }

    #[test]
    fn score_scratch_is_per_client_and_per_lfn() {
        let mut grid = with_file(small_grid(12));
        grid.catalog_mut()
            .register_logical("file-b".parse().unwrap(), MB)
            .unwrap();
        grid.place_replica("file-b", "fast").unwrap();
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        let fast = grid.host_id("fast").unwrap();
        grid.score_candidates(client, "file-a").unwrap();
        let (_, m0) = grid.score_scratch_stats();
        // Different client: its slot is cold.
        grid.score_candidates(fast, "file-a").unwrap();
        // Different file on a warm client slot: entry answers for one lfn.
        grid.score_candidates(client, "file-b").unwrap();
        let (h1, m1) = grid.score_scratch_stats();
        assert_eq!(m1, m0 + 2, "new client and new lfn both recompute");
        assert_eq!(h1, 0);
    }

    #[test]
    fn monitor_tick_invalidates_scores() {
        let mut grid = with_file(small_grid(13));
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        grid.score_candidates(client, "file-a").unwrap();
        let (_, m0) = grid.score_scratch_stats();
        // Crossing a monitor tick refreshes MDS readings: recompute.
        grid.warm_up(SimDuration::from_secs(15));
        grid.score_candidates(client, "file-a").unwrap();
        let (_, m1) = grid.score_scratch_stats();
        assert_eq!(m1, m0 + 1, "post-tick query must recompute");
    }

    #[test]
    fn catalog_and_suspect_mutations_invalidate_scores() {
        let mut grid = with_file(small_grid(14));
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        let before = grid.score_candidates(client, "file-a").unwrap();
        let fast_loc = before
            .iter()
            .find(|c| c.host_name == "fast")
            .unwrap()
            .location
            .clone();
        grid.catalog_mut().mark_suspect(&fast_loc);
        let (_, m0) = grid.score_scratch_stats();
        let after = grid.score_candidates(client, "file-a").unwrap();
        let (_, m1) = grid.score_scratch_stats();
        assert_eq!(m1, m0 + 1, "suspect mark must force a recompute");
        let fast_after = after.iter().find(|c| c.host_name == "fast").unwrap();
        let fast_before = before.iter().find(|c| c.host_name == "fast").unwrap();
        assert!(
            fast_after.score < fast_before.score,
            "suspect penalty must show up in the recomputed ranking"
        );
        // Placing a replica (catalog mutation) also invalidates.
        grid.catalog_mut()
            .register_logical("file-c".parse().unwrap(), MB)
            .unwrap();
        grid.place_replica("file-c", "slow").unwrap();
        grid.score_candidates(client, "file-a").unwrap();
        let (_, m2) = grid.score_scratch_stats();
        assert_eq!(m2, m1 + 1, "catalog growth must force a recompute");
    }

    #[test]
    fn contention_aware_scratch_keys_on_network_version() {
        let mut grid = with_file(small_grid(15));
        grid.set_selection_mode(SelectionMode::ContentionAware);
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        grid.score_candidates(client, "file-a").unwrap();
        let (h0, m0) = grid.score_scratch_stats();
        // No network change between queries: residual reads still hold.
        grid.score_candidates(client, "file-a").unwrap();
        let (h1, _) = grid.score_scratch_stats();
        assert_eq!(h1, h0 + 1);
        // A background flow changes residual bandwidth: entry goes stale
        // even though no epoch-advancing event fired.
        let fast_node = grid.node_of(grid.host_id("fast").unwrap());
        let client_node = grid.node_of(client);
        grid.sim
            .start_flow(FlowSpec::new(fast_node, client_node, 64 * MB));
        grid.score_candidates(client, "file-a").unwrap();
        let (_, m1) = grid.score_scratch_stats();
        assert_eq!(m1, m0 + 1, "residual entries must recompute on flow start");
    }

    /// Regression: a fault transition driven through the grid's event loop
    /// bumps the selection epoch, so a warm scratch entry must re-rank
    /// instead of serving the pre-fault ranking. Static mode isolates the
    /// epoch path — its entries never key on the network version, so only
    /// the `FaultChanged` invalidation can force the recompute.
    #[test]
    fn fault_transition_invalidates_scores() {
        use datagrid_simnet::fault::{FaultKind, ScheduledFault};

        let mut grid = with_file(small_grid(16));
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        grid.score_candidates(client, "file-a").unwrap();
        let (h0, _) = grid.score_scratch_stats();
        grid.score_candidates(client, "file-a").unwrap();
        let (h1, m0) = grid.score_scratch_stats();
        assert_eq!(h1, h0 + 1, "pre-fault repeat query must hit");
        // Black out the fast replica's host mid-run; advance only 2 s so
        // no monitor tick (10 s cadence) can mask the fault-epoch bump.
        let fast_node = grid.node_of(grid.host_id("fast").unwrap());
        let mut plan = FaultPlan::new();
        plan.push(ScheduledFault {
            at: grid.now() + SimDuration::from_secs(1),
            duration: SimDuration::from_secs(30),
            kind: FaultKind::HostBlackout { node: fast_node },
        });
        grid.install_fault_plan(plan);
        grid.warm_up(SimDuration::from_secs(2));
        grid.score_candidates(client, "file-a").unwrap();
        let (h2, m1) = grid.score_scratch_stats();
        assert_eq!(m1, m0 + 1, "post-blackout query must recompute");
        assert_eq!(h2, h1, "post-blackout query must not serve the stale entry");
    }

    /// The post-fault re-rank must be a *different* ranking where the
    /// fault is observable: with contention-aware scoring a blacked-out
    /// replica host's residual bandwidth collapses, so its recomputed
    /// score must drop below its pre-fault value.
    #[test]
    fn blackout_rerank_degrades_dead_replica() {
        use datagrid_simnet::fault::{FaultKind, ScheduledFault};

        let mut grid = with_file(small_grid(17));
        grid.set_selection_mode(SelectionMode::ContentionAware);
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("client").unwrap();
        let before = grid.score_candidates(client, "file-a").unwrap();
        let fast_before = before.iter().find(|c| c.host_name == "fast").unwrap();
        let fast_node = grid.node_of(grid.host_id("fast").unwrap());
        let mut plan = FaultPlan::new();
        plan.push(ScheduledFault {
            at: grid.now() + SimDuration::from_secs(1),
            duration: SimDuration::from_secs(30),
            kind: FaultKind::HostBlackout { node: fast_node },
        });
        grid.install_fault_plan(plan);
        grid.warm_up(SimDuration::from_secs(2));
        let after = grid.score_candidates(client, "file-a").unwrap();
        let fast_after = after.iter().find(|c| c.host_name == "fast").unwrap();
        assert!(
            fast_after.score < fast_before.score,
            "blacked-out replica must re-rank lower: {} -> {}",
            fast_before.score,
            fast_after.score
        );
    }
}

/// [`DataGrid::transfer_between_with_recovery`] on a bare two-host grid:
/// the retry episode's failure paths. (Resume, restart-from-zero,
/// determinism and the clean path are covered at grid level by
/// `tests/faults.rs`, `tests/determinism.rs` and `recovery_grid_tests`.)
#[cfg(test)]
mod transfer_recovery_tests {
    use super::*;
    use datagrid_gridftp::retry::RetryPolicy;
    use datagrid_gridftp::TransferError;
    use datagrid_simnet::topology::{Bandwidth, LinkSpec};

    const MB: u64 = 1 << 20;

    /// a --80Mbps-- b (64 MiB take ~6.7 s), plus the a->b link id.
    fn net() -> (DataGrid, HostId, HostId, LinkId) {
        let mut b = GridBuilder::new(7);
        let idle = || LoadModel::Constant(0.0);
        let a = b.add_host(HostSpec::new("a"), idle(), idle());
        let z = b.add_host(HostSpec::new("b"), idle(), idle());
        let link = LinkSpec::new(Bandwidth::from_mbps(80.0), SimDuration::from_millis(5));
        let (fwd, _) = b.topology_mut().add_duplex_link(a, z, link);
        let grid = b.build();
        let (src, dst) = (grid.host_id("a").unwrap(), grid.host_id("b").unwrap());
        (grid, src, dst, fwd)
    }

    fn recovery(max_attempts: u32) -> RecoveryOptions {
        let retry = RetryPolicy::default()
            .with_max_attempts(max_attempts)
            .with_base_backoff(SimDuration::from_secs(2))
            .with_jitter(0.0);
        RecoveryOptions::default()
            .with_retry(retry)
            .with_stall_timeout(SimDuration::from_secs(1))
    }

    #[test]
    fn permanent_outage_exhausts_retries() {
        let (mut grid, a, b, fwd) = net();
        let at = SimTime::from_secs_f64(2.0);
        grid.install_fault_plan(FaultPlan::new().link_down(
            at,
            SimDuration::from_secs(100_000),
            fwd,
        ));
        let req = TransferRequest::new(64 * MB).with_parallelism(4);
        let err = grid
            .transfer_between_with_recovery(a, b, req, &recovery(2))
            .unwrap_err();
        let GridError::Transfer(TransferError::RetriesExhausted {
            attempts,
            delivered,
        }) = err
        else {
            panic!("unexpected error {err}");
        };
        assert_eq!(attempts, 2);
        assert!(delivered > 0, "first attempt committed a prefix");
        assert!(delivered < 64 * MB);
        assert_eq!(grid.network().flow_count_by_tag(FlowTag::User), 0);
    }

    #[test]
    fn connection_drop_is_detected_and_retried() {
        let (mut grid, a, b, _) = net();
        let at = SimTime::from_secs_f64(2.0);
        grid.install_fault_plan(FaultPlan::new().connection_drop(at, grid.node_of(b)));
        // The drop at 2 s lands mid-data.
        let req = TransferRequest::new(64 * MB).with_parallelism(2);
        let rec = grid
            .transfer_between_with_recovery(a, b, req, &recovery(4))
            .expect("recovers");
        assert!(rec.attempts >= 2, "drop must force a retry");
        assert!(rec.payload_moved >= 64 * MB);
    }
}
