//! The three benchmark workloads and their seeded inputs.
//!
//! Every workload uses the catalog shape of
//! `datagrid_testbed::gridscale::build_cell`: 48 files, 2 replicas per
//! file, a 4 MiB median size, contention-aware selection and a 60 s
//! sensor warm-up. Inputs are a pure function of the seed: the request
//! trace and, for the long-haul pair, the host-blackout schedule.

use std::fmt::Write as _;

use datagrid_core::prelude::{FaultPlan, SelectionMode};
use datagrid_simnet::rng::SimRng;
use datagrid_simnet::time::{SimDuration, SimTime};
use datagrid_testbed::gridscale::all_paper_hosts;
use datagrid_testbed::workload::{grid_workload, GridWorkload, GridWorkloadSpec};

/// The seed of the ROADMAP reference cells.
pub const DEFAULT_SEED: u64 = 20_050_905;

/// Logical files in the generated catalog.
pub const FILES: usize = 48;
/// Replica placements per file.
pub const REPLICAS_PER_FILE: usize = 2;
/// Median generated file size.
pub const MEDIAN_BYTES: u64 = 4 << 20;
/// Sensor warm-up before the timed phase.
pub const WARM_UP: SimDuration = SimDuration::from_secs(60);
/// Spacing of the long-haul host blackouts.
pub const BLACKOUT_PERIOD: SimDuration = SimDuration::from_secs(300);
/// How long each long-haul blackout darkens its host.
pub const BLACKOUT_LEN: SimDuration = SimDuration::from_secs(90);
/// Selection mode of every workload.
pub const MODE: SelectionMode = SelectionMode::ContentionAware;

/// How a workload's requests reach the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// One `DataGrid::replay_concurrent` call, open-loop arrivals.
    Replay,
    /// `advance_to(job.at)` then `DataGrid::fetch_with_recovery` per job,
    /// closed loop.
    Blocking,
}

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 4096 one-shot clients in one saturated component.
    Contended,
    /// 12 clients × 1,500 requests under rotating host blackouts.
    LonghaulReplay,
    /// The long-haul trace and plan through the blocking fetch path.
    LonghaulBlocking,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload::Contended,
    Workload::LonghaulReplay,
    Workload::LonghaulBlocking,
];

impl Workload {
    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Contended => "contended-4096",
            Workload::LonghaulReplay => "longhaul-replay",
            Workload::LonghaulBlocking => "longhaul-blocking",
        }
    }

    /// Which public entry point serves the requests.
    pub fn driver(self) -> Driver {
        match self {
            Workload::Contended | Workload::LonghaulReplay => Driver::Replay,
            Workload::LonghaulBlocking => Driver::Blocking,
        }
    }

    /// Request traces measured per run: `contended-4096` replays four
    /// seeds derived from the run seed (see [`sub_seed`]) because a single
    /// 4096-client burst moves its median latency and replay time by about
    /// 14% (interquartile range over 18 seeds); the long-haul traces
    /// average over 18,000 fetches already.
    pub fn traces(self) -> usize {
        match self {
            Workload::Contended => 4,
            Workload::LonghaulReplay | Workload::LonghaulBlocking => 1,
        }
    }

    /// The full-size shape the benchmark measures.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Contended => Shape {
                clients: 4096,
                requests_per_client: 1,
                mean_inter_arrival: SimDuration::from_secs(2),
                blackouts: false,
            },
            Workload::LonghaulReplay | Workload::LonghaulBlocking => Shape {
                clients: 12,
                requests_per_client: 1500,
                mean_inter_arrival: SimDuration::from_secs(60),
                blackouts: true,
            },
        }
    }
}

/// The size of a workload's request trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Logical clients, mapped round-robin onto the 12 testbed hosts.
    pub clients: usize,
    /// Fetches issued by each client.
    pub requests_per_client: usize,
    /// Mean of each client's exponential inter-arrival time.
    pub mean_inter_arrival: SimDuration,
    /// Whether the seeded host-blackout plan is installed.
    pub blackouts: bool,
}

impl Shape {
    /// A reduced shape for the benchmark's own tests: same catalog, same
    /// fault pattern, a few hundred fetches.
    pub fn reduced(self) -> Shape {
        if self.blackouts {
            Shape {
                requests_per_client: 25,
                ..self
            }
        } else {
            Shape {
                clients: 64,
                ..self
            }
        }
    }

    /// Seed of the grid's own randomness (sensor noise, background
    /// traffic, retry jitter): the reference cell's, whatever the run
    /// seed, for the same reason as the catalog (see [`Inputs::generate`]).
    pub fn grid_seed(&self) -> u64 {
        cell_seed(DEFAULT_SEED, self.clients)
    }

    fn spec(&self) -> GridWorkloadSpec {
        GridWorkloadSpec {
            clients: self.clients,
            files: FILES,
            replicas_per_file: REPLICAS_PER_FILE,
            median_bytes: MEDIAN_BYTES,
            requests_per_client: self.requests_per_client,
            mean_inter_arrival: self.mean_inter_arrival,
        }
    }
}

/// The per-cell seed `datagrid_testbed::gridscale` derives for a
/// contention-aware cell, so `contended-4096` at [`DEFAULT_SEED`] is the
/// 4096-client cell of `BENCH_profile.json` and `BENCH_grid.json`.
pub fn cell_seed(seed: u64, clients: usize) -> u64 {
    seed ^ (clients as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xC047
}

/// The seed of a run's `k`-th trace: the run seed itself first, then
/// hashes of `(seed, k)`, so consecutive run seeds share no trace.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        fnv1a(format!("{seed}/{k}").as_bytes())
    }
}

/// One scheduled host blackout, in absolute simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blackout {
    /// When the host goes dark.
    pub at: SimTime,
    /// The darkened testbed host.
    pub host: &'static str,
}

/// Everything a run consumes: the fixed reference catalog plus the
/// trace and blackouts drawn from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Catalog, placements and request trace.
    pub workload: GridWorkload,
    /// Host blackouts, empty for workloads without faults.
    pub blackouts: Vec<Blackout>,
}

impl Inputs {
    /// Generates the inputs of a workload of `shape` at `seed`.
    ///
    /// The catalog (file sizes and replica placements) is the one the
    /// cell draws at [`DEFAULT_SEED`], whatever `seed` is: placements
    /// decide which site links carry the load, and drawing them per seed
    /// moves the simulated makespan of `contended-4096` by up to a factor
    /// of two between seeds. The seed drives the request trace and the
    /// blackout plan, so at [`DEFAULT_SEED`] the inputs are exactly those
    /// of `datagrid_testbed::gridscale::build_cell`.
    pub fn generate(shape: &Shape, seed: u64) -> Inputs {
        let cseed = cell_seed(seed, shape.clients);
        let hosts = all_paper_hosts();
        let mut workload = grid_workload(&shape.spec(), &hosts, cseed);
        // The catalog draws do not depend on the client count or trace
        // length, so a one-request spec yields the reference catalog.
        let catalog_spec = GridWorkloadSpec {
            clients: 1,
            requests_per_client: 1,
            ..shape.spec()
        };
        let reference = grid_workload(
            &catalog_spec,
            &hosts,
            cell_seed(DEFAULT_SEED, shape.clients),
        );
        workload.files = reference.files;
        workload.placements = reference.placements;
        let blackouts = if shape.blackouts {
            let horizon = workload
                .trace
                .requests()
                .last()
                .map_or(SimTime::ZERO, |r| r.at);
            blackout_schedule(cseed, horizon)
        } else {
            Vec::new()
        };
        Inputs {
            workload,
            blackouts,
        }
    }

    /// The blackout schedule as a fault plan for a grid whose host nodes
    /// `node_of` resolves.
    pub fn fault_plan(
        &self,
        node_of: impl Fn(&str) -> Option<datagrid_simnet::topology::NodeId>,
    ) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for b in &self.blackouts {
            let node = node_of(b.host).ok_or_else(|| format!("unknown host {}", b.host))?;
            plan = plan.host_blackout(b.at, BLACKOUT_LEN, node);
        }
        Ok(plan)
    }

    /// FNV-1a digest of the trace, catalog and blackout schedule.
    pub fn digest(&self) -> u64 {
        let mut text = String::new();
        for ((lfn, bytes), hosts) in self.workload.files.iter().zip(&self.workload.placements) {
            let _ = writeln!(text, "file {lfn} {bytes} {}", hosts.join(","));
        }
        for r in self.workload.trace.requests() {
            let _ = writeln!(text, "req {} {} {}", r.at.as_nanos(), r.client, r.lfn);
        }
        for b in &self.blackouts {
            let _ = writeln!(text, "dark {} {}", b.at.as_nanos(), b.host);
        }
        fnv1a(text.as_bytes())
    }
}

/// One blackout every [`BLACKOUT_PERIOD`], the first one period after
/// the warm-up, until the last arrival, cycling through the 12 hosts in
/// an order shuffled from `cseed`.
fn blackout_schedule(cseed: u64, horizon: SimTime) -> Vec<Blackout> {
    let mut rng = SimRng::seed_from_u64(cseed).fork("blackouts");
    let mut order = all_paper_hosts();
    for i in (1..order.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    let mut out = Vec::new();
    let mut at = SimTime::ZERO + WARM_UP + BLACKOUT_PERIOD;
    while at <= horizon {
        out.push(Blackout {
            at,
            host: order[out.len() % order.len()],
        });
        at += BLACKOUT_PERIOD;
    }
    out
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
