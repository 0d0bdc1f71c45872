//! Exhaustive model checking of the fetch state machine.
//!
//! [`replay`](super::replay) is the grid's only fetch state machine. It
//! drives every job through the phases
//! `Arrival → Deciding → {LocalRead | Transferring}`, with `Backoff`
//! between retry attempts and suspect-mark/next-best failover between
//! replicas. A workload replay interleaves many such machines over one
//! simulator; every blocking fetch ([`DataGrid::fetch_with`],
//! [`DataGrid::fetch_from`], [`DataGrid::fetch_with_recovery`]) runs one
//! of them, entering at `Deciding`. Interleaving makes the driver's
//! guarantees ("a fetch never hangs and never leaks flows") hard to see
//! by reading any single trace.
//!
//! This module restates one job's machine as an explicit transition
//! system, abstracting the *timing* nondeterminism away and keeping the
//! *outcome* nondeterminism (a transfer attempt may complete or stall, the
//! selector may pick any candidate). [`explore`] then enumerates **every**
//! reachable state by breadth-first search and proves, for a given policy
//! configuration:
//!
//! * **No stuck client** — every non-terminal state has at least one
//!   successor, and a terminal state is reachable from every reachable
//!   state (no deadlock, no livelock).
//! * **Bounded** — retry attempts never exceed the policy's
//!   `max_attempts`, abandoned replicas never exceed
//!   `min(remote replicas, max_failovers + 1)`, and the whole state space
//!   is finite.
//! * **Terminal soundness** — `Completed` and `Failed` are the only
//!   absorbing states, and `Failed` is only reachable after at least one
//!   abandoned replica.
//!
//! The per-phase transition rules are written to mirror
//! `Driver::{on_control, decide, start_attempt, on_session_event,
//! abandon_replica}` line for line. Two integration suites close the
//! loop through the real driver: `tests/modelcheck.rs` replays exhaustive
//! small-grid configurations (≤3 clients × ≤3 replicas, with and without
//! faults), and `tests/modelcheck_blocking.rs` fetches the same
//! configurations with the blocking `fetch_with_recovery`. Both check
//! that every concrete outcome lands in a state this model declares
//! reachable and terminal.
//!
//! [`DataGrid::fetch_with`]: super::DataGrid::fetch_with
//! [`DataGrid::fetch_from`]: super::DataGrid::fetch_from
//! [`DataGrid::fetch_with_recovery`]: super::DataGrid::fetch_with_recovery

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Phase of one modelled fetch job — the abstraction of
/// `replay::Phase` plus the two terminal outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ModelPhase {
    /// Waiting for the arrival timer.
    Arrival,
    /// Waiting for the catalog + selection round trip.
    Deciding,
    /// Waiting out a retry backoff pause.
    Backoff,
    /// A synthesised local disk read (cannot stall).
    LocalRead,
    /// A GridFTP attempt that may complete or stall.
    Transferring,
    /// Terminal: full file delivered.
    Completed,
    /// Terminal: every candidate the policy allowed was abandoned.
    Failed,
}

impl ModelPhase {
    /// `true` for the two absorbing outcomes.
    pub fn is_terminal(self) -> bool {
        matches!(self, ModelPhase::Completed | ModelPhase::Failed)
    }
}

/// One state of the modelled job: phase plus the two counters that the
/// recovery policy branches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ModelState {
    /// Current phase.
    pub phase: ModelPhase,
    /// Attempts against the current replica (reset on failover).
    pub episode_attempts: u32,
    /// Replicas abandoned so far.
    pub failed: u32,
}

impl ModelState {
    /// The initial state: waiting for the arrival timer.
    pub fn initial() -> Self {
        ModelState {
            phase: ModelPhase::Arrival,
            episode_attempts: 0,
            failed: 0,
        }
    }
}

impl fmt::Display for ModelState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}(attempt {}, {} failed over)",
            self.phase, self.episode_attempts, self.failed
        )
    }
}

/// Policy configuration of the modelled fetch — the knobs `Driver`
/// branches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchModel {
    /// Replicas of the requested file (including a local one, if any).
    pub replicas: u32,
    /// Whether one of the candidates is the client itself (a local hit
    /// becomes a synthesised disk read that cannot stall or be abandoned).
    pub local_hit: bool,
    /// `RetryPolicy::max_attempts`: attempts per replica before abandon.
    pub max_attempts: u32,
    /// `RecoveryOptions::max_failovers`: abandons before giving up.
    pub max_failovers: u32,
}

impl FetchModel {
    /// Remote (abandonable) candidates.
    fn remote_replicas(&self) -> u32 {
        self.replicas.saturating_sub(u32::from(self.local_hit))
    }

    /// All successor states of `s` — the union over every way the
    /// environment (selector choice, transfer outcome) can resolve the
    /// phase's pending nondeterminism. Empty iff `s` is terminal.
    pub fn successors(&self, s: ModelState) -> Vec<ModelState> {
        let mut out = Vec::new();
        match s.phase {
            // Arrival timer fires -> the decision round trip begins.
            ModelPhase::Arrival => out.push(ModelState {
                phase: ModelPhase::Deciding,
                ..s
            }),
            // `decide()`: pick any candidate not yet abandoned, or fail
            // the job when none is left. The local candidate (if any) can
            // never be abandoned, so it stays available on every round.
            ModelPhase::Deciding => {
                if self.local_hit {
                    out.push(ModelState {
                        phase: ModelPhase::LocalRead,
                        episode_attempts: 0,
                        failed: s.failed,
                    });
                }
                if s.failed < self.remote_replicas() {
                    // `start_attempt` counts the episode's first attempt.
                    out.push(ModelState {
                        phase: ModelPhase::Transferring,
                        episode_attempts: 1,
                        failed: s.failed,
                    });
                }
                if out.is_empty() {
                    out.push(ModelState {
                        phase: ModelPhase::Failed,
                        ..s
                    });
                }
            }
            // A local read always delivers.
            ModelPhase::LocalRead => out.push(ModelState {
                phase: ModelPhase::Completed,
                ..s
            }),
            // `on_session_event`: the attempt completes, or stalls — and a
            // stall either backs off for another attempt or abandons the
            // replica (`RetryPolicy::exhausted`, `abandon_replica`).
            ModelPhase::Transferring => {
                out.push(ModelState {
                    phase: ModelPhase::Completed,
                    ..s
                });
                if s.episode_attempts >= self.max_attempts.max(1) {
                    let failed = s.failed + 1;
                    out.push(if failed > self.max_failovers {
                        ModelState {
                            phase: ModelPhase::Failed,
                            episode_attempts: s.episode_attempts,
                            failed,
                        }
                    } else {
                        ModelState {
                            phase: ModelPhase::Deciding,
                            episode_attempts: 0,
                            failed,
                        }
                    });
                } else {
                    out.push(ModelState {
                        phase: ModelPhase::Backoff,
                        ..s
                    });
                }
            }
            // Backoff timer fires -> the next attempt at the same replica.
            ModelPhase::Backoff => out.push(ModelState {
                phase: ModelPhase::Transferring,
                episode_attempts: s.episode_attempts + 1,
                failed: s.failed,
            }),
            ModelPhase::Completed | ModelPhase::Failed => {}
        }
        out
    }
}

/// A property the exhaustive search falsified, with the witness state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelViolation {
    /// A non-terminal state with no successor: the job is stuck.
    Deadlock(ModelState),
    /// A reachable state from which no terminal state is reachable.
    TerminalUnreachable(ModelState),
    /// A counter escaped its policy bound.
    BoundExceeded(ModelState),
    /// `Failed` was reached without a single abandoned replica.
    SpuriousFailure(ModelState),
}

impl fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelViolation::Deadlock(s) => write!(f, "deadlock: {s} has no successor"),
            ModelViolation::TerminalUnreachable(s) => {
                write!(f, "no terminal state reachable from {s}")
            }
            ModelViolation::BoundExceeded(s) => {
                write!(f, "policy bound exceeded in {s}")
            }
            ModelViolation::SpuriousFailure(s) => {
                write!(f, "{s} failed without abandoning any replica")
            }
        }
    }
}

impl std::error::Error for ModelViolation {}

/// Summary of one exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration {
    /// Distinct reachable states.
    pub states: usize,
    /// Transitions among them.
    pub transitions: usize,
    /// Every reachable terminal state — concrete replay outcomes must
    /// land on one of these (matched on phase and failover count).
    pub terminals: BTreeSet<ModelState>,
}

impl Exploration {
    /// `true` if [`ModelPhase::Completed`] is reachable.
    pub fn completed_reachable(&self) -> bool {
        self.terminals
            .iter()
            .any(|s| s.phase == ModelPhase::Completed)
    }

    /// `true` if [`ModelPhase::Failed`] is reachable.
    pub fn failed_reachable(&self) -> bool {
        self.terminals.iter().any(|s| s.phase == ModelPhase::Failed)
    }

    /// `true` if the model reaches a terminal of `phase` after exactly
    /// `failovers` abandoned replicas — the projection a concrete
    /// [`ReplayOutcome`](super::replay::ReplayOutcome) can be checked
    /// against.
    pub fn admits_outcome(&self, phase: ModelPhase, failovers: u32) -> bool {
        self.terminals
            .iter()
            .any(|s| s.phase == phase && s.failed == failovers)
    }
}

/// Enumerates every state reachable from [`ModelState::initial`] and
/// checks the no-stuck-client, boundedness and terminal-soundness
/// properties on each.
///
/// # Errors
///
/// Returns the first [`ModelViolation`] found, with its witness state.
pub fn explore(model: &FetchModel) -> Result<Exploration, ModelViolation> {
    let failover_bound = model
        .remote_replicas()
        .min(model.max_failovers.saturating_add(1));
    let mut succs: BTreeMap<ModelState, Vec<ModelState>> = BTreeMap::new();
    let mut queue = VecDeque::from([ModelState::initial()]);
    let mut transitions = 0usize;
    while let Some(s) = queue.pop_front() {
        if succs.contains_key(&s) {
            continue;
        }
        if s.episode_attempts > model.max_attempts.max(1) || s.failed > failover_bound {
            return Err(ModelViolation::BoundExceeded(s));
        }
        if s.phase == ModelPhase::Failed && s.failed == 0 {
            return Err(ModelViolation::SpuriousFailure(s));
        }
        let next = model.successors(s);
        if next.is_empty() && !s.phase.is_terminal() {
            return Err(ModelViolation::Deadlock(s));
        }
        transitions += next.len();
        queue.extend(next.iter().copied());
        succs.insert(s, next);
    }
    // Backward fixed point: states that can reach a terminal. Everything
    // reachable must be in it (no livelock).
    let mut can_finish: BTreeSet<ModelState> = succs
        .keys()
        .copied()
        .filter(|s| s.phase.is_terminal())
        .collect();
    loop {
        let grown: Vec<ModelState> = succs
            .iter()
            .filter(|(s, next)| {
                !can_finish.contains(s) && next.iter().any(|n| can_finish.contains(n))
            })
            .map(|(s, _)| *s)
            .collect();
        if grown.is_empty() {
            break;
        }
        can_finish.extend(grown);
    }
    if let Some(&stuck) = succs.keys().find(|s| !can_finish.contains(s)) {
        return Err(ModelViolation::TerminalUnreachable(stuck));
    }
    Ok(Exploration {
        states: succs.len(),
        transitions,
        terminals: succs
            .keys()
            .copied()
            .filter(|s| s.phase.is_terminal())
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every policy configuration the replay benchmarks exercise (and
    /// then some) explores clean: no deadlock, no livelock, bounded.
    #[test]
    fn exhaustive_sweep_over_small_policies() {
        let mut total_states = 0usize;
        for replicas in 1..=3u32 {
            for local_hit in [false, true] {
                for max_attempts in 1..=3u32 {
                    for max_failovers in 0..=3u32 {
                        let model = FetchModel {
                            replicas,
                            local_hit,
                            max_attempts,
                            max_failovers,
                        };
                        let report = explore(&model).unwrap_or_else(|v| {
                            panic!("{model:?}: {v}");
                        });
                        assert!(
                            report.completed_reachable(),
                            "{model:?}: success must be reachable"
                        );
                        // A job can fail only by abandoning replicas: with
                        // a local copy always available it must burn the
                        // whole failover budget on remote ones; without
                        // one, any abandonable replica opens a route to
                        // exhausting the candidate list.
                        let expect_failable = if local_hit {
                            model.remote_replicas() > max_failovers
                        } else {
                            model.remote_replicas() > 0
                        };
                        assert_eq!(
                            report.failed_reachable(),
                            expect_failable,
                            "{model:?}: failure reachability mismatch"
                        );
                        assert!(
                            report.states <= 256,
                            "{model:?}: state space blew up to {}",
                            report.states
                        );
                        total_states += report.states;
                    }
                }
            }
        }
        // 72 configurations; keep a coarse floor so a future refactor
        // that accidentally prunes the search is caught.
        assert!(total_states > 500, "explored only {total_states} states");
    }

    /// The paper's Table 1 recovery settings, exactly.
    #[test]
    fn default_policy_explores_clean() {
        let model = FetchModel {
            replicas: 3,
            local_hit: false,
            max_attempts: 4,
            max_failovers: 3,
        };
        let report = explore(&model).expect("default policy model checks");
        assert!(report.completed_reachable() && report.failed_reachable());
        // 4 attempts x 3 replicas x failover rounds: a real state space,
        // every edge of which was walked.
        assert!(report.states > 20 && report.transitions >= report.states - 1);
    }

    /// A single local replica can never fail.
    #[test]
    fn pure_local_hit_never_fails() {
        let model = FetchModel {
            replicas: 1,
            local_hit: true,
            max_attempts: 2,
            max_failovers: 1,
        };
        let report = explore(&model).expect("local-only model checks");
        assert!(report.completed_reachable());
        assert!(!report.failed_reachable());
    }

    /// Seeded mutation: a transition table that loses the abandon edge
    /// livelocks (Backoff <-> Transferring forever is impossible in the
    /// real table, so we emulate it by checking the violation display).
    #[test]
    fn violations_render_their_witness() {
        let v = ModelViolation::Deadlock(ModelState::initial());
        assert!(v.to_string().contains("Arrival"));
        let v = ModelViolation::TerminalUnreachable(ModelState {
            phase: ModelPhase::Backoff,
            episode_attempts: 1,
            failed: 0,
        });
        assert!(v.to_string().contains("Backoff"));
    }
}
