//! Max-min fair bandwidth allocation.
//!
//! The simulator uses a *fluid flow* model: at any instant every active flow
//! transfers at a constant rate, and the set of rates is the **max-min fair**
//! allocation subject to (a) every link's capacity and (b) each flow's own
//! rate cap (its TCP window/loss ceiling and endpoint disk/CPU limits).
//!
//! The allocation is computed by *progressive filling*: grow all flows'
//! rates together; whenever a flow hits its cap it freezes there; whenever a
//! link saturates, every unfrozen flow crossing it freezes at the current
//! fair share. This is the textbook definition of max-min fairness with
//! per-flow upper bounds and is how grid simulators (OptorSim, GridSim)
//! model TCP sharing.
//!
//! Two entry points:
//!
//! * [`max_min_allocation`] — the simple allocating API: one call, one
//!   fresh `Vec<f64>` of rates. Used by tests and one-shot callers.
//! * [`MaxMinSolver`] — the reusable solver the engine's hot path runs on.
//!   All working state (per-flow rate/frozen arrays, per-link
//!   remaining-capacity and user counts) lives in buffers owned by the
//!   solver and is recycled across calls, so a steady-state re-solve
//!   performs **no heap allocation**. The caller names the exact set of
//!   links in play, which lets the engine re-solve only the connected
//!   component of links/flows perturbed by an event instead of the whole
//!   grid.

use crate::topology::LinkId;

/// Input to the solver: one entry per active flow.
#[derive(Debug, Clone)]
pub struct FlowDemand<'a> {
    /// Directed links the flow traverses (empty for node-local flows).
    pub route: &'a [LinkId],
    /// The flow's own rate ceiling in bits per second
    /// (`f64::INFINITY` when uncapped).
    pub cap_bps: f64,
}

/// Converts a per-link user count to `f64` losslessly.
///
/// User counts are bounded by the number of concurrent flows; `f64`
/// represents every integer up to 2^53 exactly, so the conversion is exact
/// for any realistic simulation. The debug assert documents (and, in debug
/// builds, enforces) that bound instead of silently truncating through a
/// lossy `as` cast.
#[inline]
fn users_to_f64(users: usize) -> f64 {
    debug_assert!(
        (users as u64) < (1u64 << 53),
        "per-link user count {users} exceeds f64's exact integer range"
    );
    users as f64
}

/// A reusable progressive-filling solver.
///
/// The solver owns every buffer the algorithm needs; buffers grow to the
/// high-water mark of flows/links seen and are reused afterwards, so
/// repeated calls allocate nothing. Per-link state (`remaining`, `users`)
/// is indexed by **global** link id but only the entries named in the
/// `links` argument of [`MaxMinSolver::solve_with`] are initialised and
/// read — solving a 3-flow component of a 10 000-link grid touches 3 flows
/// and their links, nothing else.
///
/// ```
/// use datagrid_simnet::flow::MaxMinSolver;
/// use datagrid_simnet::topology::LinkId;
///
/// let routes: Vec<Vec<LinkId>> = vec![vec![LinkId::from_index(0)]; 2];
/// let mut solver = MaxMinSolver::new();
/// let rates = solver.solve_with(
///     2,
///     |i| routes[i].as_slice(),
///     |_| f64::INFINITY,
///     &[0],
///     &[100.0],
/// );
/// assert!((rates[0] - 50.0).abs() < 1e-9);
/// assert!((rates[1] - 50.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MaxMinSolver {
    rate: Vec<f64>,
    frozen: Vec<bool>,
    cap: Vec<f64>,
    /// Remaining capacity per global link id (valid only for links in play).
    remaining: Vec<f64>,
    /// Unfrozen flow count per global link id (valid only for links in play).
    users: Vec<usize>,
}

impl MaxMinSolver {
    /// Creates a solver with empty buffers.
    pub fn new() -> Self {
        MaxMinSolver::default()
    }

    /// Element capacity currently held by the reusable buffers.
    pub fn scratch_capacity(&self) -> usize {
        self.rate.capacity()
            + self.frozen.capacity()
            + self.cap.capacity()
            + self.remaining.capacity()
            + self.users.capacity()
    }

    /// Releases the reusable buffers (they regrow on the next solve).
    /// Buffers retain the high-water flow/link counts otherwise; the
    /// engine calls this from [`crate::engine::NetSim::shrink_scratch`].
    pub fn shrink(&mut self) {
        // `Vec::new` does not allocate: each assignment frees a buffer.
        self.rate = Vec::new();
        self.frozen = Vec::new();
        self.cap = Vec::new();
        self.remaining = Vec::new();
        self.users = Vec::new();
    }

    /// Computes the max-min fair allocation for `n` flows.
    ///
    /// * `route(i)` / `cap_bps(i)` describe flow `i` (routes may be asked
    ///   for repeatedly; both must be pure).
    /// * `links` lists the distinct global link indices in play: every link
    ///   appearing in any route must be present exactly once. Links outside
    ///   the list are never read or written.
    /// * `link_capacity_bps` is the global capacity array, indexed by link
    ///   id.
    ///
    /// Returns the rates for flows `0..n`, borrowed from the solver's
    /// internal buffer (valid until the next call).
    ///
    /// Guarantees (tested, including by property tests):
    /// * no link's total allocated rate exceeds its capacity (within 1e-6
    ///   relative tolerance),
    /// * no flow exceeds its cap,
    /// * every flow is *bottlenecked*: it either runs at its cap or crosses
    ///   at least one saturated link (Pareto efficiency),
    /// * flows with empty routes get exactly their cap.
    pub fn solve_with<'r>(
        &mut self,
        n: usize,
        route: impl Fn(usize) -> &'r [LinkId],
        cap_bps: impl Fn(usize) -> f64,
        links: &[u32],
        link_capacity_bps: &[f64],
    ) -> &[f64] {
        self.rate.clear();
        self.frozen.clear();
        self.cap.clear();
        self.rate.resize(n, 0.0);
        self.frozen.resize(n, false);
        self.cap.reserve(n);
        for i in 0..n {
            self.cap.push(cap_bps(i));
        }
        if self.remaining.len() < link_capacity_bps.len() {
            self.remaining.resize(link_capacity_bps.len(), 0.0);
            self.users.resize(link_capacity_bps.len(), 0);
        }
        for &l in links {
            let l = l as usize;
            self.remaining[l] = link_capacity_bps[l];
            self.users[l] = 0;
        }

        // Flows with empty routes consume no link capacity: give them their
        // cap. Everyone else registers as a user on each link it crosses.
        for i in 0..n {
            let r = route(i);
            if r.is_empty() {
                self.rate[i] = self.cap[i];
                self.frozen[i] = true;
            } else {
                for l in r {
                    debug_assert!(
                        l.index() < link_capacity_bps.len(),
                        "route references unknown link {l}"
                    );
                    self.users[l.index()] += 1;
                }
            }
        }

        // `level` is the common rate all unfrozen flows have reached so far.
        let mut level = 0.0_f64;
        loop {
            let active = self.frozen.iter().filter(|&&f| !f).count();
            if active == 0 {
                break;
            }

            // Next event: either some unfrozen flow reaches its cap, or some
            // link with users saturates at the shared fill level.
            let mut next_level = f64::INFINITY;
            for i in 0..n {
                if !self.frozen[i] {
                    next_level = next_level.min(self.cap[i]);
                }
            }
            for &l in links {
                let l = l as usize;
                let u = self.users[l];
                if u > 0 {
                    // All u unfrozen users rise together from `level`; the
                    // link saturates when (x - level) * u == remaining.
                    next_level = next_level.min(level + self.remaining[l] / users_to_f64(u));
                }
            }

            if !next_level.is_finite() {
                // Unfrozen flows with infinite caps and no constraining
                // links: cannot happen — any unfrozen flow has a nonempty
                // route and counts as a user on each of its links.
                // Defensive stop.
                for i in 0..n {
                    if !self.frozen[i] {
                        self.rate[i] = self.cap[i];
                        self.frozen[i] = true;
                    }
                }
                break;
            }

            let delta = (next_level - level).max(0.0);
            // Charge the growth to every link.
            if delta > 0.0 {
                for &l in links {
                    let l = l as usize;
                    if self.users[l] > 0 {
                        self.remaining[l] =
                            (self.remaining[l] - delta * users_to_f64(self.users[l])).max(0.0);
                    }
                }
            }
            level = next_level;

            // Freeze flows at their caps.
            let mut any_frozen = false;
            for i in 0..n {
                if !self.frozen[i] && self.cap[i] <= level + 1e-12 {
                    self.rate[i] = self.cap[i];
                    self.frozen[i] = true;
                    any_frozen = true;
                    for l in route(i) {
                        self.users[l.index()] -= 1;
                    }
                }
            }
            // Freeze flows crossing saturated links at the fill level.
            for i in 0..n {
                if self.frozen[i] {
                    continue;
                }
                let saturated = route(i).iter().any(|l| {
                    self.remaining[l.index()] <= 1e-9 * link_capacity_bps[l.index()].max(1.0)
                });
                if saturated {
                    self.rate[i] = level;
                    self.frozen[i] = true;
                    any_frozen = true;
                    for l in route(i) {
                        self.users[l.index()] -= 1;
                    }
                }
            }

            if !any_frozen {
                // Numerical safety: next_level should always freeze
                // something. If rounding prevented it, freeze the
                // minimum-cap flow.
                let mut best: Option<(usize, f64)> = None;
                for i in 0..n {
                    if !self.frozen[i] && best.is_none_or(|(_, c)| self.cap[i] < c) {
                        best = Some((i, self.cap[i]));
                    }
                }
                if let Some((i, cap)) = best {
                    self.rate[i] = cap.min(level);
                    self.frozen[i] = true;
                    for l in route(i) {
                        self.users[l.index()] -= 1;
                    }
                } else {
                    break;
                }
            }
        }

        &self.rate
    }

    /// The rate computed for flow `i` by the last [`MaxMinSolver::solve_with`]
    /// call.
    pub fn rate(&self, i: usize) -> f64 {
        self.rate[i]
    }
}

/// A flow slot or link index as the solver's `u32` id. Every index fits:
/// `NetSim::start_flow` and `Topology::add_link` refuse to grow past
/// `u32::MAX`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "callers pass slab and link indices"
)]
pub(crate) fn id32(index: usize) -> u32 {
    index as u32
}

/// Computes the max-min fair allocation (allocating convenience wrapper
/// around [`MaxMinSolver`]).
///
/// `link_capacity_bps[l]` is the capacity of link `l` (indexable by every
/// link id appearing in a route). Returns one rate per flow, in the input
/// order. See [`MaxMinSolver::solve_with`] for the guarantees.
///
/// # Panics
///
/// Panics if a route references a link id outside `link_capacity_bps`, or a
/// capacity/cap is negative or NaN.
pub fn max_min_allocation(flows: &[FlowDemand<'_>], link_capacity_bps: &[f64]) -> Vec<f64> {
    for &c in link_capacity_bps {
        assert!(c >= 0.0 && !c.is_nan(), "negative or NaN link capacity {c}");
    }
    for f in flows {
        assert!(
            f.cap_bps >= 0.0 && !f.cap_bps.is_nan(),
            "negative or NaN flow cap"
        );
        for l in f.route {
            assert!(
                l.index() < link_capacity_bps.len(),
                "route references unknown link {l}"
            );
        }
    }
    let links: Vec<u32> = (0..id32(link_capacity_bps.len())).collect();
    let mut solver = MaxMinSolver::new();
    solver
        .solve_with(
            flows.len(),
            |i| flows[i].route,
            |i| flows[i].cap_bps,
            &links,
            link_capacity_bps,
        )
        .to_vec()
}

#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    reason = "tests pin exact values; outside library scope"
)]
mod tests {
    use super::*;

    fn l(i: u32) -> LinkId {
        LinkId(i)
    }

    fn demand(route: &[LinkId], cap: f64) -> FlowDemand<'_> {
        FlowDemand {
            route,
            cap_bps: cap,
        }
    }

    #[test]
    fn single_flow_gets_link_capacity() {
        let route = [l(0)];
        let rates = max_min_allocation(&[demand(&route, f64::INFINITY)], &[100.0]);
        assert_eq!(rates, vec![100.0]);
    }

    #[test]
    fn single_flow_respects_cap() {
        let route = [l(0)];
        let rates = max_min_allocation(&[demand(&route, 40.0)], &[100.0]);
        assert_eq!(rates, vec![40.0]);
    }

    #[test]
    fn two_flows_share_equally() {
        let r0 = [l(0)];
        let r1 = [l(0)];
        let rates = max_min_allocation(
            &[demand(&r0, f64::INFINITY), demand(&r1, f64::INFINITY)],
            &[100.0],
        );
        assert!((rates[0] - 50.0).abs() < 1e-9);
        assert!((rates[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn capped_flow_releases_share() {
        // One flow capped at 20 leaves 80 for the other.
        let r0 = [l(0)];
        let r1 = [l(0)];
        let rates = max_min_allocation(&[demand(&r0, 20.0), demand(&r1, f64::INFINITY)], &[100.0]);
        assert!((rates[0] - 20.0).abs() < 1e-9);
        assert!((rates[1] - 80.0).abs() < 1e-9);
    }

    #[test]
    fn classic_three_flow_two_link() {
        // Links L0 (cap 100) and L1 (cap 100).
        // f0 over L0+L1, f1 over L0, f2 over L1.
        // Max-min: all can have 50 -- at 50, both links carry 100 and
        // saturate simultaneously; everyone gets 50.
        let r0 = [l(0), l(1)];
        let r1 = [l(0)];
        let r2 = [l(1)];
        let rates = max_min_allocation(
            &[
                demand(&r0, f64::INFINITY),
                demand(&r1, f64::INFINITY),
                demand(&r2, f64::INFINITY),
            ],
            &[100.0, 100.0],
        );
        for r in &rates {
            assert!((r - 50.0).abs() < 1e-9, "{rates:?}");
        }
    }

    #[test]
    fn asymmetric_bottleneck() {
        // L0 cap 30, L1 cap 100. f0 over both, f1 over L1 only.
        // f0 bottlenecked at L0: 30 shared with nobody else on L0 -> but
        // fill: both rise to 30 (L0 saturates: f0 frozen at 30), then f1
        // continues to 70 on L1.
        let r0 = [l(0), l(1)];
        let r1 = [l(1)];
        let rates = max_min_allocation(
            &[demand(&r0, f64::INFINITY), demand(&r1, f64::INFINITY)],
            &[30.0, 100.0],
        );
        assert!((rates[0] - 30.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 70.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn empty_route_gets_cap() {
        let rates = max_min_allocation(&[demand(&[], 12.5)], &[]);
        assert_eq!(rates, vec![12.5]);
    }

    #[test]
    fn no_flows() {
        let rates = max_min_allocation(&[], &[10.0]);
        assert!(rates.is_empty());
    }

    #[test]
    fn zero_capacity_link_stalls_flow() {
        let r0 = [l(0)];
        let rates = max_min_allocation(&[demand(&r0, f64::INFINITY)], &[0.0]);
        assert_eq!(rates, vec![0.0]);
    }

    #[test]
    fn parallel_streams_beat_single_against_background() {
        // The mechanism behind the paper's Fig. 4: on a shared link, n
        // parallel streams of one transfer receive n/(n+b) of capacity
        // against b background flows.
        let link = [l(0)];
        let mut flows = Vec::new();
        // 4 transfer streams + 4 background flows, all uncapped.
        for _ in 0..8 {
            flows.push(demand(&link, f64::INFINITY));
        }
        let rates = max_min_allocation(&flows, &[80.0]);
        let transfer: f64 = rates[..4].iter().sum();
        let background: f64 = rates[4..].iter().sum();
        assert!((transfer - 40.0).abs() < 1e-9);
        assert!((background - 40.0).abs() < 1e-9);
    }

    #[test]
    fn reused_solver_matches_fresh_allocation() {
        // The same solver instance run back to back over different problems
        // must give exactly the answers of one-shot calls: buffer reuse
        // leaks no state between solves.
        let mut solver = MaxMinSolver::new();
        type Problem = (Vec<Vec<LinkId>>, Vec<f64>, Vec<f64>);
        let problems: Vec<Problem> = vec![
            (
                vec![vec![l(0)], vec![l(0)]],
                vec![f64::INFINITY; 2],
                vec![100.0],
            ),
            (
                vec![vec![l(0), l(1)], vec![l(1)]],
                vec![f64::INFINITY, 25.0],
                vec![30.0, 100.0],
            ),
            (vec![vec![l(1)]], vec![f64::INFINITY], vec![50.0, 80.0]),
        ];
        for (routes, caps, link_caps) in &problems {
            let links: Vec<u32> = (0..link_caps.len() as u32).collect();
            let got = solver
                .solve_with(
                    routes.len(),
                    |i| routes[i].as_slice(),
                    |i| caps[i],
                    &links,
                    link_caps,
                )
                .to_vec();
            let demands: Vec<FlowDemand<'_>> = routes
                .iter()
                .zip(caps)
                .map(|(r, &c)| FlowDemand {
                    route: r,
                    cap_bps: c,
                })
                .collect();
            let want = max_min_allocation(&demands, link_caps);
            assert_eq!(got, want, "solver reuse diverged");
        }
    }

    #[test]
    fn solver_ignores_links_outside_the_component() {
        // Links 0..4 exist globally, but only link 2 is in play. Entries for
        // the other links are stale garbage from a previous solve; the
        // answer must depend only on link 2.
        let mut solver = MaxMinSolver::new();
        let all: Vec<u32> = (0..4).collect();
        let caps = [10.0, 10.0, 60.0, 10.0];
        let busy_routes = [vec![l(0)], vec![l(1)], vec![l(3)]];
        let _ = solver.solve_with(
            3,
            |i| busy_routes[i].as_slice(),
            |_| f64::INFINITY,
            &all,
            &caps,
        );
        // Now a 2-flow component confined to link 2.
        let comp_routes = [vec![l(2)], vec![l(2)]];
        let rates = solver.solve_with(
            2,
            |i| comp_routes[i].as_slice(),
            |_| f64::INFINITY,
            &[2],
            &caps,
        );
        assert!((rates[0] - 30.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 30.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn conservation_and_feasibility_random() {
        // A deterministic pseudo-random stress: many flows over a small
        // grid of links; check feasibility invariants.
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(99);
        let caps: Vec<f64> = (0..6).map(|_| rng.uniform(10.0, 200.0)).collect();
        let mut routes: Vec<Vec<LinkId>> = Vec::new();
        for _ in 0..40 {
            let hops = 1 + rng.below(3) as usize;
            let mut route: Vec<LinkId> = Vec::new();
            for _ in 0..hops {
                let cand = LinkId(rng.below(6) as u32);
                if !route.contains(&cand) {
                    route.push(cand);
                }
            }
            routes.push(route);
        }
        let flows: Vec<FlowDemand<'_>> = routes
            .iter()
            .map(|r| FlowDemand {
                route: r,
                cap_bps: if r.len() == 1 { f64::INFINITY } else { 75.0 },
            })
            .collect();
        let rates = max_min_allocation(&flows, &caps);
        // Feasibility per link.
        for (li, &cap) in caps.iter().enumerate() {
            let total: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.route.iter().any(|l| l.index() == li))
                .map(|(_, r)| r)
                .sum();
            assert!(total <= cap * (1.0 + 1e-6), "link {li}: {total} > {cap}");
        }
        // Cap respected and bottleneck property.
        for (f, &r) in flows.iter().zip(&rates) {
            assert!(r <= f.cap_bps * (1.0 + 1e-9) + 1e-9);
            let at_cap = (r - f.cap_bps).abs() < 1e-6;
            let crosses_saturated = f.route.iter().any(|l| {
                let total: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(g, _)| g.route.contains(l))
                    .map(|(_, x)| x)
                    .sum();
                total >= caps[l.index()] * (1.0 - 1e-6)
            });
            assert!(
                at_cap || crosses_saturated,
                "flow neither capped nor bottlenecked: rate {r}"
            );
        }
    }
}
