//! The paper's Data Grid testbed.
//!
//! Three Linux PC clusters (paper §4):
//!
//! * **THU** (Tunghai University, Taichung City): four PCs with dual
//!   AMD Athlon MP 2.0 GHz, 1 GB DDR, 60 GB disk, 1 Gbps — `alpha1..4`,
//! * **Li-Zen** (Li-Zen High School, Taichung County): four PCs with
//!   Intel Celeron 900 MHz, 256 MB, 10 GB disk, 30 Mbps — `lz01..04`,
//! * **HIT** (Hsiuping Institute of Technology): four PCs with Intel P4
//!   2.8 GHz, 512 MB, 80 GB disk, 1 Gbps — `gridhit0..3`.
//!
//! Each cluster hangs off a site switch; the switches connect to a TANet
//! backbone router. Background traffic and per-link loss make available
//! bandwidth dynamic, as on the real academic WAN.

use datagrid_core::grid::GridBuilder;
use datagrid_simnet::background::BackgroundProfile;
use datagrid_simnet::topology::Bandwidth;
use datagrid_simnet::topology::{LinkId, LinkSpec, NodeId};
use datagrid_sysmon::disk::DiskSpec;
use datagrid_sysmon::host::HostSpec;
use datagrid_sysmon::load::LoadModel;

use crate::calibration::Calibration;

/// The paper's THU host names (the text uses `alpha01`/`alpha1`
/// interchangeably; see [`canonical_host`]).
pub const THU_HOSTS: [&str; 4] = ["alpha1", "alpha2", "alpha3", "alpha4"];
/// The paper's Li-Zen host names.
pub const LIZEN_HOSTS: [&str; 4] = ["lz01", "lz02", "lz03", "lz04"];
/// The paper's HIT host names (`hit0` in Table 1 is `gridhit0`).
pub const HIT_HOSTS: [&str; 4] = ["gridhit0", "gridhit1", "gridhit2", "gridhit3"];

/// Normalises the paper's host-name variants (`alpha01` → `alpha1`,
/// `hit0` → `gridhit0`, …) to the names used in the simulated testbed.
pub fn canonical_host(name: &str) -> &str {
    match name {
        "alpha01" => "alpha1",
        "alpha02" => "alpha2",
        "alpha03" => "alpha3",
        "alpha04" => "alpha4",
        "hit0" => "gridhit0",
        "hit1" => "gridhit1",
        "hit2" => "gridhit2",
        "hit3" => "gridhit3",
        other => other,
    }
}

/// Node ids of the built testbed's network elements.
#[derive(Debug, Clone)]
pub struct PaperSites {
    /// THU hosts in name order.
    pub thu: Vec<NodeId>,
    /// Li-Zen hosts in name order.
    pub lizen: Vec<NodeId>,
    /// HIT hosts in name order.
    pub hit: Vec<NodeId>,
    /// THU site switch.
    pub thu_switch: NodeId,
    /// Li-Zen site switch.
    pub lizen_switch: NodeId,
    /// HIT site switch.
    pub hit_switch: NodeId,
    /// TANet backbone router.
    pub backbone: NodeId,
    /// THU uplink (toward backbone, and reverse).
    pub thu_uplink: (LinkId, LinkId),
    /// HIT uplink (toward backbone, and reverse).
    pub hit_uplink: (LinkId, LinkId),
    /// Li-Zen uplink (toward backbone, and reverse) — the paper's 30 Mbps
    /// bottleneck.
    pub lizen_uplink: (LinkId, LinkId),
}

fn thu_host(name: &str) -> HostSpec {
    HostSpec::new(name)
        .with_cpu(2, 2.0)
        .with_memory_mb(1024)
        .with_disk(DiskSpec::ide_2005(60))
}

fn lizen_host(name: &str) -> HostSpec {
    HostSpec::new(name)
        .with_cpu(1, 0.9)
        .with_memory_mb(256)
        .with_disk(DiskSpec::new(
            10,
            Bandwidth::from_bps(30.0 * 8e6),
            Bandwidth::from_bps(25.0 * 8e6),
        ))
}

fn hit_host(name: &str) -> HostSpec {
    HostSpec::new(name)
        .with_cpu(1, 2.8)
        .with_memory_mb(512)
        .with_disk(DiskSpec::new(
            80,
            Bandwidth::from_bps(60.0 * 8e6),
            Bandwidth::from_bps(50.0 * 8e6),
        ))
}

/// Per-site load dynamics: research clusters see mean-reverting load;
/// the high-school machines are busier and burstier.
fn cpu_model(site: &str) -> LoadModel {
    match site {
        "thu" => LoadModel::Ar1 {
            mean: 0.30,
            phi: 0.9,
            sigma: 0.05,
        },
        "lizen" => LoadModel::Ar1 {
            mean: 0.50,
            phi: 0.85,
            sigma: 0.10,
        },
        _ => LoadModel::Ar1 {
            mean: 0.20,
            phi: 0.9,
            sigma: 0.05,
        },
    }
}

fn io_model(site: &str) -> LoadModel {
    match site {
        "thu" => LoadModel::Ar1 {
            mean: 0.20,
            phi: 0.9,
            sigma: 0.05,
        },
        "lizen" => LoadModel::Ar1 {
            mean: 0.40,
            phi: 0.85,
            sigma: 0.10,
        },
        _ => LoadModel::Ar1 {
            mean: 0.15,
            phi: 0.9,
            sigma: 0.05,
        },
    }
}

/// Builds the paper's testbed with default calibration, monitoring every
/// remote host toward `alpha1` (the client of the paper's §4.3 scenario).
/// The returned builder can be customised further before `build()`.
pub fn paper_testbed(seed: u64) -> GridBuilder {
    paper_testbed_with(seed, &Calibration::default()).0
}

/// Builds the paper's testbed with explicit calibration, also returning
/// the site layout.
pub fn paper_testbed_with(seed: u64, cal: &Calibration) -> (GridBuilder, PaperSites) {
    let mut b = GridBuilder::new(seed);

    let thu: Vec<NodeId> = THU_HOSTS
        .iter()
        .map(|n| b.add_host(thu_host(n), cpu_model("thu"), io_model("thu")))
        .collect();
    let lizen: Vec<NodeId> = LIZEN_HOSTS
        .iter()
        .map(|n| b.add_host(lizen_host(n), cpu_model("lizen"), io_model("lizen")))
        .collect();
    let hit: Vec<NodeId> = HIT_HOSTS
        .iter()
        .map(|n| b.add_host(hit_host(n), cpu_model("hit"), io_model("hit")))
        .collect();

    let thu_switch = b.add_switch("thu-switch");
    let lizen_switch = b.add_switch("lizen-switch");
    let hit_switch = b.add_switch("hit-switch");
    let backbone = b.add_switch("tanet");

    let (thu_uplink, hit_uplink, lizen_uplink) = {
        let t = b.topology_mut();
        let lan = LinkSpec::new(cal.lan_capacity, cal.lan_latency);
        for &h in &thu {
            t.add_duplex_link(h, thu_switch, lan);
        }
        for &h in &lizen {
            // The paper lists the Li-Zen machines on Fast Ethernet-class
            // connectivity; their bottleneck is the site uplink anyway.
            t.add_duplex_link(
                h,
                lizen_switch,
                LinkSpec::new(Bandwidth::from_mbps(100.0), cal.lan_latency),
            );
        }
        for &h in &hit {
            t.add_duplex_link(h, hit_switch, lan);
        }
        let thu_uplink = t.add_duplex_link(
            thu_switch,
            backbone,
            LinkSpec::new(cal.fast_uplink, cal.fast_uplink_latency).with_loss(cal.fast_uplink_loss),
        );
        let hit_uplink = t.add_duplex_link(
            hit_switch,
            backbone,
            LinkSpec::new(cal.fast_uplink, cal.fast_uplink_latency).with_loss(cal.fast_uplink_loss),
        );
        let lizen_uplink = t.add_duplex_link(
            lizen_switch,
            backbone,
            LinkSpec::new(cal.lizen_uplink, cal.lizen_uplink_latency)
                .with_loss(cal.lizen_uplink_loss),
        );
        (thu_uplink, hit_uplink, lizen_uplink)
    };

    // Cross traffic: the fast uplinks see light backbone load, the thin
    // Li-Zen uplink a substantial share of its 30 Mbps.
    if cal.backbone_background_utilization > 0.0 {
        let profile = BackgroundProfile::for_utilization(
            thu_switch,
            hit_switch,
            cal.fast_uplink,
            cal.backbone_background_utilization,
            cal.background_flow_bytes,
        )
        .with_flow_cap(Bandwidth::from_mbps(50.0));
        b.add_background(profile.clone());
        let mut reverse = profile;
        std::mem::swap(&mut reverse.src, &mut reverse.dst);
        b.add_background(reverse);
    }
    if cal.lizen_background_utilization > 0.0 {
        let profile = BackgroundProfile::for_utilization(
            backbone,
            lizen_switch,
            cal.lizen_uplink,
            cal.lizen_background_utilization,
            cal.background_flow_bytes,
        )
        .with_flow_cap(Bandwidth::from_mbps(10.0));
        b.add_background(profile.clone());
        let mut reverse = profile;
        std::mem::swap(&mut reverse.src, &mut reverse.dst);
        b.add_background(reverse);
    }

    // Monitor every remote host toward the scenario client alpha1, plus
    // the reverse direction for replication experiments.
    let alpha1 = thu[0];
    for &h in thu.iter().chain(&lizen).chain(&hit) {
        if h != alpha1 {
            b.monitor_path(h, alpha1);
            b.monitor_path(alpha1, h);
        }
    }

    b.monitor_interval(cal.monitor_interval);
    b.probe_bytes(cal.probe_bytes);
    b.sensor_noise(cal.sensor_noise);
    b.tcp_window(cal.tcp_window);
    b.catalog_host("alpha1");

    // Watch the three uplinks so experiments can inspect WAN utilisation.
    b.watch_links([
        thu_uplink.0,
        thu_uplink.1,
        hit_uplink.0,
        hit_uplink.1,
        lizen_uplink.0,
        lizen_uplink.1,
    ]);

    (
        b,
        PaperSites {
            thu,
            lizen,
            hit,
            thu_switch,
            lizen_switch,
            hit_switch,
            backbone,
            thu_uplink,
            hit_uplink,
            lizen_uplink,
        },
    )
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values; outside library scope"
)]
mod tests {
    use super::*;
    use datagrid_simnet::time::SimDuration;

    #[test]
    fn canonical_names_resolve() {
        assert_eq!(canonical_host("alpha01"), "alpha1");
        assert_eq!(canonical_host("hit0"), "gridhit0");
        assert_eq!(canonical_host("lz04"), "lz04");
    }

    #[test]
    fn testbed_builds_with_all_hosts() {
        let grid = paper_testbed(1).build();
        for name in THU_HOSTS.iter().chain(&LIZEN_HOSTS).chain(&HIT_HOSTS) {
            assert!(grid.host_id(name).is_some(), "missing host {name}");
        }
        assert_eq!(grid.host_ids().count(), 12);
        // 11 remote hosts × 2 directions monitored.
        assert_eq!(grid.nws().len(), 22);
    }

    #[test]
    fn hardware_matches_the_paper() {
        let grid = paper_testbed(1).build();
        let alpha = grid.host(grid.host_id("alpha1").unwrap());
        assert_eq!(alpha.spec().cores, 2);
        assert_eq!(alpha.spec().clock_ghz, 2.0);
        assert_eq!(alpha.spec().memory_mb, 1024);
        assert_eq!(alpha.spec().disk.capacity_gb, 60);
        let lz = grid.host(grid.host_id("lz01").unwrap());
        assert_eq!(lz.spec().clock_ghz, 0.9);
        assert_eq!(lz.spec().memory_mb, 256);
        let hit = grid.host(grid.host_id("gridhit0").unwrap());
        assert_eq!(hit.spec().clock_ghz, 2.8);
        assert_eq!(hit.spec().disk.capacity_gb, 80);
    }

    #[test]
    fn paths_have_paper_bottlenecks() {
        let (b, sites) = paper_testbed_with(2, &Calibration::default());
        let grid = b.build();
        let net = grid.network();
        let topo = net.topology();
        let routing = net.routing();
        // THU -> HIT bottleneck is a fast uplink.
        let p = routing.path(sites.thu[0], sites.hit[0]).unwrap();
        assert_eq!(topo.path_capacity(p).unwrap().as_mbps(), 1000.0);
        // THU -> Li-Zen bottleneck is the 30 Mbps uplink.
        let p = routing.path(sites.thu[1], sites.lizen[3]).unwrap();
        assert_eq!(topo.path_capacity(p).unwrap().as_mbps(), 30.0);
        // RTTs: THU->HIT ≈ 12.4 ms, THU->LZ ≈ 22.4 ms.
        let rtt_hit = routing.rtt(sites.thu[0], sites.hit[0]).unwrap();
        let rtt_lz = routing.rtt(sites.thu[0], sites.lizen[0]).unwrap();
        assert!((rtt_hit.as_millis_f64() - 12.4).abs() < 0.1, "{rtt_hit}");
        assert!((rtt_lz.as_millis_f64() - 22.4).abs() < 0.1, "{rtt_lz}");
    }

    #[test]
    fn warmed_testbed_ranks_sites_correctly() {
        let mut grid = paper_testbed(3).build();
        grid.warm_up(SimDuration::from_secs(300));
        let alpha1 = grid.host_id("alpha1").unwrap();
        let alpha4 = grid.host_id("alpha4").unwrap();
        let hit0 = grid.host_id("gridhit0").unwrap();
        let lz02 = grid.host_id("lz02").unwrap();
        let bw_alpha4 = grid.bandwidth_fraction(alpha4, alpha1).unwrap();
        let bw_hit0 = grid.bandwidth_fraction(hit0, alpha1).unwrap();
        let bw_lz02 = grid.bandwidth_fraction(lz02, alpha1).unwrap();
        assert!(
            bw_alpha4 > bw_hit0 && bw_hit0 > bw_lz02,
            "BW_P order alpha4 ({bw_alpha4}) > hit0 ({bw_hit0}) > lz02 ({bw_lz02})"
        );
    }
}

#[cfg(test)]
mod quiet_tests {
    use super::*;
    use crate::calibration::Calibration;
    use datagrid_simnet::time::SimDuration;

    #[test]
    fn quiet_calibration_gives_steady_measurements() {
        let (b, _) = paper_testbed_with(5, &Calibration::quiet());
        let mut grid = b.build();
        grid.warm_up(SimDuration::from_secs(300));
        let alpha1 = grid.host_id("alpha1").unwrap();
        let hit0 = grid.host_id("gridhit0").unwrap();
        let sensor = grid
            .nws()
            .sensor(grid.node_of(hit0), grid.node_of(alpha1))
            .unwrap();
        // Without background traffic the only variation is sensor noise
        // (3 %): the spread of measurements stays tight around the
        // Mathis-limited ~36.5 Mbps.
        let values: Vec<f64> = sensor
            .series()
            .samples()
            .iter()
            .map(|s| s.value / 1e6)
            .collect();
        assert!(values.len() > 20);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((30.0..45.0).contains(&mean), "mean {mean} Mbps");
        let max_dev = values
            .iter()
            .map(|v| (v - mean).abs() / mean)
            .fold(0.0f64, f64::max);
        assert!(max_dev < 0.15, "max deviation {max_dev}");
    }
}
