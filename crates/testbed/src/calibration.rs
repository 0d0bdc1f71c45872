//! Calibration constants.
//!
//! These numbers set the *absolute* scale of the simulation. They are not
//! taken from the paper (which reports only bar charts on its own 2005
//! testbed) but chosen to be plausible for Taiwanese academic networking
//! of that era, and so that every *relative* finding of the paper holds:
//! FTP ≈ GridFTP at large sizes, parallel streams win on the lossy 30 Mbps
//! Li-Zen path with diminishing returns, and the cost-model score order
//! matches the transfer-time order.

use datagrid_simnet::time::SimDuration;
use datagrid_simnet::topology::Bandwidth;

/// The tunable constants of the paper testbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Intra-site LAN speed (switched Fast/Gigabit Ethernet).
    pub lan_capacity: Bandwidth,
    /// Intra-site cable latency.
    pub lan_latency: SimDuration,
    /// THU / HIT campus uplink capacity (the paper lists both sites at
    /// 1 Gbps).
    pub fast_uplink: Bandwidth,
    /// Li-Zen uplink capacity (the paper lists 30 Mbps).
    pub lizen_uplink: Bandwidth,
    /// THU/HIT uplink one-way latency to the TANet backbone.
    pub fast_uplink_latency: SimDuration,
    /// Li-Zen uplink one-way latency (a high school on a thinner line).
    pub lizen_uplink_latency: SimDuration,
    /// Packet loss on each fast uplink.
    pub fast_uplink_loss: f64,
    /// Packet loss on the Li-Zen uplink (what makes single-stream TCP
    /// underutilise it — the mechanism behind the paper's Fig. 4).
    pub lizen_uplink_loss: f64,
    /// Mean utilisation offered by background traffic on the THU↔HIT
    /// backbone direction.
    pub backbone_background_utilization: f64,
    /// Mean utilisation offered by background traffic on the Li-Zen
    /// uplink.
    pub lizen_background_utilization: f64,
    /// Mean background flow size.
    pub background_flow_bytes: f64,
    /// TCP receive window (2.6-era Linux default-ish).
    pub tcp_window: u64,
    /// NWS probe size.
    pub probe_bytes: u64,
    /// Monitoring interval.
    pub monitor_interval: SimDuration,
    /// Sensor measurement noise (relative sigma).
    pub sensor_noise: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            lan_capacity: Bandwidth::from_gbps(1.0),
            lan_latency: SimDuration::from_micros(100),
            fast_uplink: Bandwidth::from_gbps(1.0),
            lizen_uplink: Bandwidth::from_mbps(30.0),
            fast_uplink_latency: SimDuration::from_millis(3),
            lizen_uplink_latency: SimDuration::from_millis(8),
            fast_uplink_loss: 0.0005,
            // A congested consumer-grade school line: enough loss that one
            // TCP stream reaches only ~4.7 Mbps of the 30 Mbps link, so
            // parallel streams keep paying off through 8 streams (Fig. 4).
            lizen_uplink_loss: 0.018,
            backbone_background_utilization: 0.05,
            lizen_background_utilization: 0.20,
            background_flow_bytes: 2e6,
            tcp_window: 256 * 1024,
            probe_bytes: 256 * 1024,
            monitor_interval: SimDuration::from_secs(10),
            sensor_noise: 0.03,
        }
    }
}

impl Calibration {
    /// A quiet variant without background traffic (for deterministic
    /// protocol microtests).
    pub fn quiet() -> Self {
        Calibration {
            backbone_background_utilization: 0.0,
            lizen_background_utilization: 0.0,
            ..Calibration::default()
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values; outside library scope"
)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_link_speeds() {
        let c = Calibration::default();
        assert_eq!(c.fast_uplink.as_mbps(), 1000.0);
        assert_eq!(c.lizen_uplink.as_mbps(), 30.0);
        assert!(c.lizen_uplink_loss > c.fast_uplink_loss);
    }

    #[test]
    fn quiet_removes_background() {
        let c = Calibration::quiet();
        assert_eq!(c.backbone_background_utilization, 0.0);
        assert_eq!(c.lizen_background_utilization, 0.0);
    }
}
