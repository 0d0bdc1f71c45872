//! Storage device model.
//!
//! The paper's third system factor is the **I/O state** of the replica
//! host: a busy disk directly reduces the rate at which GridFTP can read a
//! replica. A [`DiskSpec`] describes the device; the busy fraction itself
//! evolves as a [`LoadProcess`](crate::load::LoadProcess) owned by the
//! host, and [`DiskSpec::available_read`] converts an idle fraction into an
//! achievable read rate.

use datagrid_simnet::topology::Bandwidth;

/// Static description of a host's storage device.
///
/// ```
/// use datagrid_simnet::topology::Bandwidth;
/// use datagrid_sysmon::disk::DiskSpec;
///
/// let disk = DiskSpec::ide_2005(60);
/// assert!(disk.read_bandwidth > Bandwidth::from_mbps(100.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskSpec {
    /// Device capacity in gigabytes (catalogue bookkeeping only).
    pub capacity_gb: u64,
    /// Peak sequential read bandwidth.
    pub read_bandwidth: Bandwidth,
    /// Peak sequential write bandwidth.
    pub write_bandwidth: Bandwidth,
}

impl DiskSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if either bandwidth is zero.
    pub fn new(capacity_gb: u64, read_bandwidth: Bandwidth, write_bandwidth: Bandwidth) -> Self {
        assert!(
            read_bandwidth.as_bps() > 0.0 && write_bandwidth.as_bps() > 0.0,
            "disk bandwidth must be positive"
        );
        DiskSpec {
            capacity_gb,
            read_bandwidth,
            write_bandwidth,
        }
    }

    /// A 2005-era IDE/ATA disk (~55 MB/s sequential read, ~45 MB/s write),
    /// as in the paper's PC cluster nodes.
    pub fn ide_2005(capacity_gb: u64) -> Self {
        DiskSpec::new(
            capacity_gb,
            Bandwidth::from_bps(55.0 * 8e6),
            Bandwidth::from_bps(45.0 * 8e6),
        )
    }

    /// The fraction of peak rate a *new* sequential stream gets at the
    /// given busy level. The OS scheduler is fair: even on a saturated
    /// device a new reader receives a small share rather than zero, so
    /// transfers always make progress.
    pub const MIN_SHARE: f64 = 0.05;

    /// The read rate available to a new sequential reader when the device
    /// is `busy` busy (0 = idle, 1 = saturated; a saturated disk still
    /// yields [`DiskSpec::MIN_SHARE`] of peak).
    ///
    /// # Panics
    ///
    /// Panics if `busy` is outside `[0, 1]`.
    pub fn available_read(&self, busy: f64) -> Bandwidth {
        assert!((0.0..=1.0).contains(&busy), "busy fraction {busy}");
        Bandwidth::from_bps(self.read_bandwidth.as_bps() * (1.0 - busy).max(Self::MIN_SHARE))
    }

    /// The write rate available when the device is `busy` busy (floored
    /// like [`DiskSpec::available_read`]).
    ///
    /// # Panics
    ///
    /// Panics if `busy` is outside `[0, 1]`.
    pub fn available_write(&self, busy: f64) -> Bandwidth {
        assert!((0.0..=1.0).contains(&busy), "busy fraction {busy}");
        Bandwidth::from_bps(self.write_bandwidth.as_bps() * (1.0 - busy).max(Self::MIN_SHARE))
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
    fn available_scales_with_idleness() {
        let d = DiskSpec::ide_2005(60);
        assert_eq!(d.available_read(0.0), d.read_bandwidth);
        let half = d.available_read(0.5);
        assert!((half.as_bps() - d.read_bandwidth.as_bps() * 0.5).abs() < 1e-6);
    }

    #[test]
    fn saturated_disk_still_serves_a_fair_share() {
        let d = DiskSpec::ide_2005(60);
        let floor = d.available_read(1.0).as_bps();
        assert!(floor > 0.0, "a new reader never starves completely");
        assert!((floor - d.read_bandwidth.as_bps() * DiskSpec::MIN_SHARE).abs() < 1e-6);
        assert_eq!(
            d.available_write(1.0).as_bps(),
            d.write_bandwidth.as_bps() * DiskSpec::MIN_SHARE
        );
    }

    #[test]
    fn write_side_too() {
        let d = DiskSpec::ide_2005(80);
        assert_eq!(d.available_write(0.0), d.write_bandwidth);
        assert!(d.available_write(0.9).as_bps() < d.write_bandwidth.as_bps() * 0.2);
    }

    #[test]
    #[should_panic(expected = "busy fraction")]
    fn busy_out_of_range_rejected() {
        let _ = DiskSpec::ide_2005(60).available_read(1.5);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = DiskSpec::new(10, Bandwidth::ZERO, Bandwidth::from_mbps(1.0));
    }
}
