//! Transfer requests and outcomes.

use datagrid_simnet::time::{SimDuration, SimTime};
use datagrid_simnet::topology::Bandwidth;

use crate::error::TransferError;
use crate::mode::TransferMode;

/// The transfer protocol family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Plain FTP: password auth, stream mode only, single connection.
    Ftp,
    /// GridFTP: GSI auth, MODE E, parallelism, striping, partial and
    /// third-party transfer.
    GridFtp,
}

/// A byte range for partial file transfer (a GridFTP extension the paper
/// lists among the protocol's Data Grid features).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteRange {
    /// First byte offset.
    pub offset: u64,
    /// Number of bytes.
    pub length: u64,
}

/// GridFTP data-channel protection level (the `PROT` command). GSI secures
/// the control channel always; the data channel defaults to clear for
/// speed, with optional integrity (MAC per block) or privacy (encryption),
/// each costing endpoint CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataChannelProtection {
    /// `PROT C` — clear data channel (the Globus default).
    #[default]
    Clear,
    /// `PROT S` — integrity protection (per-block MAC).
    Safe,
    /// `PROT P` — privacy (encryption + integrity).
    Private,
}

/// A transfer request, built fluently.
///
/// ```
/// use datagrid_gridftp::transfer::{Protocol, TransferRequest};
///
/// let req = TransferRequest::new(1 << 30)
///     .with_protocol(Protocol::GridFtp)
///     .with_parallelism(8);
/// assert_eq!(req.streams(), 8);
/// assert!(req.effective_mode().is_extended());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferRequest {
    /// Size of the stored file in bytes.
    pub file_bytes: u64,
    /// Protocol family.
    pub protocol: Protocol,
    /// Requested parallel TCP streams; 0 means the parallelism option is
    /// not used at all (plain stream-mode transfer). Note that
    /// `parallelism = 1` still negotiates MODE E — the paper stresses this
    /// is *not* the same as no parallelism.
    pub parallelism: u32,
    /// Wire mode override; `None` selects stream mode, or MODE E whenever
    /// parallelism is requested (the `globus-url-copy` behaviour).
    pub mode: Option<TransferMode>,
    /// Partial transfer range.
    pub range: Option<ByteRange>,
    /// Data-channel protection level (GridFTP `PROT`).
    pub protection: DataChannelProtection,
}

impl TransferRequest {
    /// A whole-file GridFTP stream-mode request.
    pub fn new(file_bytes: u64) -> Self {
        TransferRequest {
            file_bytes,
            protocol: Protocol::GridFtp,
            parallelism: 0,
            mode: None,
            range: None,
            protection: DataChannelProtection::Clear,
        }
    }

    /// Sets the protocol family.
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Requests parallel data connections (`globus-url-copy -p n`).
    pub fn with_parallelism(mut self, parallelism: u32) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Forces a specific wire mode.
    pub fn with_mode(mut self, mode: TransferMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Requests a partial transfer.
    pub fn with_range(mut self, offset: u64, length: u64) -> Self {
        self.range = Some(ByteRange { offset, length });
        self
    }

    /// Sets the data-channel protection level (`PROT C`/`S`/`P`).
    pub fn with_protection(mut self, protection: DataChannelProtection) -> Self {
        self.protection = protection;
        self
    }

    /// The wire mode that will actually be used.
    pub fn effective_mode(&self) -> TransferMode {
        match self.mode {
            Some(m) => m,
            None if self.parallelism > 0 => TransferMode::extended_default(),
            None => TransferMode::Stream,
        }
    }

    /// Number of data connections that will be opened.
    pub fn streams(&self) -> u32 {
        self.parallelism.max(1)
    }

    /// The payload bytes actually moved (range length for partial
    /// transfers).
    pub fn payload_bytes(&self) -> u64 {
        match self.range {
            Some(r) => r.length,
            None => self.file_bytes,
        }
    }

    /// Checks the request for consistency.
    ///
    /// # Errors
    ///
    /// [`TransferError::InvalidRequest`] for zero-byte files, FTP with
    /// GridFTP-only features, zero-size MODE E blocks or absurd stream
    /// counts; [`TransferError::RangeOutOfBounds`] for a bad partial range.
    pub fn validate(&self) -> Result<(), TransferError> {
        if self.file_bytes == 0 {
            return Err(TransferError::InvalidRequest {
                reason: "zero-byte transfer has nothing to move".into(),
            });
        }
        if self.protocol == Protocol::Ftp {
            if self.parallelism > 0 {
                return Err(TransferError::InvalidRequest {
                    reason: "plain FTP cannot open parallel data connections".into(),
                });
            }
            if self.effective_mode().is_extended() {
                return Err(TransferError::InvalidRequest {
                    reason: "plain FTP only implements stream mode".into(),
                });
            }
            if self.range.is_some() {
                return Err(TransferError::InvalidRequest {
                    reason: "plain FTP cannot transfer partial files".into(),
                });
            }
            if self.protection != DataChannelProtection::Clear {
                return Err(TransferError::InvalidRequest {
                    reason: "plain FTP has no data-channel protection".into(),
                });
            }
        }
        if self.parallelism > 64 {
            return Err(TransferError::InvalidRequest {
                reason: format!("parallelism {} exceeds the supported 64", self.parallelism),
            });
        }
        self.effective_mode().validate()?;
        if let Some(r) = self.range {
            let in_bounds = r
                .offset
                .checked_add(r.length)
                .is_some_and(|end| end <= self.file_bytes);
            if r.length == 0 || !in_bounds {
                return Err(TransferError::RangeOutOfBounds {
                    offset: r.offset,
                    length: r.length,
                    file_size: self.file_bytes,
                });
            }
        }
        Ok(())
    }
}

/// One phase of a completed transfer (control, data, completion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Phase name (`"control"`, `"data"`, `"completion"`).
    pub name: &'static str,
    /// Phase start.
    pub start: SimTime,
    /// Phase end.
    pub end: SimTime,
}

impl PhaseRecord {
    /// Phase duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// The result of a completed transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferOutcome {
    /// Payload bytes delivered.
    pub payload_bytes: u64,
    /// Total bytes on the wire including framing.
    pub wire_bytes: u64,
    /// Data connections used.
    pub streams: u32,
    /// Stripe servers used (1 for a plain transfer).
    pub stripes: u32,
    /// When the session began.
    pub started: SimTime,
    /// When the session fully completed (after the 226 reply).
    pub finished: SimTime,
    /// Phase timeline.
    pub phases: Vec<PhaseRecord>,
}

impl TransferOutcome {
    /// End-to-end duration including control overhead.
    pub fn duration(&self) -> SimDuration {
        self.finished - self.started
    }

    /// Payload throughput over the end-to-end duration (what a user of
    /// `globus-url-copy` experiences and what the paper's figures plot).
    pub fn avg_throughput(&self) -> Bandwidth {
        let secs = self.duration().as_secs_f64();
        if secs <= 0.0 {
            Bandwidth::ZERO
        } else {
            Bandwidth::from_bps(self.payload_bytes as f64 * 8.0 / secs)
        }
    }

    /// Payload throughput over the data phase only.
    pub fn data_throughput(&self) -> Bandwidth {
        match self.phase("data") {
            Some(p) if !p.duration().is_zero() => {
                Bandwidth::from_bps(self.payload_bytes as f64 * 8.0 / p.duration().as_secs_f64())
            }
            _ => Bandwidth::ZERO,
        }
    }

    /// Looks up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseRecord> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Time spent outside the data phase (protocol overhead).
    pub fn control_overhead(&self) -> SimDuration {
        match self.phase("data") {
            Some(p) => self.duration() - p.duration(),
            None => self.duration(),
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
    fn builder_and_defaults() {
        let req = TransferRequest::new(100);
        assert_eq!(req.protocol, Protocol::GridFtp);
        assert_eq!(req.streams(), 1);
        assert_eq!(req.effective_mode(), TransferMode::Stream);
        assert_eq!(req.payload_bytes(), 100);
        assert!(req.validate().is_ok());
    }

    #[test]
    fn parallelism_implies_mode_e() {
        let req = TransferRequest::new(100).with_parallelism(1);
        assert!(req.effective_mode().is_extended());
        assert_eq!(req.streams(), 1);
        let req = TransferRequest::new(100).with_parallelism(16);
        assert_eq!(req.streams(), 16);
    }

    #[test]
    fn explicit_mode_wins() {
        let req = TransferRequest::new(100)
            .with_parallelism(4)
            .with_mode(TransferMode::Extended { block_size: 1024 });
        assert_eq!(
            req.effective_mode(),
            TransferMode::Extended { block_size: 1024 }
        );
    }

    #[test]
    fn ftp_feature_restrictions() {
        assert!(TransferRequest::new(1)
            .with_protocol(Protocol::Ftp)
            .validate()
            .is_ok());
        assert!(TransferRequest::new(1)
            .with_protocol(Protocol::Ftp)
            .with_parallelism(2)
            .validate()
            .is_err());
        assert!(TransferRequest::new(1)
            .with_protocol(Protocol::Ftp)
            .with_mode(TransferMode::extended_default())
            .validate()
            .is_err());
        assert!(TransferRequest::new(10)
            .with_protocol(Protocol::Ftp)
            .with_range(0, 5)
            .validate()
            .is_err());
    }

    #[test]
    fn range_validation() {
        assert!(TransferRequest::new(100)
            .with_range(50, 50)
            .validate()
            .is_ok());
        assert!(TransferRequest::new(100)
            .with_range(60, 50)
            .validate()
            .is_err());
        assert!(TransferRequest::new(100)
            .with_range(0, 0)
            .validate()
            .is_err());
        assert_eq!(
            TransferRequest::new(100).with_range(50, 25).payload_bytes(),
            25
        );
    }

    #[test]
    fn zero_byte_transfer_rejected() {
        // Regression: a zero-byte request used to pass validation and then
        // walk the whole session state machine for nothing.
        let err = TransferRequest::new(0).validate().unwrap_err();
        assert!(matches!(err, TransferError::InvalidRequest { .. }));
        assert!(err.to_string().contains("zero-byte"));
        // A zero-length range was already rejected; make sure it stays so.
        assert!(TransferRequest::new(100)
            .with_range(10, 0)
            .validate()
            .is_err());
    }

    #[test]
    fn absurd_parallelism_rejected() {
        assert!(TransferRequest::new(1)
            .with_parallelism(65)
            .validate()
            .is_err());
    }

    #[test]
    fn outcome_accessors() {
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_secs_f64(1.0);
        let t9 = SimTime::from_secs_f64(9.0);
        let t10 = SimTime::from_secs_f64(10.0);
        let outcome = TransferOutcome {
            payload_bytes: 10_000_000,
            wire_bytes: 10_001_000,
            streams: 4,
            stripes: 1,
            started: t0,
            finished: t10,
            phases: vec![
                PhaseRecord {
                    name: "control",
                    start: t0,
                    end: t1,
                },
                PhaseRecord {
                    name: "data",
                    start: t1,
                    end: t9,
                },
                PhaseRecord {
                    name: "completion",
                    start: t9,
                    end: t10,
                },
            ],
        };
        assert_eq!(outcome.duration(), SimDuration::from_secs(10));
        assert_eq!(outcome.avg_throughput().as_bps(), 8_000_000.0);
        assert_eq!(outcome.data_throughput().as_bps(), 10_000_000.0);
        assert_eq!(outcome.control_overhead(), SimDuration::from_secs(2));
        assert!(outcome.phase("data").is_some());
        assert!(outcome.phase("nope").is_none());
    }
}

#[cfg(test)]
mod protection_tests {
    use super::*;

    #[test]
    fn default_protection_is_clear() {
        let req = TransferRequest::new(1);
        assert_eq!(req.protection, DataChannelProtection::Clear);
        assert!(req.validate().is_ok());
    }

    #[test]
    fn protection_builder_and_validation() {
        let req = TransferRequest::new(1).with_protection(DataChannelProtection::Private);
        assert_eq!(req.protection, DataChannelProtection::Private);
        assert!(req.validate().is_ok());
        // Plain FTP has no PROT command.
        let req = TransferRequest::new(1)
            .with_protocol(Protocol::Ftp)
            .with_protection(DataChannelProtection::Safe);
        assert!(req.validate().is_err());
    }
}
