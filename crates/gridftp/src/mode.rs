//! Data-channel wire modes.
//!
//! GridFTP (and FTP) define multiple wire protocols for the data channel.
//! **Stream mode** sends raw bytes in order over a single TCP connection —
//! the only mode plain FTP servers implement. **Extended block mode
//! (MODE E)** frames the data into blocks, each carrying an 8-bit flag
//! byte, a 64-bit offset and a 64-bit length (17 bytes of header), so
//! blocks may arrive out of order — which is what permits multiple parallel
//! TCP streams. `globus-url-copy` switches to MODE E automatically whenever
//! the parallelism option is used, so *parallel transfer with one stream is
//! not the same as no parallel transfer at all* (the paper makes exactly
//! this point): one MODE E stream still pays the block framing.

use crate::error::TransferError;

/// MODE E per-block header: 8 flag bits + 64-bit offset + 64-bit length.
pub const MODE_E_HEADER_BYTES: u64 = 17;

/// A data-channel wire mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferMode {
    /// In-order bytes on one TCP connection (FTP-compatible default).
    #[default]
    Stream,
    /// Extended block mode: framed blocks, out-of-order arrival, parallel
    /// streams.
    Extended {
        /// Payload bytes per block (Globus default 64 KiB).
        block_size: u32,
    },
}

impl TransferMode {
    /// MODE E with the Globus default 64 KiB block size.
    pub fn extended_default() -> Self {
        TransferMode::Extended {
            block_size: 64 * 1024,
        }
    }

    /// `true` for MODE E.
    pub fn is_extended(&self) -> bool {
        matches!(self, TransferMode::Extended { .. })
    }

    /// Validates the mode parameters.
    ///
    /// # Errors
    ///
    /// [`TransferError::InvalidRequest`] for a zero block size.
    pub fn validate(&self) -> Result<(), TransferError> {
        match self {
            TransferMode::Stream => Ok(()),
            TransferMode::Extended { block_size } => {
                if *block_size == 0 {
                    Err(TransferError::InvalidRequest {
                        reason: "MODE E block size must be positive".into(),
                    })
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Bytes actually sent on the wire for `payload` bytes of file data on
    /// **one stream**, including framing.
    ///
    /// MODE E adds a 17-byte header per (possibly final short) block plus
    /// one EOD (end-of-data) marker block per stream.
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        match self {
            TransferMode::Stream => payload,
            TransferMode::Extended { block_size } => {
                let bs = u64::from(*block_size);
                let blocks = payload.div_ceil(bs);
                // data blocks + headers + one EOD marker block (header only)
                payload + blocks * MODE_E_HEADER_BYTES + MODE_E_HEADER_BYTES
            }
        }
    }

    /// Relative framing overhead (`wire/payload - 1`); 0 for stream mode.
    pub fn overhead_fraction(&self, payload: u64) -> f64 {
        if payload == 0 {
            return 0.0;
        }
        self.wire_bytes(payload) as f64 / payload as f64 - 1.0
    }

    /// Splits `payload` bytes across `streams` streams as evenly as
    /// possible (MODE E block granularity is abstracted to bytes; the
    /// remainder goes to the first streams).
    ///
    /// # Panics
    ///
    /// Panics if `streams` is zero.
    pub fn split_across_streams(payload: u64, streams: u32) -> Vec<u64> {
        assert!(streams > 0, "need at least one stream");
        let n = u64::from(streams);
        let base = payload / n;
        let extra = payload % n;
        (0..n).map(|i| base + u64::from(i < extra)).collect()
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
    fn stream_mode_has_no_overhead() {
        let m = TransferMode::Stream;
        assert_eq!(m.wire_bytes(1_000_000), 1_000_000);
        assert_eq!(m.overhead_fraction(1_000_000), 0.0);
        assert!(!m.is_extended());
    }

    #[test]
    fn mode_e_adds_header_per_block() {
        let m = TransferMode::Extended { block_size: 100 };
        // 250 bytes -> 3 blocks -> 3 headers + 1 EOD header.
        assert_eq!(m.wire_bytes(250), 250 + 3 * 17 + 17);
        assert!(m.is_extended());
    }

    #[test]
    fn mode_e_default_overhead_is_small() {
        let m = TransferMode::extended_default();
        let f = m.overhead_fraction(1 << 30);
        // 17 / 65536 ≈ 0.026 %.
        assert!(f > 0.0 && f < 0.0005, "overhead {f}");
    }

    #[test]
    fn zero_payload_still_sends_eod() {
        let m = TransferMode::extended_default();
        assert_eq!(m.wire_bytes(0), 17);
        assert_eq!(m.overhead_fraction(0), 0.0);
    }

    #[test]
    fn split_is_even_and_complete() {
        let parts = TransferMode::split_across_streams(10, 4);
        assert_eq!(parts, vec![3, 3, 2, 2]);
        assert_eq!(parts.iter().sum::<u64>(), 10);
        let parts = TransferMode::split_across_streams(1 << 30, 16);
        assert_eq!(parts.iter().sum::<u64>(), 1 << 30);
        assert!(parts.iter().all(|&p| p == parts[0]));
    }

    #[test]
    fn validate_rejects_zero_block() {
        assert!(TransferMode::Extended { block_size: 0 }.validate().is_err());
        assert!(TransferMode::Stream.validate().is_ok());
        assert!(TransferMode::extended_default().validate().is_ok());
    }
}
