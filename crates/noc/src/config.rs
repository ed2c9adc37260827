//! Main-network configuration.

use crate::flit::data_packet_flits;

/// Configuration of one virtual network (message class).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VnetCfg {
    /// Human-readable name for reports ("GO-REQ", "UO-RESP", ...).
    pub name: &'static str,
    /// Number of regular virtual channels per input port.
    pub vcs: u8,
    /// Buffer depth (flits) of each VC.
    pub depth: u8,
    /// Whether this class carries globally ordered requests: adds one
    /// reserved VC (rVC) per input port, SID-tracker point-to-point
    /// ordering, and ESID-gated delivery at the NIC.
    pub ordered: bool,
}

impl VnetCfg {
    /// Total VCs per input port, including the reserved VC when ordered.
    pub(crate) fn total_vcs(&self) -> usize {
        self.vcs as usize + usize::from(self.ordered)
    }

    /// The VC index of the reserved VC (one past the regular VCs).
    ///
    /// Meaningful only when [`VnetCfg::ordered`] is true.
    pub(crate) fn rvc_index(&self) -> u8 {
        self.vcs
    }
}

/// Configuration of the main network.
///
/// Defaults ([`NocConfig::scorpio`]) match Table 1 of the paper: 16-byte
/// channels, a GO-REQ class with 4 single-flit VCs (+ rVC) and a UO-RESP
/// class with 2 three-flit VCs, lookahead bypassing enabled.
///
/// # Examples
///
/// ```
/// use scorpio_noc::NocConfig;
///
/// let cfg = NocConfig::scorpio();
/// assert_eq!(cfg.vnets.len(), 2);
/// assert_eq!(cfg.data_flits(), 3); // 16-byte channel, 32-byte lines
/// let wide = NocConfig { channel_bytes: 32, ..NocConfig::scorpio() };
/// assert_eq!(wide.data_flits(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocConfig {
    /// Channel (link/flit) width in bytes. The chip uses 137 bits ≈ 16 B.
    pub channel_bytes: u32,
    /// Cache-line size in bytes (32 on the chip).
    pub line_bytes: u32,
    /// The virtual networks, indexed by `VnetId`.
    pub vnets: Vec<VnetCfg>,
    /// Enable lookahead bypassing (single-cycle router traversal).
    pub bypass: bool,
    /// Depth of each per-vnet NIC injection queue.
    pub inject_queue_depth: usize,
    /// Track per-packet broadcast delivery counts (needed by the
    /// exactly-once tests; small HashMap cost — disable for big sweeps).
    pub track_deliveries: bool,
}

impl NocConfig {
    /// Most virtual networks a configuration may declare.
    pub(crate) const MAX_VNETS: usize = 8;

    /// Most VCs one vnet may have per input port, reserved VC included
    /// (routers keep one allocation bit per VC in a `u16` per vnet).
    pub(crate) const MAX_VCS_PER_VNET: usize = u16::BITS as usize;

    /// Most VCs one input port may have, summed over its vnets (SA-I
    /// arbitrates over one request bit per VC).
    pub const MAX_VCS_PER_PORT: usize = crate::RotatingArbiter::MASK_WIDTH;

    /// The 36-core chip configuration from Table 1.
    pub fn scorpio() -> NocConfig {
        NocConfig {
            channel_bytes: 16,
            line_bytes: 32,
            vnets: vec![
                VnetCfg {
                    name: "GO-REQ",
                    vcs: 4,
                    depth: 1,
                    ordered: true,
                },
                VnetCfg {
                    name: "UO-RESP",
                    vcs: 2,
                    depth: 3,
                    ordered: false,
                },
            ],
            bypass: true,
            inject_queue_depth: 8,
            track_deliveries: true,
        }
    }

    /// Flits in a cache-line data packet at this channel width.
    pub fn data_flits(&self) -> u8 {
        data_packet_flits(self.channel_bytes, self.line_bytes)
    }

    /// Validates internal consistency; call after hand-editing fields.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.channel_bytes == 0 {
            return Err("channel width must be non-zero".into());
        }
        if self.line_bytes == 0 {
            return Err("line size must be non-zero".into());
        }
        if self.vnets.is_empty() {
            return Err("at least one virtual network is required".into());
        }
        if self.vnets.len() > Self::MAX_VNETS {
            return Err(format!(
                "at most {} virtual networks are supported",
                Self::MAX_VNETS
            ));
        }
        for (i, v) in self.vnets.iter().enumerate() {
            if v.vcs == 0 {
                return Err(format!("vnet {i} ({}) has zero VCs", v.name));
            }
            if v.depth == 0 {
                return Err(format!("vnet {i} ({}) has zero-depth VCs", v.name));
            }
            if v.total_vcs() > Self::MAX_VCS_PER_VNET {
                return Err(format!(
                    "vnet {i} ({}) has {} VCs; at most {} per vnet \
                     (reserved VC included) are supported",
                    v.name,
                    v.total_vcs(),
                    Self::MAX_VCS_PER_VNET
                ));
            }
            let port_vcs: usize = self.vnets[..=i].iter().map(VnetCfg::total_vcs).sum();
            if port_vcs > Self::MAX_VCS_PER_PORT {
                return Err(format!(
                    "vnet {i} ({}) brings an input port to {port_vcs} VCs; at most \
                     {} per port are supported",
                    v.name,
                    Self::MAX_VCS_PER_PORT
                ));
            }
        }
        if self.inject_queue_depth == 0 {
            return Err("injection queue depth must be non-zero".into());
        }
        Ok(())
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig::scorpio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VnetId;

    #[test]
    fn scorpio_defaults_match_table1() {
        let cfg = NocConfig::scorpio();
        assert_eq!(cfg.channel_bytes, 16);
        let goreq = &cfg.vnets[VnetId::GO_REQ.index()];
        assert_eq!((goreq.vcs, goreq.depth, goreq.ordered), (4, 1, true));
        assert_eq!(goreq.total_vcs(), 5);
        assert_eq!(goreq.rvc_index(), 4);
        let uoresp = &cfg.vnets[VnetId::UO_RESP.index()];
        assert_eq!((uoresp.vcs, uoresp.depth, uoresp.ordered), (2, 3, false));
        assert_eq!(uoresp.total_vcs(), 2);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_errors() {
        let mut cfg = NocConfig::scorpio();
        cfg.channel_bytes = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = NocConfig::scorpio();
        cfg.vnets[0].vcs = 0;
        assert!(cfg.validate().unwrap_err().contains("zero VCs"));

        let mut cfg = NocConfig::scorpio();
        cfg.vnets.clear();
        assert!(cfg.validate().is_err());

        let mut cfg = NocConfig::scorpio();
        cfg.vnets[1].depth = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_bounds_the_vc_masks() {
        let vnet = |vcs, ordered| VnetCfg {
            name: "WIDE",
            vcs,
            depth: 1,
            ordered,
        };
        // Per vnet: 16 VCs fit the downstream `u16`, the rVC counts.
        let mut cfg = NocConfig::scorpio();
        cfg.vnets = vec![vnet(16, false)];
        assert!(cfg.validate().is_ok());
        cfg.vnets = vec![vnet(16, true)];
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("vnet 0 (WIDE) has 17 VCs"), "{err}");
        cfg.vnets = vec![vnet(255, true)];
        assert!(cfg.validate().unwrap_err().contains("256 VCs"));
        // Per port: the sum over vnets fits the SA-I `u32`; the message
        // names the vnet that crosses the line.
        cfg.vnets = vec![vnet(15, true), vnet(16, false)];
        assert!(cfg.validate().is_ok(), "largest accepted shape: 16 + 16");
        cfg.vnets = vec![vnet(15, true), vnet(15, true), vnet(1, false)];
        let err = cfg.validate().unwrap_err();
        assert!(
            err.contains("vnet 2 (WIDE) brings an input port to 33 VCs"),
            "{err}"
        );
    }

    #[test]
    fn default_is_scorpio() {
        assert_eq!(NocConfig::default(), NocConfig::scorpio());
    }
}
