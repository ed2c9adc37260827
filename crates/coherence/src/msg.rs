//! Coherence message types: the payloads carried by the main network.

use scorpio_noc::Endpoint;
use std::fmt;

/// A cache-line address (byte address with the offset bits stripped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The line containing byte address `byte` for `line_bytes`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn containing(byte: u64, line_bytes: u64) -> LineAddr {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        LineAddr(byte & !(line_bytes - 1))
    }

    /// The 4 KB region this line falls in (region-tracker granularity).
    pub fn region(self) -> u64 {
        self.0 >> 12
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// The kind of a coherence message.
///
/// The snoopy SCORPIO protocol uses the first group (ordered broadcasts) and
/// the second (unordered point-to-point); the directory baselines use the
/// third. One shared enum keeps the network payload type uniform across all
/// protocol drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    // --- Ordered broadcast requests (GO-REQ) ---
    /// Read request: broadcast snoop, owner (cache or memory) responds.
    GetS,
    /// Write/ownership request: broadcast snoop, owner responds, sharers
    /// invalidate.
    GetX,
    /// Writeback announcement: ownership returns to memory in global order;
    /// the data follows on the unordered network.
    WbReq,
    // --- Unordered responses (UO-RESP) ---
    /// Cache-line data to the requester (`value` carries the logical data).
    Data,
    /// Writeback data to the memory controller.
    WbData,
    /// INSO baseline: a node expires its unused snoop-order slots.
    InsoExpire,
    // --- Directory-protocol messages (unordered vnets) ---
    /// Unicast read request to the home node.
    DirGetS,
    /// Unicast write request to the home node.
    DirGetX,
    /// Writeback notice to the home node.
    DirPut,
    /// Home → owner: forward this read (owner answers the requester).
    DirFwdGetS,
    /// Home → owner: forward this write (owner sends data and invalidates).
    DirFwdGetX,
    /// Home → sharer: invalidate (ack goes to the requester).
    DirInv,
    /// Sharer → requester: invalidation acknowledged.
    DirInvAck,
    /// Home → requester: data from memory; `acks_expected` pending.
    DirData,
    /// Home → requester: negative ack, retry (home entry busy).
    DirNack,
    /// Requester → home: transaction complete, unblock the entry.
    DirUnblock,
}

impl MsgKind {
    /// Whether this kind travels as an ordered broadcast in SCORPIO.
    pub fn is_ordered_request(self) -> bool {
        matches!(self, MsgKind::GetS | MsgKind::GetX | MsgKind::WbReq)
    }
}

/// A coherence message: the `Copy` payload carried by every packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CohMsg {
    /// What this message is.
    pub kind: MsgKind,
    /// The line it concerns.
    pub addr: LineAddr,
    /// The tile that originated the transaction.
    pub requester: u16,
    /// The requester's RSHR entry id ("request entry ID" in the paper),
    /// used to match responses and FID forwards to outstanding requests.
    pub req_tag: u8,
    /// Logical data value (verification oracle; stands in for the 32-byte
    /// line contents).
    pub value: u64,
    /// For [`MsgKind::DirData`]: invalidation acks the requester must await.
    /// For [`MsgKind::InsoExpire`]: number of slots expired.
    pub aux: u16,
    /// The endpoint that sent this message (responder / home / owner).
    pub sender: Endpoint,
}

/// Multi-plane steering: all traffic for a line travels on the plane its
/// address selects, which is what keeps per-address order intact when the
/// main network is replicated. (The stripe granularity — how the byte
/// address is shifted before the modulo — is configured at the network.)
impl scorpio_noc::SteerKey for CohMsg {
    fn steer_key(&self) -> u64 {
        self.addr.0
    }
}

impl CohMsg {
    /// A new message; `aux` defaults to 0.
    pub fn new(
        kind: MsgKind,
        addr: LineAddr,
        requester: u16,
        req_tag: u8,
        sender: Endpoint,
    ) -> Self {
        CohMsg {
            kind,
            addr,
            requester,
            req_tag,
            value: 0,
            aux: 0,
            sender,
        }
    }

    /// Same message with `value` set.
    #[must_use]
    pub fn with_value(mut self, value: u64) -> Self {
        self.value = value;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio_noc::RouterId;

    #[test]
    fn line_addr_masks_offset() {
        assert_eq!(LineAddr::containing(0x1234, 32), LineAddr(0x1220));
        assert_eq!(LineAddr::containing(0x1220, 32), LineAddr(0x1220));
        assert_eq!(LineAddr::containing(63, 64), LineAddr(0));
    }

    #[test]
    fn region_is_4kb() {
        assert_eq!(LineAddr(0x0FFF).region(), 0);
        assert_eq!(LineAddr(0x1000).region(), 1);
        assert_eq!(LineAddr(0x2FE0).region(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_line_panics() {
        let _ = LineAddr::containing(0, 48);
    }

    #[test]
    fn ordered_kinds() {
        assert!(MsgKind::GetS.is_ordered_request());
        assert!(MsgKind::GetX.is_ordered_request());
        assert!(MsgKind::WbReq.is_ordered_request());
        assert!(!MsgKind::Data.is_ordered_request());
        assert!(!MsgKind::DirGetS.is_ordered_request());
    }

    #[test]
    fn builder_methods() {
        let ep = Endpoint::tile(RouterId(3));
        let mut m = CohMsg::new(MsgKind::Data, LineAddr(0x40), 3, 1, ep).with_value(99);
        m.aux = 2;
        assert_eq!(m.value, 99);
        assert_eq!(m.aux, 2);
        assert_eq!(m.sender, ep);
        assert!(format!("{}", m.addr).starts_with("0x"));
    }
}
