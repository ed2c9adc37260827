//! Packets, flits and virtual-network identifiers.

use crate::topology::Endpoint;
use scorpio_sim::Cycle;
use std::fmt;

/// Marker for types that can travel as packet payloads.
///
/// Payloads are small `Copy` values (a coherence message is a few dozen
/// bytes); broadcast forking clones the payload per branch, so cheap copies
/// matter. Blanket-implemented for every eligible type.
pub trait Payload: Copy + fmt::Debug + 'static {}

impl<T: Copy + fmt::Debug + 'static> Payload for T {}

/// Identifies a virtual network (message class) within the main network.
///
/// SCORPIO uses two (Section 3.2): `VnetId::GO_REQ` for globally ordered
/// broadcast requests and [`VnetId::UO_RESP`] for unordered responses. The
/// directory baselines run three unordered classes (request / forward /
/// response) on the same router fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VnetId(pub u8);

impl VnetId {
    /// The globally-ordered request class in the SCORPIO configuration.
    pub(crate) const GO_REQ: VnetId = VnetId(0);
    /// The unordered response class in the SCORPIO configuration.
    pub const UO_RESP: VnetId = VnetId(1);

    /// Dense index for array lookup.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VnetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vnet{}", self.0)
    }
}

/// Source identifier of an ordered request: the index of the injecting tile.
///
/// Requests on the GO-REQ virtual network are identified (and point-to-point
/// ordered) by SID alone; the notification network establishes the global
/// order among SIDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sid(pub u16);

impl Sid {
    /// The SID as a `usize` for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sid{}", self.0)
    }
}

/// Where a packet is going.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// A single endpoint (UO-RESP traffic, directory-protocol requests).
    Unicast(Endpoint),
    /// Every endpoint except the source tile, which self-delivers through
    /// its NIC loopback (GO-REQ coherence requests).
    Broadcast,
}

/// A packet: the unit of transfer the NIC composes and parses.
///
/// Control packets are a single flit; data packets carry a cache line and
/// span `len_flits` flits depending on the channel width (Table 1: 1-flit
/// control, 3-flit data at 16-byte channels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet<T> {
    /// Virtual network this packet travels on.
    pub vnet: VnetId,
    /// Injecting endpoint.
    pub src: Endpoint,
    /// Destination.
    pub dest: Dest,
    /// Source id, present on every ordered request.
    pub sid: Option<Sid>,
    /// Per-source request sequence number (the chip's "request entry ID").
    /// Reserved-VC eligibility matches on (SID, seq) so a *later* request
    /// from the same source can never squat in an rVC meant for the
    /// globally expected one.
    pub sid_seq: u16,
    /// Total flits in this packet (≥ 1).
    pub len_flits: u8,
    /// Cycle at which the packet entered the NIC injection queue.
    pub inject_cycle: Cycle,
    /// Unique id for tracking/debug; assigned by the network at injection.
    pub uid: u64,
    /// Opaque payload, carried on the head flit.
    pub payload: T,
}

impl<T: Payload> Packet<T> {
    /// Builds a single-flit broadcast request on GO-REQ. `seq` is the
    /// per-source request sequence number.
    pub fn request(src: Endpoint, sid: Sid, seq: u16, payload: T) -> Packet<T> {
        Packet {
            vnet: VnetId::GO_REQ,
            src,
            dest: Dest::Broadcast,
            sid: Some(sid),
            sid_seq: seq,
            len_flits: 1,
            inject_cycle: Cycle::ZERO,
            uid: 0,
            payload,
        }
    }

    /// Builds a unicast response on UO-RESP spanning `len_flits` flits.
    ///
    /// # Panics
    ///
    /// Panics if `len_flits` is zero.
    pub fn response(src: Endpoint, dest: Endpoint, len_flits: u8, payload: T) -> Packet<T> {
        Packet::unicast(VnetId::UO_RESP, src, dest, len_flits, payload)
    }

    /// Builds a unicast packet on an arbitrary virtual network (used by the
    /// directory baselines for requests and forwards).
    ///
    /// # Panics
    ///
    /// Panics if `len_flits` is zero.
    pub fn unicast(
        vnet: VnetId,
        src: Endpoint,
        dest: Endpoint,
        len_flits: u8,
        payload: T,
    ) -> Packet<T> {
        assert!(len_flits >= 1, "a packet has at least one flit");
        Packet {
            vnet,
            src,
            dest: Dest::Unicast(dest),
            sid: None,
            sid_seq: 0,
            len_flits,
            inject_cycle: Cycle::ZERO,
            uid: 0,
            payload,
        }
    }

    /// Builds a single-flit *unordered* broadcast (TokenB / INSO baselines:
    /// snoop broadcasts without the notification network).
    pub fn broadcast_unordered(vnet: VnetId, src: Endpoint, payload: T) -> Packet<T> {
        Packet {
            vnet,
            src,
            dest: Dest::Broadcast,
            sid: None,
            sid_seq: 0,
            len_flits: 1,
            inject_cycle: Cycle::ZERO,
            uid: 0,
            payload,
        }
    }
}

/// A flit: the unit of flow control in the main network.
///
/// Each flit carries its whole packet by value (payloads are tiny `Copy`
/// structs), so body flits are self-describing and broadcast forks are
/// plain copies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flit<T> {
    /// The packet this flit belongs to.
    pub packet: Packet<T>,
    /// Position within the packet, `0..len_flits`.
    pub idx: u8,
}

impl<T: Payload> Flit<T> {
    /// Whether this is the head flit.
    #[inline]
    pub(crate) fn is_head(&self) -> bool {
        self.idx == 0
    }

    /// Whether this is the tail flit (single-flit packets are both).
    #[inline]
    pub fn is_tail(&self) -> bool {
        self.idx + 1 == self.packet.len_flits
    }

    /// Whether the packet consists of a single flit (eligible for lookahead
    /// bypassing).
    #[inline]
    pub(crate) fn is_single(&self) -> bool {
        self.packet.len_flits == 1
    }
}

/// Computes the number of flits in a cache-line data packet for a given
/// channel width, per the paper's design exploration (Section 5.2):
/// 8-byte channels need 5 flits, 16-byte need 3, 32-byte need 2.
///
/// The model is an 8-byte header plus the cache line, divided across
/// channel-width flits.
///
/// # Panics
///
/// Panics if `channel_bytes` is zero.
///
/// # Examples
///
/// ```
/// use scorpio_noc::data_packet_flits;
///
/// assert_eq!(data_packet_flits(8, 32), 5);
/// assert_eq!(data_packet_flits(16, 32), 3);
/// assert_eq!(data_packet_flits(32, 32), 2);
/// ```
pub fn data_packet_flits(channel_bytes: u32, line_bytes: u32) -> u8 {
    assert!(channel_bytes > 0, "channel width must be non-zero");
    const HEADER_BYTES: u32 = 8;
    let total = HEADER_BYTES + line_bytes;
    total.div_ceil(channel_bytes) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::RouterId;

    fn ep(r: u16) -> Endpoint {
        Endpoint::tile(RouterId(r))
    }

    #[test]
    fn request_is_single_flit_broadcast() {
        let p = Packet::request(ep(3), Sid(3), 0, 0u32);
        assert_eq!(p.vnet, VnetId::GO_REQ);
        assert_eq!(p.dest, Dest::Broadcast);
        assert_eq!(p.len_flits, 1);
        assert_eq!(p.sid, Some(Sid(3)));
    }

    #[test]
    fn response_is_unicast() {
        let p = Packet::response(ep(1), ep(2), 3, 9u32);
        assert_eq!(p.vnet, VnetId::UO_RESP);
        assert_eq!(p.dest, Dest::Unicast(ep(2)));
        assert_eq!(p.sid, None);
    }

    #[test]
    fn unordered_broadcast_has_no_sid() {
        let p = Packet::broadcast_unordered(VnetId(0), ep(1), ());
        assert_eq!(p.dest, Dest::Broadcast);
        assert_eq!(p.sid, None);
        assert_eq!(p.len_flits, 1);
    }

    #[test]
    fn flit_head_tail_flags() {
        let p = Packet::response(ep(0), ep(1), 3, ());
        let flits: Vec<_> = (0..3).map(|idx| Flit { packet: p, idx }).collect();
        assert_eq!(flits.len(), 3);
        assert!(flits[0].is_head() && !flits[0].is_tail());
        assert!(!flits[1].is_head() && !flits[1].is_tail());
        assert!(!flits[2].is_head() && flits[2].is_tail());
        assert!(!flits[0].is_single());

        let single = Packet::request(ep(0), Sid(0), 0, ());
        let only = [Flit {
            packet: single,
            idx: 0,
        }];
        assert!(only[0].is_head() && only[0].is_tail() && only[0].is_single());
    }

    #[test]
    fn data_flit_counts_match_paper() {
        assert_eq!(data_packet_flits(8, 32), 5);
        assert_eq!(data_packet_flits(16, 32), 3);
        assert_eq!(data_packet_flits(32, 32), 2);
        // 137-bit (~17-byte) channel of the actual chip: 3 flits as well.
        assert_eq!(data_packet_flits(17, 32), 3);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flit_response_panics() {
        let _ = Packet::response(ep(0), ep(1), 0, ());
    }

    #[test]
    fn vnet_constants() {
        assert_eq!(VnetId::GO_REQ.index(), 0);
        assert_eq!(VnetId::UO_RESP.index(), 1);
        assert_eq!(VnetId(3).to_string(), "vnet3");
    }
}
