//! Delivery exactness: a NIC ticked only when [`Nic::next_wake`] and its
//! wake events (a flit it can act on, a non-empty window, a send) say so
//! must deliver the same ordered requests, in the same order and on the
//! same cycles, as a NIC ticked every cycle. Requests arrive out of turn
//! and wait behind the expected one, so this pins the rule that a NIC
//! never sleeps through a tick that would have delivered.

use scorpio_nic::{Nic, NicConfig, NicMode, OrderedDelivery};
use scorpio_noc::{set_bits, Fabric, LocalSlot, MultiNetwork, NocConfig, Sid};
use scorpio_notify::{NotifyConfig, NotifyNetwork, NotifyScheme};
use scorpio_sim::{Cycle, SimRng};
use std::num::NonZeroUsize;

/// Per-NIC delivery log: (plane, sid, own, delivery cycle).
type Log = Vec<(usize, Sid, bool, Cycle)>;

struct World {
    planes: usize,
    net: MultiNetwork<u32>,
    notify: NotifyNetwork,
    nics: Vec<Nic<u32>>,
    logs: Vec<Log>,
    /// Event-driven worlds only: the cycle each NIC next ticks at.
    wake_at: Option<Vec<Cycle>>,
    last_window: Option<u64>,
    ticks: u64,
    /// NIC-cycles on which an ordered request headed an ejection VC while
    /// its plane expected another SID.
    out_of_turn: u64,
}

impl World {
    fn new(planes: usize, pipelined: bool, event_driven: bool) -> World {
        let mesh = Fabric::Mesh.topology(4);
        // Two deep request VCs (plus the rVC): ejection VCs queue several
        // packets behind a head that is not yet expected.
        let mut noc = NocConfig::scorpio();
        (noc.vnets[0].vcs, noc.vnets[0].depth) = (2, 3);
        let cores = mesh.router_count();
        let nic_cfg = NicConfig {
            pipelined,
            ..NicConfig::default()
        };
        let nics: Vec<Nic<u32>> = mesh
            .endpoints()
            .map(|ep| {
                let sid = matches!(ep.slot, LocalSlot::Tile(_)).then_some(Sid(ep.router.0));
                Nic::new(ep, sid, NicMode::Ordered, cores, planes, nic_cfg.clone())
            })
            .collect();
        World {
            planes,
            net: MultiNetwork::new(mesh.clone(), noc, NonZeroUsize::new(planes).unwrap(), 0),
            notify: NotifyNetwork::with_scheme(
                &mesh,
                NotifyConfig::for_mesh(&mesh),
                planes,
                NotifyScheme::Flat,
            ),
            logs: vec![Vec::new(); nics.len()],
            wake_at: event_driven.then(|| vec![Cycle::ZERO; nics.len()]),
            nics,
            last_window: None,
            ticks: 0,
            out_of_turn: 0,
        }
    }

    /// One cycle: `sends` are (tile, payload) requests offered this cycle
    /// (a send wakes its NIC, as a tile's own tick would).
    fn step(&mut self, sends: &[(usize, u32)]) {
        let now = self.net.cycle();
        for &(tile, payload) in sends {
            if self.nics[tile]
                .try_send_request(payload, now, &mut self.net)
                .is_ok()
            {
                if let Some(wake_at) = &mut self.wake_at {
                    wake_at[tile] = now;
                }
            }
        }
        for (i, nic) in self.nics.iter_mut().enumerate() {
            if self.wake_at.as_ref().is_some_and(|w| w[i] > now) {
                continue;
            }
            self.ticks += 1;
            while let Some(OrderedDelivery { sid, own, payload }) = nic.pop_ordered() {
                let plane = self.net.plane_of(u64::from(payload));
                self.logs[i].push((plane, sid, own, now));
            }
            let idx = self.net.endpoint_index(nic.endpoint());
            for p in 0..self.planes {
                let net = self.net.plane(p);
                let heads = net.eject_vcs(idx) & net.ordered_vcs();
                let esid = nic.current_esid(p);
                self.out_of_turn += set_bits(heads)
                    .filter(|&vc| {
                        net.eject_head(idx, vc)
                            .is_some_and(|f| f.packet.sid != esid)
                    })
                    .count() as u64;
            }
            nic.tick(now, &mut self.net, Some(&mut self.notify));
            if let Some(wake_at) = &mut self.wake_at {
                wake_at[i] = nic.next_wake(now, &self.net, Some(&self.notify)).at;
            }
        }
        self.net.tick();
        self.net.commit();
        self.notify.tick();
        let Some(wake_at) = &mut self.wake_at else {
            return;
        };
        // The system's wake events: a flit the NIC can act on, and a
        // completed window that carries anything.
        let next = now.next();
        let mut woken = Vec::new();
        self.net.take_woken_endpoints(&mut woken);
        for ep in woken {
            let nic = &self.nics[ep as usize];
            if nic.next_wake(now, &self.net, Some(&self.notify)).at <= next {
                wake_at[ep as usize] = next;
            }
        }
        if let Some((w, msg)) = self.notify.latest() {
            if self.last_window != Some(w) {
                self.last_window = Some(w);
                if !msg.is_empty() {
                    wake_at.fill(next);
                }
            }
        }
    }
}

fn polled_and_event_driven_agree(planes: usize, pipelined: bool, seed: u64) {
    let mut polled = World::new(planes, pipelined, false);
    let mut event = World::new(planes, pipelined, true);
    let mut rng = SimRng::seed_from(seed);
    let mut sent = 0u32;
    for cycle in 0..8_000 {
        // Bursts, then silence: heads pile up while ESIDs lag, then every
        // NIC drains and sleeps.
        let mut sends = Vec::new();
        if cycle % 2_000 < 1_000 {
            for tile in 0..16 {
                if rng.chance(0.015) {
                    sent += 1;
                    sends.push((tile, sent));
                }
            }
        }
        polled.step(&sends);
        event.step(&sends);
    }
    assert!(sent > 500, "the pattern sent traffic: {sent}");
    let delivered: usize = polled.logs.iter().map(Vec::len).sum();
    assert_eq!(delivered, polled.nics.len() * polled.logs[0].len());
    assert!(polled.logs[0].len() > 500, "requests were delivered");
    assert!(
        event.ticks * 2 < polled.ticks,
        "the event-driven NICs slept: {} of {} ticks",
        event.ticks,
        polled.ticks
    );
    for i in 0..polled.nics.len() {
        let diverged = polled.logs[i]
            .iter()
            .zip(&event.logs[i])
            .position(|(a, b)| a != b);
        assert_eq!(
            diverged, None,
            "NIC {i}: delivery logs diverge at this entry"
        );
        assert_eq!(polled.logs[i].len(), event.logs[i].len(), "NIC {i}");
    }
    assert!(
        polled.out_of_turn > 0,
        "some request arrived out of turn and waited for it"
    );
}

#[test]
fn deliveries_are_exact_when_ticked_only_on_wakes() {
    for seed in 1..=3 {
        polled_and_event_driven_agree(1, true, seed);
    }
}

#[test]
fn deliveries_are_exact_on_two_planes_and_a_slow_nic() {
    polled_and_event_driven_agree(2, true, 7);
    polled_and_event_driven_agree(1, false, 11);
}
