//! Tile area/power breakdowns (Figure 9) and scaling rules (Section 5.2).

use crate::Fabric;

/// A tile component in the breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Component {
    /// Core logic (with L1 control).
    Core,
    /// L1 data cache arrays.
    L1Data,
    /// L1 instruction cache arrays.
    L1Inst,
    /// L2 cache controller.
    L2Controller,
    /// L2 data/tag arrays.
    L2Array,
    /// Request-status holding registers.
    Rshr,
    /// AHB + ACE interface logic.
    AhbAce,
    /// Region tracker (snoop filter).
    RegionTracker,
    /// On-chip L2 tester.
    L2Tester,
    /// NIC + main-network router (+ notification router).
    NicRouter,
    /// Everything else.
    Other,
}

/// One slice of a breakdown: component and its share in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Share {
    /// The component.
    pub component: Component,
    /// Percentage of the tile total.
    pub percent: f64,
}

/// The tile *power* breakdown of Figure 9a (percent of tile power; the
/// paper: core+L1 ≈ 62%, L2 ≈ 18%, NIC+router ≈ 19%).
pub(crate) fn tile_power_breakdown() -> Vec<Share> {
    vec![
        Share {
            component: Component::Core,
            percent: 54.0,
        },
        Share {
            component: Component::L1Data,
            percent: 4.0,
        },
        Share {
            component: Component::L1Inst,
            percent: 4.0,
        },
        Share {
            component: Component::L2Controller,
            percent: 2.0,
        },
        Share {
            component: Component::L2Array,
            percent: 7.0,
        },
        Share {
            component: Component::Rshr,
            percent: 4.0,
        },
        Share {
            component: Component::AhbAce,
            percent: 2.0,
        },
        Share {
            component: Component::RegionTracker,
            percent: 0.5,
        },
        Share {
            component: Component::L2Tester,
            percent: 2.0,
        },
        Share {
            component: Component::NicRouter,
            percent: 19.0,
        },
        Share {
            component: Component::Other,
            percent: 1.5,
        },
    ]
}

/// The tile *area* breakdown of Figure 9b (caches ≈ 46%, NIC+router 10%).
pub(crate) fn tile_area_breakdown() -> Vec<Share> {
    vec![
        Share {
            component: Component::Core,
            percent: 32.0,
        },
        Share {
            component: Component::L1Data,
            percent: 6.0,
        },
        Share {
            component: Component::L1Inst,
            percent: 6.0,
        },
        Share {
            component: Component::L2Controller,
            percent: 2.0,
        },
        Share {
            component: Component::L2Array,
            percent: 34.0,
        },
        Share {
            component: Component::Rshr,
            percent: 4.0,
        },
        Share {
            component: Component::AhbAce,
            percent: 4.0,
        },
        Share {
            component: Component::RegionTracker,
            percent: 0.5,
        },
        Share {
            component: Component::L2Tester,
            percent: 2.0,
        },
        Share {
            component: Component::NicRouter,
            percent: 10.0,
        },
        Share {
            component: Component::Other,
            percent: -0.5,
        },
    ]
}

/// Whole-chip power estimate in watts, scaled linearly with tile count
/// from the 36-tile, 28.8 W chip (768 mW per tile).
pub(crate) fn chip_power_watts(tiles: usize) -> f64 {
    0.8 * tiles as f64
}

/// The main-network port count of one router on `fabric`: four mesh
/// directions (two on a ring) plus one local port per tile behind it. The
/// chip's 5-port mesh router is the baseline the area/power shares of
/// Figure 9 were synthesized for; a concentration-4 CMesh router switches
/// 8 ports.
///
/// This is the single radix derivation the physical model uses, from the
/// same fabric value the delivery fabric and notification window are
/// built from, so the wire model can never disagree with the topology
/// about router shape.
pub(crate) fn router_radix(fabric: Fabric) -> usize {
    let directions = match fabric {
        Fabric::Mesh | Fabric::Torus | Fabric::CMesh(_) => 4,
        Fabric::Ring => 2,
    };
    directions + usize::from(fabric.concentration())
}

/// Average link-length scale of `fabric`, relative to the mesh's
/// nearest-neighbour links. A folded torus keeps every physical link equal
/// but twice the mesh hop length (the standard folding layout for the
/// wraparound links); a ring laid out as a folded loop likewise pays ~2×.
/// Concentrating `c` tiles behind one router stretches each inter-router
/// link across a `√c × √c` tile block, so wire length grows with `√c`.
/// Link energy scales linearly with wire length.
pub(crate) fn link_length_scale(fabric: Fabric) -> f64 {
    let base = if fabric.wraps() { 2.0 } else { 1.0 };
    base * f64::from(fabric.concentration()).sqrt()
}

/// Router radix relative to the chip's 5-port mesh router.
fn radix_ratio(fabric: Fabric) -> f64 {
    router_radix(fabric) as f64 / router_radix(Fabric::Mesh) as f64
}

/// Router+NIC power relative to the chip's 4-VC mesh router. The VC term
/// is Section 5.2's "consumes 12% less power than 6 VCs"; switching
/// energy follows the crossbar/buffer radix split of the area model
/// (crossbar quadratic, buffers linear in the port count, taken as the
/// mean of the two), and the fabric's link length scales the link
/// drivers (~40% of router+link power on the chip's nearest-neighbour
/// links).
pub(crate) fn router_power_scale(goreq_vcs: u8, fabric: Fabric) -> f64 {
    let r = radix_ratio(fabric);
    let switching = (1.0 + (goreq_vcs as f64 - 4.0) * (0.12 / 2.0)) * (r * r + r) / 2.0;
    const LINK_FRACTION: f64 = 0.4;
    switching * (1.0 - LINK_FRACTION) + switching * LINK_FRACTION * link_length_scale(fabric)
}

/// Total main-network power budget relative to the chip's single-plane
/// 4-VC mesh at the same tile count: each plane adds a full set of
/// routers, and concentrating `c` tiles per router divides the router
/// count by `c`. Idle planes clock-gate nothing in this
/// model — the honest upper bound for the replication cost the `planes`
/// sweeps report.
pub(crate) fn network_power_scale(goreq_vcs: u8, fabric: Fabric, planes: usize) -> f64 {
    assert!(planes > 0, "at least one plane");
    planes as f64 * router_power_scale(goreq_vcs, fabric) / f64::from(fabric.concentration())
}

/// Relative network energy per delivered message: the scaled network
/// power integrated over the run, divided by the messages it delivered.
/// Reported (not just cycles) by the multi-plane, topology and cmesh
/// sweeps so "more planes", "better topology" and "more concentration"
/// compare on energy terms; only ratios between configurations are
/// meaningful.
///
/// Returns 0 when no messages were delivered.
pub(crate) fn energy_per_message_scale(
    goreq_vcs: u8,
    fabric: Fabric,
    planes: usize,
    runtime_cycles: u64,
    messages: u64,
) -> f64 {
    if messages == 0 {
        return 0.0;
    }
    network_power_scale(goreq_vcs, fabric, planes) * runtime_cycles as f64 / messages as f64
}

/// Notification-network data width: m bits per core plus the stop bit,
/// times the number of main-network planes (each plane carries its own
/// word group); O(m·N·planes) scaling discussed in Section 5.2.
pub(crate) fn notification_width_bits(cores: usize, bits_per_core: u8, planes: usize) -> usize {
    planes * (cores * bits_per_core as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Router+NIC area relative to the chip's 4-VC *mesh* router. The VC
    /// term is the post-synthesis evaluation in Section 5.2 ("4 VCs is 15%
    /// more area efficient ... than 6 VCs") with linear interpolation per VC.
    /// The fabric term corrects for router radix: crossbar area grows with
    /// the square of the port count, buffers/allocators linearly, modeled
    /// here as the mean of the two. A 3-port ring router is therefore
    /// markedly smaller than the 5-port mesh router at the same VC count, and
    /// a concentration-4 CMesh router markedly larger.
    fn router_area_scale(goreq_vcs: u8, fabric: Fabric) -> f64 {
        let r = radix_ratio(fabric);
        (1.0 + (goreq_vcs as f64 - 4.0) * (0.15 / 2.0)) * (r * r + r) / 2.0
    }

    /// Total main-network area relative to the chip's single-plane 4-VC mesh
    /// *at the same tile count*: replicating the network multiplies routers
    /// and links per plane, while concentrating divides the router count by
    /// `concentration` — so a bigger router is paid for out of fewer routers.
    /// At concentration 2 the per-router area rises ~1.3× but only half the
    /// routers exist, a net win the `cmesh` sweeps report.
    fn network_area_scale(goreq_vcs: u8, fabric: Fabric, planes: usize) -> f64 {
        assert!(planes > 0, "at least one plane");
        planes as f64 * router_area_scale(goreq_vcs, fabric) / f64::from(fabric.concentration())
    }

    /// Aggregate-node count of the quad-tree: one OR node per quad per level
    /// above the leaves. Each node is pure combinational OR logic over
    /// [`notification_width_bits`] wires, so tree cost scales with
    /// this count times the flat network's per-hop width.
    fn notification_tree_nodes(cols: usize, rows: usize, fanout: usize) -> usize {
        assert!(fanout >= 2, "a tree needs fanout >= 2");
        let (mut c, mut r, mut nodes) = (cols.max(1), rows.max(1), 0);
        while c > 1 || r > 1 {
            c = c.div_ceil(fanout);
            r = r.div_ceil(fanout);
            nodes += c * r;
        }
        nodes
    }

    #[test]
    fn power_breakdown_sums_to_100() {
        let total: f64 = tile_power_breakdown().iter().map(|s| s.percent).sum();
        assert!((total - 100.0).abs() < 1e-9, "sum {total}");
    }

    #[test]
    fn area_breakdown_sums_to_100() {
        let total: f64 = tile_area_breakdown().iter().map(|s| s.percent).sum();
        assert!((total - 100.0).abs() < 1e-9, "sum {total}");
    }

    #[test]
    fn paper_aggregates_hold() {
        let p = tile_power_breakdown();
        let pct = |c: Component| p.iter().find(|s| s.component == c).unwrap().percent;
        // Core + L1s ≈ 62% of tile power.
        assert!(
            (pct(Component::Core) + pct(Component::L1Data) + pct(Component::L1Inst) - 62.0).abs()
                < 1.0
        );
        // NIC + router ≈ 19%.
        assert!((pct(Component::NicRouter) - 19.0).abs() < 0.5);

        let a = tile_area_breakdown();
        let apct = |c: Component| a.iter().find(|s| s.component == c).unwrap().percent;
        // Caches ≈ 46% of tile area (L1s + L2 array).
        assert!(
            (apct(Component::L1Data) + apct(Component::L1Inst) + apct(Component::L2Array) - 46.0)
                .abs()
                < 1.0
        );
        assert!((apct(Component::NicRouter) - 10.0).abs() < 0.5);
    }

    #[test]
    fn chip_power_matches_table1() {
        assert!((chip_power_watts(36) - 28.8).abs() < 1e-9);
        assert!(chip_power_watts(64) > chip_power_watts(36));
    }

    #[test]
    fn vc_scaling_matches_section_5_2() {
        assert!((router_area_scale(4, Fabric::Mesh) - 1.0).abs() < 1e-9);
        assert!((router_area_scale(6, Fabric::Mesh) - 1.15).abs() < 1e-9);
        assert!((router_power_scale(6, Fabric::Mesh) - 1.12).abs() < 1e-9);
        assert!(router_area_scale(2, Fabric::Mesh) < 1.0);
    }

    #[test]
    fn notification_widths() {
        assert_eq!(notification_width_bits(36, 1, 1), 37);
        assert_eq!(notification_width_bits(36, 2, 1), 73);
        assert_eq!(notification_width_bits(100, 3, 1), 301);
        // Planes multiply the whole word group (counts + stop).
        assert_eq!(notification_width_bits(36, 1, 4), 148);
    }

    #[test]
    fn topology_corrections_track_radix_and_wire_length() {
        // The mesh baseline is exactly the VC-only scale.
        assert!((router_area_scale(4, Fabric::Mesh) - 1.0).abs() < 1e-9);
        assert!((router_power_scale(4, Fabric::Mesh) - 1.0).abs() < 1e-9);
        // A torus router has mesh radix but 2x links: more power, equal
        // area.
        assert!((router_area_scale(4, Fabric::Torus) - 1.0).abs() < 1e-9);
        let torus_p = router_power_scale(4, Fabric::Torus);
        assert!(torus_p > 1.0 && torus_p < 2.0, "torus power {torus_p}");
        // A 3-port ring router is smaller than the 5-port mesh router
        // despite its longer folded links.
        assert!(router_area_scale(4, Fabric::Ring) < 1.0);
        // VC scaling still applies on every fabric.
        assert!(router_area_scale(6, Fabric::Torus) > router_area_scale(4, Fabric::Torus));
    }

    #[test]
    fn plane_scaling_is_linear_and_energy_per_message_divides_out() {
        assert!((network_area_scale(4, Fabric::Mesh, 1) - 1.0).abs() < 1e-9);
        assert!((network_area_scale(4, Fabric::Mesh, 4) - 4.0).abs() < 1e-9);
        assert!((network_power_scale(4, Fabric::Mesh, 2) - 2.0).abs() < 1e-9);
        // 4 planes at 1/3 the runtime: energy per message worsens by 4/3
        // if message counts match.
        let e1 = energy_per_message_scale(4, Fabric::Mesh, 1, 3000, 100);
        let e4 = energy_per_message_scale(4, Fabric::Mesh, 4, 1000, 100);
        assert!((e4 / e1 - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(energy_per_message_scale(4, Fabric::Mesh, 1, 100, 0), 0.0);
    }

    #[test]
    fn notification_tree_shrinks_the_window_logarithmically() {
        // A tree is priced as notify's window plus this crate's node count:
        // the window falls to 2·depth + 3 while the nodes stay a geometric
        // fraction of the leaves.
        use scorpio::NotifyScheme;
        use scorpio_noc::{Fabric, Topology};
        let window = |cols: u16, rows: u16, fanout: u8| {
            let topo: Topology = Topology::new(Fabric::Mesh, cols, rows, []);
            NotifyScheme::Quad { fanout }.window_for(&topo)
        };
        // 32×32: flat window 65; fanout 2 is depth 5 (window 13) over 341
        // nodes, fanout 4 depth 3 (window 9) over 69.
        assert_eq!(window(32, 32, 2), 13);
        assert_eq!(notification_tree_nodes(32, 32, 2), 341);
        assert_eq!(window(32, 32, 4), 9);
        assert_eq!(notification_tree_nodes(32, 32, 4), 69);
        // 6×6 (the paper's 36-core chip): depth 3 at fanout 2, 9 + 4 + 1 nodes.
        assert_eq!(window(6, 6, 2), 9);
        assert_eq!(notification_tree_nodes(6, 6, 2), 14);
        // Non-square grids round each dimension up independently.
        assert_eq!(window(8, 2, 2), 9);
        assert_eq!(notification_tree_nodes(8, 2, 2), 4 + 2 + 1);
        // A 1×1 grid needs no tree at all.
        assert_eq!(window(1, 1, 2), 3);
        assert_eq!(notification_tree_nodes(1, 1, 2), 0);
    }

    #[test]
    fn notification_tree_node_count_is_geometric() {
        // 4×4 fanout 2: 2×2 + 1×1 = 5 aggregate nodes.
        assert_eq!(notification_tree_nodes(4, 4, 2), 5);
        // 32×32 fanout 2: 256 + 64 + 16 + 4 + 1 = 341 — about a third of
        // the 1024 leaf latches, so the tree adds O(N/3) OR nodes.
        assert_eq!(notification_tree_nodes(32, 32, 2), 341);
        // Wider fanout trades depth for per-node fan-in: fewer nodes.
        assert_eq!(notification_tree_nodes(32, 32, 4), 64 + 4 + 1);
        assert_eq!(notification_tree_nodes(1, 1, 2), 0);
    }

    #[test]
    fn concentration_scaling_trades_radix_for_router_count() {
        // A c=1 cmesh is the mesh baseline exactly.
        assert_eq!(router_radix(Fabric::CMesh(1)), 5);
        assert!((router_area_scale(4, Fabric::CMesh(1)) - 1.0).abs() < 1e-9);
        assert!((network_power_scale(4, Fabric::CMesh(1), 1) - 1.0).abs() < 1e-9);
        // Radix grows with concentration; the ring keeps its 2-port base.
        assert_eq!(router_radix(Fabric::CMesh(4)), 8);
        assert_eq!(router_radix(Fabric::Ring), 3);
        // Per-router cost rises with concentration...
        assert!(router_area_scale(4, Fabric::CMesh(2)) > router_area_scale(4, Fabric::CMesh(1)));
        // ...but the *network* (same tile count, 1/c the routers) shrinks:
        // concentration is a net area win at every supported c.
        let a1 = network_area_scale(4, Fabric::CMesh(1), 1);
        let a2 = network_area_scale(4, Fabric::CMesh(2), 1);
        let a4 = network_area_scale(4, Fabric::CMesh(4), 1);
        assert!(a2 < a1, "c=2 network area {a2} not below c=1 {a1}");
        assert!(a4 < a2, "c=4 network area {a4} not below c=2 {a2}");
        // Wires stretch with sqrt(c).
        assert!((link_length_scale(Fabric::CMesh(4)) - 2.0).abs() < 1e-9);
        assert!((link_length_scale(Fabric::Torus) - 2.0).abs() < 1e-9);
        // Power: bigger switch vs fewer routers and longer wires — still
        // below the unconcentrated mesh at c=2.
        assert!(network_power_scale(4, Fabric::CMesh(2), 1) < 1.0);
        // Plane replication composes multiplicatively.
        let two_planes = network_power_scale(4, Fabric::CMesh(2), 2);
        assert!((two_planes - 2.0 * network_power_scale(4, Fabric::CMesh(2), 1)).abs() < 1e-9);
    }
}
