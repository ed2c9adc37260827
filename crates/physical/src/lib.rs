//! Analytical area and power models of the SCORPIO chip (Section 5.4).
//!
//! Calibrated to the published tile breakdowns (Figure 9), the chip feature
//! summary (Table 1) and the multicore comparison (Table 2). The model also
//! encodes the design-exploration costs quoted in Section 5.2 (e.g. 6 VCs
//! cost 15% more area and 12% more power than 4) so ablation benches can
//! trade performance against silicon.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breakdown;
mod tables;

pub use breakdown::{
    chip_power_watts, energy_per_message_scale, link_length_scale, network_area_scale,
    network_power_scale, notification_tree_nodes, notification_width_bits, router_area_scale,
    router_power_scale, router_radix, tile_area_breakdown, tile_power_breakdown, Component, Share,
};
pub use tables::{chip_feature_table, processor_comparison_table};
