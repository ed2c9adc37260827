//! Table 1 (chip features) and Table 2 (processor comparison) as data.

/// The chip feature summary of Table 1 as (feature, value) rows.
pub(crate) fn chip_feature_table() -> Vec<(&'static str, String)> {
    vec![
        ("Process", "IBM 45 nm SOI".into()),
        ("Dimension", "11 × 13 mm²".into()),
        ("Transistor count", "600 M".into()),
        ("Frequency", "833 MHz (1 GHz post-synthesis)".into()),
        ("Power", "28.8 W".into()),
        ("Core", "Dual-issue, in-order, 10-stage pipeline".into()),
        ("ISA", "32-bit Power Architecture".into()),
        ("L1 cache", "Private split 4-way write-through 16 KB I/D".into()),
        ("L2 cache", "Private inclusive 4-way 128 KB".into()),
        ("Line size", "32 B".into()),
        ("Coherence protocol", "MOSI (O: forward state)".into()),
        ("Directory cache", "128 KB (1 owner bit, 1 dirty bit)".into()),
        ("Snoop filter", "Region tracker (4 KB regions, 128 entries)".into()),
        ("NoC topology", "6×6 mesh".into()),
        (
            "Channel width",
            "137 bits (ctrl packets 1 flit, data packets 3 flits)".into(),
        ),
        (
            "Virtual networks",
            "GO-REQ: 4 VCs × 1 buffer; UO-RESP: 2 VCs × 3 buffers".into(),
        ),
        (
            "Router",
            "XY, cut-through, multicast, lookahead bypassing; 3-stage (1 with bypass) + 1-stage link".into(),
        ),
        (
            "Notification network",
            "36 bits wide, bufferless, 13-cycle window, max 4 pending".into(),
        ),
        ("Memory controllers", "2 × dual-port DDR2 + PHY".into()),
    ]
}

/// One column of Table 2.
#[derive(Debug, Clone)]
pub(crate) struct ProcessorColumn {
    /// Processor name.
    pub name: &'static str,
    /// Core count (as shipped).
    pub cores: &'static str,
    /// Consistency model.
    pub consistency: &'static str,
    /// Coherence scheme.
    pub coherence: &'static str,
    /// Interconnect fabric.
    pub interconnect: &'static str,
}

/// Table 2: multicore processor comparison.
pub(crate) fn processor_comparison_table() -> Vec<ProcessorColumn> {
    vec![
        ProcessorColumn {
            name: "Intel Core i7",
            cores: "4–8",
            consistency: "Processor",
            coherence: "Snoopy",
            interconnect: "Point-to-point (QPI)",
        },
        ProcessorColumn {
            name: "AMD Opteron",
            cores: "4–16",
            consistency: "Processor",
            coherence: "Broadcast-based directory (HT)",
            interconnect: "Point-to-point (HyperTransport)",
        },
        ProcessorColumn {
            name: "TILE64",
            cores: "64",
            consistency: "Relaxed",
            coherence: "Directory",
            interconnect: "5 8×8 meshes",
        },
        ProcessorColumn {
            name: "Oracle T5",
            cores: "16",
            consistency: "Relaxed",
            coherence: "Directory",
            interconnect: "8×9 crossbar",
        },
        ProcessorColumn {
            name: "Intel Xeon E7",
            cores: "6–10",
            consistency: "Processor",
            coherence: "Snoopy",
            interconnect: "Ring",
        },
        ProcessorColumn {
            name: "SCORPIO",
            cores: "36",
            consistency: "Sequential consistency",
            coherence: "Snoopy",
            interconnect: "6×6 mesh",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_table_has_key_rows() {
        let t = chip_feature_table();
        assert!(t.len() >= 15);
        let get = |k: &str| {
            t.iter()
                .find(|(f, _)| *f == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing row {k}"))
        };
        assert!(get("Power").contains("28.8"));
        assert!(get("NoC topology").contains("6×6"));
        assert!(get("Coherence protocol").contains("MOSI"));
        assert!(get("Notification network").contains("13-cycle"));
    }

    #[test]
    fn comparison_ends_with_scorpio() {
        let t = processor_comparison_table();
        assert_eq!(t.len(), 6);
        let s = t.last().unwrap();
        assert_eq!(s.name, "SCORPIO");
        assert_eq!(s.coherence, "Snoopy");
        assert_eq!(s.consistency, "Sequential consistency");
        // SCORPIO is the only mesh-based snoopy machine in the table.
        assert!(t
            .iter()
            .filter(|c| c.coherence == "Snoopy" && c.interconnect.contains("mesh"))
            .all(|c| c.name == "SCORPIO"));
    }
}
