//! Implementation-comparison metadata (paper Table 1).
//!
//! [`table1_rows`] is the one statement of what each algorithm of the
//! table demands from the router architecture and the network protocol;
//! `tab1_comparison` in the bench crate renders it. DimWAR and OmniWAR are the only adaptive algorithms with empty
//! "architecture requirements" and "packet contents" columns — that is the
//! paper's practicality claim.

/// Where the adaptive decision happens.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoutingStyle {
    /// No adaptivity (DOR, VAL).
    Oblivious,
    /// One decision at the source router (UGAL, Clos-AD).
    Source,
    /// A decision at every hop (DAL, DimWAR, OmniWAR).
    Incremental,
}

impl std::fmt::Display for RoutingStyle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RoutingStyle::Oblivious => "oblivious",
            RoutingStyle::Source => "source",
            RoutingStyle::Incremental => "incremental",
        })
    }
}

/// One row of Table 1.
#[derive(Clone, Copy, Debug)]
pub struct AlgoMeta {
    /// Algorithm name.
    pub name: &'static str,
    /// Whether dimensions are traversed in a fixed order.
    pub dimension_ordered: bool,
    /// Source vs incremental vs oblivious.
    pub style: RoutingStyle,
    /// VCs required for deadlock freedom, as the paper writes it
    /// (e.g. `"2"`, `"N+M"`, `"1+1e"`).
    pub vcs_required: &'static str,
    /// Deadlock-handling mechanism (RR = restricted routes, RC = resource
    /// classes, DC = distance classes).
    pub deadlock: &'static str,
    /// Special router-architecture requirements ("none" for the WARs).
    pub arch_requirements: &'static str,
    /// Extra per-packet state the protocol must carry ("none" for the
    /// WARs — everything is encoded in the VC id).
    pub packet_contents: &'static str,
}

/// The five rows of the paper's Table 1, in paper order.
pub fn table1_rows() -> Vec<AlgoMeta> {
    vec![
        AlgoMeta {
            name: "UGAL",
            dimension_ordered: true,
            style: RoutingStyle::Source,
            vcs_required: "2",
            deadlock: "R.R. & R.C.",
            arch_requirements: "none",
            packet_contents: "int. addr.",
        },
        AlgoMeta {
            name: "Clos-AD",
            dimension_ordered: true,
            style: RoutingStyle::Source,
            vcs_required: "2",
            deadlock: "R.R. & R.C.",
            arch_requirements: "seq. alloc.",
            packet_contents: "int. addr.",
        },
        AlgoMeta {
            name: "DAL",
            dimension_ordered: false,
            style: RoutingStyle::Incremental,
            vcs_required: "1+1e",
            deadlock: "escape paths",
            arch_requirements: "escape paths",
            packet_contents: "N-bit field",
        },
        AlgoMeta {
            name: "DimWAR",
            dimension_ordered: true,
            style: RoutingStyle::Incremental,
            vcs_required: "2",
            deadlock: "R.R. & R.C.",
            arch_requirements: "none",
            packet_contents: "none",
        },
        AlgoMeta {
            name: "OmniWAR",
            dimension_ordered: false,
            style: RoutingStyle::Incremental,
            vcs_required: "N+M",
            deadlock: "R.R. & D.C.",
            arch_requirements: "none",
            packet_contents: "none",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_paper_rows_in_order() {
        let rows = table1_rows();
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["UGAL", "Clos-AD", "DAL", "DimWAR", "OmniWAR"]);
    }

    #[test]
    fn wars_require_nothing_special() {
        for row in table1_rows() {
            if row.name == "DimWAR" || row.name == "OmniWAR" {
                assert_eq!(row.arch_requirements, "none");
                assert_eq!(row.packet_contents, "none");
                assert_eq!(row.style, RoutingStyle::Incremental);
            }
        }
    }

    #[test]
    fn only_wars_and_dal_are_incremental() {
        for row in table1_rows() {
            let incr = row.style == RoutingStyle::Incremental;
            let expect = matches!(row.name, "DAL" | "DimWAR" | "OmniWAR");
            assert_eq!(incr, expect, "{}", row.name);
        }
    }
}
