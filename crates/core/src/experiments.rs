//! The experiment registry: a machine-readable index of every reproduced
//! artefact (the programmatic counterpart of `DESIGN.md`'s table).

use crate::report::Table;

/// One reproducible artefact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Experiment {
    /// Short id (`"E1"`, `"X3"`, …).
    pub id: &'static str,
    /// The paper artefact or extension it regenerates.
    pub artefact: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The full command that regenerates it: an `nmcache` subcommand or
    /// a `cargo run --release --example …` program.
    pub command: &'static str,
}

/// Every experiment, in the order of `DESIGN.md`'s index.
pub const ALL: [Experiment; 17] = [
    Experiment {
        id: "E1",
        artefact: "Figure 1",
        title: "fixed-Vth vs fixed-Tox leakage/access-time curves (16 KB)",
        command: "nmcache fig1",
    },
    Experiment {
        id: "E2",
        artefact: "Section 4",
        title: "assignment schemes I/II/III at iso-delay",
        command: "nmcache schemes",
    },
    Experiment {
        id: "E3",
        artefact: "Section 5",
        title: "L2 size sweep with a single knob pair at iso-AMAT",
        command: "nmcache l2-sweep",
    },
    Experiment {
        id: "E4",
        artefact: "Section 5",
        title: "L2 split cell/periphery pairs vs a single pair",
        command: "nmcache l2-sweep --scheme split",
    },
    Experiment {
        id: "E5",
        artefact: "Section 5",
        title: "L1 size sweep with fixed L2 (small L1 wins)",
        command: "nmcache l1-sweep --slack 0.1",
    },
    Experiment {
        id: "E6",
        artefact: "Figure 2",
        title: "(Tox, Vth) tuple problem: energy vs AMAT",
        command: "nmcache fig2 --steps 9",
    },
    Experiment {
        id: "E7",
        artefact: "Section 4",
        title: "single-knob ablation ('Vth is the better knob')",
        command: "nmcache ablation --steps 7",
    },
    Experiment {
        id: "E0",
        artefact: "Section 3",
        title: "Eq.1/Eq.2 surface-fit quality per component",
        command: "nmcache fit",
    },
    Experiment {
        id: "E8",
        artefact: "extension",
        title: "3-level mixed-technology hierarchy (SRAM/eDRAM/STT-MRAM L3)",
        command: "nmcache e8",
    },
    Experiment {
        id: "X1",
        artefact: "extension",
        title: "die-to-die variation on the Scheme II optimum",
        command: "nmcache variation --steps 7",
    },
    Experiment {
        id: "X2",
        artefact: "extension",
        title: "temperature sensitivity (25/80/110 °C)",
        command: "nmcache thermal",
    },
    Experiment {
        id: "X3",
        artefact: "extension",
        title: "process knobs vs cache decay (gated-Vdd)",
        command: "nmcache decay",
    },
    Experiment {
        id: "X4",
        artefact: "extension",
        title: "split I$/D$ vs unified L1 at iso mean access time",
        command: "nmcache split-l1",
    },
    Experiment {
        id: "T0",
        artefact: "audit",
        title: "workload substitution audit (miss-rate shapes)",
        command: "cargo run --release --example t0_workload_audit",
    },
    Experiment {
        id: "T11",
        artefact: "ablation",
        title: "calibration ablation of κ/Bg/λ",
        command: "cargo run --release --example t11_calibration_ablation",
    },
    Experiment {
        id: "F3",
        artefact: "Section 4",
        title: "scheme I/II/III leakage-delay Pareto fronts (16 KB)",
        command: "cargo run --release --example f3_pareto_fronts",
    },
    Experiment {
        id: "F4",
        artefact: "motivation",
        title: "gate vs subthreshold leakage crossover over Tox",
        command: "cargo run --release --example f4_leakage_breakdown",
    },
];

/// Looks an experiment up by id (case-insensitive).
pub fn find(id: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.id.eq_ignore_ascii_case(id))
}

/// Renders the registry as a table.
pub fn registry_table() -> Table {
    let mut t = Table::new(
        "Experiment registry (see DESIGN.md / EXPERIMENTS.md)",
        &["id", "artefact", "title", "command"],
    );
    for e in &ALL {
        t.push_row(vec![
            e.id.to_owned(),
            e.artefact.to_owned(),
            e.title.to_owned(),
            e.command.to_owned(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = ALL.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL.len());
    }

    #[test]
    fn find_is_case_insensitive() {
        assert_eq!(find("e1").unwrap().command, "nmcache fig1");
        assert_eq!(find("X3").unwrap().command, "nmcache decay");
        assert!(find("E99").is_none());
    }

    #[test]
    fn registry_table_has_all_rows() {
        assert_eq!(registry_table().len(), ALL.len());
    }
}
