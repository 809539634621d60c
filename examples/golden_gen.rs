//! Regenerates the golden study tables under `crates/core/tests/golden/`.
//!
//! The golden-equivalence tests (`crates/core/tests/golden_tables.rs`)
//! assert that every study routed through the shared evaluation engine
//! renders byte-identical tables to these snapshots; both take the cases
//! from `crates/core/tests/golden/cases.rs`. Run this only when a study's
//! *intended* output changes, and review the diff:
//!
//! ```text
//! cargo run --release --example golden_gen
//! ```

#[path = "../crates/core/tests/golden/cases.rs"]
mod cases;

use std::path::PathBuf;

fn main() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/core/tests/golden");
    std::fs::create_dir_all(&dir).expect("can create golden directory");
    for (name, render) in cases::CASES {
        let path = dir.join(name);
        std::fs::write(&path, render()).expect("can write golden file");
        println!("[golden] {}", path.display());
    }
}
