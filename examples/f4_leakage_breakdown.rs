//! Figure F4: gate versus subthreshold leakage as `Tox` scales.
//!
//! ```text
//! cargo run --release --example f4_leakage_breakdown
//! ```
//!
//! The paper's motivating claim as a curve: "with aggressive Tox scaling,
//! gate leakage power can potentially surpass the subthreshold leakage at
//! low Tox". Sweeps `Tox` at two fixed `Vth` values on the 16 KB cache,
//! prints the subthreshold and gate components separately, and reports
//! the crossover.

use nmcache::core::report::Series;
use nmcache::device::units::Volts;
use nmcache::device::{KnobGrid, KnobPoint, TechnologyNode};
use nmcache::geometry::{CacheCircuit, CacheConfig, ComponentKnobs};

fn breakdown_series(
    circuit: &CacheCircuit,
    vth: f64,
) -> Result<[Series; 2], Box<dyn std::error::Error>> {
    let grid = KnobGrid::paper();
    let mut sub = Series::new(format!("subthreshold @ Vth={vth:.1}V"));
    let mut gate = Series::new(format!("gate @ Vth={vth:.1}V"));
    for &tox in grid.tox_values() {
        let p = KnobPoint::new(Volts(vth), tox)?;
        let leak = circuit.analyze(&ComponentKnobs::uniform(p)).leakage();
        sub.points.push((tox.0, leak.subthreshold.milli()));
        gate.points.push((tox.0, leak.gate.milli()));
    }
    Ok([sub, gate])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = TechnologyNode::bptm65();
    let circuit = CacheCircuit::new(CacheConfig::new(16 * 1024, 64, 4)?, &tech);

    let vths = [0.3, 0.45];
    let mut pairs = Vec::new();
    for vth in vths {
        pairs.push(breakdown_series(&circuit, vth)?);
    }
    for s in pairs.iter().flatten() {
        println!("\n{s}");
    }

    // The crossover: the Tox below which gate beats subthreshold.
    for (vth, [sub, gate]) in vths.iter().zip(&pairs) {
        let cross = sub
            .points
            .iter()
            .zip(&gate.points)
            .filter(|(s, g)| g.1 > s.1)
            .map(|(s, _)| s.0)
            .fold(f64::NEG_INFINITY, f64::max);
        println!("[crossover] Vth = {vth:.2} V: gate > subthreshold up to Tox = {cross:.1} A");
    }
    Ok(())
}
