//! Figure F3: the full leakage-delay Pareto fronts of the three
//! assignment schemes on the 16 KB cache.
//!
//! ```text
//! cargo run --release --example f3_pareto_fronts
//! ```
//!
//! The continuous version of the paper's Section 4 comparison: its text
//! reports spot checks, while the fronts show the whole trade-off curve
//! each scheme makes available. Expected shape: the Scheme I and Scheme
//! II fronts hug each other and sit strictly below/left of Scheme III
//! everywhere except the extreme corners, where all schemes collapse to
//! the same uniform assignment.

use nmcache::core::eval::{Evaluator, HierarchySpec};
use nmcache::core::groups::{CostKind, Scheme};
use nmcache::core::report::Series;
use nmcache::device::{KnobGrid, TechnologyNode};
use nmcache::geometry::{CacheCircuit, CacheConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = TechnologyNode::bptm65();
    let circuit = CacheCircuit::new(CacheConfig::new(16 * 1024, 64, 4)?, &tech);
    let eval = Evaluator::new(KnobGrid::paper());

    let mut series = Vec::new();
    for scheme in Scheme::ALL {
        let spec = HierarchySpec::single(circuit.clone(), scheme, 1.0, CostKind::LeakagePower);
        let front = eval.try_front(&spec)?;
        let mut s = Series::new(format!("scheme {}", scheme.numeral()));
        s.points = front
            .iter()
            .map(|p| (p.delay * 1e12, p.cost * 1e3))
            .collect();
        series.push(s);
    }
    for s in &series {
        println!("[front] {}: {} points", s.label, s.points.len());
    }
    for s in &series {
        println!("\n{s}");
    }
    Ok(())
}
