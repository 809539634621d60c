//! Table T11: ablation of the calibration choices behind the model.
//!
//! ```text
//! cargo run --release --example t11_calibration_ablation
//! ```
//!
//! Varies the knobs `DESIGN.md` singles out: the drawn-length scaling
//! coefficient κ, the gate-tunnelling slope `Bg`, and the near-threshold
//! slowdown λ. For each variant it re-derives the two headline
//! sensitivities of Figure 1 (the delay span of the `Vth` knob versus
//! the `Tox` knob) and re-runs the single-knob optimisation to see
//! whether "set `Tox` high, tune `Vth`" still wins. The conclusions
//! should be robust to the calibration within reason; the λ = 0 variant
//! shows which ingredient the `Vth` delay sensitivity rests on.

use nmcache::core::report::cell;
use nmcache::core::single::SingleCacheStudy;
use nmcache::core::Table;
use nmcache::device::{KnobGrid, TechnologyNode};
use nmcache::geometry::CacheConfig;

type Spans = (f64, f64, Option<(f64, f64)>);

fn spans_and_ablation(tech: &TechnologyNode) -> Result<Spans, Box<dyn std::error::Error>> {
    let config = CacheConfig::new(16 * 1024, 64, 4)?;
    let study = SingleCacheStudy::new(config, tech, KnobGrid::paper());
    let curves = study.fixed_knob_curves()?;
    let span = |label: &str| -> Result<f64, String> {
        let c = curves
            .iter()
            .find(|c| c.label == label)
            .ok_or(format!("no {label} curve"))?;
        match (c.points.first(), c.points.last()) {
            (Some(lo), Some(hi)) => Ok(hi.0 / lo.0),
            _ => Err(format!("{label} curve is empty")),
        }
    };
    let vth_span = span("Tox=10A")?; // Vth sweeps along a fixed-Tox curve
    let tox_span = span("Vth=200mV")?;

    // Single-knob optima at a mid deadline (parse the ablation table).
    let deadline = study.delay_sweep(5)[2];
    let table = study.knob_ablation(&[deadline]);
    let row = table.rows().first().ok_or("one deadline row")?;
    let tox_only: Option<f64> = row[1].parse().ok();
    let vth_hi: Option<f64> = row[3].parse().ok();
    let pair = match (vth_hi, tox_only) {
        (Some(v), Some(t)) => Some((v, t)),
        _ => None,
    };
    Ok((vth_span, tox_span, pair))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = TechnologyNode::bptm65();
    let variants: Vec<(&str, TechnologyNode)> = vec![
        ("default (κ=0.5, Bg=1.2, λ=0.45)", base.clone()),
        ("no length scaling (κ=0)", base.with_length_scaling(0.0)),
        ("full length scaling (κ=1)", base.with_length_scaling(1.0)),
        ("shallow gate slope (Bg=0.6)", base.with_gate_slope(0.6)),
        ("steep gate slope (Bg=2.4)", base.with_gate_slope(2.4)),
        (
            "no near-Vth slowdown (λ=0)",
            base.with_near_vth_slowdown(0.0),
        ),
    ];

    let mut table = Table::new(
        "Calibration ablation: does 'set Tox high, tune Vth' survive?",
        &[
            "variant",
            "Vth delay span",
            "Tox delay span",
            "Vth-only @14A (mW)",
            "Tox-only (mW)",
            "Vth knob wins",
        ],
    );
    for (name, tech) in &variants {
        let (vth_span, tox_span, pair) = spans_and_ablation(tech)?;
        let (vth_mw, tox_mw, wins) = match pair {
            Some((v, t)) => (cell(v, 3), cell(t, 3), (v <= t * 1.05).to_string()),
            None => ("infeasible".into(), "infeasible".into(), "-".into()),
        };
        table.push_row(vec![
            (*name).to_owned(),
            cell(vth_span, 2),
            cell(tox_span, 2),
            vth_mw,
            tox_mw,
            wins,
        ]);
    }
    println!("\n{table}");
    Ok(())
}
