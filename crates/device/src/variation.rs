//! Process variation: what die-to-die `Vth`/`Tox` spread does to a
//! leakage optimum.
//!
//! The paper optimises at nominal process corners; any real deployment of
//! its methodology must survive variation, and leakage is *exponentially*
//! sensitive to `Vth` — a symmetric `Vth` spread therefore raises the
//! **mean** leakage above nominal. For a Gaussian `ΔVth` with standard
//! deviation `σ`, subthreshold leakage is lognormal with mean
//! amplification `exp(σ²/(2·(n·vT)²))` ([`subthreshold_amplification`]).
//!
//! [`MonteCarlo`] samples whole-die corners and summarises any
//! caller-supplied metric into a [`VariationDistribution`]; the
//! `nm-cache-core` variation study uses it to compare nominal versus
//! 95th-percentile leakage of the paper's optima.

use crate::knobs::{KnobPoint, TOX_RANGE, VTH_RANGE};
use crate::units::{Angstroms, Volts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Die-to-die variation magnitudes (1-sigma).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Standard deviation of the global `Vth` shift.
    pub sigma_vth: Volts,
    /// Standard deviation of the global `Tox` shift.
    pub sigma_tox: Angstroms,
}

impl VariationModel {
    /// A representative 65 nm corner spread: 20 mV of `Vth`, 0.25 Å of
    /// `Tox` (one sigma, die-to-die).
    pub fn typical_65nm() -> Self {
        VariationModel {
            sigma_vth: Volts(0.020),
            sigma_tox: Angstroms(0.25),
        }
    }

    /// A variation model with no spread (degenerate; for testing).
    pub fn none() -> Self {
        VariationModel {
            sigma_vth: Volts(0.0),
            sigma_tox: Angstroms(0.0),
        }
    }
}

impl Default for VariationModel {
    fn default() -> Self {
        Self::typical_65nm()
    }
}

/// Mean-leakage amplification of a subthreshold-dominated device under
/// Gaussian `Vth` spread: `E[e^(−ΔV/(n·vT))] = e^(σ²/(2(n·vT)²))`.
///
/// `n_vt` is the subthreshold slope voltage `n·vT` in volts.
///
/// ```
/// use nm_device::variation::subthreshold_amplification;
/// use nm_device::units::Volts;
///
/// // 20 mV sigma on a ~39 mV/e slope: ~14 % mean uplift.
/// let amp = subthreshold_amplification(Volts(0.020), Volts(0.0395));
/// assert!(amp > 1.10 && amp < 1.20, "amp = {amp}");
/// ```
pub fn subthreshold_amplification(sigma_vth: Volts, n_vt: Volts) -> f64 {
    let r = sigma_vth.0 / n_vt.0;
    (0.5 * r * r).exp()
}

/// Summary statistics of a sampled metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationDistribution {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased).
    pub std_dev: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub samples: usize,
}

impl VariationDistribution {
    /// Summarises a sample vector.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn from_samples(mut values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "distribution needs at least one sample");
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let pct = |p: f64| values[(((n - 1) as f64) * p).round() as usize];
        VariationDistribution {
            mean,
            std_dev: var.sqrt(),
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            min: values[0],
            max: values[n - 1],
            samples: n,
        }
    }
}

/// A deterministic Monte-Carlo sampler of die corners.
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    model: VariationModel,
    rng: StdRng,
}

impl MonteCarlo {
    /// Creates a sampler with a fixed seed.
    pub fn new(model: VariationModel, seed: u64) -> Self {
        MonteCarlo {
            model,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws one die corner around `nominal`, clamped to the legal knob
    /// window (a fab would not ship outside-spec material).
    #[allow(clippy::expect_used)] // fingerprinted in analyze.allow: clamped to legal window
    pub fn sample_corner(&mut self, nominal: KnobPoint) -> KnobPoint {
        let dv = gaussian(&mut self.rng) * self.model.sigma_vth.0;
        let dt = gaussian(&mut self.rng) * self.model.sigma_tox.0;
        let vth = (nominal.vth().0 + dv).clamp(VTH_RANGE.0, VTH_RANGE.1);
        let tox = (nominal.tox().0 + dt).clamp(TOX_RANGE.0, TOX_RANGE.1);
        KnobPoint::new(Volts(vth), Angstroms(tox)).expect("clamped to legal window")
    }

    /// Evaluates `metric` at `samples` die corners around `nominal` and
    /// summarises the results.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is zero.
    pub fn run(
        &mut self,
        nominal: KnobPoint,
        samples: usize,
        mut metric: impl FnMut(KnobPoint) -> f64,
    ) -> VariationDistribution {
        assert!(samples > 0, "monte carlo needs at least one sample");
        let values: Vec<f64> = (0..samples)
            .map(|_| {
                let corner = self.sample_corner(nominal);
                metric(corner)
            })
            .collect();
        VariationDistribution::from_samples(values)
    }
}

/// Standard normal variate via Box–Muller (deterministic given the RNG).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leakage::subthreshold_current;
    use crate::tech::TechnologyNode;
    use crate::units::Microns;

    #[test]
    fn distribution_orders_percentiles() {
        let d = VariationDistribution::from_samples((1..=100).map(f64::from).collect());
        assert!(d.min <= d.p50 && d.p50 <= d.p95 && d.p95 <= d.p99 && d.p99 <= d.max);
        assert!((d.mean - 50.5).abs() < 1e-9);
        assert_eq!(d.samples, 100);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_distribution_panics() {
        let _ = VariationDistribution::from_samples(vec![]);
    }

    #[test]
    fn zero_sigma_reproduces_nominal() {
        let mut mc = MonteCarlo::new(VariationModel::none(), 1);
        let nominal = KnobPoint::nominal();
        let d = mc.run(nominal, 16, |p| p.vth().0);
        assert_eq!(d.min, nominal.vth().0);
        assert_eq!(d.max, nominal.vth().0);
        assert!(d.std_dev.abs() < 1e-12, "std = {}", d.std_dev);
    }

    #[test]
    fn corners_stay_legal() {
        let mut mc = MonteCarlo::new(
            VariationModel {
                sigma_vth: Volts(0.2), // huge, to force clamping
                sigma_tox: Angstroms(3.0),
            },
            7,
        );
        for _ in 0..500 {
            let p = mc.sample_corner(KnobPoint::nominal());
            assert!(KnobPoint::new(p.vth(), p.tox()).is_ok());
        }
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let run = |seed| {
            let mut mc = MonteCarlo::new(VariationModel::typical_65nm(), seed);
            mc.run(KnobPoint::nominal(), 64, |p| p.vth().0 + p.tox().0)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn mc_leakage_amplification_matches_analytic() {
        // Mean subthreshold leakage under Vth spread should match the
        // lognormal closed form within Monte-Carlo noise.
        let tech = TechnologyNode::bptm65();
        let nominal = KnobPoint::nominal();
        let l = tech.drawn_length(nominal.tox());
        let n_vt = Volts(tech.subthreshold_n(nominal.tox()) * tech.thermal_voltage().0);
        let sigma = Volts(0.015); // small enough that clamping is negligible
        let mut mc = MonteCarlo::new(
            VariationModel {
                sigma_vth: sigma,
                sigma_tox: Angstroms(0.0),
            },
            13,
        );
        let nominal_leak = subthreshold_current(&tech, nominal, Microns(1.0), l).0;
        let d = mc.run(nominal, 4000, |p| {
            subthreshold_current(&tech, p, Microns(1.0), l).0
        });
        let measured_amp = d.mean / nominal_leak;
        let analytic_amp = subthreshold_amplification(sigma, n_vt);
        assert!(
            (measured_amp / analytic_amp - 1.0).abs() < 0.05,
            "measured {measured_amp:.4} vs analytic {analytic_amp:.4}"
        );
    }

    #[test]
    fn amplification_grows_with_sigma() {
        let n_vt = Volts(0.04);
        let a1 = subthreshold_amplification(Volts(0.01), n_vt);
        let a2 = subthreshold_amplification(Volts(0.03), n_vt);
        assert!(a2 > a1 && a1 > 1.0);
        assert_eq!(subthreshold_amplification(Volts(0.0), n_vt), 1.0);
    }
}
