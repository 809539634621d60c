//! Strongly-typed physical quantities.
//!
//! Every quantity that crosses a public API boundary in the workspace is a
//! newtype over `f64` (C-NEWTYPE): a [`Volts`] can never be confused with an
//! [`Angstroms`], and delay/power/energy carry their unit in the type.
//!
//! The wrapped value is public (these are passive, C-struct-spirit data) and
//! is always in the *named* unit — `Seconds(1e-12)` is one picosecond, and
//! the convenience constructors ([`Seconds::from_picos`],
//! [`Watts::from_milli`], …) plus accessors ([`Seconds::picos`],
//! [`Watts::milli`], …) convert for display and I/O.
//!
//! Arithmetic is implemented where it is physically meaningful: same-unit
//! addition/subtraction, scaling by `f64`, and the dimensionless ratio of
//! two same-unit quantities via `Div`.
//!
//! ```
//! use nm_device::units::{Seconds, Watts};
//!
//! let t = Seconds::from_picos(250.0) + Seconds::from_picos(750.0);
//! assert!((t.picos() - 1000.0).abs() < 1e-9);
//! let p = Watts::from_milli(3.0) * 2.0;
//! assert!((p.milli() - 6.0).abs() < 1e-12);
//! let ratio = Seconds(2e-9) / Seconds(1e-9);
//! assert_eq!(ratio, 2.0);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Defines a transparent `f64` newtype with the standard arithmetic and
/// formatting surface shared by every unit in this module.
macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the raw value in the base unit.
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns `true` when the value is finite (not NaN or ±∞).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|x| x.0).sum())
            }
        }
    };
}

unit!(
    /// Electric potential in volts.
    Volts,
    "V"
);

unit!(
    /// Length in ångströms (1 Å = 0.1 nm); the natural unit for gate-oxide
    /// thickness at the 65 nm node.
    Angstroms,
    "Å"
);

unit!(
    /// Length in metres (SI base; used for channel dimensions internally).
    Meters,
    "m"
);

unit!(
    /// Length in microns (µm); the natural unit for transistor widths.
    Microns,
    "µm"
);

unit!(
    /// Absolute temperature in kelvin.
    Kelvin,
    "K"
);

unit!(
    /// Time in seconds.
    Seconds,
    "s"
);

unit!(
    /// Power in watts.
    Watts,
    "W"
);

unit!(
    /// Energy in joules.
    Joules,
    "J"
);

unit!(
    /// Current in amperes.
    Amperes,
    "A"
);

unit!(
    /// Capacitance in farads.
    Farads,
    "F"
);

unit!(
    /// Resistance in ohms.
    Ohms,
    "Ω"
);

unit!(
    /// Area in square microns (µm²); the natural unit for cell/array area.
    SquareMicrons,
    "µm²"
);

impl Angstroms {
    /// Converts to metres (1 Å = 1e-10 m).
    pub fn meters(self) -> Meters {
        Meters(self.0 * 1e-10)
    }
}

impl Meters {
    /// Converts to microns.
    pub fn microns(self) -> Microns {
        Microns(self.0 * 1e6)
    }

    /// Converts to nanometres as a bare `f64` (display convenience).
    pub fn nanos(self) -> f64 {
        self.0 * 1e9
    }
}

impl Microns {
    /// Converts to metres.
    pub fn meters(self) -> Meters {
        Meters(self.0 * 1e-6)
    }
}

impl Seconds {
    /// Creates a time from picoseconds.
    pub fn from_picos(ps: f64) -> Self {
        Seconds(ps * 1e-12)
    }

    /// Creates a time from nanoseconds.
    pub fn from_nanos(ns: f64) -> Self {
        Seconds(ns * 1e-9)
    }

    /// Returns the time in picoseconds.
    pub fn picos(self) -> f64 {
        self.0 * 1e12
    }

    /// Returns the time in nanoseconds.
    pub fn nanos(self) -> f64 {
        self.0 * 1e9
    }
}

impl Watts {
    /// Creates a power from milliwatts.
    pub fn from_milli(mw: f64) -> Self {
        Watts(mw * 1e-3)
    }

    /// Creates a power from microwatts.
    pub fn from_micro(uw: f64) -> Self {
        Watts(uw * 1e-6)
    }

    /// Returns the power in milliwatts.
    pub fn milli(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the power in microwatts.
    pub fn micro(self) -> f64 {
        self.0 * 1e6
    }
}

impl Joules {
    /// Creates an energy from picojoules.
    pub fn from_picos(pj: f64) -> Self {
        Joules(pj * 1e-12)
    }

    /// Creates an energy from nanojoules.
    pub fn from_nanos(nj: f64) -> Self {
        Joules(nj * 1e-9)
    }

    /// Returns the energy in picojoules.
    pub fn picos(self) -> f64 {
        self.0 * 1e12
    }

    /// Returns the energy in nanojoules.
    pub fn nanos(self) -> f64 {
        self.0 * 1e9
    }
}

impl Amperes {
    /// Returns the current in microamperes.
    pub fn micro(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the current in nanoamperes.
    pub fn nano(self) -> f64 {
        self.0 * 1e9
    }
}

impl Farads {
    /// Creates a capacitance from femtofarads.
    pub fn from_femtos(ff: f64) -> Self {
        Farads(ff * 1e-15)
    }

    /// Returns the capacitance in femtofarads.
    pub fn femtos(self) -> f64 {
        self.0 * 1e15
    }
}

impl Kelvin {
    /// Creates a temperature from degrees Celsius.
    ///
    /// ```
    /// use nm_device::units::Kelvin;
    /// assert!((Kelvin::from_celsius(80.0).0 - 353.15).abs() < 1e-9);
    /// ```
    pub fn from_celsius(c: f64) -> Self {
        Kelvin(c + 273.15)
    }

    /// Thermal voltage `kT/q` at this temperature.
    pub fn thermal_voltage(self) -> Volts {
        /// Boltzmann constant over elementary charge, in V/K.
        const K_OVER_Q: f64 = 8.617_333_262e-5;
        Volts(K_OVER_Q * self.0)
    }
}

/// Product of a power and a time is an energy.
impl Mul<Seconds> for Watts {
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

/// Product of a time and a power is an energy.
impl Mul<Watts> for Seconds {
    type Output = Joules;
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

/// Product of a current and a voltage is a power.
impl Mul<Volts> for Amperes {
    type Output = Watts;
    fn mul(self, rhs: Volts) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

/// Product of a voltage and a current is a power.
impl Mul<Amperes> for Volts {
    type Output = Watts;
    fn mul(self, rhs: Amperes) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

/// Product of a resistance and a capacitance is a time constant.
impl Mul<Farads> for Ohms {
    type Output = Seconds;
    fn mul(self, rhs: Farads) -> Seconds {
        Seconds(self.0 * rhs.0)
    }
}

/// Product of a capacitance and a resistance is a time constant.
impl Mul<Ohms> for Farads {
    type Output = Seconds;
    fn mul(self, rhs: Ohms) -> Seconds {
        Seconds(self.0 * rhs.0)
    }
}

/// A voltage divided by a current is a resistance.
impl Div<Amperes> for Volts {
    type Output = Ohms;
    fn div(self, rhs: Amperes) -> Ohms {
        Ohms(self.0 / rhs.0)
    }
}

/// An energy divided by a time is a power.
impl Div<Seconds> for Joules {
    type Output = Watts;
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

/// Energy stored on a capacitance charged to a voltage: `C·V²`.
///
/// This is the full charge/discharge cycle energy; a single switching event
/// dissipates half of it.
pub fn switching_energy(c: Farads, v: Volts) -> Joules {
    Joules(c.0 * v.0 * v.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_same_unit() {
        let a = Volts(0.3) + Volts(0.2);
        assert!((a.0 - 0.5).abs() < 1e-12);
        let b = a - Volts(0.1);
        assert!((b.0 - 0.4).abs() < 1e-12);
    }

    #[test]
    fn scale_by_f64_both_sides() {
        assert!((Watts(2.0) * 3.0).0 - 6.0 < 1e-12);
        assert!((3.0 * Watts(2.0)).0 - 6.0 < 1e-12);
        assert!((Watts(6.0) / 3.0).0 - 2.0 < 1e-12);
    }

    #[test]
    fn ratio_is_dimensionless() {
        let r: f64 = Seconds(4.0) / Seconds(2.0);
        assert_eq!(r, 2.0);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::from_milli(10.0) * Seconds::from_nanos(1.0);
        assert!((e.picos() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn current_times_voltage_is_power() {
        let p = Amperes(1e-3) * Volts(1.0);
        assert!((p.milli() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rc_is_time() {
        let tau = Ohms(1e3) * Farads(1e-15);
        assert!((tau.picos() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unit_conversions_roundtrip() {
        assert!((Seconds::from_picos(123.0).picos() - 123.0).abs() < 1e-9);
        assert!((Watts::from_milli(4.5).milli() - 4.5).abs() < 1e-12);
        assert!((Joules::from_picos(7.0).picos() - 7.0).abs() < 1e-9);
        assert!((Angstroms(12.0).meters().0 - 1.2e-9).abs() < 1e-22);
        assert!((Microns(0.5).meters().0 - 5e-7).abs() < 1e-18);
        assert!((Meters(65e-9).nanos() - 65.0).abs() < 1e-9);
    }

    #[test]
    fn thermal_voltage_at_80c() {
        let vt = Kelvin::from_celsius(80.0).thermal_voltage();
        assert!((vt.0 - 0.03043).abs() < 1e-4, "vt = {vt}");
    }

    #[test]
    fn display_has_suffix_and_precision() {
        assert_eq!(format!("{:.2}", Volts(0.305)), "0.30 V");
        assert_eq!(format!("{}", Angstroms(10.0)), "10 Å");
    }

    #[test]
    fn min_max_abs() {
        assert_eq!(Volts(-1.0).abs(), Volts(1.0));
        assert_eq!(Volts(1.0).min(Volts(2.0)), Volts(1.0));
        assert_eq!(Volts(1.0).max(Volts(2.0)), Volts(2.0));
    }

    #[test]
    fn sum_over_iterator() {
        let total: Watts = vec![Watts(1.0), Watts(2.0), Watts(3.0)].into_iter().sum();
        assert!((total.0 - 6.0).abs() < 1e-12);
    }

    #[test]
    fn switching_energy_cv2() {
        let e = switching_energy(Farads::from_femtos(10.0), Volts(1.0));
        assert!((e.picos() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn ohms_law_division() {
        let r = Volts(1.0) / Amperes(1e-3);
        assert!((r.0 - 1000.0).abs() < 1e-9);
    }
}
