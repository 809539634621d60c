use nm_archsim::SimError;
use nm_device::DeviceError;
use nm_geometry::{ComponentId, GeometryError};
use nm_opt::merge::EmptySystemError;
use std::error::Error;
use std::fmt;

/// Errors raised while configuring or running a study.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StudyError {
    /// A device-model error (bad knob value, degenerate grid, failed fit).
    Device(DeviceError),
    /// A cache-geometry error (impossible organisation).
    Geometry(GeometryError),
    /// A cache-simulator error (impossible cache parameters).
    Simulator(SimError),
    /// A study referenced an (L1, L2) size pair missing from the miss-rate
    /// table.
    MissingMissRates {
        /// L1 size in bytes.
        l1_bytes: u64,
        /// L2 size in bytes.
        l2_bytes: u64,
    },
    /// A computed metric surface contained a non-finite or negative value
    /// and was rejected before it could enter the evaluator's memo cache.
    InvalidSurface {
        /// Display form of the offending cache circuit.
        circuit: String,
        /// Component whose surface failed validation.
        component: ComponentId,
        /// Threshold voltage of the offending knob point (volts).
        vth: f64,
        /// Oxide thickness of the offending knob point (angstroms).
        tox: f64,
        /// Name of the metric that failed validation.
        metric: &'static str,
        /// The offending value (NaN, infinite, or negative).
        value: f64,
    },
    /// A choice vector's length did not match the hierarchy spec's group
    /// count, so it cannot be sliced back into per-level assignments.
    ChoiceLength {
        /// The spec's group count.
        expected: usize,
        /// The offered choice vector's length.
        got: usize,
    },
    /// A per-level miss rate fed to the AMAT weight chain was not a
    /// probability (non-finite or outside `[0, 1]`).
    MissRateRange {
        /// Zero-based index of the offending level's miss rate.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A hierarchy spec produced no optimiser groups (zero cache levels),
    /// so there is no system front to merge.
    EmptySystem,
    /// A sweep work item panicked and was contained by the executor.
    WorkerPanic {
        /// Label of the sweep whose item failed.
        label: String,
        /// Submission-order index of the failed item.
        index: usize,
        /// Captured panic message of the final attempt.
        message: String,
    },
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Device(e) => write!(f, "device model: {e}"),
            StudyError::Geometry(e) => write!(f, "cache geometry: {e}"),
            StudyError::Simulator(e) => write!(f, "cache simulator: {e}"),
            StudyError::MissingMissRates { l1_bytes, l2_bytes } => write!(
                f,
                "miss-rate table has no entry for L1 {l1_bytes} B / L2 {l2_bytes} B"
            ),
            StudyError::InvalidSurface {
                circuit,
                component,
                vth,
                tox,
                metric,
                value,
            } => write!(
                f,
                "invalid metric surface for {circuit} {component} at \
                 Vth={vth:.3} V, Tox={tox:.1} A: {metric} = {value} \
                 (rejected before caching)"
            ),
            StudyError::ChoiceLength { expected, got } => write!(
                f,
                "choice vector has {got} entries but the spec's group count is {expected}"
            ),
            StudyError::MissRateRange { index, value } => write!(
                f,
                "miss rate for level {index} is {value}: must be finite and in [0, 1]"
            ),
            StudyError::EmptySystem => {
                write!(f, "hierarchy spec has no cache levels: nothing to optimise")
            }
            StudyError::WorkerPanic {
                label,
                index,
                message,
            } => write!(
                f,
                "sweep '{label}' item {index} panicked (contained): {message}"
            ),
        }
    }
}

impl Error for StudyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StudyError::Device(e) => Some(e),
            StudyError::Geometry(e) => Some(e),
            StudyError::Simulator(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for StudyError {
    fn from(e: DeviceError) -> Self {
        StudyError::Device(e)
    }
}

impl From<GeometryError> for StudyError {
    fn from(e: GeometryError) -> Self {
        StudyError::Geometry(e)
    }
}

impl From<SimError> for StudyError {
    fn from(e: SimError) -> Self {
        StudyError::Simulator(e)
    }
}

impl From<EmptySystemError> for StudyError {
    fn from(_: EmptySystemError) -> Self {
        StudyError::EmptySystem
    }
}

/// Unwraps a study result inside one of the four table renderers whose
/// `-> Table` signature callers outside this workspace pin:
/// [`scheme_comparison`](crate::single::SingleCacheStudy::scheme_comparison),
/// [`knob_ablation`](crate::single::SingleCacheStudy::knob_ablation),
/// [`SplitL1Study::to_table`](crate::splitl1::SplitL1Study::to_table) and
/// [`tuple_table`](crate::memsys::MemorySystemStudy::tuple_table). This is
/// the one place a [`StudyError`] becomes a panic; every other study
/// operation returns it.
///
/// # Panics
///
/// Panics with the error's message when `result` is an `Err`.
pub(crate) fn rendered<T>(result: Result<T, StudyError>) -> T {
    result.unwrap_or_else(|e| panic!("study evaluation failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sources() {
        let e: StudyError = DeviceError::SingularSystem.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("device model"));
    }

    #[test]
    fn missing_missrates_message() {
        let e = StudyError::MissingMissRates {
            l1_bytes: 4096,
            l2_bytes: 1 << 20,
        };
        assert!(e.to_string().contains("4096"));
        assert!(e.source().is_none());
    }

    #[test]
    fn invalid_surface_names_the_coordinate() {
        let e = StudyError::InvalidSurface {
            circuit: "64 KB 2-way".into(),
            component: ComponentId::Decoder,
            vth: 0.2,
            tox: 10.0,
            metric: "delay",
            value: f64::NAN,
        };
        let text = e.to_string();
        assert!(text.contains("decoder"), "{text}");
        assert!(text.contains("delay"), "{text}");
        assert!(text.contains("NaN"), "{text}");
        assert!(e.source().is_none());
    }

    #[test]
    fn worker_panic_carries_the_message() {
        let e = StudyError::WorkerPanic {
            label: "eval-surfaces".into(),
            index: 3,
            message: "boom".into(),
        };
        let text = e.to_string();
        assert!(text.contains("eval-surfaces") && text.contains("item 3"));
        assert!(text.contains("boom"));
    }

    #[test]
    fn empty_system_maps_from_the_merge_error() {
        let e: StudyError = EmptySystemError.into();
        assert_eq!(e, StudyError::EmptySystem);
        assert!(e.to_string().contains("no cache levels"));
        assert!(e.source().is_none());
    }

    #[test]
    fn choice_length_names_both_counts() {
        let e = StudyError::ChoiceLength {
            expected: 6,
            got: 2,
        };
        let text = e.to_string();
        assert!(text.contains('6') && text.contains('2'), "{text}");
        assert!(e.source().is_none());
    }

    #[test]
    fn miss_rate_range_names_the_level() {
        let e = StudyError::MissRateRange {
            index: 1,
            value: 1.5,
        };
        let text = e.to_string();
        assert!(text.contains("level 1") && text.contains("1.5"), "{text}");
        assert!(e.source().is_none());
    }

    #[test]
    fn wraps_sim_errors() {
        let e: StudyError = SimError::NotPowerOfTwo {
            which: "ways",
            value: 3,
        }
        .into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("cache simulator"));
    }
}
