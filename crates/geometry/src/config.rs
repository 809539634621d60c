//! Cache organisation: the architectural parameters and their physical
//! layout as subarrays of SRAM cells.

use crate::error::GeometryError;
use std::fmt;

/// Smallest cache the circuit model supports (1 KiB).
pub const MIN_SIZE_BYTES: u64 = 1024;

/// Physical address width assumed for tag sizing (paper-era 32-bit).
pub const ADDRESS_BITS: u32 = 32;

/// Maximum rows per subarray before the layout splits vertically.
const MAX_ROWS: u64 = 256;

/// Maximum bitline columns per subarray before the layout splits
/// horizontally (short wordlines keep the knob-independent wire RC small).
const MAX_COLS: u64 = 256;

/// Architectural parameters of one cache level.
///
/// All three parameters must be powers of two; construction validates the
/// usual containment relations so any `CacheConfig` is realisable.
///
/// ```
/// use nm_geometry::CacheConfig;
///
/// let l1 = CacheConfig::new(16 * 1024, 64, 4)?;
/// assert_eq!(l1.sets(), 64);
/// assert!(CacheConfig::new(1000, 64, 4).is_err()); // not a power of two
/// # Ok::<(), nm_geometry::GeometryError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size_bytes: u64,
    block_bytes: u64,
    associativity: u64,
}

impl CacheConfig {
    /// Creates and validates a cache configuration.
    ///
    /// # Errors
    ///
    /// * [`GeometryError::NotPowerOfTwo`] if any parameter is not a power
    ///   of two,
    /// * [`GeometryError::TooSmall`] below [`MIN_SIZE_BYTES`],
    /// * [`GeometryError::BlockLargerThanCache`] /
    ///   [`GeometryError::AssociativityTooHigh`] for impossible shapes.
    pub fn new(
        size_bytes: u64,
        block_bytes: u64,
        associativity: u64,
    ) -> Result<Self, GeometryError> {
        for (which, value) in [
            ("size", size_bytes),
            ("block", block_bytes),
            ("associativity", associativity),
        ] {
            if value == 0 || !value.is_power_of_two() {
                return Err(GeometryError::NotPowerOfTwo { which, value });
            }
        }
        if size_bytes < MIN_SIZE_BYTES {
            return Err(GeometryError::TooSmall {
                size: size_bytes,
                min: MIN_SIZE_BYTES,
            });
        }
        if block_bytes > size_bytes {
            return Err(GeometryError::BlockLargerThanCache {
                size: size_bytes,
                block: block_bytes,
            });
        }
        let blocks = size_bytes / block_bytes;
        if associativity > blocks {
            return Err(GeometryError::AssociativityTooHigh {
                assoc: associativity,
                blocks,
            });
        }
        Ok(CacheConfig {
            size_bytes,
            block_bytes,
            associativity,
        })
    }

    /// Total capacity in bytes.
    pub fn size_bytes(self) -> u64 {
        self.size_bytes
    }

    /// Line (block) size in bytes.
    pub fn block_bytes(self) -> u64 {
        self.block_bytes
    }

    /// Set associativity (ways).
    pub fn associativity(self) -> u64 {
        self.associativity
    }

    /// Number of sets.
    pub fn sets(self) -> u64 {
        self.size_bytes / (self.block_bytes * self.associativity)
    }

    /// Tag width in bits (status bits excluded).
    pub fn tag_bits(self) -> u32 {
        let index_bits = self.sets().trailing_zeros();
        let offset_bits = self.block_bytes.trailing_zeros();
        ADDRESS_BITS - index_bits - offset_bits
    }

    /// Physical layout of this configuration.
    pub fn organization(self) -> Organization {
        Organization::for_config(self)
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let size = self.size_bytes;
        if size >= 1024 * 1024 && size.is_multiple_of(1024 * 1024) {
            write!(f, "{}MB", size / (1024 * 1024))?;
        } else {
            write!(f, "{}KB", size / 1024)?;
        }
        write!(f, "/{}B/{}-way", self.block_bytes, self.associativity)
    }
}

/// Physical subarray layout derived from a [`CacheConfig`].
///
/// The data (and tag) bits are tiled into identical subarrays of at most
/// `MAX_ROWS` × `MAX_COLS` cells, mirroring the Ndwl/Ndbl partitioning
/// of CACTI-class models: wordline and bitline RC grow with the subarray
/// dimensions, while subarray count multiplies leakage and area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Organization {
    /// Rows per subarray (wordlines).
    pub rows: u64,
    /// Columns (bitline pairs) per subarray.
    pub cols: u64,
    /// Number of data subarrays.
    pub subarrays: u64,
    /// Total data cells (bits) in the cache.
    pub data_cells: u64,
    /// Total tag cells, including two status bits per frame.
    pub tag_cells: u64,
    /// Row-decoder input width in bits.
    pub decoder_bits: u32,
    /// Sense amplifiers in the whole cache (one per 4-to-1 column mux).
    pub sense_amps: u64,
    /// Bits delivered on the data bus per access (one 64-bit word plus the
    /// way-select overhead).
    pub data_out_bits: u64,
}

impl Organization {
    /// Degree of bitline column multiplexing in front of each sense amp.
    pub const COLUMN_MUX: u64 = 4;

    fn for_config(config: CacheConfig) -> Organization {
        let data_cells = config.size_bytes * 8;
        let sets = config.sets();
        let bits_per_set = config.block_bytes * 8 * config.associativity;

        // Start with one logical row per set, then fold until the subarray
        // fits the aspect limits.
        let mut rows = sets;
        let mut cols = bits_per_set;
        let mut subarrays = 1u64;
        while cols > MAX_COLS {
            cols /= 2;
            subarrays *= 2;
        }
        // A row must hold at least one mux group worth of bits.
        while rows > MAX_ROWS && cols * 2 <= MAX_COLS {
            // Fold two sets into one physical row first (keeps arrays square).
            rows /= 2;
            cols *= 2;
        }
        while rows > MAX_ROWS {
            rows /= 2;
            subarrays *= 2;
        }
        // Very small caches: widen rows to avoid degenerate 1-column arrays.
        while rows < 8 && cols >= 16 {
            rows *= 2;
            cols /= 2;
        }
        debug_assert_eq!(rows * cols * subarrays, data_cells);

        let tag_cells = sets * config.associativity * (u64::from(config.tag_bits()) + 2);
        let decoder_bits = sets.trailing_zeros().max(1);
        let sense_amps = (cols * subarrays / Self::COLUMN_MUX).max(1);
        let data_out_bits = 64 + config.associativity;

        Organization {
            rows,
            cols,
            subarrays,
            data_cells,
            tag_cells,
            decoder_bits,
            sense_amps,
            data_out_bits,
        }
    }

    /// Total cells (data + tag).
    pub fn total_cells(self) -> u64 {
        self.data_cells + self.tag_cells
    }

    /// Builds a custom subarray folding for a configuration, for the
    /// organisation explorer. Returns `None` when `rows · cols` does not
    /// divide the data-cell count or a dimension is degenerate.
    pub fn custom(config: CacheConfig, rows: u64, cols: u64) -> Option<Organization> {
        let data_cells = config.size_bytes() * 8;
        if rows < 8
            || cols < 16
            || !rows.is_power_of_two()
            || !cols.is_power_of_two()
            || !data_cells.is_multiple_of(rows * cols)
        {
            return None;
        }
        let subarrays = data_cells / (rows * cols);
        let sets = config.sets();
        let tag_cells = sets * config.associativity() * (u64::from(config.tag_bits()) + 2);
        Some(Organization {
            rows,
            cols,
            subarrays,
            data_cells,
            tag_cells,
            decoder_bits: sets.trailing_zeros().max(1),
            sense_amps: (cols * subarrays / Self::COLUMN_MUX).max(1),
            data_out_bits: 64 + config.associativity(),
        })
    }

    /// Enumerates every legal folding with rows in `8..=512` and cols in
    /// `16..=512` (powers of two), for exploration.
    pub fn candidates(config: CacheConfig) -> Vec<Organization> {
        let mut out = Vec::new();
        let mut rows = 8;
        while rows <= 512 {
            let mut cols = 16;
            while cols <= 512 {
                if let Some(org) = Self::custom(config, rows, cols) {
                    out.push(org);
                }
                cols *= 2;
            }
            rows *= 2;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            CacheConfig::new(3000, 64, 4),
            Err(GeometryError::NotPowerOfTwo { which: "size", .. })
        ));
        assert!(matches!(
            CacheConfig::new(16384, 48, 4),
            Err(GeometryError::NotPowerOfTwo { which: "block", .. })
        ));
        assert!(matches!(
            CacheConfig::new(16384, 64, 3),
            Err(GeometryError::NotPowerOfTwo {
                which: "associativity",
                ..
            })
        ));
    }

    #[test]
    fn rejects_impossible_shapes() {
        assert!(matches!(
            CacheConfig::new(1024, 2048, 1),
            Err(GeometryError::BlockLargerThanCache { .. })
        ));
        assert!(matches!(
            CacheConfig::new(1024, 64, 32),
            Err(GeometryError::AssociativityTooHigh { .. })
        ));
        assert!(matches!(
            CacheConfig::new(512, 64, 2),
            Err(GeometryError::TooSmall { .. })
        ));
    }

    #[test]
    fn sets_and_tags_for_16k_4way() {
        let c = CacheConfig::new(16 * 1024, 64, 4).unwrap();
        assert_eq!(c.sets(), 64);
        // 32 - log2(64 sets) - log2(64B) = 32 - 6 - 6 = 20 tag bits.
        assert_eq!(c.tag_bits(), 20);
    }

    #[test]
    fn organization_conserves_cells() {
        for (size, block, assoc) in [
            (4 * 1024, 32, 1),
            (16 * 1024, 64, 4),
            (64 * 1024, 64, 2),
            (1024 * 1024, 64, 8),
            (8 * 1024 * 1024, 128, 16),
        ] {
            let c = CacheConfig::new(size, block, assoc).unwrap();
            let o = c.organization();
            assert_eq!(
                o.rows * o.cols * o.subarrays,
                size * 8,
                "cells lost for {c}"
            );
            assert!(o.rows <= MAX_ROWS, "{c}: rows {}", o.rows);
            assert!(o.cols <= MAX_COLS, "{c}: cols {}", o.cols);
        }
    }

    #[test]
    fn bigger_cache_means_more_subarrays_not_bigger_arrays() {
        let small = CacheConfig::new(16 * 1024, 64, 4).unwrap().organization();
        let large = CacheConfig::new(4 * 1024 * 1024, 64, 8)
            .unwrap()
            .organization();
        assert!(large.subarrays > small.subarrays);
        assert!(large.rows <= MAX_ROWS && large.cols <= MAX_COLS);
    }

    #[test]
    fn display_formats_sizes() {
        assert_eq!(
            CacheConfig::new(16 * 1024, 64, 4).unwrap().to_string(),
            "16KB/64B/4-way"
        );
        assert_eq!(
            CacheConfig::new(2 * 1024 * 1024, 128, 8)
                .unwrap()
                .to_string(),
            "2MB/128B/8-way"
        );
    }

    #[test]
    fn tag_cells_track_associativity() {
        let a1 = CacheConfig::new(64 * 1024, 64, 1).unwrap().organization();
        let a8 = CacheConfig::new(64 * 1024, 64, 8).unwrap().organization();
        // Higher associativity → fewer sets but more tags per set; tag bits
        // grow with associativity at constant size.
        assert!(a8.tag_cells > a1.tag_cells);
    }

    #[test]
    fn sense_amps_positive_and_column_muxed() {
        let o = CacheConfig::new(16 * 1024, 64, 4).unwrap().organization();
        assert!(o.sense_amps >= 1);
        assert_eq!(
            o.sense_amps,
            o.cols * o.subarrays / Organization::COLUMN_MUX
        );
    }
}
