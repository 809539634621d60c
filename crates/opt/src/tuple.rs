//! Value-set enumeration for the (`nTox`, `nVth`) tuple problem of the
//! paper's Figure 2.
//!
//! A real process offers only a handful of distinct `Vth` implants and
//! oxide thicknesses. Figure 2 asks: how many of each are needed before
//! the memory system's energy/AMAT frontier stops improving? This module
//! enumerates every way to pick `n_vth` threshold voltages (or `n_tox`
//! oxide thicknesses) from a grid axis; the evaluation engine's
//! restricted solve then minimises over the family of value sets.

/// All `k`-element combinations of `items` (lexicographic order).
///
/// ```
/// use nm_opt::tuple::combinations;
/// let c = combinations(&[1.0, 2.0, 3.0], 2);
/// assert_eq!(c, vec![vec![1.0, 2.0], vec![1.0, 3.0], vec![2.0, 3.0]]);
/// ```
pub fn combinations(items: &[f64], k: usize) -> Vec<Vec<f64>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    if k > items.len() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut indices: Vec<usize> = (0..k).collect();
    loop {
        out.push(indices.iter().map(|&i| items[i]).collect());
        // Advance the combination counter.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if indices[i] != i + items.len() - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        indices[i] += 1;
        for j in i + 1..k {
            indices[j] = indices[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinations_counts() {
        assert_eq!(combinations(&[1.0, 2.0, 3.0, 4.0], 2).len(), 6);
        assert_eq!(combinations(&[1.0, 2.0, 3.0], 3).len(), 1);
        assert_eq!(combinations(&[1.0], 2).len(), 0);
        assert_eq!(combinations(&[1.0, 2.0], 0), vec![Vec::<f64>::new()]);
    }
}
