//! Set combinations (Table 2 of the paper).
//!
//! Evaluation is cross-validated over 15 combinations of the 15 measurement
//! sets; each combination uses 13 sets for training, one for validation and
//! one for testing.  The exact assignment of the paper's Table 2 is encoded
//! verbatim; for campaigns with fewer sets a round-robin equivalent with the
//! same structure (disjoint validation/test set, all remaining sets used for
//! training) is generated.

/// One train/validation/test split (set identifiers are 1-based, matching
/// the paper's numbering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetCombination {
    /// 1-based combination number.
    pub number: usize,
    /// Training set identifiers.
    pub training: Vec<usize>,
    /// Validation set identifier.
    pub validation: usize,
    /// Test set identifier.
    pub test: usize,
}

/// The paper's Table 2: `(validation, test)` pairs for combinations 1..=15;
/// the training sets are all remaining sets.
const TABLE_2: [(usize, usize); 15] = [
    (6, 8),
    (11, 15),
    (14, 9),
    (5, 2),
    (12, 4),
    (10, 1),
    (9, 6),
    (13, 3),
    (8, 5),
    (4, 7),
    (3, 10),
    (7, 11),
    (13, 12),
    (2, 13),
    (1, 14),
];

/// Builds a combination from a validation/test choice over `n_sets` sets.
fn combination(number: usize, validation: usize, test: usize, n_sets: usize) -> SetCombination {
    let training = (1..=n_sets)
        .filter(|&s| s != validation && s != test)
        .collect();
    SetCombination {
        number,
        training,
        validation,
        test,
    }
}

/// The paper's 15 combinations (requires a 15-set campaign).
pub fn paper_combinations() -> Vec<SetCombination> {
    TABLE_2
        .iter()
        .enumerate()
        .map(|(i, &(validation, test))| combination(i + 1, validation, test, 15))
        .collect()
}

/// Combinations for a campaign of `n_sets` sets, limited to `n_combinations`
/// entries.  With 15 sets this returns (a prefix of) the paper's Table 2;
/// otherwise a round-robin assignment with the same structure is generated.
///
/// # Panics
/// Panics if `n_sets < 3` (training, validation and test must be disjoint).
pub fn combinations_for(n_sets: usize, n_combinations: usize) -> Vec<SetCombination> {
    assert!(n_sets >= 3, "need at least 3 sets for disjoint splits");
    if n_sets == 15 {
        return paper_combinations()
            .into_iter()
            .take(n_combinations)
            .collect();
    }
    (0..n_combinations.min(n_sets))
        .map(|i| {
            let test = (i % n_sets) + 1;
            let validation = (test % n_sets) + 1;
            combination(i + 1, validation, test, n_sets)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_has_15_disjoint_combinations() {
        let combos = paper_combinations();
        assert_eq!(combos.len(), 15);
        for c in &combos {
            assert_eq!(c.training.len(), 13);
            assert_ne!(c.validation, c.test);
            assert!(!c.training.contains(&c.validation));
            assert!(!c.training.contains(&c.test));
            // All sets accounted for.
            let mut all = c.training.clone();
            all.push(c.validation);
            all.push(c.test);
            all.sort_unstable();
            assert_eq!(all, (1..=15).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_set_appears_as_a_test_set_once_in_table2() {
        let combos = paper_combinations();
        let mut tests: Vec<usize> = combos.iter().map(|c| c.test).collect();
        tests.sort_unstable();
        tests.dedup();
        assert_eq!(tests.len(), 15, "every set is tested exactly once");
    }

    #[test]
    fn table2_matches_selected_rows_of_the_paper() {
        let combos = paper_combinations();
        // Combination 1: validation 6, test 8.
        assert_eq!(combos[0].validation, 6);
        assert_eq!(combos[0].test, 8);
        // Combination 4: validation 5, test 2.
        assert_eq!(combos[3].validation, 5);
        assert_eq!(combos[3].test, 2);
        // Combination 15: validation 1, test 14.
        assert_eq!(combos[14].validation, 1);
        assert_eq!(combos[14].test, 14);
    }

    #[test]
    fn generated_combinations_for_small_campaigns_are_valid() {
        let combos = combinations_for(5, 3);
        assert_eq!(combos.len(), 3);
        for c in &combos {
            assert_ne!(c.validation, c.test);
            assert_eq!(c.training.len(), 3);
            assert!(!c.training.contains(&c.validation));
            assert!(!c.training.contains(&c.test));
            assert!(c.test >= 1 && c.test <= 5);
        }
        // Distinct test sets across combinations.
        let tests: std::collections::BTreeSet<usize> = combos.iter().map(|c| c.test).collect();
        assert_eq!(tests.len(), 3);
    }

    #[test]
    #[should_panic]
    fn too_few_sets_panics() {
        let _ = combinations_for(2, 1);
    }
}
