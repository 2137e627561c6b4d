//! Column storage: dictionary-encoded categorical and raw continuous columns.

/// A dictionary-encoded categorical column.
///
/// The dictionary is kept sorted lexicographically, so the integer codes
/// preserve the order of the original values — exactly the encoding strategy
/// of the paper (§3, "Encoding Strategy"): `dog → 1, cat → 0, monkey → 2`.
#[derive(Debug, Clone, PartialEq)]
pub struct CatColumn {
    /// Column name.
    pub name: String,
    /// Sorted distinct values; `codes[i]` indexes into this.
    pub dict: Vec<String>,
    /// Per-row codes, each `< dict.len()`.
    pub codes: Vec<u32>,
}

impl CatColumn {
    /// Build a categorical column from raw string values.
    ///
    /// The dictionary is the sorted set of distinct values and codes follow
    /// lexicographic order.
    pub(crate) fn from_values(name: impl Into<String>, values: &[&str]) -> Self {
        let mut dict: Vec<String> = values.iter().map(|s| s.to_string()).collect();
        dict.sort_unstable();
        dict.dedup();
        let codes = values
            .iter()
            .map(|v| dict.binary_search_by(|d| d.as_str().cmp(v)).expect("value in dict") as u32)
            .collect();
        CatColumn { name: name.into(), dict, codes }
    }

    /// Build directly from codes and an already-sorted dictionary.
    ///
    /// # Panics
    /// Panics (in debug builds) if any code is out of range or the dictionary
    /// is not sorted.
    pub fn from_codes(name: impl Into<String>, codes: Vec<u32>, dict: Vec<String>) -> Self {
        debug_assert!(dict.windows(2).all(|w| w[0] <= w[1]), "dictionary must be sorted");
        debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len()));
        CatColumn { name: name.into(), codes, dict }
    }

    /// Build a categorical column whose "dictionary" is just the code space
    /// `0..domain` rendered as zero-padded strings (used by synthetic data).
    pub fn from_codes_dense(name: impl Into<String>, codes: Vec<u32>, domain: u32) -> Self {
        let width = (domain.max(1) as f64).log10().floor() as usize + 1;
        let dict = (0..domain).map(|c| format!("{c:0width$}")).collect();
        Self::from_codes(name, codes, dict)
    }

    /// Number of distinct values.
    pub fn domain_size(&self) -> usize {
        self.dict.len()
    }
}

/// A continuous `f64` column.
#[derive(Debug, Clone, PartialEq)]
pub struct ContColumn {
    /// Column name.
    pub name: String,
    /// Per-row values. NaNs are rejected at construction.
    pub values: Vec<f64>,
}

impl ContColumn {
    /// Build a continuous column, asserting the values are NaN-free.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        debug_assert!(values.iter().all(|v| !v.is_nan()), "continuous columns must be NaN-free");
        ContColumn { name: name.into(), values }
    }

    /// Minimum value, or `None` for an empty column.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Maximum value, or `None` for an empty column.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }
}

/// A table column: categorical or continuous.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Dictionary-encoded categorical column.
    Categorical(CatColumn),
    /// Raw `f64` column.
    Continuous(ContColumn),
}

impl Column {
    /// Column name.
    pub fn name(&self) -> &str {
        match self {
            Column::Categorical(c) => &c.name,
            Column::Continuous(c) => &c.name,
        }
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match self {
            Column::Categorical(c) => c.codes.len(),
            Column::Continuous(c) => c.values.len(),
        }
    }

    /// True when the column stores no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for [`Column::Continuous`].
    pub fn is_continuous(&self) -> bool {
        matches!(self, Column::Continuous(_))
    }

    /// Row value projected to the shared `f64` comparison space:
    /// categorical rows yield their code as `f64`, continuous rows the value.
    #[inline]
    pub fn value_as_f64(&self, row: usize) -> f64 {
        match self {
            Column::Categorical(c) => c.codes[row] as f64,
            Column::Continuous(c) => c.values[row],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_is_sorted_and_codes_preserve_order() {
        let col = CatColumn::from_values("pet", &["dog", "cat", "monkey", "cat"]);
        assert_eq!(col.dict, vec!["cat", "dog", "monkey"]);
        assert_eq!(col.codes, vec![1, 0, 2, 0]);
        assert_eq!(col.domain_size(), 3);
    }

    #[test]
    fn dense_dictionary_orders_numerically() {
        let col = CatColumn::from_codes_dense("id", vec![0, 11, 5], 12);
        // zero-padded rendering keeps lexicographic == numeric order
        assert_eq!(col.dict[0], "00");
        assert_eq!(col.dict[11], "11");
        assert!(col.dict.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn continuous_min_max() {
        let col = ContColumn::new("x", vec![3.0, -1.0, 2.5]);
        assert_eq!(col.min(), Some(-1.0));
        assert_eq!(col.max(), Some(3.0));
        assert_eq!(ContColumn::new("e", vec![]).min(), None);
    }

    #[test]
    fn column_f64_projection() {
        let cat = Column::Categorical(CatColumn::from_values("c", &["b", "a"]));
        let cont = Column::Continuous(ContColumn::new("x", vec![1.5]));
        assert_eq!(cat.value_as_f64(0), 1.0);
        assert_eq!(cat.value_as_f64(1), 0.0);
        assert_eq!(cont.value_as_f64(0), 1.5);
        assert!(!cat.is_continuous());
        assert!(cont.is_continuous());
    }
}
