//! The in-memory columnar [`Table`].

use crate::column::Column;
use crate::error::DataError;

/// An immutable in-memory columnar relation.
#[derive(Debug, Clone)]
pub struct Table {
    /// Relation name.
    pub name: String,
    /// Columns, all the same length.
    pub columns: Vec<Column>,
    nrows: usize,
}

impl Table {
    /// Construct a table, validating that all columns have equal length.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Result<Self, DataError> {
        let nrows = columns.first().map_or(0, |c| c.len());
        for (i, c) in columns.iter().enumerate() {
            if c.len() != nrows {
                return Err(DataError::RaggedColumns { expected: nrows, got: c.len(), col: i });
            }
        }
        Ok(Table { name: name.into(), columns, nrows })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.columns.len()
    }

    /// Borrow a column, checking bounds.
    pub fn column(&self, col: usize) -> Result<&Column, DataError> {
        self.columns.get(col).ok_or(DataError::ColumnOutOfBounds { col, ncols: self.columns.len() })
    }

    /// Row `row` projected to the shared `f64` space, one entry per column.
    pub fn row_as_f64(&self, row: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.columns.iter().map(|c| c.value_as_f64(row)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{CatColumn, ContColumn};

    fn toy() -> Table {
        Table::new(
            "toy",
            vec![
                Column::Categorical(CatColumn::from_values("pet", &["dog", "cat", "dog"])),
                Column::Continuous(ContColumn::new("x", vec![1.0, 2.0, 3.0])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_lookup() {
        let t = toy();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.column(1).unwrap().name(), "x");
        assert!(t.column(5).is_err());
    }

    #[test]
    fn ragged_columns_rejected() {
        let err = Table::new(
            "bad",
            vec![
                Column::Continuous(ContColumn::new("a", vec![1.0])),
                Column::Continuous(ContColumn::new("b", vec![1.0, 2.0])),
            ],
        )
        .unwrap_err();
        assert_eq!(err, DataError::RaggedColumns { expected: 1, got: 2, col: 1 });
    }

    #[test]
    fn row_projection() {
        let t = toy();
        let mut buf = Vec::new();
        t.row_as_f64(1, &mut buf);
        assert_eq!(buf, vec![0.0, 2.0]); // "cat" encodes to 0
    }
}
