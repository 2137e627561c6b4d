//! Learned per-column embedding tables.

use crate::init::Initializer;

/// An embedding table of `rows × dim`, typically `domain_size + 1` rows
/// where the final row is the MASK token used by wildcard skipping.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Number of rows (vocabulary size, including any MASK row).
    pub rows: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Table, row-major.
    pub table: Vec<f32>,
    /// Gradients.
    pub grad: Vec<f32>,
}

impl Embedding {
    /// New table with small uniform init.
    pub fn new(rows: usize, dim: usize, init: &mut Initializer) -> Self {
        Embedding { rows, dim, table: init.uniform(rows * dim, 0.1), grad: vec![0.0; rows * dim] }
    }

    /// The embedding vector of token `id` (used when precomputing fused
    /// embedding→layer-1 token tables, which fold `W₁ × row(id)` into one
    /// cached hidden vector per token).
    pub fn row(&self, id: usize) -> &[f32] {
        debug_assert!(id < self.rows, "embedding id {id} out of range {}", self.rows);
        &self.table[id * self.dim..(id + 1) * self.dim]
    }

    /// Gather the rows of a batch of ids into `out[offset + b*stride ..]`.
    /// `stride` is the full input row width of the downstream layer so
    /// multiple embeddings can write into one buffer.
    pub fn gather(
        &self,
        ids: impl Iterator<Item = usize>,
        out: &mut [f32],
        offset: usize,
        stride: usize,
    ) {
        for (b, id) in ids.enumerate() {
            let dst = &mut out[b * stride + offset..b * stride + offset + self.dim];
            dst.copy_from_slice(self.row(id));
        }
    }

    /// Backward of [`Self::gather`]: scatter-accumulate the gradients at
    /// `dx[offset + b*stride ..]` of the same batch of ids into `grad`, a
    /// caller-provided buffer shaped like the table (sharded training
    /// keeps one per shard).
    pub fn scatter_grad(
        &self,
        ids: impl Iterator<Item = usize>,
        dx: &[f32],
        offset: usize,
        stride: usize,
        grad: &mut [f32],
    ) {
        debug_assert_eq!(grad.len(), self.table.len());
        for (b, id) in ids.enumerate() {
            let src = &dx[b * stride + offset..b * stride + offset + self.dim];
            let dst = &mut grad[id * self.dim..(id + 1) * self.dim];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }

    /// Visit (param, grad).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.table, &mut self.grad);
    }

    /// Scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_and_scatter_round_trip() {
        let mut init = Initializer::new(7);
        let mut e = Embedding::new(4, 3, &mut init);
        e.table = (0..12).map(|i| i as f32).collect();
        let mut buf = vec![0.0; 2 * 5]; // batch 2, stride 5, offset 1
        e.gather([2, 0].into_iter(), &mut buf, 1, 5);
        assert_eq!(&buf[1..4], &[6.0, 7.0, 8.0]);
        assert_eq!(&buf[6..9], &[0.0, 1.0, 2.0]);
        // scatter unit upstream grads
        let dx = vec![1.0; 10];
        let mut grad = vec![0.0; 12];
        e.scatter_grad([2, 0].into_iter(), &dx, 1, 5, &mut grad);
        assert_eq!(&grad[6..9], &[1.0, 1.0, 1.0]); // row 2
        assert_eq!(&grad[0..3], &[1.0, 1.0, 1.0]); // row 0
        assert_eq!(&grad[3..6], &[0.0, 0.0, 0.0]); // untouched row 1
    }

    #[test]
    fn duplicate_ids_accumulate() {
        let mut init = Initializer::new(7);
        let e = Embedding::new(2, 2, &mut init);
        let dx = vec![1.0; 6];
        let mut grad = vec![0.0; 4];
        e.scatter_grad([1, 1, 1].into_iter(), &dx, 0, 2, &mut grad);
        assert_eq!(grad, [0.0, 0.0, 3.0, 3.0]);
    }
}
