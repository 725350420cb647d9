//! Dense row-major tensors.
//!
//! A deliberately small tensor type: shape + `Vec<f32>` storage, with the
//! handful of helpers the layers need.  Image batches use the
//! `[batch, channels, height, width]` convention.

/// A dense tensor of `f32` values with row-major storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    /// Panics if the data length does not match the shape.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "tensor data does not match shape {shape:?}"
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Size of the first (batch) dimension; 0 for a rank-0 tensor.
    pub fn batch_size(&self) -> usize {
        self.shape.first().copied().unwrap_or(0)
    }

    /// Number of elements per batch item.
    pub fn item_len(&self) -> usize {
        if self.shape.is_empty() {
            0
        } else {
            self.shape[1..].iter().product()
        }
    }

    /// Immutable slice of one batch item.
    pub fn item(&self, index: usize) -> &[f32] {
        let n = self.item_len();
        &self.data[index * n..(index + 1) * n]
    }

    /// Mutable slice of one batch item.
    pub fn item_mut(&mut self, index: usize) -> &mut [f32] {
        let n = self.item_len();
        &mut self.data[index * n..(index + 1) * n]
    }

    /// Returns a copy with a new shape (the number of elements must match).
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.len(),
            shape.iter().product::<usize>(),
            "reshape size mismatch"
        );
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Builds a batch tensor by stacking equally-sized items.
    ///
    /// # Panics
    /// Panics if items have differing lengths or the iterator is empty.
    pub fn stack(items: &[Vec<f32>], item_shape: &[usize]) -> Tensor {
        assert!(!items.is_empty(), "cannot stack zero items");
        let item_len: usize = item_shape.iter().product();
        let mut data = Vec::with_capacity(items.len() * item_len);
        for item in items {
            assert_eq!(item.len(), item_len, "item length mismatch");
            data.extend_from_slice(item);
        }
        let mut shape = vec![items.len()];
        shape.extend_from_slice(item_shape);
        Tensor { shape, data }
    }

    /// Concatenates tensors of one item shape along the batch axis.
    ///
    /// # Panics
    /// Panics on an empty list or differing item shapes.
    pub fn concat(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "cannot concatenate zero tensors");
        let mut shape = parts[0].shape.clone();
        shape[0] = 0;
        let mut data = Vec::with_capacity(parts.iter().map(Tensor::len).sum());
        for part in parts {
            assert_eq!(part.shape[1..], shape[1..], "item shape mismatch");
            shape[0] += part.shape[0];
            data.extend_from_slice(&part.data);
        }
        Tensor { shape, data }
    }

    /// Selects a subset of batch items (used for mini-batching).
    pub fn select_batch(&self, indices: &[usize]) -> Tensor {
        let item_len = self.item_len();
        let mut data = Vec::with_capacity(indices.len() * item_len);
        for &i in indices {
            data.extend_from_slice(self.item(i));
        }
        let mut shape = self.shape.clone();
        shape[0] = indices.len();
        Tensor { shape, data }
    }

    /// Element-wise addition.  Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "tensor shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Element-wise subtraction.  Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "tensor shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Scales every element by a constant.
    pub fn scale(&self, k: f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|a| a * k).collect(),
        }
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

/// Row-major matrix multiply `C = A(m×k) · B(k×n)`, the workhorse behind the
/// convolution and dense layers.
///
/// Delegates to the cache-blocked [`crate::kernels::gemm`]; bit-identical
/// to the naive [`crate::kernels::reference::matmul`].
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    crate::kernels::gemm(a, b, m, k, n)
}

/// Row-major matrix multiply with the first operand transposed:
/// `C = Aᵀ(m×k)ᵀ · B(...)` where `a` is stored as `(k × m)`.
///
/// Delegates to the cache-blocked [`crate::kernels::gemm_at`].
pub fn matmul_at(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    crate::kernels::gemm_at(a, b, m, k, n)
}

/// Row-major matrix multiply with the second operand transposed:
/// `C = A(m×k) · Bᵀ` where `b` is stored as `(n × k)`.
///
/// Delegates to the tiled [`crate::kernels::gemm_bt`].
pub fn matmul_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    crate::kernels::gemm_bt(a, b, m, k, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.batch_size(), 2);
        assert_eq!(t.item_len(), 3);
        assert_eq!(t.item(1), &[4.0, 5.0, 6.0]);
        assert_eq!(t.mean(), 3.5);
        assert_eq!(t.max_abs(), 6.0);
    }

    #[test]
    fn stack_and_select() {
        let items = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let t = Tensor::stack(&items, &[2]);
        assert_eq!(t.shape(), &[3, 2]);
        let sel = t.select_batch(&[2, 0]);
        assert_eq!(sel.shape(), &[2, 2]);
        assert_eq!(sel.item(0), &[5.0, 6.0]);
        assert_eq!(sel.item(1), &[1.0, 2.0]);
    }

    #[test]
    fn concat_joins_batches() {
        let a = Tensor::from_vec(&[1, 2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(&[2, 2], vec![3.0, 4.0, 5.0, 6.0]);
        let c = Tensor::concat(&[a, b]);
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn arithmetic() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![0.5, 0.5, 0.5, 0.5]);
        assert_eq!(a.add(&b).data(), &[1.5, 2.5, 3.5, 4.5]);
        assert_eq!(a.sub(&b).data(), &[0.5, 1.5, 2.5, 3.5]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.reshaped(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    fn matmul_matches_manual_example() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        assert_eq!(matmul(&a, &b, 2, 2, 2), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_transposed_variants_agree() {
        // Random-ish small matrices.
        let a: Vec<f32> = (0..12).map(|i| (i as f32) * 0.3 - 1.0).collect(); // 3x4
        let b: Vec<f32> = (0..20).map(|i| (i as f32) * 0.1 + 0.5).collect(); // 4x5
        let c = matmul(&a, &b, 3, 4, 5);
        // A^T stored as (4 x 3):
        let mut at = vec![0.0f32; 12];
        for i in 0..3 {
            for j in 0..4 {
                at[j * 3 + i] = a[i * 4 + j];
            }
        }
        assert_eq!(matmul_at(&at, &b, 3, 4, 5), c);
        // B^T stored as (5 x 4):
        let mut bt = vec![0.0f32; 20];
        for i in 0..4 {
            for j in 0..5 {
                bt[j * 4 + i] = b[i * 5 + j];
            }
        }
        let c_bt = matmul_bt(&a, &bt, 3, 4, 5);
        for (x, y) in c.iter().zip(c_bt.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0]);
    }
}
