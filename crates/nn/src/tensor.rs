//! Dense row-major `f32` tensors with dynamic shapes.

use std::fmt;

use crate::error::NnError;

/// A dense row-major tensor of `f32` values.
///
/// The network code works mostly with 4-D tensors shaped
/// `[channels, d1, d2, d3]` where the spatial axes map to the Hanan graph's
/// `H`, `V` and `M` dimensions; the type itself supports any rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape has a zero dimension (empty tensors are a bug in
    /// this codebase, not a use case).
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert!(
            n > 0 && !shape.is_empty(),
            "tensor shapes must be non-empty and positive, got {shape:?}"
        );
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor from raw data.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `data.len()` does not equal the
    /// product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self, NnError> {
        let n: usize = shape.iter().product();
        if n != data.len() || shape.is_empty() {
            return Err(NnError::ShapeMismatch {
                expected: shape.to_vec(),
                found: vec![data.len()],
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a 4-D tensor filled by an index function `(c, x, y, z) -> v`.
    pub fn from_fn4<F: FnMut(usize, usize, usize, usize) -> f32>(
        shape: &[usize; 4],
        mut f: F,
    ) -> Self {
        let mut t = Tensor::zeros(shape);
        let [c, d1, d2, d3] = *shape;
        let mut i = 0;
        for ci in 0..c {
            for x in 0..d1 {
                for y in 0..d2 {
                    for z in 0..d3 {
                        t.data[i] = f(ci, x, y, z);
                        i += 1;
                    }
                }
            }
        }
        t
    }

    /// An empty storage husk for the workspace pool. Crate-internal: it
    /// violates the non-empty invariant only transiently, until the pool
    /// calls [`Tensor::refit`].
    pub(crate) fn pool_seed() -> Tensor {
        // lint: alloc-ok(capacity-0 husks touch no heap; refit reuses whatever storage the pool hands back)
        Tensor {
            shape: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Reshapes recycled storage in place to a zeroed tensor of `shape` —
    /// both the shape and data vectors reuse their existing capacity, so a
    /// warm workspace pool performs no heap traffic here.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub(crate) fn refit(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        assert!(
            n > 0 && !shape.is_empty(),
            "tensor shapes must be non-empty and positive, got {shape:?}"
        );
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.clear();
        self.data.resize(n, 0.0);
    }

    /// Stacks same-shape rank-4 `[C, d1, d2, d3]` tensors into the batched
    /// rank-5 layout `[C, B, d1, d2, d3]`: channel `c` holds the `B`
    /// samples' `c`-th volumes back to back, so a GEMM over the flattened
    /// `[C, B·d1·d2·d3]` view serves every sample with one weight load.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, any tensor is not rank 4, or shapes
    /// disagree.
    pub fn stack_batch(samples: &[&Tensor]) -> Tensor {
        assert!(!samples.is_empty(), "stack_batch needs at least one sample");
        let s = samples[0].shape();
        assert_eq!(s.len(), 4, "stack_batch expects rank-4 samples");
        let bsz = samples.len();
        let (c, d1, d2, d3) = (s[0], s[1], s[2], s[3]);
        let spatial = d1 * d2 * d3;
        let mut out = Tensor::zeros(&[c, bsz, d1, d2, d3]);
        for (b, t) in samples.iter().enumerate() {
            assert_eq!(t.shape(), s, "stack_batch shape mismatch at sample {b}");
            for ci in 0..c {
                let src = &t.data[ci * spatial..(ci + 1) * spatial];
                out.data[(ci * bsz + b) * spatial..][..spatial].copy_from_slice(src);
            }
        }
        out
    }

    /// Extracts sample `b` of a batched rank-5 `[C, B, d1, d2, d3]` tensor
    /// as a rank-4 `[C, d1, d2, d3]` tensor — the inverse of
    /// [`Tensor::stack_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 5 or `b` is out of range.
    pub fn unstack_sample(&self, b: usize) -> Tensor {
        assert_eq!(self.shape.len(), 5, "unstack_sample expects rank 5");
        let (c, bsz, d1, d2, d3) = (
            self.shape[0],
            self.shape[1],
            self.shape[2],
            self.shape[3],
            self.shape[4],
        );
        assert!(b < bsz, "sample index {b} out of range ({bsz})");
        let spatial = d1 * d2 * d3;
        let mut out = Tensor::zeros(&[c, d1, d2, d3]);
        for ci in 0..c {
            let src = &self.data[(ci * bsz + b) * spatial..][..spatial];
            out.data[ci * spatial..(ci + 1) * spatial].copy_from_slice(src);
        }
        out
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Linear index of a 4-D position. The tensor must be 4-D.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on out-of-range indices or wrong rank.
    #[inline]
    pub fn idx4(&self, c: usize, x: usize, y: usize, z: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 4);
        debug_assert!(
            c < self.shape[0] && x < self.shape[1] && y < self.shape[2] && z < self.shape[3]
        );
        ((c * self.shape[1] + x) * self.shape[2] + y) * self.shape[3] + z
    }

    /// Reads a 4-D element.
    #[inline]
    pub fn at4(&self, c: usize, x: usize, y: usize, z: usize) -> f32 {
        self.data[self.idx4(c, x, y, z)]
    }

    /// Writes a 4-D element.
    #[inline]
    pub fn set4(&mut self, c: usize, x: usize, y: usize, z: usize, v: f32) {
        let i = self.idx4(c, x, y, z);
        self.data[i] = v;
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Elementwise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, k: f32) {
        for a in &mut self.data {
            *a *= k;
        }
    }

    /// Elementwise map into a new tensor.
    pub fn map<F: FnMut(f32) -> f32>(&self, mut f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum absolute element (0 for all-zero tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

/// A tensor shape of rank ≤ 5 held on the stack, so layers can build
/// output shapes and record input shapes without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    dims: [usize; 5],
    rank: usize,
}

impl Shape {
    /// Copies a rank-1..=5 shape.
    ///
    /// # Panics
    ///
    /// Panics if the rank is 0 or above 5.
    pub fn of(s: &[usize]) -> Shape {
        assert!((1..=5).contains(&s.len()), "rank must be 1..=5, got {s:?}");
        let mut dims = [0; 5];
        dims[..s.len()].copy_from_slice(s);
        Shape {
            dims,
            rank: s.len(),
        }
    }

    /// The dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// The same shape with `c` leading channels.
    #[must_use]
    pub fn with_channels(mut self, c: usize) -> Shape {
        self.dims[0] = c;
        self
    }

    /// The same shape with its trailing three (spatial) axes replaced.
    #[must_use]
    pub fn with_spatial(mut self, spatial: [usize; 3]) -> Shape {
        self.dims[self.rank - 3..self.rank].copy_from_slice(&spatial);
        self
    }
}

/// `[C, B, d1, d2, d3]` of a channel-major batch. A rank-4
/// `[C, d1, d2, d3]` sample reads as a batch of one: the two layouts are
/// byte-identical, so every layer serves both through one code path.
///
/// # Panics
///
/// Panics unless the rank is 4 or 5.
pub fn batch_dims(s: &[usize]) -> [usize; 5] {
    assert!(
        s.len() == 4 || s.len() == 5,
        "expected [C, d1, d2, d3] or [C, B, d1, d2, d3], got {s:?}"
    );
    if s.len() == 4 {
        [s[0], 1, s[1], s[2], s[3]]
    } else {
        [s[0], s[1], s[2], s[3], s[4]]
    }
}

/// The leading-axis product (independent volumes: `c` for a rank-4
/// sample, `c·b` for a channel-major batch) and the trailing three
/// (spatial) axes of a shape.
pub(crate) fn volumes(s: &[usize]) -> (usize, [usize; 3]) {
    let n = s.len();
    (s[..n - 3].iter().product(), [s[n - 3], s[n - 2], s[n - 1]])
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tensor {:?} ({} elements)", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4, 5]);
        assert_eq!(t.shape(), &[2, 3, 4, 5]);
        assert_eq!(t.len(), 120);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_dim_panics() {
        Tensor::zeros(&[2, 0, 3]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec(&[2, 2], vec![1.0; 5]),
            Err(NnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn idx4_is_row_major() {
        let t = Tensor::from_fn4(&[2, 2, 2, 2], |c, x, y, z| {
            (c * 1000 + x * 100 + y * 10 + z) as f32
        });
        assert_eq!(t.at4(0, 0, 0, 1), 1.0);
        assert_eq!(t.at4(0, 0, 1, 0), 10.0);
        assert_eq!(t.at4(1, 1, 1, 1), 1111.0);
        // Row-major: last axis contiguous.
        assert_eq!(t.data()[1], 1.0);
    }

    #[test]
    fn stack_batch_is_channel_major_and_round_trips() {
        let a = Tensor::from_fn4(&[2, 2, 1, 3], |c, x, _, z| (c * 100 + x * 10 + z) as f32);
        let b = Tensor::from_fn4(&[2, 2, 1, 3], |c, x, _, z| -((c * 100 + x * 10 + z) as f32));
        let batch = Tensor::stack_batch(&[&a, &b]);
        assert_eq!(batch.shape(), &[2, 2, 2, 1, 3]);
        // Channel 0 holds sample 0's then sample 1's channel-0 volume.
        let spatial = 6;
        assert_eq!(&batch.data()[..spatial], &a.data()[..spatial]);
        assert_eq!(&batch.data()[spatial..2 * spatial], &b.data()[..spatial]);
        assert_eq!(batch.unstack_sample(0), a);
        assert_eq!(batch.unstack_sample(1), b);
    }

    #[test]
    fn arithmetic_helpers() {
        let mut t = Tensor::from_vec(&[3], vec![1.0, -2.0, 3.0]).unwrap();
        let u = Tensor::from_vec(&[3], vec![1.0, 1.0, 1.0]).unwrap();
        t.add_assign(&u);
        assert_eq!(t.data(), &[2.0, -1.0, 4.0]);
        t.scale(0.5);
        assert_eq!(t.data(), &[1.0, -0.5, 2.0]);
        assert_eq!(t.max_abs(), 2.0);
        let m = t.map(|v| v * v);
        assert_eq!(m.data(), &[1.0, 0.25, 4.0]);
    }
}
