//! Activation tensors.
//!
//! FINN dataflows carry low-precision unsigned activations between modules.
//! [`Activations`] stores them as `u8` in CHW order, which covers 8-bit
//! network inputs and every quantized inter-layer activation (2-bit in the
//! paper's CNV variants).

use adaflow_model::TensorShape;
use serde::{Deserialize, Serialize};

/// A CHW activation tensor with `u8` elements.
///
/// ```
/// use adaflow_model::TensorShape;
/// use adaflow_nn::Activations;
///
/// let mut t = Activations::zeroed(TensorShape::new(2, 3, 3));
/// t.set(1, 2, 2, 7);
/// assert_eq!(t.at(1, 2, 2), 7);
/// assert_eq!(t.as_slice().len(), 18);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Activations {
    shape: TensorShape,
    data: Vec<u8>,
}

impl Activations {
    /// Creates an all-zero tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape has zero elements.
    #[must_use]
    pub fn zeroed(shape: TensorShape) -> Self {
        assert!(shape.elements() > 0, "shape must have elements");
        Self {
            shape,
            data: vec![0; shape.elements()],
        }
    }

    /// Creates a tensor from CHW-ordered data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.elements()`.
    #[must_use]
    pub fn from_vec(shape: TensorShape, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), shape.elements(), "data length must match shape");
        Self { shape, data }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> TensorShape {
        self.shape
    }

    /// Flat CHW view.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Mutable flat CHW view.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Element at `(channel, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn at(&self, c: usize, y: usize, x: usize) -> u8 {
        self.data[self.index(c, y, x)]
    }

    /// Sets the element at `(channel, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn set(&mut self, c: usize, y: usize, x: usize, value: u8) {
        let i = self.index(c, y, x);
        self.data[i] = value;
    }

    /// One channel plane as a flat row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    #[must_use]
    pub fn channel(&self, c: usize) -> &[u8] {
        assert!(c < self.shape.channels, "channel {c} out of range");
        let s = self.shape.spatial();
        &self.data[c * s..(c + 1) * s]
    }

    fn index(&self, c: usize, y: usize, x: usize) -> usize {
        assert!(c < self.shape.channels, "channel {c} out of range");
        assert!(
            y < self.shape.height && x < self.shape.width,
            "spatial index out of range"
        );
        (c * self.shape.height + y) * self.shape.width + x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trip() {
        let mut t = Activations::zeroed(TensorShape::new(3, 4, 5));
        t.set(2, 3, 4, 255);
        t.set(0, 0, 0, 1);
        assert_eq!(t.at(2, 3, 4), 255);
        assert_eq!(t.at(0, 0, 0), 1);
        assert_eq!(t.at(1, 2, 2), 0);
    }

    #[test]
    fn channel_plane() {
        let t = Activations::from_vec(TensorShape::new(2, 2, 2), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(t.channel(0), &[1, 2, 3, 4]);
        assert_eq!(t.channel(1), &[5, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "data length must match shape")]
    fn from_vec_checks_length() {
        let _ = Activations::from_vec(TensorShape::new(1, 2, 2), vec![0; 3]);
    }

    #[test]
    #[should_panic(expected = "channel")]
    fn out_of_range_channel_panics() {
        let t = Activations::zeroed(TensorShape::new(1, 2, 2));
        let _ = t.at(1, 0, 0);
    }
}
