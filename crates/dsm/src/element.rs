//! Element types storable in DistArrays.

use bytes::{Buf, BufMut};

/// A value that can live in a DistArray: cloneable, sendable between
/// workers, and encodable to a fixed-width wire format (used by the
/// runtime to serialize rotated partitions and parameter-server traffic,
/// and by the simulator to account communicated bytes).
pub trait Element: Clone + Send + Sync + Default + PartialEq + core::fmt::Debug + 'static {
    /// Encoded size in bytes.
    const WIRE_BYTES: usize;

    /// Appends the wire encoding to `buf`.
    fn encode(&self, buf: &mut impl BufMut);

    /// Decodes one value from `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` holds fewer than [`Element::WIRE_BYTES`] bytes —
    /// framing is the caller's responsibility.
    fn decode(buf: &mut impl Buf) -> Self;

    /// Appends the wire encoding of every value of `values`, in order,
    /// to `out`: the bytes of calling [`Element::encode`] on each, made
    /// in one pass over the slice (a block copy on little-endian
    /// targets) rather than one buffer call per element.
    fn encode_slice(values: &[Self], out: &mut Vec<u8>);

    /// Decodes `wire.len() / WIRE_BYTES` values, the inverse of
    /// [`Element::encode_slice`].
    ///
    /// # Panics
    ///
    /// Panics if `wire.len()` is not a multiple of
    /// [`Element::WIRE_BYTES`] — framing is the caller's responsibility.
    fn decode_slice(wire: &[u8]) -> Vec<Self>;

    /// `*self += v`: how an additive [`crate::DistArrayBuffer`] combines
    /// two writes to one element. A trait method rather than a function
    /// the buffer stores, so its hot write path calls it directly.
    fn accumulate(&mut self, v: Self);

    /// The identity of [`Element::accumulate`], held by an additive
    /// buffer's idle slots: `0`, or `-0.0` for floats, since `-0.0 + v`
    /// is `v` bit for bit for every non-NaN `v` (`+0.0 + -0.0` is `+0.0`).
    const SUM_IDENTITY: Self;
}

macro_rules! impl_element {
    ($($t:ty = $identity:expr),*) => {$(
        impl Element for $t {
            const WIRE_BYTES: usize = size_of::<$t>();
            const SUM_IDENTITY: Self = $identity;

            fn encode(&self, buf: &mut impl BufMut) {
                buf.put_slice(&self.to_le_bytes());
            }

            fn decode(buf: &mut impl Buf) -> Self {
                let mut wire = [0u8; Self::WIRE_BYTES];
                buf.copy_to_slice(&mut wire);
                Self::from_le_bytes(wire)
            }

            fn encode_slice(values: &[Self], out: &mut Vec<u8>) {
                let start = out.len();
                out.resize(start + values.len() * Self::WIRE_BYTES, 0);
                for (wire, v) in out[start..].chunks_exact_mut(Self::WIRE_BYTES).zip(values) {
                    wire.copy_from_slice(&v.to_le_bytes());
                }
            }

            fn decode_slice(wire: &[u8]) -> Vec<Self> {
                let chunks = wire.chunks_exact(Self::WIRE_BYTES);
                assert!(chunks.remainder().is_empty(), "partial element on the wire");
                chunks
                    .map(|c| Self::from_le_bytes(c.try_into().expect("chunk of WIRE_BYTES")))
                    .collect()
            }

            #[inline]
            fn accumulate(&mut self, v: Self) {
                *self += v;
            }
        }
    )*};
}

impl_element!(f32 = -0.0, f64 = -0.0, u32 = 0, u64 = 0, i32 = 0, i64 = 0);

/// A floating-point [`Element`]: the numeric sub-trait the kernel layer
/// dispatches on. [`Element`] deliberately carries no arithmetic beyond
/// [`Element::accumulate`] (it also covers integer count types); `Float`
/// adds the closed set of operations the five applications' inner loops
/// need, implemented for `f32`/`f64` so no kernel silently narrows f64
/// work to f32.
pub trait Float:
    Element
    + Copy
    + PartialOrd
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::ops::Div<Output = Self>
    + core::ops::Neg<Output = Self>
    + core::ops::AddAssign
    + core::ops::SubAssign
    + core::ops::MulAssign
{
    /// Positive zero.
    const ZERO: Self;
    /// Negative zero — the true floating-point additive identity
    /// (`-0.0 + x` preserves `x` bit-for-bit, including `x = -0.0`).
    /// `std`'s `Sum` folds from it, so serial reduction kernels that
    /// must match `.sum()` bitwise fold from it too.
    const NEG_ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// The constant 2, used by the gradient-coefficient kernels.
    const TWO: Self;

    /// Exact widening (f32) or identity (f64) conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Conversion from `f64`, rounding to nearest for `f32`.
    fn from_f64(x: f64) -> Self;
    /// Conversion from `f32` (always exact).
    fn from_f32(x: f32) -> Self;
    /// Raw bit pattern widened to `u64` — the currency of the
    /// bit-identity test suites.
    fn to_bits_u64(self) -> u64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Base-e exponential.
    fn exp(self) -> Self;
}

macro_rules! impl_float {
    ($t:ty) => {
        impl Float for $t {
            const ZERO: Self = 0.0;
            const NEG_ZERO: Self = -0.0;
            const ONE: Self = 1.0;
            const TWO: Self = 2.0;

            fn to_f64(self) -> f64 {
                self as f64
            }

            fn from_f64(x: f64) -> Self {
                x as Self
            }

            fn from_f32(x: f32) -> Self {
                x as Self
            }

            fn to_bits_u64(self) -> u64 {
                self.to_bits() as u64
            }

            fn abs(self) -> Self {
                <$t>::abs(self)
            }

            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }

            fn exp(self) -> Self {
                <$t>::exp(self)
            }
        }
    };
}

impl_float!(f32);
impl_float!(f64);

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn roundtrip<T: Element>(v: T) {
        let mut buf = BytesMut::new();
        v.encode(&mut buf);
        assert_eq!(buf.len(), T::WIRE_BYTES);
        let mut twice = buf.to_vec();
        twice.extend_from_slice(&buf);
        let mut sliced = Vec::new();
        T::encode_slice(&[v.clone(), v.clone()], &mut sliced);
        assert_eq!(sliced, twice);
        assert_eq!(T::decode_slice(&sliced), [v.clone(), v.clone()]);
        let mut b = buf.freeze();
        assert_eq!(T::decode(&mut b), v);
    }

    #[test]
    fn roundtrips() {
        roundtrip(1.5f32);
        roundtrip(-2.25f64);
        roundtrip(42u32);
        roundtrip(u64::MAX);
        roundtrip(-7i32);
        roundtrip(i64::MIN);
    }
}
