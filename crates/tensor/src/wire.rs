//! Length-prefixed binary codec for crossing the simulated cloud boundary.
//!
//! The paper ships an augmented TorchScript model plus augmented tensors to
//! the cloud; this reproduction ships [`Tensor`]s and layer specs encoded with
//! this module. The format is deliberately dumb: little-endian scalars,
//! `u32`-length-prefixed strings and lists, `f32` payloads. Everything the
//! adversary (cloud) sees is exactly these bytes.

use crate::{Tensor, TensorError};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Serializer over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// A fresh empty writer.
    pub fn new() -> Self {
        Writer {
            buf: BytesMut::new(),
        }
    }

    /// A fresh writer with room for `bytes` bytes: an encoder that knows
    /// roughly what it will write (a model's parameters) appends into one
    /// allocation instead of growing through a dozen copies.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            buf: BytesMut::with_capacity(bytes),
        }
    }

    /// Appends `xs` as little-endian `f32`s, converted a block at a time on
    /// the stack: no staging allocation the size of the payload.
    fn put_f32_payload(&mut self, xs: &[f32]) {
        const BLOCK: usize = 256;
        let mut raw = [0u8; BLOCK * 4];
        for block in xs.chunks(BLOCK) {
            let bytes = &mut raw[..block.len() * 4];
            for (dst, &v) in bytes.chunks_exact_mut(4).zip(block) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            self.buf.put_slice(bytes);
        }
    }

    /// Guards every `u32` length prefix: a length that does not fit would
    /// otherwise be silently truncated by `as u32`, encoding a frame whose
    /// prefix disagrees with its payload — corruption the reader could not
    /// distinguish from a hostile buffer. Panicking here turns a >4 GiB
    /// encode (a programming error on the trusted side) into a loud one.
    fn check_len(len: usize, context: &'static str) -> u32 {
        u32::try_from(len).unwrap_or_else(|_| panic!("{context} length {len} exceeds u32 prefix"))
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends a little-endian `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.put_f32_le(v);
    }

    /// Appends a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    ///
    /// # Panics
    ///
    /// Panics if `s` is longer than `u32::MAX` bytes (the prefix width).
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(Self::check_len(s.len(), "string"));
        self.buf.put_slice(s.as_bytes());
    }

    /// Appends a `u32`-length-prefixed byte blob in one bulk copy.
    ///
    /// Wire-compatible with a `put_u32(len)` followed by `len` `put_u8`
    /// calls, but O(len) memcpy instead of a byte-at-a-time loop.
    ///
    /// # Panics
    ///
    /// Panics if the blob is longer than `u32::MAX` bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(Self::check_len(bytes.len(), "byte blob"));
        self.buf.put_slice(bytes);
    }

    /// Appends raw bytes with no length prefix: for a caller whose own
    /// framing already says how many follow (an encoding assembled from
    /// parts that were each encoded separately).
    pub fn put_slice(&mut self, raw: &[u8]) {
        self.buf.put_slice(raw);
    }

    /// Appends a length-prefixed list of `usize` (as u64).
    ///
    /// # Panics
    ///
    /// Panics if the list holds more than `u32::MAX` entries.
    pub fn put_usize_list(&mut self, xs: &[usize]) {
        self.put_u32(Self::check_len(xs.len(), "usize list"));
        for &x in xs {
            self.put_u64(x as u64);
        }
    }

    /// Appends a length-prefixed list of `f32` in one bulk copy.
    ///
    /// # Panics
    ///
    /// Panics if the list holds more than `u32::MAX` entries.
    pub fn put_f32_list(&mut self, xs: &[f32]) {
        self.put_u32(Self::check_len(xs.len(), "f32 list"));
        self.put_f32_payload(xs);
    }

    /// Appends a tensor: rank, dims, then raw f32 payload.
    pub fn put_tensor(&mut self, t: &Tensor) {
        self.put_usize_list(t.dims());
        self.put_u64(t.numel() as u64);
        self.put_f32_payload(t.data());
    }

    /// Finishes, returning the immutable byte buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Deserializer over a byte buffer.
#[derive(Debug)]
pub struct Reader {
    buf: Bytes,
}

impl Reader {
    /// Wraps a byte buffer for reading.
    pub fn new(buf: Bytes) -> Self {
        Reader { buf }
    }

    fn need(&self, n: usize, context: &'static str) -> Result<(), TensorError> {
        if self.buf.remaining() < n {
            Err(TensorError::TruncatedWire { context })
        } else {
            Ok(())
        }
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::TruncatedWire`] if the buffer is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, TensorError> {
        self.need(1, "u8")?;
        Ok(self.buf.get_u8())
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::TruncatedWire`] if the buffer is exhausted.
    pub fn get_u32(&mut self) -> Result<u32, TensorError> {
        self.need(4, "u32")?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::TruncatedWire`] if the buffer is exhausted.
    pub fn get_u64(&mut self) -> Result<u64, TensorError> {
        self.need(8, "u64")?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::TruncatedWire`] if the buffer is exhausted.
    pub fn get_f32(&mut self) -> Result<f32, TensorError> {
        self.need(4, "f32")?;
        Ok(self.buf.get_f32_le())
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::TruncatedWire`] if the buffer is exhausted.
    pub fn get_f64(&mut self) -> Result<f64, TensorError> {
        self.need(8, "f64")?;
        Ok(self.buf.get_f64_le())
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::TruncatedWire`] on a short buffer or
    /// [`TensorError::MalformedWire`] on invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, TensorError> {
        let len = self.get_u32()? as usize;
        self.need(len, "string payload")?;
        // Validate on the wire bytes, then copy once into the `String`.
        let text = std::str::from_utf8(&self.buf.chunk()[..len])
            .map_err(|_| TensorError::MalformedWire {
                context: "string is not valid UTF-8",
            })?
            .to_owned();
        self.buf.advance(len);
        Ok(text)
    }

    /// Reads a blob written by [`Writer::put_bytes`] without copying (the
    /// returned [`Bytes`] shares the reader's buffer).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::TruncatedWire`] if the buffer is exhausted.
    pub fn get_bytes(&mut self) -> Result<Bytes, TensorError> {
        let len = self.get_u32()? as usize;
        self.need(len, "byte blob")?;
        Ok(self.buf.copy_to_bytes(len))
    }

    /// Reads a length-prefixed list of `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::TruncatedWire`] if the declared length exceeds
    /// the bytes actually present — checked *before* any allocation, so an
    /// adversarial length prefix cannot OOM the decoder.
    pub fn get_usize_list(&mut self) -> Result<Vec<usize>, TensorError> {
        let len = self.get_u32()? as usize;
        // Allocation capped against the declared frame: `len` u64s must fit
        // in what is left of the buffer.
        let byte_len = len.checked_mul(8).ok_or(TensorError::MalformedWire {
            context: "usize list length overflow",
        })?;
        self.need(byte_len, "usize list payload")?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.buf.get_u64_le() as usize);
        }
        Ok(out)
    }

    /// Reads a length-prefixed list of `f32` written by
    /// [`Writer::put_f32_list`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::TruncatedWire`] if the declared length exceeds
    /// the bytes actually present (checked before allocating).
    pub fn get_f32_list(&mut self) -> Result<Vec<f32>, TensorError> {
        let len = self.get_u32()? as usize;
        let byte_len = len.checked_mul(4).ok_or(TensorError::MalformedWire {
            context: "f32 list length overflow",
        })?;
        self.need(byte_len, "f32 list payload")?;
        Ok(self.get_f32_payload(byte_len))
    }

    /// Reads `byte_len` bytes (checked by the caller to be present and a
    /// multiple of four) as little-endian `f32`s, in one sized collect.
    fn get_f32_payload(&mut self, byte_len: usize) -> Vec<f32> {
        let raw = self.buf.copy_to_bytes(byte_len);
        raw.chunks_exact(4)
            .map(|chunk| f32::from_le_bytes(chunk.try_into().expect("4-byte chunk")))
            .collect()
    }

    /// Reads a tensor written by [`Writer::put_tensor`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::TruncatedWire`] on a short buffer or
    /// [`TensorError::MalformedWire`] if the element count disagrees with the
    /// encoded shape.
    pub fn get_tensor(&mut self) -> Result<Tensor, TensorError> {
        let dims = self.get_usize_list()?;
        let n = self.get_u64()? as usize;
        // Attacker-chosen dims must not overflow the element-count product
        // (`Shape::numel` multiplies unchecked, which would panic in debug
        // builds and silently wrap in release).
        let numel = dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or(TensorError::MalformedWire {
                context: "tensor shape product overflow",
            })?;
        if numel != n {
            return Err(TensorError::MalformedWire {
                context: "tensor element count mismatch",
            });
        }
        // Attacker-chosen counts must not overflow the byte-length math.
        let byte_len = n.checked_mul(4).ok_or(TensorError::MalformedWire {
            context: "tensor element count overflow",
        })?;
        self.need(byte_len, "tensor payload")?;
        let data = self.get_f32_payload(byte_len);
        Tensor::try_from_vec(data, &dims).map_err(|_| TensorError::MalformedWire {
            context: "tensor shape mismatch",
        })
    }

    /// Bytes remaining unread.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(1234);
        w.put_u64(u64::MAX);
        w.put_f32(1.5);
        w.put_f64(-2.25);
        w.put_str("amalgam");
        let mut r = Reader::new(w.finish());
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 1234);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.get_f64().unwrap(), -2.25);
        assert_eq!(r.get_str().unwrap(), "amalgam");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn tensor_roundtrip() {
        let mut rng = Rng::seed_from(42);
        let t = Tensor::randn(&[3, 4, 5], &mut rng);
        let mut w = Writer::new();
        w.put_tensor(&t);
        let mut r = Reader::new(w.finish());
        let back = r.get_tensor().unwrap();
        assert_eq!(back.dims(), t.dims());
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn truncated_buffer_errors() {
        let mut w = Writer::new();
        w.put_u64(99);
        let bytes = w.finish();
        let mut r = Reader::new(bytes.slice(0..4));
        assert_eq!(
            r.get_u64().unwrap_err(),
            TensorError::TruncatedWire { context: "u64" }
        );
    }

    #[test]
    fn malformed_tensor_count_errors() {
        let mut w = Writer::new();
        w.put_usize_list(&[2, 2]); // claims 4 elements
        w.put_u64(3); // but count says 3
        w.put_f32(0.0);
        w.put_f32(0.0);
        w.put_f32(0.0);
        let mut r = Reader::new(w.finish());
        assert!(matches!(
            r.get_tensor(),
            Err(TensorError::MalformedWire { .. })
        ));
    }

    #[test]
    fn bulk_bytes_roundtrip_matches_byte_at_a_time() {
        let blob: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        // Bulk writer…
        let mut bulk = Writer::new();
        bulk.put_bytes(&blob);
        // …must be bitwise identical to the legacy byte loop.
        let mut loopw = Writer::new();
        loopw.put_u32(blob.len() as u32);
        for &b in &blob {
            loopw.put_u8(b);
        }
        let bulk_bytes = bulk.finish();
        assert_eq!(bulk_bytes, loopw.finish());
        let mut r = Reader::new(bulk_bytes);
        assert_eq!(r.get_bytes().unwrap().to_vec(), blob);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_bulk_bytes_error() {
        let mut w = Writer::new();
        w.put_bytes(b"hello");
        let bytes = w.finish();
        let mut r = Reader::new(bytes.slice(0..6));
        assert_eq!(
            r.get_bytes().unwrap_err(),
            TensorError::TruncatedWire {
                context: "byte blob"
            }
        );
    }

    #[test]
    fn huge_claimed_tensor_count_is_malformed_not_a_panic() {
        // An adversarial header claiming 2^62 elements must fail cleanly:
        // 2^62 * 4 overflows the byte-length math if left unchecked.
        let mut w = Writer::new();
        w.put_usize_list(&[1usize << 62]);
        w.put_u64(1u64 << 62);
        let mut r = Reader::new(w.finish());
        assert_eq!(
            r.get_tensor().unwrap_err(),
            TensorError::MalformedWire {
                context: "tensor element count overflow"
            }
        );
    }

    #[test]
    fn usize_list_roundtrip() {
        let xs = vec![0usize, 1, 42, 1_000_000];
        let mut w = Writer::new();
        w.put_usize_list(&xs);
        let mut r = Reader::new(w.finish());
        assert_eq!(r.get_usize_list().unwrap(), xs);
    }

    #[test]
    fn f32_list_roundtrip() {
        let xs = vec![0.0f32, -1.5, 3.25, f32::MAX, f32::MIN_POSITIVE];
        let mut w = Writer::new();
        w.put_f32_list(&xs);
        let mut r = Reader::new(w.finish());
        assert_eq!(r.get_f32_list().unwrap(), xs);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn adversarial_list_length_prefix_is_an_error_not_an_alloc() {
        // A 4-byte buffer claiming u32::MAX list entries: decode must fail
        // on the length check, long before a multi-gigabyte allocation.
        for get in [
            |r: &mut Reader| r.get_usize_list().map(|_| ()),
            |r: &mut Reader| r.get_f32_list().map(|_| ()),
            |r: &mut Reader| r.get_str().map(|_| ()),
            |r: &mut Reader| r.get_bytes().map(|_| ()),
        ] {
            let mut w = Writer::new();
            w.put_u32(u32::MAX);
            let mut r = Reader::new(w.finish());
            assert!(get(&mut r).is_err(), "huge length prefix must not decode");
        }
    }

    #[test]
    fn tensor_shape_product_overflow_is_malformed() {
        // dims whose product overflows usize must be rejected cleanly, not
        // wrap around (release) or panic (debug) inside Shape::numel.
        let mut w = Writer::new();
        w.put_usize_list(&[1usize << 33, 1usize << 33]);
        w.put_u64(0);
        let mut r = Reader::new(w.finish());
        assert_eq!(
            r.get_tensor().unwrap_err(),
            TensorError::MalformedWire {
                context: "tensor shape product overflow"
            }
        );
    }
}
