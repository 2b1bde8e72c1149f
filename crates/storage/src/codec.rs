//! Little-endian (de)serialisation cursors for node layouts.
//!
//! Hand-rolled instead of pulling a serialisation framework: node layouts
//! are flat sequences of `u8/u32/u64/f64` and fixed-length float arrays, and
//! the tree controls layout versioning itself.

use std::fmt;

/// Error produced when a [`Reader`] runs past the end of its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortBuffer {
    /// Bytes requested by the failed read.
    pub wanted: usize,
    /// Bytes remaining in the buffer.
    pub remaining: usize,
}

impl fmt::Display for ShortBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "short buffer: wanted {} bytes, only {} remaining",
            self.wanted, self.remaining
        )
    }
}

impl std::error::Error for ShortBuffer {}

/// Sequential little-endian writer over a mutable byte slice.
///
/// Panics on overflow — node layouts are sized up front, so writing past the
/// end of a page is a logic error, not an I/O condition.
#[derive(Debug)]
pub struct Writer<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> Writer<'a> {
    /// Creates a writer at offset 0.
    #[must_use]
    pub fn new(buf: &'a mut [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes written so far.
    #[inline]
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes still available.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn put(&mut self, bytes: &[u8]) {
        let end = self.pos + bytes.len();
        assert!(
            end <= self.buf.len(),
            "page overflow: writing {} bytes at offset {} into {}-byte buffer",
            bytes.len(),
            self.pos,
            self.buf.len()
        );
        self.buf[self.pos..end].copy_from_slice(bytes);
        self.pos = end;
    }

    /// Writes a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Writes a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Writes an `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.put(&v.to_le_bytes());
    }

    /// Writes an `f32` (quantised leaf columns).
    pub fn put_f32(&mut self, v: f32) {
        self.put(&v.to_le_bytes());
    }

    /// Writes a slice of `f64`s (length is *not* encoded).
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        for &v in vs {
            self.put_f64(v);
        }
    }
}

/// Sequential little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes still available.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ShortBuffer> {
        if self.pos + n > self.buf.len() {
            return Err(ShortBuffer {
                wanted: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    #[expect(clippy::expect_used, reason = "take(N) returns exactly N bytes")]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ShortBuffer> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    /// [`ShortBuffer`] if the buffer is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, ShortBuffer> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    /// [`ShortBuffer`] if the buffer is exhausted.
    pub fn get_u16(&mut self) -> Result<u16, ShortBuffer> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    /// [`ShortBuffer`] if the buffer is exhausted.
    pub fn get_u32(&mut self) -> Result<u32, ShortBuffer> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    /// [`ShortBuffer`] if the buffer is exhausted.
    pub fn get_u64(&mut self) -> Result<u64, ShortBuffer> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64`.
    ///
    /// # Errors
    /// [`ShortBuffer`] if the buffer is exhausted.
    pub fn get_f64(&mut self) -> Result<f64, ShortBuffer> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads `n` `f64`s into a fresh vector.
    ///
    /// # Errors
    /// [`ShortBuffer`] if the buffer is exhausted.
    pub fn get_f64_vec(&mut self, n: usize) -> Result<Vec<f64>, ShortBuffer> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }
}

/// FNV-1a 64-bit digest of `bytes` — the page checksum of the tree's
/// versioned metadata slots. Not cryptographic; it exists to reject torn
/// or stale slot images at open time, where an adversary is a power cut,
/// not an attacker.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_vectors_and_sensitivity() {
        // Reference vectors of the FNV-1a 64 specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        // A single flipped bit anywhere changes the digest.
        let mut page = vec![0u8; 256];
        let clean = fnv1a64(&page);
        page[200] ^= 1;
        assert_ne!(fnv1a64(&page), clean);
    }

    #[test]
    fn round_trip_all_types() {
        let mut buf = vec![0u8; 64];
        let mut w = Writer::new(&mut buf);
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-1.5e300);
        w.put_f32(2.5e-7);
        w.put_f64_slice(&[1.0, 2.0, 3.0]);
        let written = w.position();

        let mut r = Reader::new(&buf[..written]);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64().unwrap(), -1.5e300);
        assert_eq!(f32::from_bits(r.get_u32().unwrap()), 2.5e-7);
        assert_eq!(r.get_f64_vec(3).unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_reports_short_buffer() {
        let buf = [1u8, 2, 3];
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u16().unwrap(), 0x0201);
        let err = r.get_u32().unwrap_err();
        assert_eq!(
            err,
            ShortBuffer {
                wanted: 4,
                remaining: 1
            }
        );
    }

    #[test]
    #[should_panic(expected = "page overflow")]
    fn writer_panics_on_overflow() {
        let mut buf = [0u8; 2];
        let mut w = Writer::new(&mut buf);
        w.put_u32(1);
    }

    #[test]
    fn nan_survives_round_trip_bitwise() {
        let mut buf = [0u8; 8];
        Writer::new(&mut buf).put_f64(f64::NAN);
        let v = Reader::new(&buf).get_f64().unwrap();
        assert!(v.is_nan());
    }

    #[test]
    fn positions_track_progress() {
        let mut buf = [0u8; 16];
        let mut w = Writer::new(&mut buf);
        assert_eq!(w.remaining(), 16);
        w.put_u64(7);
        assert_eq!(w.position(), 8);
        assert_eq!(w.remaining(), 8);
    }
}
