//! Little-endian byte-level primitives for the on-disk format.
//!
//! The workspace is dependency-free, so serialization is hand-rolled:
//! a growing [`ByteWriter`] and a bounds-checked [`ByteReader`] whose
//! every read can fail with [`ProfileError::Truncated`]. The payload
//! checksum is [`hpmopt_prim::fnv1a`].

use crate::format::ProfileError;

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact round
    /// trip, NaN included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `u32` length prefix followed by the UTF-8 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian decoder over a borrowed buffer.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProfileError> {
        if self.remaining() < n {
            return Err(ProfileError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Truncated`] when the buffer is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, ProfileError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Truncated`] when fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, ProfileError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Truncated`] when fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, ProfileError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Truncated`] when fewer than 8 bytes remain.
    pub fn get_f64(&mut self) -> Result<f64, ProfileError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Truncated`] when the prefix overruns the buffer,
    /// [`ProfileError::Malformed`] on invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, ProfileError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProfileError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_f64(-1.25);
        w.put_str("Class::field");
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap(), -1.25);
        assert_eq!(r.get_str().unwrap(), "Class::field");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reads_past_end_fail_cleanly() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.get_u64().unwrap_err(), ProfileError::Truncated);
        // The failed read consumed nothing; smaller reads still work.
        assert_eq!(r.get_u8().unwrap(), 1);
    }

    #[test]
    fn string_prefix_cannot_overrun() {
        let mut w = ByteWriter::new();
        w.put_u32(1000); // length prefix far beyond the buffer
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_str().unwrap_err(), ProfileError::Truncated);
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u8(0xff);
        w.put_u8(0xfe);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_str().unwrap_err(), ProfileError::Malformed);
    }
}
