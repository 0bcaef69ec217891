//! Byte buffers for the wire path: [`Bytes`], an immutable, cheaply
//! cloned view into shared storage (an `Arc<[u8]>` plus a `u32` range,
//! so slicing a received frame into packets copies nothing, and a view
//! is 24 bytes); [`BytesMut`], the growable buffer an encoder writes
//! with little-endian `put_*` methods; and [`Reader`], the one checked
//! cursor every wire decoder reads through.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

use crate::error::{PacketError, Result};

/// The largest buffer a [`Bytes`] can hold: its range is stored as
/// `u32` offsets. Wire frames are capped far below this (256 MiB).
pub const MAX_BYTES_LEN: usize = u32::MAX as usize;

/// A cheaply cloneable, immutable byte buffer of at most
/// [`MAX_BYTES_LEN`] bytes.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: u32,
    end: u32,
}

/// Converts a buffer length to the `u32` a [`Bytes`] range stores,
/// refusing a buffer over [`MAX_BYTES_LEN`].
fn checked_len(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| {
        panic!("a Bytes buffer holds at most u32::MAX ({MAX_BYTES_LEN}) bytes, got {len}")
    })
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Copies a static byte slice into a new buffer.
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in the buffer.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a sub-view sharing the same backing storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        // In bounds of a range that fits in u32, so these cannot wrap.
        Bytes {
            data: self.data.clone(),
            start: self.start + lo as u32,
            end: self.start + hi as u32,
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Moves the bytes into shared storage: one allocation and one
    /// copy, whatever the vector's spare capacity.
    ///
    /// # Panics
    ///
    /// If `v` is longer than [`MAX_BYTES_LEN`].
    fn from(v: Vec<u8>) -> Bytes {
        let end = checked_len(v.len());
        Bytes {
            data: Arc::from(v),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start as usize..self.end as usize]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

/// A growable byte buffer for encoding.
#[derive(Clone, Default, Debug)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            inner: Vec::with_capacity(cap),
        }
    }

    /// Reserves additional capacity.
    pub fn reserve(&mut self, additional: usize) {
        self.inner.reserve(additional);
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.inner)
    }

    /// Appends a slice.
    pub fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }
}

/// The encoders' writers: one per wire type, little-endian.
#[allow(missing_docs)]
impl BytesMut {
    pub fn put_u8(&mut self, v: u8) {
        self.inner.push(v);
    }

    pub fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    pub fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    pub fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }

    pub fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    pub fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    pub fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }

    pub fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> BytesMut {
        BytesMut { inner: v.to_vec() }
    }
}

/// A checked little-endian reader over a wire buffer. Every decoder
/// reads through one: a read past the end returns
/// [`PacketError::Truncated`] naming what was being read, and never
/// panics.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `data`.
    #[inline]
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Bytes read so far: the offset of the next read in `data`.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Reads the next `n` bytes; `context` names them in the error if
    /// fewer remain. This and [`Reader::get`] are always inlined: the
    /// packet walker calls them for every value of every packet. Both
    /// are written without `ok_or` and `try_into().expect`, whose calls
    /// an unoptimized build keeps: they made a debug build's ingress
    /// validation about 1.6x slower than its encoder.
    #[inline(always)]
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.data.len() - self.pos < n {
            return Err(PacketError::Truncated { context });
        }
        let head = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(head)
    }

    /// Reads the next `N` bytes as an array, for `from_le_bytes`.
    #[inline(always)]
    pub fn get<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N, context)?);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_is_three_words() {
        assert_eq!(std::mem::size_of::<Bytes>(), 24);
    }

    #[test]
    fn slices_share_storage_and_advance() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.as_ptr(), b[1..].as_ptr());
        let s = s.slice(2..);
        assert_eq!(&s[..], &[4]);
        assert_eq!(s.as_ptr(), b[3..].as_ptr());
        assert_eq!(b.slice(..=1).len(), 2);
        assert!(b.slice(5..).is_empty());
    }

    #[test]
    fn reader_refuses_a_short_read_without_moving() {
        let mut r = Reader::new(&[1, 0, 2, 3, 4]);
        assert_eq!(u16::from_le_bytes(r.get("u16").unwrap()), 1);
        assert_eq!(r.take(2, "pair").unwrap(), &[2, 3]);
        assert_eq!(r.pos(), 4);
        let err = r.get::<2>("tail").unwrap_err();
        assert_eq!(err, PacketError::Truncated { context: "tail" });
        assert_eq!(r.take(1, "last").unwrap(), &[4]);
        assert!(r.is_empty());
    }

    #[test]
    fn length_cap_is_u32_max() {
        assert_eq!(checked_len(MAX_BYTES_LEN), u32::MAX);
        let refused = std::panic::catch_unwind(|| checked_len(MAX_BYTES_LEN + 1));
        let msg = *refused.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("u32::MAX"), "{msg}");
    }
}
