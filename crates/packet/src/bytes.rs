//! Byte buffers for the wire path: [`Bytes`], an immutable, cheaply
//! cloned view into shared storage (an `Arc<[u8]>` plus a `u32` range,
//! so slicing a received frame into packets copies nothing, and a view
//! is 24 bytes); [`BytesMut`],
//! the growable buffer an encoder writes; and the [`Buf`]/[`BufMut`]
//! cursor traits with little-endian accessors.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

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

/// Read access to a byte cursor.
#[allow(missing_docs)]
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The current contiguous chunk.
    fn chunk(&self) -> &[u8];
    /// Advances the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copies `dst.len()` bytes out, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        let mut off = 0;
        while off < dst.len() {
            let chunk = self.chunk();
            let n = chunk.len().min(dst.len() - off);
            dst[off..off + n].copy_from_slice(&chunk[..n]);
            self.advance(n);
            off += n;
        }
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_i32_le(&mut self) -> i32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        i32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    fn get_i64_le(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_le_bytes(b)
    }

    fn get_f32_le(&mut self) -> f32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        f32::from_le_bytes(b)
    }

    fn get_f64_le(&mut self) -> f64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        f64::from_le_bytes(b)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt as u32;
    }
}

/// Write access to a growable byte buffer.
#[allow(missing_docs)]
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
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
        let mut s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.as_ptr(), b[1..].as_ptr());
        s.advance(2);
        assert_eq!(&s[..], &[4]);
        assert_eq!(b.slice(..=1).len(), 2);
        assert!(b.slice(5..).is_empty());
    }

    #[test]
    fn length_cap_is_u32_max() {
        assert_eq!(checked_len(MAX_BYTES_LEN), u32::MAX);
        let refused = std::panic::catch_unwind(|| checked_len(MAX_BYTES_LEN + 1));
        let msg = *refused.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("u32::MAX"), "{msg}");
    }
}
