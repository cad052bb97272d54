//! Shared, cheaply-clonable wire buffers.
//!
//! Every layer of the stack used to pass message bytes as `Vec<u8>`,
//! copying the frame at each hop: send, retry queue, shard mailbox,
//! dedup, quarantine. [`WireBytes`] replaces those copies with a reference
//! count — an `Arc` around the `Vec` the bytes were built in, plus a byte
//! range, so framing, payload views, and dead-letter retention all share
//! the one buffer the bytes were written into.
//!
//! Equality, ordering, and hashing are defined over the *byte content*,
//! never over the pointer: two `WireBytes` with equal bytes are equal even
//! when they own different buffers. This keeps dedup windows and snapshot
//! fingerprints deterministic across runs (see tests/chaos.rs), where
//! pointer-based identity would vary with allocation order.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer with a sub-range view.
///
/// Cloning is O(1) and never copies payload bytes; [`WireBytes::slice`]
/// produces a narrower view sharing the same allocation. Wrapping a `Vec`
/// takes the vector as it is: only the borrowed conversions (`&[u8]`,
/// `&Vec<u8>`, `&[u8; N]`) copy.
///
/// # Examples
///
/// ```
/// use pbio::WireBytes;
///
/// let frame = WireBytes::from(vec![1u8, 2, 3, 4, 5]);
/// let payload = frame.slice(2..5);
/// assert_eq!(&payload[..], &[3, 4, 5]);
/// assert!(frame.same_buffer(&payload), "views share one allocation");
/// assert_eq!(frame.ref_count(), 2);
/// ```
#[derive(Clone)]
pub struct WireBytes {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl WireBytes {
    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A narrower view into the same allocation (no bytes copied).
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds this view's length.
    pub fn slice(&self, range: Range<usize>) -> WireBytes {
        assert!(range.start <= range.end && range.end <= self.len(), "slice out of range");
        WireBytes {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Copies the viewed bytes into a fresh `Vec` (the one deliberate copy,
    /// for callers that must own or mutate).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Number of `WireBytes` (and other `Arc` handles) sharing this
    /// allocation — test hook for no-copy assertions.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.buf)
    }

    /// True when both views share one allocation (pointer identity, used
    /// only by tests; semantic equality is byte-content based).
    pub fn same_buffer(&self, other: &WireBytes) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

impl Deref for WireBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for WireBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for WireBytes {
    fn from(v: Vec<u8>) -> WireBytes {
        let end = v.len();
        WireBytes { buf: Arc::new(v), start: 0, end }
    }
}

impl From<&[u8]> for WireBytes {
    fn from(v: &[u8]) -> WireBytes {
        WireBytes::from(v.to_vec())
    }
}

impl From<&Vec<u8>> for WireBytes {
    fn from(v: &Vec<u8>) -> WireBytes {
        WireBytes::from(v.as_slice())
    }
}

impl From<&WireBytes> for WireBytes {
    fn from(v: &WireBytes) -> WireBytes {
        v.clone()
    }
}

impl<const N: usize> From<&[u8; N]> for WireBytes {
    fn from(v: &[u8; N]) -> WireBytes {
        WireBytes::from(v.as_slice())
    }
}

// Content-based equality/ordering/hashing: deterministic across runs,
// independent of which allocation holds the bytes.
impl PartialEq for WireBytes {
    fn eq(&self, other: &WireBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for WireBytes {}

impl PartialOrd for WireBytes {
    fn partial_cmp(&self, other: &WireBytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WireBytes {
    fn cmp(&self, other: &WireBytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for WireBytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for WireBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for WireBytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for WireBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for WireBytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for WireBytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<WireBytes> for Vec<u8> {
    fn eq(&self, other: &WireBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for WireBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WireBytes({} bytes", self.len())?;
        let shown = &self.as_slice()[..self.len().min(8)];
        if !shown.is_empty() {
            write!(f, ": {shown:02x?}")?;
            if self.len() > shown.len() {
                write!(f, "…")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn clone_and_slice_share_the_allocation() {
        let w = WireBytes::from(vec![0u8, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(w.ref_count(), 1);
        let c = w.clone();
        let s = w.slice(3..6);
        assert_eq!(w.ref_count(), 3);
        assert!(w.same_buffer(&c) && w.same_buffer(&s));
        assert_eq!(&s[..], &[3, 4, 5]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        // A slice of a slice stays within the same buffer.
        let ss = s.slice(1..3);
        assert_eq!(&ss[..], &[4, 5]);
        assert!(ss.same_buffer(&w));
        drop((c, s, ss));
        assert_eq!(w.ref_count(), 1);
    }

    #[test]
    fn equality_and_hash_are_content_based() {
        let a = WireBytes::from(vec![9u8, 8, 7]);
        let b = WireBytes::from(b"\x09\x08\x07".to_vec());
        assert_eq!(a, b);
        assert!(!a.same_buffer(&b), "equal content, distinct allocations");
        let hash = |w: &WireBytes| {
            let mut h = DefaultHasher::new();
            w.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        // Views compare by content too: a slice equals an equal whole.
        let whole = WireBytes::from(vec![1u8, 9, 8, 7, 2]);
        assert_eq!(whole.slice(1..4), a);
        assert_eq!(a, vec![9u8, 8, 7]);
        assert_eq!(a, b"\x09\x08\x07");
        assert_eq!(a, *b"\x09\x08\x07");
        let prefix = WireBytes::from(vec![9u8, 8]);
        assert!(a > prefix);
    }

    #[test]
    fn conversions_and_debug() {
        let v = vec![1u8, 2, 3];
        let from_ref: WireBytes = (&v).into();
        let from_slice: WireBytes = v.as_slice().into();
        let from_owned: WireBytes = v.clone().into();
        assert_eq!(from_ref, from_slice);
        assert_eq!(from_slice, from_owned);
        assert_eq!(v, from_owned);
        let dbg = format!("{:?}", WireBytes::from(vec![0u8; 20]));
        assert!(dbg.contains("20 bytes"), "{dbg}");
        assert_eq!(from_owned.to_vec(), v);
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_out_of_range_panics() {
        let _ = WireBytes::from(vec![1u8, 2]).slice(0..3);
    }
}
