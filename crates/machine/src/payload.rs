//! Zero-copy message payloads: shared buffers with offset/length views.
//!
//! A [`Payload`] is an `Arc`-shared buffer of `f64` words plus a view
//! window. Sending one is an `Arc` clone — no words are copied — and
//! [`Payload::slice`] forms a sub-range view in O(1), which is how the
//! collectives ship block ranges down trees without materializing them.
//! The words are only ever copied at a payload's *creation* (from a
//! borrowed slice) and at explicit materialization ([`Payload::to_vec`],
//! [`Payload::into_vec`] on a shared buffer); everything in between —
//! mailbox buffering, forwarding, re-slicing — is reference counting.

use std::ops::{Deref, Range};
use std::sync::Arc;

/// A view into a shared buffer of `f64` words. Cloning and slicing are
/// O(1) (`Arc` clone); the underlying words are immutable once wrapped.
#[derive(Clone)]
pub struct Payload {
    buf: Arc<Vec<f64>>,
    off: usize,
    len: usize,
}

impl Payload {
    /// Wrap an owned buffer — zero-copy (the `Vec` moves into the `Arc`).
    pub fn new(data: Vec<f64>) -> Self {
        let len = data.len();
        Payload {
            buf: Arc::new(data),
            off: 0,
            len,
        }
    }

    /// An empty payload.
    pub fn empty() -> Self {
        Payload::new(Vec::new())
    }

    /// Copy a borrowed slice into a fresh shared buffer (the one place a
    /// payload's creation costs a memcpy).
    pub fn from_slice(data: &[f64]) -> Self {
        Payload::new(data.to_vec())
    }

    /// Number of words in view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed words.
    pub fn as_slice(&self) -> &[f64] {
        &self.buf[self.off..self.off + self.len]
    }

    /// O(1) sub-view of `range` (relative to this view).
    ///
    /// Note that a view — however small — keeps the *entire* underlying
    /// allocation alive. That is the point during transit (forwarding is
    /// free), but long-term holders of a small block received from a
    /// collective should [`Payload::into_vec`]/[`Payload::to_vec`] it so
    /// the large transit buffer can be freed.
    ///
    /// # Panics
    /// If `range` exceeds the view.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "payload slice {range:?} out of bounds (len {})",
            self.len
        );
        Payload {
            buf: Arc::clone(&self.buf),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }

    /// Copy the viewed words into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.as_slice().to_vec()
    }

    /// Recover an owned `Vec`. Zero-copy when this is the only reference
    /// and the view covers the whole buffer; otherwise copies the view.
    pub fn into_vec(self) -> Vec<f64> {
        let full = self.off == 0 && self.len == self.buf.len();
        match (full, Arc::try_unwrap(self.buf)) {
            (true, Ok(v)) => v,
            (true, Err(arc)) => arc[..].to_vec(),
            (false, Ok(v)) => v[self.off..self.off + self.len].to_vec(),
            (false, Err(arc)) => arc[self.off..self.off + self.len].to_vec(),
        }
    }

    /// The whole underlying buffer — every word, whatever this view's
    /// window — when this is its only reference; `None` (dropping this
    /// reference) while another view or clone still shares it. This is
    /// how a consumed message's storage is recycled without a copy.
    pub fn into_buffer(self) -> Option<Vec<f64>> {
        Arc::try_unwrap(self.buf).ok()
    }

    /// True if `self` and `other` view the *same allocation* (regardless
    /// of window). This is how tests assert that a send moved no words.
    pub fn same_buffer(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Address of the first viewed word (stable across sends: the buffer
    /// is never reallocated once wrapped).
    pub fn as_ptr(&self) -> *const f64 {
        self.as_slice().as_ptr()
    }
}

impl Deref for Payload {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl From<Vec<f64>> for Payload {
    fn from(v: Vec<f64>) -> Self {
        Payload::new(v)
    }
}

impl From<&[f64]> for Payload {
    fn from(s: &[f64]) -> Self {
        Payload::from_slice(s)
    }
}

impl<const N: usize> From<&[f64; N]> for Payload {
    fn from(s: &[f64; N]) -> Self {
        Payload::from_slice(s)
    }
}

impl From<&Vec<f64>> for Payload {
    fn from(v: &Vec<f64>) -> Self {
        Payload::from_slice(v)
    }
}

/// O(1): an `Arc` clone of the view — this is what lets generic
/// `Rank::send` call sites pass `&payload` and keep the zero-copy
/// guarantee.
impl From<&Payload> for Payload {
    fn from(p: &Payload) -> Self {
        p.clone()
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Payload")
            .field("len", &self.len)
            .field("off", &self.off)
            .field("cap", &self.buf.len())
            .finish()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Vec<f64>> for Payload {
    fn eq(&self, other: &Vec<f64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[f64]> for Payload {
    fn eq(&self, other: &[f64]) -> bool {
        self.as_slice() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_and_view() {
        let p = Payload::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.len(), 4);
        assert_eq!(p[2], 3.0);
        let s = p.slice(1..3);
        assert_eq!(s.as_slice(), &[2.0, 3.0]);
        assert!(s.same_buffer(&p));
        let ss = s.slice(1..2);
        assert_eq!(ss.as_slice(), &[3.0]);
    }

    #[test]
    fn clone_shares_allocation() {
        let p = Payload::new(vec![7.0; 100]);
        let q = p.clone();
        assert!(q.same_buffer(&p));
        assert_eq!(q.as_ptr(), p.as_ptr());
    }

    #[test]
    fn into_vec_zero_copy_when_unique() {
        let v = vec![1.0, 2.0, 3.0];
        let ptr = v.as_ptr();
        let p = Payload::new(v);
        let back = p.into_vec();
        assert_eq!(
            back.as_ptr(),
            ptr,
            "unique full-view into_vec must not copy"
        );
        assert_eq!(back, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn into_vec_copies_views_and_shared() {
        let p = Payload::new(vec![1.0, 2.0, 3.0]);
        let q = p.clone();
        assert_eq!(q.into_vec(), vec![1.0, 2.0, 3.0]);
        assert_eq!(p.slice(1..3).into_vec(), vec![2.0, 3.0]);
    }

    #[test]
    fn into_buffer_returns_the_whole_allocation_only_when_unique() {
        let v = vec![1.0, 2.0, 3.0];
        let ptr = v.as_ptr();
        let p = Payload::new(v);
        let view = p.slice(1..2);
        assert!(p.into_buffer().is_none(), "a live view shares the buffer");
        let back = view.into_buffer().expect("the last reference");
        assert_eq!(
            (back.as_ptr(), back.len()),
            (ptr, 3),
            "whole buffer, no copy"
        );
    }

    #[test]
    fn equality_is_by_contents() {
        let a = Payload::new(vec![1.0, 2.0]);
        let b = Payload::new(vec![0.0, 1.0, 2.0]).slice(1..3);
        assert_eq!(a, b);
        assert!(!a.same_buffer(&b));
        assert_eq!(a, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_bounds_checked() {
        let p = Payload::new(vec![1.0]);
        let _ = p.slice(0..2);
    }

    #[test]
    fn empty_payload() {
        let p = Payload::empty();
        assert!(p.is_empty());
        assert_eq!(p.to_vec(), Vec::<f64>::new());
    }
}
