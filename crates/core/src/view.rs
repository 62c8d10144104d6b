//! Read-only base views: a code slice read in one direction.
//!
//! Every extension problem reads its sequences outward from the seed.
//! A right side reads the suffixes after the seed forward; a left side
//! reads the prefixes before it back to front. The engines take a
//! [`BaseView`] instead of a slice, so a left side is read in place
//! rather than reversed into a copy first: an extension usually stops
//! within a few hundred bases of a side that may hold
//! `max_extension` of them, and the cyclic register buffers this
//! pipeline reproduces exist to avoid moving bytes the DP never reads.

/// Bases `0..len` of a code slice in the extension direction: base `i`
/// of a forward view is `codes[i]`, of a reversed view
/// `codes[len − 1 − i]`.
#[derive(Clone, Copy, Debug)]
pub struct BaseView<'a> {
    codes: &'a [u8],
    reversed: bool,
}

impl<'a> BaseView<'a> {
    /// `codes` read front to back.
    pub fn forward(codes: &'a [u8]) -> BaseView<'a> {
        BaseView {
            codes,
            reversed: false,
        }
    }

    /// `codes` read back to front.
    pub fn reversed(codes: &'a [u8]) -> BaseView<'a> {
        BaseView {
            codes,
            reversed: true,
        }
    }

    /// Bases in the view.
    #[inline(always)]
    pub fn len(self) -> usize {
        self.codes.len()
    }

    /// Whether the view holds no base.
    #[inline(always)]
    pub fn is_empty(self) -> bool {
        self.codes.is_empty()
    }

    /// Base `i` in the view's direction; `None` past the end.
    #[inline(always)]
    pub fn get(self, i: usize) -> Option<u8> {
        // A reversed index past the end wraps to `len..=usize::MAX`,
        // which the slice lookup refuses like any other.
        let at = if self.reversed {
            self.codes.len().wrapping_sub(1).wrapping_sub(i)
        } else {
            i
        };
        self.codes.get(at).copied()
    }

    /// Bases `start..start + len` in the view's direction: the slice
    /// itself for a forward view, gathered into `buf` for a reversed
    /// one. `None` when the range runs past the view or `buf`.
    #[inline(always)]
    pub fn window<'b>(self, start: usize, len: usize, buf: &'b mut [u8]) -> Option<&'b [u8]>
    where
        'a: 'b,
    {
        let end = start.checked_add(len)?;
        let dst = buf.get_mut(..len)?;
        if !self.reversed {
            return self.codes.get(start..end);
        }
        let src = self.codes.len().checked_sub(end)?;
        let src = self.codes.get(src..src + len)?; // bound: src + len = codes.len() − start
        for (slot, &c) in dst.iter_mut().zip(src.iter().rev()) {
            *slot = c;
        }
        Some(dst)
    }
}

/// A slice is its forward view.
impl<'a> From<&'a [u8]> for BaseView<'a> {
    fn from(codes: &'a [u8]) -> BaseView<'a> {
        BaseView::forward(codes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reversed_views_read_back_to_front() {
        let codes = [0u8, 1, 2, 3, 4];
        let fwd = BaseView::forward(&codes);
        let rev = BaseView::reversed(&codes);
        let copy: Vec<u8> = codes.iter().rev().copied().collect();
        for i in 0..=codes.len() + 1 {
            assert_eq!(fwd.get(i), codes.get(i).copied());
            assert_eq!(rev.get(i), copy.get(i).copied());
        }
        assert_eq!(rev.get(usize::MAX), None);
        assert_eq!(BaseView::reversed(&[]).get(0), None);
        let mut buf = [9u8; 4];
        for start in 0..=codes.len() + 1 {
            for len in 0..=5 {
                let want = copy.get(start..start + len).filter(|_| len <= buf.len());
                assert_eq!(rev.window(start, len, &mut buf), want, "{start} {len}");
                let want = codes.get(start..start + len).filter(|_| len <= buf.len());
                assert_eq!(fwd.window(start, len, &mut buf), want);
            }
        }
        assert_eq!(rev.window(usize::MAX, 2, &mut buf), None);
    }
}
