//! Whole-buffer scan kernels.
//!
//! Whole-buffer operations — Minmax reductions, stencil maxima and counts,
//! accumulation adds — are the device layer's other hot loop besides
//! rasterization. Two kernel shapes live here:
//!
//! * **Reductions** are serial folds over the plane.
//! * **Elementwise maps** (accumulation add, clamped return) are flat
//!   `f32` zips, which vectorize as-is.
//!
//! No kernel here produces or consumes NaN: colors are intensities
//! validated into `[0, 1]` where they are set, their sums and clamps.

/// (min, max) over a color plane.
#[inline]
pub(crate) fn minmax(colors: &[f32]) -> (f32, f32) {
    let mut mn = f32::INFINITY;
    let mut mx = f32::NEG_INFINITY;
    for &c in colors {
        mn = mn.min(c);
        mx = mx.max(c);
    }
    (mn, mx)
}

/// Maximum stencil value.
#[inline]
pub(crate) fn stencil_max(vals: &[u8]) -> u8 {
    let mut m = 0;
    for &v in vals {
        m = m.max(v);
    }
    m
}

/// Number of stencil values ≥ `min` — the fragment-counting readback
/// behind the area-of-overlap aggregation.
#[inline]
pub(crate) fn stencil_count_ge(vals: &[u8], min: u8) -> u64 {
    let mut count = 0;
    for &v in vals {
        count += (v >= min) as u64;
    }
    count
}

/// `acc[i] += src[i]` — the accumulation-buffer add, as a flat elementwise
/// map.
#[inline(always)]
pub(crate) fn add_assign(acc: &mut [f32], src: &[f32]) {
    for (a, &c) in acc.iter_mut().zip(src) {
        *a += c;
    }
}

/// `dst[i] = src[i].clamp(0, 1)` — the accumulation return, as a flat
/// elementwise map.
#[inline(always)]
pub(crate) fn copy_clamped(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s.clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random color soup (no external RNG).
    fn soup(n: usize) -> Vec<f32> {
        let mut state = 0x9e37u32;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(48271).wrapping_add(11);
                (state >> 16) as f32 / 65536.0
            })
            .collect()
    }

    #[test]
    fn minmax_matches_folds() {
        for n in [0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 64, 100] {
            let colors = soup(n);
            let (mn, mx) = minmax(&colors);
            let vals = colors.iter().copied();
            assert_eq!(mn, vals.clone().fold(f32::INFINITY, f32::min), "n={n}");
            assert_eq!(mx, vals.fold(f32::NEG_INFINITY, f32::max), "n={n}");
        }
    }

    #[test]
    fn stencil_max_matches_iterator_max() {
        let vals: Vec<u8> = (0..97u32)
            .map(|i| (i.wrapping_mul(131) % 251) as u8)
            .collect();
        assert_eq!(stencil_max(&vals), vals.iter().copied().max().unwrap());
        assert_eq!(stencil_max(&[]), 0);
    }

    #[test]
    fn stencil_count_matches_iterator_count() {
        let vals: Vec<u8> = (0..103u32)
            .map(|i| (i.wrapping_mul(197) % 5) as u8)
            .collect();
        for min in 0..4u8 {
            let expect = vals.iter().filter(|&&v| v >= min).count() as u64;
            assert_eq!(stencil_count_ge(&vals, min), expect, "min={min}");
        }
        assert_eq!(stencil_count_ge(&[], 2), 0);
    }

    #[test]
    fn elementwise_maps_match_scalar_ops() {
        let src = soup(37);
        let mut acc = soup(37);
        let mut expect = acc.clone();
        add_assign(&mut acc, &src);
        for (a, c) in expect.iter_mut().zip(&src) {
            *a += c;
        }
        assert_eq!(acc, expect);

        let mut dst = vec![0f32; 37];
        copy_clamped(&mut dst, &acc);
        for (d, a) in dst.iter().zip(&acc) {
            assert_eq!(*d, a.clamp(0.0, 1.0));
        }
    }
}
