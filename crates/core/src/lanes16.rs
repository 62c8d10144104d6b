//! The 16-bit lane types: one warp's 32 lanes as `i16`, one type per
//! [`SimdIsa`](crate::lanes::SimdIsa) level, behind the same `i32`
//! [`LaneVec`] API as the 32-bit types.
//!
//! | level | lane type | mask | `shift_up1` | substitution |
//! |---|---|---|---|---|
//! | AVX-512 | one `__m512i` | one `__mmask32` | `valignq` + `vpalignr` | one `vpermw` |
//! | AVX2 | two `__m256i` | two `-1/0` vectors | `vperm2i128` + `vpalignr` | select chain |
//! | portable | `[i16; 32]` | `[i16; 32]` of `-1/0` | array copy | select chain |
//!
//! The API stays `i32`, so the engine's strip loop and the step kernel
//! are one generic body over either width:
//!
//! * [`LaneVec::splat`] and [`LaneVec::load`] narrow with saturation, so
//!   the `NEG_INF` sentinel (and every value below `i16::MIN`) becomes
//!   `i16::MIN`;
//! * [`LaneVec::lane`], [`LaneVec::reduce_max`] and [`LaneVec::to_array`]
//!   widen, mapping `i16::MIN` back to `NEG_INF`;
//! * [`LaneVec::add`] saturates (`vpaddsw`), so a sentinel plus a
//!   penalty stays the sentinel instead of wrapping.
//!
//! The results equal the 32-bit types' only while every real score of a
//! strip lies strictly between the sentinel band and `i16::MAX`; the
//! engine runs a strip on these types only when an exact bound proves
//! that (`warp_engine`, DESIGN §SIMD wavefront).

use crate::lanes::{select_chain, LaneMask, LaneVec, SubstTable};
use fastz_align::ydrop::NEG_INF;
use fastz_genome::ALPHABET_SIZE;
use fastz_gpu_sim::{lanes32, Lanes, WARP_SIZE};

/// `x` as an `i16` lane value: saturated, so `NEG_INF` becomes
/// `i16::MIN`.
#[inline(always)]
pub(crate) fn narrow(x: i32) -> i16 {
    x.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16
}

/// An `i16` lane value as the `i32` the API returns: `i16::MIN` is the
/// sentinel, everything else is exact.
#[inline(always)]
pub(crate) fn widen(x: i16) -> i32 {
    if x == i16::MIN {
        NEG_INF
    } else {
        i32::from(x)
    }
}

/// The portable 16-bit lane type, which LLVM autovectorizes at the
/// body's width (eight lanes per SSE2 register).
#[derive(Clone, Copy)]
pub(crate) struct Portable16([i16; WARP_SIZE]);

/// `[f(a[0], b[0]), …, f(a[31], b[31])]`.
#[inline(always)]
fn zip16(a: &[i16; WARP_SIZE], b: &[i16; WARP_SIZE], f: impl Fn(i16, i16) -> i16) -> Portable16 {
    let mut out = [0i16; WARP_SIZE];
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
    Portable16(out)
}

/// `-1` for true, `0` for false.
#[inline(always)]
fn lane_bool(b: bool) -> i16 {
    -i16::from(b)
}

impl LaneVec for Portable16 {
    type Mask = Portable16;
    type Narrow = Portable16;

    #[inline(always)]
    fn splat(x: i32) -> Self {
        Portable16([narrow(x); WARP_SIZE])
    }
    #[inline(always)]
    fn load(a: &Lanes<i32>) -> Self {
        let mut out = [0i16; WARP_SIZE];
        for (o, &x) in out.iter_mut().zip(a) {
            *o = narrow(x);
        }
        Portable16(out)
    }
    #[inline(always)]
    fn to_array(self) -> Lanes<i32> {
        let mut out = [0i32; WARP_SIZE];
        for (o, &x) in out.iter_mut().zip(&self.0) {
            *o = widen(x);
        }
        out
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        zip16(&self.0, &o.0, i16::saturating_add)
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        zip16(&self.0, &o.0, i16::max)
    }
    #[inline(always)]
    fn ge(self, o: Self) -> Self {
        zip16(&self.0, &o.0, |x, y| lane_bool(x >= y))
    }
    #[inline(always)]
    fn gt(self, o: Self) -> Self {
        zip16(&self.0, &o.0, |x, y| lane_bool(x > y))
    }
    #[inline(always)]
    fn select(m: Self, a: Self, b: Self) -> Self {
        let mut out = [0i16; WARP_SIZE];
        for (((o, &m), &x), &y) in out.iter_mut().zip(&m.0).zip(&a.0).zip(&b.0) {
            *o = (x & m) | (y & !m);
        }
        Portable16(out)
    }
    #[inline(always)]
    fn shift_up1(self, fill: i32) -> Self {
        let mut out = [narrow(fill); WARP_SIZE];
        for (o, &x) in out.iter_mut().skip(1).zip(&self.0) {
            *o = x;
        }
        Portable16(out)
    }
    #[inline(always)]
    fn reduce_max(self) -> i32 {
        widen(self.0.iter().fold(i16::MIN, |m, &x| m.max(x)))
    }
    #[inline(always)]
    fn lane(self, l: usize) -> i32 {
        widen(self.0[l])
    }
    #[inline(always)]
    fn to_bytes(self) -> Lanes<u8> {
        let mut out = [0u8; WARP_SIZE];
        for (b, &x) in out.iter_mut().zip(&self.0) {
            *b = x as u8;
        }
        out
    }
    #[inline(always)]
    fn range_mask(lo: usize, hi: usize) -> Self {
        let bits = lanes32::range_bits(lo, hi);
        let mut out = [0i16; WARP_SIZE];
        for (l, o) in out.iter_mut().enumerate() {
            *o = lane_bool(bits >> l & 1 != 0);
        }
        Portable16(out)
    }

    type Subst = [Self; ALPHABET_SIZE];
    #[inline(always)]
    fn subst_profile(table: &SubstTable, strip_target: &[u8]) -> Self::Subst {
        table.profile(strip_target)
    }
    #[inline(always)]
    fn subst(profile: &Self::Subst, codes: Self) -> Self {
        select_chain(profile, codes)
    }
}

impl LaneMask for Portable16 {
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        zip16(&self.0, &o.0, |x, y| x & y)
    }
    #[inline(always)]
    fn bits(self) -> u32 {
        let mut bits = 0u32;
        for (l, &x) in self.0.iter().enumerate() {
            bits |= u32::from(x < 0) << l;
        }
        bits
    }
}

/// The x86-64 16-bit lane types. As for the 32-bit ones
/// (`crate::lanes`), their values exist only inside a kernel body that
/// `SimdIsa::run` entered after `SimdIsa::supported` confirmed the
/// level's features; every `unsafe` intrinsic call relies on that.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::widen;
    use crate::lanes::{select_chain, LaneMask, LaneVec, SubstTable};
    use fastz_align::ydrop::NEG_INF;
    use fastz_genome::ALPHABET_SIZE;
    use fastz_gpu_sim::{lanes32, Lanes, WARP_SIZE};
    use std::arch::x86_64::*;

    /// The lane of `v` holding the largest value, as a widened `i32`:
    /// `phminposuw` finds the unsigned minimum, and `x ^ 0x7FFF` maps
    /// the signed order onto the reversed unsigned one.
    ///
    /// # Safety
    ///
    /// AVX2 body or wider only (SSE4.1 `phminposuw`).
    #[inline(always)]
    unsafe fn reduce_max128(v: __m128i) -> i32 {
        let flip = _mm_set1_epi16(i16::MAX);
        let min = _mm_minpos_epu16(_mm_xor_si128(v, flip));
        widen(_mm_cvtsi128_si32(min) as i16 ^ i16::MAX)
    }

    /// `x` narrowed with saturation (`vpackssdw`, as `narrow`) into
    /// lane 0 of an SSE vector: on the vector side, so broadcasting it
    /// needs no scalar clamp.
    ///
    /// # Safety
    ///
    /// AVX2 body or wider only.
    #[inline(always)]
    unsafe fn narrow128(x: i32) -> __m128i {
        let v = _mm_cvtsi32_si128(x);
        _mm_packs_epi32(v, v)
    }

    /// 32 lanes of `i16` in one AVX-512 vector.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512Lanes16(__m512i);

    /// A predicate over [`Avx512Lanes16`]: one 32-bit k-mask.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512Mask16(__mmask32);

    impl LaneVec for Avx512Lanes16 {
        type Mask = Avx512Mask16;
        type Narrow = Avx512Lanes16;

        #[inline(always)]
        fn splat(x: i32) -> Self {
            // SAFETY: AVX-512 body only (module docs).
            unsafe { Avx512Lanes16(_mm512_broadcastw_epi16(narrow128(x))) }
        }
        #[inline(always)]
        fn load(a: &Lanes<i32>) -> Self {
            let p = a.as_ptr();
            // `vpmovsdw` narrows with signed saturation, as `narrow`.
            // SAFETY: AVX-512 body only (module docs); both unaligned
            // loads read inside the 32-lane array.
            unsafe {
                let lo = _mm512_cvtsepi32_epi16(_mm512_loadu_si512(p.cast()));
                let hi = _mm512_cvtsepi32_epi16(_mm512_loadu_si512(p.add(16).cast()));
                Avx512Lanes16(_mm512_inserti64x4::<1>(_mm512_castsi256_si512(lo), hi))
            }
        }
        #[inline(always)]
        fn to_array(self) -> Lanes<i32> {
            let mut out = [0i32; WARP_SIZE];
            let p = out.as_mut_ptr();
            // SAFETY: AVX-512 body only (module docs); both unaligned
            // stores write inside the 32-lane array.
            unsafe {
                let sentinel = _mm512_cmpeq_epi16_mask(self.0, _mm512_set1_epi16(i16::MIN));
                let neg = _mm512_set1_epi32(NEG_INF);
                let lo = _mm512_cvtepi16_epi32(_mm512_castsi512_si256(self.0));
                let hi = _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64::<1>(self.0));
                let lo = _mm512_mask_mov_epi32(lo, sentinel as u16, neg);
                let hi = _mm512_mask_mov_epi32(hi, (sentinel >> 16) as u16, neg);
                _mm512_storeu_si512(p.cast(), lo);
                _mm512_storeu_si512(p.add(16).cast(), hi);
            }
            out
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: AVX-512 body only (module docs).
            unsafe { Avx512Lanes16(_mm512_adds_epi16(self.0, o.0)) }
        }
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: AVX-512 body only (module docs).
            unsafe { Avx512Lanes16(_mm512_max_epi16(self.0, o.0)) }
        }
        #[inline(always)]
        fn ge(self, o: Self) -> Avx512Mask16 {
            // SAFETY: AVX-512 body only (module docs).
            unsafe { Avx512Mask16(_mm512_cmpge_epi16_mask(self.0, o.0)) }
        }
        #[inline(always)]
        fn gt(self, o: Self) -> Avx512Mask16 {
            // SAFETY: AVX-512 body only (module docs).
            unsafe { Avx512Mask16(_mm512_cmpgt_epi16_mask(self.0, o.0)) }
        }
        #[inline(always)]
        fn select(m: Avx512Mask16, a: Self, b: Self) -> Self {
            // SAFETY: AVX-512 body only (module docs).
            unsafe { Avx512Lanes16(_mm512_mask_blend_epi16(m.0, b.0, a.0)) }
        }
        #[inline(always)]
        fn shift_up1(self, fill: i32) -> Self {
            // `valignq` by 6 moves every 128-bit chunk up one chunk
            // (chunk 0 takes the fill vector's top chunk); `vpalignr` by
            // 14 bytes then gives each chunk's lane 0 that moved chunk's
            // top lane, and lanes 1..=7 its own lanes 0..=6.
            // SAFETY: AVX-512 body only (module docs).
            unsafe {
                let fill = _mm512_broadcastw_epi16(narrow128(fill));
                let carry = _mm512_alignr_epi64::<6>(self.0, fill);
                Avx512Lanes16(_mm512_alignr_epi8::<14>(self.0, carry))
            }
        }
        #[inline(always)]
        fn reduce_max(self) -> i32 {
            // SAFETY: AVX-512 body only (module docs).
            unsafe {
                let m = _mm256_max_epi16(
                    _mm512_castsi512_si256(self.0),
                    _mm512_extracti64x4_epi64::<1>(self.0),
                );
                reduce_max128(_mm_max_epi16(
                    _mm256_castsi256_si128(m),
                    _mm256_extracti128_si256::<1>(m),
                ))
            }
        }
        #[inline(always)]
        fn lane(self, l: usize) -> i32 {
            // SAFETY: AVX-512 body only (module docs).
            unsafe {
                let v = _mm512_permutexvar_epi16(_mm512_set1_epi16(l as i16), self.0);
                widen(_mm_cvtsi128_si32(_mm512_castsi512_si128(v)) as i16)
            }
        }
        #[inline(always)]
        fn to_bytes(self) -> Lanes<u8> {
            let mut out = [0u8; WARP_SIZE];
            // `vpmovwb` truncates each lane to its low byte, as `as u8`.
            // SAFETY: AVX-512 body only (module docs); the 32-byte store
            // writes exactly the array.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), _mm512_cvtepi16_epi8(self.0)) };
            out
        }
        #[inline(always)]
        fn range_mask(lo: usize, hi: usize) -> Avx512Mask16 {
            Avx512Mask16(lanes32::range_bits(lo, hi))
        }

        /// The whole table plus each lane's table row: two registers.
        type Subst = (Avx512Lanes16, Avx512Lanes16);
        #[inline(always)]
        fn subst_profile(table: &SubstTable, strip_target: &[u8]) -> Self::Subst {
            (
                Avx512Lanes16::load(table.entries()),
                Avx512Lanes16::load(&SubstTable::rows(strip_target)),
            )
        }
        #[inline(always)]
        fn subst(profile: &Self::Subst, codes: Self) -> Self {
            let (table, rows) = *profile;
            // `vpermw` reads entry `idx & 31` of the 32-entry table;
            // every index is below 25.
            // SAFETY: AVX-512 body only (module docs).
            unsafe {
                let idx = _mm512_add_epi16(rows.0, codes.0);
                Avx512Lanes16(_mm512_permutexvar_epi16(idx, table.0))
            }
        }
    }

    impl LaneMask for Avx512Mask16 {
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            Avx512Mask16(self.0 & o.0)
        }
        #[inline(always)]
        fn bits(self) -> u32 {
            self.0
        }
    }

    /// 32 lanes of `i16` as two AVX2 vectors (lanes 0–15, 16–31).
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2Lanes16([__m256i; 2]);

    /// A predicate over [`Avx2Lanes16`]: `-1`/`0` lanes.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2Mask16([__m256i; 2]);

    /// `[f(0), f(1)]`, one call per half, written out so the closure
    /// inlines into the body's `#[target_feature]` context.
    #[inline(always)]
    fn halves<T>(f: impl Fn(usize) -> T) -> [T; 2] {
        [f(0), f(1)]
    }

    /// The 64-bit quarters `[0, 2, 1, 3]` of a pack's result: the packs
    /// interleave their operands' 128-bit halves, this puts them back in
    /// lane order.
    ///
    /// # Safety
    ///
    /// AVX2 body or wider only.
    #[inline(always)]
    unsafe fn unpack_order(v: __m256i) -> __m256i {
        _mm256_permute4x64_epi64::<0b11_01_10_00>(v)
    }

    impl LaneVec for Avx2Lanes16 {
        type Mask = Avx2Mask16;
        type Narrow = Avx2Lanes16;

        #[inline(always)]
        fn splat(x: i32) -> Self {
            // SAFETY: AVX2 body or wider only (module docs).
            unsafe { Avx2Lanes16([_mm256_broadcastw_epi16(narrow128(x)); 2]) }
        }
        #[inline(always)]
        fn load(a: &Lanes<i32>) -> Self {
            let p = a.as_ptr();
            // `vpackssdw` narrows with signed saturation, as `narrow`.
            // SAFETY: AVX2 body or wider only (module docs); the four
            // unaligned loads read inside the 32-lane array.
            Avx2Lanes16(halves(|k| unsafe {
                let a = _mm256_loadu_si256(p.add(16 * k).cast());
                let b = _mm256_loadu_si256(p.add(16 * k + 8).cast());
                unpack_order(_mm256_packs_epi32(a, b))
            }))
        }
        #[inline(always)]
        fn to_array(self) -> Lanes<i32> {
            let mut out = [0i32; WARP_SIZE];
            let p = out.as_mut_ptr();
            // SAFETY: AVX2 body or wider only (module docs); each
            // unaligned store writes eight lanes inside the array.
            unsafe {
                let neg = _mm256_set1_epi32(NEG_INF);
                let min = _mm256_set1_epi32(i32::from(i16::MIN));
                let widen8 = |v: __m128i| {
                    let x = _mm256_cvtepi16_epi32(v);
                    _mm256_blendv_epi8(x, neg, _mm256_cmpeq_epi32(x, min))
                };
                for (k, half) in self.0.into_iter().enumerate() {
                    let lo = widen8(_mm256_castsi256_si128(half));
                    let hi = widen8(_mm256_extracti128_si256::<1>(half));
                    _mm256_storeu_si256(p.add(16 * k).cast(), lo);
                    _mm256_storeu_si256(p.add(16 * k + 8).cast(), hi);
                }
            }
            out
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            let (a, b) = (self.0, o.0);
            // SAFETY: AVX2 body or wider only (module docs).
            Avx2Lanes16(halves(|k| unsafe { _mm256_adds_epi16(a[k], b[k]) }))
        }
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            let (a, b) = (self.0, o.0);
            // SAFETY: AVX2 body or wider only (module docs).
            Avx2Lanes16(halves(|k| unsafe { _mm256_max_epi16(a[k], b[k]) }))
        }
        #[inline(always)]
        fn ge(self, o: Self) -> Avx2Mask16 {
            let (a, b) = (self.0, o.0);
            // `a >= b` iff `max(a, b) == a`.
            // SAFETY: AVX2 body or wider only (module docs).
            Avx2Mask16(halves(|k| unsafe {
                _mm256_cmpeq_epi16(_mm256_max_epi16(a[k], b[k]), a[k])
            }))
        }
        #[inline(always)]
        fn gt(self, o: Self) -> Avx2Mask16 {
            let (a, b) = (self.0, o.0);
            // SAFETY: AVX2 body or wider only (module docs).
            Avx2Mask16(halves(|k| unsafe { _mm256_cmpgt_epi16(a[k], b[k]) }))
        }
        #[inline(always)]
        fn select(m: Avx2Mask16, a: Self, b: Self) -> Self {
            let (m, a, b) = (m.0, a.0, b.0);
            // SAFETY: AVX2 body or wider only (module docs).
            Avx2Lanes16(halves(|k| unsafe { _mm256_blendv_epi8(b[k], a[k], m[k]) }))
        }
        #[inline(always)]
        fn shift_up1(self, fill: i32) -> Self {
            // Each half moves up one lane: `vperm2i128` builds (previous
            // half's upper 128 bits, own lower 128 bits), and `vpalignr`
            // by 14 bytes takes each 128-bit lane's lane 0 from it. The
            // first half's previous half is the fill vector.
            let [a, b] = self.0;
            // SAFETY: AVX2 body or wider only (module docs).
            unsafe {
                let up = |q: __m256i, prev: __m256i| {
                    _mm256_alignr_epi8::<14>(q, _mm256_permute2x128_si256::<0x03>(q, prev))
                };
                let fill = _mm256_broadcastw_epi16(narrow128(fill));
                Avx2Lanes16([up(a, fill), up(b, a)])
            }
        }
        #[inline(always)]
        fn reduce_max(self) -> i32 {
            let [a, b] = self.0;
            // SAFETY: AVX2 body or wider only (module docs).
            unsafe {
                let m = _mm256_max_epi16(a, b);
                reduce_max128(_mm_max_epi16(
                    _mm256_castsi256_si128(m),
                    _mm256_extracti128_si256::<1>(m),
                ))
            }
        }
        #[inline(always)]
        fn lane(self, l: usize) -> i32 {
            let (half, i) = (self.0[l / 16], l % 16);
            // SAFETY: AVX2 body or wider only (module docs).
            let pair = unsafe {
                let v = _mm256_permutevar8x32_epi32(half, _mm256_set1_epi32((i / 2) as i32));
                _mm256_cvtsi256_si32(v)
            };
            widen((pair >> (16 * (i % 2))) as i16)
        }
        #[inline(always)]
        fn to_bytes(self) -> Lanes<u8> {
            let mut out = [0u8; WARP_SIZE];
            let [a, b] = self.0;
            // Keep each lane's low byte (`as u8`), so the unsigned
            // saturating pack is exact.
            // SAFETY: AVX2 body or wider only (module docs); the 32-byte
            // store writes exactly the array.
            unsafe {
                let low = _mm256_set1_epi16(0xFF);
                let bytes = _mm256_packus_epi16(_mm256_and_si256(a, low), _mm256_and_si256(b, low));
                _mm256_storeu_si256(out.as_mut_ptr().cast(), unpack_order(bytes));
            }
            out
        }
        #[inline(always)]
        fn range_mask(lo: usize, hi: usize) -> Avx2Mask16 {
            // Lane `l` of half `k` tests bit `16k + l` of the ballot.
            let bits = lanes32::range_bits(lo, hi);
            // SAFETY: AVX2 body or wider only (module docs).
            unsafe {
                let lane_bit = _mm256_setr_epi16(
                    1,
                    2,
                    4,
                    8,
                    16,
                    32,
                    64,
                    128,
                    256,
                    512,
                    1024,
                    2048,
                    4096,
                    8192,
                    16384,
                    i16::MIN,
                );
                Avx2Mask16(halves(|k| {
                    let b = _mm256_set1_epi16((bits >> (16 * k)) as u16 as i16);
                    _mm256_cmpeq_epi16(_mm256_and_si256(b, lane_bit), lane_bit)
                }))
            }
        }

        type Subst = [Self; ALPHABET_SIZE];
        #[inline(always)]
        fn subst_profile(table: &SubstTable, strip_target: &[u8]) -> Self::Subst {
            table.profile(strip_target)
        }
        #[inline(always)]
        fn subst(profile: &Self::Subst, codes: Self) -> Self {
            select_chain(profile, codes)
        }
    }

    impl LaneMask for Avx2Mask16 {
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            let (a, b) = (self.0, o.0);
            // SAFETY: AVX2 body or wider only (module docs).
            Avx2Mask16(halves(|k| unsafe { _mm256_and_si256(a[k], b[k]) }))
        }
        #[inline(always)]
        fn bits(self) -> u32 {
            let [a, b] = self.0;
            // `vpacksswb` keeps each lane's -1/0 as one byte.
            // SAFETY: AVX2 body or wider only (module docs).
            unsafe { _mm256_movemask_epi8(unpack_order(_mm256_packs_epi16(a, b))) as u32 }
        }
    }
}
