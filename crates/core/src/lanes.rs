//! Register-resident lane vectors: the warp's 32 lanes as one value per
//! host instruction-set level, and the run-time dispatch that picks the
//! level.
//!
//! The engine body ([`crate::warp_engine`]) and the step kernel
//! ([`crate::wavefront_step`]) are written once, generic over
//! [`LaneVec`]. Each [`SimdIsa`] level instantiates that one body with
//! its own lane type under its own `#[target_feature]` list:
//!
//! | level | lane type | mask | `shift_up1` | ballot | 16-bit lane type |
//! |---|---|---|---|---|---|
//! | [`SimdIsa::Avx512`] | two `__m512i` | two `__mmask16` | `valignd` | the k-mask bits | one `__m512i`, one `__mmask32` |
//! | [`SimdIsa::Avx2`] | four `__m256i` | four `-1/0` vectors | `vpermd` + `vpblendd` | `vmovmskps` | two `__m256i` |
//! | [`SimdIsa::Portable`] | `[i32; 32]` | `[i32; 32]` of `-1/0` | array copy | sign bits | `[i16; 32]` |
//!
//! Each 32-bit lane type names its level's 16-bit one as
//! [`LaneVec::Narrow`] ([`crate::lanes16`]): same `i32` API, half the
//! vector work, exact only inside a score range the engine proves per
//! strip before it picks the narrow type.
//!
//! Each level also picks how a step gathers its substitution scores
//! ([`LaneVec::subst`]): AVX-512 looks every lane up in the flattened
//! 25-entry [`SubstTable`] with one `vpermi2d` per half. The narrower
//! levels keep a per-strip profile and a compare-and-select chain: an
//! AVX2 `vpermd` reaches only 8 entries, and its memory gather is slow
//! on many of the hosts that run the AVX2 body (DESIGN §SIMD wavefront).
//!
//! Every 32-bit impl performs the same wrapping `i32` lane operations, so
//! the levels are bit-identical; the portable one is
//! [`fastz_gpu_sim::lanes32`] unchanged, which its unit tests pin to the
//! scalar warp primitives.

use fastz_genome::{SubstMatrix, ALPHABET_SIZE, N_CODE};
use fastz_gpu_sim::{lanes32, splat, Lanes, WARP_SIZE};
use std::sync::OnceLock;

/// A substitution matrix flattened for the lane lookups: entry
/// `ALPHABET_SIZE·t + q` scores target code `t` against query code `q`.
/// The 25 entries fit in one warp's worth of lanes; the rest are 0.
#[derive(Clone, Copy)]
pub(crate) struct SubstTable(Lanes<i32>);

impl SubstTable {
    /// The flattened entries (lanes past the 25 entries hold 0).
    #[inline(always)]
    pub(crate) fn entries(&self) -> &Lanes<i32> {
        &self.0
    }

    /// The smallest and largest of the 25 entries, `N` pairings
    /// included.
    pub(crate) fn range(&self) -> (i32, i32) {
        let used = &self.0[..ALPHABET_SIZE * ALPHABET_SIZE];
        let lo = used.iter().copied().min().unwrap_or(0);
        let hi = used.iter().copied().max().unwrap_or(0);
        (lo, hi)
    }

    pub(crate) fn new(subst: &SubstMatrix) -> SubstTable {
        let mut flat = [0i32; WARP_SIZE];
        for (k, x) in flat
            .iter_mut()
            .take(ALPHABET_SIZE * ALPHABET_SIZE)
            .enumerate()
        {
            *x = subst.score((k / ALPHABET_SIZE) as u8, (k % ALPHABET_SIZE) as u8);
        }
        SubstTable(flat)
    }

    /// Lane `l` holds `ALPHABET_SIZE × strip_target[l]`, the row of the
    /// table lane `l` reads; lanes past the strip (a partial last strip,
    /// never active) read row 0. Codes above [`N_CODE`] read as `N`.
    #[inline(always)]
    pub(crate) fn rows(strip_target: &[u8]) -> Lanes<i32> {
        let mut rows = [0i32; WARP_SIZE];
        for (r, &t) in rows.iter_mut().zip(strip_target) {
            *r = ALPHABET_SIZE as i32 * i32::from(t.min(N_CODE));
        }
        rows
    }

    /// The select-chain profile: `profile[q]` lane `l` scores lane
    /// `l`'s target base against query code `q`.
    #[inline(always)]
    pub(crate) fn profile<V: LaneVec>(&self, strip_target: &[u8]) -> [V; ALPHABET_SIZE] {
        let rows = SubstTable::rows(strip_target);
        let mut profile = [V::splat(0); ALPHABET_SIZE];
        for (q, p) in profile.iter_mut().enumerate() {
            let mut scores = [0i32; WARP_SIZE];
            for (x, &r) in scores.iter_mut().zip(&rows) {
                // bound: r ≤ 5·N_CODE and q < 5, so r + q < 25 < WARP_SIZE.
                *x = self.0[r as usize + q];
            }
            *p = V::load(&scores);
        }
        profile
    }
}

/// The substitution score of every lane's cell from a select-chain
/// profile: lane `l` takes `profile[codes[l]][l]`. A chain of
/// `codes >= q` selects in ascending `q` leaves each lane on its own
/// code's row, so the gather costs `ALPHABET_SIZE − 1` compare-and-select
/// pairs and no memory lookups. Codes above `N` read as `N`.
#[inline(always)]
pub(crate) fn select_chain<V: LaneVec>(profile: &[V; ALPHABET_SIZE], codes: V) -> V {
    let mut out = profile[0];
    for (q, &row) in profile.iter().enumerate().skip(1) {
        out = V::select(codes.ge(V::splat(q as i32)), row, out);
    }
    out
}

/// One warp's worth of `i32` lanes, as the lane type of one [`SimdIsa`]
/// level. All operations are lane-wise and wrapping, exactly as
/// [`fastz_gpu_sim::lanes32`] defines them.
pub(crate) trait LaneVec: Copy {
    /// A per-lane predicate (the result of a comparison).
    type Mask: LaneMask;
    /// The same level's 16-bit lane type ([`crate::lanes16`]), which a
    /// strip runs on when its scores provably fit; a 16-bit type is its
    /// own `Narrow`.
    type Narrow: LaneVec;

    /// Every lane holds `x`.
    fn splat(x: i32) -> Self;
    /// Lane `l` holds `a[l]`.
    fn load(a: &Lanes<i32>) -> Self;
    /// The lanes as an array (the inverse of [`LaneVec::load`]).
    fn to_array(self) -> Lanes<i32>;
    /// Lane-wise wrapping addition.
    fn add(self, o: Self) -> Self;
    /// Lane-wise maximum.
    fn max(self, o: Self) -> Self;
    /// Lane-wise `self >= o`.
    fn ge(self, o: Self) -> Self::Mask;
    /// Lane-wise `self > o`.
    fn gt(self, o: Self) -> Self::Mask;
    /// Lane-wise `m ? a : b`.
    fn select(m: Self::Mask, a: Self, b: Self) -> Self;
    /// `__shfl_up_sync(…, 1)`: lane `l` takes lane `l − 1`'s value and
    /// lane 0 takes `fill`.
    fn shift_up1(self, fill: i32) -> Self;
    /// The largest lane value.
    fn reduce_max(self) -> i32;
    /// Lane `l`'s value (`l < WARP_SIZE`).
    fn lane(self, l: usize) -> i32;
    /// The low byte of every lane (`as u8`).
    fn to_bytes(self) -> Lanes<u8>;
    /// The mask of the contiguous lanes `lo..=hi` (empty when `lo > hi`).
    fn range_mask(lo: usize, hi: usize) -> Self::Mask;

    /// One strip's substitution scores in this level's lookup form,
    /// built once per strip from the strip's target codes.
    type Subst: Copy;
    /// The lookup form of `table` for the target codes `strip_target`
    /// (lane `l` holds column `strip_target[l]`).
    fn subst_profile(table: &SubstTable, strip_target: &[u8]) -> Self::Subst;
    /// The substitution score of every lane's cell: lane `l` scores its
    /// target code against query code `codes[l]` (`0..=N_CODE`).
    fn subst(profile: &Self::Subst, codes: Self) -> Self;
}

/// A per-lane predicate of a [`LaneVec`].
pub(crate) trait LaneMask: Copy {
    /// Lane-wise conjunction.
    fn and(self, o: Self) -> Self;
    /// `__ballot_sync`: bit `l` set iff lane `l`'s predicate holds.
    fn bits(self) -> u32;
}

/// The portable lane type: the fixed-array [`lanes32`] operations, which
/// LLVM autovectorizes at whatever width the body is compiled for.
impl LaneVec for Lanes<i32> {
    type Mask = Lanes<i32>;
    type Narrow = crate::lanes16::Portable16;

    #[inline(always)]
    fn splat(x: i32) -> Self {
        splat(x)
    }
    #[inline(always)]
    fn load(a: &Lanes<i32>) -> Self {
        *a
    }
    #[inline(always)]
    fn to_array(self) -> Lanes<i32> {
        self
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        lanes32::add(&self, &o)
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        lanes32::max(&self, &o)
    }
    #[inline(always)]
    fn ge(self, o: Self) -> Self {
        lanes32::ge(&self, &o)
    }
    #[inline(always)]
    fn gt(self, o: Self) -> Self {
        lanes32::gt(&self, &o)
    }
    #[inline(always)]
    fn select(m: Self, a: Self, b: Self) -> Self {
        lanes32::select(&m, &a, &b)
    }
    #[inline(always)]
    fn shift_up1(self, fill: i32) -> Self {
        lanes32::shift_up1(&self, fill)
    }
    #[inline(always)]
    fn reduce_max(self) -> i32 {
        self.iter().fold(i32::MIN, |m, &x| m.max(x))
    }
    #[inline(always)]
    fn lane(self, l: usize) -> i32 {
        self[l]
    }
    #[inline(always)]
    fn to_bytes(self) -> Lanes<u8> {
        let mut out = [0u8; WARP_SIZE];
        for (b, &x) in out.iter_mut().zip(&self) {
            *b = x as u8;
        }
        out
    }
    #[inline(always)]
    fn range_mask(lo: usize, hi: usize) -> Self {
        lanes32::range_mask(lo, hi)
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

impl LaneMask for Lanes<i32> {
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        lanes32::and(&self, &o)
    }
    #[inline(always)]
    fn bits(self) -> u32 {
        lanes32::movemask(&self)
    }
}

/// Host instruction-set level an instantiation of the engine body is
/// compiled for.
///
/// The body is one `#[inline(always)]` generic, instantiated once per
/// level under `#[target_feature]` with that level's `LaneVec`;
/// [`SimdIsa::dispatched`] picks the widest level the CPU supports, once
/// per process. Every level runs the same integer operations in the same
/// order, so results are bit-identical across levels — only the lane
/// type and the vector width differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdIsa {
    /// The build's baseline target features (SSE2 on x86-64), and the
    /// only level on other architectures: `[i32; 32]` lanes.
    Portable,
    /// x86-64 AVX2 (with BMI1/BMI2, LZCNT, POPCNT): four `__m256i`.
    Avx2,
    /// x86-64 AVX-512 F/BW/VL/DQ (with the AVX2-level extras): two
    /// `__m512i` with k-mask compares.
    Avx512,
}

impl SimdIsa {
    /// Every level, narrowest first.
    pub const ALL: [SimdIsa; 3] = [SimdIsa::Portable, SimdIsa::Avx2, SimdIsa::Avx512];

    /// Short name (`portable`, `avx2`, `avx512`).
    pub fn name(self) -> &'static str {
        match self {
            SimdIsa::Portable => "portable",
            SimdIsa::Avx2 => "avx2",
            SimdIsa::Avx512 => "avx512",
        }
    }

    /// The level's lane types, 32-bit then 16-bit, as the benches
    /// report them.
    pub fn lane_type(self) -> &'static str {
        match self {
            SimdIsa::Portable => {
                "[i32; 32] (lanes32, autovectorized); i16 strips: [i16; 32] (autovectorized)"
            }
            SimdIsa::Avx2 => "4 x __m256i, vector masks; i16 strips: 2 x __m256i, vector masks",
            SimdIsa::Avx512 => {
                "2 x __m512i, __mmask16 masks; i16 strips: 1 x __m512i, __mmask32 mask"
            }
        }
    }

    /// Whether this CPU can run the level's instantiation. The feature
    /// lists match the `#[target_feature]` attributes of the
    /// instantiations below. Each level's list contains the narrower
    /// levels' lists.
    pub fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = || {
                is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("bmi1")
                    && is_x86_feature_detected!("bmi2")
                    && is_x86_feature_detected!("lzcnt")
                    && is_x86_feature_detected!("popcnt")
            };
            match self {
                SimdIsa::Portable => true,
                SimdIsa::Avx2 => avx2(),
                SimdIsa::Avx512 => {
                    avx2()
                        && is_x86_feature_detected!("avx512f")
                        && is_x86_feature_detected!("avx512bw")
                        && is_x86_feature_detected!("avx512vl")
                        && is_x86_feature_detected!("avx512dq")
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == SimdIsa::Portable
        }
    }

    /// The widest supported level: detected on first use, then cached
    /// for the life of the process.
    pub fn dispatched() -> SimdIsa {
        static LEVEL: OnceLock<SimdIsa> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            SimdIsa::ALL
                .into_iter()
                .rev()
                .find(|isa| isa.supported())
                .unwrap_or(SimdIsa::Portable)
        })
    }

    /// Runs `kernel`'s body compiled for this level, on this level's
    /// lane type.
    ///
    /// # Panics
    ///
    /// When the CPU does not support the level (see
    /// [`SimdIsa::supported`]).
    #[inline]
    pub(crate) fn run<K: IsaKernel>(self, kernel: K) -> K::Output {
        // The dispatched level and every narrower one are supported
        // (the feature lists nest), so the common call skips detection.
        assert!(
            self as u8 <= SimdIsa::dispatched() as u8 || self.supported(),
            "{} is not supported on this CPU",
            self.name()
        );
        match self {
            SimdIsa::Portable => kernel.run::<Lanes<i32>>(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the assertion above confirmed (through
            // `SimdIsa::supported`) every feature the instantiation
            // enables.
            SimdIsa::Avx2 => unsafe { x86::run_avx2(kernel) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            SimdIsa::Avx512 => unsafe { x86::run_avx512(kernel) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdIsa::Avx2 | SimdIsa::Avx512 => unreachable!("rejected by supported()"),
        }
    }
}

/// A hot loop compiled once per [`SimdIsa`] level.
///
/// Implementations mark [`IsaKernel::run`] `#[inline(always)]`, so its
/// body is compiled into each `#[target_feature]` instantiation below,
/// with `V` the level's lane type. Kernels that do not work on lane
/// vectors ignore `V`; the compiler may still vectorize them at the
/// level's width.
pub(crate) trait IsaKernel {
    type Output;

    /// The kernel body on lane type `V`.
    fn run<V: LaneVec>(self) -> Self::Output;
}

/// The x86-64 lane types and the `#[target_feature]` instantiations
/// behind [`SimdIsa::run`].
///
/// Values of [`Avx2Lanes`] and [`Avx512Lanes`] are created only by
/// [`LaneVec`] calls inside a kernel body that `run_avx2` /
/// `run_avx512` instantiates, and [`SimdIsa::run`] enters those only
/// after [`SimdIsa::supported`] confirmed the level's features. That is
/// the invariant every `unsafe` intrinsic call below relies on.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{select_chain, IsaKernel, LaneMask, LaneVec, SubstTable};
    use fastz_genome::ALPHABET_SIZE;
    use fastz_gpu_sim::{lanes32, Lanes, WARP_SIZE};
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// The CPU must support every enabled feature
    /// (`SimdIsa::Avx2.supported()`).
    #[target_feature(enable = "avx2,bmi1,bmi2,lzcnt,popcnt")]
    pub(super) unsafe fn run_avx2<K: IsaKernel>(kernel: K) -> K::Output {
        kernel.run::<Avx2Lanes>()
    }

    /// # Safety
    ///
    /// The CPU must support every enabled feature
    /// (`SimdIsa::Avx512.supported()`).
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512dq,avx2,bmi1,bmi2,lzcnt,popcnt")]
    pub(super) unsafe fn run_avx512<K: IsaKernel>(kernel: K) -> K::Output {
        kernel.run::<Avx512Lanes>()
    }

    /// 32 lanes as two AVX-512 vectors (lanes 0–15, 16–31).
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512Lanes(__m512i, __m512i);

    /// A predicate over [`Avx512Lanes`]: one k-mask per half.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512Mask(__mmask16, __mmask16);

    impl LaneVec for Avx512Lanes {
        type Mask = Avx512Mask;
        type Narrow = crate::lanes16::x86::Avx512Lanes16;

        #[inline(always)]
        fn splat(x: i32) -> Self {
            // SAFETY: AVX-512 body only (module docs, `SimdIsa::supported`).
            unsafe {
                let v = _mm512_set1_epi32(x);
                Avx512Lanes(v, v)
            }
        }
        #[inline(always)]
        fn load(a: &Lanes<i32>) -> Self {
            let p = a.as_ptr();
            // SAFETY: AVX-512 body only (module docs, `SimdIsa::supported`);
            // both unaligned loads read inside the 32-lane array.
            unsafe {
                Avx512Lanes(
                    _mm512_loadu_si512(p.cast()),
                    _mm512_loadu_si512(p.add(16).cast()),
                )
            }
        }
        #[inline(always)]
        fn to_array(self) -> Lanes<i32> {
            let mut out = [0i32; WARP_SIZE];
            let p = out.as_mut_ptr();
            // SAFETY: AVX-512 body only (module docs, `SimdIsa::supported`);
            // both unaligned stores write inside the 32-lane array.
            unsafe {
                _mm512_storeu_si512(p.cast(), self.0);
                _mm512_storeu_si512(p.add(16).cast(), self.1);
            }
            out
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: AVX-512 body only (module docs, `SimdIsa::supported`).
            unsafe { Avx512Lanes(_mm512_add_epi32(self.0, o.0), _mm512_add_epi32(self.1, o.1)) }
        }
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: AVX-512 body only (module docs, `SimdIsa::supported`).
            unsafe { Avx512Lanes(_mm512_max_epi32(self.0, o.0), _mm512_max_epi32(self.1, o.1)) }
        }
        #[inline(always)]
        fn ge(self, o: Self) -> Avx512Mask {
            // SAFETY: AVX-512 body only (module docs, `SimdIsa::supported`).
            unsafe {
                Avx512Mask(
                    _mm512_cmpge_epi32_mask(self.0, o.0),
                    _mm512_cmpge_epi32_mask(self.1, o.1),
                )
            }
        }
        #[inline(always)]
        fn gt(self, o: Self) -> Avx512Mask {
            // SAFETY: AVX-512 body only (module docs, `SimdIsa::supported`).
            unsafe {
                Avx512Mask(
                    _mm512_cmpgt_epi32_mask(self.0, o.0),
                    _mm512_cmpgt_epi32_mask(self.1, o.1),
                )
            }
        }
        #[inline(always)]
        fn select(m: Avx512Mask, a: Self, b: Self) -> Self {
            // SAFETY: AVX-512 body only (module docs, `SimdIsa::supported`).
            unsafe {
                Avx512Lanes(
                    _mm512_mask_blend_epi32(m.0, b.0, a.0),
                    _mm512_mask_blend_epi32(m.1, b.1, a.1),
                )
            }
        }
        #[inline(always)]
        fn shift_up1(self, fill: i32) -> Self {
            // `valignd` by 15 over (high:low) keeps the low operand's top
            // lane followed by the high operand's lanes 0..=14.
            // SAFETY: AVX-512 body only (module docs, `SimdIsa::supported`).
            unsafe {
                Avx512Lanes(
                    _mm512_alignr_epi32::<15>(self.0, _mm512_set1_epi32(fill)),
                    _mm512_alignr_epi32::<15>(self.1, self.0),
                )
            }
        }
        #[inline(always)]
        fn reduce_max(self) -> i32 {
            // SAFETY: AVX-512 body only (module docs, `SimdIsa::supported`).
            unsafe { _mm512_reduce_max_epi32(_mm512_max_epi32(self.0, self.1)) }
        }
        #[inline(always)]
        fn lane(self, l: usize) -> i32 {
            let (half, i) = if l < 16 {
                (self.0, l)
            } else {
                (self.1, l - 16)
            };
            // SAFETY: AVX-512 body only (module docs, `SimdIsa::supported`).
            unsafe {
                let v = _mm512_permutexvar_epi32(_mm512_set1_epi32(i as i32), half);
                _mm_cvtsi128_si32(_mm512_castsi512_si128(v))
            }
        }
        #[inline(always)]
        fn to_bytes(self) -> Lanes<u8> {
            let mut out = [0u8; WARP_SIZE];
            let p = out.as_mut_ptr();
            // `vpmovdb` truncates each lane to its low byte, as `as u8`.
            // SAFETY: AVX-512 body only (module docs, `SimdIsa::supported`);
            // both 16-byte stores write inside the 32-byte array.
            unsafe {
                _mm_storeu_si128(p.cast(), _mm512_cvtepi32_epi8(self.0));
                _mm_storeu_si128(p.add(16).cast(), _mm512_cvtepi32_epi8(self.1));
            }
            out
        }
        #[inline(always)]
        fn range_mask(lo: usize, hi: usize) -> Avx512Mask {
            let bits = lanes32::range_bits(lo, hi);
            Avx512Mask(bits as u16, (bits >> 16) as u16)
        }

        /// The whole table (entries 0–15, 16–31) plus each lane's table
        /// row: four registers, against ten for a five-row profile.
        type Subst = (Avx512Lanes, Avx512Lanes);
        #[inline(always)]
        fn subst_profile(table: &SubstTable, strip_target: &[u8]) -> Self::Subst {
            (
                Avx512Lanes::load(&table.0),
                Avx512Lanes::load(&SubstTable::rows(strip_target)),
            )
        }
        #[inline(always)]
        fn subst(profile: &Self::Subst, codes: Self) -> Self {
            let (table, rows) = *profile;
            let idx = rows.add(codes);
            // `vpermi2d` reads entry `idx & 31` of the 32-entry table the
            // two halves form; every index is below 25.
            // SAFETY: AVX-512 body only (module docs, `SimdIsa::supported`).
            unsafe {
                Avx512Lanes(
                    _mm512_permutex2var_epi32(table.0, idx.0, table.1),
                    _mm512_permutex2var_epi32(table.0, idx.1, table.1),
                )
            }
        }
    }

    impl LaneMask for Avx512Mask {
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            Avx512Mask(self.0 & o.0, self.1 & o.1)
        }
        #[inline(always)]
        fn bits(self) -> u32 {
            u32::from(self.0) | u32::from(self.1) << 16
        }
    }

    /// 32 lanes as four AVX2 vectors (lanes 0–7, 8–15, 16–23, 24–31).
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2Lanes([__m256i; 4]);

    /// A predicate over [`Avx2Lanes`]: `-1`/`0` lanes, as the AVX2
    /// compares produce them.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2Mask([__m256i; 4]);

    /// `[f(0), f(1), f(2), f(3)]`, one call per quarter. Written out
    /// rather than `array::map`, whose closure call is not forced inline:
    /// the closure must inline into the body's `#[target_feature]`
    /// context for its intrinsics to inline too.
    #[inline(always)]
    fn quarters<T>(f: impl Fn(usize) -> T) -> [T; 4] {
        [f(0), f(1), f(2), f(3)]
    }

    impl LaneVec for Avx2Lanes {
        type Mask = Avx2Mask;
        type Narrow = crate::lanes16::x86::Avx2Lanes16;

        #[inline(always)]
        fn splat(x: i32) -> Self {
            // SAFETY: AVX2 body or wider only (module docs, `SimdIsa::supported`).
            unsafe { Avx2Lanes([_mm256_set1_epi32(x); 4]) }
        }
        #[inline(always)]
        fn load(a: &Lanes<i32>) -> Self {
            let p = a.as_ptr();
            // SAFETY: AVX2 body or wider only (module docs,
            // `SimdIsa::supported`); the four unaligned loads read inside
            // the 32-lane array.
            Avx2Lanes(quarters(|k| unsafe {
                _mm256_loadu_si256(p.add(8 * k).cast())
            }))
        }
        #[inline(always)]
        fn to_array(self) -> Lanes<i32> {
            let mut out = [0i32; WARP_SIZE];
            let p = out.as_mut_ptr();
            for k in 0..4 {
                // SAFETY: AVX2 body or wider only (module docs,
                // `SimdIsa::supported`); the unaligned store writes
                // inside the 32-lane array.
                unsafe { _mm256_storeu_si256(p.add(8 * k).cast(), self.0[k]) };
            }
            out
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            let (a, b) = (self.0, o.0);
            // SAFETY: AVX2 body or wider only (module docs, `SimdIsa::supported`).
            Avx2Lanes(quarters(|k| unsafe { _mm256_add_epi32(a[k], b[k]) }))
        }
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            let (a, b) = (self.0, o.0);
            // SAFETY: AVX2 body or wider only (module docs, `SimdIsa::supported`).
            Avx2Lanes(quarters(|k| unsafe { _mm256_max_epi32(a[k], b[k]) }))
        }
        #[inline(always)]
        fn ge(self, o: Self) -> Avx2Mask {
            let (a, b) = (self.0, o.0);
            // `a >= b` iff `max(a, b) == a`.
            // SAFETY: AVX2 body or wider only (module docs, `SimdIsa::supported`).
            Avx2Mask(quarters(|k| unsafe {
                _mm256_cmpeq_epi32(_mm256_max_epi32(a[k], b[k]), a[k])
            }))
        }
        #[inline(always)]
        fn gt(self, o: Self) -> Avx2Mask {
            let (a, b) = (self.0, o.0);
            // SAFETY: AVX2 body or wider only (module docs, `SimdIsa::supported`).
            Avx2Mask(quarters(|k| unsafe { _mm256_cmpgt_epi32(a[k], b[k]) }))
        }
        #[inline(always)]
        fn select(m: Avx2Mask, a: Self, b: Self) -> Self {
            let (m, a, b) = (m.0, a.0, b.0);
            // SAFETY: AVX2 body or wider only (module docs, `SimdIsa::supported`).
            Avx2Lanes(quarters(|k| unsafe {
                _mm256_blendv_epi8(b[k], a[k], m[k])
            }))
        }
        #[inline(always)]
        fn shift_up1(self, fill: i32) -> Self {
            // Rotate each quarter up one lane, then replace its lane 0 with
            // the previous quarter's top lane (the rotated quarter's lane 0)
            // or, for the first quarter, with `fill`.
            let q = self.0;
            // SAFETY: AVX2 body or wider only (module docs, `SimdIsa::supported`).
            unsafe {
                let rot = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
                let r = quarters(|k| _mm256_permutevar8x32_epi32(q[k], rot));
                Avx2Lanes([
                    _mm256_blend_epi32::<1>(r[0], _mm256_set1_epi32(fill)),
                    _mm256_blend_epi32::<1>(r[1], r[0]),
                    _mm256_blend_epi32::<1>(r[2], r[1]),
                    _mm256_blend_epi32::<1>(r[3], r[2]),
                ])
            }
        }
        #[inline(always)]
        fn reduce_max(self) -> i32 {
            let q = self.0;
            // SAFETY: AVX2 body or wider only (module docs, `SimdIsa::supported`).
            unsafe {
                let m =
                    _mm256_max_epi32(_mm256_max_epi32(q[0], q[1]), _mm256_max_epi32(q[2], q[3]));
                let m = _mm_max_epi32(_mm256_castsi256_si128(m), _mm256_extracti128_si256::<1>(m));
                let m = _mm_max_epi32(m, _mm_shuffle_epi32::<0b01_00_11_10>(m));
                let m = _mm_max_epi32(m, _mm_shuffle_epi32::<0b10_11_00_01>(m));
                _mm_cvtsi128_si32(m)
            }
        }
        #[inline(always)]
        fn lane(self, l: usize) -> i32 {
            let q = self.0[l / 8];
            // SAFETY: AVX2 body or wider only (module docs, `SimdIsa::supported`).
            unsafe {
                let v = _mm256_permutevar8x32_epi32(q, _mm256_set1_epi32((l % 8) as i32));
                _mm256_cvtsi256_si32(v)
            }
        }
        #[inline(always)]
        fn to_bytes(self) -> Lanes<u8> {
            let mut out = [0u8; WARP_SIZE];
            let q = self.0;
            // Keep the low byte of each lane (`as u8`), so the unsigned
            // saturating packs below are exact; they interleave the
            // 128-bit halves, which the final lane permutation undoes.
            // SAFETY: AVX2 body or wider only (module docs,
            // `SimdIsa::supported`); the 32-byte store writes exactly the
            // array.
            unsafe {
                let low = _mm256_set1_epi32(0xFF);
                let q = quarters(|k| _mm256_and_si256(q[k], low));
                let bytes = _mm256_packus_epi16(
                    _mm256_packus_epi32(q[0], q[1]),
                    _mm256_packus_epi32(q[2], q[3]),
                );
                let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
                let bytes = _mm256_permutevar8x32_epi32(bytes, order);
                _mm256_storeu_si256(out.as_mut_ptr().cast(), bytes);
            }
            out
        }
        #[inline(always)]
        fn range_mask(lo: usize, hi: usize) -> Avx2Mask {
            // Lane `l` of quarter `k` tests bit `8k + l` of the ballot.
            let bits = lanes32::range_bits(lo, hi) as i32;
            // SAFETY: AVX2 body or wider only (module docs, `SimdIsa::supported`).
            unsafe {
                let b = _mm256_set1_epi32(bits);
                let lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
                Avx2Mask(quarters(|k| {
                    let sel = _mm256_sllv_epi32(lane_bit, _mm256_set1_epi32(8 * k as i32));
                    _mm256_cmpeq_epi32(_mm256_and_si256(b, sel), sel)
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

    impl LaneMask for Avx2Mask {
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            let (a, b) = (self.0, o.0);
            // SAFETY: AVX2 body or wider only (module docs, `SimdIsa::supported`).
            Avx2Mask(quarters(|k| unsafe { _mm256_and_si256(a[k], b[k]) }))
        }
        #[inline(always)]
        fn bits(self) -> u32 {
            let mut bits = 0u32;
            for k in 0..4 {
                // SAFETY: AVX2 body or wider only (module docs, `SimdIsa::supported`).
                let quarter = unsafe { _mm256_movemask_ps(_mm256_castsi256_ps(self.0[k])) };
                bits |= (quarter as u32) << (8 * k);
            }
            bits
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastz_align::ydrop::NEG_INF;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Every lane operation of `V`, checked against the portable
    /// lane type on the same random operands.
    struct OpsAgree(u64);

    impl IsaKernel for OpsAgree {
        type Output = ();

        #[inline(always)]
        fn run<V: LaneVec>(self) {
            let mut rng = SmallRng::seed_from_u64(self.0);
            let mut file = || -> Lanes<i32> {
                let mut v = [0i32; WARP_SIZE];
                for x in v.iter_mut() {
                    *x = match rng.gen_range(0u8..4) {
                        0 => rng.gen(),
                        1 => rng.gen_range(-3..3), // ties
                        _ => rng.gen_range(-20_000..20_000),
                    };
                }
                v
            };
            for _ in 0..200 {
                let (a, b, c) = (file(), file(), file());
                let (va, vb) = (V::load(&a), V::load(&b));
                assert_eq!(va.to_array(), a);
                assert_eq!(va.add(vb).to_array(), LaneVec::add(a, b));
                assert_eq!(va.max(vb).to_array(), LaneVec::max(a, b));
                let masks = [
                    (va.ge(vb), LaneVec::ge(a, b)),
                    (va.gt(vb), LaneVec::gt(a, b)),
                ];
                for (got, want) in masks {
                    assert_eq!(got.bits(), want.bits());
                    let sel = V::select(got, va, V::load(&c)).to_array();
                    assert_eq!(sel, <Lanes<i32>>::select(want, a, c));
                }
                let both = va.ge(vb).and(va.gt(V::load(&c)));
                assert_eq!(both.bits(), LaneVec::ge(a, b).and(LaneVec::gt(a, c)).bits());
                assert_eq!(va.shift_up1(c[0]).to_array(), LaneVec::shift_up1(a, c[0]));
                assert_eq!(va.reduce_max(), LaneVec::reduce_max(a));
                assert_eq!(va.to_bytes(), LaneVec::to_bytes(a));
                for (l, &x) in a.iter().enumerate() {
                    assert_eq!(va.lane(l), x, "lane {l}");
                }
            }
            for (lo, hi) in [(0, 31), (0, 0), (5, 11), (7, 8), (15, 16), (31, 31), (3, 2)] {
                let got = V::range_mask(lo, hi).bits();
                assert_eq!(got, lanes32::range_bits(lo, hi), "range {lo}..={hi}");
            }
            assert_eq!(V::splat(-7).to_array(), splat(-7));
        }
    }

    /// The 16-bit lane type of each level against the `i32` meaning of
    /// its ops on operands it represents (`NEG_INF` and every value
    /// above `i16::MIN`): exact, except that `add` saturates.
    struct NarrowOpsAgree(u64);

    impl IsaKernel for NarrowOpsAgree {
        type Output = ();

        #[inline(always)]
        fn run<W: LaneVec>(self) {
            type N<W> = <W as LaneVec>::Narrow;
            let mut rng = SmallRng::seed_from_u64(self.0);
            let mut file = || -> Lanes<i32> {
                let mut v = [0i32; WARP_SIZE];
                for x in v.iter_mut() {
                    *x = match rng.gen_range(0u8..5) {
                        0 => NEG_INF,
                        1 => rng.gen_range(-3..3), // ties
                        2 => rng.gen_range(32_000..=32_767),
                        _ => rng.gen_range(-32_767..=32_767),
                    };
                }
                v
            };
            let wide = |x: i32| x.clamp(-32_768, 32_767);
            let back = |x: i32| if x == -32_768 { NEG_INF } else { x };
            for _ in 0..200 {
                let (a, b, c) = (file(), file(), file());
                let (va, vb) = (N::<W>::load(&a), N::<W>::load(&b));
                assert_eq!(va.to_array(), a);
                let mut sum = [0i32; WARP_SIZE];
                for ((s, &x), &y) in sum.iter_mut().zip(&a).zip(&b) {
                    *s = back(wide(wide(x) + wide(y)));
                }
                assert_eq!(va.add(vb).to_array(), sum);
                assert_eq!(va.max(vb).to_array(), LaneVec::max(a, b));
                let masks = [
                    (va.ge(vb), LaneVec::ge(a, b)),
                    (va.gt(vb), LaneVec::gt(a, b)),
                ];
                for (got, want) in masks {
                    assert_eq!(got.bits(), want.bits());
                    let sel = N::<W>::select(got, va, N::<W>::load(&c)).to_array();
                    assert_eq!(sel, <Lanes<i32>>::select(want, a, c));
                }
                let both = va.ge(vb).and(va.gt(N::<W>::load(&c)));
                assert_eq!(both.bits(), LaneVec::ge(a, b).and(LaneVec::gt(a, c)).bits());
                assert_eq!(va.shift_up1(c[0]).to_array(), LaneVec::shift_up1(a, c[0]));
                assert_eq!(va.reduce_max(), LaneVec::reduce_max(a));
                assert_eq!(va.to_bytes(), LaneVec::to_bytes(a));
                for (l, &x) in a.iter().enumerate() {
                    assert_eq!(va.lane(l), x, "lane {l}");
                }
            }
            for (lo, hi) in [(0, 31), (0, 0), (5, 11), (7, 8), (15, 16), (31, 31), (3, 2)] {
                let got = N::<W>::range_mask(lo, hi).bits();
                assert_eq!(got, lanes32::range_bits(lo, hi), "range {lo}..={hi}");
            }
            // Narrowing saturates: out-of-range values clamp, and
            // everything at or below `i16::MIN` is the sentinel.
            let mut out_of_range = [40_000i32; WARP_SIZE];
            out_of_range[..8].fill(-40_000);
            out_of_range[8] = NEG_INF + 7;
            let mut want = [32_767i32; WARP_SIZE];
            want[..9].fill(NEG_INF);
            assert_eq!(N::<W>::load(&out_of_range).to_array(), want);
            assert_eq!(N::<W>::splat(-7).to_array(), splat(-7));
            assert_eq!(N::<W>::splat(NEG_INF - 30).to_array(), splat(NEG_INF));
            assert_eq!(N::<W>::splat(70_000).to_array(), splat(32_767));
        }
    }

    #[test]
    fn every_narrow_lane_type_matches_the_i32_ops() {
        for isa in SimdIsa::ALL.into_iter().filter(|isa| isa.supported()) {
            isa.run(NarrowOpsAgree(0x16B1));
        }
    }

    /// Every lane type's substitution lookup, 32- and 16-bit, checked
    /// against the matrix: an asymmetric one, so a transposed table
    /// shows.
    struct SubstAgrees(u64);

    impl IsaKernel for SubstAgrees {
        type Output = ();

        #[inline(always)]
        fn run<W: LaneVec>(self) {
            subst_agrees::<W>(self.0);
            subst_agrees::<W::Narrow>(self.0);
        }
    }

    #[inline(always)]
    fn subst_agrees<V: LaneVec>(seed: u64) {
        {
            let m = SubstMatrix::from_acgt(
                [
                    [12, -9, -3, -17],
                    [-6, 10, -14, -2],
                    [-1, -13, 11, -8],
                    [-15, -4, -7, 9],
                ],
                -40,
            );
            let table = SubstTable::new(&m);
            let mut rng = SmallRng::seed_from_u64(seed);
            for len in [1usize, 7, 31, 32] {
                let target: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=N_CODE)).collect();
                let profile = V::subst_profile(&table, &target);
                for _ in 0..20 {
                    let mut codes = [0i32; WARP_SIZE];
                    for c in codes.iter_mut() {
                        *c = rng.gen_range(0..=i32::from(N_CODE));
                    }
                    let got = V::subst(&profile, V::load(&codes)).to_array();
                    for (l, &t) in target.iter().enumerate() {
                        assert_eq!(got[l], m.score(t, codes[l] as u8), "len {len} lane {l}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_lane_type_looks_up_the_substitution_score() {
        for isa in SimdIsa::ALL.into_iter().filter(|isa| isa.supported()) {
            isa.run(SubstAgrees(5));
        }
    }

    #[test]
    fn every_lane_type_matches_the_portable_ops() {
        for isa in SimdIsa::ALL {
            if isa.supported() {
                isa.run(OpsAgree(0x1A7E));
            } else {
                eprintln!(
                    "lane ops: {} skipped (not supported on this CPU)",
                    isa.name()
                );
            }
        }
    }

    #[test]
    fn dispatch_picks_the_widest_supported_level() {
        let isa = SimdIsa::dispatched();
        assert!(isa.supported());
        let wider = SimdIsa::ALL.iter().skip_while(|&&l| l != isa).skip(1);
        for &level in wider {
            assert!(
                !level.supported(),
                "{} is supported but {} was chosen",
                level.name(),
                isa.name()
            );
        }
        assert_eq!(SimdIsa::dispatched(), isa, "the choice is cached");
    }
}
