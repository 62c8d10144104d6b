//! Shared-memory model: a capacity-checked per-block scratchpad.
//!
//! FastZ keeps two things in shared memory (paper §3.1.2-§3.1.3): the
//! 16×16 eager-traceback window, and cache-block-sized tiles that
//! aggregate executor traceback bytes before one coalesced global write.
//! The model enforces the capacity a real SM would and tracks the
//! high-water mark so occupancy can be computed from actual usage.

use crate::device::DeviceSpec;
use crate::sanitize::{SanitizeReport, Sanitizer, ShadowSanitizer};

/// A per-block shared-memory scratchpad.
///
/// An optional [`ShadowSanitizer`] can be attached; when absent (the
/// default), every access pays exactly one null check and nothing else,
/// and modeled GPU time is bit-identical either way — the sanitizer
/// never touches `WarpCounters`.
#[derive(Clone, Debug)]
pub struct SharedMem {
    data: Vec<u8>,
    high_water: usize,
    capacity: usize,
    sanitize: Option<Box<ShadowSanitizer>>,
}

impl SharedMem {
    /// Creates a scratchpad with `capacity` bytes.
    pub fn new(capacity: usize) -> SharedMem {
        SharedMem {
            data: Vec::new(),
            high_water: 0,
            capacity,
            sanitize: None,
        }
    }

    /// Creates a scratchpad with the device's per-SM shared capacity.
    ///
    /// This is the only correct way to size block scratch for a modeled
    /// kernel: hardcoding a byte count silently under-reports the RTX
    /// 3080's 128 KiB and silently over-allocates on a smaller part.
    pub fn for_device(device: &DeviceSpec) -> SharedMem {
        SharedMem::new(device.shared_kib_per_sm * 1024)
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Largest extent ever allocated.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Ensures at least `bytes` are addressable, zero-filling new space.
    ///
    /// # Panics
    /// Panics if the request exceeds capacity — the same failure mode as
    /// launching a CUDA kernel whose static shared allocation is too big.
    pub fn reserve(&mut self, bytes: usize) {
        assert!(
            bytes <= self.capacity,
            "shared memory request {bytes} B exceeds capacity {} B",
            self.capacity
        );
        if bytes > self.data.len() {
            self.data.resize(bytes, 0);
        }
        self.high_water = self.high_water.max(bytes);
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, offset: usize, value: u8) {
        self.reserve(offset + 1);
        if let Some(s) = &self.sanitize {
            s.on_write(offset, 1);
        }
        self.data[offset] = value;
    }

    /// Reads one byte (0 if never written).
    #[inline]
    pub fn read_u8(&self, offset: usize) -> u8 {
        if let Some(s) = &self.sanitize {
            s.on_read(offset, 1, self.data.len());
        }
        self.data.get(offset).copied().unwrap_or(0)
    }

    /// Writes a little-endian u32.
    pub fn write_u32(&mut self, offset: usize, value: u32) {
        self.reserve(offset + 4);
        if let Some(s) = &self.sanitize {
            s.on_write(offset, 4);
        }
        self.data[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Writes `words` as consecutive little-endian u64s from `offset`,
    /// with one reservation and one copy.
    ///
    /// An attached sanitizer sees each word as two 4-byte writes, low
    /// half first: the same accesses, in the same order, as a pair of
    /// [`SharedMem::write_u32`] calls per word.
    pub fn write_u64s(&mut self, offset: usize, words: &[u64]) {
        let end = offset + 8 * words.len();
        self.reserve(end);
        if let Some(s) = &self.sanitize {
            for w in 0..words.len() {
                s.on_write(offset + 8 * w, 4);
                s.on_write(offset + 8 * w + 4, 4);
            }
        }
        for (dst, w) in self.data[offset..end].chunks_exact_mut(8).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Reads a little-endian u32.
    ///
    /// Extent handling is explicit: a read fully inside the current
    /// reservation decodes the four stored bytes in one slice access; a
    /// read straddling or past the extent zero-extends the missing
    /// bytes. The zero-extension is the documented device model (shared
    /// memory is zero-filled at reservation), but it usually indicates
    /// a kernel bug — an attached sanitizer flags it as an
    /// out-of-reservation read.
    pub fn read_u32(&self, offset: usize) -> u32 {
        if let Some(s) = &self.sanitize {
            s.on_read(offset, 4, self.data.len());
        }
        self.load_u32(offset)
    }

    /// Reads a little-endian u64 as two u32 halves, low half first.
    ///
    /// An attached sanitizer sees the same two 4-byte reads, in the same
    /// order, as a pair of [`SharedMem::read_u32`] calls at `offset` and
    /// `offset + 4`, and the value is what those two calls return: a
    /// read straddling or past the extent zero-extends the same way.
    #[inline]
    pub fn read_u64(&self, offset: usize) -> u64 {
        let high_at = offset.saturating_add(4);
        if let Some(s) = &self.sanitize {
            s.on_read(offset, 4, self.data.len());
            s.on_read(high_at, 4, self.data.len());
        }
        match offset
            .checked_add(8)
            .and_then(|end| self.data.get(offset..end))
        {
            Some(bytes) => {
                let mut b = [0u8; 8];
                b.copy_from_slice(bytes);
                u64::from_le_bytes(b)
            }
            None => u64::from(self.load_u32(offset)) | (u64::from(self.load_u32(high_at)) << 32),
        }
    }

    /// [`SharedMem::read_u32`]'s value, without the sanitizer hook.
    fn load_u32(&self, offset: usize) -> u32 {
        match offset.checked_add(4) {
            Some(end) if end <= self.data.len() => {
                let mut b = [0u8; 4];
                b.copy_from_slice(&self.data[offset..end]);
                u32::from_le_bytes(b)
            }
            _ => {
                // Straddling / out-of-extent: decode what exists,
                // zero-extend the rest byte-by-byte.
                let mut b = [0u8; 4];
                for (k, slot) in b.iter_mut().enumerate() {
                    if let Some(&v) = offset.checked_add(k).and_then(|i| self.data.get(i)) {
                        *slot = v;
                    }
                }
                u32::from_le_bytes(b)
            }
        }
    }

    /// Clears contents (keeps capacity and the high-water mark).
    pub fn clear(&mut self) {
        if let Some(s) = &self.sanitize {
            s.on_clear();
        }
        self.data.clear();
    }

    /// Attaches a fresh [`ShadowSanitizer`]; subsequent accesses are
    /// checked. Replaces any previously attached sanitizer.
    pub fn attach_sanitizer(&mut self) {
        self.sanitize = Some(Box::new(ShadowSanitizer::new()));
    }

    /// The attached sanitizer, if any.
    #[must_use]
    pub fn sanitizer(&self) -> Option<&ShadowSanitizer> {
        self.sanitize.as_deref()
    }

    /// Sets pipeline-phase / problem provenance on the attached
    /// sanitizer (no-op when none is attached).
    pub fn sanitize_context(&self, phase: &'static str, problem: u64) {
        if let Some(s) = &self.sanitize {
            s.set_context(phase, problem);
        }
    }

    /// Sets the kernel stage used as the racecheck accessor identity
    /// (no-op when no sanitizer is attached).
    pub fn sanitize_stage(&self, stage: &'static str) {
        if let Some(s) = &self.sanitize {
            s.set_stage(stage);
        }
    }

    /// Records a synchronization barrier between kernel stages: accesses
    /// on opposite sides of a barrier never race (no-op when no
    /// sanitizer is attached).
    pub fn sanitize_barrier(&self) {
        if let Some(s) = &self.sanitize {
            s.barrier();
        }
    }

    /// Marks a warp-step boundary so the bank-conflict model groups the
    /// accesses of one step together (no-op when no sanitizer is
    /// attached).
    #[inline]
    pub fn sanitize_tick(&self) {
        if let Some(s) = &self.sanitize {
            s.tick();
        }
    }

    /// Drains the attached sanitizer's accumulated report, or `None`
    /// when no sanitizer is attached.
    pub fn take_sanitize_report(&mut self) -> Option<SanitizeReport> {
        self.sanitize.as_ref().map(|s| s.take_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut sm = SharedMem::new(1024);
        sm.write_u8(0, 0xAB);
        sm.write_u8(100, 7);
        assert_eq!(sm.read_u8(0), 0xAB);
        assert_eq!(sm.read_u8(100), 7);
        assert_eq!(sm.read_u8(500), 0);
        sm.write_u32(200, 0xDEADBEEF);
        assert_eq!(sm.read_u32(200), 0xDEADBEEF);
    }

    #[test]
    fn high_water_tracks_max_extent() {
        let mut sm = SharedMem::new(1024);
        sm.write_u8(511, 1);
        sm.write_u8(3, 1);
        assert_eq!(sm.high_water(), 512);
        sm.clear();
        assert_eq!(sm.high_water(), 512);
        assert_eq!(sm.read_u8(511), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn over_capacity_panics() {
        let mut sm = SharedMem::new(256);
        sm.write_u8(256, 1);
    }

    #[test]
    fn capacity_follows_the_device_spec() {
        // Regression: the pipeline used to hardcode 96 KiB; the modeled
        // RTX 3080 actually has 128 KiB per SM.
        let ampere = SharedMem::for_device(&DeviceSpec::rtx3080_ampere());
        assert_eq!(ampere.capacity(), 128 * 1024);
        let pascal = SharedMem::for_device(&DeviceSpec::titan_x_pascal());
        assert_eq!(pascal.capacity(), 96 * 1024);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn small_device_rejects_legacy_96kib_assumption() {
        // A hypothetical 48 KiB part must reject a reservation sized to
        // the old hardcoded 96 KiB assumption instead of silently
        // succeeding.
        let small = DeviceSpec {
            shared_kib_per_sm: 48,
            ..DeviceSpec::rtx3080_ampere()
        };
        let mut sm = SharedMem::for_device(&small);
        assert_eq!(sm.capacity(), 48 * 1024);
        sm.reserve(96 * 1024);
    }

    #[test]
    fn read_u32_extent_handling_is_explicit() {
        // Regression: read_u32 used to compose bytes via the
        // OOB-tolerant read_u8, silently zero-extending straddles with
        // no way to tell a partial read from stored zeros.
        let mut sm = SharedMem::new(1024);
        sm.write_u8(0, 0x11);
        sm.write_u8(1, 0x22);
        // Extent is 2: bytes 2..4 zero-extend.
        assert_eq!(sm.read_u32(0), 0x0000_2211);
        // Fully out-of-extent read is all zeros.
        assert_eq!(sm.read_u32(512), 0);
        // Fully in-extent read takes the slice fast path.
        sm.write_u32(4, 0xDEAD_BEEF);
        assert_eq!(sm.read_u32(4), 0xDEAD_BEEF);
        // Near-usize::MAX offsets must not overflow the extent check.
        assert_eq!(sm.read_u32(usize::MAX - 2), 0);
    }

    #[test]
    fn sanitizer_flags_straddling_u32_read() {
        use crate::sanitize::FindingKind;
        let mut sm = SharedMem::new(1024);
        sm.attach_sanitizer();
        sm.sanitize_context("inspector", 3);
        sm.write_u8(0, 0x11);
        sm.write_u8(1, 0x22);
        assert_eq!(sm.read_u32(0), 0x0000_2211);
        let report = sm.take_sanitize_report().expect("sanitizer attached");
        assert_eq!(report.count(FindingKind::OobRead), 1);
        let f = &report.findings[0];
        assert_eq!(f.offset, 0);
        assert_eq!(f.phase, "inspector");
        assert_eq!(f.problem, 3);
    }

    #[test]
    fn sanitized_write_past_capacity_fails_before_the_hook() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        type Write = fn(&mut SharedMem);
        let writes: [Write; 3] = [
            |sm| sm.write_u8(64, 1),
            |sm| sm.write_u32(61, 1),
            |sm| sm.write_u64s(56, &[1, 2]),
        ];
        for write in writes {
            let mut sm = SharedMem::new(64);
            sm.attach_sanitizer();
            sm.write_u32(0, 7);
            let err = catch_unwind(AssertUnwindSafe(|| write(&mut sm)))
                .expect_err("a write past capacity must panic");
            let msg = err.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("exceeds capacity 64 B"), "{msg}");
            let report = sm.take_sanitize_report().expect("sanitizer attached");
            assert_eq!(report.shared_writes, 1, "the failed write reached the hook");
        }
    }

    #[test]
    fn unattached_scratchpad_reports_nothing() {
        let mut sm = SharedMem::new(1024);
        sm.write_u8(0, 1);
        let _ = sm.read_u8(500);
        assert!(sm.take_sanitize_report().is_none());
        assert!(sm.sanitizer().is_none());
    }

    #[test]
    fn cloned_scratchpad_starts_with_a_fresh_sanitizer() {
        let mut sm = SharedMem::new(1024);
        sm.attach_sanitizer();
        let _ = sm.read_u8(7); // uninit read recorded on the original
        let mut copy = sm.clone();
        let report = copy.take_sanitize_report().expect("attachment is cloned");
        assert!(
            report.is_clean(),
            "shadow history must not leak into clones"
        );
    }

    /// Stores `rows` on a sanitized scratchpad, in bulk or as one
    /// `write_u32` per 4-byte half, calling `between` after each row,
    /// and returns the sanitizer's report.
    fn sanitized_store(
        rows: &[(usize, Vec<u64>)],
        bulk: bool,
        between: impl Fn(&mut SharedMem),
    ) -> SanitizeReport {
        let mut sm = SharedMem::new(4096);
        sm.attach_sanitizer();
        sm.sanitize_context("bitvector", 1);
        sm.sanitize_stage("store");
        for (offset, words) in rows {
            if bulk {
                sm.write_u64s(*offset, words);
            } else {
                for (w, &v) in words.iter().enumerate() {
                    sm.write_u32(offset + 8 * w, v as u32);
                    sm.write_u32(offset + 8 * w + 4, (v >> 32) as u32);
                }
            }
            sm.sanitize_tick();
            between(&mut sm);
        }
        sm.take_sanitize_report().expect("sanitizer attached")
    }

    #[test]
    fn bulk_u64_store_matches_paired_u32_writes_under_the_sanitizer() {
        use crate::sanitize::FindingKind;
        // Strided rows, rows sharing banks, and an empty store.
        let rows = vec![
            (0, vec![1, 2, 3]),
            (256, (0..32).map(|w| w * 0x0101_0101_0101).collect()),
            (64, vec![]),
            (1024, vec![u64::MAX; 5]),
        ];
        let bulk = sanitized_store(&rows, true, |_| {});
        assert_eq!(bulk, sanitized_store(&rows, false, |_| {}));
        assert!(bulk.is_clean());
        assert_eq!(bulk.shared_writes, 2 * (3 + 32 + 5));

        // WAR hazard: another stage reads a stored row, and the store
        // stage overwrites it with no barrier in between.
        let again = vec![(0, vec![7, 8]), (0, vec![9, 10])];
        let read_back = |sm: &mut SharedMem| {
            sm.sanitize_stage("walk");
            let _ = sm.read_u32(4);
            sm.sanitize_stage("store");
        };
        let bulk = sanitized_store(&again, true, read_back);
        assert_eq!(bulk, sanitized_store(&again, false, read_back));
        assert_eq!(bulk.count(FindingKind::WarHazard), 4);
        assert_eq!(bulk.findings[0].offset, 4);
    }

    #[test]
    fn bulk_u64_store_round_trips_through_u32_reads() {
        let mut sm = SharedMem::new(1024);
        let words = [0x0123_4567_89AB_CDEF, 0, u64::MAX, 1 << 63];
        sm.write_u64s(40, &words);
        assert_eq!(sm.high_water(), 40 + 8 * words.len());
        for (w, &v) in words.iter().enumerate() {
            assert_eq!(sm.read_u32(40 + 8 * w), v as u32);
            assert_eq!(sm.read_u32(40 + 8 * w + 4), (v >> 32) as u32);
        }
        assert_eq!(sm.read_u32(36), 0, "bytes before the store stay zero");
    }

    #[test]
    fn u64_reads_match_two_u32_reads_with_and_without_a_sanitizer() {
        // Two stored words, then a half word: the reserved extent is 20
        // bytes, so the read at 16 straddles it and later ones lie past.
        let stored = |sanitized: bool| {
            let mut sm = SharedMem::new(1024);
            if sanitized {
                sm.attach_sanitizer();
                sm.sanitize_context("bitvector", 2);
            }
            sm.write_u64s(0, &[0x0123_4567_89AB_CDEF, u64::MAX]);
            sm.write_u32(16, 0xDEAD_BEEF);
            sm
        };
        for sanitized in [false, true] {
            let (mut pair, mut wide) = (stored(sanitized), stored(sanitized));
            for at in [0, 8, 4, 12, 16, 18, 20, 64] {
                let want = u64::from(pair.read_u32(at))
                    | (u64::from(pair.read_u32(at.saturating_add(4))) << 32);
                assert_eq!(wide.read_u64(at), want, "offset {at}");
                pair.sanitize_tick();
                wide.sanitize_tick();
            }
            let report = wide.take_sanitize_report();
            assert_eq!(pair.take_sanitize_report(), report);
            if let Some(r) = report {
                assert!(r.count(crate::sanitize::FindingKind::OobRead) > 0);
            }
        }
        let plain = stored(false);
        assert_eq!(plain.read_u64(0), 0x0123_4567_89AB_CDEF);
        assert_eq!(plain.read_u64(16), 0xDEAD_BEEF, "straddles the extent");
        // Near `usize::MAX` the high half's offset saturates instead of
        // overflowing (unsanitized: the shadow map indexes offsets).
        assert_eq!(plain.read_u64(usize::MAX - 5), 0);
        assert_eq!(plain.read_u64(usize::MAX), 0);
        // Sanitized, the same reads still return 0 and are recorded as
        // out-of-reservation reads: one per 4-byte half.
        let oob = |mut sm: SharedMem| {
            let r = sm.take_sanitize_report().expect("sanitizer attached");
            r.count(crate::sanitize::FindingKind::OobRead)
        };
        let sanitized = stored(true);
        assert_eq!(sanitized.read_u32(usize::MAX - 2), 0);
        assert_eq!(oob(sanitized), 1);
        let sanitized = stored(true);
        assert_eq!(sanitized.read_u64(usize::MAX - 5), 0);
        assert_eq!(oob(sanitized), 2);
    }

    #[test]
    fn eager_traceback_window_fits() {
        // The paper's 16×16 eager-traceback window: 256 bytes, far under
        // any SM's shared capacity.
        let mut sm = SharedMem::new(96 * 1024);
        for i in 0..256 {
            sm.write_u8(i, i as u8);
        }
        assert_eq!(sm.high_water(), 256);
    }
}
