//! Persistent, sharded seed index: build once per `(genome, shape)`,
//! share across requests and devices.
//!
//! At service scale the per-run k-mer index rebuild is the tall pole of
//! stage 1 (ROADMAP item 4): every request against the same target genome
//! re-pays the full two-pass counting build. This module makes the index
//! a durable artifact instead:
//!
//! - **Sharding by target interval.** The target's window positions are
//!   split into `n_shards` contiguous intervals; each shard is an
//!   independent bucket table + flat entries array
//!   ([`SeedIndex::try_build_interval`]), so shards build, load and
//!   validate independently. Because every bucket stores positions in ascending
//!   order and shards partition the position space in order,
//!   concatenating shard lookups yields *exactly* the sequence the
//!   whole-target index yields — bit-identical anchors, drilled by the
//!   conformance `--index persist` mode.
//! - **Versioned, checksummed on-disk format.** A little-endian layout
//!   (magic, format version, genome id, shape pattern, target length,
//!   per-shard tables) sealed by an FNV-1a checksum over every preceding
//!   byte. Loads validate magic, version, structure, and checksum and
//!   reject corrupt / truncated / version-skewed files with structured
//!   errors, mirroring the checkpoint trailer discipline.
//! - **Crash-consistent save.** Same-directory temp file + fsync +
//!   atomic rename, exactly like `Checkpoint::save`: a crash leaves the
//!   old artifact or the new one, never a torn file.
//! - **Identity fingerprint.** [`ShardedSeedIndex::fingerprint`] digests
//!   the artifact (version + content checksum); the pipeline folds it
//!   into the checkpoint fingerprint so a resume can never silently
//!   cross index versions.

use crate::anchor::AnchorSource;
use crate::index::{IndexBuildError, SeedIndex};
use crate::shape::SeedShape;
use fastz_genome::{fnv1a, Sequence, FNV1A_BASIS};
use std::io::Write;
use std::path::{Path, PathBuf};

/// On-disk format magic (8 bytes).
pub const INDEX_MAGIC: &[u8; 8] = b"FZSIDX\0\0";

/// Current on-disk format version. Bump on any layout change; loads
/// reject other versions with [`PersistError::VersionSkew`].
pub const INDEX_FORMAT_VERSION: u32 = 1;

/// Structured failure from the persist layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// Underlying filesystem error (message includes the path).
    Io(String),
    /// The file does not start with [`INDEX_MAGIC`].
    BadMagic,
    /// The file's format version differs from this build's.
    VersionSkew {
        /// Version found in the file.
        found: u32,
        /// Version this build reads/writes.
        expected: u32,
    },
    /// The file ends before the declared content does.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The sealed checksum does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the content.
        computed: u64,
    },
    /// Structurally invalid content (message says what).
    Malformed(String),
    /// The underlying index build failed (over-limit target).
    Build(IndexBuildError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(m) => write!(f, "index io error: {m}"),
            PersistError::BadMagic => write!(f, "not a fastz seed index (bad magic)"),
            PersistError::VersionSkew { found, expected } => {
                write!(
                    f,
                    "index format version {found}, this build reads {expected}"
                )
            }
            PersistError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated index file: needed {needed} bytes, have {have}"
                )
            }
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "index checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            PersistError::Malformed(m) => write!(f, "malformed index file: {m}"),
            PersistError::Build(e) => write!(f, "index build failed: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<IndexBuildError> for PersistError {
    fn from(e: IndexBuildError) -> Self {
        PersistError::Build(e)
    }
}

/// Where a [`ShardedSeedIndex`] came from — the cache/bench layers count
/// these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexOrigin {
    /// Validated and loaded from an existing artifact on disk.
    LoadedFromDisk,
    /// Built from the sequence (and saved, when a directory was given).
    Built,
}

/// A persistent, shard-by-target-interval seed index.
pub struct ShardedSeedIndex {
    shape: SeedShape,
    genome_id: String,
    target_len: usize,
    /// Window-position interval `[lo, hi)` each shard covers, in order.
    bounds: Vec<(u64, u64)>,
    shards: Vec<SeedIndex>,
    /// FNV-1a over the serialized content (everything before the
    /// trailer) — the artifact's identity.
    checksum: u64,
}

impl ShardedSeedIndex {
    /// Builds a sharded index over `target`, splitting its seed windows
    /// into `n_shards` contiguous intervals (clamped to at least 1).
    pub fn build(
        target: &Sequence,
        shape: SeedShape,
        n_shards: usize,
    ) -> Result<ShardedSeedIndex, IndexBuildError> {
        let n_shards = n_shards.max(1);
        let n_windows = target
            .codes()
            .len()
            .saturating_sub(shape.span().saturating_sub(1));
        let per = n_windows.div_ceil(n_shards).max(1);
        let mut bounds = Vec::with_capacity(n_shards);
        let mut shards = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let lo = (s * per).min(n_windows);
            let hi = ((s + 1) * per).min(n_windows);
            bounds.push((lo as u64, hi as u64));
            shards.push(SeedIndex::try_build_interval(
                target,
                shape.clone(),
                lo,
                hi,
            )?);
        }
        let mut idx = ShardedSeedIndex {
            shape,
            genome_id: target.name().to_string(),
            target_len: target.len(),
            bounds,
            shards,
            checksum: 0,
        };
        idx.checksum = fnv1a(FNV1A_BASIS, &idx.content_bytes());
        Ok(idx)
    }

    /// The seed shape.
    pub fn shape(&self) -> &SeedShape {
        &self.shape
    }

    /// The indexed genome's id (sequence name).
    pub fn genome_id(&self) -> &str {
        &self.genome_id
    }

    /// Length of the indexed target in bp.
    pub fn target_len(&self) -> usize {
        self.target_len
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total indexed windows across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True if no windows were indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident heap bytes across all shards.
    pub fn heap_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.heap_bytes()).sum()
    }

    /// The artifact's content checksum (FNV-1a over the serialized
    /// content, excluding the trailer itself).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// A nonzero identity fingerprint for checkpoint binding: digests
    /// the format version and content checksum, so any rebuild against
    /// different content or a format bump changes it.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(20);
        bytes.extend_from_slice(INDEX_MAGIC);
        bytes.extend_from_slice(&INDEX_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&self.checksum.to_le_bytes());
        let fp = fnv1a(FNV1A_BASIS, &bytes);
        if fp == 0 {
            1
        } else {
            fp
        }
    }

    /// All target positions whose seed word equals `word`, concatenated
    /// across shards in shard order. Because buckets store ascending
    /// positions and shards partition the position space in order, the
    /// result is ascending — the exact sequence the whole-target
    /// [`SeedIndex::lookup`] yields.
    pub fn lookup<'a>(&'a self, word: u64) -> impl Iterator<Item = u32> + 'a {
        self.shards.iter().flat_map(move |s| s.lookup(word))
    }

    // ---- serialization -------------------------------------------------

    /// Serializes the content (everything before the checksum trailer).
    fn content_bytes(&self) -> Vec<u8> {
        // Exhaustiveness witness: every field is either serialized here
        // (and thereby covered by the checksum the fingerprint digests)
        // or explicitly waived — adding a field without deciding its
        // identity fate fails the build.
        // fastz-lint: fingerprint(ShardedSeedIndex)
        let ShardedSeedIndex {
            shape,
            genome_id,
            target_len,
            bounds,
            shards,
            checksum: _, // not fingerprinted: the checksum seals these bytes — folding it into itself would be circular
        } = self;
        let mut out = Vec::with_capacity(64 + self.len() * 12);
        out.extend_from_slice(INDEX_MAGIC);
        out.extend_from_slice(&INDEX_FORMAT_VERSION.to_le_bytes());
        let id = genome_id.as_bytes();
        out.extend_from_slice(&(id.len() as u32).to_le_bytes());
        out.extend_from_slice(id);
        let pat = shape.pattern_string();
        out.extend_from_slice(&(pat.len() as u32).to_le_bytes());
        out.extend_from_slice(pat.as_bytes());
        out.extend_from_slice(&(*target_len as u64).to_le_bytes());
        out.extend_from_slice(&(shards.len() as u32).to_le_bytes());
        for (s, shard) in shards.iter().enumerate() {
            let (lo, hi) = bounds[s];
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
            out.extend_from_slice(&shard.shift().to_le_bytes());
            let starts = shard.bucket_starts();
            out.extend_from_slice(&(starts.len() as u64).to_le_bytes());
            for &v in starts {
                out.extend_from_slice(&v.to_le_bytes());
            }
            let entries = shard.entries();
            out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
            for &(word, pos) in entries {
                out.extend_from_slice(&word.to_le_bytes());
                out.extend_from_slice(&pos.to_le_bytes());
            }
        }
        out
    }

    /// Serializes the whole artifact (content + checksum trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.content_bytes();
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Deserializes and fully validates an artifact: magic, version,
    /// structure, and the sealed checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardedSeedIndex, PersistError> {
        let mut r = Reader { bytes, at: 0 };
        let magic = r.take(8)?;
        if magic != INDEX_MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = r.u32()?;
        if version != INDEX_FORMAT_VERSION {
            return Err(PersistError::VersionSkew {
                found: version,
                expected: INDEX_FORMAT_VERSION,
            });
        }
        let id_len = r.u32()? as usize;
        let genome_id = String::from_utf8(r.take(id_len)?.to_vec())
            .map_err(|_| PersistError::Malformed("genome id is not UTF-8".into()))?;
        let pat_len = r.u32()? as usize;
        let pattern = String::from_utf8(r.take(pat_len)?.to_vec())
            .map_err(|_| PersistError::Malformed("shape pattern is not UTF-8".into()))?;
        let shape = parse_pattern(&pattern)?;
        let target_len = r.u64()? as usize;
        let n_shards = r.u32()? as usize;
        if n_shards == 0 || n_shards > 1 << 20 {
            return Err(PersistError::Malformed(format!(
                "implausible shard count {n_shards}"
            )));
        }
        let mut bounds = Vec::with_capacity(n_shards);
        let mut shards = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let lo = r.u64()?;
            let hi = r.u64()?;
            if lo > hi || hi > target_len as u64 {
                return Err(PersistError::Malformed(format!(
                    "shard {s} bounds [{lo}, {hi}) exceed target of {target_len} bp"
                )));
            }
            let shift = r.u32()?;
            let n_starts = r.u64()? as usize;
            if n_starts < 2 || !(n_starts - 1).is_power_of_two() {
                return Err(PersistError::Malformed(format!(
                    "shard {s} bucket table of {n_starts} slots is not 2^k+1"
                )));
            }
            if shift != 64 - (n_starts - 1).trailing_zeros() {
                return Err(PersistError::Malformed(format!(
                    "shard {s} hash shift {shift} disagrees with its table size"
                )));
            }
            let mut starts = Vec::with_capacity(n_starts);
            for _ in 0..n_starts {
                starts.push(r.u32()?);
            }
            let n_entries = r.u64()? as usize;
            if starts[0] != 0
                || starts[n_starts - 1] as usize != n_entries
                || starts.windows(2).any(|w| w[0] > w[1])
            {
                return Err(PersistError::Malformed(format!(
                    "shard {s} bucket starts are not a monotone prefix over {n_entries} entries"
                )));
            }
            let mut entries = Vec::with_capacity(n_entries);
            for _ in 0..n_entries {
                let word = r.u64()?;
                let pos = r.u32()?;
                if (pos as u64) < lo || (pos as u64) >= hi {
                    return Err(PersistError::Malformed(format!(
                        "shard {s} entry position {pos} outside its [{lo}, {hi}) interval"
                    )));
                }
                entries.push((word, pos));
            }
            bounds.push((lo, hi));
            shards.push(SeedIndex::from_parts(
                shape.clone(),
                shift,
                starts,
                entries,
                target_len,
            ));
        }
        let content_len = r.at;
        let stored = r.u64()?;
        if r.at != bytes.len() {
            return Err(PersistError::Malformed(format!(
                "{} trailing bytes after the checksum",
                bytes.len() - r.at
            )));
        }
        let computed = fnv1a(FNV1A_BASIS, &bytes[..content_len]);
        if stored != computed {
            return Err(PersistError::ChecksumMismatch { stored, computed });
        }
        Ok(ShardedSeedIndex {
            shape,
            genome_id,
            target_len,
            bounds,
            shards,
            checksum: stored,
        })
    }

    /// Writes the artifact crash-consistently: same-directory temp file,
    /// fsync, atomic rename — a crash leaves the old artifact or the new
    /// one, never a torn file (the `Checkpoint::save` discipline).
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        let err = |e: std::io::Error| PersistError::Io(format!("{}: {e}", path.display()));
        let mut name = path
            .file_name()
            .ok_or_else(|| PersistError::Io(format!("{}: no file name", path.display())))?
            .to_os_string();
        name.push(".tmp");
        let tmp = path.with_file_name(name);
        {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp).map_err(err)?);
            f.write_all(&self.to_bytes()).map_err(err)?;
            f.flush().map_err(err)?;
            f.get_ref().sync_all().map_err(err)?;
        }
        std::fs::rename(&tmp, path).map_err(err)
    }

    /// Loads and validates an artifact; `Ok(None)` when the file does
    /// not exist.
    pub fn load(path: &Path) -> Result<Option<ShardedSeedIndex>, PersistError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(PersistError::Io(format!("{}: {e}", path.display()))),
        };
        ShardedSeedIndex::from_bytes(&bytes).map(Some)
    }

    /// The artifact file name for `(genome id, shape, shard count)` —
    /// the cache key rendered as a filesystem-safe name.
    pub fn artifact_name(genome_id: &str, shape: &SeedShape, n_shards: usize) -> String {
        let pat = shape.pattern_string();
        let key = format!("{genome_id}\u{1f}{pat}\u{1f}{n_shards}");
        format!(
            "idx-{:016x}-{}of{}-s{}.fzsidx",
            fnv1a(FNV1A_BASIS, key.as_bytes()),
            shape.weight(),
            shape.span(),
            n_shards.max(1),
        )
    }

    /// The warm path: load a matching artifact from `dir` if one exists
    /// and validates, otherwise build from `target` and save it. Returns
    /// the index and where it came from. A stale artifact (same name,
    /// different genome id / shape / target length) is rebuilt and
    /// replaced; a corrupt or version-skewed one is an error so callers
    /// surface it rather than silently rebuilding over evidence.
    pub fn load_or_build(
        dir: &Path,
        target: &Sequence,
        shape: SeedShape,
        n_shards: usize,
    ) -> Result<(ShardedSeedIndex, IndexOrigin), PersistError> {
        let n_shards = n_shards.max(1);
        let path = dir.join(ShardedSeedIndex::artifact_name(
            target.name(),
            &shape,
            n_shards,
        ));
        match ShardedSeedIndex::load(&path)? {
            Some(idx)
                if idx.genome_id == target.name()
                    && idx.shape == shape
                    && idx.target_len == target.len()
                    && idx.n_shards() == n_shards =>
            {
                return Ok((idx, IndexOrigin::LoadedFromDisk));
            }
            _ => {}
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| PersistError::Io(format!("{}: {e}", dir.display())))?;
        let idx = ShardedSeedIndex::build(target, shape, n_shards)?;
        idx.save(&path)?;
        Ok((idx, IndexOrigin::Built))
    }

    /// The artifact path `load_or_build` uses under `dir` for `target`.
    pub fn artifact_path(
        dir: &Path,
        target: &Sequence,
        shape: &SeedShape,
        n_shards: usize,
    ) -> PathBuf {
        dir.join(ShardedSeedIndex::artifact_name(
            target.name(),
            shape,
            n_shards.max(1),
        ))
    }
}

impl std::fmt::Debug for ShardedSeedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSeedIndex")
            .field("genome_id", &self.genome_id)
            .field("pattern", &self.shape.pattern_string())
            .field("target_len", &self.target_len)
            .field("n_shards", &self.shards.len())
            .field("entries", &self.len())
            .field("checksum", &format_args!("{:016x}", self.checksum))
            .finish()
    }
}

impl AnchorSource for ShardedSeedIndex {
    fn source_shape(&self) -> &SeedShape {
        &self.shape
    }

    fn positions_into(&self, word: u64, out: &mut Vec<u32>) {
        out.extend(self.lookup(word));
    }
}

/// Validates a pattern string from an untrusted file (the panicking
/// [`SeedShape::from_pattern`] is for trusted literals).
fn parse_pattern(pattern: &str) -> Result<SeedShape, PersistError> {
    let bad = |m: String| PersistError::Malformed(m);
    if pattern.is_empty() {
        return Err(bad("empty shape pattern".into()));
    }
    if !pattern.chars().all(|c| c == '0' || c == '1') {
        return Err(bad(format!(
            "shape pattern {pattern:?} has non-binary characters"
        )));
    }
    if !pattern.starts_with('1') || !pattern.ends_with('1') {
        return Err(bad(format!("shape pattern {pattern:?} has wildcard ends")));
    }
    let weight = pattern.chars().filter(|&c| c == '1').count();
    if weight > 31 {
        return Err(bad(format!(
            "shape pattern has {weight} care positions (max 31)"
        )));
    }
    Ok(SeedShape::from_pattern(pattern))
}

/// Little-endian bounds-checked reader over a byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.bytes.len() - self.at < n {
            return Err(PersistError::Truncated {
                needed: n,
                have: self.bytes.len() - self.at,
            });
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::SeedIndex;
    use fastz_genome::evolve::random_sequence;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fastz-seed-persist-{tag}"));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn sharded_lookup_matches_whole_index_bit_for_bit() {
        let t = random_sequence("genome-a", 6_000, 0.5, 11);
        let shape = SeedShape::lastz_12of19();
        let whole = SeedIndex::build(&t, shape.clone());
        for n_shards in [1usize, 2, 3, 7, 16] {
            let sharded = ShardedSeedIndex::build(&t, shape.clone(), n_shards).unwrap();
            assert_eq!(sharded.n_shards(), n_shards);
            assert_eq!(sharded.len(), whole.len());
            for probe in (0..t.len() - shape.span() + 1).step_by(13) {
                let Some(word) = shape.word_at(t.codes(), probe) else {
                    continue;
                };
                // Exact sequence equality, not just set equality: the
                // anchor enumeration consumes positions in this order.
                let a: Vec<u32> = whole.lookup(word).collect();
                let b: Vec<u32> = sharded.lookup(word).collect();
                assert_eq!(a, b, "{n_shards} shards, probe {probe}");
            }
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = random_sequence("genome-b", 3_000, 0.5, 23);
        let idx = ShardedSeedIndex::build(&t, SeedShape::exact(10), 4).unwrap();
        let re = ShardedSeedIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(re.genome_id(), "genome-b");
        assert_eq!(re.target_len(), t.len());
        assert_eq!(re.n_shards(), 4);
        assert_eq!(re.checksum(), idx.checksum());
        assert_eq!(re.fingerprint(), idx.fingerprint());
        assert_eq!(re.len(), idx.len());
        for probe in 0..50 {
            let Some(word) = idx.shape().word_at(t.codes(), probe) else {
                continue;
            };
            let a: Vec<u32> = idx.lookup(word).collect();
            let b: Vec<u32> = re.lookup(word).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn corrupt_truncated_and_skewed_files_are_rejected() {
        let t = random_sequence("genome-c", 1_200, 0.5, 31);
        let idx = ShardedSeedIndex::build(&t, SeedShape::exact(8), 2).unwrap();
        let bytes = idx.to_bytes();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            ShardedSeedIndex::from_bytes(&bad).unwrap_err(),
            PersistError::BadMagic
        );

        // Version skew.
        let mut skew = bytes.clone();
        skew[8..12].copy_from_slice(&(INDEX_FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(
            ShardedSeedIndex::from_bytes(&skew).unwrap_err(),
            PersistError::VersionSkew {
                found: INDEX_FORMAT_VERSION + 1,
                expected: INDEX_FORMAT_VERSION
            }
        );

        // Truncation at every suffix boundary class: drop the trailer,
        // drop into the entries, drop into the header.
        for cut in [8, bytes.len() / 2, bytes.len() - 3] {
            let err = ShardedSeedIndex::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, PersistError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }

        // A flipped content byte must trip the checksum (or a structural
        // check, whichever sees it first).
        let mut flipped = bytes.clone();
        let mid = bytes.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(ShardedSeedIndex::from_bytes(&flipped).is_err());

        // A flipped trailer byte is always a checksum mismatch.
        let mut trailer = bytes.clone();
        let last = bytes.len() - 1;
        trailer[last] ^= 0x01;
        assert!(matches!(
            ShardedSeedIndex::from_bytes(&trailer).unwrap_err(),
            PersistError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn save_is_atomic_and_load_or_build_goes_warm() {
        let dir = tmpdir("warm");
        let t = random_sequence("genome-d", 2_000, 0.5, 47);
        let shape = SeedShape::lastz_12of19();
        let (built, o1) = ShardedSeedIndex::load_or_build(&dir, &t, shape.clone(), 3).unwrap();
        assert_eq!(o1, IndexOrigin::Built);
        let path = ShardedSeedIndex::artifact_path(&dir, &t, &shape, 3);
        assert!(path.exists());
        assert!(!path.with_extension("fzsidx.tmp").exists());
        let (loaded, o2) = ShardedSeedIndex::load_or_build(&dir, &t, shape.clone(), 3).unwrap();
        assert_eq!(o2, IndexOrigin::LoadedFromDisk);
        assert_eq!(loaded.checksum(), built.checksum());
        // Different shard count → different artifact → cold build.
        let (_, o3) = ShardedSeedIndex::load_or_build(&dir, &t, shape.clone(), 5).unwrap();
        assert_eq!(o3, IndexOrigin::Built);
        // A corrupt file under the real name is surfaced, not silently
        // rebuilt.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(ShardedSeedIndex::load_or_build(&dir, &t, shape, 3).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_tracks_content_and_is_nonzero() {
        let t1 = random_sequence("genome-e", 1_000, 0.5, 3);
        let t2 = random_sequence("genome-e", 1_000, 0.5, 4);
        let a = ShardedSeedIndex::build(&t1, SeedShape::exact(8), 2).unwrap();
        let b = ShardedSeedIndex::build(&t2, SeedShape::exact(8), 2).unwrap();
        let c = ShardedSeedIndex::build(&t1, SeedShape::exact(8), 3).unwrap();
        assert_ne!(a.fingerprint(), 0);
        assert_ne!(a.fingerprint(), b.fingerprint(), "content changes identity");
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "sharding changes identity"
        );
        let again = ShardedSeedIndex::build(&t1, SeedShape::exact(8), 2).unwrap();
        assert_eq!(a.fingerprint(), again.fingerprint(), "deterministic");
    }
}
