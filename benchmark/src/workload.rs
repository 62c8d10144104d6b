//! The four workloads and their seeded inputs.
//!
//! Inputs are planted genome pairs in the style of
//! `fastz_genome::generate_pair`, with one difference: the composition is
//! fixed. Each homology class of the catalog pair's mixture gets a fixed
//! number of segments (its expected count, at least one), with lengths
//! at evenly spaced quantiles of the class range, and the background gaps
//! are fixed quantiles too. Without this, one seed plants three 20-kbp
//! segments and the next plants none, and the run time swings with the
//! draw rather than with the code.
//!
//! The few long segments (900 bp and up) open the pair, each after
//! 4.2 kbp of background, all drawn from the catalog pair's own seed; the
//! seed shuffles the short segments and the gaps between them, and draws
//! their content. A long segment is a large share of the executor's work
//! and sets the longest task, and which of its seeds the band filter
//! keeps depends on every chance seed kept before it on nearby
//! diagonals: placed after seeded content, a 6-kbp segment passed one
//! anchor on some seeds and two on others. In the fixed prefix the
//! filter sees the same seed matches, in the same order, whatever the
//! run's seed.

use fastz_core::{ExtendBackend, FastZConfig};
use fastz_genome::evolve::{mutate, random_codes, GenomePair, PairParams, PlantedSegment};
use fastz_genome::{find_pair, write_fasta_file, Scale, Scoring, Sequence};
use fastz_gpu_sim::DeviceSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Catalog pair whose homology mixture is planted.
    pub pair: &'static str,
    /// Extension algorithm.
    pub backend: ExtendBackend,
    /// Served as small co-batched requests through `fastz_serve::spawn`
    /// instead of one `run_fastz` call.
    pub serve: bool,
    /// Planted segments in a full run, split over the pair's homology
    /// classes by their mixture weights.
    pub segments: usize,
    /// Planted segments in a `--smoke` run.
    pub smoke_segments: usize,
}

/// Anchors per service request.
pub(crate) const REQUEST_ANCHORS: usize = 16;
/// Requests the service workload's client keeps in flight.
pub(crate) const IN_FLIGHT: usize = 2;
/// Shards of the persisted seed index the service loads.
pub(crate) const INDEX_SHARDS: usize = 4;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub static WORKLOADS: [Spec; 4] = [
    // Cross-genus pair: ~90% of extension problems end in eager
    // traceback, the executor is a small share. Moves with inspector
    // and eager-path changes; executor changes barely show.
    Spec {
        name: "eager-cross",
        pair: "CA_5,X",
        backend: ExtendBackend::YDrop,
        serve: false,
        segments: 100,
        smoke_segments: 20,
    },
    // Nematode pair with one planted segment per long class: seeds land
    // in the 8192/32768 bins, single executor tasks take a large share
    // and the two host workers straggle. Moves with executor,
    // traceback-buffer and scheduling changes.
    Spec {
        name: "bin4-nematode",
        pair: "C1_4,4",
        backend: ExtendBackend::YDrop,
        serve: false,
        segments: 8,
        smoke_segments: 8,
    },
    // Larger nematode pair on the bitvector backend: the warp engine
    // does no work, FASTA ingest and seeding have their largest share.
    // The control for warp-engine changes.
    Spec {
        name: "bitvec-large",
        pair: "C1_5,5",
        backend: ExtendBackend::Bitvector,
        serve: false,
        segments: 150,
        smoke_segments: 40,
    },
    // The eager-cross pair served as small co-batched requests from a
    // warm persisted index: exposes per-request fixed costs (a pool per
    // drained batch, wave barriers, result streaming).
    Spec {
        name: "serve-cross",
        pair: "CA_5,X",
        backend: ExtendBackend::YDrop,
        serve: true,
        segments: 100,
        smoke_segments: 20,
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Planted segments a run uses.
    pub fn segments(&self, smoke: bool) -> usize {
        if smoke {
            self.smoke_segments
        } else {
            self.segments
        }
    }

    /// The pipeline configuration: the `fastz` CLI's `--scoring bench`
    /// preset (LASTZ's matrix and gaps, y-drop scaled to these genome
    /// sizes) on the Ampere model, with every host core.
    pub fn config(&self) -> FastZConfig {
        FastZConfig {
            sim_threads: host_threads(),
            extend_backend: self.backend,
            ..FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere())
        }
    }
}

/// Host threads for the functional simulation.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Shortest unrelated background between planted segments, in bp. A
/// y-drop extension loses about 13 points per bp of random background,
/// so it dies within ~250 bp under the bench preset's 3100-point y-drop
/// (~700 bp under LASTZ's 9400): at this gap it ends with its own
/// segment instead of running on into the next one, and task sizes
/// follow the planted lengths, not the draw.
const MIN_GAP: usize = 1_200;
/// Segments at least this long go in the fixed prefix (see the module
/// docs).
const LONG_SEGMENT: usize = 900;
/// Background before each long segment. Longer than the band filter's
/// 4096-bp spacing window: planted segments share one diagonal band, so
/// a segment just before a long one would otherwise suppress the long
/// one's first seeds and move every anchor it keeps.
const LONG_FLANK: usize = 4_200;

/// Evenly spaced quantiles of `lo..=hi`, `n` of them.
fn quantiles(lo: usize, hi: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..n).map(move |k| lo + (hi - lo) * (2 * k + 1) / (2 * n))
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// A genome pair under construction.
struct Mosaic<'a> {
    params: &'a PairParams,
    /// Query bp per target bp of background.
    query_ratio: (usize, usize),
    target: Vec<u8>,
    query: Vec<u8>,
    truth: Vec<PlantedSegment>,
}

impl Mosaic<'_> {
    /// Appends `len` bp of unrelated background to the target and the
    /// matching share to the query.
    fn background(&mut self, len: usize, rng: &mut SmallRng) {
        let (q, t) = self.query_ratio;
        let gc = self.params.gc;
        self.target.extend(random_codes(len, gc, rng));
        self.query.extend(random_codes(len * q / t, gc, rng));
    }

    /// Plants one segment of class `ci`: a random ancestor in the target
    /// and its mutated copy in the query.
    fn segment(&mut self, ci: usize, len: usize, rng: &mut SmallRng) {
        let class = &self.params.classes[ci];
        let ancestor = random_codes(len, self.params.gc, rng);
        let copy = mutate(&ancestor, &class.rates, self.params.gc, rng);
        self.truth.push(PlantedSegment {
            class: class.name,
            target_start: self.target.len(),
            target_len: ancestor.len(),
            query_start: self.query.len(),
            query_len: copy.len(),
        });
        self.target.extend_from_slice(&ancestor);
        self.query.extend_from_slice(&copy);
    }
}

/// Generates the workload's genome pair for `seed` (see the module
/// docs for what the seed does and does not change).
pub fn generate(spec: &Spec, smoke: bool, seed: u64) -> GenomePair {
    let entry = find_pair(spec.pair).expect("workload pairs are catalog labels");
    let params = entry.pair_params(Scale::BENCH);
    let total: f64 = params.classes.iter().map(|c| c.weight).sum();
    let segments = spec.segments(smoke) as f64;
    let mut plan: Vec<(usize, usize)> = Vec::new();
    for (ci, class) in params.classes.iter().enumerate() {
        let n = ((segments * class.weight / total).round() as usize).max(1);
        let (lo, hi) = class.len_range;
        plan.extend(quantiles(lo, hi, n).map(|len| (ci, len)));
    }
    let (long, mut short): (Vec<_>, Vec<_>) =
        plan.into_iter().partition(|&(_, len)| len >= LONG_SEGMENT);
    let mut rng =
        SmallRng::seed_from_u64(params.rng_seed ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    shuffle(&mut short, &mut rng);
    // Gap `i` precedes short segment `i`; the last one ends the pair.
    let mut gaps: Vec<usize> = quantiles(MIN_GAP, MIN_GAP * 3 / 2, short.len() + 1).collect();
    shuffle(&mut gaps, &mut rng);

    let mut pair = Mosaic {
        params: &params,
        // The query keeps the real chromosomes' length ratio.
        query_ratio: (entry.query_bp, entry.target_bp),
        target: Vec::new(),
        query: Vec::new(),
        truth: Vec::new(),
    };
    let mut fixed = SmallRng::seed_from_u64(params.rng_seed);
    for &(ci, len) in &long {
        pair.background(LONG_FLANK, &mut fixed);
        pair.segment(ci, len, &mut fixed);
    }
    for (&(ci, len), &gap) in short.iter().zip(&gaps) {
        pair.background(gap, &mut rng);
        pair.segment(ci, len, &mut rng);
    }
    pair.background(gaps[short.len()], &mut rng);
    GenomePair {
        label: params.label.clone(),
        target: Sequence::from_codes(format!("{}.target", params.label), pair.target),
        query: Sequence::from_codes(format!("{}.query", params.label), pair.query),
        truth: pair.truth,
    }
}

/// A scratch directory under the working directory, removed on drop.
pub(crate) struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<name>` under the current directory.
    pub fn create(name: &str) -> std::io::Result<WorkDir> {
        let path = Path::new(".bench_work").join(name);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// A workload's generated inputs, written out as FASTA.
pub struct Inputs {
    /// Scratch directory holding every file below, removed when the
    /// inputs drop.
    _dir: WorkDir,
    /// Target FASTA.
    pub target_fa: PathBuf,
    /// Query FASTA.
    pub query_fa: PathBuf,
    /// Persisted seed-index directory (used by the service workload).
    pub index_dir: PathBuf,
    /// Alignment output file.
    pub out: PathBuf,
    /// The planted segments (ground truth the pipeline never sees).
    pub truth: Vec<PlantedSegment>,
    /// Combined FASTA size in bytes.
    pub fasta_bytes: u64,
}

impl Inputs {
    /// Generates the pair for `seed` and writes it out.
    pub fn write(spec: &Spec, smoke: bool, seed: u64) -> Result<Inputs, String> {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let name = format!(
            "{}-{seed}-{}-{}",
            spec.name,
            std::process::id(),
            RUNS.fetch_add(1, Ordering::Relaxed)
        );
        let dir = WorkDir::create(&name).map_err(|e| format!("work directory: {e}"))?;
        let pair = generate(spec, smoke, seed);
        let target_fa = dir.path().join("target.fa");
        let query_fa = dir.path().join("query.fa");
        for (path, seq) in [(&target_fa, &pair.target), (&query_fa, &pair.query)] {
            write_fasta_file(path, std::slice::from_ref(seq))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        Ok(Inputs {
            fasta_bytes: size(&target_fa) + size(&query_fa),
            index_dir: dir.path().join("index"),
            out: dir.path().join("alignments.tsv"),
            target_fa,
            query_fa,
            truth: pair.truth,
            _dir: dir,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert!(std::ptr::eq(Spec::by_name(w.name).unwrap(), w));
            assert!(find_pair(w.pair).is_some());
        }
        assert!(Spec::by_name("nope").is_none());
    }

    #[test]
    fn composition_is_fixed_and_content_follows_the_seed() {
        let spec = Spec::by_name("bin4-nematode").unwrap();
        let a = generate(spec, true, 1);
        let b = generate(spec, true, 2);
        let again = generate(spec, true, 1);
        assert_eq!(a.target.codes(), again.target.codes());
        assert_eq!(a.query.codes(), again.query.codes());
        assert_ne!(a.target.codes(), b.target.codes());
        let classes = |p: &GenomePair| {
            let mut v: Vec<(&str, usize)> =
                p.truth.iter().map(|s| (s.class, s.target_len)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(classes(&a), classes(&b));
        assert!(a.truth.iter().any(|s| s.class == "huge"));
        for s in &a.truth {
            assert!(s.target_start + s.target_len <= a.target.len());
            assert!(s.query_start + s.query_len <= a.query.len());
        }
        // The long segments and their flanks are the same on every seed.
        let prefix = |p: &GenomePair| {
            let long: Vec<&PlantedSegment> = p
                .truth
                .iter()
                .filter(|s| s.target_len >= LONG_SEGMENT)
                .collect();
            let last = long.last().expect("long segments");
            (
                long.iter()
                    .map(|s| (s.target_start, s.query_start))
                    .collect::<Vec<_>>(),
                p.target.codes()[..last.target_start + last.target_len].to_vec(),
                p.query.codes()[..last.query_start + last.query_len].to_vec(),
            )
        };
        assert_eq!(prefix(&a), prefix(&b));
    }
}
