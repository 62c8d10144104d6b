//! # fastz-genome
//!
//! Sequence handling for the FastZ whole-genome-alignment reproduction:
//! the DNA alphabet, byte-code and 2-bit-packed sequence containers, FASTA
//! I/O, LASTZ-compatible scoring (HOXD70, affine gaps, y-drop/x-drop), a
//! synthetic genome-pair evolver, and the paper's benchmark-pair catalog.
//!
//! The synthetic evolver is the documented substitution for the paper's
//! real chromosome inputs; see `DESIGN.md` at the repository root.

#![warn(missing_docs)]

pub mod alphabet;
pub mod catalog;
pub mod evolve;
pub mod fasta;
pub mod hash;
pub mod scorefile;
pub mod scoring;
pub mod sequence;

pub use alphabet::{Base, ALPHABET_SIZE, N_CODE};
pub use catalog::{cross_genus_pairs, find_pair, within_genus_pairs, CatalogPair, Genus, Scale};
pub use evolve::{generate_pair, GenomePair, HomologyClass, MutationRates, PairParams};
pub use fasta::{read_fasta, read_fasta_file, write_fasta, write_fasta_file, FastaError};
pub use hash::{fnv1a, FNV1A_BASIS};
pub use scorefile::{parse_score_file, write_score_file, ScoreFileError};
pub use scoring::{GapPenalties, Scoring, SubstMatrix};
pub use sequence::{PackedSeq, Sequence};
