//! Cell-level tracing for the DP engines.
//!
//! The conformance oracle (crate `fastz-conformance`) checks the paper's
//! invariants *cell for cell*: conservative pruning must never value a
//! cell below the exact engine, and the warp engine must agree with the
//! scalar conservative engine wherever both computed a cell. To make
//! that possible without slowing the hot paths, every engine is generic
//! over a [`CellSink`]; the production entry points pass [`NoTrace`],
//! whose empty inline `record` compiles to nothing, while the oracle
//! passes [`DenseTrace`] to capture every live cell.

use std::collections::BTreeMap;

/// The three Gotoh state values of one live DP cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellScores {
    /// Best score ending at this cell in the S (match) state.
    pub s: i32,
    /// Best score ending in the I state (gap in the query).
    pub i: i32,
    /// Best score ending in the D state (gap in the target).
    pub d: i32,
}

/// Receiver for per-cell DP values. `record` is called once per *live*
/// (unpruned) cell with matrix coordinates `(i, j)` — `i` query bases
/// and `j` target bases consumed.
pub trait CellSink {
    /// Whether `record` does anything. Engines skip their per-cell walk
    /// when it is `false`, so a no-op sink costs nothing even where the
    /// walk itself (finding each live lane) is not free.
    const RECORDS: bool = true;

    /// Records one live cell.
    fn record(&mut self, i: usize, j: usize, cell: CellScores);
}

/// No-op sink for production paths; optimizes away entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoTrace;

impl CellSink for NoTrace {
    const RECORDS: bool = false;

    #[inline(always)]
    fn record(&mut self, _i: usize, _j: usize, _cell: CellScores) {}
}

/// Records every live cell, ordered row-major by `(i, j)` — the order
/// LASTZ's sequential sweep completes cells in, which is the order the
/// conformance report uses to pick the *first* divergent cell.
#[derive(Clone, Debug, Default)]
pub struct DenseTrace {
    /// Live cells keyed by `(i, j)`.
    pub cells: BTreeMap<(usize, usize), CellScores>,
}

impl DenseTrace {
    /// The S value at `(i, j)`, if the cell was live.
    pub fn s(&self, i: usize, j: usize) -> Option<i32> {
        self.cells.get(&(i, j)).map(|c| c.s)
    }

    /// Number of live cells recorded.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cell was recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

impl CellSink for DenseTrace {
    #[inline]
    fn record(&mut self, i: usize, j: usize, cell: CellScores) {
        // Engines may revisit a cell (the warp engine recomputes strip
        // boundaries never, but the eager window and executor share
        // cells); last write wins, matching the engines' stores.
        self.cells.insert((i, j), cell);
    }
}
