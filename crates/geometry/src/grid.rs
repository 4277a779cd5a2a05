//! Uniform-grid spatial index for exact ball and nearest-neighbour queries.
//!
//! The physical layer evaluates interference sums and builds communication
//! graphs with many "all points within distance r of v" queries; a uniform
//! grid with cell side chosen close to the query radius answers each query in
//! time proportional to the output size for bounded-growth inputs.
//!
//! The index is stored *flat*: populated cells are kept in one sorted vector
//! with CSR-style offsets into a single member array, so (a) every iteration
//! order is deterministic (lexicographic in the cell key — no hash-map
//! ordering anywhere), (b) lookups are cache-friendly binary searches, and
//! (c) queries can run through the allocation-free
//! [`GridIndex::for_each_in_ball`] visitor, which the reception oracle uses
//! on its zero-allocation hot path.

use crate::point::MetricPoint;
use crate::store::PositionStore;

/// Key of a grid cell: integer coordinates along up to three axes (unused
/// trailing axes stay `0`).
pub type CellKey = [i64; 3];

/// How the spatial structures react to a population delta at an epoch
/// boundary ([`GridIndex::repair_with_policy`] and the communication
/// graph's repair path built on it).
///
/// Whatever the policy, the resulting structure is **bit-identical** to a
/// from-scratch build of the same population — the policy only selects
/// how much work is spent getting there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RepairPolicy {
    /// Patch incrementally while the fraction of stations that changed
    /// cell membership (or liveness) stays at or below `threshold` of the
    /// indexed population; fall back to a full in-place rebuild beyond it
    /// (dense churn amortizes better through one sort than many splices).
    Auto {
        /// Maximum dirty fraction repaired incrementally.
        threshold: f64,
    },
    /// Always rebuild from scratch — the pre-repair behavior, kept as the
    /// differential-test reference.
    AlwaysFull,
    /// Always patch incrementally, however dense the churn — forces the
    /// repair path so differential tests can exercise it.
    AlwaysIncremental,
}

impl Default for RepairPolicy {
    /// Incremental below 5% churn, full rebuild above.
    fn default() -> Self {
        RepairPolicy::Auto { threshold: 0.05 }
    }
}

/// Reusable buffers of the incremental repair path: classification lists
/// plus the double-buffered CSR arrays the merge sweep writes into. Grown
/// once to their high-water marks, then recycled — steady-state repairs
/// perform no heap allocations.
#[derive(Debug, Clone, Default)]
struct RepairScratch {
    /// Deduplicated dirty-station candidates.
    moved: Vec<usize>,
    /// Slots leaving their cell (kills + cross-cell movers), ascending.
    removals: Vec<usize>,
    /// `(new cell key, id)` entering a cell (rejoins, spawns, cross-cell
    /// movers), in fresh-build sort order.
    inserts: Vec<(CellKey, usize)>,
    /// Old cell indices whose members moved within the cell (coordinates
    /// patched in place; centroid needs recomputing).
    touched: Vec<usize>,
    /// Double buffers the merge sweep emits into, swapped with the live
    /// arrays afterwards so edge storage is reused, never reallocated.
    keys_alt: Vec<CellKey>,
    starts_alt: Vec<usize>,
    ids_alt: Vec<usize>,
    store_alt: PositionStore,
    centroids_alt: Vec<[f64; 3]>,
}

/// A uniform-grid spatial index over a fixed slice of points.
///
/// The index stores point *indices*; queries take the backing slice again so
/// the index never borrows the points and can be kept alongside them.
///
/// # Example
///
/// ```
/// use sinr_geometry::{GridIndex, Point2};
/// let pts = vec![Point2::new(0.0, 0.0), Point2::new(2.0, 0.0)];
/// let idx = GridIndex::build(&pts, 1.0);
/// assert_eq!(idx.ball(&pts, Point2::new(0.1, 0.0), 0.5).collect::<Vec<_>>(), vec![0]);
/// assert_eq!(idx.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    /// Keys of the populated cells, sorted lexicographically.
    keys: Vec<CellKey>,
    /// CSR offsets: cell `c` owns `ids[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    /// Point indices grouped by cell, ascending within each cell.
    ids: Vec<usize>,
    /// Point coordinates in **slot order** (slot `s` holds `ids[s]`'s
    /// coordinates), so cell members occupy contiguous SoA ranges.
    store: PositionStore,
    /// Member centroid of each populated cell (trailing axes stay 0);
    /// the tail evaluation points of the grid-native reception kernel.
    centroids: Vec<[f64; 3]>,
    /// `(cell key, point index)` sort scratch, reused by the epoch
    /// reindex path ([`GridIndex::rebuild_from`]).
    pair_scratch: Vec<(CellKey, usize)>,
    /// Slot of each point id (`usize::MAX` when the id is not indexed —
    /// dead or out of range) — the reverse lookup the repair path uses to
    /// find a moved station's previous cell and coordinates.
    slot_of: Vec<usize>,
    /// Buffers of the incremental repair path ([`GridIndex::repair`]).
    repair: RepairScratch,
    cell_side: f64,
    axes: usize,
    /// Number of **indexed** points (= live points under a liveness mask).
    len: usize,
    /// Length of the backing point slice the index was (re)built over —
    /// equals `len` for unmasked builds, and may exceed it when a
    /// liveness mask tombstones part of the population
    /// ([`GridIndex::rebuild_from_masked`]).
    domain: usize,
}

/// Two indexes are equal when they index the same points into the same
/// structure (the sort and repair scratch and the derivable reverse slot
/// map, rebuild implementation details, do not participate) — what the
/// epoch-reindex differential tests compare.
impl PartialEq for GridIndex {
    fn eq(&self, other: &Self) -> bool {
        self.keys == other.keys
            && self.starts == other.starts
            && self.ids == other.ids
            && self.store == other.store
            && self.centroids == other.centroids
            && self.cell_side == other.cell_side
            && self.axes == other.axes
            && self.len == other.len
            && self.domain == other.domain
    }
}

impl GridIndex {
    /// Builds an index over `points` with the given grid cell side.
    ///
    /// `cell_side` should be of the same order as the typical query radius;
    /// the communication range 1 is a good default for SINR networks.
    ///
    /// # Panics
    ///
    /// Panics if `cell_side` is not strictly positive and finite.
    pub fn build<P: MetricPoint>(points: &[P], cell_side: f64) -> Self {
        Self::build_inner(points, None, cell_side)
    }

    /// Builds an index over the **live** subset of `points`: point `i` is
    /// indexed iff `alive[i]` — the from-scratch companion of
    /// [`GridIndex::rebuild_from_masked`] for dynamic populations.
    ///
    /// Dead points keep their indices (queries still report original
    /// indices) but occupy no cell, no slot and no SoA storage, so ball
    /// queries and the batched kernels never see them.
    ///
    /// # Panics
    ///
    /// As [`GridIndex::build`]; additionally panics when `alive` and
    /// `points` differ in length.
    pub fn build_masked<P: MetricPoint>(points: &[P], alive: &[bool], cell_side: f64) -> Self {
        Self::build_inner(points, Some(alive), cell_side)
    }

    fn build_inner<P: MetricPoint>(points: &[P], alive: Option<&[bool]>, cell_side: f64) -> Self {
        assert!(
            cell_side.is_finite() && cell_side > 0.0,
            "grid cell side must be positive and finite, got {cell_side}"
        );
        let mut index = GridIndex {
            keys: Vec::new(),
            starts: Vec::new(),
            ids: Vec::new(),
            store: PositionStore::with_axes(P::AXES),
            centroids: Vec::new(),
            pair_scratch: Vec::new(),
            slot_of: Vec::new(),
            repair: RepairScratch::default(),
            cell_side,
            axes: P::AXES,
            len: 0,
            domain: 0,
        };
        index.fill(points, alive);
        // Static indexes never rebuild: drop the sort scratch so the
        // common path does not retain two words per point (the first
        // real rebuild re-allocates it, once).
        index.pair_scratch = Vec::new();
        index
    }

    /// Rebuilds the index in place over (moved) `points` — the epoch
    /// reindex path of dynamic topologies.
    ///
    /// Produces exactly the structure [`GridIndex::build`] would (the two
    /// share one fill routine, so keys, CSR offsets, **slot order**, the
    /// SoA position store and the per-cell centroids are all bitwise
    /// identical to a from-scratch build — pinned by
    /// `tests/mobility_equivalence.rs`), but reuses every allocation: once
    /// the buffers have grown to their high-water marks, a rebuild
    /// performs no heap allocations. The point count may differ from the
    /// previous build; capacity grows (once) and is reused afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the point dimensionality differs from the one the index
    /// was built with.
    pub fn rebuild_from<P: MetricPoint>(&mut self, points: &[P]) {
        self.fill(points, None);
    }

    /// As [`GridIndex::rebuild_from`], indexing only points with
    /// `alive[i]` — the epoch reindex path of **churned** populations
    /// (see [`GridIndex::build_masked`] for the mask semantics).
    ///
    /// Bit-identical to [`GridIndex::build_masked`] over the same inputs
    /// (one shared fill routine), and — because compaction preserves the
    /// ascending per-cell member order — the keys, CSR offsets, SoA store
    /// and centroids also match a fresh *unmasked* build over the live
    /// subset alone (`tests/churn_equivalence.rs` pins this).
    ///
    /// # Panics
    ///
    /// As [`GridIndex::rebuild_from`]; additionally panics when `alive`
    /// and `points` differ in length.
    pub fn rebuild_from_masked<P: MetricPoint>(&mut self, points: &[P], alive: &[bool]) {
        self.fill(points, Some(alive));
    }

    /// Patches the index after a population delta, in time proportional to
    /// the delta: only stations named in `moved` may have changed position
    /// or liveness since the last (re)build or repair. Spawned stations
    /// (indices at or beyond the previous [`GridIndex::domain_len`]) are
    /// picked up whether listed or not. Equivalent to
    /// [`GridIndex::repair_with_policy`] with the default
    /// [`RepairPolicy::Auto`].
    pub fn repair<P: MetricPoint>(
        &mut self,
        moved: &[usize],
        points: &[P],
        alive: Option<&[bool]>,
    ) {
        self.repair_with_policy(moved, points, alive, RepairPolicy::default());
    }

    /// The delta-aware repair path: detects which of the `moved` stations
    /// actually changed cell membership (cross-cell moves, kills, rejoins,
    /// spawns), splices only the affected CSR cell runs — member slots,
    /// [`GridIndex::slot_ids`] order, the SoA [`PositionStore`] columns
    /// and the centroids of touched cells — and leaves every untouched
    /// cell's bytes alone. Same-cell moves patch coordinates in place.
    ///
    /// The result is **bit-identical** to [`GridIndex::build_masked`] over
    /// the same population (same key order, same slot order, same
    /// floating-point centroid sums) — `tests/repair_equivalence.rs` and
    /// the mobility/churn differential batteries pin this. Under
    /// [`RepairPolicy::Auto`] dense deltas fall back to the full in-place
    /// rebuild, which amortizes better through one sort.
    ///
    /// All repair buffers are reused between calls: steady-state repairs
    /// perform no heap allocations.
    ///
    /// # Contract
    ///
    /// Stations absent from `moved` (and below the previous domain) must
    /// have bit-identical coordinates and unchanged liveness; `points` may
    /// only grow. Listing an unchanged station is harmless (it is detected
    /// and skipped).
    ///
    /// # Panics
    ///
    /// Panics if an index in `moved` is out of range, the backing slice
    /// shrank, the dimensionality changed, or a mask is present with the
    /// wrong length.
    pub fn repair_with_policy<P: MetricPoint>(
        &mut self,
        moved: &[usize],
        points: &[P],
        alive: Option<&[bool]>,
        policy: RepairPolicy,
    ) {
        assert_eq!(P::AXES, self.axes, "point dimensionality mismatch");
        if let Some(a) = alive {
            assert_eq!(
                a.len(),
                points.len(),
                "liveness mask must cover every point"
            );
        }
        assert!(
            points.len() >= self.domain,
            "repair cannot shrink the backing slice ({} -> {} points)",
            self.domain,
            points.len()
        );
        if matches!(policy, RepairPolicy::AlwaysFull) {
            self.fill(points, alive);
            return;
        }
        let live = |i: usize| alive.map_or(true, |a| a[i]);

        // Deduplicate the candidates (a station can be both a churn-delta
        // member and a mover) and sweep in spawned indices.
        let mut dirty = std::mem::take(&mut self.repair.moved);
        dirty.clear();
        dirty.extend_from_slice(moved);
        dirty.extend(self.domain..points.len());
        dirty.sort_unstable();
        dirty.dedup();
        if let Some(&max) = dirty.last() {
            assert!(
                max < points.len(),
                "moved index {max} out of range ({} points)",
                points.len()
            );
        }
        self.slot_of.resize(points.len(), usize::MAX);

        // Classify: removals (slots leaving a cell), inserts (ids entering
        // one), in-place coordinate patches (same cell). Unchanged
        // stations listed out of caution are detected and skipped.
        let mut removals = std::mem::take(&mut self.repair.removals);
        let mut inserts = std::mem::take(&mut self.repair.inserts);
        let mut touched = std::mem::take(&mut self.repair.touched);
        removals.clear();
        inserts.clear();
        touched.clear();
        let mut changed = 0usize;
        for &i in &dirty {
            let old_slot = self.slot_of[i];
            let was = old_slot != usize::MAX;
            let is = live(i);
            match (was, is) {
                (false, false) => {}
                (true, false) => {
                    removals.push(old_slot);
                    changed += 1;
                }
                (false, true) => {
                    inserts.push((Self::key_of(&points[i], self.cell_side), i));
                    changed += 1;
                }
                (true, true) => {
                    let unchanged = (0..P::AXES).all(|a| {
                        self.store.coord(old_slot, a).to_bits() == points[i].coord(a).to_bits()
                    });
                    if unchanged {
                        continue;
                    }
                    let new_key = Self::key_of(&points[i], self.cell_side);
                    let c_old = self.cell_of_slot(old_slot);
                    if self.keys[c_old] == new_key {
                        // Moved within its cell: patch the SoA columns in
                        // place, remember the cell for centroid recompute.
                        self.store.set(old_slot, &points[i]);
                        touched.push(c_old);
                    } else {
                        removals.push(old_slot);
                        inserts.push((new_key, i));
                    }
                    changed += 1;
                }
            }
        }
        self.repair.moved = dirty;

        if let RepairPolicy::Auto { threshold } = policy {
            if changed as f64 > threshold * self.len.max(1) as f64 {
                // Dense delta: one sort beats many splices. The in-place
                // coordinate patches above are overwritten by the fill.
                self.repair.removals = removals;
                self.repair.inserts = inserts;
                self.repair.touched = touched;
                self.fill(points, alive);
                return;
            }
        }

        self.domain = points.len();
        touched.sort_unstable();
        touched.dedup();
        if removals.is_empty() && inserts.is_empty() {
            // Same-cell moves only: membership untouched, recompute the
            // touched centroids (member order — identical to a fresh
            // build's arithmetic).
            for &c in &touched {
                self.centroids[c] =
                    Self::centroid_of::<P>(&self.ids[self.starts[c]..self.starts[c + 1]], points);
            }
            self.repair.removals = removals;
            self.repair.inserts = inserts;
            self.repair.touched = touched;
            return;
        }
        removals.sort_unstable();
        inserts.sort_unstable();
        self.repair.removals = removals;
        self.repair.inserts = inserts;
        self.repair.touched = touched;
        self.merge_splice(points);
    }

    /// The membership-edit sweep of the repair path: emits the merged CSR
    /// arrays into the double buffers — untouched cells copied wholesale
    /// (centroid bits included), edited cells re-merged member by member —
    /// and swaps them in. One pass, no sort of the population, no
    /// allocation once the buffers reach their high-water marks.
    fn merge_splice<P: MetricPoint>(&mut self, points: &[P]) {
        let mut keys2 = std::mem::take(&mut self.repair.keys_alt);
        let mut starts2 = std::mem::take(&mut self.repair.starts_alt);
        let mut ids2 = std::mem::take(&mut self.repair.ids_alt);
        let mut store2 = std::mem::take(&mut self.repair.store_alt);
        let mut cents2 = std::mem::take(&mut self.repair.centroids_alt);
        keys2.clear();
        starts2.clear();
        ids2.clear();
        cents2.clear();
        store2.reset_axes(self.axes);
        let grow = self.repair.inserts.len();
        ids2.reserve(self.len + grow);
        store2.reserve(self.len + grow);

        let removals = &self.repair.removals;
        let inserts = &self.repair.inserts;
        let touched = &self.repair.touched;
        let slot_of = &mut self.slot_of;
        slot_of.clear();
        slot_of.resize(self.domain, usize::MAX);
        let (mut rem_i, mut ins_i, mut tou_i) = (0usize, 0usize, 0usize);

        let n_cells = self.keys.len();
        let mut c = 0usize;
        while c < n_cells || ins_i < inserts.len() {
            let insert_cell = match (c < n_cells, ins_i < inserts.len()) {
                (true, true) => inserts[ins_i].0 < self.keys[c],
                (has_old, _) => !has_old,
            };
            if insert_cell {
                // A brand-new cell made entirely of inserted stations
                // (already in ascending id order within the key run).
                let key = inserts[ins_i].0;
                let cell_start = ids2.len();
                keys2.push(key);
                starts2.push(cell_start);
                while ins_i < inserts.len() && inserts[ins_i].0 == key {
                    let i = inserts[ins_i].1;
                    slot_of[i] = ids2.len();
                    ids2.push(i);
                    store2.push(&points[i]);
                    ins_i += 1;
                }
                cents2.push(Self::centroid_of::<P>(&ids2[cell_start..], points));
                continue;
            }

            let key = self.keys[c];
            let range = self.starts[c]..self.starts[c + 1];
            let has_ins = ins_i < inserts.len() && inserts[ins_i].0 == key;
            let has_rem = rem_i < removals.len() && removals[rem_i] < range.end;
            while tou_i < touched.len() && touched[tou_i] < c {
                tou_i += 1;
            }
            let coords_touched = tou_i < touched.len() && touched[tou_i] == c;
            if !has_ins && !has_rem {
                // Membership untouched: wholesale copy (per-axis memcpy);
                // the centroid bits carry over unless a same-cell move
                // patched a member's coordinates.
                let cell_start = ids2.len();
                keys2.push(key);
                starts2.push(cell_start);
                for (off, &i) in self.ids[range.clone()].iter().enumerate() {
                    slot_of[i] = cell_start + off;
                }
                ids2.extend_from_slice(&self.ids[range.clone()]);
                store2.extend_from(&self.store, range);
                if coords_touched {
                    cents2.push(Self::centroid_of::<P>(&ids2[cell_start..], points));
                } else {
                    cents2.push(self.centroids[c]);
                }
                c += 1;
                continue;
            }

            // Membership edit: merge the kept members (ascending ids,
            // removal slots skipped) with this key's inserts (ascending
            // ids). A cell losing every member vanishes, exactly as in a
            // fresh build.
            let cell_start = ids2.len();
            let mut s = range.start;
            loop {
                while s < range.end && rem_i < removals.len() && removals[rem_i] == s {
                    rem_i += 1;
                    s += 1;
                }
                let kept = (s < range.end).then(|| self.ids[s]);
                let ins =
                    (ins_i < inserts.len() && inserts[ins_i].0 == key).then(|| inserts[ins_i].1);
                match (kept, ins) {
                    (None, None) => break,
                    (Some(k), Some(j)) if j < k => {
                        slot_of[j] = ids2.len();
                        ids2.push(j);
                        store2.push(&points[j]);
                        ins_i += 1;
                    }
                    (Some(k), _) => {
                        slot_of[k] = ids2.len();
                        ids2.push(k);
                        store2.extend_from(&self.store, s..s + 1);
                        s += 1;
                    }
                    (None, Some(j)) => {
                        slot_of[j] = ids2.len();
                        ids2.push(j);
                        store2.push(&points[j]);
                        ins_i += 1;
                    }
                }
            }
            if ids2.len() > cell_start {
                keys2.push(key);
                starts2.push(cell_start);
                cents2.push(Self::centroid_of::<P>(&ids2[cell_start..], points));
            }
            c += 1;
        }
        starts2.push(ids2.len());

        std::mem::swap(&mut self.keys, &mut keys2);
        std::mem::swap(&mut self.starts, &mut starts2);
        std::mem::swap(&mut self.ids, &mut ids2);
        std::mem::swap(&mut self.store, &mut store2);
        std::mem::swap(&mut self.centroids, &mut cents2);
        self.repair.keys_alt = keys2;
        self.repair.starts_alt = starts2;
        self.repair.ids_alt = ids2;
        self.repair.store_alt = store2;
        self.repair.centroids_alt = cents2;
        self.len = self.ids.len();
    }

    /// Index of the populated cell owning `slot`.
    fn cell_of_slot(&self, slot: usize) -> usize {
        debug_assert!(slot < self.len, "slot out of range");
        self.starts.partition_point(|&s| s <= slot) - 1
    }

    /// Slot of point `i`, or `None` when `i` is not indexed (dead, or
    /// beyond the indexed domain). The reverse of [`GridIndex::slot_ids`];
    /// the graph repair path uses it to recover a moved station's previous
    /// coordinates from [`GridIndex::positions`].
    pub fn slot_of(&self, i: usize) -> Option<usize> {
        self.slot_of.get(i).copied().filter(|&s| s != usize::MAX)
    }

    /// The one fill routine behind every build/rebuild entry point, so
    /// rebuilt indexes are bitwise indistinguishable from fresh ones.
    fn fill<P: MetricPoint>(&mut self, points: &[P], alive: Option<&[bool]>) {
        assert_eq!(P::AXES, self.axes, "point dimensionality mismatch");
        if let Some(alive) = alive {
            assert_eq!(
                alive.len(),
                points.len(),
                "liveness mask must cover every point"
            );
        }
        let live = |i: usize| alive.map_or(true, |a| a[i]);
        // Take the scratch out so the fill loop can borrow `self` mutably
        // (mem::take leaves a capacity-less Vec, not an allocation).
        let mut pairs = std::mem::take(&mut self.pair_scratch);
        pairs.clear();
        pairs.extend(
            points
                .iter()
                .enumerate()
                .filter(|&(i, _)| live(i))
                .map(|(i, p)| (Self::key_of(p, self.cell_side), i)),
        );
        pairs.sort_unstable();
        self.keys.clear();
        self.starts.clear();
        self.ids.clear();
        self.ids.reserve(pairs.len());
        self.store.clear();
        self.store.reserve(pairs.len());
        self.centroids.clear();
        for &(key, i) in &pairs {
            if self.keys.last() != Some(&key) {
                self.keys.push(key);
                self.starts.push(self.ids.len());
            }
            self.ids.push(i);
            self.store.push(&points[i]);
        }
        self.starts.push(self.ids.len());
        self.pair_scratch = pairs;
        // Per-cell member centroids: sum coordinates in member (= slot)
        // order, then scale by 1/len — the exact arithmetic the reception
        // kernels historically performed per round. The repair path
        // recomputes touched cells through the same helper, so repaired
        // centroids are bit-identical to freshly built ones.
        for c in 0..self.keys.len() {
            self.centroids.push(Self::centroid_of::<P>(
                &self.ids[self.starts[c]..self.starts[c + 1]],
                points,
            ));
        }
        self.len = self.ids.len();
        self.domain = points.len();
        // Reverse slot map: id → slot (MAX for unindexed ids), the repair
        // path's handle on a station's previous cell and coordinates.
        self.slot_of.clear();
        self.slot_of.resize(self.domain, usize::MAX);
        for (s, &i) in self.ids.iter().enumerate() {
            self.slot_of[i] = s;
        }
    }

    /// Member centroid of the cell owning `ids`: coordinate sums in member
    /// order scaled by `1/len` — the one centroid routine behind both
    /// [`GridIndex::build`]-style fills and the repair path, so the two
    /// agree bitwise.
    fn centroid_of<P: MetricPoint>(ids: &[usize], points: &[P]) -> [f64; 3] {
        let mut cent = [0.0f64; 3];
        for &i in ids {
            for (axis, slot) in cent.iter_mut().enumerate().take(P::AXES) {
                *slot += points[i].coord(axis);
            }
        }
        let inv = 1.0 / ids.len() as f64;
        for v in &mut cent {
            *v *= inv;
        }
        cent
    }

    fn key_of<P: MetricPoint>(p: &P, cell_side: f64) -> CellKey {
        let mut key = [0i64; 3];
        for (axis, slot) in key.iter_mut().enumerate().take(P::AXES) {
            *slot = (p.coord(axis) / cell_side).floor() as i64;
        }
        key
    }

    /// Number of **indexed** points (the live population under a
    /// liveness mask; equals [`GridIndex::domain_len`] for unmasked
    /// builds).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Length of the point slice the index was built over — the slice
    /// length queries must be called with. Exceeds [`GridIndex::len`]
    /// when a liveness mask tombstones part of the population.
    pub fn domain_len(&self) -> usize {
        self.domain
    }

    /// Whether the index indexes no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cell side used at construction.
    pub fn cell_side(&self) -> f64 {
        self.cell_side
    }

    /// Number of populated cells.
    pub fn num_cells(&self) -> usize {
        self.keys.len()
    }

    /// Key of populated cell `c` (cells are ordered lexicographically by
    /// key; `c < self.num_cells()`).
    pub fn cell_key(&self, c: usize) -> CellKey {
        self.keys[c]
    }

    /// Point indices in populated cell `c`, in ascending order.
    pub fn cell_members(&self, c: usize) -> &[usize] {
        &self.ids[self.starts[c]..self.starts[c + 1]]
    }

    /// Slot range of populated cell `c`: its members occupy
    /// `slot_ids()[range]` and the same range of [`GridIndex::positions`].
    pub fn cell_range(&self, c: usize) -> std::ops::Range<usize> {
        self.starts[c]..self.starts[c + 1]
    }

    /// Point indices in slot order (the concatenation of all cells'
    /// member lists; `slot_ids()[s]` is the point stored at slot `s`).
    pub fn slot_ids(&self) -> &[usize] {
        &self.ids
    }

    /// The slot-ordered SoA copy of the indexed coordinates (slot `s`
    /// holds the position of point `slot_ids()[s]`), for batched kernels.
    pub fn positions(&self) -> &PositionStore {
        &self.store
    }

    /// Member centroid of populated cell `c` (trailing axes stay 0) —
    /// precomputed at build, in member order, exactly as the reception
    /// kernels historically accumulated it per round.
    pub fn cell_centroid(&self, c: usize) -> &[f64; 3] {
        &self.centroids[c]
    }

    /// The cell key `point` falls into under this index's cell side.
    pub fn key_for<P: MetricPoint>(&self, point: &P) -> CellKey {
        debug_assert_eq!(P::AXES, self.axes, "point dimensionality mismatch");
        Self::key_of(point, self.cell_side)
    }

    /// Members of the cell with `key`, or the empty slice for an
    /// unpopulated cell.
    pub fn members_of(&self, key: &CellKey) -> &[usize] {
        match self.keys.binary_search(key) {
            Ok(c) => self.cell_members(c),
            Err(_) => &[],
        }
    }

    /// Indices of all points at distance `<= radius` from `center`,
    /// in ascending index order.
    ///
    /// `points` must be the same slice the index was built from. Allocates
    /// a result buffer per call — inner loops should prefer
    /// [`GridIndex::for_each_in_ball`].
    pub fn ball<'a, P: MetricPoint>(
        &'a self,
        points: &'a [P],
        center: P,
        radius: f64,
    ) -> impl Iterator<Item = usize> + 'a {
        let mut out = Vec::new();
        self.for_each_in_ball(points, center, radius, |i| out.push(i));
        out.sort_unstable();
        out.into_iter()
    }

    /// Indices of all points at distance `<= radius` from `center`, collected.
    ///
    /// Thin wrapper over [`GridIndex::ball`]; prefer
    /// [`GridIndex::for_each_in_ball`] inside loops.
    pub fn ball_vec<P: MetricPoint>(&self, points: &[P], center: P, radius: f64) -> Vec<usize> {
        self.ball(points, center, radius).collect()
    }

    /// Number of points at distance `<= radius` from `center`.
    pub fn ball_count<P: MetricPoint>(&self, points: &[P], center: P, radius: f64) -> usize {
        let mut count = 0;
        self.for_each_in_ball(points, center, radius, |_| count += 1);
        count
    }

    /// Calls `f(i)` for every point `i` at distance `<= radius` from
    /// `center`, without allocating.
    ///
    /// Visit order is deterministic — lexicographic in the cell key, then
    /// ascending index within each cell — but **not** globally ascending by
    /// index; collect and sort ([`GridIndex::ball`]) when order matters.
    ///
    /// Distances are evaluated through the index's SoA
    /// [`PositionStore`] in batches (bitwise identical to the scalar
    /// per-point test); `points` is retained for the length contract only.
    pub fn for_each_in_ball<P: MetricPoint>(
        &self,
        points: &[P],
        center: P,
        radius: f64,
        mut f: impl FnMut(usize),
    ) {
        debug_assert_eq!(points.len(), self.domain, "index/point-slice mismatch");
        let cq = Self::center_coords(&center);
        let (lo, hi) = self.query_box(&center, radius);
        // One criterion per query amortizes its sqrt probes over every
        // candidate cell; the per-slot test is then sqrt-free yet makes
        // bitwise the same decisions as `distance.sqrt() <= radius`.
        let crit = crate::simd::radius_criterion(radius);
        self.for_each_candidate_cell(&lo, &hi, &mut |c| {
            self.store
                .for_each_within_sq(self.cell_range(c), &cq, crit, |slot| f(self.ids[slot]));
        });
    }

    /// `center`'s coordinates in the fixed-width form the batch kernels
    /// take (trailing axes zero).
    fn center_coords<P: MetricPoint>(center: &P) -> [f64; 3] {
        center.coords()
    }

    /// [`GridIndex::for_each_in_ball`] addressed by raw coordinates
    /// (trailing axes ignored) instead of a point from the backing slice.
    ///
    /// Exists for the graph repair path, which queries a station's *old*
    /// neighborhood against the pre-repair index while holding the *new*
    /// point slice — a slice whose length may already exceed this index's
    /// domain, so no slice-length contract applies here.
    pub fn for_each_in_ball_at(&self, center: [f64; 3], radius: f64, mut f: impl FnMut(usize)) {
        let (lo, hi) = self.query_box_coords(&center, radius);
        let crit = crate::simd::radius_criterion(radius);
        self.for_each_candidate_cell(&lo, &hi, &mut |c| {
            self.store
                .for_each_within_sq(self.cell_range(c), &center, crit, |slot| f(self.ids[slot]));
        });
    }

    /// Calls `f` with every populated cell whose key lies in the key box
    /// of the axis-aligned cube of half-width `half_width` around `center`
    /// (trailing axes ignored), in lexicographic key order, without
    /// allocating.
    ///
    /// Every indexed point within Chebyshev distance `half_width` of
    /// `center` lies in one of these cells: the box bounds are the floors
    /// of the rounded cube faces, the point keys the floors of the
    /// rounded point coordinates, and rounding is monotone.
    pub fn for_each_cell_in_box_at(
        &self,
        center: [f64; 3],
        half_width: f64,
        mut f: impl FnMut(usize),
    ) {
        let (lo, hi) = self.query_box_coords(&center, half_width);
        self.for_each_candidate_cell(&lo, &hi, &mut f);
    }

    /// Nearest indexed point to `center` other than `exclude` (pass
    /// `usize::MAX` to exclude nothing). Returns `None` for an empty index or
    /// when the only point is excluded.
    ///
    /// Runs expanding ring searches over the grid, so it is efficient when a
    /// neighbour exists within a few cells, and falls back to a linear scan
    /// otherwise.
    pub fn nearest<P: MetricPoint>(
        &self,
        points: &[P],
        center: P,
        exclude: usize,
    ) -> Option<(usize, f64)> {
        if self.len == 0 || (self.len == 1 && self.ids[0] == exclude) {
            return None;
        }
        // Expanding search: radius doubles until a hit is confirmed closer
        // than the next un-searched shell could be.
        let cq = Self::center_coords(&center);
        let mut radius = self.cell_side;
        for _ in 0..64 {
            let mut best: Option<(usize, f64)> = None;
            let (lo, hi) = self.query_box(&center, radius);
            self.for_each_candidate_cell(&lo, &hi, &mut |c| {
                for slot in self.cell_range(c) {
                    let i = self.ids[slot];
                    if i == exclude {
                        continue;
                    }
                    let d = self.store.distance_sq_to(slot, &cq).sqrt();
                    if best.map_or(true, |(_, bd)| d < bd) {
                        best = Some((i, d));
                    }
                }
            });
            if let Some((i, d)) = best {
                if d <= radius {
                    return Some((i, d));
                }
            }
            radius *= 2.0;
        }
        // Fallback: exhaustive scan over the *indexed* points
        // (pathological coordinate spread; masked-out points stay
        // invisible here too).
        self.ids
            .iter()
            .copied()
            .filter(|&i| i != exclude)
            .map(|i| (i, points[i].distance(&center)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Cell-key bounding box of the ball `B(center, radius)`.
    fn query_box<P: MetricPoint>(&self, center: &P, radius: f64) -> (CellKey, CellKey) {
        debug_assert_eq!(P::AXES, self.axes, "point dimensionality mismatch");
        self.query_box_coords(&Self::center_coords(center), radius)
    }

    /// [`GridIndex::query_box`] over raw coordinates.
    fn query_box_coords(&self, center: &[f64; 3], radius: f64) -> (CellKey, CellKey) {
        let mut lo = [0i64; 3];
        let mut hi = [0i64; 3];
        for axis in 0..self.axes {
            lo[axis] = ((center[axis] - radius) / self.cell_side).floor() as i64;
            hi[axis] = ((center[axis] + radius) / self.cell_side).floor() as i64;
        }
        (lo, hi)
    }

    /// Calls `f` with the index of every populated cell whose key lies in
    /// the box `[lo, hi]`, in lexicographic key order.
    fn for_each_candidate_cell(&self, lo: &CellKey, hi: &CellKey, f: &mut impl FnMut(usize)) {
        // Guard against enormous radii relative to cell side: cap the cell
        // walk at the number of populated cells by scanning the sorted list.
        let box_cells: i128 = (0..self.axes)
            .map(|a| (hi[a] - lo[a] + 1) as i128)
            .product();
        if box_cells > self.keys.len() as i128 {
            for (c, key) in self.keys.iter().enumerate() {
                if (0..self.axes).all(|a| key[a] >= lo[a] && key[a] <= hi[a]) {
                    f(c);
                }
            }
            return;
        }
        let mut key = [0i64; 3];
        self.walk_cells(&mut key, 0, lo, hi, f);
    }

    fn walk_cells(
        &self,
        key: &mut CellKey,
        axis: usize,
        lo: &CellKey,
        hi: &CellKey,
        f: &mut impl FnMut(usize),
    ) {
        if axis + 1 == self.axes {
            // The last axis: a row's populated cells are contiguous in key
            // order, so one search finds its first cell and a scan the rest.
            key[axis] = lo[axis];
            let first = self.keys.partition_point(|k| k < key);
            for (c, k) in self.keys.iter().enumerate().skip(first) {
                if k[..axis] != key[..axis] || k[axis] > hi[axis] {
                    break;
                }
                f(c);
            }
            return;
        }
        for v in lo[axis]..=hi[axis] {
            key[axis] = v;
            self.walk_cells(key, axis + 1, lo, hi, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{Point1, Point2, Point3};
    use rand::{Rng, SeedableRng, SmallRng};

    fn brute_ball<P: MetricPoint>(points: &[P], center: P, radius: f64) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(&center) <= radius)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn empty_index() {
        let pts: Vec<Point2> = vec![];
        let idx = GridIndex::build(&pts, 1.0);
        assert!(idx.is_empty());
        assert_eq!(idx.num_cells(), 0);
        assert_eq!(
            idx.ball_vec(&pts, Point2::origin(), 10.0),
            Vec::<usize>::new()
        );
        assert_eq!(idx.nearest(&pts, Point2::origin(), usize::MAX), None);
    }

    #[test]
    fn single_point() {
        let pts = vec![Point2::new(0.5, 0.5)];
        let idx = GridIndex::build(&pts, 1.0);
        assert_eq!(idx.ball_vec(&pts, Point2::origin(), 1.0), vec![0]);
        assert_eq!(
            idx.ball_vec(&pts, Point2::origin(), 0.1),
            Vec::<usize>::new()
        );
        assert_eq!(idx.nearest(&pts, Point2::origin(), 0), None);
    }

    #[test]
    fn boundary_point_included() {
        // Distance exactly equal to the radius must be included (<=).
        let pts = vec![Point2::new(1.0, 0.0)];
        let idx = GridIndex::build(&pts, 1.0);
        assert_eq!(idx.ball_vec(&pts, Point2::origin(), 1.0), vec![0]);
    }

    #[test]
    fn negative_coordinates() {
        let pts = vec![
            Point2::new(-3.7, -2.2),
            Point2::new(-3.6, -2.2),
            Point2::new(4.0, 4.0),
        ];
        let idx = GridIndex::build(&pts, 1.0);
        assert_eq!(
            idx.ball_vec(&pts, Point2::new(-3.65, -2.2), 0.2),
            vec![0, 1]
        );
    }

    #[test]
    fn nearest_simple() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(5.0, 5.0),
        ];
        let idx = GridIndex::build(&pts, 1.0);
        let (i, d) = idx
            .nearest(&pts, Point2::new(0.9, 0.0), usize::MAX)
            .unwrap();
        assert_eq!(i, 1);
        assert!((d - 0.1).abs() < 1e-12);
        // excluding the nearest returns the next one
        let (i2, _) = idx.nearest(&pts, Point2::new(0.9, 0.0), 1).unwrap();
        assert_eq!(i2, 0);
    }

    #[test]
    fn nearest_far_point() {
        // Point much farther than one cell: expanding search must find it.
        let pts = vec![Point2::new(100.0, 100.0)];
        let idx = GridIndex::build(&pts, 1.0);
        let (i, d) = idx.nearest(&pts, Point2::origin(), usize::MAX).unwrap();
        assert_eq!(i, 0);
        assert!((d - (2.0f64).sqrt() * 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_cell_side_panics() {
        let pts = vec![Point2::origin()];
        let _ = GridIndex::build(&pts, 0.0);
    }

    #[test]
    fn works_in_1d_and_3d() {
        let pts1 = vec![Point1::new(0.0), Point1::new(0.9), Point1::new(2.0)];
        let idx1 = GridIndex::build(&pts1, 1.0);
        assert_eq!(idx1.ball_vec(&pts1, Point1::new(0.0), 1.0), vec![0, 1]);

        let pts3 = vec![Point3::new(0.0, 0.0, 0.0), Point3::new(0.5, 0.5, 0.5)];
        let idx3 = GridIndex::build(&pts3, 1.0);
        assert_eq!(idx3.ball_vec(&pts3, Point3::origin(), 1.0), vec![0, 1]);
    }

    #[test]
    fn huge_radius_uses_list_scan() {
        let pts: Vec<Point2> = (0..50)
            .map(|i| Point2::new(i as f64 * 0.1, (i % 7) as f64 * 0.1))
            .collect();
        let idx = GridIndex::build(&pts, 0.01); // tiny cells => bounding box huge
        let got = idx.ball_vec(&pts, Point2::origin(), 1e6);
        assert_eq!(got.len(), 50);
    }

    #[test]
    fn ball_count_matches_ball_len() {
        let pts: Vec<Point2> = (0..100)
            .map(|i| Point2::new((i as f64 * 0.37).sin() * 5.0, (i as f64 * 0.73).cos() * 5.0))
            .collect();
        let idx = GridIndex::build(&pts, 1.0);
        for r in [0.1, 0.5, 1.0, 3.0] {
            assert_eq!(
                idx.ball_count(&pts, Point2::origin(), r),
                idx.ball_vec(&pts, Point2::origin(), r).len()
            );
        }
    }

    #[test]
    fn cells_are_sorted_and_partition_the_points() {
        let pts: Vec<Point2> = (0..60)
            .map(|i| Point2::new((i % 9) as f64 * 0.7, (i / 9) as f64 * 0.7))
            .collect();
        let idx = GridIndex::build(&pts, 1.0);
        let mut seen = Vec::new();
        for c in 0..idx.num_cells() {
            if c > 0 {
                assert!(idx.cell_key(c - 1) < idx.cell_key(c), "keys sorted");
            }
            let members = idx.cell_members(c);
            assert!(!members.is_empty(), "only populated cells are stored");
            assert!(members.windows(2).all(|w| w[0] < w[1]), "members ascending");
            for &i in members {
                assert_eq!(idx.key_for(&pts[i]), idx.cell_key(c));
            }
            seen.extend_from_slice(members);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..60).collect::<Vec<_>>(), "cells partition points");
        assert_eq!(idx.members_of(&[1000, 1000, 0]), &[] as &[usize]);
    }

    #[test]
    fn slots_store_and_centroids_are_consistent() {
        let pts: Vec<Point2> = (0..60)
            .map(|i| Point2::new((i % 9) as f64 * 0.7 - 2.0, (i / 9) as f64 * 0.7))
            .collect();
        let idx = GridIndex::build(&pts, 1.0);
        assert_eq!(idx.slot_ids().len(), pts.len());
        assert_eq!(idx.positions().len(), pts.len());
        for c in 0..idx.num_cells() {
            let range = idx.cell_range(c);
            assert_eq!(&idx.slot_ids()[range.clone()], idx.cell_members(c));
            // Store slots mirror the member coordinates exactly.
            let mut cent = [0.0f64; 3];
            for slot in range.clone() {
                let p = pts[idx.slot_ids()[slot]];
                assert_eq!(idx.positions().coord(slot, 0), p.x);
                assert_eq!(idx.positions().coord(slot, 1), p.y);
                cent[0] += p.x;
                cent[1] += p.y;
            }
            let inv = 1.0 / range.len() as f64;
            for v in &mut cent {
                *v *= inv;
            }
            // Bitwise: the same summation order and scaling as build().
            for (axis, want) in cent.iter().enumerate() {
                assert_eq!(
                    idx.cell_centroid(c)[axis].to_bits(),
                    want.to_bits(),
                    "cell {c} axis {axis}"
                );
            }
        }
    }

    #[test]
    fn visitor_matches_ball_contents() {
        let pts: Vec<Point2> = (0..80)
            .map(|i| Point2::new((i as f64 * 0.41).sin() * 4.0, (i as f64 * 0.59).cos() * 4.0))
            .collect();
        let idx = GridIndex::build(&pts, 0.8);
        for r in [0.3, 1.0, 2.5, 50.0] {
            let mut visited = Vec::new();
            idx.for_each_in_ball(&pts, Point2::new(0.2, -0.1), r, |i| visited.push(i));
            visited.sort_unstable();
            assert_eq!(visited, idx.ball_vec(&pts, Point2::new(0.2, -0.1), r));
        }
    }

    /// The box walk visits exactly the populated cells whose keys lie in
    /// the box, in key order, so it covers every point within Chebyshev
    /// distance `half_width` of the center.
    fn check_box_walk<P: MetricPoint>(pts: &[P], side: f64, centers: &[P]) {
        let idx = GridIndex::build(pts, side);
        for center in centers {
            for half_width in [0.2, 1.0, 1.0 + 1e-9, 2.7, 1e3] {
                let mut visited = Vec::new();
                idx.for_each_cell_in_box_at(center.coords(), half_width, |c| visited.push(c));
                let (lo, hi) = idx.query_box(center, half_width);
                let expected: Vec<usize> = (0..idx.num_cells())
                    .filter(|&c| {
                        let k = idx.cell_key(c);
                        (0..P::AXES).all(|a| k[a] >= lo[a] && k[a] <= hi[a])
                    })
                    .collect();
                assert_eq!(visited, expected, "half-width {half_width}");
                for p in pts {
                    let cheb = (0..P::AXES)
                        .map(|a| (p.coord(a) - center.coord(a)).abs())
                        .fold(0.0, f64::max);
                    if cheb <= half_width {
                        let key = idx.key_for(p);
                        let c = idx.keys.binary_search(&key).unwrap();
                        assert!(visited.contains(&c), "point in reach outside the walk");
                    }
                }
            }
        }
    }

    #[test]
    fn box_walk_visits_exactly_the_cells_in_the_key_box() {
        let mut rng = SmallRng::seed_from_u64(21);
        let mut coord = || rng.gen_range(-3.0..3.0);
        let pts1: Vec<Point1> = (0..60).map(|_| Point1::new(coord())).collect();
        let pts2: Vec<Point2> = (0..200).map(|_| Point2::new(coord(), coord())).collect();
        let pts3: Vec<Point3> = (0..300)
            .map(|_| Point3::new(coord(), coord(), coord()))
            .collect();
        for side in [0.5, 1.0, 2.0] {
            check_box_walk(&pts1, side, &pts1[..8]);
            check_box_walk(&pts2, side, &pts2[..8]);
            check_box_walk(&pts3, side, &pts3[..8]);
        }
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        let mut pts: Vec<Point2> = (0..90)
            .map(|i| Point2::new((i as f64 * 0.43).sin() * 4.0, (i as f64 * 0.61).cos() * 4.0))
            .collect();
        let mut idx = GridIndex::build(&pts, 1.0);
        for step in 0..5 {
            for (i, p) in pts.iter_mut().enumerate() {
                p.x += ((i + step) % 5) as f64 * 0.21 - 0.4;
                p.y -= ((i * 3 + step) % 7) as f64 * 0.13 - 0.35;
            }
            idx.rebuild_from(&pts);
            let fresh = GridIndex::build(&pts, 1.0);
            assert_eq!(idx, fresh, "step {step}");
            // Queries through the rebuilt index agree with brute force.
            let got = idx.ball_vec(&pts, Point2::origin(), 2.0);
            assert_eq!(got, brute_ball(&pts, Point2::origin(), 2.0));
        }
    }

    #[test]
    fn rebuild_handles_shrinking_and_growing_point_sets() {
        let big: Vec<Point2> = (0..60).map(|i| Point2::new(i as f64 * 0.3, 0.0)).collect();
        let small: Vec<Point2> = big[..10].to_vec();
        let mut idx = GridIndex::build(&big, 1.0);
        idx.rebuild_from(&small);
        assert_eq!(idx.len(), 10);
        assert_eq!(idx, GridIndex::build(&small, 1.0));
        idx.rebuild_from(&big);
        assert_eq!(idx.len(), 60);
        assert_eq!(idx, GridIndex::build(&big, 1.0));
    }

    #[test]
    fn masked_build_hides_dead_points_but_keeps_indices() {
        let pts: Vec<Point2> = (0..40).map(|i| Point2::new(i as f64 * 0.3, 0.0)).collect();
        let alive: Vec<bool> = (0..40).map(|i| i % 3 != 0).collect();
        let idx = GridIndex::build_masked(&pts, &alive, 1.0);
        assert_eq!(idx.len(), alive.iter().filter(|&&a| a).count());
        assert_eq!(idx.domain_len(), 40);
        // Ball queries report original indices and never a dead point.
        let got = idx.ball_vec(&pts, Point2::origin(), 100.0);
        let want: Vec<usize> = (0..40).filter(|&i| alive[i]).collect();
        assert_eq!(got, want);
        // Nearest skips dead points too (index 0 is dead; 1 is closest).
        let (i, _) = idx
            .nearest(&pts, Point2::new(0.0, 0.0), usize::MAX)
            .unwrap();
        assert_eq!(i, 1);
    }

    #[test]
    fn masked_rebuild_matches_masked_fresh_build_bitwise() {
        let mut pts: Vec<Point2> = (0..90)
            .map(|i| Point2::new((i as f64 * 0.43).sin() * 4.0, (i as f64 * 0.61).cos() * 4.0))
            .collect();
        let mut alive = vec![true; 90];
        let mut idx = GridIndex::build(&pts, 1.0);
        for step in 0..5usize {
            for (i, p) in pts.iter_mut().enumerate() {
                p.x += ((i + step) % 5) as f64 * 0.21 - 0.4;
            }
            for (i, a) in alive.iter_mut().enumerate() {
                *a = (i * 7 + step) % 4 != 0;
            }
            idx.rebuild_from_masked(&pts, &alive);
            assert_eq!(
                idx,
                GridIndex::build_masked(&pts, &alive, 1.0),
                "step {step}"
            );
            // And against an unmasked fresh build of the compacted live
            // subset: identical keys/offsets/coordinates, index-mapped ids.
            let live: Vec<Point2> = pts
                .iter()
                .zip(&alive)
                .filter(|(_, &a)| a)
                .map(|(p, _)| *p)
                .collect();
            let compact = GridIndex::build(&live, 1.0);
            assert_eq!(idx.num_cells(), compact.num_cells());
            let mut map = vec![usize::MAX; pts.len()];
            let mut next = 0;
            for (i, &a) in alive.iter().enumerate() {
                if a {
                    map[i] = next;
                    next += 1;
                }
            }
            for c in 0..idx.num_cells() {
                assert_eq!(idx.cell_key(c), compact.cell_key(c));
                assert_eq!(idx.cell_range(c), compact.cell_range(c));
                for axis in 0..2 {
                    assert_eq!(
                        idx.cell_centroid(c)[axis].to_bits(),
                        compact.cell_centroid(c)[axis].to_bits()
                    );
                }
                let mapped: Vec<usize> = idx.cell_members(c).iter().map(|&i| map[i]).collect();
                assert_eq!(mapped, compact.cell_members(c));
            }
            for slot in 0..idx.len() {
                for axis in 0..2 {
                    assert_eq!(
                        idx.positions().coord(slot, axis).to_bits(),
                        compact.positions().coord(slot, axis).to_bits()
                    );
                }
            }
        }
    }

    fn scatter(n: usize, scale: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                Point2::new(
                    (i as f64 * 0.43).sin() * scale,
                    (i as f64 * 0.61).cos() * scale,
                )
            })
            .collect()
    }

    #[test]
    fn repair_same_cell_moves_match_fresh_build() {
        let mut pts = scatter(120, 5.0);
        let mut idx = GridIndex::build(&pts, 1.0);
        // Nudge a few stations by less than anything that could change
        // their cell (coordinates well inside the cell interior).
        let moved = [3usize, 40, 77];
        for &i in &moved {
            pts[i].x = pts[i].x.floor() + 0.5 + (i as f64) * 1e-3;
            pts[i].y = pts[i].y.floor() + 0.5;
        }
        idx.repair_with_policy(&moved, &pts, None, RepairPolicy::AlwaysIncremental);
        assert_eq!(idx, GridIndex::build(&pts, 1.0));
    }

    #[test]
    fn repair_cross_cell_moves_match_fresh_build() {
        let mut pts = scatter(120, 5.0);
        let mut idx = GridIndex::build(&pts, 1.0);
        let moved = [0usize, 13, 59, 118];
        for &i in &moved {
            pts[i].x += 3.25;
            pts[i].y -= 2.5;
        }
        idx.repair_with_policy(&moved, &pts, None, RepairPolicy::AlwaysIncremental);
        assert_eq!(idx, GridIndex::build(&pts, 1.0));
    }

    #[test]
    fn repair_kills_rejoins_and_spawns_match_fresh_build() {
        let mut pts = scatter(100, 5.0);
        let mut alive = vec![true; 100];
        alive[17] = false; // starts dead, rejoins below
        let mut idx = GridIndex::build_masked(&pts, &alive, 1.0);
        // Kill two, revive one (at a new position), spawn three.
        alive[4] = false;
        alive[62] = false;
        alive[17] = true;
        pts[17] = Point2::new(-3.3, 4.1);
        pts.push(Point2::new(0.05, 0.05));
        pts.push(Point2::new(-4.9, -4.9));
        pts.push(Point2::new(2.5, 2.5));
        alive.extend([true, true, false]);
        // Spawns are picked up without being listed in `moved`.
        idx.repair_with_policy(
            &[4, 62, 17],
            &pts,
            Some(&alive),
            RepairPolicy::AlwaysIncremental,
        );
        assert_eq!(idx, GridIndex::build_masked(&pts, &alive, 1.0));
    }

    #[test]
    fn repair_skips_unchanged_listings() {
        let pts = scatter(80, 5.0);
        let mut idx = GridIndex::build(&pts, 1.0);
        // Every station listed, none actually changed: a no-op.
        let all: Vec<usize> = (0..pts.len()).collect();
        idx.repair_with_policy(&all, &pts, None, RepairPolicy::AlwaysIncremental);
        assert_eq!(idx, GridIndex::build(&pts, 1.0));
    }

    #[test]
    fn repair_auto_policy_falls_back_on_dense_deltas() {
        let mut pts = scatter(100, 5.0);
        let mut idx = GridIndex::build(&pts, 1.0);
        // Move over half the population: Auto must take the full-rebuild
        // path and still land bit-identical.
        let moved: Vec<usize> = (0..60).collect();
        for &i in &moved {
            pts[i].x += 1.75;
        }
        idx.repair(&moved, &pts, None);
        assert_eq!(idx, GridIndex::build(&pts, 1.0));
    }

    #[test]
    fn repair_randomized_interleavings_match_fresh_builds() {
        let mut rng = SmallRng::seed_from_u64(0x5e9a12);
        let mut pts = scatter(150, 6.0);
        let mut alive = vec![true; pts.len()];
        let mut idx = GridIndex::build_masked(&pts, &alive, 0.9);
        for step in 0..40 {
            let mut moved = Vec::new();
            // Random mix of moves (small and large), kills, rejoins, spawns.
            for _ in 0..rng.gen_range(0..12usize) {
                let i = rng.gen_range(0..pts.len());
                moved.push(i);
                match rng.gen_range(0..4u32) {
                    0 => {
                        pts[i].x += rng.gen_range(-0.2..0.2);
                        pts[i].y += rng.gen_range(-0.2..0.2);
                    }
                    1 => {
                        pts[i].x += rng.gen_range(-4.0..4.0);
                        pts[i].y += rng.gen_range(-4.0..4.0);
                    }
                    2 => alive[i] = false,
                    _ => alive[i] = true,
                }
            }
            for _ in 0..rng.gen_range(0..3usize) {
                pts.push(Point2::new(
                    rng.gen_range(-6.0..6.0),
                    rng.gen_range(-6.0..6.0),
                ));
                alive.push(rng.gen_range(0..4u32) != 0);
            }
            idx.repair_with_policy(&moved, &pts, Some(&alive), RepairPolicy::AlwaysIncremental);
            assert_eq!(
                idx,
                GridIndex::build_masked(&pts, &alive, 0.9),
                "step {step}"
            );
            // slot_of stays the exact inverse of slot_ids.
            for (s, &i) in idx.slot_ids().iter().enumerate() {
                assert_eq!(idx.slot_of(i), Some(s));
            }
            for (i, &live) in alive.iter().enumerate() {
                if !live {
                    assert_eq!(idx.slot_of(i), None);
                }
            }
        }
    }

    #[test]
    fn repair_then_query_matches_brute_force() {
        let mut pts = scatter(90, 4.0);
        let mut idx = GridIndex::build(&pts, 0.8);
        let moved = [5usize, 25, 45, 65, 85];
        for &i in &moved {
            pts[i].x -= 2.1;
            pts[i].y += 1.3;
        }
        idx.repair_with_policy(&moved, &pts, None, RepairPolicy::AlwaysIncremental);
        let got = idx.ball_vec(&pts, Point2::new(0.3, -0.2), 2.0);
        assert_eq!(got, brute_ball(&pts, Point2::new(0.3, -0.2), 2.0));
    }

    #[test]
    #[should_panic]
    fn masked_build_rejects_short_mask() {
        let pts = vec![Point2::origin(), Point2::new(1.0, 0.0)];
        let _ = GridIndex::build_masked(&pts, &[true], 1.0);
    }

    #[test]
    #[should_panic]
    fn rebuild_rejects_dimension_change() {
        let pts2 = vec![Point2::origin()];
        let mut idx = GridIndex::build(&pts2, 1.0);
        let pts3 = vec![Point3::origin()];
        idx.rebuild_from(&pts3);
    }

    // Randomized property checks below run seeded loops (the offline
    // build has no proptest); every case replays from its case id.

    #[test]
    fn grid_matches_brute_force_2d() {
        for case in 0u64..48 {
            let mut rng = SmallRng::seed_from_u64(0x6D1D_2001 + case);
            let n = rng.gen_range(0usize..120);
            let pts: Vec<Point2> = (0..n)
                .map(|_| Point2::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)))
                .collect();
            let center = Point2::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
            let radius = rng.gen_range(0.01..20.0);
            let cell = rng.gen_range(0.1..5.0);
            let idx = GridIndex::build(&pts, cell);
            let got = idx.ball_vec(&pts, center, radius);
            let want = brute_ball(&pts, center, radius);
            assert_eq!(got, want, "case {case}");
        }
    }

    #[test]
    fn grid_matches_brute_force_1d() {
        for case in 0u64..48 {
            let mut rng = SmallRng::seed_from_u64(0x6D1D_3001 + case);
            let n = rng.gen_range(0usize..80);
            let pts: Vec<Point1> = (0..n)
                .map(|_| Point1::new(rng.gen_range(-100.0..100.0)))
                .collect();
            let center = Point1::new(rng.gen_range(-100.0..100.0));
            let radius = rng.gen_range(0.01..30.0);
            let idx = GridIndex::build(&pts, 1.0);
            let got = idx.ball_vec(&pts, center, radius);
            let want = brute_ball(&pts, center, radius);
            assert_eq!(got, want, "case {case}");
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        for case in 0u64..48 {
            let mut rng = SmallRng::seed_from_u64(0x6D1D_4001 + case);
            let n = rng.gen_range(1usize..60);
            let pts: Vec<Point2> = (0..n)
                .map(|_| Point2::new(rng.gen_range(-20.0..20.0), rng.gen_range(-20.0..20.0)))
                .collect();
            let center = Point2::new(rng.gen_range(-20.0..20.0), rng.gen_range(-20.0..20.0));
            let idx = GridIndex::build(&pts, 1.0);
            let (_, got_d) = idx.nearest(&pts, center, usize::MAX).unwrap();
            let want_d = pts
                .iter()
                .map(|p| p.distance(&center))
                .fold(f64::INFINITY, f64::min);
            assert!((got_d - want_d).abs() < 1e-9, "case {case}");
        }
    }

    #[test]
    fn triangle_inequality() {
        for case in 0u64..64 {
            let mut rng = SmallRng::seed_from_u64(0x6D1D_5001 + case);
            let mut draw = || Point2::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3));
            let (a, b, c) = (draw(), draw(), draw());
            assert!(
                a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9,
                "case {case}"
            );
            assert!(
                (a.distance(&b) - b.distance(&a)).abs() < 1e-12,
                "case {case}"
            );
        }
    }
}
