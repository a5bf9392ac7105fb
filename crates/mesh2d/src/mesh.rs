//! The mesh occupancy grid.

use crate::coord::Coord;
use crate::submesh::SubMesh;

/// Bits per word of a row's free mask.
pub(crate) const WORD: usize = 64;

/// A `W × L` 2D mesh occupancy grid.
///
/// Tracks which processors are allocated and maintains a free-processor
/// count. This is the single source of truth allocation strategies mutate;
/// the invariant that a strategy never double-allocates, double-frees or
/// touches a processor outside the mesh is enforced here with assertions
/// in every build.
///
/// Occupancy is kept as one **free-bit mask per row**: row `y` is
/// `ceil(W / 64)` `u64` words, bit `x % 64` of word `x / 64` is set when
/// processor `(x, y)` is free, and the bits past column `W − 1` in a
/// row's last word are always clear. Occupying or releasing a sub-mesh
/// clears or sets one bit range per row. The free-rectangle searches in
/// [`crate::rect`] stack rows with a word-wise AND and find free runs
/// with `trailing_zeros` on a mask and its complement, so neither the
/// bookkeeping nor the searches do per-processor work — see
/// `docs/PERFORMANCE.md`.
///
/// On top of the masks the mesh maintains O(1) **state epochs** and
/// **free-space watermarks** for the scheduling hot loop:
///
/// * [`Mesh::epoch`] / [`Mesh::release_epoch`] — counters advanced by
///   every occupancy change / every release, letting callers detect "has
///   the mesh changed (in a way that could help a failed request) since I
///   last looked" without diffing any state.
/// * [`Mesh::max_free_run`] / [`Mesh::free_rows`] — an upper bound on the
///   dimensions of any free rectangle (no free rectangle can be wider
///   than the longest free run in any row, nor taller than the number of
///   rows containing a free cell). [`Mesh::could_fit_rect`] combines them
///   with the free count into an O(1) *necessary-condition* test that
///   rejects contiguous requests without a search.
#[derive(Debug, Clone)]
pub struct Mesh {
    w: u16,
    l: u16,
    /// Words per row mask: `ceil(W / 64)`.
    words: usize,
    /// The row free masks, row-major, `words` words per row.
    bits: Vec<u64>,
    free: u32,
    /// Advanced by one per processor occupied or released.
    epoch: u64,
    /// Advanced by one per processor released only. A request that failed
    /// at release-epoch `e` keeps failing while the release epoch is still
    /// `e`: occupies only shrink free space, and every strategy's failure
    /// condition is monotone under shrinking free space.
    release_epoch: u64,
    /// Watermark: per-row longest free run (0 = row fully occupied),
    /// recomputed from the row's mask whenever the row changes.
    row_max_run: Vec<u16>,
    /// Watermark: `max(row_max_run)`.
    max_free_run: u16,
    /// Watermark: number of rows with at least one free cell.
    free_rows: u16,
}

/// The bits of columns `x0..=x1` that fall in word `i` of a row mask
/// (`x0 / 64 <= i <= x1 / 64`).
#[inline]
fn span_mask(i: usize, x0: usize, x1: usize) -> u64 {
    let lo = i * WORD;
    let a = x0.max(lo) - lo;
    let b = x1.min(lo + WORD - 1) - lo;
    (!0u64 << a) & (!0u64 >> (WORD - 1 - b))
}

/// The first column at or after `from` whose bit in `row` is set, or
/// (with `clear`) whose bit is clear; `None` past the row's last word.
#[inline]
fn scan(row: &[u64], from: usize, clear: bool) -> Option<usize> {
    let flip = if clear { !0u64 } else { 0 };
    let mut i = from / WORD;
    let mut word = (*row.get(i)? ^ flip) & (!0u64 << (from % WORD));
    loop {
        if word != 0 {
            return Some(i * WORD + word.trailing_zeros() as usize);
        }
        i += 1;
        word = *row.get(i)? ^ flip;
    }
}

/// The maximal runs of set bits in a row mask, as inclusive `(start,
/// end)` column pairs in ascending order. Relies on the bits past the
/// row's width being clear.
pub(crate) fn runs(row: &[u64]) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let start = scan(row, pos, false)?;
        pos = scan(row, start, true).unwrap_or(row.len() * WORD);
        Some((start, pos - 1))
    })
}

/// The longest run of set bits in a row mask.
fn longest_run(row: &[u64]) -> u16 {
    runs(row).map(|(a, b)| (b - a + 1) as u16).max().unwrap_or(0)
}

impl Mesh {
    /// Creates an empty (all-free) `w × l` mesh.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(w: u16, l: u16) -> Self {
        assert!(w > 0 && l > 0, "mesh dimensions must be positive");
        let words = (w as usize).div_ceil(WORD);
        let mut mesh = Mesh {
            w,
            l,
            words,
            bits: vec![0; words * l as usize],
            free: 0,
            epoch: 0,
            release_epoch: 0,
            row_max_run: vec![0; l as usize],
            max_free_run: 0,
            free_rows: 0,
        };
        mesh.fill_free();
        mesh
    }

    /// Mesh width `W` (x extent).
    #[inline]
    pub fn width(&self) -> u16 {
        self.w
    }

    /// Mesh length `L` (y extent).
    #[inline]
    pub fn length(&self) -> u16 {
        self.l
    }

    /// Total number of processors `W × L`.
    #[inline]
    pub fn size(&self) -> u32 {
        self.w as u32 * self.l as u32
    }

    /// Number of currently free processors.
    #[inline]
    pub fn free_count(&self) -> u32 {
        self.free
    }

    /// Number of currently allocated processors.
    #[inline]
    pub fn used_count(&self) -> u32 {
        self.size() - self.free
    }

    /// Fraction of processors currently allocated, in `[0, 1]`.
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.used_count() as f64 / self.size() as f64
    }

    /// Whether `c` is a valid coordinate of this mesh.
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        c.x < self.w && c.y < self.l
    }

    /// Whether `s` lies entirely within this mesh.
    #[inline]
    pub fn contains_submesh(&self, s: &SubMesh) -> bool {
        self.contains(s.base) && self.contains(s.end)
    }

    /// The sub-mesh covering the whole machine.
    #[inline]
    pub fn full_submesh(&self) -> SubMesh {
        SubMesh::from_base_size(Coord::new(0, 0), self.w, self.l)
    }

    /// The free mask of row `y` (`ceil(W / 64)` words, set bit = free).
    #[inline]
    pub(crate) fn row(&self, y: u16) -> &[u64] {
        &self.bits[y as usize * self.words..][..self.words]
    }

    /// Whether the processor at `c` is allocated.
    ///
    /// # Panics
    /// Panics (in all builds) if `c` lies outside the mesh.
    #[inline]
    pub fn is_occupied(&self, c: Coord) -> bool {
        !self.is_free(c)
    }

    /// Whether the processor at `c` is free.
    ///
    /// # Panics
    /// Panics (in all builds) if `c` lies outside the mesh.
    #[inline]
    pub fn is_free(&self, c: Coord) -> bool {
        assert!(self.contains(c), "coordinate {c} outside {}x{} mesh", self.w, self.l);
        let x = c.x as usize;
        self.row(c.y)[x / WORD] >> (x % WORD) & 1 == 1
    }

    /// Marks a single processor allocated.
    ///
    /// # Panics
    /// Panics (in all builds) if the processor is already allocated or
    /// lies outside the mesh: either is always a strategy bug.
    pub fn occupy(&mut self, c: Coord) {
        assert!(self.contains(c), "coordinate {c} outside {}x{} mesh", self.w, self.l);
        self.update(&SubMesh::from_base_size(c, 1, 1), true);
    }

    /// Marks a single processor free.
    ///
    /// # Panics
    /// Panics (in all builds) if the processor is already free or lies
    /// outside the mesh.
    pub fn release(&mut self, c: Coord) {
        assert!(self.contains(c), "coordinate {c} outside {}x{} mesh", self.w, self.l);
        self.update(&SubMesh::from_base_size(c, 1, 1), false);
    }

    /// Allocates every processor of `s`.
    ///
    /// # Panics
    /// Panics if any processor of `s` is already allocated or out of bounds.
    pub fn occupy_submesh(&mut self, s: &SubMesh) {
        assert!(self.contains_submesh(s), "sub-mesh {s} outside mesh");
        self.update(s, true);
        #[cfg(feature = "invariants")]
        self.check_index_consistency();
    }

    /// Frees every processor of `s`.
    ///
    /// # Panics
    /// Panics if any processor of `s` is already free or out of bounds.
    pub fn release_submesh(&mut self, s: &SubMesh) {
        assert!(self.contains_submesh(s), "sub-mesh {s} outside mesh");
        self.update(s, false);
        #[cfg(feature = "invariants")]
        self.check_index_consistency();
    }

    /// Clears (`occupy`) or sets the free bits of `s` — one bit range per
    /// row — then refreshes the changed rows' longest runs, the counters
    /// and the watermarks. `s` must lie inside the mesh.
    fn update(&mut self, s: &SubMesh, occupy: bool) {
        let (x0, x1) = (s.base.x as usize, s.end.x as usize);
        for y in s.base.y..=s.end.y {
            let start = y as usize * self.words;
            let row = &mut self.bits[start..start + self.words];
            for (i, word) in row.iter_mut().enumerate().take(x1 / WORD + 1).skip(x0 / WORD) {
                let m = span_mask(i, x0, x1);
                // the cells of the span that are already in the target state
                let wrong = if occupy { m & !*word } else { m & *word };
                if wrong != 0 {
                    let x = i * WORD + wrong.trailing_zeros() as usize;
                    let c = Coord::new(x as u16, y);
                    if occupy {
                        panic!("double allocation of {c}");
                    }
                    panic!("double free of {c}");
                }
                *word ^= m;
            }
            inv_assert!(
                row[self.words - 1] & !span_mask(self.words - 1, 0, self.w as usize - 1) == 0,
                "row {y} has a free bit past column {}",
                self.w - 1
            );
            self.row_max_run[y as usize] = longest_run(row);
        }
        let n = s.size();
        if occupy {
            self.free -= n;
        } else {
            self.free += n;
            self.release_epoch += u64::from(n);
        }
        self.epoch += u64::from(n);
        self.recount_watermarks();
    }

    /// Recomputes `max_free_run` and `free_rows` from `row_max_run`, O(L).
    fn recount_watermarks(&mut self) {
        self.max_free_run = self.row_max_run.iter().copied().max().unwrap_or(0);
        // procsim-lint: allow(D005): at most L rows, and L is a u16
        self.free_rows = self.row_max_run.iter().filter(|&&r| r > 0).count() as u16;
    }

    /// State epoch: advanced by every occupy and release. Two equal epochs
    /// from the same mesh guarantee identical occupancy.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Release epoch: advanced only when a processor is freed (and on
    /// [`Mesh::clear`]). An allocation request that failed at release
    /// epoch `e` cannot start succeeding while the release epoch is
    /// still `e` — intervening occupies only shrink the free space —
    /// which is what makes shape-keyed failure memoization exact.
    #[inline]
    pub fn release_epoch(&self) -> u64 {
        self.release_epoch
    }

    /// Watermark: the longest free run in any row — an upper bound on
    /// the width of any entirely free rectangle (a free rectangle of
    /// width `w` contains a free run of length ≥ `w` in each of its
    /// rows; conversely the longest run is itself a free `run × 1`
    /// rectangle, so the bound is tight in the width dimension).
    #[inline]
    pub fn max_free_run(&self) -> u16 {
        self.max_free_run
    }

    /// Watermark: the number of rows containing at least one free cell —
    /// an upper bound on the height of any entirely free rectangle.
    #[inline]
    pub fn free_rows(&self) -> u16 {
        self.free_rows
    }

    /// O(1) necessary-condition test for a contiguous `w × l` request:
    /// `false` means **no** entirely free `w × l` sub-mesh exists (the
    /// request exceeds the free area, the mesh bounds, or a free-space
    /// watermark), so a [`crate::rect::find_free_submesh`] search would
    /// certainly fail; `true` means one *may* exist. Callers that accept
    /// either orientation must test both `(w, l)` and `(l, w)`.
    #[inline]
    pub fn could_fit_rect(&self, w: u16, l: u16) -> bool {
        w >= 1
            && l >= 1
            && w <= self.w
            && l <= self.l
            && w as u32 * l as u32 <= self.free
            && w <= self.max_free_run
            && l <= self.free_rows
    }

    /// Whether every processor of `s` is free.
    pub fn submesh_free(&self, s: &SubMesh) -> bool {
        if !self.contains_submesh(s) {
            return false;
        }
        let (x0, x1) = (s.base.x as usize, s.end.x as usize);
        (s.base.y..=s.end.y).all(|y| {
            let row = self.row(y);
            (x0 / WORD..=x1 / WORD).all(|i| {
                let m = span_mask(i, x0, x1);
                row[i] & m == m
            })
        })
    }

    /// Cross-validates the row free masks: no bit may be set past column
    /// `W − 1`, and `free` must equal the masks' popcount; then checks
    /// the watermarks. O(W × L); compiled only under `--features
    /// invariants` and run after every sub-mesh operation
    /// (single-processor churn, e.g. the MC allocator's scatter path, is
    /// validated by the cheap per-op checks instead).
    #[cfg(feature = "invariants")]
    pub fn check_index_consistency(&self) {
        let used = self.w as usize % WORD;
        for y in 0..self.l {
            let last = self.row(y)[self.words - 1];
            assert!(used == 0 || last >> used == 0, "row {y} has a free bit past column {}", self.w - 1);
        }
        let popcount: u32 = self.bits.iter().map(|b| b.count_ones()).sum();
        assert_eq!(self.free, popcount, "free counter out of sync");
        self.check_watermark_consistency();
    }

    /// Cross-validates the free-space watermarks against a brute-force
    /// recount over [`Mesh::is_free`] and against the brute-force largest
    /// free rectangle: per-row longest runs, `max_free_run`, `free_rows`,
    /// and the guarantee that the actual largest free rectangle fits
    /// inside the `max_free_run × free_rows` bound (with the width bound
    /// tight). Compiled only under `--features invariants`; run from
    /// `check_index_consistency` after every sub-mesh operation.
    #[cfg(feature = "invariants")]
    pub fn check_watermark_consistency(&self) {
        let mut max_run = 0u16;
        let mut free_rows = 0u16;
        for y in 0..self.l {
            let (mut run, mut brute) = (0u16, 0u16);
            for x in 0..self.w {
                run = if self.is_free(Coord::new(x, y)) { run + 1 } else { 0 };
                brute = brute.max(run);
            }
            assert_eq!(self.row_max_run[y as usize], brute, "row_max_run[{y}] out of sync");
            max_run = max_run.max(brute);
            free_rows += u16::from(brute > 0);
        }
        assert_eq!(self.max_free_run, max_run, "max_free_run watermark out of sync");
        assert_eq!(self.free_rows, free_rows, "free_rows watermark out of sync");
        match crate::rect::largest_free_rect(self, self.w, self.l) {
            Some(r) => {
                assert!(
                    r.width() <= self.max_free_run && r.length() <= self.free_rows,
                    "largest free rect {}x{} exceeds watermark bound {}x{}",
                    r.width(),
                    r.length(),
                    self.max_free_run,
                    self.free_rows
                );
                // the width bound is tight: the longest free run is
                // itself a free run×1 rectangle, so some free rectangle
                // achieves width == max_free_run
                assert!(
                    self.max_free_run > 0,
                    "free rect exists but max_free_run watermark is 0"
                );
            }
            None => assert_eq!(self.free, 0, "free cells exist but no free rect found"),
        }
    }

    /// Iterates over the coordinates of all free processors in row-major
    /// order.
    pub fn iter_free(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.l).flat_map(move |y| {
            runs(self.row(y)).flat_map(move |(a, b)| {
                (a..=b).map(move |x| Coord::new(x as u16, y))
            })
        })
    }

    /// Number of free processors in columns `x0..=x1` of row `y`: a
    /// popcount of the row's mask under the span.
    ///
    /// # Panics
    /// Panics (in all builds) if the span is empty or lies outside the
    /// mesh.
    pub fn free_in_row_span(&self, y: u16, x0: u16, x1: u16) -> u32 {
        assert!(
            x0 <= x1 && x1 < self.w && y < self.l,
            "row span {x0}..={x1} of row {y} empty or outside {}x{} mesh",
            self.w,
            self.l
        );
        let (x0, x1) = (x0 as usize, x1 as usize);
        let row = self.row(y);
        (x0 / WORD..=x1 / WORD).map(|i| (row[i] & span_mask(i, x0, x1)).count_ones()).sum()
    }

    /// Number of free processors in rows `y0..=y1` of column `x`: one bit
    /// test per row, with one bounds check for the whole span.
    ///
    /// # Panics
    /// Panics (in all builds) if the span is empty or lies outside the
    /// mesh.
    pub fn free_in_col_span(&self, x: u16, y0: u16, y1: u16) -> u32 {
        assert!(
            y0 <= y1 && y1 < self.l && x < self.w,
            "column span {y0}..={y1} of column {x} empty or outside {}x{} mesh",
            self.w,
            self.l
        );
        let (word, bit) = (x as usize / WORD, x as usize % WORD);
        (y0..=y1).map(|y| (self.row(y)[word] >> bit) as u32 & 1).sum()
    }

    /// Sets every row's mask to all-free and resets the free count and
    /// the watermarks to match.
    fn fill_free(&mut self) {
        let last = self.w as usize - 1;
        for row in self.bits.chunks_exact_mut(self.words) {
            for (i, word) in row.iter_mut().enumerate() {
                *word = span_mask(i, 0, last);
            }
        }
        self.free = self.size();
        self.row_max_run.fill(self.w);
        self.max_free_run = self.w;
        self.free_rows = self.l;
    }

    /// Frees every processor, returning the occupancy to its initial
    /// state. The epochs are *not* reset — they keep counting so that
    /// stale epoch values held by callers can never alias a post-clear
    /// state (a clear releases processors, so both epochs advance).
    pub fn clear(&mut self) {
        self.fill_free();
        self.epoch += 1;
        self.release_epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_mesh_all_free() {
        let m = Mesh::new(16, 22);
        assert_eq!(m.size(), 352);
        assert_eq!(m.free_count(), 352);
        assert_eq!(m.used_count(), 0);
        assert!(m.is_free(Coord::new(15, 21)));
        assert_eq!(m.utilization(), 0.0);
    }

    #[test]
    fn occupy_release_submesh_bookkeeping() {
        let mut m = Mesh::new(8, 8);
        let s = SubMesh::from_base_size(Coord::new(2, 2), 3, 4);
        m.occupy_submesh(&s);
        assert_eq!(m.used_count(), 12);
        assert!(s.iter().all(|c| m.is_occupied(c)));
        assert!(!m.submesh_free(&s));
        m.release_submesh(&s);
        assert_eq!(m.used_count(), 0);
        assert!(m.submesh_free(&s));
    }

    #[test]
    #[should_panic(expected = "double allocation")]
    fn double_occupy_panics() {
        let mut m = Mesh::new(4, 4);
        m.occupy(Coord::new(1, 1));
        m.occupy(Coord::new(1, 1));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_release_panics() {
        let mut m = Mesh::new(4, 4);
        m.release(Coord::new(1, 1));
    }

    #[test]
    fn submesh_free_rejects_out_of_bounds() {
        let m = Mesh::new(4, 4);
        let s = SubMesh::from_base_size(Coord::new(3, 3), 2, 2);
        assert!(!m.submesh_free(&s));
    }

    #[test]
    fn paper_fig1_scenario() {
        // Fig. 1: 4x4 mesh where a 2x2 contiguous request fails but 4 free
        // processors exist. Reproduce the shape: occupy everything except
        // 4 processors no two of which form a 2x2 square.
        let mut m = Mesh::new(4, 4);
        let free = [Coord::new(0, 0), Coord::new(3, 0), Coord::new(0, 3), Coord::new(3, 3)];
        for y in 0..4 {
            for x in 0..4 {
                let c = Coord::new(x, y);
                if !free.contains(&c) {
                    m.occupy(c);
                }
            }
        }
        assert_eq!(m.free_count(), 4);
        // no 2x2 free sub-mesh exists
        for y in 0..3 {
            for x in 0..3 {
                let s = SubMesh::from_base_size(Coord::new(x, y), 2, 2);
                assert!(!m.submesh_free(&s));
            }
        }
    }

    #[test]
    fn iter_free_walks_free_cells_in_row_major_order() {
        for w in [5u16, 64, 70] {
            let mut m = Mesh::new(w, 3);
            m.occupy(Coord::new(0, 0));
            m.occupy(Coord::new(w - 1, 2));
            m.occupy_submesh(&SubMesh::from_base_size(Coord::new(1, 1), w - 2, 1));
            let free: Vec<_> = m.iter_free().collect();
            let expected: Vec<_> = (0..3)
                .flat_map(|y| (0..w).map(move |x| Coord::new(x, y)))
                .filter(|&c| m.is_free(c))
                .collect();
            assert_eq!(free, expected, "width {w}");
            assert_eq!(free.len() as u32, m.free_count());
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn occupy_outside_the_mesh_panics() {
        // column 16 of a 16-wide mesh must not alias (0, 1)
        let mut m = Mesh::new(16, 22);
        m.occupy(Coord::new(16, 0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn release_outside_the_mesh_panics() {
        let mut m = Mesh::new(16, 22);
        m.occupy(Coord::new(0, 1));
        m.release(Coord::new(16, 0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn release_past_the_last_row_panics() {
        let mut m = Mesh::new(70, 3);
        m.release(Coord::new(0, 3));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn is_free_outside_the_mesh_panics() {
        // column 16 is a clear padding bit of row 0's word: without the
        // check it would read as "occupied"
        Mesh::new(16, 22).is_free(Coord::new(16, 0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn is_occupied_past_the_last_row_panics() {
        Mesh::new(16, 22).is_occupied(Coord::new(0, 22));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn free_in_row_span_past_the_last_column_panics() {
        // the span would otherwise count row 0's padding bits
        Mesh::new(16, 22).free_in_row_span(0, 10, 16);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn free_in_row_span_past_the_last_row_panics() {
        Mesh::new(16, 22).free_in_row_span(22, 0, 3);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn free_in_col_span_past_the_last_column_panics() {
        // column 16 is padding in every row
        Mesh::new(16, 22).free_in_col_span(16, 0, 3);
    }

    /// Drives `steps` random operations on a `w × l` mesh — mostly
    /// single-cell toggles, plus sub-mesh occupies and releases that may
    /// cross a word boundary — calling `check(mesh, step, changed, freed)`
    /// after each, where `changed` cells flipped and `freed` says whether
    /// they were released.
    fn churn(w: u16, l: u16, seed: u64, steps: usize, mut check: impl FnMut(&Mesh, usize, u64, bool)) {
        let mut m = Mesh::new(w, l);
        let mut seed = seed;
        let mut rng = move |n: u16| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) % u64::from(n)) as u16
        };
        for step in 0..steps {
            let c = Coord::new(rng(w), rng(l));
            let s = SubMesh::from_base_size(c, 1 + rng(w - c.x), 1 + rng((l - c.y).min(3)));
            let (changed, freed) = if rng(4) == 0 && m.submesh_free(&s) {
                m.occupy_submesh(&s);
                (s.size(), false)
            } else if rng(4) == 0 && s.iter().all(|c| m.is_occupied(c)) {
                m.release_submesh(&s);
                (s.size(), true)
            } else if m.is_free(c) {
                m.occupy(c);
                (1, false)
            } else {
                m.release(c);
                (1, true)
            };
            check(&m, step, u64::from(changed), freed);
        }
    }

    fn expected_runs(m: &Mesh, y: u16) -> Vec<(usize, usize)> {
        // reference: maximal runs of free cells, walked cell by cell
        let mut runs = Vec::new();
        let mut start: Option<usize> = None;
        for x in 0..m.width() as usize {
            if m.is_free(Coord::new(x as u16, y)) {
                start.get_or_insert(x);
            } else if let Some(s) = start.take() {
                runs.push((s, x - 1));
            }
        }
        if let Some(s) = start {
            runs.push((s, m.width() as usize - 1));
        }
        runs
    }

    #[test]
    fn row_runs_track_occupancy_under_churn() {
        for (w, l) in [(9u16, 7u16), (70, 7)] {
            churn(w, l, 0xC0FFEE, 4000, |m, step, _, _| {
                for y in 0..l {
                    let expected = expected_runs(m, y);
                    assert_eq!(runs(m.row(y)).collect::<Vec<_>>(), expected, "{w}x{l} step {step} row {y}");
                    let longest = expected.iter().map(|&(a, b)| b - a + 1).max().unwrap_or(0);
                    assert_eq!(m.row_max_run[y as usize] as usize, longest, "{w}x{l} step {step} row {y}");
                    // span counting across the word boundary, against the cells
                    let naive = (2..w - 2).filter(|&x| m.is_free(Coord::new(x, y))).count() as u32;
                    assert_eq!(m.free_in_row_span(y, 2, w - 3), naive, "{w}x{l} step {step} row {y}");
                }
                for x in [0, w / 2, w - 1] {
                    let naive = (1..l - 1).filter(|&y| m.is_free(Coord::new(x, y))).count() as u32;
                    assert_eq!(m.free_in_col_span(x, 1, l - 2), naive, "{w}x{l} step {step} column {x}");
                }
                let popcount: u32 = m.bits.iter().map(|b| b.count_ones()).sum();
                assert_eq!(popcount, m.free_count(), "{w}x{l} step {step}");
            });
        }
    }

    #[test]
    fn row_runs_after_submesh_ops_and_clear() {
        let mut m = Mesh::new(70, 8);
        // columns 60..=66 straddle the boundary between a row's two words
        let s = SubMesh::from_base_size(Coord::new(60, 1), 7, 3);
        m.occupy_submesh(&s);
        for y in 1..4 {
            assert_eq!(runs(m.row(y)).collect::<Vec<_>>(), [(0, 59), (67, 69)]);
            assert_eq!(m.free_in_row_span(y, 0, 69), 63);
        }
        assert_eq!(runs(m.row(0)).collect::<Vec<_>>(), [(0, 69)]);
        assert_eq!(m.max_free_run(), 70);
        m.release_submesh(&s);
        for y in 0..8 {
            assert_eq!(runs(m.row(y)).collect::<Vec<_>>(), [(0, 69)]);
        }
        m.occupy(Coord::new(64, 4));
        assert_eq!(runs(m.row(4)).collect::<Vec<_>>(), [(0, 63), (65, 69)]);
        m.clear();
        assert_eq!(runs(m.row(4)).collect::<Vec<_>>(), [(0, 69)]);
        assert_eq!(m.free_count(), 560);
    }

    #[test]
    fn clear_resets() {
        let mut m = Mesh::new(4, 4);
        m.occupy_submesh(&SubMesh::from_base_size(Coord::new(0, 0), 4, 4));
        assert_eq!(m.free_count(), 0);
        m.clear();
        assert_eq!(m.free_count(), 16);
    }

    #[test]
    fn epochs_advance_on_state_changes_only() {
        let mut m = Mesh::new(4, 4);
        assert_eq!((m.epoch(), m.release_epoch()), (0, 0));
        m.occupy(Coord::new(1, 1));
        assert_eq!((m.epoch(), m.release_epoch()), (1, 0), "occupy bumps epoch only");
        m.occupy(Coord::new(2, 1));
        assert_eq!((m.epoch(), m.release_epoch()), (2, 0));
        m.release(Coord::new(1, 1));
        assert_eq!((m.epoch(), m.release_epoch()), (3, 1), "release bumps both");
        let (e, r) = (m.epoch(), m.release_epoch());
        m.clear();
        assert!(m.epoch() > e && m.release_epoch() > r, "clear frees: both advance");
    }

    fn brute_watermarks(m: &Mesh) -> (u16, u16) {
        // reference recount cell by cell: longest free run over all rows,
        // and rows containing a free cell
        let mut max_run = 0u16;
        let mut free_rows = 0u16;
        for y in 0..m.length() {
            let mut run = 0u16;
            let mut row_max = 0u16;
            for x in 0..m.width() {
                if m.is_free(Coord::new(x, y)) {
                    run += 1;
                    row_max = row_max.max(run);
                } else {
                    run = 0;
                }
            }
            max_run = max_run.max(row_max);
            free_rows += u16::from(row_max > 0);
        }
        (max_run, free_rows)
    }

    #[test]
    fn watermarks_match_brute_force_under_churn() {
        for (w, l) in [(9u16, 7u16), (70, 7)] {
            let (mut epoch, mut releases) = (0u64, 0u64);
            churn(w, l, 0xBADC0DE, 4000, |m, step, changed, freed| {
                epoch += changed;
                if freed {
                    releases += changed;
                }
                assert_eq!(m.epoch(), epoch, "{w}x{l} step {step}");
                assert_eq!(m.release_epoch(), releases, "{w}x{l} step {step}");
                let (max_run, free_rows) = brute_watermarks(m);
                assert_eq!(m.max_free_run(), max_run, "{w}x{l} step {step}");
                assert_eq!(m.free_rows(), free_rows, "{w}x{l} step {step}");
            });
        }
    }

    #[test]
    fn could_fit_rect_never_rejects_a_satisfiable_request() {
        // exactness contract: could_fit_rect == false must imply the
        // exhaustive search finds nothing, for every shape, across
        // randomized occupancy patterns
        let mut seed = 0x5EEDu64;
        for case in 0..40 {
            let mut m = Mesh::new(8, 6);
            for y in 0..6u16 {
                for x in 0..8u16 {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if (seed >> 33) % 10 < 2 + case % 6 {
                        m.occupy(Coord::new(x, y));
                    }
                }
            }
            for w in 1..=8u16 {
                for l in 1..=6u16 {
                    let found = crate::rect::find_free_submesh(&m, w, l).is_some();
                    if !m.could_fit_rect(w, l) {
                        assert!(!found, "case {case}: watermark rejected free {w}x{l}");
                    }
                    if found {
                        assert!(m.could_fit_rect(w, l), "case {case} {w}x{l}");
                    }
                }
            }
        }
    }

    #[test]
    fn could_fit_rect_rejects_without_search() {
        let mut m = Mesh::new(8, 4);
        // occupy column 3 fully: max run 4 on an otherwise free mesh
        for y in 0..4 {
            m.occupy(Coord::new(3, y));
        }
        assert_eq!(m.max_free_run(), 4);
        assert_eq!(m.free_rows(), 4);
        assert!(m.could_fit_rect(4, 4));
        assert!(!m.could_fit_rect(5, 1), "wider than any free run");
        assert!(!m.could_fit_rect(1, 5), "taller than the mesh");
        assert!(!m.could_fit_rect(0, 1));
        // occupy rows 1 and 2 fully: only rows 0 and 3 keep free cells
        for y in [1u16, 2] {
            for x in 0..8 {
                if m.is_free(Coord::new(x, y)) {
                    m.occupy(Coord::new(x, y));
                }
            }
        }
        assert_eq!(m.free_rows(), 2);
        assert!(!m.could_fit_rect(2, 3), "taller than free_rows");
        assert!(m.could_fit_rect(4, 1));
    }
}
