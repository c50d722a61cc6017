//! Flat dense-grid search state for the detailed router.
//!
//! The hot path routes every net over the same [`DetailedGrid`], so the
//! per-search machinery here is built once and reused: a [`CostField`]
//! precomputes the stitch-aware step costs of eq. (10) per grid column
//! (they depend only on x), and a [`DialSolver`] owns flat dist/parent
//! arrays with epoch-stamped validity plus a [`BucketQueue`] ring, so a
//! new search costs an epoch bump instead of an allocation storm.
//!
//! Costs are quantized integers: each step cost is computed in α units
//! and clamped to [`MAX_STEP_Q`], which bounds the bucket ring while
//! preserving the ordering of all in-range configurations (the paper's
//! defaults use single-digit weights). The heuristic unit is clamped
//! identically, so it stays a consistent lower bound per planar step.

use crate::DetailedGrid;
use mebl_control::CancelToken;
use mebl_geom::{Coord, Point};
use mebl_graph::{BucketQueue, FastSet};
use mebl_stitch::StitchPlan;

/// Per-step cost ceiling in quantized α units. Costs above this clamp
/// saturate: ordering among saturated steps is lost, but every
/// in-range configuration (the paper's single-digit weights, and any
/// α·via_cost + β below the ceiling) is ranked exactly.
pub(crate) const MAX_STEP_Q: u64 = 4096;

/// Precomputed per-column step costs for one routing run.
///
/// Stitch geometry depends only on the x coordinate, so the weighted
/// costs of eq. (10) collapse into three arrays indexed by local
/// column: whether the column is a stitching line (hard constraints),
/// the planar step cost into the column (α, plus γ inside an escape
/// region when stitch costs are on), and the via step cost within the
/// column (α·via_cost, plus β inside an unfriendly region).
pub(crate) struct CostField {
    on_line: Vec<bool>,
    planar: Vec<u32>,
    via: Vec<u32>,
    h_unit: u64,
    /// Bucket-ring span: the largest key increment a single expansion
    /// can produce (step plus heuristic drift).
    pub(crate) span: u64,
}

/// Packs local coordinates into the queue-payload word
/// (`x | y<<20 | l<<40`). 20 bits per axis covers any grid whose
/// occupancy array fits in memory; neighbour coordinates are a single
/// add/subtract on the packed word, mirroring node-id arithmetic.
#[inline]
fn pack(x: u32, y: u32, l: u32) -> u64 {
    u64::from(x) | u64::from(y) << 20 | u64::from(l) << 40
}

/// Decodes a packed coordinate word into `(x, y, layer)`.
#[inline]
fn unpack(c: u64) -> (u32, u32, u32) {
    (
        (c & 0xf_ffff) as u32,
        ((c >> 20) & 0xf_ffff) as u32,
        (c >> 40) as u32,
    )
}

impl CostField {
    /// Builds the cost layers for `grid` under `plan` and the given
    /// weights. Saturating arithmetic plus the [`MAX_STEP_Q`] clamp
    /// keep arbitrary `u64` configuration values safe.
    pub(crate) fn build(
        grid: &DetailedGrid,
        plan: &StitchPlan,
        alpha: u64,
        beta: u64,
        gamma: u64,
        via_cost: u64,
        stitch_costs: bool,
    ) -> Self {
        let width = grid.width() as usize;
        let x0 = grid.outline().x0();
        let mut on_line = Vec::with_capacity(width);
        let mut planar = Vec::with_capacity(width);
        let mut via = Vec::with_capacity(width);
        for lx in 0..width {
            let wx = x0 + lx as Coord;
            on_line.push(plan.is_on_line(wx));
            let mut p = alpha;
            if stitch_costs && plan.in_escape_region(wx) {
                p = p.saturating_add(gamma);
            }
            planar.push(p.min(MAX_STEP_Q) as u32);
            let mut v = alpha.saturating_mul(via_cost);
            if stitch_costs && plan.in_unfriendly_region(wx) {
                v = v.saturating_add(beta);
            }
            via.push(v.min(MAX_STEP_Q) as u32);
        }
        let max_step = planar
            .iter()
            .chain(via.iter())
            .copied()
            .max()
            .unwrap_or(1);
        Self {
            on_line,
            planar,
            via,
            // The clamp is monotone, so h_unit <= every planar step and
            // the heuristic stays consistent.
            h_unit: alpha.min(MAX_STEP_Q),
            span: 2 * u64::from(max_step),
        }
    }
}

/// An inclusive window of local grid coordinates, clamped in-bounds.
///
/// The search never expands outside its window; staged widening on
/// failure re-runs the search with a larger margin. Clamping guarantees
/// `x0 <= x1 < width` and `y0 <= y1 < height` for any input box, so
/// windowed index arithmetic cannot leave the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridWindow {
    /// Leftmost column.
    pub x0: u32,
    /// Rightmost column.
    pub x1: u32,
    /// Bottom row.
    pub y0: u32,
    /// Top row.
    pub y1: u32,
}

impl GridWindow {
    /// Expands `bbox` (as `(x0, y0, x1, y1)` local coordinates, corners
    /// in either order) by `margin` and clamps it to a `width` ×
    /// `height` grid. Both dimensions must be nonzero.
    pub fn clamped(width: u32, height: u32, bbox: (i64, i64, i64, i64), margin: i64) -> Self {
        assert!(width > 0 && height > 0, "window over an empty grid");
        let m = margin.max(0);
        let cx = |v: i64| v.clamp(0, i64::from(width) - 1) as u32;
        let cy = |v: i64| v.clamp(0, i64::from(height) - 1) as u32;
        let (ax, ay, bx, by) = bbox;
        Self {
            x0: cx(ax.min(bx).saturating_sub(m)),
            x1: cx(ax.max(bx).saturating_add(m)),
            y0: cy(ay.min(by).saturating_sub(m)),
            y1: cy(ay.max(by).saturating_add(m)),
        }
    }

    /// Whether the local coordinate lies inside the window.
    pub fn contains(&self, x: u32, y: u32) -> bool {
        self.x0 <= x && x <= self.x1 && self.y0 <= y && y <= self.y1
    }
}

/// Reusable Dial-search state sized to the grid on first use.
///
/// Validity of per-cell state is tracked by an epoch stamp, so starting
/// a new search is O(1): bump the epoch, clear the queue. Each cell's
/// whole search record packs into one `u64` — `tag(26) | dist(32) |
/// dir(3) | flags(3)` — so a relaxation is a single 8-byte load and
/// store. The parent pointer is a move *direction* rather than a node
/// id: path reconstruction walks inverse moves from the target, which
/// is exactly as expressive and 29 bits cheaper. Queue payloads are
/// packed coordinate words (see [`pack`]): the pop loop recovers `(x,
/// y, layer)` without dividing and rebuilds the node id with two
/// multiplies.
///
/// `dist` is a saturating 32-bit quantity in quantized α units: with
/// the [`MAX_STEP_Q`] per-step clamp, saturation needs a million-step
/// path at the ceiling cost, far outside any real window, and a
/// saturated search still terminates (distances just stop ordering
/// beyond the cap).
pub(crate) struct DialSolver {
    cells: Vec<u64>,
    /// Per-cell blocked-cell count of the soft search, valid where the
    /// cell word carries the current epoch tag and is discovered.
    levels: Vec<u32>,
    /// Soft-search cells discovered for the next level (packed
    /// coordinates), queued once the current level is exhausted.
    next_level: Vec<u64>,
    /// Work list of the hard search's pocket check (packed coordinates).
    walk: Vec<u64>,
    /// Cells the pocket check has reached.
    walked: FastSet<u32>,
    epoch: u32,
    queue: BucketQueue<u64>,
}

/// Cell flag: the cell has a valid distance/direction this epoch.
const DISCOVERED: u64 = 1;
/// Cell flag: the cell was popped with its final distance.
const CLOSED: u64 = 2;
/// Cell flag: the cell belongs to a target component.
const TARGET: u64 = 4;
/// Bit offset of the 3-bit arrival direction in a cell word.
const DIR_SHIFT: u32 = 3;
/// Bit offset of the 32-bit distance in a cell word.
const DIST_SHIFT: u32 = 6;
/// Bit offset of the 26-bit epoch tag in a cell word.
const TAG_SHIFT: u32 = 38;
/// Mask selecting the epoch tag of a cell word.
const TAG_MASK: u64 = !0 << TAG_SHIFT;
/// Mask selecting the flag bits of a cell word.
const FLAGS_MASK: u64 = 7;
/// Arrival direction of a search source (no parent).
const DIR_SOURCE: u64 = 6;
/// Most target-component boxes the heuristic keeps (see [`TargetBoxes`]).
const MAX_H_BOXES: usize = 8;
/// Forward pop at which the hard search checks whether its targets are
/// walled in (see [`DialSolver::walled_in`]), and the most cells that
/// check pops. On S38584 at net scale 0.15 the 8,855 successful hard
/// searches popped a median of 110 cells. The 1,812 failed ones popped
/// 6.90 M cells, nearly all in the 230 that popped more than 1,024 cells
/// each, and in 229 of those a walk from the target side reaches at most
/// 8 cells. A thousand pops lets nearly every search that will succeed
/// finish unchecked, and bounds the check's own cost by the forward work
/// already spent.
const WALL_PROBE_AT: usize = 1024;
/// Node-id deltas per direction: -x, +x, -y, +y, -z, +z. The y and z
/// strides are grid-dependent and patched in per search.
#[inline]
fn dir_deltas(w: u32, wh: u32) -> [i64; 6] {
    [
        -1,
        1,
        -i64::from(w),
        i64::from(w),
        -i64::from(wh),
        i64::from(wh),
    ]
}

/// Goal-directed lower bound: Manhattan distance to the nearest
/// target-component bounding box, in clamped α units.
///
/// One box per target component: the minimum over them stays
/// admissible and consistent (a minimum of 1-Lipschitz lower bounds)
/// while being far tighter than the union box whenever the components
/// are spread apart — the union box often *contains* the source,
/// flattening `h` to zero over a wide region. Box count is capped so
/// `h` stays O(1); overflow components fold into the last box, which
/// only loosens (never breaks) the bound.
struct TargetBoxes {
    boxes: [(u32, u32, u32, u32); MAX_H_BOXES],
    len: usize,
    h_unit: u64,
}

impl TargetBoxes {
    /// The heuristic at local column `x`, row `y`. Each planar step
    /// costs at least `h_unit` and moves one grid unit, so this never
    /// overestimates and drops by at most one step cost per move.
    #[inline]
    fn h(&self, x: u32, y: u32) -> u64 {
        let mut best = u32::MAX;
        for b in self.boxes.iter().take(self.len) {
            let dx = b.0.saturating_sub(x).max(x.saturating_sub(b.2));
            let dy = b.1.saturating_sub(y).max(y.saturating_sub(b.3));
            best = best.min(dx + dy);
            if best == 0 {
                break;
            }
        }
        u64::from(best) * self.h_unit
    }
}

/// One candidate move: `(node, packed coordinates, step cost, direction)`.
type Move = (u32, u64, u32, u64);

/// Grid shape and search-wide inputs shared by both searches' move
/// generation.
struct Moves<'a> {
    field: &'a CostField,
    own_pins: &'a FastSet<Point>,
    win: GridWindow,
    w: u32,
    wh: u32,
    layers: u32,
    ox: Coord,
    oy: Coord,
}

impl<'a> Moves<'a> {
    /// Move generation over `grid`, confined to `win`.
    fn new(
        grid: &DetailedGrid,
        field: &'a CostField,
        own_pins: &'a FastSet<Point>,
        win: GridWindow,
    ) -> Self {
        Self {
            field,
            own_pins,
            win,
            w: grid.width(),
            wh: grid.width() * grid.height(),
            layers: u32::from(grid.layers()),
            ox: grid.outline().x0(),
            oy: grid.outline().y0(),
        }
    }

    /// Writes the legal moves out of the popped cell `u` at packed
    /// coordinates `packed` = `(x, y, l)` into `out` and returns how
    /// many there are. Occupancy is the caller's business.
    ///
    /// Hard constraints (no riding a stitching line vertically; vias
    /// on a line only at own pins) are keyed on the source cell, like
    /// the legacy engine. Vias are listed *before* planar moves: the
    /// bucket queue pops LIFO among equal keys, so equal-cost ties
    /// continue in-plane rather than hop layers first. Neighbour
    /// coordinates are one add on the packed word.
    ///
    /// With `REV` the moves are walked backwards: each one is the
    /// reverse of a forward step into the popped cell. The hard rules
    /// key on the (x, y) both cells share, so the move set is the same;
    /// only an x-move's cost changes, to `planar` of the popped cell,
    /// which is what the forward step into it costs.
    #[inline(always)]
    fn expand<const REV: bool>(
        &self,
        u: u32,
        packed: u64,
        x: u32,
        y: u32,
        l: u32,
        out: &mut [Move; 4],
    ) -> usize {
        let field = self.field;
        let (w, wh, win) = (self.w, self.wh, &self.win);
        let lx = x as usize;
        let src_on_line = field.on_line[lx];
        let mut nc = 0usize;
        let z_ok = !src_on_line
            || self
                .own_pins
                .contains(&Point::new(self.ox + x as Coord, self.oy + y as Coord));
        if z_ok {
            if l > 0 {
                out[nc] = (u - wh, packed - (1 << 40), field.via[lx], 4);
                nc += 1;
            }
            if l + 1 < self.layers {
                out[nc] = (u + wh, packed + (1 << 40), field.via[lx], 5);
                nc += 1;
            }
        }
        if l.is_multiple_of(2) {
            if x > win.x0 {
                let step = field.planar[if REV { lx } else { lx - 1 }];
                out[nc] = (u - 1, packed - 1, step, 0);
                nc += 1;
            }
            if x < win.x1 {
                let step = field.planar[if REV { lx } else { lx + 1 }];
                out[nc] = (u + 1, packed + 1, step, 1);
                nc += 1;
            }
        } else if !src_on_line {
            if y > win.y0 {
                out[nc] = (u - w, packed - (1 << 20), field.planar[lx], 2);
                nc += 1;
            }
            if y < win.y1 {
                out[nc] = (u + w, packed + (1 << 20), field.planar[lx], 3);
                nc += 1;
            }
        }
        nc
    }
}

/// Level-0 pop budget of one soft-search direction on a grid of
/// `cells` cells. On S38584 at net scale 0.15 (540,702 cells, so a
/// budget of 33,793) the soft searches whose level 0 reached the target
/// popped at most about 23k cells, while a level 0 started in the open
/// region floods about 398k before it may enter a foreign cell. A
/// sixteenth of the grid sits above the first and an order of
/// magnitude below the second.
fn soft_budget(cells: usize) -> usize {
    cells / 16
}

/// The inputs every phase of one soft search shares.
struct SoftQuery<'a> {
    grid: &'a DetailedGrid,
    field: &'a CostField,
    net: u32,
    own_pins: &'a FastSet<Point>,
    hard: &'a [bool],
    node_cap: usize,
    cancel: &'a CancelToken,
}

/// How one soft-search phase ended.
enum Soft {
    /// The path, from a source cell to a target cell.
    Found(Vec<u32>),
    /// No path, the node cap or cancellation: the whole call gives up.
    GaveUp,
    /// Level 0 overran the phase's pop budget.
    Overrun,
}

impl DialSolver {
    /// Creates a solver whose bucket ring covers key increments up to
    /// `span` (see [`CostField::span`]). Arrays grow lazily to the grid.
    pub(crate) fn new(span: u64) -> Self {
        Self {
            cells: Vec::new(),
            levels: Vec::new(),
            next_level: Vec::new(),
            walk: Vec::new(),
            walked: FastSet::default(),
            epoch: 0,
            queue: BucketQueue::with_span(span),
        }
    }

    /// Opens a fresh search epoch over a grid of `cells` cells.
    fn begin(&mut self, cells: usize) {
        if self.cells.len() < cells {
            self.cells.resize(cells, 0);
        }
        self.epoch += 1;
        if self.epoch >= 1 << (64 - TAG_SHIFT) {
            // One full clear every 2^26 searches keeps stale tags from
            // a previous wrap-around epoch out of the new one.
            self.cells.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    /// Opens a search: bumps the epoch, marks every cell of
    /// `target_comps` as a target, and seeds `sources` (sorted, for
    /// deterministic tie-breaking) at distance zero. Returns the epoch
    /// tag, the heuristic, and the bounding box of all endpoints as
    /// `(x0, y0, x1, y1)` local coordinates.
    fn start(
        &mut self,
        grid: &DetailedGrid,
        field: &CostField,
        sources: &[u32],
        target_comps: &[FastSet<u32>],
    ) -> (u64, TargetBoxes, (i64, i64, i64, i64)) {
        let w = grid.width();
        let rows = grid.height();
        self.begin(grid.cell_count());
        let tag = u64::from(self.epoch) << TAG_SHIFT;
        // Cold-path decomposition for endpoint setup; the pop loop
        // never divides (coordinates ride along in the queue payload).
        let local = |c: u32| -> (u32, u32, u32) {
            let x = c % w;
            let rest = c / w;
            (x, rest % rows, rest / rows)
        };
        let mut bbox = (i64::MAX, i64::MAX, i64::MIN, i64::MIN);
        let mut grow = |x: u32, y: u32| {
            bbox = (
                bbox.0.min(i64::from(x)),
                bbox.1.min(i64::from(y)),
                bbox.2.max(i64::from(x)),
                bbox.3.max(i64::from(y)),
            );
        };
        let mut hb = TargetBoxes {
            boxes: [(u32::MAX, u32::MAX, 0, 0); MAX_H_BOXES],
            len: 0,
            h_unit: field.h_unit,
        };
        for comp in target_comps {
            if comp.is_empty() {
                continue;
            }
            let slot = hb.len.min(MAX_H_BOXES - 1);
            for &t in comp {
                // `begin` bumped the epoch, so every word is stale here
                // and a plain store marks the target.
                self.cells[t as usize] = tag | TARGET;
                let (x, y, _) = local(t);
                let b = &mut hb.boxes[slot];
                *b = (b.0.min(x), b.1.min(y), b.2.max(x), b.3.max(y));
                grow(x, y);
            }
            hb.len = (hb.len + 1).min(MAX_H_BOXES);
        }
        for &s in sources {
            // Components are disjoint, so a source is never a target.
            self.cells[s as usize] = tag | (DIR_SOURCE << DIR_SHIFT) | DISCOVERED;
            let (x, y, l) = local(s);
            grow(x, y);
            self.queue.push(hb.h(x, y), pack(x, y, l));
        }
        (tag, hb, bbox)
    }

    /// Stitch-aware shortest path (eq. 10) from any of `sources` to any
    /// cell of any component in `target_comps`, restricted to the
    /// bounding box of the endpoints plus `margin`.
    ///
    /// Matches the legacy engine's contract: the returned path includes
    /// the source cell it grew from and ends at the reached target;
    /// `None` on exhaustion (window, `node_cap`) or cancellation, and
    /// when the pocket check proves the targets walled in: at the
    /// [`WALL_PROBE_AT`]-th pop, a walk from the target side (see
    /// [`DialSolver::walled_in`]) that runs out of cells before meeting
    /// the forward search ends the search, since the full search would
    /// also have exhausted its window. The walk's pops charge `cancel`
    /// but not `node_cap`, so every returned path is the one the search
    /// without the check returns. `sources` must be sorted for
    /// deterministic tie-breaking.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn find_path(
        &mut self,
        grid: &DetailedGrid,
        field: &CostField,
        net: u32,
        own_pins: &FastSet<Point>,
        sources: &[u32],
        target_comps: &[FastSet<u32>],
        margin: Coord,
        node_cap: usize,
        cancel: &CancelToken,
    ) -> Option<Vec<u32>> {
        self.hard_path(
            grid, field, net, own_pins, sources, target_comps, margin, node_cap, cancel,
            WALL_PROBE_AT,
        )
    }

    /// [`DialSolver::find_path`] with the pocket check run at the
    /// `probe_at`-th forward pop (never, if the search stops first).
    #[allow(clippy::too_many_arguments)]
    fn hard_path(
        &mut self,
        grid: &DetailedGrid,
        field: &CostField,
        net: u32,
        own_pins: &FastSet<Point>,
        sources: &[u32],
        target_comps: &[FastSet<u32>],
        margin: Coord,
        node_cap: usize,
        cancel: &CancelToken,
        probe_at: usize,
    ) -> Option<Vec<u32>> {
        if sources.is_empty() || target_comps.iter().all(FastSet::is_empty) {
            return None;
        }
        let (tag, hb, bbox) = self.start(grid, field, sources, target_comps);
        let w = grid.width();
        let rows = grid.height();
        let win = GridWindow::clamped(w, rows, bbox, i64::from(margin));
        let moves = Moves::new(grid, field, own_pins, win);

        let mut expanded = 0usize;
        let mut cand = [(0u32, 0u64, 0u32, 0u64); 4];
        while let Some((_key, packed)) = self.queue.pop() {
            let (x, y, l) = unpack(packed);
            let u = (l * rows + y) * w + x;
            let ui = u as usize;
            // Queued cells always carry the current epoch tag. The
            // heuristic is consistent, so the first pop of a cell has
            // its final distance; later entries are superseded
            // duplicates.
            let m = self.cells[ui];
            if m & CLOSED != 0 {
                continue;
            }
            self.cells[ui] = m | CLOSED;
            if m & TARGET != 0 {
                return Some(self.reconstruct(u, w, moves.wh));
            }
            let du = (m >> DIST_SHIFT) as u32;
            expanded += 1;
            if expanded > node_cap {
                return None;
            }
            // Charge the run budget and honour cancellation mid-search:
            // a `None` return rips the net up like any failed
            // connection, so aborting never leaves partial geometry.
            if cancel.charge_expansions(1) {
                return None;
            }
            if expanded == probe_at
                && self.walled_in(grid, &moves, net, target_comps, tag, cancel)
            {
                return None;
            }

            // Via moves keep (x, y), so both share this pop's h value;
            // planar moves shift a coordinate and re-evaluate.
            let hxy = hb.h(x, y);
            let nc = moves.expand::<false>(u, packed, x, y, l, &mut cand);
            for &(v, q, step, dir) in &cand[..nc] {
                let vi = v as usize;
                if !grid.passable(v, net) {
                    continue;
                }
                let nd = du.saturating_add(step);
                let cv = self.cells[vi];
                // Flags survive only under the current epoch tag; a
                // stale word means "untouched, keep the target bit off".
                let flags = if cv & TAG_MASK == tag { cv & FLAGS_MASK } else { 0 };
                if flags & DISCOVERED == 0 || nd < (cv >> DIST_SHIFT) as u32 {
                    self.cells[vi] = tag
                        | u64::from(nd) << DIST_SHIFT
                        | dir << DIR_SHIFT
                        | flags
                        | DISCOVERED;
                    let hq = if dir >= 4 {
                        hxy
                    } else {
                        let (qx, qy, _) = unpack(q);
                        hb.h(qx, qy)
                    };
                    self.queue.push(u64::from(nd) + hq, q);
                }
            }
        }
        None
    }

    /// The hard search's pocket check: walks from every cell of
    /// `target_comps` over the cells `net` may enter inside the search's
    /// window, with the search's own move set and no costs. Returns
    /// `true`, and the search gives up, when the walk runs out of cells
    /// without meeting a cell the forward search has discovered (epoch
    /// `tag`), or when `cancel` fires. Returns `false`, and the search
    /// resumes, when the walk meets a discovered cell or would pop more
    /// than [`WALL_PROBE_AT`] cells.
    ///
    /// An emptied walk is a proof: the hard rules key on the (x, y) the
    /// two cells of a move share, so the walk reaches every cell from
    /// which a forward path leads into a target, and a source is one of
    /// them exactly when some path exists. Each pop charges `cancel`
    /// once. The walk writes no cell word, so a resumed search pops
    /// exactly as it would have without the check.
    fn walled_in(
        &mut self,
        grid: &DetailedGrid,
        moves: &Moves<'_>,
        net: u32,
        target_comps: &[FastSet<u32>],
        tag: u64,
        cancel: &CancelToken,
    ) -> bool {
        let Self { cells, walk, walked, .. } = self;
        let discovered = |v: u32| {
            let c = cells[v as usize];
            c & TAG_MASK == tag && c & DISCOVERED != 0
        };
        let (w, rows) = (grid.width(), grid.height());
        walk.clear();
        walked.clear();
        for &t in target_comps.iter().flatten() {
            if discovered(t) {
                return false;
            }
            walked.insert(t);
            let rest = t / w;
            walk.push(pack(t % w, rest % rows, rest / rows));
        }
        let mut pops = 0usize;
        let mut cand = [(0u32, 0u64, 0u32, 0u64); 4];
        while let Some(packed) = walk.pop() {
            if pops == WALL_PROBE_AT {
                return false;
            }
            pops += 1;
            if cancel.charge_expansions(1) {
                return true;
            }
            let (x, y, l) = unpack(packed);
            let u = (l * rows + y) * w + x;
            let nc = moves.expand::<true>(u, packed, x, y, l, &mut cand);
            for &(v, q, _, _) in &cand[..nc] {
                if discovered(v) {
                    return false;
                }
                if grid.passable(v, net) && walked.insert(v) {
                    walk.push(q);
                }
            }
        }
        true
    }

    /// Soft variant of [`DialSolver::find_path`] for walled-in nets,
    /// with no window: cells owned by other nets are traversable, except
    /// those marked in `hard` (indexed by node id). Minimises, in
    /// lexicographic order, the number of foreign cells entered and then
    /// the eq. (10) wire cost, so the result names a minimal corridor of
    /// blockers to rip up. The path runs from a source cell to a target
    /// cell, like [`DialSolver::find_path`]'s.
    ///
    /// Each search runs level by level (see [`DialSolver::soft_phase`]),
    /// and level 0 must exhaust the region around its start before it
    /// may enter a foreign cell. Started in the die's open region it
    /// floods most of the grid; started in a walled-in pocket it pops
    /// only the pocket. So the search runs forward with a level-0 pop
    /// budget ([`soft_budget`]); if level 0 overruns it, it restarts
    /// from the target components toward the sources under the same
    /// budget, and if that overruns too, forward with no budget. Both
    /// directions find the same optimum (only ties may break
    /// differently): the hard rules key on the (x, y) the two cells of
    /// a move share, y and via steps cost the same either way, a
    /// reverse x-move is charged the forward step's cost, and a path
    /// enters the same foreign cells in either direction. All phases
    /// together count against `node_cap`, and every pop of every phase
    /// charges `cancel` once.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn find_soft_path(
        &mut self,
        grid: &DetailedGrid,
        field: &CostField,
        net: u32,
        own_pins: &FastSet<Point>,
        hard: &[bool],
        sources: &[u32],
        target_comps: &[FastSet<u32>],
        node_cap: usize,
        cancel: &CancelToken,
    ) -> Option<Vec<u32>> {
        let q = SoftQuery { grid, field, net, own_pins, hard, node_cap, cancel };
        self.soft_path(&q, sources, target_comps, soft_budget(grid.cell_count()))
    }

    /// [`DialSolver::find_soft_path`] under an explicit level-0 pop
    /// `budget` per budgeted phase.
    fn soft_path(
        &mut self,
        q: &SoftQuery<'_>,
        sources: &[u32],
        target_comps: &[FastSet<u32>],
        budget: usize,
    ) -> Option<Vec<u32>> {
        if sources.is_empty() || target_comps.iter().all(FastSet::is_empty) {
            return None;
        }
        let mut spent = 0usize;
        let mut outcome = self.soft_phase::<false>(q, sources, target_comps, budget, &mut spent);
        if let Soft::Overrun = outcome {
            let mut back: Vec<u32> = target_comps.iter().flatten().copied().collect();
            back.sort_unstable();
            let front = [sources.iter().copied().collect::<FastSet<u32>>()];
            outcome = self.soft_phase::<true>(q, &back, &front, budget, &mut spent);
        }
        if let Soft::Overrun = outcome {
            outcome = self.soft_phase::<false>(q, sources, target_comps, usize::MAX, &mut spent);
        }
        match outcome {
            Soft::Found(path) => Some(path),
            Soft::GaveUp | Soft::Overrun => None,
        }
    }

    /// One soft-search phase from `sources` (sorted) to `target_comps`,
    /// walking moves backwards when `REV`; the path comes back in
    /// forward order either way. Each phase is a fresh epoch.
    ///
    /// The search runs level by level: the bucket queue holds the cells
    /// reached through exactly `level` foreign cells, and entering a
    /// foreign cell parks it on the next level's frontier instead of
    /// queueing it. Once a level is exhausted, its frontier seeds the
    /// queue afresh. Within a level the key is the usual A\* key, so
    /// the first target popped is optimal under both criteria.
    ///
    /// Returns [`Soft::Overrun`] when level 0 would pop more than
    /// `budget` cells. `spent` carries the pops of earlier phases of
    /// the same call: they count against `q.node_cap`.
    fn soft_phase<const REV: bool>(
        &mut self,
        q: &SoftQuery<'_>,
        sources: &[u32],
        target_comps: &[FastSet<u32>],
        budget: usize,
        spent: &mut usize,
    ) -> Soft {
        let grid = q.grid;
        let (tag, hb, _) = self.start(grid, q.field, sources, target_comps);
        if self.levels.len() < self.cells.len() {
            self.levels.resize(self.cells.len(), 0);
        }
        for &s in sources {
            self.levels[s as usize] = 0;
        }
        self.next_level.clear();
        let w = grid.width();
        let rows = grid.height();
        let whole = GridWindow::clamped(w, rows, (0, 0, i64::from(w), i64::from(rows)), 0);
        let moves = Moves::new(grid, q.field, q.own_pins, whole);

        let mut level = 0u32;
        let mut level0_pops = 0usize;
        let mut cand = [(0u32, 0u64, 0u32, 0u64); 4];
        loop {
            let Some((_key, packed)) = self.queue.pop() else {
                if self.next_level.is_empty() {
                    return Soft::GaveUp;
                }
                // The level is exhausted: its frontier, whose distances
                // are final for the next level, seeds a fresh key window.
                level += 1;
                self.queue.clear();
                for &c in &self.next_level {
                    let (x, y, l) = unpack(c);
                    let d = (self.cells[((l * rows + y) * w + x) as usize] >> DIST_SHIFT) as u32;
                    self.queue.push(u64::from(d) + hb.h(x, y), c);
                }
                self.next_level.clear();
                continue;
            };
            let (x, y, l) = unpack(packed);
            let u = (l * rows + y) * w + x;
            let ui = u as usize;
            let m = self.cells[ui];
            if m & CLOSED != 0 {
                continue;
            }
            self.cells[ui] = m | CLOSED;
            if m & TARGET != 0 {
                let mut path = self.reconstruct(u, w, moves.wh);
                if REV {
                    path.reverse();
                }
                return Soft::Found(path);
            }
            if level == 0 {
                if level0_pops == budget {
                    return Soft::Overrun;
                }
                level0_pops += 1;
            }
            let du = (m >> DIST_SHIFT) as u32;
            *spent += 1;
            if *spent > q.node_cap || q.cancel.charge_expansions(1) {
                return Soft::GaveUp;
            }

            let nc = moves.expand::<REV>(u, packed, x, y, l, &mut cand);
            for &(v, c, step, dir) in &cand[..nc] {
                let vi = v as usize;
                let blocked = !grid.passable(v, q.net);
                if blocked && q.hard[vi] {
                    continue;
                }
                let nl = level + u32::from(blocked);
                let nd = du.saturating_add(step);
                let cv = self.cells[vi];
                let flags = if cv & TAG_MASK == tag { cv & FLAGS_MASK } else { 0 };
                let fresh = flags & DISCOVERED == 0;
                let lv = self.levels[vi];
                if fresh || nl < lv || (nl == lv && nd < (cv >> DIST_SHIFT) as u32) {
                    self.cells[vi] = tag
                        | u64::from(nd) << DIST_SHIFT
                        | dir << DIR_SHIFT
                        | flags
                        | DISCOVERED;
                    self.levels[vi] = nl;
                    if !blocked {
                        let (cx, cy, _) = unpack(c);
                        self.queue.push(u64::from(nd) + hb.h(cx, cy), c);
                    } else if fresh || lv != nl {
                        // First arrival on the next level; a cheaper
                        // arrival later in this level only rewrites the
                        // cell word.
                        self.next_level.push(c);
                    }
                }
            }
        }
    }

    /// Walks inverse arrival moves from `target` back to the source
    /// that seeded it.
    fn reconstruct(&self, target: u32, w: u32, wh: u32) -> Vec<u32> {
        let deltas = dir_deltas(w, wh);
        let mut path = vec![target];
        let mut cur = target;
        loop {
            let dir = (self.cells[cur as usize] >> DIR_SHIFT) & 7;
            if dir == DIR_SOURCE {
                break;
            }
            cur = (i64::from(cur) - deltas[dir as usize]) as u32;
            path.push(cur);
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_geom::{GridPoint, Layer, Rect};
    use mebl_stitch::StitchConfig;
    use mebl_testkit::prop::{ints, Config};
    use mebl_testkit::{prop_assert, prop_assert_eq, prop_assume, prop_check, Rng, Xoshiro256pp};
    use std::collections::VecDeque;

    fn setup() -> (DetailedGrid, StitchPlan) {
        let outline = Rect::new(0, 0, 39, 29);
        (
            DetailedGrid::new(outline, 3),
            StitchPlan::new(outline, StitchConfig::default()),
        )
    }

    fn field_for(grid: &DetailedGrid, plan: &StitchPlan) -> CostField {
        CostField::build(grid, plan, 1, 10, 5, 2, true)
    }

    fn comps(cells: &[u32]) -> Vec<FastSet<u32>> {
        vec![cells.iter().copied().collect()]
    }

    #[test]
    fn window_clamps_any_box() {
        let win = GridWindow::clamped(10, 8, (-50, -50, 500, 500), 1 << 40);
        assert_eq!(win, GridWindow { x0: 0, x1: 9, y0: 0, y1: 7 });
        let tight = GridWindow::clamped(10, 8, (3, 2, 5, 4), 1);
        assert_eq!(tight, GridWindow { x0: 2, x1: 6, y0: 1, y1: 5 });
        assert!(tight.contains(2, 1));
        assert!(!tight.contains(7, 3));
    }

    #[test]
    fn finds_a_shortest_l_path() {
        let (grid, plan) = setup();
        let field = field_for(&grid, &plan);
        let mut solver = DialSolver::new(field.span);
        let src = grid.node(GridPoint::new(2, 2, Layer::new(0)));
        let dst = grid.node(GridPoint::new(8, 2, Layer::new(0)));
        let path = solver
            .find_path(
                &grid,
                &field,
                0,
                &FastSet::default(),
                &[src],
                &comps(&[dst]),
                18,
                60_000,
                &CancelToken::default(),
            )
            .expect("path");
        assert_eq!(path.first(), Some(&src));
        assert_eq!(path.last(), Some(&dst));
        assert_eq!(path.len(), 7, "straight run on one layer");
    }

    #[test]
    fn epoch_reuse_is_clean_across_searches() {
        let (mut grid, plan) = setup();
        let field = field_for(&grid, &plan);
        let mut solver = DialSolver::new(field.span);
        let a = grid.node(GridPoint::new(1, 1, Layer::new(0)));
        let b = grid.node(GridPoint::new(6, 1, Layer::new(0)));
        let first = solver
            .find_path(&grid, &field, 0, &FastSet::default(), &[a], &comps(&[b]), 18, 60_000, &CancelToken::default())
            .expect("first path");
        // Occupy a cell of the first path for a foreign net: the second
        // search (same solver, new epoch) must route around it.
        grid.occupy(first[3], 9);
        let second = solver
            .find_path(&grid, &field, 0, &FastSet::default(), &[a], &comps(&[b]), 18, 60_000, &CancelToken::default())
            .expect("second path");
        assert!(!second.contains(&first[3]), "stale state leaked across epochs");
    }

    #[test]
    fn node_cap_exhausts_to_none() {
        let (grid, plan) = setup();
        let field = field_for(&grid, &plan);
        let mut solver = DialSolver::new(field.span);
        let src = grid.node(GridPoint::new(0, 0, Layer::new(0)));
        let dst = grid.node(GridPoint::new(30, 25, Layer::new(2)));
        let found = solver.find_path(
            &grid,
            &field,
            0,
            &FastSet::default(),
            &[src],
            &comps(&[dst]),
            18,
            1,
            &CancelToken::default(),
        );
        assert!(found.is_none());
    }

    #[test]
    fn window_blocks_detours_outside_margin() {
        let (mut grid, plan) = setup();
        let field = field_for(&grid, &plan);
        let mut solver = DialSolver::new(field.span);
        // Wall off a column across the whole window height on every layer
        // so the only way around is outside the zero-margin window.
        for y in 0..grid.height() {
            for l in 0..3u8 {
                let p = GridPoint::new(5, y as Coord, Layer::new(l));
                grid.occupy(grid.node(p), 7);
            }
        }
        let src = grid.node(GridPoint::new(2, 10, Layer::new(0)));
        let dst = grid.node(GridPoint::new(9, 10, Layer::new(0)));
        let narrow = solver.find_path(
            &grid,
            &field,
            0,
            &FastSet::default(),
            &[src],
            &comps(&[dst]),
            0,
            60_000,
            &CancelToken::default(),
        );
        assert!(narrow.is_none(), "wall spans the entire zero-margin window");
    }

    /// Whether the step `from -> to` obeys the hard stitch rules, keyed
    /// on the cell moved from: no vertical ride along a stitching line,
    /// and vias on a line only at one of the net's own pins.
    fn legal_step(plan: &StitchPlan, own_pins: &FastSet<Point>, from: GridPoint, to: GridPoint) -> bool {
        if !plan.is_on_line(from.x) {
            return true;
        }
        if to.y != from.y {
            return false;
        }
        to.layer == from.layer || own_pins.contains(&from.point())
    }

    /// Independent oracle for the soft search: a 0-1 BFS over the legal
    /// moves of the whole grid, where entering a cell `net` cannot pass
    /// costs 1 and any other step 0. Returns the fewest such cells a
    /// path from `src` to `dst` can enter, or `None` if the hard cells
    /// cut `dst` off.
    fn fewest_blocked(
        grid: &DetailedGrid,
        plan: &StitchPlan,
        net: u32,
        own_pins: &FastSet<Point>,
        hard: &[bool],
        src: u32,
        dst: u32,
    ) -> Option<u32> {
        let mut best = vec![u32::MAX; grid.cell_count()];
        let mut deque = VecDeque::from([src]);
        best[src as usize] = 0;
        while let Some(u) = deque.pop_front() {
            let pu = grid.point(u);
            for q in grid.moves(pu) {
                if !legal_step(plan, own_pins, pu, q) {
                    continue;
                }
                let v = grid.node(q);
                let blocked = !grid.passable(v, net);
                if blocked && hard[v as usize] {
                    continue;
                }
                let d = best[u as usize] + u32::from(blocked);
                if d < best[v as usize] {
                    best[v as usize] = d;
                    if blocked {
                        deque.push_back(v);
                    } else {
                        deque.push_front(v);
                    }
                }
            }
        }
        let d = best[dst as usize];
        (d != u32::MAX).then_some(d)
    }

    /// A 40×30×3 grid with a full-height wall of net 7 across column 20
    /// on every layer, and net 0's pins on either side of it.
    fn walled() -> (DetailedGrid, StitchPlan, u32, u32, FastSet<Point>) {
        let (mut grid, plan) = setup();
        for y in 0..grid.height() {
            for l in 0..3u8 {
                let node = grid.node(GridPoint::new(20, y as Coord, Layer::new(l)));
                grid.occupy(node, 7);
            }
        }
        let src = grid.node(GridPoint::new(2, 10, Layer::new(0)));
        let dst = grid.node(GridPoint::new(35, 10, Layer::new(0)));
        grid.occupy(src, 0);
        grid.occupy(dst, 0);
        let pins = [src, dst].iter().map(|&c| grid.point(c).point()).collect();
        (grid, plan, src, dst, pins)
    }

    /// A 40×30×3 grid where net 7 rings net 0's target pin at (30, 15)
    /// on every layer, leaving a 3×3 pocket, and the source pin sits in
    /// the open at (5, 15).
    fn pocket() -> (DetailedGrid, StitchPlan, u32, u32, FastSet<Point>) {
        let (mut grid, plan) = setup();
        for y in 13..=17 {
            for x in 28..=32 {
                if (x - 30i32).abs().max((y - 15i32).abs()) == 2 {
                    for l in 0..3u8 {
                        grid.occupy(grid.node(GridPoint::new(x, y, Layer::new(l))), 7);
                    }
                }
            }
        }
        let src = grid.node(GridPoint::new(5, 15, Layer::new(0)));
        let dst = grid.node(GridPoint::new(30, 15, Layer::new(0)));
        grid.occupy(src, 0);
        grid.occupy(dst, 0);
        let pins = [src, dst].iter().map(|&c| grid.point(c).point()).collect();
        (grid, plan, src, dst, pins)
    }

    fn query<'a>(
        grid: &'a DetailedGrid,
        field: &'a CostField,
        own_pins: &'a FastSet<Point>,
        hard: &'a [bool],
        node_cap: usize,
        cancel: &'a CancelToken,
    ) -> SoftQuery<'a> {
        SoftQuery { grid, field, net: 0, own_pins, hard, node_cap, cancel }
    }

    fn found(outcome: Soft) -> Option<Vec<u32>> {
        match outcome {
            Soft::Found(path) => Some(path),
            Soft::GaveUp | Soft::Overrun => None,
        }
    }

    /// One unbudgeted phase in either direction from `src` to the
    /// single-cell components `dsts`, as [`DialSolver::soft_path`]
    /// would run it. Returns the path, the pops it charged, and the
    /// distance the search stored at the cell where it stopped (the
    /// path's last cell forward, its first in reverse): the search's
    /// own eq. (10) cost of the path.
    fn one_way(
        solver: &mut DialSolver,
        q: &SoftQuery<'_>,
        src: u32,
        dsts: &[u32],
        reverse: bool,
    ) -> (Option<Vec<u32>>, usize, u64) {
        let mut spent = 0;
        let outcome = if reverse {
            let mut back = dsts.to_vec();
            back.sort_unstable();
            solver.soft_phase::<true>(q, &back, &comps(&[src]), usize::MAX, &mut spent)
        } else {
            let targets: Vec<FastSet<u32>> = dsts.iter().map(|&d| comps(&[d]).remove(0)).collect();
            solver.soft_phase::<false>(q, &[src], &targets, usize::MAX, &mut spent)
        };
        let path = found(outcome);
        let end = path.as_ref().map_or(src, |p| if reverse { p[0] } else { p[p.len() - 1] });
        let dist = u64::from((solver.cells[end as usize] >> DIST_SHIFT) as u32);
        (path, spent, dist)
    }

    /// Re-walks `path` forward and checks it: it starts at `src`, ends
    /// at one of `dsts`, every step is a grid move obeying the hard
    /// stitch rules, and no hard cell is entered. Returns the foreign
    /// cells entered and the eq. (10) cost (a via costs its column's
    /// `via`, a planar step `planar` of the column it moves into).
    #[allow(clippy::too_many_arguments)]
    fn walk(
        grid: &DetailedGrid,
        plan: &StitchPlan,
        field: &CostField,
        own_pins: &FastSet<Point>,
        hard: &[bool],
        src: u32,
        dsts: &[u32],
        path: &[u32],
    ) -> Result<(u32, u64), String> {
        if path.first() != Some(&src) || !path.last().is_some_and(|t| dsts.contains(t)) {
            return Err(format!("path runs {:?} -> {:?}", path.first(), path.last()));
        }
        let col = |x: Coord| (x - grid.outline().x0()) as usize;
        let mut cost = 0u64;
        for pair in path.windows(2) {
            let (a, b) = (grid.point(pair[0]), grid.point(pair[1]));
            if !grid.moves(a).any(|q| q == b) {
                return Err(format!("{a:?} -> {b:?} is no grid move"));
            }
            if !legal_step(plan, own_pins, a, b) {
                return Err(format!("{a:?} -> {b:?} breaks a stitch rule"));
            }
            cost += u64::from(if a.layer == b.layer {
                field.planar[col(b.x)]
            } else {
                field.via[col(a.x)]
            });
        }
        let mut crossed = 0u32;
        for &c in path {
            if !grid.passable(c, 0) {
                if hard[c as usize] {
                    return Err(format!("path enters hard cell {:?}", grid.point(c)));
                }
                crossed += 1;
            }
        }
        Ok((crossed, cost))
    }

    #[test]
    fn prop_soft_path_crosses_the_fewest_blocked_cells() {
        prop_check!(
            Config::with_cases(96),
            (
                ints(6u32..=20),
                ints(4u32..=12),
                ints(2u8..=4),
                ints(0u32..=70),
                ints(0u64..=u64::MAX),
                ints(0usize..=64),
                ints(1usize..=2),
            ),
            |(w, h, layers, density, seed, budget, n_dsts)| {
                let outline = Rect::new(0, 0, w as Coord - 1, h as Coord - 1);
                // Lines every 5 columns put stitch rules into small grids.
                let stitch = StitchConfig { period: 5, epsilon: 1, escape_width: 2 };
                let plan = StitchPlan::new(outline, stitch);
                let mut grid = DetailedGrid::new(outline, layers);
                let mut rng = Xoshiro256pp::from_seed(seed);
                let cells = grid.cell_count();
                let mut hard = vec![false; cells];
                for node in 0..cells as u32 {
                    if rng.gen_range(0u32..100) < density {
                        grid.occupy(node, 1 + rng.gen_range(0u32..3));
                        hard[node as usize] = rng.gen_bool(0.25);
                    }
                }
                let src = rng.gen_index(cells) as u32;
                let dsts: Vec<u32> = (0..n_dsts).map(|_| rng.gen_index(cells) as u32).collect();
                prop_assume!(!dsts.contains(&src) && dsts.first() != dsts.get(1));
                // The net's own pins: passable to it, hard to everyone
                // else, exactly as the blocker round's mask marks them.
                for &pin in dsts.iter().chain([&src]) {
                    grid.occupy(pin, 0);
                    hard[pin as usize] = true;
                }
                let own: FastSet<Point> =
                    dsts.iter().chain([&src]).map(|&c| grid.point(c).point()).collect();
                let field = field_for(&grid, &plan);
                let token = CancelToken::default();
                let q = query(&grid, &field, &own, &hard, usize::MAX, &token);
                let mut solver = DialSolver::new(field.span);
                let targets: Vec<FastSet<u32>> = dsts.iter().map(|&d| comps(&[d]).remove(0)).collect();
                // Each direction's own distance must be the forward
                // cost of the path it returns.
                let (forward, _, forward_dist) = one_way(&mut solver, &q, src, &dsts, false);
                let (reverse, _, reverse_dist) = one_way(&mut solver, &q, src, &dsts, true);
                let own_dists = [("forward", &forward, forward_dist), ("reverse", &reverse, reverse_dist)];
                for (name, path, dist) in own_dists {
                    if let Some(path) = path {
                        let cost = walk(&grid, &plan, &field, &own, &hard, src, &dsts, path);
                        prop_assert_eq!(cost.map(|c| c.1), Ok(dist), "{name} search's own distance");
                    }
                }
                let searches = [
                    ("forward", forward),
                    ("reverse", reverse),
                    ("budgeted", solver.soft_path(&q, &[src], &targets, budget)),
                    (
                        "default",
                        solver.find_soft_path(
                            &grid, &field, 0, &own, &hard, &[src], &targets, usize::MAX, &token,
                        ),
                    ),
                ];
                let oracle = dsts
                    .iter()
                    .filter_map(|&d| fewest_blocked(&grid, &plan, 0, &own, &hard, src, d))
                    .min();
                let mut optimum = None;
                for (name, path) in searches {
                    let Some(path) = path else {
                        prop_assert!(oracle.is_none(), "{name} search gave up, oracle found {oracle:?}");
                        continue;
                    };
                    let got = match walk(&grid, &plan, &field, &own, &hard, src, &dsts, &path) {
                        Ok(got) => got,
                        Err(e) => return mebl_testkit::prop::CaseResult::Fail(format!("{name}: {e}")),
                    };
                    prop_assert_eq!(Some(got.0), oracle, "{name} search");
                    // Every direction finds the same (foreign cells,
                    // cost) optimum; only ties may break differently.
                    prop_assert_eq!(*optimum.get_or_insert(got), got, "{name} search");
                }
            }
        );
    }

    #[test]
    fn soft_search_crosses_a_wall_and_stops_at_its_cap() {
        let (grid, plan, src, dst, pins) = walled();
        let field = field_for(&grid, &plan);
        let mut solver = DialSolver::new(field.span);
        let hard = vec![false; grid.cell_count()];
        let search = |solver: &mut DialSolver, cap: usize| {
            solver.find_soft_path(
                &grid, &field, 0, &pins, &hard, &[src], &comps(&[dst]), cap,
                &CancelToken::default(),
            )
        };
        let path = search(&mut solver, usize::MAX).expect("the wall is soft");
        let crossed = path.iter().filter(|&&c| grid.occupant(c) == Some(7)).count();
        assert_eq!(crossed, 1, "one wall cell is the fewest");
        assert!(search(&mut solver, 1).is_none(), "cap 1 must exhaust");
        // The same solver still finds the path after an exhausted search.
        assert_eq!(search(&mut solver, usize::MAX), Some(path));
        // A hard wall cuts the target off entirely.
        let all_hard = vec![true; grid.cell_count()];
        let cut = solver.find_soft_path(
            &grid, &field, 0, &pins, &all_hard, &[src], &comps(&[dst]), usize::MAX,
            &CancelToken::default(),
        );
        assert!(cut.is_none());
    }

    #[test]
    fn soft_search_charges_one_expansion_per_pop() {
        let (grid, plan, src, dst, pins) = walled();
        let field = field_for(&grid, &plan);
        let mut solver = DialSolver::new(field.span);
        let hard = vec![false; grid.cell_count()];
        let mut search = |cap: usize, token: &CancelToken| {
            solver.find_soft_path(&grid, &field, 0, &pins, &hard, &[src], &comps(&[dst]), cap, token)
        };
        let token = CancelToken::armed(None, None);
        assert!(search(usize::MAX, &token).is_some());
        let pops = token.expansions();
        assert!(pops > 0);
        // The node cap counts the same pops the token is charged for:
        // exactly `pops` of them fit, one fewer does not.
        let token = CancelToken::armed(None, None);
        assert!(search(pops as usize, &token).is_some());
        assert_eq!(token.expansions(), pops);
        let token = CancelToken::armed(None, None);
        assert!(search(pops as usize - 1, &token).is_none());
        assert_eq!(token.expansions(), pops - 1);
        // A token budget cancels the search on its last charge.
        let token = CancelToken::armed(Some(5), None);
        assert!(search(usize::MAX, &token).is_none());
        assert_eq!(token.expansions(), 5);
    }

    #[test]
    fn soft_phases_share_the_node_cap_and_charge_once_per_pop() {
        // Both sides of the wall flood more than 100 cells at level 0,
        // so a budget of 100 runs all three phases.
        let (grid, plan, src, dst, pins) = walled();
        let field = field_for(&grid, &plan);
        let mut solver = DialSolver::new(field.span);
        let hard = vec![false; grid.cell_count()];
        let token = CancelToken::armed(None, None);
        let q = query(&grid, &field, &pins, &hard, usize::MAX, &token);
        let (alone, fwd, _) = one_way(&mut solver, &q, src, &[dst], false);
        assert!(alone.is_some());
        assert_eq!(token.expansions(), fwd as u64);
        let budget = 100;
        let total = 2 * budget + fwd;
        let token = CancelToken::armed(None, None);
        let q = query(&grid, &field, &pins, &hard, usize::MAX, &token);
        let path = solver.soft_path(&q, &[src], &comps(&[dst]), budget);
        assert_eq!(token.expansions(), total as u64, "each budgeted phase charged its budget");
        assert_eq!(path, alone, "the unbudgeted forward phase repeats the forward search");
        // The cap binds on the pops of all phases together, in every phase.
        for cap in [budget - 1, budget + 1, 2 * budget + 1, total - 1, total] {
            let token = CancelToken::armed(None, None);
            let q = query(&grid, &field, &pins, &hard, cap, &token);
            let path = solver.soft_path(&q, &[src], &comps(&[dst]), budget);
            assert_eq!(path.is_some(), cap == total, "cap {cap}");
            assert_eq!(token.expansions(), cap as u64, "cap {cap}");
        }
    }

    #[test]
    fn walled_in_target_is_searched_from_its_pocket() {
        let (grid, plan, src, dst, pins) = pocket();
        // Without stitch costs every planar step costs the heuristic's
        // unit, so A* runs straight at its goal once it leaves the pocket.
        let field = CostField::build(&grid, &plan, 1, 10, 5, 2, false);
        let mut solver = DialSolver::new(field.span);
        let hard = vec![false; grid.cell_count()];
        let budget = soft_budget(grid.cell_count());
        let token = CancelToken::armed(None, None);
        let q = query(&grid, &field, &pins, &hard, usize::MAX, &token);
        let (forward, fwd, _) = one_way(&mut solver, &q, src, &[dst], false);
        let (reverse, rev, _) = one_way(&mut solver, &q, src, &[dst], true);
        assert!(
            fwd > budget && rev < budget,
            "forward floods ({fwd} pops), reverse stays near the pocket ({rev})"
        );
        let token = CancelToken::armed(None, None);
        let path = solver.find_soft_path(
            &grid, &field, 0, &pins, &hard, &[src], &comps(&[dst]), usize::MAX, &token,
        );
        // Forward overran its budget, the reverse phase found the path.
        assert_eq!(path, reverse);
        assert_eq!(token.expansions(), (budget + rev) as u64);
        let path = path.expect("the ring is soft");
        assert_eq!(path.first(), Some(&src));
        assert_eq!(path.last(), Some(&dst));
        let cost = |p: &[u32]| walk(&grid, &plan, &field, &pins, &hard, src, &[dst], p);
        assert_eq!(cost(&path), cost(&forward.expect("forward path")));
        assert_eq!(cost(&path).map(|c| c.0), Ok(1), "one ring cell is the fewest");
    }

    /// Plain reachability oracle for the hard search: the cells reached
    /// from `from` over legal moves that stay inside `win` and enter
    /// only cells `net` may pass.
    fn reachable(
        grid: &DetailedGrid,
        plan: &StitchPlan,
        net: u32,
        own_pins: &FastSet<Point>,
        win: GridWindow,
        from: &[u32],
    ) -> FastSet<u32> {
        let mut seen: FastSet<u32> = from.iter().copied().collect();
        let mut todo: Vec<u32> = from.to_vec();
        while let Some(u) = todo.pop() {
            let pu = grid.point(u);
            for q in grid.moves(pu) {
                let inside = win.contains(q.x as u32, q.y as u32);
                let v = grid.node(q);
                let enters = inside && legal_step(plan, own_pins, pu, q) && grid.passable(v, net);
                if enters && seen.insert(v) {
                    todo.push(v);
                }
            }
        }
        seen
    }

    /// The window a hard search between `src` and `dsts` runs in.
    fn window(grid: &DetailedGrid, src: u32, dsts: &[u32], margin: Coord) -> GridWindow {
        let mut bbox = (i64::MAX, i64::MAX, i64::MIN, i64::MIN);
        for &c in dsts.iter().chain([&src]) {
            let p = grid.point(c);
            let (x, y) = (i64::from(p.x), i64::from(p.y));
            bbox = (bbox.0.min(x), bbox.1.min(y), bbox.2.max(x), bbox.3.max(y));
        }
        GridWindow::clamped(grid.width(), grid.height(), bbox, i64::from(margin))
    }

    #[test]
    fn prop_pocket_check_keeps_every_hard_search_result() {
        prop_check!(
            Config::with_cases(96),
            (
                ints(6u32..=20),
                ints(4u32..=12),
                ints(2u8..=4),
                ints(0u32..=50),
                ints(0u64..=u64::MAX),
                ints(0i32..=6),
                ints(1usize..=2),
                ints(0u32..=7),
            ),
            |(w, h, layers, density, seed, margin, n_dsts, rings)| {
                let outline = Rect::new(0, 0, w as Coord - 1, h as Coord - 1);
                // Lines every 5 columns put stitch rules into small grids.
                let stitch = StitchConfig { period: 5, epsilon: 1, escape_width: 2 };
                let plan = StitchPlan::new(outline, stitch);
                let mut grid = DetailedGrid::new(outline, layers);
                let mut rng = Xoshiro256pp::from_seed(seed);
                let cells = grid.cell_count();
                for node in 0..cells as u32 {
                    if rng.gen_range(0u32..100) < density {
                        grid.occupy(node, 1 + rng.gen_range(0u32..3));
                    }
                }
                let src = rng.gen_index(cells) as u32;
                let dsts: Vec<u32> = (0..n_dsts).map(|_| rng.gen_index(cells) as u32).collect();
                prop_assume!(!dsts.contains(&src) && dsts.first() != dsts.get(1));
                let pins: Vec<u32> = dsts.iter().chain([&src]).copied().collect();
                // Ring the pins picked by `rings` with net 7 on every
                // layer, at Chebyshev radius 1 or 2, sometimes leaving a gap.
                for (i, &pin) in pins.iter().enumerate() {
                    if rings >> i & 1 == 0 {
                        continue;
                    }
                    let c = grid.point(pin);
                    let r: i32 = rng.gen_range(1i32..3);
                    let gap = rng.gen_bool(0.3).then(|| (c.x + r, c.y));
                    for y in c.y - r..=c.y + r {
                        for x in c.x - r..=c.x + r {
                            let on_ring = (x - c.x).abs().max((y - c.y).abs()) == r;
                            let inside = x >= 0 && y >= 0 && x < w as Coord && y < h as Coord;
                            if on_ring && inside && gap != Some((x, y)) {
                                for l in 0..layers {
                                    grid.occupy(grid.node(GridPoint::new(x, y, Layer::new(l))), 7);
                                }
                            }
                        }
                    }
                }
                for &pin in &pins {
                    grid.occupy(pin, 0);
                }
                let own: FastSet<Point> = pins.iter().map(|&c| grid.point(c).point()).collect();
                let field = field_for(&grid, &plan);
                let targets: Vec<FastSet<u32>> = dsts.iter().map(|&d| comps(&[d]).remove(0)).collect();
                let token = CancelToken::default();
                let mut solver = DialSolver::new(field.span);
                let mut search = |probe_at: usize| {
                    solver.hard_path(
                        &grid, &field, 0, &own, &[src], &targets, margin, usize::MAX, &token, probe_at,
                    )
                };
                let probe_at = 2 + rng.gen_index(63);
                let unchecked = search(usize::MAX);
                prop_assert_eq!(search(1), unchecked.clone(), "check at the first pop");
                prop_assert_eq!(search(probe_at), unchecked.clone(), "check at pop {probe_at}");
                let reach = reachable(&grid, &plan, 0, &own, window(&grid, src, &dsts, margin), &[src]);
                let oracle = dsts.iter().any(|d| reach.contains(d));
                prop_assert_eq!(unchecked.is_some(), oracle, "search vs reachability");
            }
        );
    }

    #[test]
    fn ringed_target_stops_at_the_probe() {
        let (grid, plan, src, dst, pins) = pocket();
        let field = field_for(&grid, &plan);
        let mut solver = DialSolver::new(field.span);
        let margin = 18;
        let win = window(&grid, src, &[dst], margin);
        let pocket_cells = reachable(&grid, &plan, 0, &pins, win, &[dst]).len();
        let open_cells = reachable(&grid, &plan, 0, &pins, win, &[src]).len();
        assert!(open_cells > WALL_PROBE_AT, "the open side floods {open_cells} cells");
        let token = CancelToken::armed(None, None);
        let found = solver.find_path(
            &grid, &field, 0, &pins, &[src], &comps(&[dst]), margin, usize::MAX, &token,
        );
        assert!(found.is_none());
        assert_eq!(
            token.expansions(),
            (WALL_PROBE_AT + pocket_cells) as u64,
            "forward pops up to the probe, then one walk pop per pocket cell"
        );
        // Without the check the search floods everything the source reaches.
        let token = CancelToken::armed(None, None);
        let found = solver.hard_path(
            &grid, &field, 0, &pins, &[src], &comps(&[dst]), margin, usize::MAX, &token, usize::MAX,
        );
        assert!(found.is_none());
        assert_eq!(token.expansions(), open_cells as u64);
    }

    #[test]
    fn pocket_walk_pops_charge_the_token_but_not_the_node_cap() {
        // The wall of `walled` with one gap in its top row: the search
        // must flood its side of the wall before it finds the way round,
        // so it passes the probe, and the walk from the target side then
        // overruns its limit or meets the forward search through the gap.
        let (mut grid, plan, src, dst, pins) = walled();
        let top = grid.height() as Coord - 1;
        grid.free(grid.node(GridPoint::new(20, top, Layer::new(0))));
        let field = field_for(&grid, &plan);
        let mut solver = DialSolver::new(field.span);
        let mut search = |cap: usize, probe_at: usize, token: &CancelToken| {
            solver.hard_path(&grid, &field, 0, &pins, &[src], &comps(&[dst]), 40, cap, token, probe_at)
        };
        let token = CancelToken::armed(None, None);
        let path = search(usize::MAX, usize::MAX, &token).expect("round the wall");
        let forward = token.expansions();
        assert!(forward > WALL_PROBE_AT as u64, "{forward} forward pops");
        let token = CancelToken::armed(None, None);
        assert_eq!(search(usize::MAX, WALL_PROBE_AT, &token).as_ref(), Some(&path));
        let walked = token.expansions() - forward;
        assert!(walked > 0, "the walk ran");
        // Exactly `forward` pops fit the cap with the walk's pops on top;
        // one fewer does not.
        let cap = forward as usize;
        let token = CancelToken::armed(None, None);
        assert_eq!(search(cap, WALL_PROBE_AT, &token).as_ref(), Some(&path));
        assert_eq!(token.expansions(), forward + walked);
        let token = CancelToken::armed(None, None);
        assert!(search(cap - 1, WALL_PROBE_AT, &token).is_none());
        assert_eq!(token.expansions(), forward - 1 + walked);
    }
}
