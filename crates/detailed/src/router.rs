//! Detailed routing: seeding, ordering, dense-grid search, pruning.

use crate::dense::{CostField, DialSolver};
use crate::{realize_seeds, DetailedGrid};
use mebl_assign::TrackResult;
use mebl_control::{CancelToken, Degradation, DegradationKind, Stage};
use mebl_geom::{Coord, GridPoint, Point, Rect, RouteGeometry, Segment, Via};
use mebl_global::TileGraph;
use mebl_netlist::Circuit;
use mebl_graph::{FastMap, FastSet, UnionFind};
use mebl_par::Pool;
use mebl_stitch::StitchPlan;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;

/// Which shortest-path engine connects net components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchEngine {
    /// Dense-grid Dial search: flat arrays, precomputed per-column cost
    /// layers, an integer bucket queue, and solver state reused across
    /// nets. The production hot path.
    #[default]
    Dial,
    /// The pre-rewrite heap-based A\*, retained as the differential
    /// oracle for `tests/router_equivalence.rs`. Slower; identical cost
    /// model up to a constant scale factor.
    LegacyHeap,
}

/// Configuration of stitch-aware detailed routing.
///
/// Paper defaults: α = 1, β = 10, γ = 5 (§IV-A), with β ≫ γ so vias avoid
/// stitch unfriendly regions far more strongly than paths avoid escape
/// regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetailedConfig {
    /// Wirelength weight α of eq. (10).
    pub alpha: u64,
    /// Via-in-stitch-unfriendly-region weight β.
    pub beta: u64,
    /// Escape-region weight γ.
    pub gamma: u64,
    /// Cost of a z-move in α units (a via is dearer than a track step).
    pub via_cost: u64,
    /// Apply the stitch-aware weighted costs (β, γ). Hard constraints stay
    /// enforced either way, as in the paper's baseline.
    pub stitch_costs: bool,
    /// Use stitch-aware net ordering (more bad ends first).
    pub stitch_order: bool,
    /// Search-window margin around each connection's bounding box.
    pub margin: Coord,
    /// Node-expansion cap per search.
    pub node_cap: usize,
    /// Window-growth retries before a connection is declared failed.
    pub retries: usize,
    /// Shortest-path engine; [`SearchEngine::Dial`] unless a test pits
    /// the engines against each other.
    pub engine: SearchEngine,
    /// Cooperative cancellation/budget handle. Inert by default; when
    /// armed, searches abort mid-expansion (the aborted net is ripped
    /// up like any failed net) and remaining nets/rip-up rounds are
    /// skipped, keeping partial geometry audit-clean.
    pub cancel: CancelToken,
    /// Worker pool for speculative net batches. Every pool width runs
    /// the same batched algorithm with an ordered, conflict-checked
    /// commit, so unbudgeted results are bit-identical regardless of
    /// worker count (DESIGN.md §9).
    pub pool: Pool,
}

impl Default for DetailedConfig {
    fn default() -> Self {
        Self {
            alpha: 1,
            beta: 10,
            gamma: 5,
            via_cost: 2,
            stitch_costs: true,
            stitch_order: true,
            margin: 8,
            node_cap: 60_000,
            retries: 3,
            engine: SearchEngine::Dial,
            cancel: CancelToken::default(),
            pool: Pool::serial(),
        }
    }
}

impl DetailedConfig {
    /// The Table VIII baseline: no stitch-aware costs or ordering.
    pub fn without_stitch_consideration() -> Self {
        Self {
            stitch_costs: false,
            stitch_order: false,
            ..Self::default()
        }
    }
}

/// Sentinel occupant for blockage cells. The stored raw occupancy is
/// `BLOCKAGE_NET + 1 == u32::MAX`, far above any real net index, so
/// blockage cells are impassable to every net and are never freed by
/// rip-up (which always names a concrete net).
pub const BLOCKAGE_NET: u32 = u32::MAX - 1;

/// Marks every cell covered by the circuit's blockages, on all layers,
/// as owned by [`BLOCKAGE_NET`]. Runs before pins are placed, so a pin
/// inside a blockage (already a validation error upstream) still ends up
/// owned by its net rather than silently walling the net in.
fn occupy_blockages(grid: &mut DetailedGrid, circuit: &Circuit) {
    for b in circuit.blockages() {
        for l in 0..grid.layers() {
            let layer = mebl_geom::Layer::new(l);
            for y in b.y0()..=b.y1() {
                for x in b.x0()..=b.x1() {
                    let node = grid.node(GridPoint::new(x, y, layer));
                    grid.occupy(node, BLOCKAGE_NET);
                }
            }
        }
    }
}

/// Outcome of detailed routing.
#[derive(Debug, Clone)]
pub struct DetailedResult {
    /// Final geometry per net (empty for failed nets).
    pub geometry: Vec<RouteGeometry>,
    /// Whether each net was fully connected.
    pub routed: Vec<bool>,
    /// Number of routed nets.
    pub routed_count: usize,
}

/// Routes all nets on the detailed grid.
///
/// Seeds from `tracks` are pre-placed (nets in `tracks.failed_nets` get no
/// seeds and are routed directly pin-to-pin); nets are ordered by bad-end
/// count when [`DetailedConfig::stitch_order`] is set; each net's
/// components are then joined by stitch-aware shortest paths and its final
/// cell set is pruned of dangling stubs before geometry extraction.
///
/// The per-column cost layers are built once here and shared by every
/// search; each worker keeps one reusable [`DialSolver`] so routing a net
/// costs an epoch bump, not an allocation storm.
pub fn route_detailed(
    circuit: &Circuit,
    plan: &StitchPlan,
    graph: &TileGraph,
    tracks: &TrackResult,
    config: &DetailedConfig,
) -> DetailedResult {
    let n = circuit.net_count();
    let mut grid = DetailedGrid::new(circuit.outline(), circuit.layer_count());
    let field = CostField::build(
        &grid,
        plan,
        config.alpha,
        config.beta,
        config.gamma,
        config.via_cost,
        config.stitch_costs,
    );
    let mut solver = DialSolver::new(field.span);
    occupy_blockages(&mut grid, circuit);

    // Fixed pins block their cells for everyone else, and allow the
    // pin-owning net to drop vias on stitching lines.
    let mut pin_cells: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut pin_points: Vec<FastSet<Point>> = vec![FastSet::default(); n];
    for (id, net) in circuit.iter_nets() {
        for pin in net.pins() {
            let node = grid.node(pin.position.on_layer(pin.layer));
            grid.occupy(node, id.0);
            pin_cells[id.0 as usize].push(node);
            pin_points[id.0 as usize].insert(pin.position);
        }
    }

    // Place seeds; runs interrupted by foreign pins split into sub-runs.
    let mut seed_components: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
    for seg in &tracks.segments {
        if tracks.failed_nets.contains(&seg.net) {
            continue;
        }
        for run in realize_seeds(seg, graph) {
            let mut current: Vec<u32> = Vec::new();
            for cell in run {
                let node = grid.node(cell);
                if grid.passable(node, seg.net as u32) {
                    grid.occupy(node, seg.net as u32);
                    current.push(node);
                } else if !current.is_empty() {
                    seed_components[seg.net].push(std::mem::take(&mut current));
                }
            }
            if !current.is_empty() {
                seed_components[seg.net].push(current);
            }
        }
    }

    // Net ordering: more bad ends first (stitch-aware), then shorter nets.
    let mut bad_ends = vec![0usize; n];
    for seg in &tracks.segments {
        if seg.horizontal || tracks.failed_nets.contains(&seg.net) {
            continue;
        }
        bad_ends[seg.net] += usize::from(seg.end_is_bad(plan, false))
            + usize::from(seg.end_is_bad(plan, true));
    }
    let mut order: Vec<usize> = (0..n).collect();
    if config.stitch_order {
        order.sort_by_key(|&i| (Reverse(bad_ends[i]), circuit.nets()[i].hpwl(), i));
    } else {
        order.sort_by_key(|&i| (circuit.nets()[i].hpwl(), i));
    }

    let mut result = DetailedResult {
        geometry: vec![RouteGeometry::new(); n],
        routed: vec![false; n],
        routed_count: 0,
    };

    route_pass(
        plan, &field, config, &order, &mut grid, &mut solver, &pin_cells,
        &pin_points, &seed_components, &mut result,
    );

    rip_up_tail(
        circuit, plan, &field, config, &mut grid, &mut solver, &pin_cells, &pin_points,
        &order, &mut result,
    );
    result
}

/// Incrementally routes only the nets whose `preserved` entry is `None`,
/// reconstructing grid occupancy from every preserved net's geometry.
///
/// `preserved[i] = Some((routed, geometry))` keeps net `i` exactly as the
/// prior outcome left it — including a preserved *failure*, which is not
/// retried; `None` marks net `i` as a target for (re-)routing. Preserved
/// occupancy is rebuilt from segment points and via endpoints plus every
/// net's pins, which is exactly the state the prior detailed run left
/// behind (geometry extraction frees all other cells), so ripping up the
/// target nets is an exact-inverse undo.
///
/// Target nets route seedless (pin-to-pin, like rip-up rounds) through
/// the same deterministic batched pass, relaxed round and blocker
/// rip-up as [`route_detailed`] — except rip-up victims are restricted
/// to target nets and preserved geometry is frozen, so a delta run never
/// disturbs what it promised to keep.
///
/// # Panics
///
/// Panics if `preserved.len() != circuit.net_count()`.
pub fn route_incremental(
    circuit: &Circuit,
    plan: &StitchPlan,
    config: &DetailedConfig,
    preserved: &[Option<(bool, RouteGeometry)>],
) -> DetailedResult {
    let n = circuit.net_count();
    assert!(
        preserved.len() == n,
        "preserved state must cover every net"
    );
    let mut grid = DetailedGrid::new(circuit.outline(), circuit.layer_count());
    let field = CostField::build(
        &grid,
        plan,
        config.alpha,
        config.beta,
        config.gamma,
        config.via_cost,
        config.stitch_costs,
    );
    let mut solver = DialSolver::new(field.span);
    occupy_blockages(&mut grid, circuit);

    let mut result = DetailedResult {
        geometry: vec![RouteGeometry::new(); n],
        routed: vec![false; n],
        routed_count: 0,
    };

    // Re-occupy preserved geometry first, then pins: a pin cell always
    // ends up owned by the pin's net, matching [`route_detailed`].
    for (i, kept) in preserved.iter().enumerate() {
        let Some((routed, geometry)) = kept else {
            continue;
        };
        for gp in geometry_points(geometry) {
            let node = grid.node(gp);
            grid.occupy(node, i as u32);
        }
        result.geometry[i] = geometry.clone();
        result.routed[i] = *routed;
        if *routed {
            result.routed_count += 1;
        }
    }
    let mut pin_cells: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut pin_points: Vec<FastSet<Point>> = vec![FastSet::default(); n];
    for (id, net) in circuit.iter_nets() {
        for pin in net.pins() {
            let node = grid.node(pin.position.on_layer(pin.layer));
            grid.occupy(node, id.0);
            pin_cells[id.0 as usize].push(node);
            pin_points[id.0 as usize].insert(pin.position);
        }
    }

    let mut targets: Vec<usize> = (0..n).filter(|&i| preserved[i].is_none()).collect();
    targets.sort_by_key(|&i| (circuit.nets()[i].hpwl(), i));

    let no_seeds: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
    route_pass(
        plan, &field, config, &targets, &mut grid, &mut solver, &pin_cells,
        &pin_points, &no_seeds, &mut result,
    );

    rip_up_tail(
        circuit, plan, &field, config, &mut grid, &mut solver, &pin_cells, &pin_points,
        &targets, &mut result,
    );
    result
}

/// The failed-net rip-up/reroute tail shared by [`route_detailed`] and
/// [`route_incremental`] — the "failed net rip-up/rerouting" of the
/// second bottom-up pass (Fig. 6). `candidates` are the nets this run
/// may route or rip up (every net from scratch, the target nets in an
/// incremental run); every other net is fixed.
///
/// A relaxed round first retries the failed candidates seedlessly with
/// a wider window and a larger expansion budget: all failed nets'
/// resources are free by now. The blocker round then recovers nets
/// that are walled in. Candidates still unrouted afterwards get one
/// `SearchExhausted` record each, in net-index order so the record
/// stream never depends on worker scheduling. Budget-cancelled runs
/// skip those records: their failed nets already carry
/// budget-exhausted ones.
///
/// One relaxed round is enough: a second one, with the budget doubled
/// again, routed no net on any circuit of either suite at quick scale
/// nor on S38584 at scales 0.15 and 0.25, in both flows.
#[allow(clippy::too_many_arguments)]
fn rip_up_tail(
    circuit: &Circuit,
    plan: &StitchPlan,
    field: &CostField,
    config: &DetailedConfig,
    grid: &mut DetailedGrid,
    solver: &mut DialSolver,
    pin_cells: &[Vec<u32>],
    pin_points: &[FastSet<Point>],
    candidates: &[usize],
    result: &mut DetailedResult,
) {
    let failed = |result: &DetailedResult| -> Vec<usize> {
        let mut failed: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| !result.routed[i])
            .collect();
        failed.sort_by_key(|&i| (circuit.nets()[i].hpwl(), i));
        failed
    };
    let relaxed_failed = failed(result);
    if relaxed_failed.is_empty() {
        return;
    }
    if config.cancel.is_cancelled_now() {
        config.cancel.record(Degradation::new(
            Stage::Detailed,
            DegradationKind::BudgetExhausted,
            None,
            format!(
                "rip-up/reroute round skipped ({} nets still failed)",
                relaxed_failed.len()
            ),
        ));
        return;
    }
    let relaxed = DetailedConfig {
        node_cap: config.node_cap.checked_shl(2).unwrap_or(usize::MAX),
        margin: config.margin.checked_shl(1).unwrap_or(Coord::MAX),
        ..config.clone()
    };
    let no_seeds: Vec<Vec<Vec<u32>>> = vec![Vec::new(); pin_cells.len()];
    route_pass(
        plan, field, &relaxed, &relaxed_failed, grid, solver, pin_cells, pin_points,
        &no_seeds, result,
    );

    // A net still failed here survived a complete search of its widened
    // window, so it is walled in by routed nets and further widening
    // rarely helps. One serial round (identical at every worker count
    // by construction) finds the fewest blocker cells to cross with the
    // level-ordered soft Dial search, rips up the blockers along that
    // path, routes the walled-in net through the freed corridor, then
    // reroutes the ripped nets around it.
    let walled_in = failed(result);
    if walled_in.is_empty() || config.cancel.is_cancelled_now() {
        return;
    }
    blocker_ripup_round(
        plan, field, config, grid, solver, pin_cells, pin_points, candidates, walled_in,
        result,
    );
    if config.cancel.is_cancelled_now() {
        return;
    }
    let mut missing = failed(result);
    missing.sort_unstable();
    for net in missing {
        config.cancel.record(Degradation::new(
            Stage::Detailed,
            DegradationKind::SearchExhausted,
            Some(net),
            "search window widening exhausted; net left unrouted",
        ));
    }
}

/// Every grid point covered by `geometry`: the points of its segments
/// and both ends of its vias.
fn geometry_points(geometry: &RouteGeometry) -> impl Iterator<Item = GridPoint> + '_ {
    let wires = geometry.segments().iter().flat_map(|seg| seg.points());
    let vias = geometry.vias().iter().flat_map(|via| {
        [
            GridPoint::new(via.x, via.y, via.lower),
            GridPoint::new(via.x, via.y, via.upper()),
        ]
    });
    wires.chain(vias)
}

/// Nets per speculative batch. Fixed (never derived from the worker
/// count) so batch membership — which determines which nets can race for
/// the same cells — stays identical for every `--threads` value.
const NET_BATCH: usize = 32;

/// Raw occupancy of a cell: 0 = free, `net + 1` = occupied.
fn raw_occupancy(grid: &DetailedGrid, node: u32) -> u32 {
    grid.occupant(node).map_or(0, |net| net + 1)
}

/// Writes a raw occupancy value back to a cell.
fn set_raw_occupancy(grid: &mut DetailedGrid, node: u32, value: u32) {
    if value == 0 {
        grid.free(node);
    } else {
        grid.occupy(node, value - 1);
    }
}

/// Journal of grid mutations made while routing one net speculatively.
///
/// Every occupy/free goes through the log, which remembers the cell's
/// prior raw occupancy, so the run can be (a) rolled back exactly and
/// (b) summarised as a first-touch delta to replay on the master grid.
#[derive(Default)]
struct ChangeLog {
    entries: Vec<(u32, u32)>,
}

impl ChangeLog {
    fn occupy(&mut self, grid: &mut DetailedGrid, node: u32, net: u32) {
        self.entries.push((node, raw_occupancy(grid, node)));
        grid.occupy(node, net);
    }

    fn free(&mut self, grid: &mut DetailedGrid, node: u32) {
        self.entries.push((node, raw_occupancy(grid, node)));
        grid.free(node);
    }

    /// Net effect as `(node, old, new)` raw values in first-touch order,
    /// no-op entries dropped.
    fn delta(&self, grid: &DetailedGrid) -> Vec<(u32, u32, u32)> {
        let mut first: FastMap<u32, u32> =
            FastMap::with_capacity_and_hasher(self.entries.len(), Default::default());
        let mut out: Vec<(u32, u32, u32)> = Vec::new();
        for &(node, old) in &self.entries {
            if let Entry::Vacant(e) = first.entry(node) {
                e.insert(old);
                out.push((node, old, 0));
            }
        }
        out.iter_mut()
            .for_each(|entry| entry.2 = raw_occupancy(grid, entry.0));
        out.retain(|&(_, old, new)| old != new);
        out
    }

    /// Restores every touched cell to its pre-log value.
    fn rollback(&self, grid: &mut DetailedGrid) {
        for &(node, old) in self.entries.iter().rev() {
            set_raw_occupancy(grid, node, old);
        }
    }
}

/// What one speculative net run wants to do to the master grid.
struct NetAttempt {
    routed: bool,
    geometry: RouteGeometry,
    delta: Vec<(u32, u32, u32)>,
}

/// One routing pass over `order` in deterministic speculative batches;
/// skips already-routed nets and updates `result` in place.
///
/// Per batch, each worker routes nets against a clone of the pre-batch
/// grid (with its own reusable solver) and rolls its clone back after
/// every net; the deltas are then committed sequentially in input order.
/// A delta whose newly claimed cells were taken by an earlier commit in
/// the same batch is discarded and the net re-routed inline against the
/// live grid — a decision that depends only on committed state, so the
/// same code path yields the same result for every pool width (a serial
/// pool runs the fan-out inline over one clone).
#[allow(clippy::too_many_arguments)]
fn route_pass(
    plan: &StitchPlan,
    field: &CostField,
    config: &DetailedConfig,
    order: &[usize],
    grid: &mut DetailedGrid,
    solver: &mut DialSolver,
    pin_cells: &[Vec<u32>],
    pin_points: &[FastSet<Point>],
    seed_components: &[Vec<Vec<u32>>],
    result: &mut DetailedResult,
) {
    let pending: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&net| !result.routed[net])
        .collect();
    let mut skipped = 0usize;
    for batch in pending.chunks(NET_BATCH) {
        // Budget checks commit at batch boundaries: a skipped net stays
        // unrouted (pins only), which downstream reporting and the audit
        // already treat as "failed nets contribute nothing".
        if config.cancel.is_cancelled() {
            skipped += batch.len();
            continue;
        }
        let snapshot: &DetailedGrid = grid;
        let attempts: Vec<NetAttempt> = config.pool.par_map_with(
            batch,
            || (snapshot.clone(), DialSolver::new(field.span)),
            |ctx, _, &net| {
                let (local, scratch) = ctx;
                let mut log = ChangeLog::default();
                let (routed, geometry) = route_one_net(
                    plan, field, config, net, local, scratch, &mut log, pin_cells,
                    pin_points, seed_components,
                );
                let delta = log.delta(local);
                log.rollback(local);
                NetAttempt {
                    routed,
                    geometry,
                    delta,
                }
            },
        );
        for (&net, attempt) in batch.iter().zip(attempts) {
            // A speculative claim commits only if every cell it newly
            // occupies is still free on the master grid; frees touch the
            // net's own cells, which no batch peer can have changed.
            let clean = attempt
                .delta
                .iter()
                .all(|&(node, old, new)| old != 0 || new == 0 || grid.occupant(node).is_none());
            if clean {
                for &(node, _, new) in &attempt.delta {
                    set_raw_occupancy(grid, node, new);
                }
                if attempt.routed {
                    result.geometry[net] = attempt.geometry;
                    result.routed[net] = true;
                    result.routed_count += 1;
                }
            } else {
                // A batch peer won the race for shared cells: re-route
                // this net inline against the live grid, keeping changes.
                let mut log = ChangeLog::default();
                let (routed, geometry) = route_one_net(
                    plan, field, config, net, grid, solver, &mut log, pin_cells,
                    pin_points, seed_components,
                );
                if routed {
                    result.geometry[net] = geometry;
                    result.routed[net] = true;
                    result.routed_count += 1;
                }
            }
        }
    }
    if skipped > 0 {
        config.cancel.record(Degradation::new(
            Stage::Detailed,
            DegradationKind::BudgetExhausted,
            None,
            format!("{skipped} nets skipped before detailed routing"),
        ));
    }
}

/// Routes a single net on `grid`, journaling every mutation in `log`.
/// Returns whether the net was fully connected and its geometry.
#[allow(clippy::too_many_arguments)]
fn route_one_net(
    plan: &StitchPlan,
    field: &CostField,
    config: &DetailedConfig,
    net: usize,
    grid: &mut DetailedGrid,
    solver: &mut DialSolver,
    log: &mut ChangeLog,
    pin_cells: &[Vec<u32>],
    pin_points: &[FastSet<Point>],
    seed_components: &[Vec<Vec<u32>>],
) -> (bool, RouteGeometry) {
    let mut components: Vec<FastSet<u32>> = Vec::new();
    for &cell in &pin_cells[net] {
        components.push(std::iter::once(cell).collect());
    }
    for comp in &seed_components[net] {
        components.push(comp.iter().copied().collect());
    }
    merge_touching(grid, &mut components);

    let mut ok = connect_components(
        grid,
        solver,
        log,
        plan,
        field,
        config,
        net as u32,
        &pin_points[net],
        &mut components,
    );
    if !ok && !seed_components[net].is_empty() {
        // Failed-net rip-up/reroute (second bottom-up pass of the
        // framework): drop the net's planned segments and route the
        // pins directly.
        for comp in components.drain(..) {
            for cell in comp {
                if !pin_cells[net].contains(&cell) {
                    log.free(grid, cell);
                }
            }
        }
        for &cell in &pin_cells[net] {
            components.push(std::iter::once(cell).collect());
        }
        merge_touching(grid, &mut components);
        ok = connect_components(
            grid,
            solver,
            log,
            plan,
            field,
            config,
            net as u32,
            &pin_points[net],
            &mut components,
        );
    }
    // `ok` implies exactly one component remains.
    if let Some(full) = ok.then(|| components.pop()).flatten() {
        let mut cells = full.clone();
        prune_stubs(grid, &mut cells, &pin_cells[net]);
        // Free pruned cells on the grid.
        for &cell in &full {
            if !cells.contains(&cell) {
                log.free(grid, cell);
            }
        }
        (true, extract_geometry(grid, &cells))
    } else {
        // Rip up everything except the fixed pins.
        for comp in &components {
            for &cell in comp {
                if !pin_cells[net].contains(&cell) {
                    log.free(grid, cell);
                }
            }
        }
        if config.cancel.is_cancelled() {
            config.cancel.record(Degradation::new(
                Stage::Detailed,
                DegradationKind::BudgetExhausted,
                Some(net),
                "net abandoned mid-search and ripped up",
            ));
        }
        (false, RouteGeometry::new())
    }
}

/// Merges components that already touch (seed overlapping a pin etc.).
///
/// Near-linear: one ownership map over every cell, a union-find join
/// per shared cell or adjacent pair, then a single regroup pass that
/// keeps each surviving component at its first original position.
fn merge_touching(grid: &DetailedGrid, components: &mut Vec<FastSet<u32>>) {
    let k = components.len();
    if k <= 1 {
        return;
    }
    let total: usize = components.iter().map(FastSet::len).sum();
    let mut owner: FastMap<u32, u32> = FastMap::with_capacity_and_hasher(total, Default::default());
    let mut uf = UnionFind::new(k);
    for (i, comp) in components.iter().enumerate() {
        for &c in comp {
            match owner.entry(c) {
                Entry::Vacant(e) => {
                    e.insert(i as u32);
                }
                Entry::Occupied(e) => {
                    uf.union(i, *e.get() as usize);
                }
            }
        }
    }
    let mut buf = [0u32; 4];
    for (&c, &i) in &owner {
        let n = grid.node_moves(c, &mut buf);
        for &q in &buf[..n] {
            if let Some(&j) = owner.get(&q) {
                uf.union(i as usize, j as usize);
            }
        }
    }
    if uf.component_count() == k {
        return;
    }
    let mut slot: Vec<usize> = vec![usize::MAX; k];
    let mut out: Vec<FastSet<u32>> = Vec::with_capacity(k);
    for (i, comp) in components.drain(..).enumerate() {
        let r = uf.find(i);
        if slot[r] == usize::MAX {
            slot[r] = out.len();
            out.push(comp);
        } else {
            out[slot[r]].extend(comp);
        }
    }
    *components = out;
}

/// Connects all components of a net; `true` on success (exactly one
/// component remains, left at the back of `components`).
#[allow(clippy::too_many_arguments)]
fn connect_components(
    grid: &mut DetailedGrid,
    solver: &mut DialSolver,
    log: &mut ChangeLog,
    plan: &StitchPlan,
    field: &CostField,
    config: &DetailedConfig,
    net: u32,
    own_pins: &FastSet<Point>,
    components: &mut Vec<FastSet<u32>>,
) -> bool {
    while components.len() > 1 {
        // Smallest component as source. A plain fold (first minimum wins,
        // matching `min_by_key`) keeps this total: the loop guard makes
        // `components` non-empty.
        let mut src_idx = 0usize;
        for i in 1..components.len() {
            if components[i].len() < components[src_idx].len() {
                src_idx = i;
            }
        }
        let source = components.swap_remove(src_idx);
        // Sorted source order keeps tie-breaking (and thus paths)
        // deterministic despite set iteration order. The Dial solver
        // takes the remaining components as targets directly (it marks
        // them in its own stamp array and keeps one heuristic box per
        // component); only the legacy oracle needs a flattened set.
        let mut src_nodes: Vec<u32> = source.iter().copied().collect();
        src_nodes.sort_unstable();
        enum EngineInputs {
            Dial,
            Heap(FastSet<u32>),
        }
        let inputs = match config.engine {
            SearchEngine::Dial => EngineInputs::Dial,
            SearchEngine::LegacyHeap => {
                EngineInputs::Heap(components.iter().flat_map(|c| c.iter().copied()).collect())
            }
        };

        let mut found = None;
        for attempt in 0..=config.retries {
            // Retries widen the window *and* the expansion budget: the
            // stitch-aware weighted costs flatten the search frontier, so
            // congested regions near stitching lines need more nodes.
            let node_cap = config
                .node_cap
                .checked_shl(2 * attempt as u32)
                .unwrap_or(usize::MAX);
            let margin = config
                .margin
                .checked_shl(attempt as u32)
                .unwrap_or(Coord::MAX);
            let path = match &inputs {
                EngineInputs::Dial => solver.find_path(
                    grid, field, net, own_pins, &src_nodes, components, margin, node_cap,
                    &config.cancel,
                ),
                EngineInputs::Heap(targets) => legacy_astar(
                    grid, plan, config, net, own_pins, &src_nodes, targets, margin, node_cap,
                ),
            };
            if let Some(p) = path {
                found = Some(p);
                break;
            }
        }
        let Some(path) = found else {
            components.push(source);
            return false;
        };
        // Occupy path cells and merge.
        let Some(&reached) = path.last() else {
            // Search paths are non-empty by construction; treat a breach
            // as a failed connection and surface it.
            config.cancel.record(Degradation::new(
                Stage::Detailed,
                DegradationKind::InternalFallback,
                Some(net as usize),
                "connection dropped: search returned an empty path",
            ));
            components.push(source);
            return false;
        };
        for &cell in &path {
            log.occupy(grid, cell, net);
        }
        let Some(dst_idx) = components.iter().position(|c| c.contains(&reached)) else {
            // The path must end in a target component; treat a breach as a
            // failed connection and surface it.
            config.cancel.record(Degradation::new(
                Stage::Detailed,
                DegradationKind::InternalFallback,
                Some(net as usize),
                "connection dropped: path ended outside every target component",
            ));
            components.push(source);
            return false;
        };
        let mut merged = source;
        merged.extend(path);
        let dst = components.swap_remove(dst_idx);
        merged.extend(dst);
        components.push(merged);
    }
    true
}

/// The pre-dense-grid engine: windowed stitch-aware A\* (eq. 10) on the
/// generic heap-based search in `mebl-graph`, from `source` cells to any
/// cell of `targets`. Kept as the [`SearchEngine::LegacyHeap`] oracle
/// for the differential harness; its cost model is the Dial solver's
/// scaled by a constant factor, so both engines rank paths identically
/// up to tie-breaking. Returns the path including the source cell it
/// grew from and the reached target.
#[allow(clippy::too_many_arguments)]
fn legacy_astar(
    grid: &DetailedGrid,
    plan: &StitchPlan,
    config: &DetailedConfig,
    net: u32,
    own_pins: &FastSet<Point>,
    sources: &[u32],
    targets: &FastSet<u32>,
    margin: Coord,
    node_cap: usize,
) -> Option<Vec<u32>> {
    /// Historic cost scale: one α unit = 10 cost points.
    const UNIT: u64 = 10;
    /// Virtual start node fanning out to every source at zero cost.
    const START: u32 = u32::MAX;

    // Search window: bbox of endpoints plus margin.
    let window = Rect::bounding(
        sources
            .iter()
            .chain(targets.iter())
            .map(|&c| grid.point(c).point()),
    )?
    .expand(margin)
    .intersect(grid.outline())?;
    // Target bbox for the admissible multi-target heuristic.
    let tbox = Rect::bounding(targets.iter().map(|&c| grid.point(c).point()))?;
    let h = |p: GridPoint| -> u64 {
        let dx = if p.x < tbox.x0() {
            tbox.x0() - p.x
        } else if p.x > tbox.x1() {
            p.x - tbox.x1()
        } else {
            0
        };
        let dy = if p.y < tbox.y0() {
            tbox.y0() - p.y
        } else if p.y > tbox.y1() {
            p.y - tbox.y1()
        } else {
            0
        };
        ((dx + dy) as u64).saturating_mul(UNIT).saturating_mul(config.alpha)
    };

    // `sources` arrives sorted from `connect_components`.
    let mut expanded = 0usize;
    let mut aborted = false;
    let found = mebl_graph::astar(
        START,
        |&u: &u32| -> Vec<(u32, u64)> {
            if u == START {
                return sources.iter().map(|&s| (s, 0)).collect();
            }
            expanded += 1;
            // Charge the run budget and honour cancellation mid-search:
            // an aborted search rips the net up like any failed
            // connection, so partial geometry never leaks out.
            if expanded > node_cap || config.cancel.charge_expansions(1) {
                aborted = true;
                return Vec::new();
            }
            let pu = grid.point(u);
            let mut out = Vec::with_capacity(4);
            for q in grid.moves(pu) {
                if !window.contains(q.point()) {
                    continue;
                }
                let v = grid.node(q);
                if !grid.passable(v, net) {
                    continue;
                }
                let z_move = q.layer != pu.layer;
                let y_move = q.y != pu.y;
                // Hard constraints: never ride a stitching line
                // vertically; z-moves on a line only at the net's pins.
                if plan.is_on_line(pu.x) {
                    if y_move {
                        continue;
                    }
                    if z_move && !own_pins.contains(&pu.point()) {
                        continue;
                    }
                }
                let mut step = if z_move {
                    UNIT.saturating_mul(config.alpha).saturating_mul(config.via_cost)
                } else {
                    UNIT.saturating_mul(config.alpha)
                };
                if config.stitch_costs {
                    if z_move && plan.in_unfriendly_region(q.x) {
                        step = step.saturating_add(UNIT.saturating_mul(config.beta));
                    }
                    if !z_move && plan.in_escape_region(q.x) {
                        step = step.saturating_add(UNIT.saturating_mul(config.gamma));
                    }
                }
                out.push((v, step));
            }
            out
        },
        |&u| if u == START { 0 } else { h(grid.point(u)) },
        |&u| u != START && targets.contains(&u),
    );
    if aborted {
        return None;
    }
    let (mut path, _) = found?;
    path.retain(|&c| c != START);
    Some(path)
}

/// One rip-up/reroute round for the walled-in nets `failed` (see
/// [`rip_up_tail`]). Serial on the master grid in the given order, so
/// the outcome never depends on the worker count.
///
/// Only nets in `candidates` are ripped as blockers. Cells the soft
/// search may never enter — every net's pins, blockages and cells of
/// non-candidate nets (preserved geometry in an incremental run) — go
/// into one dense mask up front: none of them changes during the round.
#[allow(clippy::too_many_arguments)]
fn blocker_ripup_round(
    plan: &StitchPlan,
    field: &CostField,
    config: &DetailedConfig,
    grid: &mut DetailedGrid,
    solver: &mut DialSolver,
    pin_cells: &[Vec<u32>],
    pin_points: &[FastSet<Point>],
    candidates: &[usize],
    failed: Vec<usize>,
    result: &mut DetailedResult,
) {
    let n = pin_cells.len();
    let mut rippable = vec![false; n];
    for &i in candidates {
        rippable[i] = true;
    }
    let mut hard: Vec<bool> = (0..grid.cell_count() as u32)
        .map(|node| {
            grid.occupant(node)
                .is_some_and(|o| o == BLOCKAGE_NET || !rippable[o as usize])
        })
        .collect();
    for &c in pin_cells.iter().flatten() {
        hard[c as usize] = true;
    }
    let no_seeds: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
    // The soft search and the recovery attempts get the expansion budget
    // one widening step past the retry ladder's last rung — still
    // proportional to the configured cap, so starved runs stay starved.
    let cap = config
        .node_cap
        .checked_shl(2 * (config.retries as u32 + 1))
        .unwrap_or(usize::MAX);
    // A margin the size of the grid makes any window cover the whole
    // outline after clamping, without overflowing coordinate arithmetic.
    let full_margin = grid.width().max(grid.height()) as Coord;
    let relaxed = DetailedConfig {
        node_cap: cap,
        margin: full_margin,
        retries: 0,
        ..config.clone()
    };
    for net in failed {
        if result.routed[net] || config.cancel.is_cancelled_now() {
            continue;
        }
        // A few rip-up iterations per net: each either removes at least
        // one blocking net, routes the net, or proves it hopeless.
        let mut ripped: Vec<usize> = Vec::new();
        for _ in 0..4 {
            // Current components: the net's pins (failed nets own
            // nothing else), merged where they already touch.
            let mut components: Vec<FastSet<u32>> = pin_cells[net]
                .iter()
                .map(|&c| std::iter::once(c).collect())
                .collect();
            merge_touching(grid, &mut components);
            if components.len() <= 1 {
                break;
            }
            let mut src_idx = 0usize;
            for i in 1..components.len() {
                if components[i].len() < components[src_idx].len() {
                    src_idx = i;
                }
            }
            let source = components.swap_remove(src_idx);
            let mut src_nodes: Vec<u32> = source.iter().copied().collect();
            src_nodes.sort_unstable();
            let Some(path) = solver.find_soft_path(
                grid, field, net as u32, &pin_points[net], &hard, &src_nodes, &components, cap,
                &config.cancel,
            ) else {
                break;
            };
            // The mask keeps the path off blockages and fixed nets, so
            // every foreign cell on it belongs to a rippable net.
            let mut blockers: Vec<usize> = path
                .iter()
                .filter_map(|&c| grid.occupant(c))
                .filter(|&o| o != net as u32)
                .map(|o| o as usize)
                .collect();
            blockers.sort_unstable();
            blockers.dedup();
            for &b in &blockers {
                rip_net(grid, b, &pin_cells[b], result);
                ripped.push(b);
            }
            let mut log = ChangeLog::default();
            let (ok, geometry) = route_one_net(
                plan, field, &relaxed, net, grid, solver, &mut log, pin_cells, pin_points,
                &no_seeds,
            );
            if ok {
                result.geometry[net] = geometry;
                result.routed[net] = true;
                result.routed_count += 1;
                break;
            }
            if blockers.is_empty() {
                break;
            }
        }
        // Reroute the ripped nets around the recovered wire, in net
        // order; any that fail now stay failed and get recorded by the
        // caller.
        ripped.sort_unstable();
        ripped.dedup();
        for b in ripped {
            if result.routed[b] || config.cancel.is_cancelled_now() {
                continue;
            }
            let mut log = ChangeLog::default();
            let (ok, geometry) = route_one_net(
                plan, field, config, b, grid, solver, &mut log, pin_cells, pin_points,
                &no_seeds,
            );
            if ok {
                result.geometry[b] = geometry;
                result.routed[b] = true;
                result.routed_count += 1;
            }
        }
    }
}

/// Rips a routed net back to its pins: frees the grid cells of its
/// published geometry except the pins, and clears that result. A routed
/// net owns exactly its geometry's cells plus its pins (pruning frees
/// every other cell it touched), so this never scans the grid.
fn rip_net(grid: &mut DetailedGrid, net: usize, pins: &[u32], result: &mut DetailedResult) {
    if !result.routed[net] {
        return;
    }
    let geometry = std::mem::take(&mut result.geometry[net]);
    for gp in geometry_points(&geometry) {
        let node = grid.node(gp);
        if !pins.contains(&node) {
            grid.free(node);
        }
    }
    result.routed[net] = false;
    result.routed_count -= 1;
}

/// Iteratively removes dangling non-pin cells (degree <= 1 in the net's
/// own cell set) — unused seed overhangs become antenna stubs otherwise.
/// The removal fixpoint is unique, so worklist order never shows in the
/// result.
fn prune_stubs(grid: &DetailedGrid, cells: &mut FastSet<u32>, pins: &[u32]) {
    let pin_set: FastSet<u32> = pins.iter().copied().collect();
    let degree = |cells: &FastSet<u32>, c: u32| -> usize {
        let mut buf = [0u32; 4];
        let n = grid.node_moves(c, &mut buf);
        buf[..n].iter().filter(|q| cells.contains(q)).count()
    };
    let mut queue: Vec<u32> = cells
        .iter()
        .copied()
        .filter(|&c| !pin_set.contains(&c) && degree(cells, c) <= 1)
        .collect();
    let mut buf = [0u32; 4];
    while let Some(c) = queue.pop() {
        if !cells.remove(&c) {
            continue;
        }
        let n = grid.node_moves(c, &mut buf);
        for &qn in &buf[..n] {
            if cells.contains(&qn) && !pin_set.contains(&qn) && degree(cells, qn) <= 1 {
                queue.push(qn);
            }
        }
    }
}

/// Converts a net's final cell set into wire segments and vias.
fn extract_geometry(grid: &DetailedGrid, cells: &FastSet<u32>) -> RouteGeometry {
    let mut geom = RouteGeometry::new();
    // Sorted cell order makes the emitted via list deterministic.
    let mut sorted_cells: Vec<u32> = cells.iter().copied().collect();
    sorted_cells.sort_unstable();
    let wh = grid.width() * grid.height();
    // One `(layer, track, coord)` triple per cell; sorting groups the
    // triples into maximal runs without any hash-map traffic.
    let mut runs: Vec<(u8, Coord, Coord)> = Vec::with_capacity(sorted_cells.len());
    for &c in &sorted_cells {
        let p = grid.point(c);
        if p.layer.is_horizontal() {
            runs.push((p.layer.index(), p.y, p.x));
        } else {
            runs.push((p.layer.index(), p.x, p.y));
        }
        // Vias: emit when the cell above is also present.
        if p.layer.index() + 1 < grid.layers() && cells.contains(&(c + wh)) {
            geom.push_via(Via::new(p.x, p.y, p.layer));
        }
    }
    runs.sort_unstable();
    let mut i = 0;
    while i < runs.len() {
        let (layer_idx, track, start) = runs[i];
        let mut end = start;
        while i + 1 < runs.len() {
            let (l2, t2, c2) = runs[i + 1];
            if l2 != layer_idx || t2 != track || c2 != end + 1 {
                break;
            }
            end = c2;
            i += 1;
        }
        if end > start {
            let layer = mebl_geom::Layer::new(layer_idx);
            let seg = if layer.is_horizontal() {
                Segment::horizontal(layer, track, start, end)
            } else {
                Segment::vertical(layer, track, start, end)
            };
            geom.push_segment(seg);
        }
        i += 1;
    }
    geom
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_assign::{assign_tracks, extract_panels, TrackConfig};
    use mebl_geom::Layer;
    use mebl_netlist::{Net, Pin};
    use mebl_stitch::StitchConfig;
    use std::collections::{HashMap, HashSet};

    fn pin(x: i32, y: i32) -> Pin {
        Pin::new(Point::new(x, y), Layer::new(0))
    }

    fn route(nets: Vec<Net>, config: &DetailedConfig) -> (Circuit, StitchPlan, DetailedResult) {
        let outline = Rect::new(0, 0, 89, 89);
        let plan = StitchPlan::new(outline, StitchConfig::default());
        let circuit = Circuit::new("t", outline, 3, nets);
        let global = mebl_global::route_circuit(&circuit, &plan, &mebl_global::GlobalConfig::default());
        let panels = extract_panels(&global);
        let tracks = assign_tracks(&panels, &global.graph, &plan, 3, &TrackConfig::default());
        let res = route_detailed(&circuit, &plan, &global.graph, &tracks, config);
        (circuit, plan, res)
    }

    fn assert_connected(c: &Circuit, net: usize, geom: &RouteGeometry) {
        // Every pin must be reachable through the geometry: check that the
        // union of cells covered by segments+vias+pins is connected and
        // touches all pins.
        let mut cells: HashSet<GridPoint> = HashSet::new();
        for s in geom.segments() {
            cells.extend(s.points());
        }
        for v in geom.vias() {
            cells.insert(GridPoint::new(v.x, v.y, v.lower));
            cells.insert(GridPoint::new(v.x, v.y, v.upper()));
        }
        for p in c.nets()[net].pins() {
            cells.insert(p.position.on_layer(p.layer));
        }
        // BFS from the first pin.
        let start = c.nets()[net].pins()[0].position.on_layer(Layer::new(0));
        let mut seen = HashSet::from([start]);
        let mut queue = vec![start];
        while let Some(p) = queue.pop() {
            let neighbours = [
                GridPoint::new(p.x - 1, p.y, p.layer),
                GridPoint::new(p.x + 1, p.y, p.layer),
                GridPoint::new(p.x, p.y - 1, p.layer),
                GridPoint::new(p.x, p.y + 1, p.layer),
                GridPoint::new(p.x, p.y, Layer::new(p.layer.index().wrapping_sub(1))),
                GridPoint::new(p.x, p.y, p.layer.above()),
            ];
            for q in neighbours {
                if cells.contains(&q) && seen.insert(q) {
                    queue.push(q);
                }
            }
        }
        for p in c.nets()[net].pins() {
            assert!(
                seen.contains(&p.position.on_layer(p.layer)),
                "pin {} unreachable",
                p.position
            );
        }
    }

    #[test]
    fn routes_simple_two_pin_net() {
        let (c, plan, res) = route(
            vec![Net::new("a", vec![pin(2, 2), pin(40, 40)])],
            &DetailedConfig::default(),
        );
        assert_eq!(res.routed_count, 1);
        assert_connected(&c, 0, &res.geometry[0]);
        let v = mebl_stitch::check_geometry(&plan, &res.geometry[0], |_| false);
        assert!(v.hard_clean(), "{v:?}");
    }

    #[test]
    fn routes_multi_pin_net() {
        let (c, plan, res) = route(
            vec![Net::new("a", vec![pin(2, 2), pin(70, 10), pin(40, 80), pin(85, 85)])],
            &DetailedConfig::default(),
        );
        assert_eq!(res.routed_count, 1);
        assert_connected(&c, 0, &res.geometry[0]);
        let v = mebl_stitch::check_geometry(&plan, &res.geometry[0], |_| false);
        assert_eq!(v.vertical_violations, 0);
    }

    #[test]
    fn several_nets_no_shorts() {
        let nets = vec![
            Net::new("a", vec![pin(2, 2), pin(60, 60)]),
            Net::new("b", vec![pin(5, 60), pin(60, 5)]),
            Net::new("c", vec![pin(30, 2), pin(30, 85)]),
        ];
        let (c, _, res) = route(nets, &DetailedConfig::default());
        assert_eq!(res.routed_count, 3);
        // No two nets may share a cell.
        let mut seen: HashMap<GridPoint, usize> = HashMap::new();
        for (i, g) in res.geometry.iter().enumerate() {
            for s in g.segments() {
                for p in s.points() {
                    if let Some(&other) = seen.get(&p) {
                        assert_eq!(other, i, "short between nets {other} and {i} at {p}");
                    }
                    seen.insert(p, i);
                }
            }
        }
        for i in 0..3 {
            assert_connected(&c, i, &res.geometry[i]);
        }
    }

    #[test]
    fn hard_constraints_always_hold_even_without_stitch_costs() {
        let nets: Vec<Net> = (0..8)
            .map(|i| {
                Net::new(
                    format!("n{i}"),
                    vec![pin(10 + i * 3, 5 + i * 2), pin(50 + i * 4, 70 - i * 3)],
                )
            })
            .collect();
        let (c, plan, res) = route(nets, &DetailedConfig::without_stitch_consideration());
        assert!(res.routed_count >= 7);
        for (i, g) in res.geometry.iter().enumerate() {
            if !res.routed[i] {
                continue;
            }
            let pins: HashSet<Point> = c.nets()[i].pins().iter().map(|p| p.position).collect();
            let v = mebl_stitch::check_geometry(&plan, g, |p| pins.contains(&p));
            assert!(v.hard_clean(), "net {i}: {v:?}");
        }
    }

    #[test]
    fn pin_on_stitch_line_gets_via_violation_but_stays_legal() {
        // Pin exactly on line x = 15; net must go vertical somewhere, so a
        // via at the pin is required and counted as a (tolerated) #VV.
        let (c, plan, res) = route(
            vec![Net::new("a", vec![pin(15, 5), pin(15, 70)])],
            &DetailedConfig::default(),
        );
        assert_eq!(res.routed_count, 1);
        let pins: HashSet<Point> = c.nets()[0].pins().iter().map(|p| p.position).collect();
        let v = mebl_stitch::check_geometry(&plan, &res.geometry[0], |p| pins.contains(&p));
        assert!(v.hard_clean(), "{v:?}");
        assert!(v.vertical_violations == 0);
    }

    #[test]
    fn stitch_costs_reduce_short_polygons() {
        // A congested pattern around a stitch line: nets whose natural
        // turn points sit in unfriendly regions.
        let mut nets = Vec::new();
        for i in 0..12 {
            nets.push(Net::new(
                format!("n{i}"),
                vec![pin(3 + i, 10 + i * 5), pin(17, 12 + i * 5)],
            ));
        }
        let (c, plan, aware) = route(nets.clone(), &DetailedConfig::default());
        let (_, _, blind) = route(nets, &DetailedConfig::without_stitch_consideration());
        let count = |res: &DetailedResult| -> usize {
            res.geometry
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    let pins: HashSet<Point> =
                        c.nets()[i].pins().iter().map(|p| p.position).collect();
                    mebl_stitch::check_geometry(&plan, g, |p| pins.contains(&p)).short_polygons
                })
                .sum()
        };
        assert!(
            count(&aware) <= count(&blind),
            "aware {} vs blind {}",
            count(&aware),
            count(&blind)
        );
    }

    #[test]
    fn failed_connection_reports_unrouted() {
        // A walled-in net is recovered by the blocker round (see
        // `blocker_round_recovers_a_walled_in_net`), so verify the
        // node-cap fallback instead: a tiny cap forces failure.
        let (_, _, res) = route(
            vec![Net::new("a", vec![pin(2, 2), pin(80, 80)])],
            &DetailedConfig {
                node_cap: 1,
                retries: 0,
                ..DetailedConfig::default()
            },
        );
        assert_eq!(res.routed_count, 0);
        assert!(res.geometry[0].is_empty());
    }

    #[test]
    fn legacy_engine_routes_and_stays_hard_clean() {
        let (c, plan, res) = route(
            vec![
                Net::new("a", vec![pin(2, 2), pin(40, 40)]),
                Net::new("b", vec![pin(5, 60), pin(60, 5)]),
            ],
            &DetailedConfig {
                engine: SearchEngine::LegacyHeap,
                ..DetailedConfig::default()
            },
        );
        assert_eq!(res.routed_count, 2);
        for i in 0..2 {
            assert_connected(&c, i, &res.geometry[i]);
            let pins: HashSet<Point> = c.nets()[i].pins().iter().map(|p| p.position).collect();
            let v = mebl_stitch::check_geometry(&plan, &res.geometry[i], |p| pins.contains(&p));
            assert!(v.hard_clean(), "net {i}: {v:?}");
        }
    }

    #[test]
    fn engines_route_the_same_nets_on_a_small_case() {
        let nets: Vec<Net> = (0..6)
            .map(|i| {
                Net::new(
                    format!("n{i}"),
                    vec![pin(4 + i * 5, 8 + i * 7), pin(60 - i * 4, 75 - i * 9)],
                )
            })
            .collect();
        let (_, _, dial) = route(nets.clone(), &DetailedConfig::default());
        let (_, _, legacy) = route(
            nets,
            &DetailedConfig {
                engine: SearchEngine::LegacyHeap,
                ..DetailedConfig::default()
            },
        );
        assert_eq!(dial.routed_count, legacy.routed_count);
        assert_eq!(dial.routed, legacy.routed);
    }

    #[test]
    fn blockages_are_avoided() {
        let outline = Rect::new(0, 0, 89, 89);
        let plan = StitchPlan::new(outline, StitchConfig::default());
        // A wall across the net's straight-line path, with room around it.
        let blockage = Rect::new(40, 10, 42, 70);
        let circuit = Circuit::with_blockages(
            "t",
            outline,
            3,
            vec![Net::new("a", vec![pin(2, 30), pin(80, 30)])],
            vec![blockage],
        );
        let global =
            mebl_global::route_circuit(&circuit, &plan, &mebl_global::GlobalConfig::default());
        let panels = extract_panels(&global);
        let tracks = assign_tracks(&panels, &global.graph, &plan, 3, &TrackConfig::default());
        let res = route_detailed(
            &circuit,
            &plan,
            &global.graph,
            &tracks,
            &DetailedConfig::default(),
        );
        assert_eq!(res.routed_count, 1);
        let g = &res.geometry[0];
        for s in g.segments() {
            for p in s.points() {
                assert!(!blockage.contains(p.point()), "segment cell {p:?} in blockage");
            }
        }
        for v in g.vias() {
            assert!(
                !blockage.contains(Point::new(v.x, v.y)),
                "via ({}, {}) in blockage",
                v.x,
                v.y
            );
        }
    }

    #[test]
    fn incremental_preserves_and_reroutes() {
        let nets = vec![
            Net::new("a", vec![pin(2, 2), pin(60, 60)]),
            Net::new("b", vec![pin(5, 60), pin(60, 5)]),
            Net::new("c", vec![pin(30, 2), pin(30, 85)]),
        ];
        let (c, plan, full) = route(nets, &DetailedConfig::default());
        assert_eq!(full.routed_count, 3);

        // All preserved: the result must be exactly the prior one.
        let all: Vec<Option<(bool, RouteGeometry)>> = (0..3)
            .map(|i| Some((full.routed[i], full.geometry[i].clone())))
            .collect();
        let same = route_incremental(&c, &plan, &DetailedConfig::default(), &all);
        assert_eq!(same.routed, full.routed);
        for i in 0..3 {
            assert_eq!(same.geometry[i], full.geometry[i], "net {i}");
        }

        // One target: nets 0 and 2 stay untouched, net 1 re-routes.
        let mut partial = all;
        partial[1] = None;
        let inc = route_incremental(&c, &plan, &DetailedConfig::default(), &partial);
        assert_eq!(inc.routed_count, 3);
        assert_eq!(inc.geometry[0], full.geometry[0]);
        assert_eq!(inc.geometry[2], full.geometry[2]);
        assert_connected(&c, 1, &inc.geometry[1]);
        // No shorts between the re-routed net and the preserved ones.
        let mut seen: HashMap<GridPoint, usize> = HashMap::new();
        for (i, g) in inc.geometry.iter().enumerate() {
            for s in g.segments() {
                for p in s.points() {
                    if let Some(&other) = seen.get(&p) {
                        assert_eq!(other, i, "short between nets {other} and {i} at {p}");
                    }
                    seen.insert(p, i);
                }
            }
        }
    }

    #[test]
    fn geometry_has_no_dangling_stubs() {
        let (c, _, res) = route(
            vec![Net::new("a", vec![pin(2, 2), pin(70, 70)])],
            &DetailedConfig::default(),
        );
        // Every segment endpoint must either carry a via, meet another
        // segment, or be a pin.
        let g = &res.geometry[0];
        let pins: HashSet<Point> = c.nets()[0].pins().iter().map(|p| p.position).collect();
        for s in g.segments() {
            let (a, b) = s.endpoints();
            for end in [a, b] {
                let has_via = g.has_via_at(end, s.layer);
                let meets = g
                    .segments()
                    .iter()
                    .filter(|o| *o != s)
                    .any(|o| o.layer == s.layer && o.contains_point(end));
                let is_pin = s.layer.index() == 0 && pins.contains(&end);
                assert!(
                    has_via || meets || is_pin,
                    "dangling end {end} of {s:?}"
                );
            }
        }
    }

    /// Net `b` has four pins boxed around net `a`'s pin at (20, 40):
    /// two beside it on layer 0 and two above and below its via cell on
    /// layer 1. `b`'s shortest connection runs through that via cell,
    /// which walls `a`'s pin in on every layer.
    fn walled_in_nets() -> Vec<Net> {
        let at = |x, y, l| Pin::new(Point::new(x, y), Layer::new(l));
        vec![
            Net::new("a", vec![pin(20, 40), pin(70, 70)]),
            Net::new("b", vec![at(19, 40, 0), at(21, 40, 0), at(20, 39, 1), at(20, 41, 1)]),
        ]
    }

    fn covers(geom: &RouteGeometry, p: GridPoint) -> bool {
        geom.segments().iter().any(|s| s.layer == p.layer && s.contains_point(p.point()))
            || geom.vias().iter().any(|v| {
                (v.x, v.y) == (p.x, p.y) && (v.lower == p.layer || v.upper() == p.layer)
            })
    }

    #[test]
    fn blocker_round_recovers_a_walled_in_net() {
        assert_walled_in_net_recovered(walled_in_nets());
    }

    #[test]
    fn blocker_round_recovers_a_net_whose_target_is_walled_in() {
        // `a`'s pins swapped: the soft search's source now sits in the
        // open and its target in the pocket, so the forward search
        // overruns its level-0 budget and the reverse one finds the gate.
        let mut nets = walled_in_nets();
        let pins: Vec<Pin> = nets[0].pins().iter().rev().copied().collect();
        nets[0] = Net::new("a", pins);
        assert_walled_in_net_recovered(nets);
    }

    /// Routes `nets` (net `a` walled in as in [`walled_in_nets`]) and
    /// checks the blocker round recovered `a` through the gate and
    /// rerouted `b` around it, hard-clean, connected and short-free.
    fn assert_walled_in_net_recovered(nets: Vec<Net>) {
        // Ordered by length, `b` routes first and takes the via cell
        // above `a`'s pin; nothing short of ripping `b` frees it.
        let config = DetailedConfig {
            stitch_order: false,
            ..DetailedConfig::default()
        };
        let gate = GridPoint::new(20, 40, Layer::new(1));
        let (_, _, alone) = route(nets[1..].to_vec(), &config);
        assert_eq!(alone.routed_count, 1);
        assert!(covers(&alone.geometry[0], gate), "b's own route walls a in");

        let (c, plan, res) = route(nets, &config);
        assert_eq!(res.routed, vec![true, true], "a recovered, b rerouted");
        assert!(covers(&res.geometry[0], gate), "a leaves its pin through the gate");
        assert!(!covers(&res.geometry[1], gate), "b was ripped off the gate");
        let mut owner: HashMap<GridPoint, usize> = HashMap::new();
        for (i, g) in res.geometry.iter().enumerate() {
            assert_connected(&c, i, g);
            let pins: HashSet<Point> = c.nets()[i].pins().iter().map(|p| p.position).collect();
            let v = mebl_stitch::check_geometry(&plan, g, |p| pins.contains(&p));
            assert!(v.hard_clean(), "net {i}: {v:?}");
            let vias = g.vias().iter().flat_map(|v| {
                [GridPoint::new(v.x, v.y, v.lower), GridPoint::new(v.x, v.y, v.upper())]
            });
            for p in g.segments().iter().flat_map(|s| s.points()).chain(vias) {
                let first = *owner.entry(p).or_insert(i);
                assert_eq!(first, i, "short between nets {first} and {i} at {p}");
            }
        }
    }
}
