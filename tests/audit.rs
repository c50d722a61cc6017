//! Auditor-as-oracle integration tests: the independent verifier must
//! pass clean routing solutions and catch every class of injected defect.

use mebl_audit::{audit_outcome, FindingKind};
use mebl_geom::{Layer, Point, Rect, RouteGeometry, Segment, Via};
use mebl_netlist::{BenchmarkSpec, Circuit, GenerateConfig, Net, Pin};
use mebl_route::{Router, RouterConfig, RoutingOutcome};
use mebl_testkit::prop::{self, Config};
use mebl_testkit::{prop_assert, prop_assert_eq, prop_check};

fn quick(seed: u64) -> Circuit {
    BenchmarkSpec::by_name("S5378")
        .expect("known benchmark")
        .generate(&GenerateConfig::quick(seed))
}

fn routed(circuit: &Circuit, config: &RouterConfig) -> RoutingOutcome {
    Router::new(config.clone()).route(circuit)
}

/// Acceptance: the stitch-aware flow on the S5378 quick seeds audits
/// completely clean — no findings of any severity, and the independent
/// recount reproduces the published report exactly.
#[test]
fn stitch_aware_quick_seeds_audit_clean() {
    for seed in [1, 2, 3] {
        let circuit = quick(seed);
        let config = RouterConfig::stitch_aware();
        let outcome = routed(&circuit, &config);
        let audit = audit_outcome(&circuit, &config, &outcome);
        assert!(
            audit.is_clean(),
            "seed {seed}: {:#?}",
            audit.findings
        );
        assert_eq!(audit.nets_audited, outcome.report.routed_nets);
        assert_eq!(audit.recount.via_violations, outcome.report.via_violations as u64);
        assert_eq!(audit.recount.short_polygons, outcome.report.short_polygons as u64);
        assert_eq!(audit.recount.vertical_violations, 0);
        assert_eq!(audit.recount.wirelength, outcome.report.wirelength);
        assert_eq!(audit.recount.via_count, outcome.report.vias as u64);
    }
}

/// The blocker rip-up round end to end: net `b`'s four pins box in net
/// `a`'s pin, and `b`'s shortest route takes the via cell above it. The
/// blocker round rips `b` off that cell, routes `a` through it and
/// reroutes `b`; the outcome must audit completely clean.
#[test]
fn walled_in_net_recovered_by_blocker_round_audits_clean() {
    let at = |x, y, l| Pin::new(Point::new(x, y), Layer::new(l));
    assert_walled_in_recovery_audits_clean(vec![at(20, 40, 0), at(70, 70, 0)]);
}

/// The same case with `a`'s pins swapped, so the soft search starts in
/// the open and its target pin is the walled-in one: the search runs
/// from the pocket side.
#[test]
fn walled_in_target_recovered_by_blocker_round_audits_clean() {
    let at = |x, y, l| Pin::new(Point::new(x, y), Layer::new(l));
    assert_walled_in_recovery_audits_clean(vec![at(70, 70, 0), at(20, 40, 0)]);
}

/// Routes net `a` with `a_pins` (one of them at the walled-in (20, 40))
/// next to net `b` and checks the strict audit of the outcome.
fn assert_walled_in_recovery_audits_clean(a_pins: Vec<Pin>) {
    let at = |x, y, l| Pin::new(Point::new(x, y), Layer::new(l));
    let circuit = Circuit::new(
        "walled",
        Rect::new(0, 0, 89, 89),
        3,
        vec![
            Net::new("a", a_pins),
            Net::new("b", vec![at(19, 40, 0), at(21, 40, 0), at(20, 39, 1), at(20, 41, 1)]),
        ],
    );
    // Ordered by length, `b` routes first and walls `a` in.
    let mut config = RouterConfig::stitch_aware();
    config.detailed.stitch_order = false;
    let outcome = routed(&circuit, &config);
    assert_eq!(outcome.report.routed_nets, 2, "{:?}", outcome.degradations);
    let gate = Point::new(20, 40);
    assert!(outcome.detailed.geometry[0].has_via_at(gate, Layer::new(1)));
    assert!(!outcome.detailed.geometry[1].has_via_at(gate, Layer::new(1)));
    let audit = audit_outcome(&circuit, &config, &outcome);
    assert!(audit.is_clean(), "{:#?}", audit.findings);
    assert_eq!(audit.nets_audited, 2);
}

/// Oracle property: on random quick circuits, both router presets produce
/// solutions with zero error-severity findings and exact count agreement.
#[test]
fn prop_audit_is_error_free_for_both_configs() {
    prop_check!(Config::with_cases(4), prop::ints(0u64..1 << 32), |seed| {
        let circuit = quick(seed);
        for config in [RouterConfig::stitch_aware(), RouterConfig::baseline()] {
            let outcome = routed(&circuit, &config);
            let audit = audit_outcome(&circuit, &config, &outcome);
            prop_assert_eq!(audit.error_count(), 0);
            prop_assert_eq!(audit.recount.wirelength, outcome.report.wirelength);
            prop_assert_eq!(
                audit.recount.short_polygons,
                outcome.report.short_polygons as u64
            );
            prop_assert!(audit.recount.hard_clean());
        }
    });
}

/// A seeded run shared by the mutation tests below.
fn mutated_base() -> (Circuit, RouterConfig, RoutingOutcome) {
    let circuit = quick(1);
    let config = RouterConfig::stitch_aware();
    let outcome = routed(&circuit, &config);
    (circuit, config, outcome)
}

/// Index of a routed net, preferring one whose pins are far apart.
fn pick_routed_net(circuit: &Circuit, outcome: &RoutingOutcome) -> usize {
    (0..circuit.net_count())
        .filter(|&i| outcome.detailed.routed[i])
        .max_by_key(|&i| circuit.nets()[i].hpwl())
        .expect("at least one routed net")
}

#[test]
fn mutation_off_pin_via_on_line_is_detected() {
    let (circuit, config, mut outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    let line = outcome.plan.lines()[0];
    // A y with no pin of this net on the line.
    let y = (circuit.outline().y0()..=circuit.outline().y1())
        .find(|&y| {
            circuit.nets()[net]
                .pins()
                .iter()
                .all(|p| p.position != Point::new(line, y))
        })
        .expect("some line cell is pin-free");
    outcome.detailed.geometry[net].push_via(Via::new(line, y, Layer::new(0)));
    let audit = audit_outcome(&circuit, &config, &outcome);
    assert!(
        audit.of_kind(FindingKind::OffPinViaOnLine).count() >= 1,
        "{:#?}",
        audit.findings
    );
}

#[test]
fn mutation_vertical_ride_is_detected() {
    let (circuit, config, mut outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    let line = outcome.plan.lines()[0];
    let y0 = circuit.outline().y0();
    outcome.detailed.geometry[net].push_segment(Segment::vertical(
        Layer::new(1),
        line,
        y0,
        y0 + 3,
    ));
    let audit = audit_outcome(&circuit, &config, &outcome);
    assert!(
        audit.of_kind(FindingKind::VerticalRideOnLine).count() >= 1,
        "{:#?}",
        audit.findings
    );
}

#[test]
fn mutation_short_polygon_is_detected() {
    let (circuit, config, mut outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    let line = outcome.plan.lines()[0];
    // A horizontal track this net does not already use on M0, so the new
    // run's ends are exactly where we put them.
    let y = (circuit.outline().y0()..=circuit.outline().y1())
        .find(|&y| {
            outcome.detailed.geometry[net]
                .segments()
                .iter()
                .all(|s| !(s.is_horizontal() && s.layer == Layer::new(0) && s.track == y))
        })
        .expect("free horizontal track");
    // Run cut by `line` with a via landing inside the unfriendly region.
    outcome.detailed.geometry[net].push_segment(Segment::horizontal(
        Layer::new(0),
        y,
        line - 5,
        line + 1,
    ));
    outcome.detailed.geometry[net].push_via(Via::new(line + 1, y, Layer::new(0)));
    let audit = audit_outcome(&circuit, &config, &outcome);
    let sp_mismatch = audit
        .of_kind(FindingKind::ReportFieldMismatch)
        .any(|f| f.detail.contains("short_polygons"));
    assert!(sp_mismatch, "{:#?}", audit.findings);
}

#[test]
fn mutation_duplicated_global_edges_are_detected() {
    let (circuit, config, mut outcome) = mutated_base();
    let net = (0..circuit.net_count())
        .find(|&i| !outcome.global.routes[i].edges.is_empty())
        .expect("some net crosses a tile boundary");
    let extra = outcome.global.routes[net].edges.clone();
    outcome.global.routes[net].edges.extend(extra);
    let audit = audit_outcome(&circuit, &config, &outcome);
    assert!(
        audit.of_kind(FindingKind::GlobalMetricsMismatch).count() >= 1,
        "{:#?}",
        audit.findings
    );
}

#[test]
fn mutation_disconnected_net_is_detected() {
    let (circuit, config, mut outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    let pins = circuit.nets()[net].pins();
    let (p0, p1) = (pins[0].position, pins[1].position);
    assert!(
        (p0.x - p1.x).abs() + (p0.y - p1.y).abs() > 3,
        "picked net's pins must be far apart"
    );
    // Replace the net's geometry with two short stubs, one per pin: every
    // pin is covered but the net falls into two components.
    let stub = |p: Point, layer: Layer| {
        let outline = circuit.outline();
        if p.x < outline.x1() {
            Segment::horizontal(layer, p.y, p.x, p.x + 1)
        } else {
            Segment::horizontal(layer, p.y, p.x - 1, p.x)
        }
    };
    let mut g = RouteGeometry::new();
    g.push_segment(stub(p0, pins[0].layer));
    g.push_segment(stub(p1, pins[1].layer));
    outcome.detailed.geometry[net] = g;
    let audit = audit_outcome(&circuit, &config, &outcome);
    let connectivity = audit.of_kind(FindingKind::DisconnectedNet).count()
        + audit.of_kind(FindingKind::PinNotCovered).count();
    assert!(connectivity >= 1, "{:#?}", audit.findings);
}

#[test]
fn mutation_unrouted_net_with_geometry_is_detected() {
    let (circuit, config, mut outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    outcome.detailed.routed[net] = false;
    outcome.detailed.routed_count -= 1;
    let audit = audit_outcome(&circuit, &config, &outcome);
    assert!(
        audit.of_kind(FindingKind::RoutedFlagMismatch).count() >= 1,
        "{:#?}",
        audit.findings
    );
}

// ---------------------------------------------------------------------
// Scan-backend equivalence: the R-tree-backed auditor must be a pure
// drop-in for the linear reference scans — identical findings in
// identical order, identical recount — on clean solutions and on
// defective ones alike.
// ---------------------------------------------------------------------

use mebl_audit::{audit_outcome_with_backend, ScanBackend};

/// Audits with both backends and asserts the full reports match.
fn assert_backends_agree(
    circuit: &Circuit,
    config: &RouterConfig,
    outcome: &RoutingOutcome,
    ctx: &str,
) {
    let linear = audit_outcome_with_backend(circuit, config, outcome, ScanBackend::Linear);
    let rtree = audit_outcome_with_backend(circuit, config, outcome, ScanBackend::RTree);
    assert_eq!(
        linear.findings, rtree.findings,
        "{ctx}: backend findings diverge"
    );
    assert_eq!(linear.recount, rtree.recount, "{ctx}: recounts diverge");
    assert_eq!(
        linear.nets_audited, rtree.nets_audited,
        "{ctx}: audited-net counts diverge"
    );
}

/// Clean solutions across the bench suite and both presets: the two
/// backends agree bit for bit (and find nothing).
#[test]
fn backend_equivalence_on_clean_bench_suite() {
    for name in ["S5378", "S9234", "S13207"] {
        let circuit = BenchmarkSpec::by_name(name)
            .expect("known benchmark")
            .generate(&GenerateConfig::quick(2));
        for config in [RouterConfig::stitch_aware(), RouterConfig::baseline()] {
            let outcome = routed(&circuit, &config);
            assert_backends_agree(&circuit, &config, &outcome, name);
        }
    }
}

/// Defective solutions: inject one representative of each scan-heavy
/// defect class and require identical findings from both backends.
#[test]
fn backend_equivalence_on_injected_defects() {
    // Off-pin via on a stitching line.
    let (circuit, config, mut outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    let line = outcome.plan.lines()[0];
    let y = (circuit.outline().y0()..=circuit.outline().y1())
        .find(|&y| {
            circuit.nets()[net]
                .pins()
                .iter()
                .all(|p| p.position != Point::new(line, y))
        })
        .expect("some line cell is pin-free");
    outcome.detailed.geometry[net].push_via(Via::new(line, y, Layer::new(0)));
    outcome.detailed.geometry[net].push_segment(Segment::vertical(
        Layer::new(1),
        line,
        circuit.outline().y0(),
        circuit.outline().y0() + 3,
    ));
    let audit = audit_outcome(&circuit, &config, &outcome);
    assert!(!audit.is_clean(), "defects must register");
    assert_backends_agree(&circuit, &config, &outcome, "line defects");

    // Geometry crossing a blockage the circuit gained after routing:
    // re-home the solution onto a copy of the circuit that declares a
    // keep-out right on top of some routed net's wire.
    let (circuit, config, outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    let seg = outcome.detailed.geometry[net]
        .segments()
        .iter()
        .find(|s| s.is_horizontal())
        .copied()
        .expect("routed net has a horizontal segment");
    let (a, _) = seg.endpoints();
    let rect = Rect::new(a.x, a.y, a.x, a.y);
    let blocked = Circuit::with_blockages(
        circuit.name().to_string(),
        circuit.outline(),
        circuit.layer_count(),
        circuit.nets().to_vec(),
        vec![rect],
    );
    let audit = audit_outcome(&blocked, &config, &outcome);
    assert!(
        audit.of_kind(FindingKind::GeometryOnBlockage).count() >= 1,
        "{:#?}",
        audit.findings
    );
    assert_backends_agree(&blocked, &config, &outcome, "blockage defect");
}
