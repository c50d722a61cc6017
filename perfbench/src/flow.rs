//! The routing-flow workloads and the per-stage (traced) flow.
//!
//! `flow_s38584` and `table3_mcnc` call the library in-process. Each
//! operation of their closed loop is one of three classes:
//!
//! - **miss**: a from-scratch `Router::route`;
//! - **delta**: `mebl_delta::route_delta` with one seeded single-net
//!   `move_net` on the routed outcome;
//! - **hit**: `route_delta` with an empty edit list, which answers from
//!   the prior outcome without routing.
//!
//! Flow circuits come from the fixed generator seed [`GEN_SEED`]; the run
//! seed picks the edits and the circuit order. See `README.md`.

use crate::ops::{Class, Loop};
use crate::service;
use crate::stats::median;
use crate::trace::{secs, SpanId, Tracer, ROOT};
use crate::{Args, RunResult};
use mebl_assign::{assign_tracks, extract_panels};
use mebl_delta::{apply_edits, route_delta, CircuitEdit};
use mebl_detailed::route_detailed;
use mebl_global::route_circuit;
use mebl_netlist::{mcnc_suite, BenchmarkSpec, Circuit, CircuitIssue, GenerateConfig};
use mebl_route::{build_report, RouteReport, Router, RouterConfig, RoutingOutcome, StageTimings};
use mebl_stitch::StitchPlan;
use mebl_testkit::{Rng, Xoshiro256pp};
use std::time::{Duration, Instant};

/// Generator seed of every flow circuit. Seed 7 at net scale 0.15 gives
/// S38584 global-overflow warnings, which the audit counts as warnings.
pub const GEN_SEED: u64 = 7;

/// Net scale of the `flow_s38584` circuit.
const S38584_SCALE: f64 = 0.15;

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Delta and hit operations after each miss of `flow_s38584`. Every
/// iteration replays the same seeded moves, so whichever iteration the
/// window selection keeps (see `ops`) holds all of them.
const S38584_DELTAS: usize = 24;
const S38584_HITS: usize = 120;

/// Delta and hit operations per circuit per pass of `table3_mcnc`.
const TABLE3_DELTAS: usize = 1;
const TABLE3_HITS: usize = 2;

/// Tail percentiles, fixed for the samples a 10-second run collects (the
/// highest percentile with at least ten samples beyond it; 100 = maximum
/// where a run has fewer than eleven).
const S38584_HIT_TAIL: f64 = 80.0;
const S38584_MISS_TAIL: f64 = 100.0;
const TABLE3_TAIL: f64 = 90.0;

/// Generates `spec` at `scale` from `seed`.
pub fn generate(spec: &BenchmarkSpec, scale: f64, seed: u64) -> Circuit {
    spec.generate(&GenerateConfig {
        seed,
        net_scale: scale,
        ..GenerateConfig::default()
    })
}

/// Whether two reports agree on every count the traced flow must
/// reproduce: routed nets, #SP, wirelength and vias.
pub fn same_counts(a: &RouteReport, b: &RouteReport) -> bool {
    a.total_nets == b.total_nets
        && a.routed_nets == b.routed_nets
        && a.short_polygons == b.short_polygons
        && a.wirelength == b.wirelength
        && a.vias == b.vias
}

/// Whether two reports are equal apart from their wall time.
pub fn same_report(a: &RouteReport, b: &RouteReport) -> bool {
    RouteReport {
        elapsed: Duration::ZERO,
        ..a.clone()
    } == RouteReport {
        elapsed: Duration::ZERO,
        ..b.clone()
    }
}

/// Runs the flow stage by stage, as `Router::run_with` does, with one
/// armed token per stage so each stage's expansions read back on their
/// own. Adds the per-stage layer metrics to `r`.
pub fn staged_route(
    circuit: &Circuit,
    config: &RouterConfig,
    tr: &Tracer,
    parent: SpanId,
    request: u64,
    r: &mut RunResult,
) -> RoutingOutcome {
    let start = Instant::now();
    let budget = config.budget;
    let plan = StitchPlan::new(circuit.outline(), config.stitch);
    let mut degradations = Vec::new();

    let token = budget.arm();
    let mut global_config = config.global.clone();
    global_config.cancel = budget.stage_scope(&token);
    global_config.pool = config.pool;
    let (global, global_s) = tr.timed("global", parent, request, |_| {
        route_circuit(circuit, &plan, &global_config)
    });
    r.add("global.s", global_s);
    r.add("global.expansions", token.expansions() as f64);
    r.add(
        "global.vertex_overflow",
        global.metrics.total_vertex_overflow as f64,
    );
    r.add(
        "global.edge_overflow",
        global.metrics.total_edge_overflow as f64,
    );
    degradations.extend(token.take_degradations());

    let token = budget.arm();
    let mut track_config = config.track.clone();
    track_config.cancel = budget.stage_scope(&token);
    track_config.pool = config.pool;
    let (tracks, assign_s) = tr.timed("assign", parent, request, |_| {
        let panels = extract_panels(&global);
        assign_tracks(
            &panels,
            &global.graph,
            &plan,
            circuit.layer_count(),
            &track_config,
        )
    });
    r.add("assign.s", assign_s);
    r.add("assign.failed_nets", tracks.failed_nets.len() as f64);
    degradations.extend(token.take_degradations());

    let token = budget.arm();
    let mut detailed_config = config.detailed.clone();
    detailed_config.cancel = budget.stage_scope(&token);
    detailed_config.pool = config.pool;
    let (detailed, detailed_s) = tr.timed("detailed", parent, request, |_| {
        route_detailed(circuit, &plan, &global.graph, &tracks, &detailed_config)
    });
    r.add("detailed.s", detailed_s);
    r.add("detailed.expansions", token.expansions() as f64);
    r.add("detailed.routed_nets", detailed.routed_count as f64);
    degradations.extend(token.take_degradations());

    let (mut report, report_s) = tr.timed("route.report", parent, request, |_| {
        build_report(circuit, &plan, &detailed, start.elapsed())
    });
    r.add("route.report_s", report_s);
    report.elapsed = start.elapsed();

    RoutingOutcome {
        plan,
        global,
        tracks,
        detailed,
        report,
        timings: StageTimings {
            global: Duration::from_secs_f64(global_s),
            assignment: Duration::from_secs_f64(assign_s),
            detailed: Duration::from_secs_f64(detailed_s),
            check: Duration::from_secs_f64(report_s),
        },
        degradations,
        parallelism: config.pool.workers(),
    }
}

/// Sets the derived detailed-routing metrics once the stage sums are in.
pub fn finish_flow_layers(r: &mut RunResult) {
    let get = |r: &RunResult, k: &str| r.metrics.get(k).copied().unwrap_or(0.0);
    let routed = get(r, "detailed.routed_nets");
    let exp = get(r, "detailed.expansions");
    r.set("detailed.expansions_per_routed_net", exp / routed.max(1.0));
    let flow =
        get(r, "global.s") + get(r, "assign.s") + get(r, "detailed.s") + get(r, "route.report_s");
    r.set("detailed.share", get(r, "detailed.s") / flow.max(1e-12));
}

/// Strict audit of one outcome. A flow fails on any error-severity
/// finding or when the report is not hard-clean; warnings (global
/// overflow) are counted, not failed.
pub fn audit(
    circuit: &Circuit,
    config: &RouterConfig,
    outcome: &RoutingOutcome,
    what: &str,
    tr: &Tracer,
    parent: SpanId,
    r: &mut RunResult,
) {
    let (report, s) = tr.timed("audit", parent, 0, |_| {
        mebl_audit::audit_outcome(circuit, config, outcome)
    });
    if tr.enabled() {
        r.add("audit.s", s);
        r.add("audit.errors", report.error_count() as f64);
        r.add("audit.warnings", report.warning_count() as f64);
    }
    r.check(
        report.error_count() == 0 && outcome.report.hard_clean(),
        || {
            format!(
                "{what}: {} audit errors, hard_clean={}",
                report.error_count(),
                outcome.report.hard_clean()
            )
        },
    );
}

/// Picks up to `count` distinct single-net moves that apply cleanly to
/// `circuit`, at most `per_net` per net, in an order drawn from `seed`.
pub fn seeded_moves(
    circuit: &Circuit,
    config: &RouterConfig,
    seed: u64,
    count: usize,
    per_net: usize,
) -> Vec<CircuitEdit> {
    let plan = StitchPlan::new(circuit.outline(), config.stitch);
    let mut rng = Xoshiro256pp::from_seed(seed);
    let mut order: Vec<usize> = (0..circuit.net_count()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    let mut moves = Vec::new();
    for i in order {
        let name = circuit.nets()[i].name().to_string();
        let mut taken = 0;
        for (dx, dy) in [(1, 1), (-1, 1), (1, -1), (-1, -1)] {
            let edit = CircuitEdit::MoveNet {
                name: name.clone(),
                dx,
                dy,
            };
            let applies = apply_edits(circuit, std::slice::from_ref(&edit)).is_ok_and(|p| {
                !p.circuit
                    .validate(plan.lines())
                    .iter()
                    .any(CircuitIssue::is_error)
            });
            if applies && moves.len() < count {
                moves.push(edit);
                taken += 1;
                if taken == per_net {
                    break;
                }
            }
        }
        if moves.len() == count {
            break;
        }
    }
    moves
}

/// One delta operation and the hit operations on a routed outcome.
/// Returns the delta's wall time in seconds.
#[allow(clippy::too_many_arguments)]
fn delta_and_hits(
    circuit: &Circuit,
    outcome: &RoutingOutcome,
    config: &RouterConfig,
    edit: &CircuitEdit,
    hits: usize,
    lp: &mut Loop,
    tr: &Tracer,
    r: &mut RunResult,
) -> f64 {
    let (delta, s) = tr.timed("delta.patch", ROOT, 0, |_| {
        route_delta(circuit, outcome, std::slice::from_ref(edit), config)
    });
    lp.record(Class::Delta, s * 1e3);
    match delta {
        Ok(d) => {
            r.check(!d.rerouted.is_empty(), || {
                format!("{edit:?} rerouted nothing")
            });
            audit(&d.circuit, config, &d.outcome, "delta outcome", tr, ROOT, r);
        }
        Err(e) => r.check(false, || format!("{edit:?}: {e}")),
    }
    for _ in 0..hits {
        let t = Instant::now();
        let hit = route_delta(circuit, outcome, &[], config);
        lp.record(Class::Hit, secs(t) * 1e3);
        r.check(
            hit.is_ok_and(|h| {
                h.rerouted.is_empty() && same_report(&h.outcome.report, &outcome.report)
            }),
            || "empty-edit delta did not return the prior outcome".into(),
        );
    }
    s
}

/// Sets `routability`, `sp_ratio`, `unrouted_nets` and `short_polygons`
/// from the stitch-aware and baseline reports of a run.
pub fn quality(r: &mut RunResult, aware: &[&RouteReport], baseline: &[&RouteReport]) {
    let total: usize = aware.iter().map(|x| x.total_nets).sum();
    let routed: usize = aware.iter().map(|x| x.routed_nets).sum();
    let sp: usize = aware.iter().map(|x| x.short_polygons).sum();
    let base_sp: usize = baseline.iter().map(|x| x.short_polygons).sum();
    r.set("routability", routed as f64 / total.max(1) as f64);
    r.set("sp_ratio", sp as f64 / base_sp.max(1) as f64);
    r.set("unrouted_nets", (total - routed) as f64);
    r.set("short_polygons", sp as f64);
    eprintln!("perfbench: stitch-aware {routed}/{total} routed, #SP {sp}; baseline #SP {base_sp}");
}

/// The layers a flow workload does not exercise on its own: the circuit
/// split (`shard`), and the service tiers through a sweep server. The
/// coordinator does not run here, so its counters are zero.
fn off_path_layers(
    circuits: &[(&str, f64, &Circuit, &RoutingOutcome)],
    tr: &Tracer,
    r: &mut RunResult,
) {
    for (_, _, circuit, _) in circuits {
        let (plan, s) = tr.timed("shard.split", ROOT, 0, |_| {
            mebl_shard::ShardPlan::new(circuit, mebl_stitch::StitchConfig::default())
        });
        r.add("shard.split_ms", s * 1e3);
        r.add("shard.panels", plan.jobs.len() as f64);
    }
    service::sweep(circuits, tr, r);
    for k in [
        "coord.fragments_per_request",
        "coord.retries",
        "coord.redispatches",
        "coord.dead_marked",
    ] {
        r.set(k, 0.0);
    }
}

/// `flow_s38584`: S38584 at net scale 0.15, stitch-aware on a serial pool,
/// then a strict audit, with single-net deltas and empty-edit hits on
/// each routed outcome.
pub fn flow_s38584(args: &Args, tr: &Tracer) -> RunResult {
    let mut r = RunResult::default();
    let spec = BenchmarkSpec::by_name("S38584").expect("known benchmark");
    let config = RouterConfig::stitch_aware();

    let mut setup = Vec::new();
    let mut generate_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (circuit, g) = tr.timed("netlist.generate", ROOT, 0, |_| {
            generate(&spec, S38584_SCALE, GEN_SEED)
        });
        let moves = seeded_moves(&circuit, &config, args.seed, S38584_DELTAS, 1);
        setup.push(secs(t));
        generate_s.push(g);
        prepared = Some((circuit, moves));
    }
    let (circuit, moves) = prepared.expect("at least one set-up");
    r.check(!moves.is_empty(), || "no single-net move applies".into());

    if tr.enabled() {
        r.set("netlist.generate_s", median(&generate_s));
        let (outcome, untraced_s) = tr.timed("route.untraced", ROOT, 1, |_| {
            Router::new(config.clone()).route(&circuit)
        });
        let (staged, traced_s) = tr.timed("route.traced", ROOT, 1, |id| {
            staged_route(&circuit, &config, tr, id, 1, &mut r)
        });
        r.check(same_counts(&staged.report, &outcome.report), || {
            format!(
                "traced flow {:?} != untraced {:?}",
                staged.report, outcome.report
            )
        });
        r.set("trace.overhead_s", traced_s - untraced_s);
        finish_flow_layers(&mut r);
        audit(
            &circuit,
            &config,
            &staged,
            "S38584 traced",
            tr,
            ROOT,
            &mut r,
        );
        let mut lp = Loop::starting_at(Instant::now());
        for edit in &moves {
            delta_and_hits(&circuit, &outcome, &config, edit, 0, &mut lp, tr, &mut r);
        }
        r.set("delta.patch_ms", median(&lp.values(Class::Delta)));
        quality(&mut r, &[&outcome.report], &[]);
        off_path_layers(&[("S38584", S38584_SCALE, &circuit, &outcome)], tr, &mut r);
        return r;
    }

    r.set("setup_s", median(&setup));
    let mut routes = 0;
    let mut reference: Option<RouteReport> = None;
    let start = Instant::now();
    let mut lp = Loop::starting_at(start);
    loop {
        let t = Instant::now();
        let outcome = Router::new(config.clone()).route(&circuit);
        let s = secs(t);
        routes += 1;
        eprintln!("perfbench: route {routes} took {s:.3} s");
        lp.record(Class::Route, s);
        lp.record(Class::Miss, s * 1e3);
        audit(&circuit, &config, &outcome, "S38584", tr, ROOT, &mut r);
        match &reference {
            None => reference = Some(outcome.report.clone()),
            Some(first) => r.check(same_report(first, &outcome.report), || {
                "repeated route of one circuit changed its report".into()
            }),
        }
        for edit in &moves {
            delta_and_hits(
                &circuit,
                &outcome,
                &config,
                edit,
                S38584_HITS / S38584_DELTAS,
                &mut lp,
                tr,
                &mut r,
            );
        }
        if secs(start) >= args.seconds {
            break;
        }
        lp.tick();
    }
    lp.finish();
    let baseline_config = RouterConfig::baseline();
    let baseline = Router::new(baseline_config.clone()).route(&circuit);
    audit(
        &circuit,
        &baseline_config,
        &baseline,
        "S38584 baseline",
        tr,
        ROOT,
        &mut r,
    );

    lp.emit(&mut r, S38584_HIT_TAIL, S38584_MISS_TAIL);
    let aware = reference.expect("at least one route");
    quality(&mut r, &[&aware], &[&baseline.report]);
    r
}

/// `table3_mcnc`: the nine MCNC circuits at `GenerateConfig::quick` scale
/// through the stitch-aware and baseline flows on a 2-worker pool, with a
/// single-net delta and empty-edit hits per circuit per pass. Each run
/// also routes the suite once on a serial pool and checks the counts match.
pub fn table3_mcnc(args: &Args, tr: &Tracer) -> RunResult {
    let mut r = RunResult::default();
    let scale = GenerateConfig::quick(GEN_SEED).net_scale;
    let mut specs = mcnc_suite();
    let rotate = (args.seed % specs.len() as u64) as usize;
    specs.rotate_left(rotate);
    let aware = RouterConfig::stitch_aware().with_threads(2);
    let baseline = RouterConfig::baseline().with_threads(2);

    let mut setup = Vec::new();
    let mut generate_s = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut g_total = 0.0;
        prepared = specs
            .iter()
            .map(|spec| {
                let (circuit, g) = tr.timed("netlist.generate", ROOT, 0, |_| {
                    generate(spec, scale, GEN_SEED)
                });
                g_total += g;
                let moves = seeded_moves(&circuit, &aware, args.seed, 4, 1);
                (spec.name, circuit, moves)
            })
            .collect();
        setup.push(secs(t));
        generate_s.push(g_total);
    }
    for (name, _, moves) in &prepared {
        r.check(!moves.is_empty(), || {
            format!("{name}: no single-net move applies")
        });
    }

    // Serial reference: counts at 2 workers must match a serial run.
    let serial: Vec<(RouteReport, RouteReport)> = prepared
        .iter()
        .map(|(_, c, _)| {
            (
                Router::new(aware.clone().with_threads(1)).route(c).report,
                Router::new(baseline.clone().with_threads(1))
                    .route(c)
                    .report,
            )
        })
        .collect();

    if tr.enabled() {
        r.set("netlist.generate_s", median(&generate_s));
        let mut untraced_s = 0.0;
        let mut traced_s = 0.0;
        let mut lp = Loop::starting_at(Instant::now());
        let mut outcomes = Vec::new();
        let mut base_reports = Vec::new();
        for (i, (name, circuit, moves)) in prepared.iter().enumerate() {
            let req = i as u64 + 1;
            for (is_aware, config, serial_report) in [
                (true, &aware, &serial[i].0),
                (false, &baseline, &serial[i].1),
            ] {
                let (outcome, u) = tr.timed("route.untraced", ROOT, req, |_| {
                    Router::new(config.clone()).route(circuit)
                });
                let (staged, t) = tr.timed("route.traced", ROOT, req, |id| {
                    staged_route(circuit, config, tr, id, req, &mut r)
                });
                untraced_s += u;
                traced_s += t;
                r.check(same_counts(&staged.report, &outcome.report), || {
                    format!("{name}: traced flow differs from untraced")
                });
                r.check(same_report(&outcome.report, serial_report), || {
                    format!("{name}: 2-worker counts differ from serial")
                });
                audit(circuit, config, &staged, name, tr, ROOT, &mut r);
                if is_aware {
                    delta_and_hits(circuit, &outcome, config, &moves[0], 0, &mut lp, tr, &mut r);
                    outcomes.push(outcome);
                } else {
                    base_reports.push(outcome.report);
                }
            }
        }
        r.set("trace.overhead_s", traced_s - untraced_s);
        finish_flow_layers(&mut r);
        r.set("delta.patch_ms", median(&lp.values(Class::Delta)));
        let reports: Vec<&RouteReport> = outcomes.iter().map(|o| &o.report).collect();
        let base: Vec<&RouteReport> = base_reports.iter().collect();
        quality(&mut r, &reports, &base);
        let swept: Vec<(&str, f64, &Circuit, &RoutingOutcome)> = prepared
            .iter()
            .zip(&outcomes)
            .map(|((name, c, _), o)| (*name, scale, c, o))
            .collect();
        off_path_layers(&swept, tr, &mut r);
        return r;
    }

    r.set("setup_s", median(&setup));
    let mut aware_reports: Vec<RouteReport> = Vec::new();
    let mut base_reports: Vec<RouteReport> = Vec::new();
    let start = Instant::now();
    let mut lp = Loop::starting_at(start);
    for pass in 0.. {
        let mut pass_s = 0.0;
        for (i, (name, circuit, moves)) in prepared.iter().enumerate() {
            let t = Instant::now();
            let outcome = Router::new(aware.clone()).route(circuit);
            let a = secs(t);
            let t = Instant::now();
            let base = Router::new(baseline.clone()).route(circuit);
            let b = secs(t);
            pass_s += a + b;
            lp.record(Class::Miss, a * 1e3);
            lp.record(Class::Miss, b * 1e3);
            audit(circuit, &aware, &outcome, name, tr, ROOT, &mut r);
            audit(circuit, &baseline, &base, name, tr, ROOT, &mut r);
            if pass == 0 {
                r.check(same_report(&outcome.report, &serial[i].0), || {
                    format!("{name}: stitch-aware counts at 2 workers differ from serial")
                });
                r.check(same_report(&base.report, &serial[i].1), || {
                    format!("{name}: baseline counts at 2 workers differ from serial")
                });
                aware_reports.push(outcome.report.clone());
                base_reports.push(base.report.clone());
            } else {
                r.check(
                    same_report(&outcome.report, &aware_reports[i])
                        && same_report(&base.report, &base_reports[i]),
                    || format!("{name}: repeated route changed its report"),
                );
            }
            for d in 0..TABLE3_DELTAS {
                let edit = &moves[(pass * TABLE3_DELTAS + d) % moves.len()];
                delta_and_hits(
                    circuit,
                    &outcome,
                    &aware,
                    edit,
                    TABLE3_HITS,
                    &mut lp,
                    tr,
                    &mut r,
                );
            }
        }
        lp.record(Class::Route, pass_s);
        if secs(start) >= args.seconds {
            break;
        }
        lp.tick();
    }
    lp.finish();
    lp.emit(&mut r, TABLE3_TAIL, TABLE3_TAIL);
    let a: Vec<&RouteReport> = aware_reports.iter().collect();
    let b: Vec<&RouteReport> = base_reports.iter().collect();
    quality(&mut r, &a, &b);
    r
}
