//! The service workloads (`serve_mix`, `coord_shard`) and the service
//! sweep the flow workloads' traced runs use.
//!
//! Servers run in this process on loopback; clients are
//! `mebl_testkit::TestClient`s. The serve layer is measured from outside
//! through `/metrics` deltas taken around the timed loop. Every response
//! body is checked: hits against their cold body, routed bodies against
//! the same computation run in-process.

use crate::flow::{self, audit, seeded_moves, staged_route, SETUPS};
use crate::ops::{Class, Loop};
use crate::stats::{mean, median};
use crate::trace::{secs, Tracer, ROOT};
use crate::{Args, RunResult};
use mebl_coord::{CoordConfig, CoordServer, Coordinator};
use mebl_delta::{route_delta, CircuitEdit};
use mebl_netlist::{BenchmarkSpec, Circuit};
use mebl_route::{Router, RouterConfig, RoutingOutcome};
use mebl_serve::api::{route_response_json, Mode};
use mebl_serve::json::{self, Json};
use mebl_serve::{ServeConfig, Server};
use mebl_shard::{
    fragment_config, merge_fragments, route_sharded, FragmentOutcome, ShardOptions, ShardPlan,
};
use mebl_testkit::{HttpResponse, Rng, TestClient, Xoshiro256pp};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `serve_mix` inputs: a pinned hot set of S5378 bodies at net scale
/// 0.035 (stitch-aware and baseline for seeds `1..=SERVE_HOT`).
const SERVE_BENCH: &str = "S5378";
const SERVE_SCALE: f64 = 0.035;
const SERVE_HOT: u64 = 32;
/// Hot bases `/route/delta` edits: as many as the server's prior-outcome
/// cache holds (16), so a delta patches a cached prior.
const SERVE_DELTA_BASES: usize = 16;
/// Closed-loop client threads (the box has two cores).
const SERVE_CLIENTS: u64 = 2;
/// Request mix: hits below `HIT`, misses below `MISS`, deltas above.
const SERVE_HIT: f64 = 0.7;
const SERVE_MISS: f64 = 0.9;
const SERVE_HIT_TAIL: f64 = 90.0;
const SERVE_MISS_TAIL: f64 = 90.0;

/// `coord_shard` inputs: S13207 at quick scale, split with `shards: 2`.
const COORD_BENCH: &str = "S13207";
const COORD_SCALE: f64 = 0.06;
const COORD_SHARDS: usize = 2;
const COORD_HOT: u64 = 4;
const COORD_HIT: f64 = 0.5;
const COORD_MISS: f64 = 0.9;
const COORD_TAIL: f64 = 90.0;

/// Length of the closed loops' windows (see `ops`), and of the windows
/// of the in-process reference routes after them.
const WINDOW_S: f64 = 2.5;
const REFERENCE_WINDOW_S: f64 = 1.0;

/// Hits per circuit in the flow workloads' service sweep.
const SWEEP_HITS: usize = 20;

/// A `/route` payload that names a generated circuit.
fn route_body(bench: &str, seed: u64, scale: f64, mode: Mode, shards: Option<usize>) -> String {
    let shards = shards.map_or(String::new(), |s| format!(",\"shards\":{s}"));
    format!(
        "{{\"bench\":\"{bench}\",\"seed\":{seed},\"scale\":{scale},\"mode\":\"{}\"{shards}}}",
        mode.name()
    )
}

/// A `/route/delta` payload: a stitch-aware base plus one `move_net`.
fn delta_body(bench: &str, seed: u64, scale: f64, edit: &CircuitEdit) -> String {
    let CircuitEdit::MoveNet { name, dx, dy } = edit else {
        unreachable!("the benchmark only sends single-net moves")
    };
    format!(
        "{{\"bench\":\"{bench}\",\"seed\":{seed},\"scale\":{scale},\"edits\":[{{\"op\":\"move_net\",\"name\":\"{name}\",\"dx\":{dx},\"dy\":{dy}}}]}}"
    )
}

fn preset(mode: Mode) -> RouterConfig {
    match mode {
        Mode::StitchAware => RouterConfig::stitch_aware(),
        Mode::Baseline => RouterConfig::baseline(),
    }
}

/// The body a server returns for a routed outcome.
fn expected_body(bench: &str, mode: Mode, outcome: &RoutingOutcome) -> Vec<u8> {
    route_response_json(bench, mode, outcome, false)
        .encode()
        .into_bytes()
}

/// A fresh store directory under the working directory.
fn store_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = PathBuf::from(".bench_build")
        .join("perfbench")
        .join(format!(
            "store-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::SeqCst)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Drains a server when dropped, so a panicking caller still lets the
/// scoped server thread return.
struct Drain<'a>(&'a mebl_serve::ServerHandle);

impl Drop for Drain<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Binds a `mebl serve` daemon, serves it on a scoped thread while `f`
/// runs, then drains and joins it.
fn with_serve<R>(config: &ServeConfig, f: impl FnOnce(SocketAddr) -> R) -> R {
    let server = Server::bind(config).expect("bind a loopback server");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|s| {
        s.spawn(|| server.run());
        let _drain = Drain(&handle);
        f(addr)
    })
}

/// Stops a coordinator server when dropped.
struct CoordStop(mebl_coord::CoordHandle);

impl Drop for CoordStop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Sends one request and returns it with its latency in ms.
fn timed_post(
    client: &TestClient,
    path: &str,
    body: &str,
    tr: &Tracer,
    request: u64,
) -> (Option<HttpResponse>, f64) {
    let (resp, s) = tr.timed("http.request", ROOT, request, |_| {
        client.post_json(path, body)
    });
    (resp.ok(), s * 1e3)
}

/// Counters and histogram sums read from one `/metrics` body.
#[derive(Debug, Default, Clone, Copy)]
struct ServeSnapshot {
    parse: (f64, f64),
    work: (f64, f64),
    total: (f64, f64),
    cache_hits: f64,
    cache_misses: f64,
    queue_rejects: f64,
    degraded: f64,
    store_records: f64,
    store_misses: f64,
    store_errors: f64,
}

impl ServeSnapshot {
    fn read(addr: SocketAddr) -> Self {
        let body = TestClient::new(addr)
            .get("/metrics")
            .map(|r| r.body_text())
            .unwrap_or_default();
        let Ok(doc) = json::parse(&body) else {
            return Self::default();
        };
        let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let hist = |k: &str| {
            let h = doc.get(k);
            let f = |f: &str| {
                h.and_then(|h| h.get(f))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            (f("count"), f("total_us"))
        };
        Self {
            parse: hist("parse_latency"),
            work: hist("work_latency"),
            total: hist("total_latency"),
            cache_hits: num("cache_hits"),
            cache_misses: num("cache_misses"),
            queue_rejects: num("queue_rejects"),
            degraded: num("degraded"),
            store_records: num("store_records"),
            store_misses: num("store_misses"),
            store_errors: num("store_errors"),
        }
    }

    /// `self - before`, with the gauge (`store_records`) kept as is. The
    /// `/metrics` request that read `before` is taken out of the counts.
    fn since(&self, before: &Self) -> Self {
        let d = |a: (f64, f64), b: (f64, f64)| (a.0 - b.0 - 1.0, a.1 - b.1);
        Self {
            parse: d(self.parse, before.parse),
            work: (self.work.0 - before.work.0, self.work.1 - before.work.1),
            total: d(self.total, before.total),
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            queue_rejects: self.queue_rejects - before.queue_rejects,
            degraded: self.degraded - before.degraded,
            store_records: self.store_records,
            store_misses: self.store_misses - before.store_misses,
            store_errors: self.store_errors - before.store_errors,
        }
    }

    fn plus(&self, o: &Self) -> Self {
        let s = |a: (f64, f64), b: (f64, f64)| (a.0 + b.0, a.1 + b.1);
        Self {
            parse: s(self.parse, o.parse),
            work: s(self.work, o.work),
            total: s(self.total, o.total),
            cache_hits: self.cache_hits + o.cache_hits,
            cache_misses: self.cache_misses + o.cache_misses,
            queue_rejects: self.queue_rejects + o.queue_rejects,
            degraded: self.degraded + o.degraded,
            store_records: self.store_records + o.store_records,
            store_misses: self.store_misses + o.store_misses,
            store_errors: self.store_errors + o.store_errors,
        }
    }

    /// Sets the serve and store layer metrics from a delta snapshot and
    /// the client-side latencies of the same requests.
    fn emit(&self, client_ms: &[f64], r: &mut RunResult) {
        let per = |(n, us): (f64, f64)| us / n.max(1.0) / 1e3;
        r.set("serve.parse_ms", per(self.parse));
        r.set("serve.work_ms", per(self.work));
        r.set("serve.total_ms", per(self.total));
        r.set("serve.outside_ms", mean(client_ms) - per(self.total));
        let lookups = self.cache_hits + self.cache_misses;
        r.set("serve.cache_hit_ratio", self.cache_hits / lookups.max(1.0));
        r.set("serve.queue_rejects", self.queue_rejects);
        r.set("serve.degraded", self.degraded);
        r.set("store.records", self.store_records);
        r.set("serve.store_misses", self.store_misses);
        r.set("serve.store_errors", self.store_errors);
    }
}

/// The flow workloads' service sweep (traced runs only): one server with
/// the store tier routes each circuit once by name, then answers it from
/// cache. The routed body must equal the in-process outcome's body.
pub fn sweep(circuits: &[(&str, f64, &Circuit, &RoutingOutcome)], tr: &Tracer, r: &mut RunResult) {
    let dir = store_dir();
    let config = ServeConfig {
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    with_serve(&config, |addr| {
        let client = TestClient::new(addr).with_timeout(Duration::from_secs(120));
        let before = ServeSnapshot::read(addr);
        let mut latencies = Vec::new();
        for (i, (bench, scale, _, outcome)) in circuits.iter().enumerate() {
            let body = route_body(bench, flow::GEN_SEED, *scale, Mode::StitchAware, None);
            let want = expected_body(bench, Mode::StitchAware, outcome);
            // The server caches only undegraded outcomes; repeating a
            // degraded one would route it again, not hit.
            let hits = if outcome.is_degraded() { 0 } else { SWEEP_HITS };
            for _ in 0..=hits {
                let (resp, ms) = timed_post(&client, "/route", &body, tr, i as u64 + 1);
                latencies.push(ms);
                r.check(
                    resp.as_ref()
                        .is_some_and(|x| x.status == 200 && x.body == want),
                    || format!("sweep {bench}: served body differs from in-process route"),
                );
            }
        }
        ServeSnapshot::read(addr).since(&before).emit(&latencies, r);
    });
    let _ = std::fs::remove_dir_all(dir);
}

/// One closed-loop request with its class and the data needed to check it
/// after the loop.
enum Sent {
    Hit(usize),
    Miss(u64),
    Delta(usize, CircuitEdit),
}

/// Latencies and bodies collected by the closed loop.
struct Collected {
    lp: Loop,
    all_ms: Vec<f64>,
    misses: Vec<(u64, Vec<u8>)>,
    deltas: Vec<(usize, CircuitEdit, Vec<u8>)>,
}

/// Runs `clients` closed-loop threads for `seconds`. `pick` chooses each
/// request and returns it with the address and path it goes to.
fn closed_loop(
    clients: u64,
    seconds: f64,
    seed: u64,
    pick: &(dyn Fn(&mut Xoshiro256pp) -> (Sent, SocketAddr, &'static str, String) + Sync),
    cold: &[Vec<u8>],
    tr: &Tracer,
    r: &Mutex<&mut RunResult>,
) -> Collected {
    let start = Instant::now();
    let empty = || Collected {
        lp: Loop::starting_at(start),
        all_ms: Vec::new(),
        misses: Vec::new(),
        deltas: Vec::new(),
    };
    let collected = Mutex::new(empty());
    let request_ids = AtomicU64::new(1);
    std::thread::scope(|s| {
        let ticker = &collected;
        s.spawn(move || {
            while secs(start) < seconds {
                std::thread::sleep(Duration::from_millis(50));
                if secs(start) < seconds {
                    ticker.lock().expect("collect lock").lp.tick_every(WINDOW_S);
                }
            }
        });
        for c in 0..clients {
            let collected = &collected;
            let request_ids = &request_ids;
            let empty = &empty;
            s.spawn(move || {
                let mut rng = Xoshiro256pp::from_seed(seed ^ (0x9e37_79b9 * (c + 1)));
                let mut local = empty();
                while secs(start) < seconds {
                    let (sent, addr, path, body) = pick(&mut rng);
                    let client = TestClient::new(addr).with_timeout(Duration::from_secs(120));
                    let id = request_ids.fetch_add(1, Ordering::Relaxed);
                    let (resp, ms) = timed_post(&client, path, &body, tr, id);
                    local.all_ms.push(ms);
                    let ok200 = resp.as_ref().is_some_and(|x| x.status == 200);
                    let mut guard = r.lock().expect("result lock");
                    guard.check(ok200, || {
                        format!(
                            "{path} {body}: status {:?}",
                            resp.as_ref().map(|x| (x.status, x.body_text()))
                        )
                    });
                    let Some(resp) = resp else { continue };
                    match sent {
                        Sent::Hit(i) => {
                            guard.check(resp.body == cold[i], || {
                                format!("hit {i}: body differs from its cold body")
                            });
                            // A hot body the cache no longer held is a miss.
                            match resp.header("x-cache") {
                                Some("miss") => local.lp.record(Class::Miss, ms),
                                _ => local.lp.record(Class::Hit, ms),
                            }
                        }
                        Sent::Miss(seed) => {
                            local.lp.record(Class::Miss, ms);
                            local.misses.push((seed, resp.body));
                        }
                        Sent::Delta(base, edit) => {
                            local.lp.record(Class::Delta, ms);
                            local.deltas.push((base, edit, resp.body));
                        }
                    }
                }
                let mut all = collected.lock().expect("collect lock");
                all.lp.merge(local.lp);
                all.all_ms.extend(local.all_ms);
                all.misses.extend(local.misses);
                all.deltas.extend(local.deltas);
            });
        }
    });
    let mut out = collected.into_inner().expect("collect lock");
    out.lp.finish();
    out
}

/// Routes `circuit` in-process the way the workload's server does, and
/// checks the body. Untraced runs time `Router::route` (for `route_s`);
/// traced runs also run the staged flow and add its layer metrics.
#[allow(clippy::too_many_arguments)]
fn reference_route(
    bench: &str,
    circuit: &Circuit,
    mode: Mode,
    body: &[u8],
    request: u64,
    tr: &Tracer,
    r: &mut RunResult,
    refs: &mut Loop,
    overhead_s: &mut f64,
) -> RoutingOutcome {
    let config = preset(mode);
    let (outcome, u) = tr.timed("route.untraced", ROOT, request, |_| {
        Router::new(config.clone()).route(circuit)
    });
    refs.record(Class::Route, u);
    refs.tick_every(REFERENCE_WINDOW_S);
    r.check(expected_body(bench, mode, &outcome) == body, || {
        format!(
            "{bench} {}: served body differs from in-process route",
            mode.name()
        )
    });
    if tr.enabled() {
        let (staged, t) = tr.timed("route.traced", ROOT, request, |id| {
            staged_route(circuit, &config, tr, id, request, r)
        });
        *overhead_s += t - u;
        r.check(flow::same_counts(&staged.report, &outcome.report), || {
            format!("{bench}: traced flow differs from untraced")
        });
        audit(circuit, &config, &staged, bench, tr, ROOT, r);
    }
    outcome
}

/// Replays one delta request in-process and checks its body.
#[allow(clippy::too_many_arguments)]
fn reference_delta(
    bench: &str,
    circuit: &Circuit,
    prior: &RoutingOutcome,
    edit: &CircuitEdit,
    body: &[u8],
    tr: &Tracer,
    r: &mut RunResult,
    patch_ms: &mut Vec<f64>,
) {
    let config = RouterConfig::stitch_aware();
    let (delta, s) = tr.timed("delta.patch", ROOT, 0, |_| {
        route_delta(circuit, prior, std::slice::from_ref(edit), &config)
    });
    patch_ms.push(s * 1e3);
    r.check(
        delta.is_ok_and(|d| expected_body(bench, Mode::StitchAware, &d.outcome) == body),
        || format!("{bench} {edit:?}: delta body differs from in-process route_delta"),
    );
}

/// Sets the layer metrics a service workload has no coordinator for.
fn no_coordinator(r: &mut RunResult) {
    for k in [
        "coord.fragments_per_request",
        "coord.retries",
        "coord.redispatches",
        "coord.dead_marked",
    ] {
        r.set(k, 0.0);
    }
}

/// Circuits, cold bodies and delta moves of a pinned hot set.
struct HotSet {
    bench: &'static str,
    scale: f64,
    /// `(seed, mode, circuit)` per hot body.
    entries: Vec<(u64, Mode, Circuit)>,
    bodies: Vec<String>,
    cold: Vec<Vec<u8>>,
    /// `(hot index, move)` in a seeded order; each delta takes the next.
    moves: Vec<(usize, CircuitEdit)>,
}

impl HotSet {
    fn new(
        bench: &'static str,
        scale: f64,
        count: u64,
        shards: Option<usize>,
        delta_bases: usize,
        run_seed: u64,
        tr: &Tracer,
    ) -> (Self, f64) {
        let spec = BenchmarkSpec::by_name(bench).expect("known benchmark");
        let mut entries = Vec::new();
        let mut bodies = Vec::new();
        let mut generate_s = 0.0;
        for seed in 1..=count {
            let (circuit, g) = tr.timed("netlist.generate", ROOT, 0, |_| {
                flow::generate(&spec, scale, seed)
            });
            generate_s += g;
            for mode in [Mode::StitchAware, Mode::Baseline] {
                bodies.push(route_body(bench, seed, scale, mode, shards));
                entries.push((seed, mode, circuit.clone()));
            }
        }
        let mut moves = Vec::new();
        let bases = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.1 == Mode::StitchAware);
        for (i, (seed, _, circuit)) in bases.take(delta_bases) {
            let config = RouterConfig::stitch_aware();
            for m in seeded_moves(circuit, &config, run_seed ^ seed, usize::MAX, 4) {
                moves.push((i, m));
            }
        }
        let mut rng = Xoshiro256pp::from_seed(run_seed);
        for i in (1..moves.len()).rev() {
            moves.swap(i, rng.gen_index(i + 1));
        }
        (
            Self {
                bench,
                scale,
                entries,
                bodies,
                cold: Vec::new(),
                moves,
            },
            generate_s,
        )
    }

    /// Sends every hot body once and keeps the cold responses, then sends
    /// each delta base an empty edit list at every `delta_targets` server,
    /// which caches its prior outcome and must answer the `/route` body.
    fn warm(&mut self, addr: SocketAddr, delta_targets: &[SocketAddr], r: &mut RunResult) {
        let client = TestClient::new(addr).with_timeout(Duration::from_secs(120));
        self.cold = self
            .bodies
            .iter()
            .map(|body| {
                let resp = client.post_json("/route", body).ok();
                r.check(resp.as_ref().is_some_and(|x| x.status == 200), || {
                    format!("warm-up {body} failed")
                });
                resp.map(|x| x.body).unwrap_or_default()
            })
            .collect();
        let mut bases: Vec<usize> = self.moves.iter().map(|(i, _)| *i).collect();
        bases.sort_unstable();
        bases.dedup();
        for target in delta_targets {
            let client = TestClient::new(*target).with_timeout(Duration::from_secs(120));
            for &i in &bases {
                let body = format!(
                    "{{\"bench\":\"{}\",\"seed\":{},\"scale\":{},\"edits\":[]}}",
                    self.bench, self.entries[i].0, self.scale
                );
                let resp = client.post_json("/route/delta", &body).ok();
                // Deltas route unsharded, so only an unsharded hot body
                // is the expected answer.
                let sharded = self.bodies[i].contains("shards");
                r.check(
                    resp.as_ref()
                        .is_some_and(|x| x.status == 200 && (sharded || x.body == self.cold[i])),
                    || {
                        format!(
                            "empty-edit delta {body}: {:?}",
                            resp.as_ref().map(|x| (x.status, x.body_text()))
                        )
                    },
                );
            }
        }
    }
}

/// A miss seed that no hot body uses and no other miss of the run repeats.
fn fresh_seed(run_seed: u64, n: u64) -> u64 {
    1_000_000 + (run_seed % 1_000_000) * 1_000_000 + n
}

/// `serve_mix`: an in-process `mebl serve` (defaults: 2 workers, memory
/// cache) with the store tier in a fresh directory, under a closed loop of
/// two clients: ~70% hits on a pinned hot set, ~20% misses on fresh seeds,
/// ~10% distinct single-net `/route/delta` requests on hot bases.
pub fn serve_mix(args: &Args, tr: &Tracer) -> RunResult {
    let mut r = RunResult::default();
    let mut setup = Vec::new();
    let mut generate_s = Vec::new();
    let mut collected = None;
    let mut hot_set = None;
    let mut snapshot = ServeSnapshot::default();
    for round in 0..SETUPS {
        let t = Instant::now();
        let (mut hot, g) = HotSet::new(
            SERVE_BENCH,
            SERVE_SCALE,
            SERVE_HOT,
            None,
            SERVE_DELTA_BASES,
            args.seed,
            tr,
        );
        generate_s.push(g);
        let dir = store_dir();
        let config = ServeConfig {
            store_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        with_serve(&config, |addr| {
            hot.warm(addr, &[addr], &mut r);
            setup.push(secs(t));
            if round + 1 < SETUPS {
                return;
            }
            let before = ServeSnapshot::read(addr);
            let misses = AtomicU64::new(0);
            let next_move = AtomicUsize::new(0);
            let hot_ref = &hot;
            let pick = |rng: &mut Xoshiro256pp| {
                let x = rng.gen_f64();
                if x < SERVE_HIT {
                    let i = rng.gen_index(hot_ref.bodies.len());
                    (Sent::Hit(i), addr, "/route", hot_ref.bodies[i].clone())
                } else if x < SERVE_MISS {
                    let seed = fresh_seed(args.seed, misses.fetch_add(1, Ordering::Relaxed));
                    let body = route_body(SERVE_BENCH, seed, SERVE_SCALE, Mode::StitchAware, None);
                    (Sent::Miss(seed), addr, "/route", body)
                } else {
                    let k = next_move.fetch_add(1, Ordering::Relaxed) % hot_ref.moves.len();
                    let (i, edit) = hot_ref.moves[k].clone();
                    let body = delta_body(SERVE_BENCH, hot_ref.entries[i].0, SERVE_SCALE, &edit);
                    (Sent::Delta(i, edit), addr, "/route/delta", body)
                }
            };
            let shared = Mutex::new(&mut r);
            collected = Some(closed_loop(
                SERVE_CLIENTS,
                args.seconds,
                args.seed,
                &pick,
                &hot.cold,
                tr,
                &shared,
            ));
            snapshot = ServeSnapshot::read(addr).since(&before);
        });
        let _ = std::fs::remove_dir_all(dir);
        hot_set = Some(hot);
    }
    let hot = hot_set.expect("at least one set-up");
    let c = collected.expect("the last set-up runs the loop");

    // Check every routed body against the same computation in-process.
    let spec = BenchmarkSpec::by_name(SERVE_BENCH).expect("known benchmark");
    let mut refs = Loop::starting_at(Instant::now());
    let mut overhead_s = 0.0;
    let mut hot_outcomes = Vec::new();
    for (i, (_, mode, circuit)) in hot.entries.iter().enumerate() {
        let o = reference_route(
            SERVE_BENCH,
            circuit,
            *mode,
            &hot.cold[i],
            i as u64,
            tr,
            &mut r,
            &mut refs,
            &mut overhead_s,
        );
        hot_outcomes.push(o);
    }
    for (seed, body) in &c.misses {
        let circuit = flow::generate(&spec, SERVE_SCALE, *seed);
        reference_route(
            SERVE_BENCH,
            &circuit,
            Mode::StitchAware,
            body,
            *seed,
            tr,
            &mut r,
            &mut refs,
            &mut overhead_s,
        );
    }
    let mut patch_ms = Vec::new();
    for (i, edit, body) in &c.deltas {
        reference_delta(
            SERVE_BENCH,
            &hot.entries[*i].2,
            &hot_outcomes[*i],
            edit,
            body,
            tr,
            &mut r,
            &mut patch_ms,
        );
    }
    let aware: Vec<_> = hot
        .entries
        .iter()
        .zip(&hot_outcomes)
        .filter(|(e, _)| e.1 == Mode::StitchAware)
        .map(|(_, o)| &o.report)
        .collect();
    let base: Vec<_> = hot
        .entries
        .iter()
        .zip(&hot_outcomes)
        .filter(|(e, _)| e.1 == Mode::Baseline)
        .map(|(_, o)| &o.report)
        .collect();
    flow::quality(&mut r, &aware, &base);

    if tr.enabled() {
        r.set("netlist.generate_s", median(&generate_s));
        r.set("trace.overhead_s", overhead_s);
        flow::finish_flow_layers(&mut r);
        r.set("delta.patch_ms", median(&patch_ms));
        for (_, mode, circuit) in &hot.entries {
            if *mode == Mode::StitchAware {
                let (plan, s) = tr.timed("shard.split", ROOT, 0, |_| {
                    ShardPlan::new(circuit, mebl_stitch::StitchConfig::default())
                });
                r.add("shard.split_ms", s * 1e3);
                r.add("shard.panels", plan.jobs.len() as f64);
            }
        }
        snapshot.emit(&c.all_ms, &mut r);
        no_coordinator(&mut r);
    } else {
        r.set("setup_s", median(&setup));
        refs.finish();
        refs.emit_route(&mut r);
        c.lp.emit(&mut r, SERVE_HIT_TAIL, SERVE_MISS_TAIL);
    }
    r
}

/// `coord_shard`: an in-process `mebl coord` in front of two in-process
/// `mebl serve` workers (one worker thread each). One closed-loop client
/// sends `/route` with `shards: 2` on S13207 quick: repeats of a pinned
/// hot set are hits (every fragment is a worker cache hit), fresh seeds
/// are misses; ~10% are single-net `/route/delta` requests sent straight
/// to a worker. Every coordinator body must equal the in-process
/// `mebl_shard::route_sharded` response for the same request.
pub fn coord_shard(args: &Args, tr: &Tracer) -> RunResult {
    let mut r = RunResult::default();
    let worker_config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let mut setup = Vec::new();
    let mut generate_s = Vec::new();
    let mut collected = None;
    let mut hot_set = None;
    let mut snapshot = ServeSnapshot::default();
    let mut coord_counts = [0u64; 5];
    for round in 0..SETUPS {
        let t = Instant::now();
        let (mut hot, g) = HotSet::new(
            COORD_BENCH,
            COORD_SCALE,
            COORD_HOT,
            Some(COORD_SHARDS),
            COORD_HOT as usize,
            args.seed,
            tr,
        );
        generate_s.push(g);
        with_serve(&worker_config, |a| {
            with_serve(&worker_config, |b| {
                let coordinator = Arc::new(Coordinator::new(CoordConfig {
                    workers: vec![a, b],
                    ..CoordConfig::default()
                }));
                let server = CoordServer::bind("127.0.0.1:0", Arc::clone(&coordinator))
                    .expect("bind the coordinator");
                let addr = server.local_addr();
                std::thread::scope(|s| {
                    s.spawn(|| server.run());
                    let _stop = CoordStop(server.handle());
                    hot.warm(addr, &[a, b], &mut r);
                    setup.push(secs(t));
                    if round + 1 < SETUPS {
                        return;
                    }
                    let m = coordinator.metrics();
                    let read = || {
                        [
                            m.sharded_routes.get(),
                            m.fragment_requests.get(),
                            m.retries.get(),
                            m.redispatches.get(),
                            m.dead_marked.get(),
                        ]
                    };
                    let before = (ServeSnapshot::read(a), ServeSnapshot::read(b), read());
                    let misses = AtomicU64::new(0);
                    let next_move = AtomicUsize::new(0);
                    let hot_ref = &hot;
                    let workers = [a, b];
                    let pick = |rng: &mut Xoshiro256pp| {
                        let x = rng.gen_f64();
                        if x < COORD_HIT {
                            let i = rng.gen_index(hot_ref.bodies.len());
                            (Sent::Hit(i), addr, "/route", hot_ref.bodies[i].clone())
                        } else if x < COORD_MISS {
                            let seed =
                                fresh_seed(args.seed, misses.fetch_add(1, Ordering::Relaxed));
                            let body = route_body(
                                COORD_BENCH,
                                seed,
                                COORD_SCALE,
                                Mode::StitchAware,
                                Some(COORD_SHARDS),
                            );
                            (Sent::Miss(seed), addr, "/route", body)
                        } else {
                            let k = next_move.fetch_add(1, Ordering::Relaxed);
                            let (i, edit) = hot_ref.moves[k % hot_ref.moves.len()].clone();
                            let body =
                                delta_body(COORD_BENCH, hot_ref.entries[i].0, COORD_SCALE, &edit);
                            (Sent::Delta(i, edit), workers[k % 2], "/route/delta", body)
                        }
                    };
                    let shared = Mutex::new(&mut r);
                    collected = Some(closed_loop(
                        1,
                        args.seconds,
                        args.seed,
                        &pick,
                        &hot.cold,
                        tr,
                        &shared,
                    ));
                    snapshot = ServeSnapshot::read(a)
                        .since(&before.0)
                        .plus(&ServeSnapshot::read(b).since(&before.1));
                    let after = read();
                    for (k, slot) in coord_counts.iter_mut().enumerate() {
                        *slot = after[k] - before.2[k];
                    }
                });
            })
        });
        hot_set = Some(hot);
    }
    let hot = hot_set.expect("at least one set-up");
    let c = collected.expect("the last set-up runs the loop");

    // Every sharded body against the in-process sharded pipeline.
    let spec = BenchmarkSpec::by_name(COORD_BENCH).expect("known benchmark");
    let mut refs = Loop::starting_at(Instant::now());
    let mut overhead_s = 0.0;
    let mut panels = Vec::new();
    let mut aware = Vec::new();
    let mut base = Vec::new();
    let hot_refs = hot
        .entries
        .iter()
        .enumerate()
        .map(|(i, (s, m, c))| (*s, *m, c.clone(), hot.cold[i].clone()));
    let miss_refs = c.misses.iter().map(|(seed, body)| {
        (
            *seed,
            Mode::StitchAware,
            flow::generate(&spec, COORD_SCALE, *seed),
            body.clone(),
        )
    });
    for (n, (seed, mode, circuit, body)) in hot_refs.chain(miss_refs).enumerate() {
        let mut opts = ShardOptions::new(COORD_SHARDS);
        opts.baseline = mode == Mode::Baseline;
        let (run, u) = tr.timed("route_sharded.untraced", ROOT, seed, |_| {
            route_sharded(&circuit, &opts)
        });
        refs.record(Class::Route, u);
        refs.tick_every(REFERENCE_WINDOW_S);
        let Ok(run) = run else {
            r.check(false, || {
                format!("{COORD_BENCH} seed {seed}: in-process sharded route failed")
            });
            continue;
        };
        r.check(
            expected_body(COORD_BENCH, mode, &run.outcome) == body,
            || {
                format!(
                    "{COORD_BENCH} seed {seed} {}: coordinator body differs from route_sharded",
                    mode.name()
                )
            },
        );
        let config = preset(mode);
        if tr.enabled() {
            let (merged, t) = tr.timed("route_sharded.traced", ROOT, seed, |id| {
                let (plan, split_s) = tr.timed("shard.split", id, seed, |_| {
                    ShardPlan::new(&circuit, opts.stitch())
                });
                r.add("shard.split_ms", split_s * 1e3);
                panels.push(plan.jobs.len() as f64);
                let fragments: Vec<FragmentOutcome> = plan
                    .jobs
                    .iter()
                    .map(|job| {
                        let cfg = fragment_config(opts.baseline, job.period, opts.budget);
                        FragmentOutcome::from_outcome(&staged_route(
                            &job.circuit,
                            &cfg,
                            tr,
                            id,
                            seed,
                            &mut r,
                        ))
                    })
                    .collect();
                tr.timed("shard.merge", id, seed, |_| {
                    merge_fragments(&circuit, opts.baseline, &plan, &fragments)
                })
                .0
            });
            // The replay routes panels one by one, so the overhead is
            // taken against the same pipeline on a 1-wide pool.
            let serial = ShardOptions {
                shards: 1,
                ..opts.clone()
            };
            let (_, u1) = tr.timed("route_sharded.serial", ROOT, seed, |_| {
                route_sharded(&circuit, &serial)
            });
            overhead_s += t - u1;
            r.check(
                flow::same_counts(&merged.report, &run.outcome.report),
                || format!("{COORD_BENCH} seed {seed}: traced sharded flow differs from untraced"),
            );
        }
        audit(
            &circuit,
            &config,
            &run.outcome,
            COORD_BENCH,
            tr,
            ROOT,
            &mut r,
        );
        if n < hot.entries.len() {
            match mode {
                Mode::StitchAware => aware.push(run.outcome.report.clone()),
                Mode::Baseline => base.push(run.outcome.report.clone()),
            }
        }
    }
    let mut patch_ms = Vec::new();
    let mut priors: Vec<Option<RoutingOutcome>> = vec![None; hot.entries.len()];
    for (i, edit, body) in &c.deltas {
        let circuit = &hot.entries[*i].2;
        let prior = priors[*i]
            .get_or_insert_with(|| Router::new(RouterConfig::stitch_aware()).route(circuit));
        reference_delta(
            COORD_BENCH,
            circuit,
            prior,
            edit,
            body,
            tr,
            &mut r,
            &mut patch_ms,
        );
    }
    let a: Vec<_> = aware.iter().collect();
    let b: Vec<_> = base.iter().collect();
    flow::quality(&mut r, &a, &b);

    if tr.enabled() {
        r.set("netlist.generate_s", median(&generate_s));
        r.set("trace.overhead_s", overhead_s);
        flow::finish_flow_layers(&mut r);
        r.set("delta.patch_ms", median(&patch_ms));
        r.set("shard.panels", mean(&panels));
        snapshot.emit(&c.all_ms, &mut r);
        let [routes, fragments, retries, redispatches, dead] = coord_counts.map(|x| x as f64);
        r.set("coord.fragments_per_request", fragments / routes.max(1.0));
        r.set("coord.retries", retries);
        r.set("coord.redispatches", redispatches);
        r.set("coord.dead_marked", dead);
    } else {
        r.set("setup_s", median(&setup));
        refs.finish();
        refs.emit_route(&mut r);
        c.lp.emit(&mut r, COORD_TAIL, COORD_TAIL);
    }
    r
}
