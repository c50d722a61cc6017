//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flow_s38584|table3_mcnc|serve_mix|coord_shard> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds its inputs from the seed, measures one workload for
//! about `--seconds` seconds, checks every output it gets, and prints one
//! JSON object as the last line of standard output: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end set ([`END_TO_END`]); with `--trace 1` the run calls each
//! layer on its own, records spans around the calls, and prints the
//! per-layer set ([`PER_LAYER`]). `README.md` beside this file defines
//! every metric per workload.

mod flow;
mod ops;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: `(name, unit)`. Printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("route_s", "s"),
    ("routability", "ratio"),
    ("sp_ratio", "ratio"),
    ("hit_p50_ms", "ms"),
    ("hit_tail_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_tail_ms", "ms"),
    ("delta_p50_ms", "ms"),
    ("req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Printed by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.generate_s", "s"),
    ("global.s", "s"),
    ("global.expansions", "count"),
    ("global.vertex_overflow", "count"),
    ("global.edge_overflow", "count"),
    ("assign.s", "s"),
    ("assign.failed_nets", "count"),
    ("detailed.s", "s"),
    ("detailed.expansions", "count"),
    ("detailed.routed_nets", "count"),
    ("detailed.expansions_per_routed_net", "count"),
    ("detailed.share", "ratio"),
    ("route.report_s", "s"),
    ("audit.s", "s"),
    ("audit.errors", "count"),
    ("audit.warnings", "count"),
    ("serve.parse_ms", "ms"),
    ("serve.work_ms", "ms"),
    ("serve.total_ms", "ms"),
    ("serve.outside_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_rejects", "count"),
    ("serve.degraded", "count"),
    ("store.records", "count"),
    ("serve.store_misses", "count"),
    ("serve.store_errors", "count"),
    ("delta.patch_ms", "ms"),
    ("shard.split_ms", "ms"),
    ("shard.panels", "count"),
    ("coord.fragments_per_request", "count"),
    ("coord.retries", "count"),
    ("coord.redispatches", "count"),
    ("coord.dead_marked", "count"),
    ("trace.overhead_s", "s"),
    ("unrouted_nets", "count"),
    ("short_polygons", "count"),
    ("fail_ratio", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["flow_s38584", "table3_mcnc", "serve_mix", "coord_shard"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed part of the run lasts.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (routes, requests, checks).
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    /// Metric values by name. Must hold every metric of the run's set.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// Counts one attempted operation; `ok == false` also counts a failure
    /// and prints why on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds `value` to one metric (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.metrics.entry(name).or_insert(0.0) += value;
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = trace::Tracer::new(args.trace);
    let mut result = match args.workload.as_str() {
        "flow_s38584" => flow::flow_s38584(&args, &tracer),
        "table3_mcnc" => flow::table3_mcnc(&args, &tracer),
        "serve_mix" => service::serve_mix(&args, &tracer),
        _ => service::coord_shard(&args, &tracer),
    };
    if args.trace {
        let ratio = result.failed as f64 / result.attempted.max(1) as f64;
        result.set("fail_ratio", ratio);
        if let Err(e) = tracer.write_out(&args) {
            eprintln!("perfbench: could not write the span file: {e}");
            return ExitCode::from(1);
        }
    } else {
        result.set("peak_rss_mb", peak_rss_mb());
    }

    let set = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(set.len());
    for (name, unit) in set {
        let Some(value) = result.metrics.get(name).copied().filter(|v| v.is_finite()) else {
            eprintln!("perfbench: internal error: metric {name} was not measured");
            return ExitCode::from(1);
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            stats::json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0 && result.attempted > 0,
        result.attempted.max(1),
        result.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
