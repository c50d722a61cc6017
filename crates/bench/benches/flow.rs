//! End-to-end flow benchmark: baseline vs stitch-aware framework
//! (the runtime comparison behind Table III's CPU columns), plus the
//! stitch-aware S38584 flow, whose time goes mostly to the detailed
//! router's rip-up tail (relaxed round and blocker round).
//! Timings go to stderr and to `results/bench_flow.json`.

use mebl_netlist::{BenchmarkSpec, GenerateConfig};
use mebl_route::{Router, RouterConfig};
use mebl_testkit::bench::{BenchConfig, BenchSuite};

fn main() {
    let quick = |name: &str| {
        BenchmarkSpec::by_name(name)
            .expect("known benchmark")
            .generate(&GenerateConfig::quick(2013))
    };
    let circuit = quick("S9234");
    let mut suite = BenchSuite::with_config(
        "flow",
        BenchConfig {
            warmup_iters: 2,
            samples: 10,
        },
    );
    for (label, config) in [
        ("baseline", RouterConfig::baseline()),
        ("stitch_aware", RouterConfig::stitch_aware()),
    ] {
        let router = Router::new(config);
        suite.bench(format!("full_flow_s9234_quick/{label}"), || {
            router.route(&circuit)
        });
    }
    let s38584 = quick("S38584");
    let router = Router::new(RouterConfig::stitch_aware());
    suite.bench("full_flow_s38584_quick/stitch_aware", || router.route(&s38584));
    suite
        .finish_to(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
        .expect("write bench report");
}
