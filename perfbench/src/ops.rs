//! Closed-loop operation samples and the windows metrics are taken over.
//!
//! The reference box is a shared 2-vCPU VM whose hypervisor steals from 0
//! to over 30% of its CPU time, in bursts of seconds. A loop therefore
//! records, besides its samples, the machine's cumulative CPU ticks
//! (`/proc/stat`) at the boundaries of its windows, and every metric is
//! computed over the windows whose steal share is at most the median
//! window's. A burst then moves the metrics less, while a slower program
//! is slower in every window. All values stay plain measured wall times.

use crate::stats::{median, percentile};
use crate::trace::secs;
use crate::RunResult;
use std::time::Instant;

/// Operation class of one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Answered from a previous result without routing.
    Hit,
    /// Routed from scratch.
    Miss,
    /// Patched incrementally.
    Delta,
    /// Wall seconds of the workload's routing unit (`route_s`).
    Route,
}

/// Cumulative `(steal, total)` CPU ticks of the machine.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Samples of one closed loop plus its window boundaries.
#[derive(Debug)]
pub struct Loop {
    start: Instant,
    /// `(class, seconds since start at completion, value)`.
    samples: Vec<(Class, f64, f64)>,
    /// `(seconds since start, steal ticks, total ticks)` at each boundary.
    ticks: Vec<(f64, u64, u64)>,
    wall_s: f64,
}

impl Loop {
    /// An empty loop whose clock starts at `start`; its first window
    /// opens now.
    pub fn starting_at(start: Instant) -> Self {
        let mut lp = Self {
            start,
            samples: Vec::new(),
            ticks: Vec::new(),
            wall_s: 0.0,
        };
        lp.tick();
        lp
    }

    /// Records one operation that just completed.
    pub fn record(&mut self, class: Class, value: f64) {
        self.samples.push((class, secs(self.start), value));
    }

    /// Closes the current window and opens the next.
    pub fn tick(&mut self) {
        let (steal, total) = cpu_ticks();
        self.ticks.push((secs(self.start), steal, total));
    }

    /// Closes the current window if it is at least `period` seconds old.
    pub fn tick_every(&mut self, period: f64) {
        let last = self.ticks.last().map_or(0.0, |t| t.0);
        if secs(self.start) - last >= period {
            self.tick();
        }
    }

    /// Adds another client's samples (same clock).
    pub fn merge(&mut self, other: Loop) {
        self.samples.extend(other.samples);
    }

    /// Ends the loop: closes the last window and fixes the wall time.
    pub fn finish(&mut self) {
        self.wall_s = secs(self.start);
        self.tick();
    }

    /// Every value of one class, in recording order.
    pub fn values(&self, class: Class) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.0 == class)
            .map(|s| s.2)
            .collect()
    }

    /// The windows `(open, close)` whose steal share is at most the
    /// median window's (at least half of them).
    fn quiet_windows(&self) -> Vec<(f64, f64)> {
        let windows: Vec<(f64, f64, f64)> = self
            .ticks
            .windows(2)
            .map(|w| {
                let total = w[1].2.saturating_sub(w[0].2);
                let steal = w[1].1.saturating_sub(w[0].1) as f64 / total.max(1) as f64;
                (w[0].0, w[1].0, steal)
            })
            .collect();
        let shares: Vec<f64> = windows.iter().map(|w| w.2).collect();
        let threshold = median(&shares);
        let quiet: Vec<(f64, f64)> = windows
            .iter()
            .filter(|w| w.2 <= threshold)
            .map(|w| (w.0, w.1))
            .collect();
        let shares: Vec<String> = shares
            .iter()
            .map(|s| format!("{:.0}%", s * 100.0))
            .collect();
        eprintln!(
            "perfbench: steal by window {}; {} of {} windows kept",
            shares.join(" "),
            quiet.len(),
            windows.len()
        );
        quiet
    }

    /// Values of `class` completed inside one of `windows`.
    fn pooled(&self, windows: &[(f64, f64)], class: Class) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.0 == class && windows.iter().any(|w| s.1 > w.0 && s.1 <= w.1))
            .map(|s| s.2)
            .collect()
    }

    /// Sets `route_s` from the quiet windows.
    pub fn emit_route(&self, r: &mut RunResult) {
        let quiet = self.quiet_windows();
        r.set("route_s", median(&self.pooled(&quiet, Class::Route)));
    }

    /// Sets the latency and throughput metrics from the quiet windows.
    pub fn emit(&self, r: &mut RunResult, hit_tail: f64, miss_tail: f64) {
        let quiet = self.quiet_windows();
        let hit = self.pooled(&quiet, Class::Hit);
        let miss = self.pooled(&quiet, Class::Miss);
        let delta = self.pooled(&quiet, Class::Delta);
        r.set("hit_p50_ms", median(&hit));
        r.set("hit_tail_ms", percentile(&hit, hit_tail));
        r.set("miss_p50_ms", median(&miss));
        r.set("miss_tail_ms", percentile(&miss, miss_tail));
        r.set("delta_p50_ms", median(&delta));
        let quiet_s: f64 = quiet.iter().map(|w| w.1 - w.0).sum();
        let ops = hit.len() + miss.len() + delta.len();
        r.set("req_per_s", ops as f64 / quiet_s.max(1e-9));
        if self.samples.iter().any(|s| s.0 == Class::Route) {
            r.set("route_s", median(&self.pooled(&quiet, Class::Route)));
        }
        eprintln!(
            "perfbench: {} hits, {} misses, {} deltas in {:.2} s of {:.2} s",
            hit.len(),
            miss.len(),
            delta.len(),
            quiet_s,
            self.wall_s
        );
    }
}
