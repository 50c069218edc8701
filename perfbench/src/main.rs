//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <figures-smoke|nps-disorder|vivaldi-frog-chaos>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is driven only through public functions of the `vcoord`
//! facade, and every call into a layer is timed from here. A run repeats
//! the workload's *unit* (fresh set-ups and the timed phase) until
//! `--seconds` have passed, and reports medians over the units. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced units and prints the per-layer metrics.
//! The last line of standard output is one JSON object (see `Outcome`).
//!
//! See `perfbench/README.md` for the workloads and the metric map.

mod figures;
mod sims;
mod spans;

use spans::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use vcoord::obs::{self, ObsMode};

const USAGE: &str = "usage: perfbench --workload <figures-smoke|nps-disorder|vivaldi-frog-chaos> \
                     --seed <n> --seconds <s> --trace <0|1>";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One completed unit of a workload.
pub struct Unit {
    /// Elapsed seconds of the timed phase (set-ups excluded).
    pub wall_s: f64,
    /// Seconds of each set-up the unit made: building inputs from the seed
    /// or loading the files its checks compare against.
    pub setups: Vec<f64>,
    /// Operations the timed phase completed (figures, positionings,
    /// samples), for `ops_per_s`.
    pub ops: u64,
    /// Checked operations and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Accuracy of the result (see README.md).
    pub rel_error_p50: f64,
    /// Seed-exact counts: identical in every unit of a run, and across
    /// runs at one seed.
    pub exact: Vec<(&'static str, f64)>,
    /// Per-layer values of a traced unit (empty when untraced).
    pub layers: Vec<(&'static str, f64)>,
}

/// A workload: one unit makes its set-ups and its timed phase, and times
/// each apart.
pub trait Workload {
    fn unit(&self, tr: &mut Tracer) -> Unit;
}

/// The per-layer metrics with their units, in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str)] = &[
    ("topo.generate_s", "s"),
    ("nps.embed_s", "s"),
    ("nps.round_ms_p50", "ms"),
    ("nps.round_ms_p90", "ms"),
    ("nps.evals_per_positioning", "count"),
    ("nps.filter_s", "s"),
    ("nps.positionings", "count"),
    ("nps.skipped_frac", "ratio"),
    ("nps.refs_filtered", "count"),
    ("space.simplex_fit_s", "s"),
    ("space.simplex_fits", "count"),
    ("space.simplex_share", "ratio"),
    ("vivaldi.new_s", "s"),
    ("vivaldi.tick_ms_p50", "ms"),
    ("vivaldi.tick_ms_p90", "ms"),
    ("vivaldi.samples_applied", "count"),
    ("netsim.nps_self_s", "s"),
    ("netsim.vivaldi_self_s", "s"),
    ("defense.inspect_s", "s"),
    ("defense.inspections", "count"),
    ("defense.reject_frac", "ratio"),
    ("chaos.timeouts", "count"),
    ("chaos.retries", "count"),
    ("chaos.burst_losses", "count"),
    ("chaos.evictions", "count"),
    ("metrics.eval_ms_p50", "ms"),
    ("metrics.eval_ms_p90", "ms"),
    ("metrics.eval_s", "s"),
    ("metrics.eval_share", "ratio"),
    ("experiments.fig_s", "s"),
    ("experiments.atk_s", "s"),
    ("experiments.def_s", "s"),
    ("experiments.arms_s", "s"),
    ("experiments.chaos_s", "s"),
    ("experiments.ext_s", "s"),
    ("experiments.simplex_evals", "count"),
    ("obs.overhead_frac", "ratio"),
    ("rel_error_p50", "ratio"),
];

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What a run prints.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number; non-finite values (which JSON cannot hold) print as -1
/// and the run is marked incorrect by the caller.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

/// Median wall time of the timed phase over `units`.
fn median_wall(units: &[Unit]) -> f64 {
    median(&units.iter().map(|u| u.wall_s).collect::<Vec<_>>())
}

fn measure<W: Workload>(w: &W, args: &Args, out: &std::path::Path) -> Outcome {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tr = Tracer::new();
    let mut plain: Vec<Unit> = Vec::new();
    let mut traced: Vec<Unit> = Vec::new();
    let mut peak_rss = f64::NAN;
    let mut unit_no = 0u32;
    loop {
        // With --trace 1, odd units are traced and even ones are the
        // untraced reference for obs.overhead_frac.
        let on = args.trace && unit_no % 2 == 1;
        obs::set_mode(if on { ObsMode::Metrics } else { ObsMode::Off });
        tr.begin_unit(unit_no, on);
        let t = Instant::now();
        let unit = w.unit(&mut tr);
        let took = t.elapsed();
        if unit_no == 0 {
            // The first unit's peak: later units reuse freed memory in an
            // order that depends on how many ran.
            peak_rss = peak_rss_mib();
        }
        eprintln!(
            "perfbench: {} unit {unit_no}{}: {:.3} s",
            args.workload,
            if on { " (traced)" } else { "" },
            unit.wall_s
        );
        if on {
            traced.push(unit);
        } else {
            plain.push(unit);
        }
        unit_no += 1;
        let done = if args.trace {
            !traced.is_empty()
        } else {
            !plain.is_empty()
        };
        // Start another unit only if one more, as long as this one, still
        // ends within --seconds.
        if done && started.elapsed() + took > budget {
            break;
        }
    }
    obs::set_mode(ObsMode::Off);
    let setups: Vec<f64> = plain
        .iter()
        .flat_map(|u| u.setups.iter().copied())
        .collect();

    let mut notes = Vec::new();
    let mut correct = true;
    let all: Vec<&Unit> = plain.iter().chain(traced.iter()).collect();
    let attempted: u64 = all.iter().map(|u| u.attempted).sum();
    let failed: u64 = all.iter().map(|u| u.failed).sum();
    if failed > 0 {
        correct = false;
        notes.push(format!("{failed} of {attempted} operations failed"));
    }
    // Every unit repeats the same inputs, so seed-exact counts must agree.
    let first = &all[0].exact;
    for (k, u) in all.iter().enumerate() {
        if u.exact != *first || u.rel_error_p50.to_bits() != all[0].rel_error_p50.to_bits() {
            correct = false;
            notes.push(format!("unit {k} seed-exact counts differ from unit 0"));
        }
    }

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    if args.trace {
        let violations = tr.containment_violations();
        if !violations.is_empty() {
            correct = false;
            for v in violations.iter().take(10) {
                notes.push(format!("span containment violated: {v}"));
            }
        }
        let mut layer_values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for u in &traced {
            for &(name, v) in &u.layers {
                layer_values.entry(name).or_default().push(v);
            }
        }
        layer_values.insert("rel_error_p50", vec![all[0].rel_error_p50]);
        layer_values.insert(
            "obs.overhead_frac",
            vec![median_wall(&traced) / median_wall(&plain) - 1.0],
        );
        for name in layer_values.keys() {
            if !PER_LAYER.iter().any(|(n, _)| n == name) {
                correct = false;
                notes.push(format!("unknown per-layer metric {name}"));
            }
        }
        for &(name, unit) in PER_LAYER {
            // A layer the workload does not run reads 0.
            let value = layer_values.get(name).map_or(0.0, |vs| median(vs));
            metrics.push((name.to_string(), value, unit.to_string()));
        }
        let path = out.join("spans.jsonl");
        let run_id = format!("{}-seed{}", args.workload, args.seed);
        if let Err(e) = std::fs::write(&path, tr.to_jsonl(&run_id)) {
            correct = false;
            notes.push(format!("cannot write {}: {e}", path.display()));
        }
    } else {
        let wall_s = median_wall(&plain);
        let end_to_end = [
            ("setup_s", median(&setups), "s"),
            ("wall_s", wall_s, "s"),
            ("peak_rss_mib", peak_rss, "MiB"),
            (
                "ok_frac",
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
            ),
            ("ops_per_s", plain[0].ops as f64 / wall_s, "1/s"),
        ];
        metrics.extend(end_to_end.map(|(n, v, u)| (n.to_string(), v, u.to_string())));
    }
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        correct = false;
        notes.push(format!("{name} is not finite"));
    }

    // The human-readable report: timings beside the seed-exact counts,
    // because host time on a small shared machine is noisy.
    println!(
        "perfbench {} seed {} trace {}: {} units ({} untraced, {} traced), {} set-ups",
        args.workload,
        args.seed,
        u8::from(args.trace),
        plain.len() + traced.len(),
        plain.len(),
        traced.len(),
        setups.len()
    );
    let walls: Vec<String> = all.iter().map(|u| format!("{:.3}", u.wall_s)).collect();
    println!("  unit walls (s): {}", walls.join(" "));
    println!(
        "  failures: {failed} of {attempted} operations (fail_frac {:.6})",
        failed as f64 / attempted.max(1) as f64
    );
    for (name, value) in first {
        println!("  exact {name:<28} {value}");
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    for n in &notes {
        println!("  NOTE {n}");
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One worker thread everywhere: load comes from this one process, and
    // the program's own timing spans stay elapsed time rather than summed
    // thread time. Figure CSVs are byte-identical for any thread count.
    std::env::set_var("VCOORD_THREADS", "1");
    let out = PathBuf::from("perfbench/out").join(format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }
    let outcome = match args.workload.as_str() {
        "figures-smoke" => match figures::FiguresSmoke::new(args.seed, &out) {
            Ok(w) => measure(&w, &args, &out),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        },
        "nps-disorder" => measure(&sims::NpsDisorder::new(args.seed), &args, &out),
        "vivaldi-frog-chaos" => measure(&sims::VivaldiFrogChaos::new(args.seed), &args, &out),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        for n in &outcome.notes {
            eprintln!("perfbench: {n}");
        }
        ExitCode::from(1)
    }
}
