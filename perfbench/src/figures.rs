//! `figures-smoke`: every registry figure at `Scale::smoke()`, one at a
//! time, each through `registry::run_figure`, with its CSV checked.

use crate::spans::{hist_total, SpanId, Tracer};
use crate::{median, Unit};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use vcoord::experiments::{figure_ids, run_figure, FigureResult, Scale};
use vcoord::obs::{self, ObsReport};

/// The seed the committed golden CSVs under `results/` were made with.
pub const GOLDEN_SEED: u64 = 2006;

/// Per-family span names, by figure-id prefix.
const FAMILIES: &[(&str, &str)] = &[
    ("fig", "experiments.fig"),
    ("atk-", "experiments.atk"),
    ("def-", "experiments.def"),
    ("arms-", "experiments.arms"),
    ("chaos-", "experiments.chaos"),
    ("ext-", "experiments.ext"),
];

/// The program's engine spans, drained after each figure.
const ENGINE_INNER: &[(&str, Option<&str>)] = &[
    ("nps.embed_ns", None),
    ("nps.run_rounds_ns", None),
    ("vivaldi.run_ticks_ns", None),
];

fn family(id: &str) -> &'static str {
    FAMILIES
        .iter()
        .find(|(prefix, _)| id.starts_with(prefix))
        .map_or("experiments.other", |&(_, span)| span)
}

pub struct FiguresSmoke {
    seed: u64,
    ids: Vec<&'static str>,
    golden_dir: PathBuf,
    csv_dir: PathBuf,
}

/// A golden CSV and the columns in which it marks "no sample" with NaN.
pub struct Golden {
    bytes: Vec<u8>,
    nan_columns: BTreeSet<usize>,
}

impl FiguresSmoke {
    pub fn new(seed: u64, out: &Path) -> Result<FiguresSmoke, String> {
        let golden_dir = PathBuf::from("results");
        if !golden_dir.is_dir() {
            return Err(
                "figures-smoke needs the golden CSVs in results/ (run from the repository root)"
                    .into(),
            );
        }
        // Emptied once per run, outside the timed set-up, so the CSVs of
        // the last unit stay behind for inspection.
        let csv_dir = out.join("csv");
        let _ = std::fs::remove_dir_all(&csv_dir);
        std::fs::create_dir_all(&csv_dir)
            .map_err(|e| format!("cannot create {}: {e}", csv_dir.display()))?;
        Ok(FiguresSmoke {
            seed,
            ids: figure_ids(),
            golden_dir,
            csv_dir,
        })
    }

    /// Whether `fig`'s CSV is correct: byte-identical to the golden at the
    /// golden seed; elsewhere non-empty and finite, NaN allowed only in a
    /// column where the golden has it too.
    fn check(&self, fig: &FigureResult, csv: &str, golden: &Golden) -> bool {
        if self.seed == GOLDEN_SEED {
            return csv.as_bytes() == golden.bytes.as_slice();
        }
        !fig.rows.is_empty()
            && fig.rows.iter().all(|row| {
                row.iter()
                    .enumerate()
                    .all(|(c, v)| v.is_finite() || (v.is_nan() && golden.nan_columns.contains(&c)))
            })
    }

    /// A figure's set-up: load its golden CSV. This is the benchmark's own
    /// file reading; the program's set-up happens inside `run_figure`.
    fn load_golden(&self, id: &str) -> Golden {
        let path = self.golden_dir.join(format!("{id}.csv"));
        parse_golden(std::fs::read(path).unwrap_or_default())
    }
}

fn parse_golden(bytes: Vec<u8>) -> Golden {
    let text = String::from_utf8_lossy(&bytes);
    let mut lines = text.lines().filter(|l| !l.starts_with('#'));
    let _header = lines.next();
    let nan_columns = lines
        .flat_map(|l| {
            l.split(',')
                .enumerate()
                .filter(|(_, cell)| cell.trim() == "NaN")
                .map(|(c, _)| c)
                .collect::<Vec<_>>()
        })
        .collect();
    Golden { bytes, nan_columns }
}

/// The finite cells of every error column (header containing `err`).
fn error_cells(fig: &FigureResult) -> impl Iterator<Item = f64> + '_ {
    let cols: Vec<usize> = fig
        .columns
        .iter()
        .enumerate()
        .filter(|(_, c)| c.contains("err"))
        .map(|(k, _)| k)
        .collect();
    fig.rows
        .iter()
        .flat_map(move |row| {
            cols.iter()
                .filter_map(|&k| row.get(k).copied())
                .collect::<Vec<_>>()
        })
        .filter(|v| v.is_finite())
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn counter(report: &ObsReport, name: &'static str) -> f64 {
    report.counter(obs::metric(name)) as f64
}

impl crate::Workload for FiguresSmoke {
    fn unit(&self, tr: &mut Tracer) -> Unit {
        let scale = Scale::smoke();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut errors = Vec::new();
        let mut totals = ObsReport::default();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut setups = Vec::new();
        let start = Instant::now();
        let root = tr.open("timed", SpanId::none());
        for id in &self.ids {
            attempted += 1;
            // Each golden is loaded right before its figure, so set-up times
            // are sampled across the whole run. A shared machine's speed can
            // switch between levels every few seconds, and set-ups timed in
            // one burst would read one level or the other.
            let t = Instant::now();
            let golden = self.load_golden(id);
            setups.push(t.elapsed().as_secs_f64());
            // The engines' own spans are disjoint and, on one thread,
            // elapsed time inside the figure.
            let (fig, report) = tr.call(family(id), root, ENGINE_INNER, || {
                catch_unwind(AssertUnwindSafe(|| run_figure(id, &scale, self.seed)))
            });
            totals.merge(report);
            let Ok(Some(fig)) = fig else {
                eprintln!("perfbench: figure {id} panicked or is unknown");
                failed += 1;
                continue;
            };
            let csv = fig.to_csv();
            digest = fnv1a(digest, csv.as_bytes());
            let path = self.csv_dir.join(format!("{id}.csv"));
            let written = std::fs::write(&path, &csv).is_ok();
            if !(written && self.check(&fig, &csv, &golden)) {
                eprintln!("perfbench: figure {id} CSV check failed");
                failed += 1;
            }
            errors.extend(error_cells(&fig));
        }
        tr.close(root, &[]);
        let wall_s = start.elapsed().as_secs_f64() - setups.iter().sum::<f64>();

        let exact = vec![
            ("figures", attempted as f64),
            ("error_cells", errors.len() as f64),
            // 53 bits of the digest, so it is exact as an f64.
            ("csv_digest", (digest >> 11) as f64),
        ];
        let layers = if tr.is_on() {
            let spans = tr.current();
            let fam = |span: &str| spans.secs(span);
            let (fits, fit_ns) = hist_total(&totals, "simplex.fit_ns");
            let (inspections, inspect_ns) = hist_total(&totals, "defense.inspect_ns");
            let (_, filter_ns) = hist_total(&totals, "nps.filter_ns");
            let verdicts = counter(&totals, "defense.accept")
                + counter(&totals, "defense.reject")
                + counter(&totals, "defense.dampen");
            let figures_s: f64 = FAMILIES.iter().map(|&(_, span)| fam(span)).sum();
            vec![
                ("experiments.fig_s", fam("experiments.fig")),
                ("experiments.atk_s", fam("experiments.atk")),
                ("experiments.def_s", fam("experiments.def")),
                ("experiments.arms_s", fam("experiments.arms")),
                ("experiments.chaos_s", fam("experiments.chaos")),
                ("experiments.ext_s", fam("experiments.ext")),
                (
                    "experiments.simplex_evals",
                    counter(&totals, "simplex.evals"),
                ),
                // Splits inside run_figure, from the program's obs plane.
                ("space.simplex_fit_s", fit_ns / 1e9),
                ("space.simplex_fits", fits as f64),
                ("space.simplex_share", fit_ns / 1e9 / figures_s),
                ("nps.filter_s", filter_ns / 1e9),
                ("nps.positionings", counter(&totals, "nps.positionings")),
                (
                    "vivaldi.samples_applied",
                    counter(&totals, "vivaldi.samples_applied"),
                ),
                ("defense.inspect_s", inspect_ns / 1e9),
                ("defense.inspections", inspections as f64),
                (
                    "defense.reject_frac",
                    counter(&totals, "defense.reject") / verdicts.max(1.0),
                ),
                ("chaos.timeouts", counter(&totals, "chaos.timeouts")),
                ("chaos.retries", counter(&totals, "chaos.retries")),
                ("chaos.burst_losses", counter(&totals, "chaos.burst_losses")),
                ("chaos.evictions", counter(&totals, "chaos.evictions")),
            ]
        } else {
            Vec::new()
        };
        Unit {
            wall_s,
            setups,
            ops: attempted - failed,
            attempted,
            failed,
            rel_error_p50: median(&errors),
            exact,
            layers,
        }
    }
}
