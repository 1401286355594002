//! # mpstream-bench — the figure-regeneration harness
//!
//! Renders regenerated figures as tables + ASCII charts, compares each
//! against the paper's plotted data ([`mpstream_core::paperdata`]), and
//! assembles `EXPERIMENTS.md`. The `figures` binary drives everything:
//!
//! ```text
//! cargo run -p mpstream-bench --release --bin figures -- all --write-experiments
//! ```

use mpstream_core::paperdata::{
    self, check_ordering, check_ratio_band, check_rise_and_plateau, geomean_ratio, Shape,
};
use mpstream_core::{Chart, Figure, FigureId, Scale, Series, Table};
use std::fmt::Write as _;

/// One named shape check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked (e.g. "gpu > cpu > aocl > sdaccel at 4 MB").
    pub name: String,
    /// The verdict.
    pub shape: Shape,
}

/// A figure compared against the paper.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Which figure.
    pub id: FigureId,
    /// Paper-vs-measured per point (only when the sweep matches the
    /// paper's point count, i.e. not in quick mode).
    pub numbers: Option<Table>,
    /// Shape verdicts.
    pub checks: Vec<Check>,
    /// Geometric-mean measured/paper ratio over comparable points.
    pub geomean: Option<f64>,
}

impl Comparison {
    /// Did every shape check pass?
    pub fn all_ok(&self) -> bool {
        self.checks.iter().all(|c| c.shape.ok())
    }
}

fn series<'f>(fig: &'f Figure, label: &str) -> Option<&'f Series> {
    fig.series.iter().find(|s| s.label == label)
}

fn ys(fig: &Figure, label: &str) -> Vec<f64> {
    series(fig, label).map(|s| s.ys()).unwrap_or_default()
}

/// y value of `label` at x closest to `x`.
fn y_at(fig: &Figure, label: &str, x: f64) -> Option<f64> {
    let s = series(fig, label)?;
    s.points
        .iter()
        .min_by(|a, b| {
            (a.0 - x)
                .abs()
                .partial_cmp(&(b.0 - x).abs())
                .expect("finite x")
        })
        .map(|&(_, y)| y)
}

fn paper_table(x_label: &str, xs: &[f64], rows: &[(&str, &[f64], Vec<f64>)]) -> Option<Table> {
    if rows
        .iter()
        .any(|(_, paper, measured)| measured.len() != paper.len())
    {
        return None;
    }
    let mut t = Table::new(&[x_label, "series", "paper GB/s", "measured GB/s", "ratio"]);
    for (label, paper, measured) in rows {
        for (i, (&p, &m)) in paper.iter().zip(measured.iter()).enumerate() {
            t.row(&[
                format!("{}", xs.get(i).copied().unwrap_or(i as f64)),
                label.to_string(),
                format!("{p:.2}"),
                format!("{m:.2}"),
                format!("{:.2}", m / p),
            ]);
        }
    }
    Some(t)
}

/// Compare a regenerated figure against the paper's data and shapes.
pub fn compare_figure(fig: &Figure) -> Comparison {
    match fig.id {
        FigureId::Fig1a => compare_fig1a(fig),
        FigureId::Fig1b => compare_fig1b(fig),
        FigureId::Fig2 => compare_fig2(fig),
        FigureId::Fig3 => compare_fig3(fig),
        FigureId::Fig4a => compare_fig4a(fig),
        FigureId::Fig4b => compare_fig4b(fig),
    }
}

fn compare_fig1a(fig: &Figure) -> Comparison {
    let mut checks = Vec::new();
    for target in ["aocl", "sdaccel", "cpu", "gpu"] {
        checks.push(Check {
            name: format!("{target}: bandwidth rises with size and plateaus"),
            shape: check_rise_and_plateau(&ys(fig, target), 3, 2.0, 4.0),
        });
    }
    let at4 = |t: &str| y_at(fig, t, 4.0).unwrap_or(0.0);
    checks.push(Check {
        name: "gpu > cpu > aocl > sdaccel at ~4 MB".into(),
        shape: check_ordering(&[
            ("gpu", at4("gpu")),
            ("cpu", at4("cpu")),
            ("aocl", at4("aocl")),
            ("sdaccel", at4("sdaccel")),
        ]),
    });

    let rows = [
        ("aocl", &paperdata::FIG1A_AOCL[..], ys(fig, "aocl")),
        ("sdaccel", &paperdata::FIG1A_SDACCEL[..], ys(fig, "sdaccel")),
        ("cpu", &paperdata::FIG1A_CPU[..], ys(fig, "cpu")),
        ("gpu", &paperdata::FIG1A_GPU[..], ys(fig, "gpu")),
    ];
    let xs: Vec<f64> = series(fig, "cpu")
        .map(|s| s.points.iter().map(|p| p.0).collect())
        .unwrap_or_default();
    let numbers = paper_table("MB", &xs, &rows);
    let geomean = numbers.is_some().then(|| {
        let all_m: Vec<f64> = rows.iter().flat_map(|r| r.2.clone()).collect();
        let all_p: Vec<f64> = rows.iter().flat_map(|r| r.1.to_vec()).collect();
        geomean_ratio(&all_m, &all_p)
    });
    if numbers.is_some() {
        for (label, paper, measured) in &rows {
            checks.push(Check {
                name: format!("{label}: levels within 3x of the paper"),
                shape: check_ratio_band(measured, paper, 3.0),
            });
        }
    }
    Comparison {
        id: fig.id,
        numbers,
        checks,
        geomean,
    }
}

fn compare_fig1b(fig: &Figure) -> Comparison {
    let mut checks = Vec::new();
    for target in ["aocl", "sdaccel"] {
        let v = ys(fig, target);
        let monotone = v.windows(2).all(|w| w[1] >= w[0] * 0.95);
        checks.push(Check {
            name: format!("{target}: vectorization monotonically improves bandwidth"),
            shape: if monotone {
                Shape::Matches
            } else {
                Shape::Deviates(vec![format!("series {v:?} not monotone")])
            },
        });
    }
    let gpu = ys(fig, "gpu");
    checks.push(Check {
        name: "gpu: width 16 is slower than the best width".into(),
        shape: if gpu.last().copied().unwrap_or(0.0)
            < gpu.iter().cloned().fold(0.0, f64::max) * 0.95
        {
            Shape::Matches
        } else {
            Shape::Deviates(vec![format!("gpu series {gpu:?} does not decline at 16")])
        },
    });
    let aocl = ys(fig, "aocl");
    checks.push(Check {
        name: "aocl: width 16 approaches the 25.6 GB/s peak (>= 40%)".into(),
        shape: if aocl.last().copied().unwrap_or(0.0) > 0.4 * 25.6 {
            Shape::Matches
        } else {
            Shape::Deviates(vec![format!("aocl w16 = {:?}", aocl.last())])
        },
    });

    let rows = [
        ("aocl", &paperdata::FIG1B_AOCL[..], ys(fig, "aocl")),
        ("sdaccel", &paperdata::FIG1B_SDACCEL[..], ys(fig, "sdaccel")),
        ("cpu", &paperdata::FIG1B_CPU[..], ys(fig, "cpu")),
        ("gpu", &paperdata::FIG1B_GPU[..], ys(fig, "gpu")),
    ];
    let xs: Vec<f64> = paperdata::FIG1B_WIDTHS.iter().map(|&w| w as f64).collect();
    let numbers = paper_table("width", &xs, &rows);
    let geomean = numbers.is_some().then(|| {
        let all_m: Vec<f64> = rows.iter().flat_map(|r| r.2.clone()).collect();
        let all_p: Vec<f64> = rows.iter().flat_map(|r| r.1.to_vec()).collect();
        geomean_ratio(&all_m, &all_p)
    });
    if numbers.is_some() {
        for (label, paper, measured) in &rows {
            checks.push(Check {
                name: format!("{label}: levels within 3x of the paper"),
                shape: check_ratio_band(measured, paper, 3.0),
            });
        }
    }
    Comparison {
        id: fig.id,
        numbers,
        checks,
        geomean,
    }
}

fn compare_fig2(fig: &Figure) -> Comparison {
    let mut checks = Vec::new();
    // Strided hurts every target at the 4 MB point.
    for target in ["aocl", "sdaccel", "cpu", "gpu"] {
        let c = y_at(fig, &format!("{target}-contig"), 4.0).unwrap_or(0.0);
        let s = y_at(fig, &format!("{target}-strided"), 4.0).unwrap_or(f64::MAX);
        checks.push(Check {
            name: format!("{target}: strided slower than contiguous at 4 MB"),
            shape: if s < c {
                Shape::Matches
            } else {
                Shape::Deviates(vec![format!("strided {s:.2} vs contig {c:.2}")])
            },
        });
    }
    // CPU strided: LLC bump then collapse.
    let cpu_s = ys(fig, "cpu-strided");
    checks.push(Check {
        name: "cpu-strided: cache-resident bump then collapse".into(),
        shape: {
            let max = cpu_s.iter().cloned().fold(0.0, f64::max);
            let last = cpu_s.last().copied().unwrap_or(0.0);
            if max > 2.0 * last && last > 0.0 {
                Shape::Matches
            } else {
                Shape::Deviates(vec![format!("series {cpu_s:?}")])
            }
        },
    });
    // GPU strided: plateau then collapse at huge sizes.
    let gpu_s = ys(fig, "gpu-strided");
    checks.push(Check {
        name: "gpu-strided: collapses at the largest sizes".into(),
        shape: {
            let max = gpu_s.iter().cloned().fold(0.0, f64::max);
            let last = gpu_s.last().copied().unwrap_or(0.0);
            if max > 1.8 * last && last > 0.0 {
                Shape::Matches
            } else {
                Shape::Deviates(vec![format!("series {gpu_s:?}")])
            }
        },
    });

    let rows = [
        (
            "aocl-contig",
            &paperdata::FIG2_AOCL_CONTIG[..],
            ys(fig, "aocl-contig"),
        ),
        (
            "sdaccel-contig",
            &paperdata::FIG2_SDACCEL_CONTIG[..],
            ys(fig, "sdaccel-contig"),
        ),
        (
            "cpu-contig",
            &paperdata::FIG2_CPU_CONTIG[..],
            ys(fig, "cpu-contig"),
        ),
        (
            "gpu-contig",
            &paperdata::FIG2_GPU_CONTIG[..],
            ys(fig, "gpu-contig"),
        ),
        (
            "aocl-strided",
            &paperdata::FIG2_AOCL_STRIDED[..],
            ys(fig, "aocl-strided"),
        ),
        (
            "sdaccel-strided",
            &paperdata::FIG2_SDACCEL_STRIDED[..],
            ys(fig, "sdaccel-strided"),
        ),
        (
            "cpu-strided",
            &paperdata::FIG2_CPU_STRIDED[..],
            ys(fig, "cpu-strided"),
        ),
        (
            "gpu-strided",
            &paperdata::FIG2_GPU_STRIDED[..],
            ys(fig, "gpu-strided"),
        ),
    ];
    let xs: Vec<f64> = series(fig, "cpu-contig")
        .map(|s| s.points.iter().map(|p| p.0).collect())
        .unwrap_or_default();
    let numbers = paper_table("MB", &xs, &rows);
    let geomean = numbers.is_some().then(|| {
        let all_m: Vec<f64> = rows.iter().flat_map(|r| r.2.clone()).collect();
        let all_p: Vec<f64> = rows.iter().flat_map(|r| r.1.to_vec()).collect();
        geomean_ratio(&all_m, &all_p)
    });
    Comparison {
        id: fig.id,
        numbers,
        checks,
        geomean,
    }
}

fn target_point(fig: &Figure, series_label: &str, target_idx: usize) -> f64 {
    y_at(fig, series_label, target_idx as f64 + 1.0).unwrap_or(0.0)
}

fn compare_fig3(fig: &Figure) -> Comparison {
    // Targets on the x axis: 1=aocl, 2=sdaccel, 3=cpu, 4=gpu.
    let mut checks = Vec::new();
    let v = |mode: &str, idx: usize| target_point(fig, mode, idx);
    checks.push(Check {
        name: "cpu prefers ndrange".into(),
        shape: check_ordering(&[
            ("ndrange", v("ndrange-kernel", 2)),
            ("flat", v("kernel-loop-flat", 2)),
        ]),
    });
    checks.push(Check {
        name: "gpu prefers ndrange by orders of magnitude".into(),
        shape: if v("ndrange-kernel", 3) > 50.0 * v("kernel-loop-flat", 3) {
            Shape::Matches
        } else {
            Shape::Deviates(vec![format!(
                "ndrange {} vs flat {}",
                v("ndrange-kernel", 3),
                v("kernel-loop-flat", 3)
            )])
        },
    });
    checks.push(Check {
        name: "aocl prefers the single-work-item loop".into(),
        shape: check_ordering(&[
            ("flat", v("kernel-loop-flat", 0)),
            ("ndrange", v("ndrange-kernel", 0)),
        ]),
    });
    checks.push(Check {
        name: "sdaccel: nested loop beats flat loop (the paper's surprise)".into(),
        shape: check_ordering(&[
            ("nested", v("kernel-loop-nested", 1)),
            ("flat", v("kernel-loop-flat", 1)),
        ]),
    });
    Comparison {
        id: fig.id,
        numbers: None,
        checks,
        geomean: None,
    }
}

fn compare_fig4a(fig: &Figure) -> Comparison {
    // All four kernels stay within one memory-bound envelope per target.
    let mut checks = Vec::new();
    for (idx, target) in ["aocl", "sdaccel", "cpu", "gpu"].iter().enumerate() {
        let vals: Vec<f64> = ["copy", "scale", "add", "triad"]
            .iter()
            .map(|op| target_point(fig, op, idx))
            .collect();
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        let max = vals.iter().cloned().fold(0.0, f64::max);
        checks.push(Check {
            name: format!("{target}: all four kernels within 2.5x (memory-bound)"),
            shape: if min > 0.0 && max / min < 2.5 {
                Shape::Matches
            } else {
                Shape::Deviates(vec![format!("kernel spread {vals:?}")])
            },
        });
    }
    Comparison {
        id: fig.id,
        numbers: None,
        checks,
        geomean: None,
    }
}

fn compare_fig4b(fig: &Figure) -> Comparison {
    let mut checks = Vec::new();
    let last = |label: &str| ys(fig, label).last().copied().unwrap_or(0.0);
    checks.push(Check {
        name: "native vectorization beats both vendor replications at N=16".into(),
        shape: check_ordering(&[
            ("vector-size", last("vector-size")),
            ("num-simd-work-items", last("num-simd-work-items")),
        ]),
    });
    checks.push(Check {
        name: "vector beats compute-unit replication at N=16".into(),
        shape: check_ordering(&[
            ("vector-size", last("vector-size")),
            ("num-compute-units", last("num-compute-units")),
        ]),
    });
    let cu = ys(fig, "num-compute-units");
    checks.push(Check {
        name: "compute units rise then decline".into(),
        shape: {
            let max = cu.iter().cloned().fold(0.0, f64::max);
            let first = cu.first().copied().unwrap_or(0.0);
            let last = cu.last().copied().unwrap_or(0.0);
            if max > first && last < max {
                Shape::Matches
            } else {
                Shape::Deviates(vec![format!("cu series {cu:?}")])
            }
        },
    });
    let vec_s = ys(fig, "vector-size");
    let numbers = paper_table(
        "N",
        &paperdata::FIG1B_WIDTHS
            .iter()
            .map(|&w| w as f64)
            .collect::<Vec<_>>(),
        &[("vector-size", &paperdata::FIG1B_AOCL[..], vec_s.clone())],
    );
    let geomean = numbers
        .is_some()
        .then(|| geomean_ratio(&vec_s, &paperdata::FIG1B_AOCL));
    Comparison {
        id: fig.id,
        numbers,
        checks,
        geomean,
    }
}

/// Render a regenerated figure as a text block (series table + chart).
pub fn render_figure(fig: &Figure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} — {} ==", fig.id.name(), fig.title);
    let _ = writeln!(out, "   x: {} | y: {}", fig.x_label, fig.y_label);

    let mut t = Table::new(&["series", "x", "y"]);
    for s in &fig.series {
        for &(x, y) in &s.points {
            t.row(&[s.label.clone(), format!("{x}"), format!("{y:.4}")]);
        }
    }
    out.push_str(&t.to_text());
    out.push('\n');
    let mut chart = Chart::new(format!("{} (log-log)", fig.id.name()))
        .size(64, 16)
        .x_scale(Scale::Log10)
        .y_scale(Scale::Log10)
        .x_label(fig.x_label.clone())
        .y_label(fig.y_label.clone());
    for s in &fig.series {
        chart = chart.scatter(s.clone());
    }
    out.push_str(&chart.render());
    for n in &fig.notes {
        let _ = writeln!(out, "note: {n}");
    }
    out
}

/// Render one figure's comparison as Markdown for EXPERIMENTS.md.
pub fn comparison_markdown(fig: &Figure, cmp: &Comparison) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "## {} — {}\n", fig.id.name(), fig.title);
    if let Some(g) = cmp.geomean {
        let _ = writeln!(
            md,
            "Geometric-mean measured/paper ratio: **{g:.2}x** (absolute levels are \
             not a reproduction target; shapes below are).\n"
        );
    }
    let _ = writeln!(md, "Shape checks:\n");
    for c in &cmp.checks {
        match &c.shape {
            Shape::Matches => {
                let _ = writeln!(md, "- [x] {}", c.name);
            }
            Shape::Deviates(problems) => {
                let _ = writeln!(md, "- [ ] {} — {}", c.name, problems.join("; "));
            }
        }
    }
    md.push('\n');
    if let Some(t) = &cmp.numbers {
        let _ = writeln!(md, "Paper vs measured:\n\n```");
        md.push_str(&t.to_text());
        let _ = writeln!(md, "```\n");
    }
    if !fig.notes.is_empty() {
        let _ = writeln!(md, "Notes: {}\n", fig.notes.join("; "));
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpstream_core::Series;

    /// A synthetic fig1b-shaped figure that matches the paper exactly.
    fn synthetic_fig1b() -> Figure {
        let xs: Vec<f64> = paperdata::FIG1B_WIDTHS.iter().map(|&w| w as f64).collect();
        let mk = |label: &str, ys: &[f64]| {
            Series::new(label, xs.iter().cloned().zip(ys.iter().cloned()).collect())
        };
        Figure {
            id: FigureId::Fig1b,
            title: "synthetic".into(),
            x_label: "w".into(),
            y_label: "GB/s".into(),
            series: vec![
                mk("aocl", &paperdata::FIG1B_AOCL),
                mk("sdaccel", &paperdata::FIG1B_SDACCEL),
                mk("cpu", &paperdata::FIG1B_CPU),
                mk("gpu", &paperdata::FIG1B_GPU),
            ],
            notes: vec![],
        }
    }

    #[test]
    fn paper_data_passes_its_own_comparison() {
        let fig = synthetic_fig1b();
        let cmp = compare_figure(&fig);
        assert!(cmp.all_ok(), "{:#?}", cmp.checks);
        assert!((cmp.geomean.unwrap() - 1.0).abs() < 1e-9);
        assert!(cmp.numbers.is_some());
    }

    #[test]
    fn render_contains_chart_and_rows() {
        let fig = synthetic_fig1b();
        let txt = render_figure(&fig);
        assert!(txt.contains("fig1b"));
        assert!(txt.contains("a = aocl"));
    }

    #[test]
    fn markdown_marks_passes_and_failures() {
        let mut fig = synthetic_fig1b();
        // Sabotage the GPU series so the w16 decline check fails.
        fig.series[3] = Series::new(
            "gpu",
            vec![
                (1.0, 100.0),
                (2.0, 120.0),
                (4.0, 140.0),
                (8.0, 160.0),
                (16.0, 200.0),
            ],
        );
        let cmp = compare_figure(&fig);
        assert!(!cmp.all_ok());
        let md = comparison_markdown(&fig, &cmp);
        assert!(md.contains("- [ ]"), "{md}");
        assert!(md.contains("- [x]"), "{md}");
    }

    #[test]
    fn quick_mode_skips_numeric_table() {
        let mut fig = synthetic_fig1b();
        for s in &mut fig.series {
            s.points.truncate(3);
        }
        let cmp = compare_figure(&fig);
        assert!(cmp.numbers.is_none());
        assert!(cmp.geomean.is_none());
    }
}
