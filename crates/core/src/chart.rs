//! Zero-dependency ASCII charts: line/scatter/bar series on linear,
//! log2 or log10 axes, with labelled legends and deterministic
//! fixed-width output.
//!
//! This module is the renderer behind the `figures` binary, `--chart`
//! sweep/DSE reports, `mpstream watch` and the golden figure charts in
//! `tests/report_golden.rs`. The determinism contract is strict: the
//! output is a pure function of the series data and the chart
//! configuration — no wall clock, no locale, no terminal probing — so
//! renderings are byte-identical across runs, worker counts and
//! fault injection, and safe to pin as goldens.

use crate::report::Series;
use std::fmt::Write as _;

/// An axis transform. Log axes drop non-positive values (they have no
/// finite image), exactly as the paper's log-scaled figures do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Identity.
    #[default]
    Linear,
    /// `log2(v)` — the natural axis for sizes and widths that double.
    Log2,
    /// `log10(v)` — the paper's bandwidth axis.
    Log10,
}

impl Scale {
    /// The transformed coordinate, `None` when the value has no image.
    fn apply(self, v: f64) -> Option<f64> {
        match self {
            Scale::Linear => v.is_finite().then_some(v),
            Scale::Log2 => (v > 0.0 && v.is_finite()).then(|| v.log2()),
            Scale::Log10 => (v > 0.0 && v.is_finite()).then(|| v.log10()),
        }
    }

    /// Render one axis bound in the scale's own notation.
    fn bound(self, t: f64) -> String {
        match self {
            Scale::Linear => fmt_num(t),
            Scale::Log2 => format!("2^{t:.1}"),
            Scale::Log10 => format!("1e{t:.1}"),
        }
    }

    /// The axis-line suffix naming the scale.
    fn tag(self) -> &'static str {
        match self {
            Scale::Linear => "",
            Scale::Log2 => " (log2)",
            Scale::Log10 => " (log10)",
        }
    }
}

/// How one series is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// Points joined column-by-column with linear interpolation.
    Line,
    /// Points only.
    Scatter,
    /// A vertical bar from the x axis up to each point.
    Bar,
}

/// Per-series marker letters, in legend order.
const MARKERS: [char; 8] = ['a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'];

/// A chart under construction. Build with the chainable methods, then
/// [`render`](Chart::render) to a `String`.
#[derive(Debug, Clone)]
pub struct Chart {
    title: String,
    x_label: String,
    y_label: String,
    x_scale: Scale,
    y_scale: Scale,
    width: usize,
    height: usize,
    series: Vec<(Series, Style)>,
}

impl Chart {
    /// A chart with the default 64x16 plot area and linear axes.
    pub fn new(title: impl Into<String>) -> Chart {
        Chart {
            title: title.into(),
            x_label: String::new(),
            y_label: String::new(),
            x_scale: Scale::Linear,
            y_scale: Scale::Linear,
            width: 64,
            height: 16,
            series: Vec::new(),
        }
    }

    /// Set the plot area (columns x rows), floored at 8x4.
    pub fn size(mut self, width: usize, height: usize) -> Chart {
        self.width = width.max(8);
        self.height = height.max(4);
        self
    }

    /// Set the x-axis scale.
    pub fn x_scale(mut self, scale: Scale) -> Chart {
        self.x_scale = scale;
        self
    }

    /// Set the y-axis scale.
    pub fn y_scale(mut self, scale: Scale) -> Chart {
        self.y_scale = scale;
        self
    }

    /// Name the x axis.
    pub fn x_label(mut self, label: impl Into<String>) -> Chart {
        self.x_label = label.into();
        self
    }

    /// Name the y axis.
    pub fn y_label(mut self, label: impl Into<String>) -> Chart {
        self.y_label = label.into();
        self
    }

    /// Add a line series.
    pub fn line(mut self, series: Series) -> Chart {
        self.series.push((series, Style::Line));
        self
    }

    /// Add a scatter series.
    pub fn scatter(mut self, series: Series) -> Chart {
        self.series.push((series, Style::Scatter));
        self
    }

    /// Add a bar series.
    pub fn bar(mut self, series: Series) -> Chart {
        self.series.push((series, Style::Bar));
        self
    }

    /// The plottable (transformed) points of one series, in x order as
    /// given.
    fn transformed(&self, s: &Series) -> Vec<(f64, f64)> {
        s.points
            .iter()
            .filter_map(|&(x, y)| Some((self.x_scale.apply(x)?, self.y_scale.apply(y)?)))
            .collect()
    }

    /// Render the chart. Empty or fully-unplottable input renders the
    /// title and `(no data)` so callers never special-case.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let all: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|(s, _)| self.transformed(s))
            .collect();
        if all.is_empty() {
            out.push_str("  (no data)\n");
            return out;
        }
        let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for &(x, y) in &all {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        // Bars are anchored to the axis, so the axis must be in range.
        if self.series.iter().any(|(_, st)| *st == Style::Bar) {
            y0 = y0.min(0.0);
        }
        if (x1 - x0).abs() < 1e-9 {
            x1 = x0 + 1.0;
        }
        if (y1 - y0).abs() < 1e-9 {
            y1 = y0 + 1.0;
        }

        let (w, h) = (self.width, self.height);
        let col = |x: f64| (((x - x0) / (x1 - x0)) * (w - 1) as f64).round() as usize;
        let row = |y: f64| (((y - y0) / (y1 - y0)) * (h - 1) as f64).round() as usize;
        let mut grid = vec![vec![' '; w]; h];
        // A cell keeps the first marker drawn into it, so the legend
        // order decides collisions — deterministic and documented.
        let plot = |grid: &mut Vec<Vec<char>>, gx: usize, gy: usize, m: char| {
            let cell = &mut grid[h - 1 - gy][gx];
            if *cell == ' ' {
                *cell = m;
            }
        };

        for (si, (s, style)) in self.series.iter().enumerate() {
            let m = MARKERS[si % MARKERS.len()];
            let pts = self.transformed(s);
            match style {
                Style::Scatter => {
                    for &(x, y) in &pts {
                        plot(&mut grid, col(x), row(y), m);
                    }
                }
                Style::Bar => {
                    let base = row(y0.max(0.0).min(y1));
                    for &(x, y) in &pts {
                        let (gx, gy) = (col(x), row(y));
                        for fy in base.min(gy)..=base.max(gy) {
                            plot(&mut grid, gx, fy, m);
                        }
                    }
                }
                Style::Line => {
                    for &(x, y) in &pts {
                        plot(&mut grid, col(x), row(y), m);
                    }
                    for pair in pts.windows(2) {
                        let ((xa, ya), (xb, yb)) = (pair[0], pair[1]);
                        let (ca, cb) = (col(xa), col(xb));
                        let (lo, hi) = (ca.min(cb), ca.max(cb));
                        for gx in lo..=hi {
                            if hi == lo {
                                continue;
                            }
                            let t = (gx - lo) as f64 / (hi - lo) as f64;
                            // Interpolate in draw direction, whichever
                            // way x runs.
                            let (yl, yr) = if ca <= cb { (ya, yb) } else { (yb, ya) };
                            let y = yl + (yr - yl) * t;
                            plot(&mut grid, gx, row(y), m);
                        }
                    }
                }
            }
        }

        let y_name = if self.y_label.is_empty() {
            String::new()
        } else {
            format!("  [{}]", self.y_label)
        };
        let _ = writeln!(
            out,
            "  y: {} .. {}{}{}",
            self.y_scale.bound(y0),
            self.y_scale.bound(y1),
            self.y_scale.tag(),
            y_name
        );
        for r in grid {
            out.push_str("  |");
            out.extend(r);
            out.push('\n');
        }
        out.push_str("  +");
        out.push_str(&"-".repeat(w));
        out.push('\n');
        let x_name = if self.x_label.is_empty() {
            String::new()
        } else {
            format!("  [{}]", self.x_label)
        };
        let _ = writeln!(
            out,
            "  x: {} .. {}{}{}",
            self.x_scale.bound(x0),
            self.x_scale.bound(x1),
            self.x_scale.tag(),
            x_name
        );
        for (si, (s, _)) in self.series.iter().enumerate() {
            let _ = writeln!(out, "  {} = {}", MARKERS[si % MARKERS.len()], s.label);
        }
        out
    }
}

/// Format a linear axis bound compactly: round numbers without a
/// fraction, everything else with three significant decimals.
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// The ASCII amplitude ramp sparklines draw from, low to high.
const RAMP: [char; 9] = ['.', ':', '-', '=', '+', 'o', 'x', '#', '@'];

/// A one-line ASCII sparkline of `values`, min-to-max normalized over
/// the ramp `. : - = + o x # @`. Non-finite values render as `?`; a
/// flat (or single-value) series renders at mid-ramp.
pub fn sparkline(values: &[f64]) -> String {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (lo, hi) = finite
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return '?';
            }
            if (hi - lo).abs() < 1e-12 {
                return RAMP[RAMP.len() / 2];
            }
            let t = (v - lo) / (hi - lo);
            RAMP[((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(label: &str, pts: &[(f64, f64)]) -> Series {
        Series::new(label, pts.to_vec())
    }

    #[test]
    fn render_is_deterministic_and_fixed_width() {
        let chart = Chart::new("bandwidth")
            .size(40, 10)
            .y_scale(Scale::Log10)
            .line(series("cpu", &[(1.0, 20.0), (2.0, 22.0), (3.0, 18.0)]))
            .scatter(series("gpu", &[(1.0, 150.0), (3.0, 202.0)]));
        let a = chart.render();
        let b = chart.render();
        assert_eq!(a, b, "two renders must be byte-identical");
        for line in a.lines().filter(|l| l.starts_with("  |")) {
            assert_eq!(line.chars().count(), 3 + 40, "fixed plot width: {line:?}");
        }
        assert_eq!(
            a.lines().filter(|l| l.starts_with("  |")).count(),
            10,
            "fixed plot height"
        );
        assert!(a.contains("a = cpu"), "{a}");
        assert!(a.contains("b = gpu"), "{a}");
        assert!(a.contains("(log10)"), "{a}");
    }

    #[test]
    fn empty_chart_says_no_data() {
        let rendered = Chart::new("empty").render();
        assert!(rendered.contains("(no data)"), "{rendered}");
        // All-nonpositive input on a log axis is equally unplottable.
        let rendered = Chart::new("neg")
            .y_scale(Scale::Log2)
            .line(series("s", &[(1.0, 0.0), (2.0, -3.0)]))
            .render();
        assert!(rendered.contains("(no data)"), "{rendered}");
    }

    #[test]
    fn log_axes_drop_nonpositive_points_only() {
        let rendered = Chart::new("mixed")
            .y_scale(Scale::Log10)
            .scatter(series("s", &[(1.0, 0.0), (2.0, 10.0), (3.0, 100.0)]))
            .render();
        assert!(rendered.contains("y: 1e1.0 .. 1e2.0"), "{rendered}");
    }

    #[test]
    fn line_interpolates_between_columns() {
        let rendered = Chart::new("")
            .size(11, 5)
            .line(series("s", &[(0.0, 0.0), (10.0, 10.0)]))
            .render();
        // A diagonal: every plot column carries the marker somewhere.
        let rows: Vec<&str> = rendered.lines().filter(|l| l.starts_with("  |")).collect();
        for col in 0..11 {
            assert!(
                rows.iter()
                    .any(|r| r.chars().nth(3 + col).unwrap_or(' ') == 'a'),
                "column {col} empty:\n{rendered}"
            );
        }
    }

    #[test]
    fn bars_reach_down_to_the_axis() {
        let rendered = Chart::new("")
            .size(8, 6)
            .bar(series("s", &[(1.0, 6.0), (2.0, 3.0)]))
            .render();
        let rows: Vec<&str> = rendered.lines().filter(|l| l.starts_with("  |")).collect();
        // The tallest bar fills its full column.
        let tall_col = rows
            .last()
            .unwrap()
            .chars()
            .skip(3)
            .position(|c| c == 'a')
            .expect("bottom row has a bar");
        assert!(
            rows.iter()
                .all(|r| r.chars().nth(3 + tall_col) == Some('a')),
            "{rendered}"
        );
    }

    #[test]
    fn first_series_wins_cell_collisions() {
        let rendered = Chart::new("")
            .size(8, 4)
            .scatter(series("first", &[(1.0, 1.0)]))
            .scatter(series("second", &[(1.0, 1.0)]))
            .line(series("spread", &[(0.0, 0.0), (2.0, 2.0)]))
            .render();
        assert!(!rendered.contains('b') || rendered.contains("b = second"));
        let plot: String = rendered.lines().filter(|l| l.starts_with("  |")).collect();
        assert!(plot.contains('a'), "{rendered}");
    }

    #[test]
    fn scale_bounds_render_in_their_own_notation() {
        assert_eq!(Scale::Linear.bound(4.0), "4");
        assert_eq!(Scale::Linear.bound(4.25), "4.250");
        assert_eq!(Scale::Log2.bound(16.0), "2^16.0");
        assert_eq!(Scale::Log10.bound(2.5), "1e2.5");
    }

    #[test]
    fn sparkline_tracks_amplitude() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0]), "+");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "+++");
        let line = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(line.chars().next(), Some('.'));
        assert_eq!(line.chars().last(), Some('@'));
        assert_eq!(sparkline(&[f64::NAN, 1.0, 2.0]), "?.@");
        // Deterministic: same input, same bytes.
        assert_eq!(sparkline(&[3.0, 1.0, 4.0]), sparkline(&[3.0, 1.0, 4.0]));
    }
}
