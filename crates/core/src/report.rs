//! Report rendering: aligned text tables and CSV for the
//! figure-regeneration binaries — plus the sweep degradation
//! summary ([`sweep_summary_table`]) that makes partial (fault-degraded
//! or resumed) sweeps legible at a glance.

use kernelgen::KernelConfig;
use mpcl::CacheStats;
use std::fmt::Write as _;

/// The one-line label report tables use for a configuration (op, vector
/// width, loop mode, unroll, vendor opts) — shared by the sweep point
/// table and the per-config metrics table so rows line up across both.
pub fn config_label(cfg: &KernelConfig) -> String {
    let mut label = format!(
        "{} vec{} {} u{} {:?}",
        cfg.op.name(),
        cfg.vector_width.get(),
        cfg.loop_mode.label(),
        cfg.unroll,
        cfg.vendor
    );
    if let Some(ch) = cfg.channel {
        let _ = write!(label, " ch{}", ch.depth);
    }
    label
}

/// A labelled series of (x, y) points — one line of a paper figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. `"aocl-strided"`).
    pub label: String,
    /// Points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Construct from a label and points.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// The y values only.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, y)| y).collect()
    }
}

/// A simple aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as aligned monospace text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Render as aligned monospace text into any [`std::fmt::Write`]
    /// sink — lets callers (the report files, the serve crate's text
    /// endpoints) stream a table straight into a response body.
    pub fn write_text(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let render = |cells: &[String], out: &mut dyn std::fmt::Write| {
            for (i, c) in cells.iter().enumerate() {
                write!(out, "{:>w$}  ", c, w = width[i])?;
            }
            writeln!(out)
        };
        render(&self.headers, out)?;
        let total: usize = width.iter().sum::<usize>() + 2 * cols;
        writeln!(out, "{}", "-".repeat(total))?;
        for row in &self.rows {
            render(row, out)?;
        }
        Ok(())
    }

    /// Render as CSV (RFC-4180-ish; quotes fields containing commas).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        self.write_csv(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Render as CSV into any [`std::fmt::Write`] sink (see
    /// [`Table::write_text`] for why).
    pub fn write_csv(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        )?;
        for row in &self.rows {
            writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            )?;
        }
        Ok(())
    }
}

/// What happened to a sweep, counted — input for
/// [`sweep_summary_table`]. The sweep layer fills this from a
/// `SweepResult`; it lives here so the rendering (and its column set)
/// stays a report concern.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepSummary {
    /// Points in the sweep.
    pub points: usize,
    /// Points with a successful measurement.
    pub ok: usize,
    /// Points whose result is an error.
    pub failed: usize,
    /// Points that needed at least one retry.
    pub retried: usize,
    /// Points whose retry budget/deadline ran out while still failing
    /// transiently.
    pub gave_up: u64,
    /// Points answered from a checkpoint instead of executed.
    pub resumed: usize,
    /// Build-cache counters for the sweep.
    pub cache: CacheStats,
    /// Total re-attempts performed.
    pub retries: u64,
    /// Worker panics isolated into error outcomes.
    pub panics: u64,
    /// Faults injected by an attached fault plan.
    pub faults_injected: u64,
}

/// One row of the per-configuration execution-metrics table — where a
/// point's simulated time went (synthesis, transfers, kernel), what the
/// resilience layer did for it, and how DRAM behaved. The sweep layer
/// fills this from successful `SweepResult` points.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigMetrics {
    /// Configuration label (see [`config_label`]).
    pub label: String,
    /// Workload-family label (`stream`/`hpcc`; see
    /// [`kernelgen::Op::family`]).
    pub family: &'static str,
    /// Sustained bandwidth, GB/s.
    pub gbps: f64,
    /// Modelled synthesis/compile time, ns.
    pub build_ns: f64,
    /// Total simulated transfer time, ns.
    pub xfer_ns: f64,
    /// Total simulated kernel execution time, ns.
    pub kernel_ns: f64,
    /// Channel/pipe stall time inside the kernel launches, ns (zero for
    /// single-stage kernels).
    pub stall_ns: f64,
    /// Re-attempts the point needed.
    pub retries: u32,
    /// Build-cache status label (`hit`/`miss`/`uncached`).
    pub cache: &'static str,
    /// DRAM row-buffer hit rate, 0..=1.
    pub row_hit_rate: f64,
}

/// Render the per-configuration metrics table
/// (`build_ns`/`xfer_ns`/`kernel_ns`/`retries`/`cache`/row hit-rate).
pub fn config_metrics_table(rows: &[ConfigMetrics]) -> Table {
    let mut t = Table::new(&[
        "config",
        "family",
        "GB/s",
        "build_ns",
        "xfer_ns",
        "kernel_ns",
        "stall_ns",
        "retries",
        "cache",
        "row hit%",
    ]);
    for r in rows {
        t.row(&[
            r.label.clone(),
            r.family.to_string(),
            format!("{:.2}", r.gbps),
            format!("{:.0}", r.build_ns),
            format!("{:.0}", r.xfer_ns),
            format!("{:.0}", r.kernel_ns),
            format!("{:.0}", r.stall_ns),
            r.retries.to_string(),
            r.cache.to_string(),
            format!("{:.1}", r.row_hit_rate * 100.0),
        ]);
    }
    t
}

/// One row of the Pareto-frontier table: a non-dominated configuration
/// with its bandwidth and synthesis-cost proxy (FPGA logic). The DSE
/// layer fills this from the frontier of a search trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoRow {
    /// Configuration label (see [`config_label`]).
    pub label: String,
    /// Sustained bandwidth, GB/s.
    pub gbps: f64,
    /// FPGA logic consumed (the synthesis-cost proxy).
    pub logic: u64,
}

/// Render the bandwidth-vs-logic Pareto frontier (ascending logic, so
/// each row answers "what does the next unit of fabric buy?").
pub fn pareto_table(rows: &[ParetoRow]) -> Table {
    let mut t = Table::new(&["config", "GB/s", "logic"]);
    for r in rows {
        t.row(&[
            r.label.clone(),
            format!("{:.2}", r.gbps),
            r.logic.to_string(),
        ]);
    }
    t
}

/// One-row sweep degradation summary: alongside ok/failed, the
/// retried/gave-up/resumed columns make a partial (fault-degraded or
/// checkpoint-resumed) sweep legible at a glance.
pub fn sweep_summary_table(s: &SweepSummary) -> Table {
    let mut t = Table::new(&[
        "points",
        "ok",
        "failed",
        "retried",
        "gave up",
        "resumed",
        "retries",
        "panics",
        "faults",
        "cache hit/miss",
    ]);
    t.row(&[
        s.points.to_string(),
        s.ok.to_string(),
        s.failed.to_string(),
        s.retried.to_string(),
        s.gave_up.to_string(),
        s.resumed.to_string(),
        s.retries.to_string(),
        s.panics.to_string(),
        s.faults_injected.to_string(),
        format!("{}/{}", s.cache.hits, s.cache.misses),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["size", "GB/s"]);
        t.row(&["1".into(), "2.53".into()]);
        t.row(&["4096".into(), "15.26".into()]);
        let txt = t.to_text();
        assert!(txt.contains("size"));
        assert!(txt.lines().count() == 4);
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(lines[0].len(), lines[2].len(), "aligned columns");
    }

    #[test]
    fn sweep_summary_has_degradation_columns() {
        let t = sweep_summary_table(&SweepSummary {
            points: 20,
            ok: 18,
            failed: 2,
            retried: 4,
            gave_up: 2,
            resumed: 5,
            cache: CacheStats {
                hits: 12,
                misses: 8,
            },
            retries: 6,
            panics: 1,
            faults_injected: 7,
        });
        let txt = t.to_text();
        for col in ["failed", "retried", "gave up", "resumed", "panics"] {
            assert!(txt.contains(col), "missing column {col}: {txt}");
        }
        assert!(txt.contains("12/8"), "{txt}");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn config_label_appends_channel_depth_only_when_present() {
        let mut cfg = KernelConfig::baseline(kernelgen::Op::RandomAccess, 1024);
        assert!(!config_label(&cfg).contains(" ch"));
        cfg.channel = Some(kernelgen::ChannelSpec { depth: 4 });
        let label = config_label(&cfg);
        assert!(label.starts_with("gups "), "{label}");
        assert!(label.ends_with(" ch4"), "{label}");
    }

    #[test]
    fn metrics_table_has_family_and_stall_columns() {
        let t = config_metrics_table(&[ConfigMetrics {
            label: "gups vec1 ndrange u1 None ch4".into(),
            family: "hpcc",
            gbps: 3.5,
            build_ns: 100.0,
            xfer_ns: 200.0,
            kernel_ns: 300.0,
            stall_ns: 42.0,
            retries: 0,
            cache: "miss",
            row_hit_rate: 0.5,
        }]);
        let txt = t.to_text();
        for col in ["family", "stall_ns"] {
            assert!(txt.contains(col), "missing column {col}: {txt}");
        }
        assert!(txt.contains("hpcc"), "{txt}");
        assert!(txt.contains("42"), "{txt}");
    }

    #[test]
    fn pareto_table_lists_frontier_rows() {
        let t = pareto_table(&[
            ParetoRow {
                label: "copy vec1".into(),
                gbps: 3.5,
                logic: 1200,
            },
            ParetoRow {
                label: "copy vec16".into(),
                gbps: 21.0,
                logic: 9800,
            },
        ]);
        let txt = t.to_text();
        assert!(txt.contains("logic"), "{txt}");
        assert!(txt.contains("21.00"), "{txt}");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn writer_renderers_match_string_renderers() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "two".into()]);
        let mut text = String::new();
        t.write_text(&mut text).unwrap();
        assert_eq!(text, t.to_text());
        let mut csv = String::new();
        t.write_csv(&mut csv).unwrap();
        assert_eq!(csv, t.to_csv());
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["x,y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",plain"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn series_helpers() {
        let s = Series::new("x", vec![(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(s.ys(), vec![2.0, 4.0]);
    }
}
