//! Golden-file tests for the report layer: the sweep point table, the
//! degradation summary and the per-config metrics table are pinned
//! byte-for-byte against files in `tests/golden/`. The simulator is
//! deterministic, so any diff here is a real formatting or metrics
//! change.
//!
//! To regenerate the goldens after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test report_golden
//! ```
//!
//! then review the diff under `tests/golden/` like any other code
//! change and commit it with the change that caused it.

use kernelgen::{KernelConfig, StreamOp};
use mpstream_core::sweep::sweep_space;
use mpstream_core::{
    run_figure, BenchConfig, Engine, Figure, FigureId, ParamSpace, RunOpts, SweepResult,
};
use std::path::PathBuf;
use targets::TargetId;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").ok().as_deref() == Some("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test report_golden",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "report output for {name} diverged from its golden; if the \
         change is intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test report_golden"
    );
}

/// The reference sweep: serial (so the cache column is deterministic),
/// fault-free, on the CPU model.
fn reference_sweep() -> SweepResult {
    let space = ParamSpace::new()
        .ops([StreamOp::Copy, StreamOp::Triad])
        .sizes_bytes([64 << 10])
        .widths([1, 4]);
    let protocol = |k: KernelConfig| BenchConfig::new(k).with_ntimes(1).with_validation(true);
    sweep_space(&Engine::with_jobs(1), TargetId::Cpu, &space, protocol)
}

#[test]
fn sweep_point_table_matches_golden() {
    let s = reference_sweep();
    check_golden("sweep_table.txt", &s.table().to_text());
}

#[test]
fn sweep_summary_table_matches_golden() {
    let s = reference_sweep();
    check_golden("sweep_summary.txt", &s.summary().to_text());
}

#[test]
fn metrics_table_matches_golden() {
    let s = reference_sweep();
    check_golden("metrics_table.txt", &s.metrics_table().to_text());
}

#[test]
fn metrics_table_csv_matches_golden() {
    let s = reference_sweep();
    check_golden("metrics_table.csv", &s.metrics_table().to_csv());
}

// ---------------------------------------------------------------------
// Paper-parity trends (Fig. 3 / Fig. 4a), pinned both qualitatively —
// the orderings the paper's text calls out — and byte-for-byte as
// golden series data, so a cost-model change that silently moves the
// numbers shows up even when the trend still holds.
// ---------------------------------------------------------------------

/// Serialize a figure's series to one line per point with full
/// round-trip float precision — stable because the simulator is
/// deterministic.
fn figure_series_text(fig: &Figure) -> String {
    let mut out = String::new();
    for s in &fig.series {
        for &(x, y) in &s.points {
            out.push_str(&format!("{} {x:?} {y:?}\n", s.label));
        }
    }
    out
}

/// Serial, fault-free, full-fidelity figure run (quick mode thins the
/// protocol and would change the golden values).
fn reference_figure(id: FigureId) -> Figure {
    run_figure(id, RunOpts::full().with_jobs(1))
}

/// The y value of series `label` at target slot `x` (1=aocl 2=sdaccel
/// 3=cpu 4=gpu in Fig. 3/4a).
fn at(fig: &Figure, label: &str, x: f64) -> f64 {
    let s = fig
        .series
        .iter()
        .find(|s| s.label == label)
        .unwrap_or_else(|| panic!("series '{label}' missing from {:?}", fig.id));
    s.points
        .iter()
        .find(|(px, _)| *px == x)
        .unwrap_or_else(|| panic!("series '{label}' has no point at x={x}"))
        .1
}

#[test]
fn gups_bandwidth_collapses_past_tlb_reach_and_matches_golden() {
    // The HPCC scatter kernel against the CPU model's address
    // translation: while the update table fits in TLB reach the random
    // accesses still translate cheaply, past it nearly every access is
    // a TLB miss and sustained bandwidth collapses. The contiguous copy
    // kernel over the same footprints is the control — its page
    // locality amortizes one walk per page at every size. The standard
    // CPU model's 2 MiB transparent huge pages give 128 MiB of reach
    // (too big to sweep per-access), so this series runs the same
    // machine with 4 KiB base pages — 64 entries x 4 KiB = 256 KiB
    // reach, crossed inside the sweep.
    let tuning = targets::cpu::CpuTuning {
        page_bytes: 4 << 10,
        ..Default::default()
    };
    let device = mpcl::Device::new(Box::new(targets::CpuBackend::with_tuning(tuning)));
    let runner = mpstream_core::Runner::new(device);
    let measure = |op: StreamOp, size_bytes: u64| {
        let cfg = KernelConfig::baseline(op, size_bytes / 4);
        let bc = BenchConfig::new(cfg).with_ntimes(1).with_validation(false);
        runner.run(&bc).expect("runs").gbps()
    };
    let sizes: &[u64] = &[64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20];
    let mut series = Vec::new();
    for &op in &[StreamOp::RandomAccess, StreamOp::Copy] {
        let points: Vec<(f64, f64)> = sizes.iter().map(|&s| (s as f64, measure(op, s))).collect();
        series.push(mpstream_core::Series::new(op.name(), points));
    }

    let ratio = |s: &mpstream_core::Series| {
        let ys = s.ys();
        ys.first().copied().unwrap_or(0.0) / ys.last().copied().unwrap_or(f64::NAN)
    };
    let gups_collapse = ratio(&series[0]);
    let copy_collapse = ratio(&series[1]);
    assert!(
        gups_collapse >= 2.0,
        "GUPS should collapse past TLB reach, got {gups_collapse:.2}x"
    );
    assert!(
        gups_collapse >= copy_collapse * 2.0,
        "the collapse must be a scatter phenomenon: gups {gups_collapse:.2}x \
         vs copy {copy_collapse:.2}x"
    );

    let mut out = String::new();
    for s in &series {
        for &(x, y) in &s.points {
            out.push_str(&format!("{} {x:?} {y:?}\n", s.label));
        }
    }
    check_golden("gups_tlb_series.txt", &out);
}

#[test]
fn fig3_gpu_single_work_item_collapses_and_matches_golden() {
    let fig = reference_figure(FigureId::Fig3);
    // The paper's headline Fig. 3 result: a single-work-item loop on the
    // GPU forfeits all thread-level parallelism and collapses bandwidth
    // roughly three orders of magnitude below the NDRange kernel.
    let gpu_ndrange = at(&fig, "ndrange-kernel", 4.0);
    let gpu_flat = at(&fig, "kernel-loop-flat", 4.0);
    let collapse = gpu_ndrange / gpu_flat;
    assert!(
        collapse >= 100.0,
        "GPU single-work-item should collapse ~1000x vs NDRange, got {collapse:.1}x"
    );
    // And on the CPU the three loop managements are within the same
    // order of magnitude — the collapse is a GPU phenomenon.
    let cpu_ratio = at(&fig, "ndrange-kernel", 3.0) / at(&fig, "kernel-loop-flat", 3.0);
    assert!(
        cpu_ratio < 10.0,
        "CPU loop modes should be comparable, got {cpu_ratio:.1}x"
    );
    check_golden("fig3_series.txt", &figure_series_text(&fig));
}

#[test]
fn fig3_nested_loop_beats_flat_on_sdaccel() {
    let fig = reference_figure(FigureId::Fig3);
    // The surprising SDAccel result: the nested single-work-item loop
    // (over the 2D view) outperforms the flat one, while everywhere
    // else nesting is neutral-to-worse.
    let sda_nested = at(&fig, "kernel-loop-nested", 2.0);
    let sda_flat = at(&fig, "kernel-loop-flat", 2.0);
    assert!(
        sda_nested > sda_flat,
        "nested ({sda_nested:.1} KB/s) must beat flat ({sda_flat:.1} KB/s) on SDAccel"
    );
    let gpu_nested = at(&fig, "kernel-loop-nested", 4.0);
    let gpu_flat = at(&fig, "kernel-loop-flat", 4.0);
    assert!(
        gpu_nested <= gpu_flat * 1.5,
        "nesting must not help the GPU the way it helps SDAccel"
    );
}

// ---------------------------------------------------------------------
// Golden chart renderings: the zero-dependency ASCII chart module over
// the paper-parity figure series and the committed BENCH trajectories.
// Charts are pure functions of the (deterministic) result data, so any
// diff is a real renderer or cost-model change.
// ---------------------------------------------------------------------

/// Render a figure through the chart module the `--chart` flag and
/// `mpstream watch` use: one line series per figure series, log10 y
/// (the paper's figures are log-scaled), fixed 64x16 plot.
fn figure_chart(fig: &Figure) -> String {
    let mut chart = mpstream_core::Chart::new(fig.title.clone())
        .size(64, 16)
        .y_scale(mpstream_core::Scale::Log10)
        .x_label(fig.x_label.clone())
        .y_label(fig.y_label.clone());
    for s in &fig.series {
        chart = chart.line(s.clone());
    }
    chart.render()
}

#[test]
fn fig3_chart_matches_golden() {
    let fig = reference_figure(FigureId::Fig3);
    check_golden("fig3_chart.txt", &figure_chart(&fig));
}

#[test]
fn fig4a_chart_matches_golden() {
    let fig = reference_figure(FigureId::Fig4a);
    check_golden("fig4a_chart.txt", &figure_chart(&fig));
}

#[test]
fn fig4a_kernel_ordering_matches_golden() {
    let fig = reference_figure(FigureId::Fig4a);
    // Fig. 4a shape: on every target the two-array kernels (copy,
    // scale) sustain at least the bandwidth of the three-array ones
    // (add, triad) — more arrays never raises sustained bandwidth.
    for (x, target) in [(1.0, "aocl"), (2.0, "sdaccel"), (3.0, "cpu"), (4.0, "gpu")] {
        let copy = at(&fig, "copy", x);
        let triad = at(&fig, "triad", x);
        assert!(
            copy >= triad * 0.8,
            "{target}: copy ({copy:.1}) should not trail triad ({triad:.1}) by >20%"
        );
    }
    check_golden("fig4a_series.txt", &figure_series_text(&fig));
}
