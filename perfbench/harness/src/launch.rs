//! `exec`: run one command and report its wall time, CPU time and peak
//! resident set as measured by `wait4`.
//!
//! The launcher exists so that the reported peak RSS is the measured
//! program's own: Linux folds the resident set of the process that
//! spawned a child into the child's `ru_maxrss`, and this launcher is
//! far smaller than a Python interpreter.

use crate::sys;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

pub fn main(args: &[String]) -> Result<(), String> {
    let mut report: Option<PathBuf> = None;
    let mut watch: Option<PathBuf> = None;
    let mut pid_file: Option<PathBuf> = None;
    let mut it = args.iter();
    let mut cmd: Vec<String> = Vec::new();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--report" => report = it.next().map(PathBuf::from),
            "--watch" => watch = it.next().map(PathBuf::from),
            "--pid-file" => pid_file = it.next().map(PathBuf::from),
            "--" => {
                cmd = it.by_ref().cloned().collect();
                break;
            }
            other => return Err(format!("exec: unknown argument '{other}'")),
        }
    }
    let report = report.ok_or("exec: --report <file> is required")?;
    let (prog, rest) = cmd.split_first().ok_or("exec: no command after --")?;

    let spawned_ns = sys::monotonic_ns();
    let t0 = Instant::now();
    let child = Command::new(prog)
        .args(rest)
        .spawn()
        .map_err(|e| format!("exec {prog}: {e}"))?;
    let pid = child.id();
    if let Some(p) = &pid_file {
        std::fs::write(p, format!("{pid} {spawned_ns}\n"))
            .map_err(|e| format!("{}: {e}", p.display()))?;
    }

    // Until the watched file first holds data, poll; then block. The
    // child's CPU time at that moment comes from its main thread's
    // schedstat (the `--jobs 1` CLI runs every point on that thread).
    let mut first_record: Option<(f64, f64)> = None;
    let mut done = None;
    if let Some(w) = &watch {
        while done.is_none() {
            done = sys::reap(pid, true).map_err(|e| e.to_string())?;
            if std::fs::metadata(w).map(|m| m.len() > 0).unwrap_or(false) {
                let cpu = std::fs::read_to_string(format!("/proc/{pid}/schedstat"))
                    .ok()
                    .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
                first_record = cpu.map(|ns| (t0.elapsed().as_secs_f64(), ns as f64 * 1e-9));
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let (status, ru) = match done {
        Some(d) => d,
        None => sys::reap(pid, false)
            .map_err(|e| e.to_string())?
            .ok_or("exec: wait4 returned early")?,
    };
    let wall = t0.elapsed().as_secs_f64();
    let json = format!(
        "{{\"wall_s\": {wall}, \"cpu_s\": {}, \"maxrss_kb\": {}, \"exit\": {}, \"first_record_s\": {}, \"first_record_cpu_s\": {}}}\n",
        ru.cpu_s(),
        ru.maxrss_kb(),
        sys::exit_code(status),
        first_record.map_or("null".to_string(), |f| f.0.to_string()),
        first_record.map_or("null".to_string(), |f| f.1.to_string()),
    );
    std::fs::write(&report, json).map_err(|e| format!("{}: {e}", report.display()))
}
