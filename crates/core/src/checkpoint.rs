//! Sweep checkpointing: persist completed [`Outcome`]s so a killed
//! campaign resumes instead of restarting.
//!
//! An FPGA sweep is hours of synthesis; losing a night of results to an
//! OOM-killed host is the failure mode this module removes. The format
//! is JSON-lines — one flat JSON object per completed configuration,
//! appended and flushed as workers finish (out of input order; the
//! sweep layer re-establishes order on resume). Append-only means a
//! `kill -9` can at worst truncate the final line; the loader skips an
//! unparseable trailing record rather than rejecting the file.
//!
//! The JSON dialect lives in [`crate::json`] (shared with the serving
//! layer's wire protocol and job journal). Records are keyed by the
//! configuration's exhaustive `Debug` rendering — the same keying the
//! build cache uses — and carry every [`Measurement`] field, or the
//! error as a `(code, detail)` pair that [`ClError::from_parts`]
//! reverses.
//!
//! Long-lived stores (the `mpstream serve` result store keeps one
//! checkpoint file per job, forever) accumulate superseded records for
//! re-run keys; [`Checkpoint::compact`] rewrites a file down to the
//! last record per `(device, config)` key, dropping any torn tail.
//!
//! A reader tailing the file (the daemon's result streams) learns of
//! each new line through [`Checkpoint::on_record`], a hook that fires
//! once the line is flushed.

use crate::engine::Outcome;
use crate::json::{parse_flat_object, CompactStats, JsonLine, JsonValue};
use crate::runner::Measurement;
use kernelgen::KernelConfig;
use mpcl::{CacheStatus, ClError, ResourceUsage};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A sweep checkpoint file: completed outcomes loaded at open, new ones
/// appended (and flushed) as they are recorded.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    file: Mutex<File>,
    loaded: HashMap<String, Outcome>,
    on_record: Option<RecordHook>,
}

/// Newtype so `Checkpoint` can keep deriving `Debug`.
struct RecordHook(Box<dyn Fn() + Send + Sync>);

impl std::fmt::Debug for RecordHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RecordHook")
    }
}

/// The checkpoint key of a configuration (its exhaustive `Debug`
/// rendering, as the build cache uses).
pub fn config_key(cfg: &KernelConfig) -> String {
    format!("{cfg:?}")
}

impl Checkpoint {
    /// Start a fresh checkpoint at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Checkpoint {
            path,
            file: Mutex::new(file),
            loaded: HashMap::new(),
            on_record: None,
        })
    }

    /// Open `path` for resumption: previously recorded outcomes become
    /// available via [`lookup`](Self::lookup) and new ones append after
    /// them. A missing file starts empty; a corrupt trailing line (the
    /// signature of a mid-write kill) is dropped.
    pub fn resume(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut loaded = HashMap::new();
        match File::open(&path) {
            Ok(f) => {
                for line in BufReader::new(f).lines() {
                    let line = line?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    if let Some((key, outcome)) = parse_record(&line) {
                        loaded.insert(key, outcome);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Checkpoint {
            path,
            file: Mutex::new(file),
            loaded,
            on_record: None,
        })
    }

    /// Rewrite the checkpoint file at `path` keeping only the last
    /// record per `(device, config)` key, in first-appearance order;
    /// torn or foreign lines are dropped. The rewrite is atomic
    /// (temp file + rename). Error records carry no device and compact
    /// under an empty device. A missing file is a no-op. The server
    /// runs this over its result store on startup, so a store that was
    /// killed mid-write (torn tail) or re-ran configurations
    /// (duplicates) converges back to one clean record per point.
    pub fn compact(path: impl AsRef<Path>) -> std::io::Result<CompactStats> {
        crate::json::compact_jsonl(path.as_ref(), |fields| {
            let key = fields.get("key")?.as_str()?;
            let device = fields
                .get("device")
                .and_then(JsonValue::as_str)
                .unwrap_or("");
            Some(format!("{device}\u{1f}{key}"))
        })
    }

    /// The file backing this checkpoint.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of outcomes loaded from disk at open.
    pub fn len(&self) -> usize {
        self.loaded.len()
    }

    /// True when nothing was loaded from disk.
    pub fn is_empty(&self) -> bool {
        self.loaded.is_empty()
    }

    /// The previously completed outcome for `cfg`, if recorded. The
    /// stored result is re-keyed to `cfg` (the file does not carry the
    /// configuration itself, only its key).
    pub fn lookup(&self, cfg: &KernelConfig) -> Option<Outcome> {
        self.loaded.get(&config_key(cfg)).map(|o| Outcome {
            config: cfg.clone(),
            result: o.result.clone(),
            retries: o.retries,
        })
    }

    /// Run `hook` after every [`record`](Self::record) has flushed its
    /// line, on the recording thread. Replaces any earlier hook.
    pub fn on_record(mut self, hook: impl Fn() + Send + Sync + 'static) -> Self {
        self.on_record = Some(RecordHook(Box::new(hook)));
        self
    }

    /// Append `outcome` and flush, so a kill right after loses nothing;
    /// then run the [`on_record`](Self::on_record) hook, if any.
    pub fn record(&self, outcome: &Outcome) -> std::io::Result<()> {
        let line = render_record(outcome);
        let mut file = self.file.lock().expect("checkpoint mutex poisoned");
        writeln!(file, "{line}")?;
        file.flush()?;
        drop(file);
        if let Some(RecordHook(hook)) = &self.on_record {
            hook();
        }
        Ok(())
    }
}

/// Render one outcome as a flat JSON object (one line).
///
/// Public because the checkpoint record doubles as the cluster wire
/// format: workers render finished points with this exact codec and
/// ship the lines to the coordinator, whose merged per-job file is then
/// indistinguishable from one a local engine appended itself.
pub fn render_record(o: &Outcome) -> String {
    let mut w = JsonLine::new();
    w.str_field("key", &config_key(&o.config));
    w.raw_field("retries", &o.retries.to_string());
    match &o.result {
        Ok(m) => {
            w.str_field("status", "ok");
            w.str_field("device", &m.device);
            w.raw_field("bytes_moved", &m.bytes_moved.to_string());
            w.raw_field("best_wall_ns", &fmt_f64(m.best_wall_ns));
            w.raw_field("avg_wall_ns", &fmt_f64(m.avg_wall_ns));
            w.raw_field("best_kernel_ns", &fmt_f64(m.best_kernel_ns));
            w.raw_field(
                "validated",
                match m.validated {
                    Some(true) => "true",
                    Some(false) => "false",
                    None => "null",
                },
            );
            w.raw_field("dram_bytes", &m.dram_bytes_per_launch.to_string());
            w.raw_field(
                "energy_j",
                &m.energy_j.map(fmt_f64).unwrap_or_else(|| "null".into()),
            );
            w.raw_field(
                "fmax_mhz",
                &m.fmax_mhz.map(fmt_f64).unwrap_or_else(|| "null".into()),
            );
            let res = |f: fn(&ResourceUsage) -> u64| {
                m.resources
                    .as_ref()
                    .map(|r| f(r).to_string())
                    .unwrap_or_else(|| "null".into())
            };
            w.raw_field("logic", &res(|r| r.logic));
            w.raw_field("bram", &res(|r| r.bram));
            w.raw_field("dsp", &res(|r| r.dsp));
            w.str_field("build_log", &m.build_log);
            w.raw_field("build_ns", &fmt_f64(m.build_ns));
            w.raw_field("xfer_ns", &fmt_f64(m.xfer_ns));
            w.raw_field("kernel_ns", &fmt_f64(m.kernel_ns));
            w.str_field("cache", m.cache.label());
            w.raw_field("row_hits", &m.row_hits.to_string());
            w.raw_field("row_misses", &m.row_misses.to_string());
            w.raw_field("row_empty", &m.row_empty.to_string());
            w.raw_field("stall_ns", &fmt_f64(m.stall_ns));
        }
        Err(e) => {
            w.str_field("status", "err");
            w.str_field("code", e.code());
            w.str_field("msg", &e.detail());
        }
    }
    w.finish()
}

/// Parse one record line back into `(key, outcome)`; `None` when the
/// line is corrupt (mid-write kill) or incomplete.
///
/// The returned [`Outcome`] carries a placeholder config — records are
/// keyed by the rendered `key` string, not a reconstructed config; use
/// [`Checkpoint::lookup`] to re-associate real configs. Public for the
/// same reason as [`render_record`]: the cluster merge path validates
/// and re-keys worker-shipped lines with the real parser.
pub fn parse_record(line: &str) -> Option<(String, Outcome)> {
    let fields = parse_flat_object(line)?;
    let str_of = |k: &str| Some(fields.get(k)?.as_str()?.to_string());
    let raw_of = |k: &str| fields.get(k)?.as_raw();
    let key = str_of("key")?;
    let retries: u32 = raw_of("retries")?.parse().ok()?;
    let result = match str_of("status")?.as_str() {
        "ok" => {
            let opt_f64 = |k: &str| -> Option<Option<f64>> {
                match raw_of(k)? {
                    "null" => Some(None),
                    v => Some(Some(v.parse().ok()?)),
                }
            };
            let opt_u64 = |k: &str| -> Option<Option<u64>> {
                match raw_of(k)? {
                    "null" => Some(None),
                    v => Some(Some(v.parse().ok()?)),
                }
            };
            let resources = match (opt_u64("logic")?, opt_u64("bram")?, opt_u64("dsp")?) {
                (Some(logic), Some(bram), Some(dsp)) => Some(ResourceUsage { logic, bram, dsp }),
                _ => None,
            };
            Ok(Measurement {
                device: str_of("device")?,
                bytes_moved: raw_of("bytes_moved")?.parse().ok()?,
                best_wall_ns: raw_of("best_wall_ns")?.parse().ok()?,
                avg_wall_ns: raw_of("avg_wall_ns")?.parse().ok()?,
                best_kernel_ns: raw_of("best_kernel_ns")?.parse().ok()?,
                validated: match raw_of("validated")? {
                    "true" => Some(true),
                    "false" => Some(false),
                    "null" => None,
                    _ => return None,
                },
                dram_bytes_per_launch: raw_of("dram_bytes")?.parse().ok()?,
                energy_j: opt_f64("energy_j")?,
                fmax_mhz: opt_f64("fmax_mhz")?,
                resources,
                build_log: str_of("build_log")?,
                // Metrics added after the format's first release:
                // records written by older versions fall back to their
                // zero values instead of being rejected.
                build_ns: raw_of("build_ns")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0.0),
                xfer_ns: raw_of("xfer_ns")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0.0),
                kernel_ns: raw_of("kernel_ns")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0.0),
                cache: str_of("cache")
                    .and_then(|s| CacheStatus::from_label(&s))
                    .unwrap_or(CacheStatus::Uncached),
                row_hits: raw_of("row_hits").and_then(|v| v.parse().ok()).unwrap_or(0),
                row_misses: raw_of("row_misses")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0),
                row_empty: raw_of("row_empty")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0),
                stall_ns: raw_of("stall_ns")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0.0),
            })
        }
        "err" => Err(ClError::from_parts(&str_of("code")?, &str_of("msg")?)),
        _ => return None,
    };
    Some((
        key,
        Outcome {
            // The config is reconstructed by `lookup` from the caller's
            // side of the key; a placeholder sits here until then.
            config: KernelConfig::baseline(kernelgen::StreamOp::Copy, 1),
            result,
            retries,
        },
    ))
}

/// Format an f64 so `parse::<f64>` round-trips it (Rust's shortest
/// representation does).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelgen::StreamOp;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let n = UNIQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "mpstream-ckpt-{tag}-{}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn sample_ok() -> Outcome {
        let cfg = KernelConfig::baseline(StreamOp::Triad, 4096);
        let mut m = Measurement::synthetic(42.5);
        m.device = "Stratix V (sim)".into();
        m.validated = Some(true);
        m.energy_j = Some(0.125);
        m.fmax_mhz = Some(287.5);
        m.resources = Some(ResourceUsage {
            logic: 12345,
            bram: 67,
            dsp: 8,
        });
        m.build_log = "line1\nline2 \"quoted\" \\slash\ttab".into();
        Outcome {
            config: cfg,
            result: Ok(m),
            retries: 2,
        }
    }

    fn sample_err() -> Outcome {
        let cfg = KernelConfig::baseline(StreamOp::Copy, 1024);
        Outcome {
            config: cfg,
            result: Err(ClError::BuildProgramFailure("ALM 140%\nover".into())),
            retries: 0,
        }
    }

    #[test]
    fn record_and_resume_round_trips_ok_and_err() {
        let path = temp_path("roundtrip");
        {
            let cp = Checkpoint::create(&path).unwrap();
            cp.record(&sample_ok()).unwrap();
            cp.record(&sample_err()).unwrap();
            assert_eq!(cp.len(), 0, "create starts empty");
        }
        let cp = Checkpoint::resume(&path).unwrap();
        assert_eq!(cp.len(), 2);

        let ok = cp.lookup(&sample_ok().config).expect("recorded");
        assert_eq!(ok.retries, 2);
        let (want, got) = (sample_ok().result.unwrap(), ok.result.unwrap());
        assert_eq!(got.device, want.device);
        assert_eq!(got.bytes_moved, want.bytes_moved);
        assert_eq!(got.best_wall_ns, want.best_wall_ns);
        assert_eq!(got.avg_wall_ns, want.avg_wall_ns);
        assert_eq!(got.best_kernel_ns, want.best_kernel_ns);
        assert_eq!(got.validated, want.validated);
        assert_eq!(got.dram_bytes_per_launch, want.dram_bytes_per_launch);
        assert_eq!(got.energy_j, want.energy_j);
        assert_eq!(got.fmax_mhz, want.fmax_mhz);
        assert_eq!(got.resources, want.resources);
        assert_eq!(got.build_log, want.build_log);

        let err = cp.lookup(&sample_err().config).expect("recorded");
        assert_eq!(
            err.result,
            Err(ClError::BuildProgramFailure("ALM 140%\nover".into()))
        );
        assert_eq!(err.config, sample_err().config, "lookup re-keys config");

        let other = KernelConfig::baseline(StreamOp::Scale, 1024);
        assert!(cp.lookup(&other).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_hook_fires_after_the_line_is_flushed() {
        let path = temp_path("hook");
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let cp = Checkpoint::create(&path).unwrap();
        let cp = {
            let (path, seen) = (path.clone(), std::sync::Arc::clone(&seen));
            cp.on_record(move || {
                let text = std::fs::read_to_string(&path).unwrap();
                seen.lock().unwrap().push(text.lines().count());
            })
        };
        cp.record(&sample_ok()).unwrap();
        cp.record(&sample_err()).unwrap();
        assert_eq!(
            *seen.lock().unwrap(),
            vec![1, 2],
            "each hook saw its own line"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_trailing_line_is_dropped() {
        let path = temp_path("corrupt");
        {
            let cp = Checkpoint::create(&path).unwrap();
            cp.record(&sample_ok()).unwrap();
        }
        // Simulate a mid-write kill: append half a record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"key\":\"half-writ").unwrap();
        }
        let cp = Checkpoint::resume(&path).unwrap();
        assert_eq!(cp.len(), 1, "good record kept, torn record dropped");
        assert!(cp.lookup(&sample_ok().config).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_missing_file_starts_empty_and_appends() {
        let path = temp_path("fresh");
        std::fs::remove_file(&path).ok();
        let cp = Checkpoint::resume(&path).unwrap();
        assert!(cp.is_empty());
        cp.record(&sample_err()).unwrap();
        drop(cp);
        let cp = Checkpoint::resume(&path).unwrap();
        assert_eq!(cp.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_truncates_previous_contents() {
        let path = temp_path("truncate");
        {
            let cp = Checkpoint::create(&path).unwrap();
            cp.record(&sample_ok()).unwrap();
        }
        {
            let _cp = Checkpoint::create(&path).unwrap();
        }
        let cp = Checkpoint::resume(&path).unwrap();
        assert!(cp.is_empty(), "create starts over");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_keys_keep_the_last_record() {
        let path = temp_path("dup");
        {
            let cp = Checkpoint::create(&path).unwrap();
            cp.record(&sample_err()).unwrap();
            let mut retried = sample_err();
            retried.result = Ok(Measurement::synthetic(9.0));
            retried.retries = 1;
            cp.record(&retried).unwrap();
        }
        let cp = Checkpoint::resume(&path).unwrap();
        assert_eq!(cp.len(), 1);
        let o = cp.lookup(&sample_err().config).unwrap();
        assert!(o.result.is_ok(), "later record wins");
        assert_eq!(o.retries, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_collapses_duplicates_and_torn_tail_to_clean_state() {
        let path = temp_path("compact");
        {
            let cp = Checkpoint::create(&path).unwrap();
            // An error record, plus two generations of the same
            // (device, config) point — a re-run that succeeded later.
            cp.record(&sample_err()).unwrap();
            cp.record(&sample_ok()).unwrap();
            let mut newer = sample_ok();
            newer.retries = 3;
            if let Ok(m) = &mut newer.result {
                m.best_wall_ns *= 2.0;
            }
            cp.record(&newer).unwrap();
        }
        // A torn tail from a mid-write kill.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"key\":\"torn").unwrap();
        }
        let stats = Checkpoint::compact(&path).unwrap();
        assert_eq!(stats.kept, 2, "one record per (device, config)");
        assert_eq!(stats.superseded, 1);
        assert_eq!(stats.corrupt, 1);

        // The compacted file is clean: every line parses, the latest
        // generation survived, and compacting again changes nothing.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(parse_record(line).is_some(), "clean record: {line}");
        }
        let cp = Checkpoint::resume(&path).unwrap();
        assert_eq!(cp.len(), 2);
        let o = cp.lookup(&sample_ok().config).unwrap();
        assert_eq!(o.retries, 3, "latest generation won");
        let e = cp.lookup(&sample_err().config).unwrap();
        assert!(e.result.is_err(), "unrelated error record survives");
        let again = Checkpoint::compact(&path).unwrap();
        assert_eq!(again.superseded, 0);
        assert_eq!(again.corrupt, 0);
        assert_eq!(again.kept, 2);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "idempotent");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_distinguishes_devices_with_the_same_config() {
        let path = temp_path("compact-dev");
        {
            let cp = Checkpoint::create(&path).unwrap();
            let mut a = sample_ok();
            if let Ok(m) = &mut a.result {
                m.device = "device-A".into();
            }
            let mut b = sample_ok();
            if let Ok(m) = &mut b.result {
                m.device = "device-B".into();
            }
            cp.record(&a).unwrap();
            cp.record(&b).unwrap();
        }
        let stats = Checkpoint::compact(&path).unwrap();
        assert_eq!(stats.kept, 2, "same config on two devices both survive");
        assert_eq!(stats.superseded, 0);
        std::fs::remove_file(&path).ok();
    }
}
