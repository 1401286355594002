//! Shared parsing for the `MPSTREAM_*` environment knobs.
//!
//! Several layers read the same environment conventions — the engine's
//! worker-count, fault-seed and retry defaults, the canonical-trace
//! switch the CLI, the figure harness and cluster workers read, the
//! daemon's API key — and each used to carry its own copy of the
//! trim/parse/validate/warn dance. This module is the single parsing
//! path, so an invalid value warns identically (and exactly once per
//! variable per process) no matter which layer reads it first, and a
//! typo can never silently change behaviour.

use std::collections::BTreeSet;
use std::str::FromStr;
use std::sync::Mutex;

/// Warn on stderr the first time `var` is reported invalid; repeated
/// reads of the same broken variable stay quiet so a sweep does not
/// spray one warning per worker.
fn warn_once(var: &str, msg: &str) {
    static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let mut warned = match WARNED.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if warned.insert(var.to_string()) {
        eprintln!("{msg}");
    }
}

/// `var` parsed with `FromStr` after trimming. `None` when unset or
/// unparseable — for knobs where an invalid value is silently ignored
/// (seeds, retry budgets).
pub fn parsed<T: FromStr>(var: &str) -> Option<T> {
    std::env::var(var).ok().and_then(|v| v.trim().parse().ok())
}

/// `var` parsed as a positive integer (>= 1). Returns `None` when the
/// variable is unset *or* invalid; an invalid value (zero, negative,
/// non-numeric) additionally warns once per variable on stderr, naming
/// `fallback` so the user can see what takes effect instead.
pub fn positive_or_warn(var: &str, fallback: &str) -> Option<usize> {
    let v = std::env::var(var).ok()?;
    match v.trim().parse::<usize>().ok().filter(|n| *n >= 1) {
        Some(n) => Some(n),
        None => {
            warn_once(
                var,
                &format!(
                    "warning: ignoring invalid {var}={v:?} \
                     (expected a positive integer); using {fallback}"
                ),
            );
            None
        }
    }
}

/// Is `var` set to the literal `"1"`? The convention every boolean
/// `MPSTREAM_*` switch uses (e.g. `MPSTREAM_TRACE_CANONICAL`).
pub fn flag_enabled(var: &str) -> bool {
    std::env::var(var).map(|v| v == "1").unwrap_or(false)
}

/// `var` as a trimmed non-empty string. `None` when unset, empty, or
/// whitespace — for path/name knobs where "" means "not configured".
pub fn string(var: &str) -> Option<String> {
    std::env::var(var)
        .ok()
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test owns a unique variable name: the process environment is
    // global and cargo runs tests concurrently.

    #[test]
    fn positive_or_warn_accepts_only_positive_integers() {
        let var = "MPSTREAM_TEST_ENV_POSITIVE";
        assert_eq!(positive_or_warn(var, "x"), None, "unset");
        std::env::set_var(var, " 8 ");
        assert_eq!(positive_or_warn(var, "x"), Some(8));
        for bad in ["0", "abc", "", "-2", "1.5"] {
            std::env::set_var(var, bad);
            assert_eq!(positive_or_warn(var, "x"), None, "{bad:?} is invalid");
        }
        std::env::remove_var(var);
    }

    #[test]
    fn parsed_trims_and_rejects_garbage() {
        let var = "MPSTREAM_TEST_ENV_PARSED";
        assert_eq!(parsed::<u64>(var), None);
        std::env::set_var(var, " 42 ");
        assert_eq!(parsed::<u64>(var), Some(42));
        std::env::set_var(var, "many");
        assert_eq!(parsed::<u64>(var), None);
        std::env::remove_var(var);
    }

    #[test]
    fn string_trims_and_drops_empty() {
        let var = "MPSTREAM_TEST_ENV_STRING";
        assert_eq!(string(var), None);
        std::env::set_var(var, "  /tmp/tenants.jsonl ");
        assert_eq!(string(var).as_deref(), Some("/tmp/tenants.jsonl"));
        std::env::set_var(var, "   ");
        assert_eq!(string(var), None, "whitespace-only reads as unset");
        std::env::remove_var(var);
    }

    #[test]
    fn flag_enabled_requires_the_literal_one() {
        let var = "MPSTREAM_TEST_ENV_FLAG";
        assert!(!flag_enabled(var));
        std::env::set_var(var, "1");
        assert!(flag_enabled(var));
        std::env::set_var(var, "true");
        assert!(!flag_enabled(var), "only \"1\" enables");
        std::env::remove_var(var);
    }
}
