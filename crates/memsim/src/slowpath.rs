//! The `MPSTREAM_SIM_SLOW` oracle switch.
//!
//! The target layer's stream pipelines, the hierarchy engine and the
//! target layer's two simulation memos all ship a fast path whose
//! contract is *byte-identical output* to the original per-request
//! implementation. Setting `MPSTREAM_SIM_SLOW=1` routes every simulation
//! through the original code and disables both memos, turning the slow
//! path into a reference oracle the equivalence suite (and any
//! suspicious user) can diff the fast path against.
//!
//! This crate never reads the switch itself: `targets::common::run_plan`
//! reads it once per simulation and picks the pipeline, the engine
//! ([`MemHierarchy::run`](crate::MemHierarchy::run) or
//! [`MemHierarchy::run_reference`](crate::MemHierarchy::run_reference))
//! and the stream memo together; the per-plan kernel-cost memo reads it
//! to bypass itself.
//!
//! The environment is read once; tests can override the mode at runtime
//! with [`force`] to compare both paths inside one process.

use std::sync::atomic::{AtomicU8, Ordering};

const UNSET: u8 = 0;
const FAST: u8 = 1;
const SLOW: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(UNSET);

/// Is the per-request reference path selected? First call latches the
/// `MPSTREAM_SIM_SLOW` environment variable (the literal `"1"` enables,
/// matching every other boolean `MPSTREAM_*` switch).
pub fn slow() -> bool {
    match MODE.load(Ordering::Relaxed) {
        SLOW => true,
        FAST => false,
        _ => {
            let slow = std::env::var("MPSTREAM_SIM_SLOW")
                .map(|v| v == "1")
                .unwrap_or(false);
            MODE.store(if slow { SLOW } else { FAST }, Ordering::Relaxed);
            slow
        }
    }
}

/// Force the mode for the rest of the process (overrides the
/// environment). Used by the equivalence tests to exercise both paths in
/// one process.
pub fn force(slow: bool) {
    MODE.store(if slow { SLOW } else { FAST }, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_overrides_and_latches() {
        force(true);
        assert!(slow());
        force(false);
        assert!(!slow());
    }
}
