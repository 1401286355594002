//! Deterministic, seeded fault injection.
//!
//! Real DSE campaigns on FPGA toolchains fight transient faults
//! constantly: the synthesis tool crashes or loses its license server,
//! boards drop off the bus after reconfiguration, watchdogs kill hung
//! enqueues, and DRAM occasionally flips a bit that only verification
//! catches. A [`FaultPlan`] reproduces that weather on the simulated
//! devices so the execution layers above can be *tested* against it.
//!
//! Determinism is the whole point. Every injection decision is a pure
//! function of `(seed, site, operation key, attempt number)` — computed
//! with the same SplitMix64 finalizer the in-tree RNG uses — so a sweep
//! at `jobs=8` injects exactly the faults the `jobs=1` run injects, and
//! a retried operation re-rolls with a fresh attempt number (which is
//! what makes retries able to succeed). No global RNG stream exists to
//! be perturbed by thread interleaving.
//!
//! Threading: a plan is created once (per engine / CLI invocation) and
//! shared via `Arc` by [`Context::with_faults`](crate::Context); the
//! build path ([`Program`](crate::Program)) and the command queue
//! consult it at their injection sites.

use crate::error::ClError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-site injection probabilities, each in `[0, 1)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability a program build fails transiently
    /// ([`ClError::TransientBuildFailure`]).
    pub build: f64,
    /// Probability a kernel enqueue times out ([`ClError::Timeout`]).
    pub timeout: f64,
    /// Probability a kernel enqueue loses the device
    /// ([`ClError::DeviceLost`]).
    pub device_lost: f64,
    /// Probability a kernel launch flips one bit in the destination
    /// array — caught only by STREAM-style verification.
    pub bit_flip: f64,
}

impl FaultSpec {
    /// Parse a spec like `build=0.2,timeout=0.1,lost=0.05,bitflip=0.01`.
    /// Site names: `build`, `timeout`, `lost` (alias `device_lost`),
    /// `bitflip` (alias `bit_flip`). Omitted sites default to 0.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let (name, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec part '{part}' is not name=probability"))?;
            let p: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("invalid probability '{value}' in '{part}'"))?;
            if !(0.0..1.0).contains(&p) {
                return Err(format!("probability {p} in '{part}' must be in [0, 1)"));
            }
            match name.trim() {
                "build" => spec.build = p,
                "timeout" => spec.timeout = p,
                "lost" | "device_lost" => spec.device_lost = p,
                "bitflip" | "bit_flip" => spec.bit_flip = p,
                other => return Err(format!("unknown fault site '{other}'")),
            }
        }
        Ok(spec)
    }

    /// No fault has a nonzero probability.
    pub fn is_zero(&self) -> bool {
        self.build <= 0.0 && self.timeout <= 0.0 && self.device_lost <= 0.0 && self.bit_flip <= 0.0
    }

    fn prob(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::Build => self.build,
            FaultSite::Timeout => self.timeout,
            FaultSite::DeviceLost => self.device_lost,
            FaultSite::BitFlip => self.bit_flip,
        }
    }
}

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Program build / FPGA synthesis.
    Build,
    /// Kernel enqueue deadline.
    Timeout,
    /// Kernel enqueue device drop-out.
    DeviceLost,
    /// Destination-array bit flip during a kernel launch.
    BitFlip,
}

impl FaultSite {
    #[cfg(test)]
    const ALL: [FaultSite; 4] = [
        FaultSite::Build,
        FaultSite::Timeout,
        FaultSite::DeviceLost,
        FaultSite::BitFlip,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::Build => 0,
            FaultSite::Timeout => 1,
            FaultSite::DeviceLost => 2,
            FaultSite::BitFlip => 3,
        }
    }

    /// Per-site salt so the same key rolls independently per site.
    fn salt(self) -> u64 {
        [
            0xB1D0_5EED_0000_0001,
            0xB1D0_5EED_0000_0002,
            0xB1D0_5EED_0000_0003,
            0xB1D0_5EED_0000_0004,
        ][self.index()]
    }
}

/// How many faults a plan has injected, per site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Transient build failures injected.
    pub build: u64,
    /// Enqueue timeouts injected.
    pub timeout: u64,
    /// Device-lost faults injected.
    pub device_lost: u64,
    /// Bit flips injected.
    pub bit_flip: u64,
}

impl FaultCounters {
    /// Total injections across all sites.
    pub fn total(&self) -> u64 {
        self.build + self.timeout + self.device_lost + self.bit_flip
    }

    /// Counter difference since an earlier snapshot (for per-sweep
    /// reporting on a long-lived plan).
    pub fn since(&self, earlier: FaultCounters) -> FaultCounters {
        FaultCounters {
            build: self.build.saturating_sub(earlier.build),
            timeout: self.timeout.saturating_sub(earlier.timeout),
            device_lost: self.device_lost.saturating_sub(earlier.device_lost),
            bit_flip: self.bit_flip.saturating_sub(earlier.bit_flip),
        }
    }
}

/// A seeded fault-injection plan shared by contexts, builds and queues.
#[derive(Debug, Default)]
pub struct FaultPlan {
    spec: FaultSpec,
    seed: u64,
    /// Attempt counters per `(site, key hash)`: the n-th roll of the
    /// same operation gets a fresh deterministic draw, so retries can
    /// succeed and `jobs=1` vs `jobs=8` runs roll identically (each
    /// operation's rolls happen sequentially inside its own worker).
    attempts: Mutex<HashMap<(FaultSite, u64), u64>>,
    injected: [AtomicU64; 4],
}

impl FaultPlan {
    /// A plan injecting per `spec`, deterministically driven by `seed`.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        FaultPlan {
            spec,
            seed,
            ..Default::default()
        }
    }

    /// The injection probabilities.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// The seed driving every decision.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Injection counts so far.
    pub fn counters(&self) -> FaultCounters {
        let get = |s: FaultSite| self.injected[s.index()].load(Ordering::Relaxed);
        FaultCounters {
            build: get(FaultSite::Build),
            timeout: get(FaultSite::Timeout),
            device_lost: get(FaultSite::DeviceLost),
            bit_flip: get(FaultSite::BitFlip),
        }
    }

    /// Roll `site` for operation `key`; on a hit, returns the draw's
    /// residual entropy (used e.g. to pick the flipped byte).
    fn draw(&self, site: FaultSite, key: &str) -> Option<u64> {
        let p = self.spec.prob(site);
        if p <= 0.0 {
            return None;
        }
        let kh = fnv1a(key.as_bytes());
        let attempt = {
            let mut attempts = self.attempts.lock().expect("mpcl mutex poisoned");
            let n = attempts.entry((site, kh)).or_insert(0);
            *n += 1;
            *n
        };
        let h = mix64(
            self.seed
                .wrapping_add(mix64(kh ^ site.salt()))
                .wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if unit < p {
            self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
            Some(mix64(h))
        } else {
            None
        }
    }

    /// Build-site injection: `Some(TransientBuildFailure)` when the
    /// synthesis tool "crashes" on this attempt.
    pub fn inject_build_failure(&self, key: &str) -> Option<ClError> {
        self.draw(FaultSite::Build, key).map(|_| {
            ClError::TransientBuildFailure(
                "injected fault: synthesis tool terminated unexpectedly".into(),
            )
        })
    }

    /// Enqueue-site injection: a device-lost or timeout fault for this
    /// kernel launch, if either rolls a hit (device-lost wins ties —
    /// it is the harder failure).
    pub fn inject_enqueue_fault(&self, key: &str) -> Option<ClError> {
        // Roll both sites so their attempt counters advance in lock-step
        // regardless of which one fires.
        let lost = self.draw(FaultSite::DeviceLost, key).is_some();
        let timeout = self.draw(FaultSite::Timeout, key).is_some();
        if lost {
            Some(ClError::DeviceLost)
        } else if timeout {
            Some(ClError::Timeout(
                "injected fault: enqueue exceeded watchdog deadline".into(),
            ))
        } else {
            None
        }
    }

    /// Verification-site injection: `Some(byte offset)` into a
    /// `len`-byte destination array when this launch flips a bit.
    pub fn inject_bit_flip(&self, key: &str, len: u64) -> Option<u64> {
        if len == 0 {
            return None;
        }
        self.draw(FaultSite::BitFlip, key).map(|h| h % len)
    }
}

/// FNV-1a over the operation key, so attempt counters hash strings once.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01B3);
    }
    h
}

/// The SplitMix64 finalizer (same constants as the in-tree
/// `mpstream_core::rng::SplitMix64`), used here as a stateless mixer.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec_and_aliases() {
        let s = FaultSpec::parse("build=0.2,timeout=0.1,lost=0.05,bitflip=0.01").unwrap();
        assert_eq!(s.build, 0.2);
        assert_eq!(s.timeout, 0.1);
        assert_eq!(s.device_lost, 0.05);
        assert_eq!(s.bit_flip, 0.01);
        let s = FaultSpec::parse("device_lost=0.3,bit_flip=0.2").unwrap();
        assert_eq!(s.device_lost, 0.3);
        assert_eq!(s.bit_flip, 0.2);
        assert!(FaultSpec::parse("").unwrap().is_zero());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultSpec::parse("build").is_err());
        assert!(FaultSpec::parse("build=x").is_err());
        assert!(FaultSpec::parse("build=1.5").is_err());
        assert!(FaultSpec::parse("build=-0.1").is_err());
        assert!(FaultSpec::parse("warp=0.1").is_err());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let spec = FaultSpec::parse("build=0.5").unwrap();
        let rolls = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(spec, seed);
            (0..64)
                .map(|i| plan.inject_build_failure(&format!("cfg-{i}")).is_some())
                .collect()
        };
        assert_eq!(rolls(42), rolls(42), "same seed, same decisions");
        assert_ne!(rolls(42), rolls(43), "seeds diverge");
    }

    #[test]
    fn decision_order_between_keys_does_not_matter() {
        let spec = FaultSpec::parse("build=0.5").unwrap();
        let a = FaultPlan::new(spec, 7);
        let b = FaultPlan::new(spec, 7);
        let keys: Vec<String> = (0..32).map(|i| format!("cfg-{i}")).collect();
        let forward: Vec<bool> = keys
            .iter()
            .map(|k| a.inject_build_failure(k).is_some())
            .collect();
        let mut reverse: Vec<bool> = keys
            .iter()
            .rev()
            .map(|k| b.inject_build_failure(k).is_some())
            .collect();
        reverse.reverse();
        assert_eq!(forward, reverse, "per-key decisions are order-free");
    }

    #[test]
    fn retries_reroll_and_eventually_succeed() {
        let spec = FaultSpec::parse("build=0.5").unwrap();
        let plan = FaultPlan::new(spec, 3);
        // With p = 0.5 some attempt in the first dozen must pass.
        let cleared = (0..12).any(|_| plan.inject_build_failure("same-key").is_none());
        assert!(cleared, "independent per-attempt draws");
    }

    #[test]
    fn rates_are_roughly_calibrated() {
        let spec = FaultSpec::parse("timeout=0.2").unwrap();
        let plan = FaultPlan::new(spec, 11);
        let n = 2000;
        let mut hits = 0;
        for i in 0..n {
            if plan.inject_enqueue_fault(&format!("k{i}")).is_some() {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((0.15..0.25).contains(&rate), "rate {rate}");
        assert_eq!(plan.counters().timeout, hits);
        assert_eq!(plan.counters().device_lost, 0);
    }

    #[test]
    fn bit_flip_offset_is_in_bounds_and_counted() {
        let spec = FaultSpec::parse("bitflip=0.9").unwrap();
        let plan = FaultPlan::new(spec, 5);
        let mut flips = 0;
        for i in 0..100 {
            if let Some(off) = plan.inject_bit_flip(&format!("k{i}"), 4096) {
                assert!(off < 4096);
                flips += 1;
            }
        }
        assert!(flips > 50);
        assert_eq!(plan.counters().bit_flip, flips);
        assert_eq!(plan.counters().total(), flips);
        assert_eq!(plan.inject_bit_flip("k0", 0), None, "empty array");
    }

    #[test]
    fn zero_spec_never_injects_and_counts_nothing() {
        let plan = FaultPlan::new(FaultSpec::default(), 9);
        for i in 0..100 {
            let k = format!("k{i}");
            assert!(plan.inject_build_failure(&k).is_none());
            assert!(plan.inject_enqueue_fault(&k).is_none());
            assert!(plan.inject_bit_flip(&k, 64).is_none());
        }
        assert_eq!(plan.counters(), FaultCounters::default());
    }

    #[test]
    fn sites_roll_independently() {
        // Site salts differ, so the same key/seed must not fail every
        // site in lock-step.
        let spec = FaultSpec::parse("build=0.5,timeout=0.5,lost=0.5,bitflip=0.5").unwrap();
        let plan = FaultPlan::new(spec, 1);
        let mut patterns = std::collections::HashSet::new();
        for i in 0..64 {
            let k = format!("k{i}");
            let pattern = FaultSite::ALL.map(|s| plan.draw(s, &k).is_some());
            patterns.insert(pattern);
        }
        assert!(patterns.len() > 2, "sites decorrelated: {patterns:?}");
    }
}
