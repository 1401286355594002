//! Bandwidth units and the figures' array sizes.
//!
//! The paper mixes units: Figures 1, 2 and 4b report GB/s, Figures 3 and
//! 4a report KB/s (both decimal, 1 GB = 1e9 B, as STREAM does).

/// Convert GB/s to KB/s (the unit of Figures 3 and 4a).
pub fn gbps_to_kbps(gbps: f64) -> f64 {
    gbps * 1e6
}

/// The array sizes (bytes per array) swept in Figures 1a: 1 KiB to
/// 64 MiB in powers of four (nine points spanning the paper's
/// 0.001–100 MB axis).
pub fn fig1_sizes() -> Vec<u64> {
    (0..9).map(|i| 1024u64 << (2 * i)).collect()
}

/// The extended size sweep of Figure 2 (to ~1 GB).
pub fn fig2_sizes() -> Vec<u64> {
    (0..11).map(|i| 1024u64 << (2 * i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(gbps_to_kbps(2.5), 2.5e6);
    }

    #[test]
    fn size_sweeps() {
        let s = fig1_sizes();
        assert_eq!(s.len(), 9);
        assert_eq!(s[0], 1 << 10);
        assert_eq!(s[8], 64 << 20);
        let s2 = fig2_sizes();
        assert_eq!(s2.len(), 11);
        assert_eq!(s2[10], 1 << 30);
    }
}
