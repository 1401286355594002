//! A banked, multi-channel DRAM timing model.
//!
//! The model tracks, per channel, when the data bus is next free and the
//! direction of the last transfer (read/write turnaround costs idle bus
//! cycles), and per bank, the currently open row and when the bank can
//! accept its next column command. Sequential streams with good request
//! parallelism therefore saturate the data bus (peak bandwidth), while
//! dependent or row-thrashing streams degrade to command-latency rates —
//! exactly the distinction the MP-STREAM figures hinge on.
//!
//! Time inside the model is counted in cycles of the *effective data-rate
//! clock* ([`DramConfig::freq`]): one cycle moves
//! [`DramConfig::bus_bytes_per_cycle`] bytes on one channel. Peak
//! bandwidth is therefore `channels * bus_bytes_per_cycle * freq`.
//!
//! Address mapping is `row : bank : channel : offset` with channel
//! interleaving at [`DramConfig::interleave_bytes`] granularity, the usual
//! layout for spreading a sequential stream over all channels.

use crate::clock::Freq;
use crate::req::{Access, AccessKind};
use crate::stats::MemStats;

/// Static configuration of a DRAM device.
#[derive(Debug, Clone)]
pub struct DramConfig {
    /// Independent channels, each with its own data bus.
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row-buffer (open page) size per bank, bytes.
    pub row_bytes: u32,
    /// Bytes transferred per cycle of `freq` on one channel's data bus.
    pub bus_bytes_per_cycle: u32,
    /// Effective data-rate frequency (MT/s expressed as a [`Freq`]).
    pub freq: Freq,
    /// Column access (CAS) latency, cycles.
    pub t_cas: u64,
    /// Row-activate to column-command delay, cycles.
    pub t_rcd: u64,
    /// Row precharge time, cycles.
    pub t_rp: u64,
    /// Bus idle cycles inserted when the transfer direction flips.
    pub t_turnaround: u64,
    /// Fraction of time lost to refresh, e.g. `0.03` for 3 %.
    pub refresh_overhead: f64,
    /// Channel interleave granularity, bytes.
    pub interleave_bytes: u32,
}

impl DramConfig {
    /// Theoretical peak bandwidth in GB/s (1 GB = 1e9 bytes, as in STREAM).
    pub fn peak_gbps(&self) -> f64 {
        self.channels as f64 * self.bus_bytes_per_cycle as f64 * self.freq.as_mhz() * 1e6 / 1e9
    }

    /// 4-channel DDR3-1066-ish system: ~34 GB/s peak, matching the paper's
    /// Xeon E5-2609 v2 host ("34 GB/s Peak BW").
    pub fn ddr3_quad_channel() -> Self {
        DramConfig {
            channels: 4,
            banks_per_channel: 8,
            row_bytes: 8192,
            bus_bytes_per_cycle: 8,
            freq: Freq::mhz(1066.0),
            t_cas: 12,
            t_rcd: 12,
            t_rp: 12,
            t_turnaround: 5,
            refresh_overhead: 0.03,
            interleave_bytes: 256,
        }
    }

    /// GDDR5 on a 384-bit bus at 7 GT/s: 336 GB/s peak, matching the
    /// paper's GTX Titan Black.
    pub fn gddr5_titan() -> Self {
        DramConfig {
            channels: 12,
            banks_per_channel: 16,
            row_bytes: 2048,
            bus_bytes_per_cycle: 4,
            freq: Freq::mhz(7000.0),
            t_cas: 60,
            t_rcd: 60,
            t_rp: 60,
            t_turnaround: 16,
            refresh_overhead: 0.03,
            interleave_bytes: 256,
        }
    }

    /// Two-bank-of-DDR3 board memory: 25.6 GB/s peak, matching the
    /// Nallatech PCIe-385 (Stratix V, "25 GB/s Peak BW").
    pub fn ddr3_fpga_aocl() -> Self {
        DramConfig {
            channels: 2,
            banks_per_channel: 8,
            row_bytes: 8192,
            bus_bytes_per_cycle: 8,
            freq: Freq::mhz(1600.0),
            t_cas: 16,
            t_rcd: 16,
            t_rp: 16,
            t_turnaround: 10,
            refresh_overhead: 0.03,
            interleave_bytes: 512,
        }
    }

    /// Dual-channel DDR4-2133 as on Arria-10 dev boards (the "newer
    /// FPGA boards" the paper's future work points to): ~34 GB/s peak.
    pub fn ddr4_fpga_arria10() -> Self {
        DramConfig {
            channels: 2,
            banks_per_channel: 16,
            row_bytes: 8192,
            bus_bytes_per_cycle: 8,
            freq: Freq::mhz(2133.0),
            t_cas: 32,
            t_rcd: 32,
            t_rp: 32,
            t_turnaround: 12,
            refresh_overhead: 0.03,
            interleave_bytes: 512,
        }
    }

    /// A Hybrid Memory Cube stack as FPGA boards started shipping it
    /// (the paper's outlook: HMC "can change the picture considerably"):
    /// four half-width serial links into a 3D-stacked DRAM, ~60 GB/s
    /// usable. Many narrow pseudo-channels with small closed pages —
    /// high peak bandwidth *and* far better tolerance of irregular
    /// access than DDR3 (row misses barely cost anything).
    pub fn hmc_fpga() -> Self {
        DramConfig {
            channels: 16,
            banks_per_channel: 16,
            row_bytes: 256,
            bus_bytes_per_cycle: 4,
            freq: Freq::mhz(937.5),
            t_cas: 8,
            t_rcd: 8,
            t_rp: 4,
            t_turnaround: 2,
            refresh_overhead: 0.02,
            interleave_bytes: 128,
        }
    }

    /// Single-channel DDR3-1333: ~10.6 GB/s peak, matching the Alpha-Data
    /// ADM-PCIE-V7 board ("10 GB/s Peak BW").
    pub fn ddr3_fpga_sdaccel() -> Self {
        DramConfig {
            channels: 1,
            banks_per_channel: 8,
            row_bytes: 8192,
            bus_bytes_per_cycle: 8,
            freq: Freq::mhz(1333.0),
            t_cas: 13,
            t_rcd: 13,
            t_rp: 13,
            t_turnaround: 9,
            refresh_overhead: 0.03,
            interleave_bytes: 4096,
        }
    }
}

/// Per-bank dynamic state.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    /// Currently open row index, if any.
    open_row: Option<u64>,
    /// Cycle at which the bank can accept its next column command.
    ready_at: u64,
}

/// Per-channel dynamic state.
#[derive(Debug, Clone, Copy, Default)]
struct Channel {
    /// Cycle at which the data bus finishes its current burst.
    bus_free_at: u64,
    /// Direction of the last data transfer on this channel.
    last_kind: Option<AccessKind>,
}

/// The timed DRAM device. Create one per simulated board.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>, // channels * banks_per_channel
    channels: Vec<Channel>,
    stats: MemStats,
}

impl Dram {
    /// Build a DRAM with all banks precharged and buses idle.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.channels > 0 && cfg.banks_per_channel > 0);
        assert!(cfg.interleave_bytes > 0 && cfg.row_bytes > 0);
        let banks = vec![Bank::default(); (cfg.channels * cfg.banks_per_channel) as usize];
        let channels = vec![Channel::default(); cfg.channels as usize];
        Dram {
            cfg,
            banks,
            channels,
            stats: MemStats::new(),
        }
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Reset dynamic state and counters (a fresh run on the same device).
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            *b = Bank::default();
        }
        for c in &mut self.channels {
            *c = Channel::default();
        }
        self.stats = MemStats::new();
    }

    /// Clock-domain helper: convert a nanosecond timestamp into this
    /// DRAM's cycle domain.
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        self.cfg.freq.ns_to_cycles(ns)
    }

    /// Clock-domain helper: convert a cycle timestamp into nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        self.cfg.freq.cycles_to_ns(cycles)
    }

    /// Stretch a duration to account for refresh overhead.
    pub fn derate_ns(&self, ns: f64) -> f64 {
        ns / (1.0 - self.cfg.refresh_overhead)
    }

    /// Service a transaction issued at cycle `at`; returns `(start, done)`
    /// cycles. Transactions larger than the interleave granularity are
    /// split across channels and proceed in parallel; `done` is when the
    /// last chunk's data completes.
    pub fn service(&mut self, at: u64, acc: Access) -> (u64, u64) {
        let mut start_min = u64::MAX;
        let mut done_max = 0u64;
        let mut addr = acc.addr;
        let mut remaining = acc.bytes as u64;
        while remaining > 0 {
            let in_chunk = (self.cfg.interleave_bytes as u64
                - addr % self.cfg.interleave_bytes as u64)
                .min(remaining);
            let (s, d) = self.service_chunk(at, addr, in_chunk as u32, acc.kind);
            start_min = start_min.min(s);
            done_max = done_max.max(d);
            addr += in_chunk;
            remaining -= in_chunk;
        }
        (start_min, done_max)
    }

    /// Address mapping `row : bank : channel : offset` — returns
    /// `(channel index, global bank index, row number)`.
    fn map(&self, addr: u64) -> (usize, usize, u64) {
        let cfg = &self.cfg;
        let chan_idx = ((addr / cfg.interleave_bytes as u64) % cfg.channels as u64) as usize;
        // Channel-local byte address: collapse the interleave stripes.
        let stripe = addr / (cfg.interleave_bytes as u64 * cfg.channels as u64);
        let local = stripe * cfg.interleave_bytes as u64 + addr % cfg.interleave_bytes as u64;
        let bank_idx = ((local / cfg.row_bytes as u64) % cfg.banks_per_channel as u64) as usize;
        let row = local / (cfg.row_bytes as u64 * cfg.banks_per_channel as u64);
        (
            chan_idx,
            chan_idx * cfg.banks_per_channel as usize + bank_idx,
            row,
        )
    }

    /// Service one chunk that lives entirely within a single channel's
    /// interleave unit.
    fn service_chunk(&mut self, at: u64, addr: u64, bytes: u32, kind: AccessKind) -> (u64, u64) {
        let (chan_idx, global_bank, row) = self.map(addr);
        let cfg = &self.cfg;

        // Row-buffer outcome decides the command latency.
        let cmd_lat = match self.banks[global_bank].open_row {
            Some(r) if r == row => {
                self.stats.row_hits += 1;
                cfg.t_cas
            }
            Some(_) => {
                self.stats.row_misses += 1;
                cfg.t_rp + cfg.t_rcd + cfg.t_cas
            }
            None => {
                self.stats.row_empty += 1;
                cfg.t_rcd + cfg.t_cas
            }
        };

        let chan = &mut self.channels[chan_idx];
        let turnaround = match chan.last_kind {
            Some(k) if k != kind => {
                self.stats.bus_turnarounds += 1;
                cfg.t_turnaround
            }
            _ => 0,
        };

        // The column command can issue once the bank is ready; its data
        // needs the bus free (plus any direction change gap). Commands of
        // later transactions overlap with earlier data transfers, so a
        // row-hit stream keeps the bus 100 % occupied.
        let cmd_at = at.max(self.banks[global_bank].ready_at);
        let data_start = (cmd_at + cmd_lat).max(chan.bus_free_at + turnaround);
        let data_cycles = (bytes as u64).div_ceil(cfg.bus_bytes_per_cycle as u64);
        let done = data_start + data_cycles;

        chan.bus_free_at = done;
        chan.last_kind = Some(kind);
        self.banks[global_bank].open_row = Some(row);
        // Column commands pipeline: the next CAS to this bank may issue
        // one burst-length after this one's *effective* CAS slot, so a
        // row-hit stream keeps the data bus fully occupied.
        self.banks[global_bank].ready_at = (data_start + data_cycles).saturating_sub(cfg.t_cas);

        self.stats.dram_transactions += 1;
        self.stats.dram_bytes += bytes as u64;
        (data_start.saturating_sub(cmd_lat), done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DramConfig {
        DramConfig {
            channels: 1,
            banks_per_channel: 2,
            row_bytes: 1024,
            bus_bytes_per_cycle: 8,
            freq: Freq::mhz(1000.0),
            t_cas: 10,
            t_rcd: 10,
            t_rp: 10,
            t_turnaround: 6,
            refresh_overhead: 0.0,
            interleave_bytes: 256,
        }
    }

    #[test]
    fn peak_bandwidth_formula() {
        let cfg = DramConfig::ddr3_quad_channel();
        let peak = cfg.peak_gbps();
        assert!((peak - 34.1).abs() < 0.2, "peak {peak}");
        assert!((DramConfig::gddr5_titan().peak_gbps() - 336.0).abs() < 1.0);
        assert!((DramConfig::ddr3_fpga_aocl().peak_gbps() - 25.6).abs() < 0.2);
        assert!((DramConfig::ddr3_fpga_sdaccel().peak_gbps() - 10.66).abs() < 0.2);
    }

    #[test]
    fn first_access_pays_activate_plus_cas() {
        let mut d = Dram::new(small_cfg());
        let (_, done) = d.service(0, Access::read(0, 64));
        // t_rcd + t_cas + 64/8 data cycles.
        assert_eq!(done, 10 + 10 + 8);
        assert_eq!(d.stats().row_empty, 1);
    }

    #[test]
    fn row_hit_streams_back_to_back() {
        let mut d = Dram::new(small_cfg());
        let (_, d1) = d.service(0, Access::read(0, 64));
        let (_, d2) = d.service(0, Access::read(64, 64));
        // Second burst's command overlaps the first burst's data: the bus
        // never idles, so exactly 8 more data cycles.
        assert_eq!(d2 - d1, 8);
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn row_miss_pays_precharge() {
        let mut d = Dram::new(small_cfg());
        // Two rows on the same bank: rows alternate every
        // row_bytes * banks bytes within one channel.
        let row_stride = 1024 * 2; // row_bytes * banks_per_channel
        d.service(0, Access::read(0, 64));
        let before = d.stats().row_misses;
        d.service(0, Access::read(row_stride, 64));
        // Different bank actually — bank = (local/row) % banks. addr 2048
        // maps to bank 0 row 1, so it is a miss on bank 0? local=2048,
        // bank=(2048/1024)%2=0, row=2048/2048=1 → same bank, new row.
        assert_eq!(d.stats().row_misses, before + 1);
    }

    #[test]
    fn turnaround_counted_on_direction_flip() {
        let mut d = Dram::new(small_cfg());
        d.service(0, Access::read(0, 64));
        d.service(0, Access::write(64, 64));
        assert_eq!(d.stats().bus_turnarounds, 1);
        d.service(0, Access::write(128, 64));
        assert_eq!(d.stats().bus_turnarounds, 1);
    }

    #[test]
    fn saturated_stream_reaches_peak_bandwidth() {
        let cfg = small_cfg();
        let peak = cfg.peak_gbps();
        let mut d = Dram::new(cfg);
        // Issue a long sequential read stream, all available at t=0.
        let n = 4096u64;
        let mut done = 0;
        for i in 0..n {
            let (_, dn) = d.service(0, Access::read(i * 64, 64));
            done = done.max(dn);
        }
        let ns = d.cycles_to_ns(done);
        let gbps = (n * 64) as f64 / ns;
        // Sequential same-row bursts should land within 5 % of peak.
        assert!(gbps > 0.95 * peak, "gbps {gbps} vs peak {peak}");
    }

    #[test]
    fn strided_dependent_stream_is_much_slower() {
        let cfg = small_cfg();
        let mut d = Dram::new(cfg);
        // Strided reads, each issued only after the previous completes
        // (MLP = 1) and each hitting a new row on the same bank.
        let mut t = 0u64;
        let n = 256u64;
        for i in 0..n {
            let (_, done) = d.service(t, Access::read(i * 2048, 64));
            t = done;
        }
        let ns = d.cycles_to_ns(t);
        let gbps = (n * 64) as f64 / ns;
        assert!(gbps < 0.35 * d.config().peak_gbps(), "gbps {gbps}");
    }

    #[test]
    fn large_transaction_splits_across_channels() {
        let mut cfg = small_cfg();
        cfg.channels = 2;
        let mut d = Dram::new(cfg);
        // 1 KiB burst = 4 interleave chunks over 2 channels.
        d.service(0, Access::read(0, 1024));
        assert_eq!(d.stats().dram_transactions, 4);
        assert_eq!(d.stats().dram_bytes, 1024);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = Dram::new(small_cfg());
        d.service(0, Access::read(0, 64));
        d.reset();
        assert_eq!(d.stats().dram_transactions, 0);
        let (_, done) = d.service(0, Access::read(0, 64));
        assert_eq!(done, 28); // identical to a fresh device
    }

    #[test]
    fn derate_accounts_refresh() {
        let mut cfg = small_cfg();
        cfg.refresh_overhead = 0.05;
        let d = Dram::new(cfg);
        assert!((d.derate_ns(95.0) - 100.0).abs() < 1e-9);
    }
}
