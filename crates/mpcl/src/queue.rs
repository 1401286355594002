//! In-order command queues with a simulated nanosecond timeline.
//!
//! Every enqueue advances the queue's clock by what the device model says
//! the command costs, and returns an [`Event`] carrying OpenCL-style
//! profiling timestamps. `MP-STREAM` computes bandwidth from
//! `CL_PROFILING_COMMAND_START`/`END` of the kernel event, and so does
//! the benchmark runner here.

use crate::context::{Buffer, Context};
use crate::error::ClError;
use crate::program::Kernel;
use std::sync::Arc;
use std::sync::Mutex;

/// Fixed driver-side cost of moving a command from "queued" to
/// "submitted" (host driver work, not device-visible).
const SUBMIT_NS: f64 = 300.0;

/// Profiling timestamps of one command, in simulated nanoseconds since
/// queue creation (OpenCL's queued/submit/start/end).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// `CL_PROFILING_COMMAND_QUEUED`.
    pub queued_ns: f64,
    /// `CL_PROFILING_COMMAND_SUBMIT`.
    pub submit_ns: f64,
    /// `CL_PROFILING_COMMAND_START`.
    pub start_ns: f64,
    /// `CL_PROFILING_COMMAND_END`.
    pub end_ns: f64,
    /// Device DRAM traffic attributed to this command, bytes (kernel
    /// launches report the model's bus traffic including waste; buffer
    /// transfers report their payload).
    pub dram_bytes: u64,
    /// DRAM transactions that hit an open row (kernel launches only).
    pub row_hits: u64,
    /// DRAM transactions that closed + opened a row (kernel launches
    /// only).
    pub row_misses: u64,
    /// DRAM transactions that found the bank idle (kernel launches
    /// only).
    pub row_empty: u64,
    /// Channel/pipe stall time within this command, ns (two-stage
    /// kernel launches only; included in the START..END interval).
    pub stall_ns: f64,
}

impl Event {
    /// Device execution time (`END - START`), ns.
    pub fn duration_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }

    /// Wall time including queueing and launch overhead
    /// (`END - QUEUED`) — what a host-side timer around the enqueue+wait
    /// would see; this is the time MP-STREAM divides bytes by.
    pub fn wall_ns(&self) -> f64 {
        self.end_ns - self.queued_ns
    }
}

/// What kind of command a log record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    /// `clEnqueueWriteBuffer`.
    Write,
    /// `clEnqueueReadBuffer`.
    Read,
    /// `clEnqueueNDRangeKernel`.
    Kernel,
}

impl CmdKind {
    /// Stable lower-case name, used as the trace span name.
    pub fn name(self) -> &'static str {
        match self {
            CmdKind::Write => "write",
            CmdKind::Read => "read",
            CmdKind::Kernel => "kernel",
        }
    }
}

/// One entry of the queue's command log: everything the queue clock saw,
/// including commands whose `Event` was never returned to the caller
/// because a fault fired after the device had already spent the time
/// (`aborted`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmdRecord {
    /// Command kind.
    pub kind: CmdKind,
    /// Profiling timestamps.
    pub event: Event,
    /// The command consumed device time but failed to complete from the
    /// host's point of view (fault-injected timeout).
    pub aborted: bool,
}

/// An in-order command queue on one context.
#[derive(Clone)]
pub struct CommandQueue {
    ctx: Context,
    now_ns: Arc<Mutex<f64>>,
    log: Arc<Mutex<Vec<CmdRecord>>>,
    functional: bool,
}

impl CommandQueue {
    /// Create a profiling-enabled queue.
    pub fn new(ctx: &Context) -> Self {
        CommandQueue {
            ctx: ctx.clone(),
            now_ns: Arc::new(Mutex::new(0.0)),
            log: Arc::new(Mutex::new(Vec::new())),
            functional: true,
        }
    }

    /// Create a queue that skips functional execution (timing-only runs
    /// for very large arrays; results cannot be validated).
    pub fn new_timing_only(ctx: &Context) -> Self {
        CommandQueue {
            ctx: ctx.clone(),
            now_ns: Arc::new(Mutex::new(0.0)),
            log: Arc::new(Mutex::new(Vec::new())),
            functional: false,
        }
    }

    /// Drain the command log: every command the queue executed so far,
    /// in order, including aborted ones. The log is cleared.
    pub fn take_log(&self) -> Vec<CmdRecord> {
        std::mem::take(&mut *self.log.lock().expect("mpcl mutex poisoned"))
    }

    /// Current simulated time, ns (everything enqueued has completed —
    /// the queue is in-order and synchronous, i.e. `clFinish` semantics).
    pub fn now_ns(&self) -> f64 {
        *self.now_ns.lock().expect("mpcl mutex poisoned")
    }

    /// The queue's context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    fn check_same_ctx(&self, buf: &Buffer) -> Result<(), ClError> {
        if buf.context().id() != self.ctx.id() {
            Err(ClError::InvalidContext)
        } else {
            Ok(())
        }
    }

    /// Host→device transfer (`clEnqueueWriteBuffer`): `data` must match
    /// the buffer's size.
    pub fn enqueue_write(&self, buf: &Buffer, data: &[u8]) -> Result<Event, ClError> {
        self.check_same_ctx(buf)?;
        if data.len() as u64 != buf.len() {
            return Err(ClError::InvalidValue(format!(
                "host data {} bytes, buffer {} bytes",
                data.len(),
                buf.len()
            )));
        }
        let ns = self.ctx.device().with_backend(|b| b.transfer_ns(buf.len()));
        if self.functional {
            self.ctx.write_bytes(buf.device_addr(), data);
        }
        Ok(self.advance(CmdKind::Write, ns, buf.len()))
    }

    /// Device→host transfer (`clEnqueueReadBuffer`).
    pub fn enqueue_read(&self, buf: &Buffer, out: &mut [u8]) -> Result<Event, ClError> {
        self.check_same_ctx(buf)?;
        if out.len() as u64 != buf.len() {
            return Err(ClError::InvalidValue(format!(
                "host sink {} bytes, buffer {} bytes",
                out.len(),
                buf.len()
            )));
        }
        let ns = self.ctx.device().with_backend(|b| b.transfer_ns(buf.len()));
        if self.functional {
            self.ctx.read_bytes(buf.device_addr(), out);
        }
        Ok(self.advance(CmdKind::Read, ns, buf.len()))
    }

    /// Kernel launch (`clEnqueueNDRangeKernel`): times the kernel on the
    /// device model and (unless timing-only) executes it functionally.
    pub fn enqueue_kernel(&self, kernel: &Kernel) -> Result<Event, ClError> {
        if kernel.program().context().id() != self.ctx.id() {
            return Err(ClError::InvalidContext);
        }
        let plan = kernel.plan();
        // Fault plan: the launch may be lost or time out.
        let fault_key = self.ctx.fault_plan().map(|fp| {
            (
                Arc::clone(fp),
                format!("{}:{:?}", self.ctx.device().info().name, plan.cfg),
            )
        });
        let injected = fault_key
            .as_ref()
            .and_then(|(plan_fp, key)| plan_fp.inject_enqueue_fault(key));
        if let Some(e @ ClError::DeviceLost) = injected {
            // The device vanished before running anything: no profiling
            // timestamps exist for this command.
            return Err(e);
        }
        let (launch, cost) = self.ctx.device().with_backend(|b| {
            (
                b.launch_overhead_ns(),
                b.kernel_cost(kernel.program().artifact(), plan),
            )
        });
        let rows = [
            cost.stats.row_hits,
            cost.stats.row_misses,
            cost.stats.row_empty,
        ];
        if let Some(e) = injected {
            // Timeout: the device spent the full launch+kernel time but
            // the host gave up waiting. Keep the partial profiling record
            // in the command log (flagged `aborted`) instead of dropping
            // the timestamps on the floor.
            self.advance_full(
                CmdKind::Kernel,
                launch,
                cost.ns,
                cost.dram_bytes,
                rows,
                cost.stall_ns,
                true,
            );
            return Err(e);
        }
        if self.functional {
            let base_c = plan.cfg.op.uses_c().then_some(plan.base_c);
            self.ctx
                .with_kernel_memory(plan.base_a, plan.base_b, base_c, |a, b, c| {
                    kernelgen::execute(&plan.cfg, a, b, c);
                });
            // Silent data corruption: flip one bit in the destination
            // after the launch, for STREAM verification to catch.
            // Timing-only queues have no data to corrupt.
            if let Some((plan_fp, key)) = &fault_key {
                if let Some(off) = plan_fp.inject_bit_flip(key, plan.cfg.array_bytes()) {
                    self.ctx.flip_bit(plan.base_a, off);
                }
            }
        }
        Ok(self.advance_full(
            CmdKind::Kernel,
            launch,
            cost.ns,
            cost.dram_bytes,
            rows,
            cost.stall_ns,
            false,
        ))
    }

    /// Block until all enqueued commands complete (`clFinish`). The
    /// simulated queue is synchronous, so this just reports the time.
    pub fn finish(&self) -> f64 {
        self.now_ns()
    }

    /// Advance the clock by a buffer transfer (no launch overhead).
    fn advance(&self, kind: CmdKind, duration_ns: f64, dram_bytes: u64) -> Event {
        self.advance_full(kind, 0.0, duration_ns, dram_bytes, [0; 3], 0.0, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn advance_full(
        &self,
        kind: CmdKind,
        launch_ns: f64,
        duration_ns: f64,
        dram_bytes: u64,
        rows: [u64; 3],
        stall_ns: f64,
        aborted: bool,
    ) -> Event {
        let mut now = self.now_ns.lock().expect("mpcl mutex poisoned");
        let queued = *now;
        let submit = queued + SUBMIT_NS;
        let start = submit + launch_ns;
        let end = start + duration_ns;
        *now = end;
        let event = Event {
            queued_ns: queued,
            submit_ns: submit,
            start_ns: start,
            end_ns: end,
            dram_bytes,
            row_hits: rows[0],
            row_misses: rows[1],
            row_empty: rows[2],
            stall_ns,
        };
        self.log
            .lock()
            .expect("mpcl mutex poisoned")
            .push(CmdRecord {
                kind,
                event,
                aborted,
            });
        event
    }
}

impl std::fmt::Debug for CommandQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommandQueue")
            .field("device", &self.ctx.device().info().name)
            .field("now_ns", &self.now_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::MemFlags;
    use crate::platform::test_support::fake_device;
    use crate::program::Program;
    use kernelgen::{KernelConfig, StreamOp};

    fn setup() -> (Context, CommandQueue) {
        let ctx = Context::new(fake_device());
        let q = CommandQueue::new(&ctx);
        (ctx, q)
    }

    #[test]
    fn write_read_round_trip_with_timing() {
        let (ctx, q) = setup();
        let buf = Buffer::new(&ctx, MemFlags::ReadWrite, 4).unwrap();
        let ev = q.enqueue_write(&buf, &[1, 2, 3, 4]).unwrap();
        assert!(ev.end_ns > ev.queued_ns);
        let mut out = [0u8; 4];
        let ev2 = q.enqueue_read(&buf, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
        assert!(ev2.queued_ns >= ev.end_ns, "in-order queue");
    }

    #[test]
    fn size_mismatch_rejected() {
        let (ctx, q) = setup();
        let buf = Buffer::new(&ctx, MemFlags::ReadWrite, 4).unwrap();
        assert!(matches!(
            q.enqueue_write(&buf, &[1, 2]),
            Err(ClError::InvalidValue(_))
        ));
        let mut out = [0u8; 8];
        assert!(matches!(
            q.enqueue_read(&buf, &mut out),
            Err(ClError::InvalidValue(_))
        ));
    }

    #[test]
    fn kernel_executes_functionally_and_advances_clock() {
        let (ctx, q) = setup();
        let n = 1024u64;
        let cfg = KernelConfig::baseline(StreamOp::Scale, n);
        let p = Program::build(&ctx, cfg).unwrap();
        let a = Buffer::new(&ctx, MemFlags::WriteOnly, n * 4).unwrap();
        let b = Buffer::new(&ctx, MemFlags::ReadOnly, n * 4).unwrap();

        let host_b: Vec<u8> = (0..n).flat_map(|i| (i as i32).to_ne_bytes()).collect();
        q.enqueue_write(&b, &host_b).unwrap();

        let k = Kernel::new(&p, &a, &b, None).unwrap();
        let ev = q.enqueue_kernel(&k).unwrap();
        // Fake backend: 1 byte per ns over bytes_moved = 2 * 4096.
        assert!((ev.duration_ns() - 8192.0).abs() < 1e-9);
        // Launch overhead = 1000 ns in the fake backend.
        assert!((ev.start_ns - ev.submit_ns - 1000.0).abs() < 1e-9);

        let mut out = vec![0u8; (n * 4) as usize];
        q.enqueue_read(&a, &mut out).unwrap();
        let third = i32::from_ne_bytes(out[12..16].try_into().unwrap());
        assert_eq!(third, 9, "a[3] = 3 * b[3]");
    }

    #[test]
    fn timing_only_queue_skips_execution() {
        let ctx = Context::new(fake_device());
        let q = CommandQueue::new_timing_only(&ctx);
        let cfg = KernelConfig::baseline(StreamOp::Copy, 256);
        let p = Program::build(&ctx, cfg).unwrap();
        let a = Buffer::new(&ctx, MemFlags::WriteOnly, 1024).unwrap();
        let b = Buffer::new(&ctx, MemFlags::ReadOnly, 1024).unwrap();
        let k = Kernel::new(&p, &a, &b, None).unwrap();
        let ev = q.enqueue_kernel(&k).unwrap();
        assert!(ev.duration_ns() > 0.0);
        // Nothing was materialized: buffers read back as zeroes via a
        // functional queue on the same context.
        let q2 = CommandQueue::new(&ctx);
        let mut out = vec![0xFFu8; 1024];
        q2.enqueue_read(&a, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn events_are_monotone() {
        let (ctx, q) = setup();
        let buf = Buffer::new(&ctx, MemFlags::ReadWrite, 16).unwrap();
        let mut last_end = 0.0;
        for _ in 0..5 {
            let ev = q.enqueue_write(&buf, &[0u8; 16]).unwrap();
            assert!(ev.queued_ns >= last_end);
            assert!(ev.queued_ns <= ev.submit_ns);
            assert!(ev.submit_ns <= ev.start_ns);
            assert!(ev.start_ns <= ev.end_ns);
            last_end = ev.end_ns;
        }
        assert_eq!(q.finish(), last_end);
    }

    #[test]
    fn cross_context_objects_rejected() {
        let (ctx1, q1) = setup();
        let ctx2 = Context::new(fake_device());
        let buf2 = Buffer::new(&ctx2, MemFlags::ReadWrite, 4).unwrap();
        assert_eq!(
            q1.enqueue_write(&buf2, &[0u8; 4]).unwrap_err(),
            ClError::InvalidContext
        );
        let cfg = KernelConfig::baseline(StreamOp::Copy, 256);
        let p2 = Program::build(&ctx2, cfg).unwrap();
        let a2 = Buffer::new(&ctx2, MemFlags::WriteOnly, 1024).unwrap();
        let b2 = Buffer::new(&ctx2, MemFlags::ReadOnly, 1024).unwrap();
        let k2 = Kernel::new(&p2, &a2, &b2, None).unwrap();
        assert_eq!(q1.enqueue_kernel(&k2).unwrap_err(), ClError::InvalidContext);
        let _ = ctx1;
    }

    #[test]
    fn command_log_records_every_command_in_order() {
        let (ctx, q) = setup();
        let n = 256u64;
        let cfg = KernelConfig::baseline(StreamOp::Copy, n);
        let p = Program::build(&ctx, cfg).unwrap();
        let a = Buffer::new(&ctx, MemFlags::WriteOnly, n * 4).unwrap();
        let b = Buffer::new(&ctx, MemFlags::ReadOnly, n * 4).unwrap();
        q.enqueue_write(&b, &vec![0u8; (n * 4) as usize]).unwrap();
        let k = Kernel::new(&p, &a, &b, None).unwrap();
        q.enqueue_kernel(&k).unwrap();
        let mut out = vec![0u8; (n * 4) as usize];
        q.enqueue_read(&a, &mut out).unwrap();

        let log = q.take_log();
        let kinds: Vec<CmdKind> = log.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [CmdKind::Write, CmdKind::Kernel, CmdKind::Read]);
        assert!(log.iter().all(|r| !r.aborted));
        // take_log drains.
        assert!(q.take_log().is_empty());
    }

    #[test]
    fn injected_timeout_logs_aborted_record_with_timestamps() {
        // Regression: the profiling timestamps of a timed-out launch used
        // to be computed and then dropped; they must survive in the log
        // with the `aborted` flag so traces can show the lost time.
        use crate::fault::{FaultPlan, FaultSpec};
        let plan = Arc::new(FaultPlan::new(FaultSpec::parse("timeout=0.95").unwrap(), 7));
        let ctx = Context::with_faults(fake_device(), Some(plan));
        let q = CommandQueue::new(&ctx);
        let cfg = KernelConfig::baseline(StreamOp::Copy, 256);
        let p = Program::build(&ctx, cfg).unwrap();
        let a = Buffer::new(&ctx, MemFlags::WriteOnly, 1024).unwrap();
        let b = Buffer::new(&ctx, MemFlags::ReadOnly, 1024).unwrap();
        let k = Kernel::new(&p, &a, &b, None).unwrap();

        // At 95% per attempt one of the first launches times out.
        let timed_out = (0..20).any(|_| matches!(q.enqueue_kernel(&k), Err(ClError::Timeout(_))));
        assert!(timed_out, "no timeout in 20 draws at p=0.95");
        let log = q.take_log();
        let rec = log
            .iter()
            .find(|r| r.aborted)
            .expect("timed-out launch must be logged with the aborted flag");
        assert_eq!(rec.kind, CmdKind::Kernel);
        // The device spent real (simulated) time before the host gave up.
        assert!(rec.event.duration_ns() > 0.0);
        assert!(rec.event.start_ns > rec.event.submit_ns);
        // The in-order queue clock moved past every aborted command.
        assert_eq!(q.now_ns(), log.last().unwrap().event.end_ns);
    }

    #[test]
    fn injected_device_loss_leaves_no_record() {
        use crate::fault::{FaultPlan, FaultSpec};
        let plan = Arc::new(FaultPlan::new(FaultSpec::parse("lost=0.95").unwrap(), 7));
        let ctx = Context::with_faults(fake_device(), Some(plan));
        let q = CommandQueue::new(&ctx);
        let cfg = KernelConfig::baseline(StreamOp::Copy, 256);
        let p = Program::build(&ctx, cfg).unwrap();
        let a = Buffer::new(&ctx, MemFlags::WriteOnly, 1024).unwrap();
        let b = Buffer::new(&ctx, MemFlags::ReadOnly, 1024).unwrap();
        let k = Kernel::new(&p, &a, &b, None).unwrap();
        let lost = (0..20).any(|_| matches!(q.enqueue_kernel(&k), Err(ClError::DeviceLost)));
        assert!(lost, "no device loss in 20 draws at p=0.95");
        // Lost launches never reach the device: only completed launches
        // (if any) appear in the log, none flagged aborted.
        assert!(q.take_log().iter().all(|r| !r.aborted));
    }

    #[test]
    fn wall_time_includes_overheads() {
        let (ctx, q) = setup();
        let cfg = KernelConfig::baseline(StreamOp::Copy, 256);
        let p = Program::build(&ctx, cfg).unwrap();
        let a = Buffer::new(&ctx, MemFlags::WriteOnly, 1024).unwrap();
        let b = Buffer::new(&ctx, MemFlags::ReadOnly, 1024).unwrap();
        let k = Kernel::new(&p, &a, &b, None).unwrap();
        let ev = q.enqueue_kernel(&k).unwrap();
        assert!(ev.wall_ns() > ev.duration_ns());
        assert!((ev.wall_ns() - (300.0 + 1000.0 + ev.duration_ns())).abs() < 1e-9);
    }
}
