//! Contexts and device memory objects.
//!
//! A [`Context`] owns a flat simulated device address space. [`Buffer`]s
//! are allocated out of it with a bump allocator (aligned generously, as
//! real runtimes do) and are *really backed by host memory* — lazily, on
//! first functional touch — so kernel launches can compute real results
//! for STREAM-style validation without timing-only runs paying for
//! gigabytes of zeroed pages.

use crate::error::ClError;
use crate::fault::FaultPlan;
use crate::platform::Device;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

static NEXT_CTX_ID: AtomicU64 = AtomicU64::new(1);

/// Buffer allocation alignment (a page, as GPU/FPGA allocators use).
pub const BUFFER_ALIGN: u64 = 4096;

/// OpenCL-style memory flags (access intent; the simulator does not
/// enforce read-only from kernels, matching how most runtimes behave).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFlags {
    /// `CL_MEM_READ_ONLY` — kernel reads only.
    ReadOnly,
    /// `CL_MEM_WRITE_ONLY` — kernel writes only.
    WriteOnly,
    /// `CL_MEM_READ_WRITE`.
    ReadWrite,
}

#[derive(Debug, Default)]
struct Alloc {
    len: u64,
    /// Backing bytes; `None` until first functional access.
    data: Option<Vec<u8>>,
}

#[derive(Debug, Default)]
struct MemSpace {
    next: u64,
    used: u64,
    allocs: HashMap<u64, Alloc>,
}

struct CtxInner {
    device: Device,
    mem: Mutex<MemSpace>,
    id: u64,
    faults: Option<Arc<FaultPlan>>,
}

/// An OpenCL-style context for one device.
#[derive(Clone)]
pub struct Context {
    inner: Arc<CtxInner>,
}

impl Context {
    /// Create a context on `device`.
    pub fn new(device: Device) -> Self {
        Context::with_faults(device, None)
    }

    /// Create a context on `device` with an optional fault-injection
    /// plan; builds and enqueues through this context consult the plan.
    pub fn with_faults(device: Device, faults: Option<Arc<FaultPlan>>) -> Self {
        Context {
            inner: Arc::new(CtxInner {
                device,
                mem: Mutex::new(MemSpace {
                    next: BUFFER_ALIGN,
                    ..Default::default()
                }),
                id: NEXT_CTX_ID.fetch_add(1, Ordering::Relaxed),
                faults,
            }),
        }
    }

    /// The device this context was created on.
    pub fn device(&self) -> &Device {
        &self.inner.device
    }

    /// The fault-injection plan active on this context, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.inner.faults.as_ref()
    }

    /// Stable identity (used to reject cross-context object mixing).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Bytes currently allocated to buffers.
    pub fn allocated_bytes(&self) -> u64 {
        self.inner.mem.lock().expect("mpcl mutex poisoned").used
    }

    fn alloc(&self, len: u64) -> Result<u64, ClError> {
        let limit = self.inner.device.info().global_mem_bytes;
        if len == 0 {
            return Err(ClError::InvalidBufferSize {
                requested: 0,
                limit,
            });
        }
        let mut mem = self.inner.mem.lock().expect("mpcl mutex poisoned");
        if mem.used + len > limit {
            return Err(ClError::InvalidBufferSize {
                requested: len,
                limit,
            });
        }
        let base = mem.next;
        let span = len.div_ceil(BUFFER_ALIGN) * BUFFER_ALIGN;
        mem.next += span;
        mem.used += len;
        mem.allocs.insert(base, Alloc { len, data: None });
        Ok(base)
    }

    fn free(&self, base: u64) {
        let mut mem = self.inner.mem.lock().expect("mpcl mutex poisoned");
        if let Some(a) = mem.allocs.remove(&base) {
            mem.used -= a.len;
        }
    }

    /// Copy `data` into device memory at `base` (host→device transfer's
    /// functional half).
    pub(crate) fn write_bytes(&self, base: u64, data: &[u8]) {
        let mut mem = self.inner.mem.lock().expect("mpcl mutex poisoned");
        let alloc = mem.allocs.get_mut(&base).expect("write to freed buffer");
        let store = alloc
            .data
            .get_or_insert_with(|| vec![0; alloc.len as usize]);
        store[..data.len()].copy_from_slice(data);
    }

    /// Copy device memory at `base` out to `out`.
    pub(crate) fn read_bytes(&self, base: u64, out: &mut [u8]) {
        let mut mem = self.inner.mem.lock().expect("mpcl mutex poisoned");
        let alloc = mem.allocs.get_mut(&base).expect("read from freed buffer");
        let store = alloc
            .data
            .get_or_insert_with(|| vec![0; alloc.len as usize]);
        out.copy_from_slice(&store[..out.len()]);
    }

    /// Flip the low bit of the byte at `offset` within the allocation at
    /// `base` — the functional half of an injected memory fault. The
    /// allocation materializes (zeroed) if it was never written.
    pub(crate) fn flip_bit(&self, base: u64, offset: u64) {
        let mut mem = self.inner.mem.lock().expect("mpcl mutex poisoned");
        let alloc = mem.allocs.get_mut(&base).expect("flip in freed buffer");
        let len = alloc.len as usize;
        let store = alloc.data.get_or_insert_with(|| vec![0; len]);
        store[(offset as usize).min(len - 1)] ^= 1;
    }

    /// Execute `f` with the destination buffer's bytes mutably and the
    /// two source buffers immutably (sources materialize zeroed if never
    /// written). Used by kernel launches for functional execution.
    pub(crate) fn with_kernel_memory(
        &self,
        base_a: u64,
        base_b: u64,
        base_c: Option<u64>,
        f: impl FnOnce(&mut [u8], &[u8], &[u8]),
    ) {
        let mut mem = self.inner.mem.lock().expect("mpcl mutex poisoned");
        // Materialize every participant first.
        for base in [Some(base_a), Some(base_b), base_c].into_iter().flatten() {
            let alloc = mem.allocs.get_mut(&base).expect("kernel arg freed");
            let len = alloc.len as usize;
            alloc.data.get_or_insert_with(|| vec![0; len]);
        }
        // Take the destination out so sources can be borrowed shared.
        let mut a = mem
            .allocs
            .get_mut(&base_a)
            .expect("dest freed")
            .data
            .take()
            .expect("materialized above");
        {
            let b = mem.allocs[&base_b].data.as_deref().expect("materialized");
            let c = base_c
                .map(|bc| mem.allocs[&bc].data.as_deref().expect("materialized"))
                .unwrap_or(&[]);
            f(&mut a, b, c);
        }
        mem.allocs.get_mut(&base_a).expect("dest freed").data = Some(a);
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("device", &self.inner.device.info().name)
            .field("id", &self.inner.id)
            .finish()
    }
}

/// A device memory object.
///
/// Dropping the buffer frees its device allocation (like
/// `clReleaseMemObject` with no outstanding references).
#[derive(Debug)]
pub struct Buffer {
    ctx: Context,
    base: u64,
    len: u64,
    flags: MemFlags,
}

impl Buffer {
    /// Allocate `len` bytes on the context's device.
    pub fn new(ctx: &Context, flags: MemFlags, len: u64) -> Result<Self, ClError> {
        let base = ctx.alloc(len)?;
        Ok(Buffer {
            ctx: ctx.clone(),
            base,
            len,
            flags,
        })
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Buffers are never zero-sized (allocation rejects it).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Device base address (used by execution plans).
    pub fn device_addr(&self) -> u64 {
        self.base
    }

    /// Access flags.
    pub fn flags(&self) -> MemFlags {
        self.flags
    }

    /// The owning context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        self.ctx.free(self.base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::test_support::fake_device;

    fn ctx() -> Context {
        Context::new(fake_device())
    }

    #[test]
    fn alloc_and_addresses_are_aligned_and_disjoint() {
        let c = ctx();
        let b1 = Buffer::new(&c, MemFlags::ReadOnly, 100).unwrap();
        let b2 = Buffer::new(&c, MemFlags::ReadWrite, 100).unwrap();
        assert_eq!(b1.device_addr() % BUFFER_ALIGN, 0);
        assert_eq!(b2.device_addr() % BUFFER_ALIGN, 0);
        assert!(b2.device_addr() >= b1.device_addr() + BUFFER_ALIGN);
    }

    #[test]
    fn zero_sized_buffer_rejected() {
        let c = ctx();
        assert!(matches!(
            Buffer::new(&c, MemFlags::ReadOnly, 0),
            Err(ClError::InvalidBufferSize { .. })
        ));
    }

    #[test]
    fn over_capacity_rejected() {
        let c = ctx(); // fake device has 1 GiB
        assert!(Buffer::new(&c, MemFlags::ReadOnly, 2 << 30).is_err());
    }

    #[test]
    fn capacity_tracks_frees() {
        let c = ctx();
        {
            let _b = Buffer::new(&c, MemFlags::ReadOnly, 512 << 20).unwrap();
            assert_eq!(c.allocated_bytes(), 512 << 20);
            assert!(Buffer::new(&c, MemFlags::ReadOnly, 768 << 20).is_err());
        }
        assert_eq!(c.allocated_bytes(), 0);
        assert!(Buffer::new(&c, MemFlags::ReadOnly, 768 << 20).is_ok());
    }

    #[test]
    fn write_then_read_round_trips() {
        let c = ctx();
        let b = Buffer::new(&c, MemFlags::ReadWrite, 8).unwrap();
        c.write_bytes(b.device_addr(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut out = [0u8; 8];
        c.read_bytes(b.device_addr(), &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn unwritten_buffer_reads_zeroes() {
        let c = ctx();
        let b = Buffer::new(&c, MemFlags::ReadOnly, 4).unwrap();
        let mut out = [9u8; 4];
        c.read_bytes(b.device_addr(), &mut out);
        assert_eq!(out, [0; 4]);
    }

    #[test]
    fn kernel_memory_split_borrow() {
        let c = ctx();
        let a = Buffer::new(&c, MemFlags::WriteOnly, 4).unwrap();
        let b = Buffer::new(&c, MemFlags::ReadOnly, 4).unwrap();
        c.write_bytes(b.device_addr(), &[10, 20, 30, 40]);
        c.with_kernel_memory(a.device_addr(), b.device_addr(), None, |da, db, dc| {
            assert!(dc.is_empty());
            da.copy_from_slice(db);
        });
        let mut out = [0u8; 4];
        c.read_bytes(a.device_addr(), &mut out);
        assert_eq!(out, [10, 20, 30, 40]);
    }
}
