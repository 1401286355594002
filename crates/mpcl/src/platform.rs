//! Platform and device enumeration.

use crate::backend::{DeviceBackend, DeviceInfo};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

static NEXT_DEVICE_ID: AtomicU64 = AtomicU64::new(1);

/// A handle to a simulated device. Cheap to clone; all clones share the
/// same backend state (as OpenCL device handles do).
#[derive(Clone)]
pub struct Device {
    backend: Arc<Mutex<Box<dyn DeviceBackend>>>,
    info: DeviceInfo,
    id: u64,
}

impl Device {
    /// Wrap a backend model as a device.
    pub fn new(backend: Box<dyn DeviceBackend>) -> Self {
        let info = backend.info();
        Device {
            backend: Arc::new(Mutex::new(backend)),
            info,
            id: NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Static device description (cached at wrap time).
    pub fn info(&self) -> &DeviceInfo {
        &self.info
    }

    /// Stable identity (used to reject cross-context mixing).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Run `f` with exclusive access to the backend model.
    pub(crate) fn with_backend<R>(&self, f: impl FnOnce(&mut dyn DeviceBackend) -> R) -> R {
        let mut guard = self.backend.lock().expect("mpcl mutex poisoned");
        f(guard.as_mut())
    }

    /// The device's board power model, if the backend provides one.
    pub fn power_model(&self) -> Option<crate::backend::PowerModel> {
        self.backend
            .lock()
            .expect("mpcl mutex poisoned")
            .power_model()
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("name", &self.info.name)
            .field("id", &self.id)
            .finish()
    }
}

/// An OpenCL platform: a vendor runtime exposing devices.
#[derive(Debug)]
pub struct Platform {
    name: String,
    vendor: String,
    version: String,
    devices: Vec<Device>,
}

impl Platform {
    /// Assemble a platform from devices.
    pub fn new(
        name: impl Into<String>,
        vendor: impl Into<String>,
        version: impl Into<String>,
        devices: Vec<Device>,
    ) -> Self {
        Platform {
            name: name.into(),
            vendor: vendor.into(),
            version: version.into(),
            devices,
        }
    }

    /// Platform name (e.g. `"Intel(R) OpenCL"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Vendor string.
    pub fn vendor(&self) -> &str {
        &self.vendor
    }

    /// OpenCL version string.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// Devices exposed by this platform.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::backend::{BuildArtifact, DeviceType, KernelCost};
    use crate::error::ClError;
    use kernelgen::{ExecPlan, KernelConfig};

    /// A trivial backend for runtime tests: fixed 1 GB/s kernel rate,
    /// 1 µs launch overhead, 10 GB/s link.
    pub struct FakeBackend {
        pub fail_build: bool,
    }

    impl DeviceBackend for FakeBackend {
        fn info(&self) -> DeviceInfo {
            DeviceInfo {
                name: "Fake Device".into(),
                vendor: "MP-STREAM tests".into(),
                device_type: DeviceType::Accelerator,
                global_mem_bytes: 1 << 30,
                peak_gbps: 1.0,
                max_compute_units: 1,
                max_work_group_size: 256,
            }
        }

        fn build(&mut self, _cfg: &KernelConfig) -> Result<BuildArtifact, ClError> {
            if self.fail_build {
                Err(ClError::BuildProgramFailure("synthetic failure".into()))
            } else {
                Ok(BuildArtifact {
                    synthesis_ns: 2_500.0,
                    ..BuildArtifact::simple(1)
                })
            }
        }

        fn kernel_cost(&mut self, _artifact: &BuildArtifact, plan: &ExecPlan) -> KernelCost {
            // 1 byte/ns = 1 GB/s; traffic equals payload exactly.
            KernelCost {
                ns: plan.cfg.bytes_moved() as f64,
                dram_bytes: plan.cfg.bytes_moved(),
                stats: memsim::MemStats {
                    dram_bytes: plan.cfg.bytes_moved(),
                    row_hits: 3,
                    row_misses: 1,
                    ..Default::default()
                },
                stall_ns: 0.0,
            }
        }

        fn transfer_ns(&mut self, bytes: u64) -> f64 {
            bytes as f64 / 10.0
        }

        fn launch_overhead_ns(&self) -> f64 {
            1000.0
        }
    }

    /// A fake device handle.
    pub fn fake_device() -> Device {
        Device::new(Box::new(FakeBackend { fail_build: false }))
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn device_info_cached() {
        let d = fake_device();
        assert_eq!(d.info().name, "Fake Device");
        assert_eq!(d.info().max_work_group_size, 256);
    }

    #[test]
    fn device_ids_unique() {
        assert_ne!(fake_device().id(), fake_device().id());
    }

    #[test]
    fn clones_share_identity() {
        let d = fake_device();
        assert_eq!(d.id(), d.clone().id());
    }

    #[test]
    fn platform_lists_its_devices() {
        let p = Platform::new("Fake", "Tests", "OpenCL 1.2", vec![fake_device()]);
        assert_eq!(p.devices().len(), 1);
        assert_eq!(p.name(), "Fake");
    }
}
