//! Workload shapes, the benchmark kernel, and the job plan a seed expands
//! into. Everything here is a pure function of `(workload, seed)`.

use mtgpu_gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu_gpusim::{GpuError, KernelArg, KernelDesc};
use mtgpu_simtime::DetRng;
use mtgpu_workloads::{short_pool, AppKind};
use std::sync::Arc;

/// Name of the benchmark kernel (see [`apply`]).
pub const KERNEL: &str = "mtbench_mix";
/// Real bytes carried per buffer; the declared size is far larger.
pub const SHADOW_BYTES: usize = 512;
/// Table 2 kernel-call counts are divided by this, rounded up, so one pass
/// of ~1000 jobs stays at a few wall seconds.
pub const KERNEL_CALL_DIVISOR: u64 = 16;
/// A plan is run in this many passes, each on a fresh node and each over
/// an equal share of every slot's jobs. Shorter passes give a run more
/// independent samples of the host-side state a node settles into.
pub const SEGMENTS: usize = 3;
/// Buffers per job: two read-only inputs, then one written output.
pub const BUFS: usize = 3;
const MIB: u64 = 1 << 20;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process channel connections, every footprint fits: no swaps.
    Share,
    /// In-process channel connections, footprints ~2x device memory.
    Oversub,
    /// `Share`'s call stream over one persistent TCP mux connection.
    Mux,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "share" => Some(Workload::Share),
            "oversub" => Some(Workload::Oversub),
            "mux" => Some(Workload::Mux),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Share => "share",
            Workload::Oversub => "oversub",
            Workload::Mux => "mux",
        }
    }

    /// The node and tenant shape. Nine tenant slots on twelve vGPUs: live
    /// tenants never outnumber vGPUs, so no launch waits for a binding
    /// (a bind wait would block the single calling thread).
    pub fn shape(self) -> Shape {
        // 64 MiB test devices with four 4 MiB vGPU contexts leave 48 MiB.
        // `share`: 3 x 3 MiB per tenant, so even four tenants on one device
        // fit. `oversub`: 3 x 11 MiB per tenant, nine tenants = 297 MiB
        // against 144 MiB usable. All buffers share one size so that any
        // co-tenant holding memory covers a failed allocation (see the
        // README on the victim-size fault).
        let buf_bytes = match self {
            Workload::Share | Workload::Mux => 3 * MIB,
            Workload::Oversub => 11 * MIB,
        };
        Shape { devices: 3, vgpus_per_device: 4, slots: 9, jobs_per_slot: 120, buf_bytes }
    }
}

/// Node and tenant shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub devices: usize,
    pub vgpus_per_device: u32,
    pub slots: usize,
    pub jobs_per_slot: usize,
    pub buf_bytes: u64,
}

/// One kernel launch of a job.
#[derive(Debug, Clone, Copy)]
pub struct Launch {
    pub x: u8,
    pub flops: f64,
}

/// One tenant job: connect, register, allocate, upload, launch, download,
/// free, exit.
#[derive(Debug, Clone)]
pub struct Job {
    pub kind: AppKind,
    /// Initial contents of the buffers (inputs 0 and 1, output 2).
    pub init: [Vec<u8>; BUFS],
    pub launches: Vec<Launch>,
    /// The host model's prediction of every buffer after the launches.
    pub expected: [Vec<u8>; BUFS],
}

/// Every job of every tenant slot.
#[derive(Debug)]
pub struct Plan {
    pub workload: Workload,
    pub shape: Shape,
    pub seed: u64,
    pub slots: Vec<Vec<Job>>,
}

impl Plan {
    /// Expands `seed` into the workload's jobs. Each slot draws program
    /// kinds from Table 2's short pool as a shuffled deck (every kind once
    /// per ten jobs), so the mix is the same for every seed and only the
    /// order, the data, the scalars and the kernel sizes vary.
    pub fn build(workload: Workload, seed: u64) -> Plan {
        let shape = workload.shape();
        let root = DetRng::from_seed(seed);
        let pool = short_pool();
        let slots = (0..shape.slots)
            .map(|slot| {
                let mut rng = root.fork(&format!("slot-{slot}"));
                let mut deck: Vec<AppKind> = Vec::new();
                (0..shape.jobs_per_slot)
                    .map(|_| {
                        if deck.is_empty() {
                            deck = pool.clone();
                            shuffle(&mut deck, &mut rng);
                        }
                        let kind = deck.pop().expect("deck refilled above");
                        job(kind, &mut rng)
                    })
                    .collect()
            })
            .collect();
        Plan { workload, shape, seed, slots }
    }

    /// Jobs across all slots.
    pub fn job_count(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Slot `slot`'s jobs in segment `seg` (`0..SEGMENTS`).
    pub fn segment(&self, slot: usize, seg: usize) -> &[Job] {
        let per = self.shape.jobs_per_slot / SEGMENTS;
        &self.slots[slot][seg * per..(seg + 1) * per]
    }

    /// Flips one expected byte, so the output check must fail.
    pub fn corrupt_model(&mut self) {
        self.slots[0][0].expected[BUFS - 1][0] ^= 0x5a;
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut DetRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

fn job(kind: AppKind, rng: &mut DetRng) -> Job {
    let mut bytes = || (0..SHADOW_BYTES).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>();
    let init = [bytes(), bytes(), bytes()];
    let n = kind.kernel_calls().div_ceil(KERNEL_CALL_DIVISOR);
    let launches: Vec<Launch> = (0..n)
        .map(|_| Launch { x: rng.next_u64() as u8, flops: 1e7 + rng.below(90_000_000) as f64 })
        .collect();
    let mut expected = init.clone();
    for l in &launches {
        let [a, b, out] = &mut expected;
        apply(out, a, b, l.x);
    }
    Job { kind, init, launches, expected }
}

/// The kernel's function, shared by the device payload and the host model:
/// `out = rotl(out, 3) ^ a ^ (b + x)`, bytewise.
pub fn apply(out: &mut [u8], a: &[u8], b: &[u8], x: u8) {
    for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
        *o = o.rotate_left(3) ^ a ^ b.wrapping_add(x);
    }
}

/// The descriptor tenants register: arguments 0 and 1 are read-only, so
/// those buffers stay clean and an eviction skips their writeback.
pub fn kernel_desc() -> KernelDesc {
    KernelDesc::plain(KERNEL).with_read_only_args(vec![0, 1])
}

/// Registers the kernel's payload in the process-global library
/// (idempotent).
pub fn register_kernel() {
    library::register(RegisteredKernel {
        desc: kernel_desc(),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let (a, b, out, x, len) = match exec.args() {
                [KernelArg::Ptr(a), KernelArg::Ptr(b), KernelArg::Ptr(o), KernelArg::Scalar(x), KernelArg::Scalar(len)] => {
                    (*a, *b, *o, *x as u8, *len)
                }
                other => {
                    return Err(GpuError::LaunchFailed(format!("{KERNEL}: bad args {other:?}")))
                }
            };
            let mut in_a = Vec::new();
            exec.with_bytes_mut(a, len, &mut |bytes| in_a.extend_from_slice(bytes))?;
            let mut in_b = Vec::new();
            exec.with_bytes_mut(b, len, &mut |bytes| in_b.extend_from_slice(bytes))?;
            exec.with_bytes_mut(out, len, &mut |bytes| apply(bytes, &in_a, &in_b, x))
        })),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_function_of_the_seed() {
        let a = Plan::build(Workload::Share, 7);
        let b = Plan::build(Workload::Share, 7);
        let c = Plan::build(Workload::Share, 8);
        let digest = |p: &Plan| {
            p.slots
                .iter()
                .flatten()
                .map(|j| (j.kind, j.launches.len(), j.expected.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn every_segment_draws_the_same_mix() {
        let p = Plan::build(Workload::Oversub, 3);
        let launches: Vec<usize> = (0..p.slots.len())
            .flat_map(|slot| (0..SEGMENTS).map(move |seg| (slot, seg)))
            .map(|(slot, seg)| p.segment(slot, seg).iter().map(|j| j.launches.len()).sum())
            .collect();
        assert!(launches.windows(2).all(|w| w[0] == w[1]), "{launches:?}");
    }
}
