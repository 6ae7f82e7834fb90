//! One pass: start a node, drive every job of the plan from this thread,
//! check the outputs, stop the node.
//!
//! Calls are interleaved round-robin across tenant slots, one call at a
//! time, on a virtual clock. Each slot runs its jobs back to back; a job is
//! one connection (one runtime context). Between rounds the monitor runs
//! synchronously. Because nothing else moves the clock and only one call is
//! in flight, every virtual-time figure and every counter of a pass is a
//! pure function of the plan.

use crate::plan::{self, Job, Plan, Workload, BUFS, KERNEL, SHADOW_BYTES};
use crate::probe::{Probe, ProbedConn, ProbedService, ProbedTransport};
use crate::procfs::{self, Sched};
use crate::stats::percentile;
use mtgpu_api::protocol::{AllocKind, ModuleHandle};
use mtgpu_api::transport::{spawn_reactor, MuxService, ReactorConfig, ReactorHandle, ReplySink};
use mtgpu_api::{
    channel_pair, BareClient, CudaCall, CudaClient, FrontendClient, HostBuf, MuxConnection,
    ReplyValue,
};
use mtgpu_core::{MetricsSnapshot, MuxGateway, MuxGatewayHandle, NodeRuntime, RuntimeConfig};
use mtgpu_gpusim::{DeviceAddr, Driver, GpuSpec, KernelArg, LaunchConfig, LaunchSpec, Work};
use mtgpu_simtime::{Clock, SimInstant};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A started node: runtime, devices and, on `mux`, the reactor, gateway
/// and the one client connection every tenant channel shares.
pub struct Node {
    clock: Clock,
    driver: Arc<Driver>,
    rt: Arc<NodeRuntime>,
    mux: Option<MuxParts>,
    /// The shared probe of the mux path (traced passes only).
    mux_probe: Option<Arc<Probe>>,
}

struct MuxParts {
    conn: MuxConnection,
    reactor: ReactorHandle,
    workers: MuxGatewayHandle,
}

fn devices(plan: &Plan) -> Vec<GpuSpec> {
    vec![GpuSpec::test_small(); plan.shape.devices]
}

impl Node {
    /// Starts a node for `plan` and returns it with its set-up time: node
    /// start, plus reactor, gateway and connection on `mux`, and kernel
    /// registration, up to the first call.
    pub fn start(plan: &Plan, traced: bool) -> Result<(Node, Duration), String> {
        let t0 = Instant::now();
        plan::register_kernel();
        let clock = Clock::virtual_clock();
        let driver = Driver::with_devices(clock.clone(), devices(plan));
        let cfg = RuntimeConfig::default()
            .with_vgpus(plan.shape.vgpus_per_device)
            .with_seed(plan.seed)
            .with_background_monitor(false);
        let rt = NodeRuntime::start(Arc::clone(&driver), cfg);
        let mut mux_probe = None;
        let mux = if plan.workload == Workload::Mux {
            let (sink, queue) = ReplySink::channel();
            let (gateway, workers) = MuxGateway::start(Arc::clone(&rt), sink);
            let service: Arc<dyn MuxService> = if traced {
                let probe = Probe::new();
                mux_probe = Some(Arc::clone(&probe));
                Arc::new(ProbedService::new(gateway, probe))
            } else {
                gateway
            };
            let listener =
                TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
            let reactor = spawn_reactor(listener, ReactorConfig::default(), service, queue)
                .map_err(|e| format!("spawn reactor: {e}"))?;
            let conn = MuxConnection::connect(reactor.addr())
                .map_err(|e| format!("connect to reactor: {e}"))?;
            Some(MuxParts { conn, reactor, workers })
        } else {
            None
        };
        Ok((Node { clock, driver, rt, mux, mux_probe }, t0.elapsed()))
    }

    /// Opens one tenant connection: a mux channel, or a channel pair
    /// served by `NodeRuntime::connect` (the path `local_client()` takes).
    fn connect(&self, traced: bool) -> (Box<dyn CudaClient>, Option<Arc<Probe>>) {
        if let Some(m) = &self.mux {
            let chan = m.conn.channel();
            return match &self.mux_probe {
                Some(p) => (
                    Box::new(FrontendClient::new(ProbedTransport::new(chan, Arc::clone(p)))),
                    Some(Arc::clone(p)),
                ),
                None => (Box::new(FrontendClient::new(chan)), None),
            };
        }
        let (transport, server) = channel_pair();
        if traced {
            let probe = Probe::new();
            let conn = Box::new(ProbedConn::new(server, Arc::clone(&probe)));
            self.rt.connect(conn);
            let client = FrontendClient::new(ProbedTransport::new(transport, Arc::clone(&probe)));
            (Box::new(client), Some(probe))
        } else {
            self.rt.connect(Box::new(server));
            (Box::new(FrontendClient::new(transport)), None)
        }
    }

    /// Stops every thread the node started.
    pub fn stop(self) {
        if let Some(m) = self.mux {
            m.conn.shutdown();
            m.reactor.shutdown();
            m.workers.shutdown();
        }
        self.rt.shutdown();
    }
}

/// What drives the jobs: the runtime, or the bare CUDA baseline straight
/// onto the devices.
enum Target<'n> {
    Node(&'n Node),
    Bare { driver: Arc<Driver>, clock: Clock },
}

impl Target<'_> {
    fn clock(&self) -> &Clock {
        match self {
            Target::Node(n) => &n.clock,
            Target::Bare { clock, .. } => clock,
        }
    }
}

/// Counters of a finished pass, read from the runtime and the devices.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub snap: MetricsSnapshot,
    pub kernels: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub failed_allocs: u64,
    pub compute_busy_ns: u64,
}

/// Per-layer measurements of a traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    pub hop_in_ns: Vec<u64>,
    pub hop_out_ns: Vec<u64>,
    pub serve_ns: Vec<u64>,
    pub serve_by_kind: BTreeMap<&'static str, Vec<u64>>,
    pub bind_launch_ns: Vec<u64>,
    /// Mux only: the gateway receiving the call until the client resumes.
    pub mux_dispatch_ns: Vec<u64>,
    /// Sum over calls of the phases, and of the client-observed call time.
    pub phase_sum_ns: u128,
    pub observed_sum_ns: u128,
    pub tick_ns: Vec<u64>,
    pub swap_peak_bytes: u64,
    pub threads_peak: usize,
    pub handler: Sched,
    pub client: Sched,
    pub reactor: Sched,
    pub reader: Sched,
    pub workers: Sched,
    pub proc_cpu: Duration,
    pub host_steal: Duration,
}

impl Layers {
    /// Run-queue wait summed over every thread measured.
    pub fn runq_wait_ns(&self) -> u64 {
        [self.handler, self.client, self.reactor, self.reader, self.workers]
            .iter()
            .map(|s| s.wait_ns)
            .sum()
    }
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Which segment of the plan this pass ran.
    pub segment: usize,
    pub setup: Duration,
    pub calls: u64,
    pub failed: u64,
    /// Host figures of each whole window of [`WINDOW`] consecutive calls.
    pub windows: Vec<Window>,
    /// Virtual time from the first call to the last job's exit.
    pub virt_ns: u64,
    pub job_virt_ns: Vec<u64>,
    pub launch_virt_ns: Vec<u64>,
    pub launches_ok: u64,
    pub counters: Counters,
    /// Digest of every virtual-time figure, counter and downloaded byte.
    pub fingerprint: u64,
    /// Output-check failures.
    pub errors: Vec<String>,
    pub layers: Option<Layers>,
}

impl PassOut {
    fn error(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// Calls per measurement window. A window is ~40 ms of driving on the
/// reference box: short enough that a burst of host interference spoils
/// few windows, long enough that its p99 has 20 samples beyond it.
pub const WINDOW: usize = 2048;

/// Host figures of one window of consecutive calls. The window's wall time
/// includes everything the calling thread did in between (connects,
/// teardown waits, monitor ticks). Its CPU time is the whole process's,
/// minus what the calling thread spent spinning in [`wait_contexts`]: that
/// barrier is the benchmark's, and while the host steals the handler's CPU
/// the spin would count the theft as runtime cost.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub calls_per_s: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub cpu_ns_per_call: f64,
    /// CPU time the hypervisor took from the machine during the window.
    pub steal: Duration,
}

/// Accumulates calls into [`Window`]s.
struct WindowMeter {
    call_ns: Vec<u64>,
    started: Instant,
    cpu0: Duration,
    steal0: Duration,
    /// Calling-thread CPU spent in the teardown barrier this window.
    barrier_cpu: Duration,
    done: Vec<Window>,
}

impl WindowMeter {
    fn new() -> Self {
        WindowMeter {
            call_ns: Vec::with_capacity(WINDOW),
            started: Instant::now(),
            cpu0: procfs::process_cpu(),
            steal0: procfs::host_steal(),
            barrier_cpu: Duration::ZERO,
            done: Vec::new(),
        }
    }

    fn record(&mut self, ns: u64) {
        self.call_ns.push(ns);
        if self.call_ns.len() == WINDOW {
            let cpu = procfs::process_cpu();
            let steal = procfs::host_steal();
            let n = WINDOW as f64;
            self.done.push(Window {
                calls_per_s: n / self.started.elapsed().as_secs_f64(),
                p50_ns: percentile(&mut self.call_ns, 0.50).unwrap_or(0),
                p99_ns: percentile(&mut self.call_ns, 0.99).unwrap_or(0),
                cpu_ns_per_call: (cpu.saturating_sub(self.cpu0).saturating_sub(self.barrier_cpu))
                    .as_nanos() as f64
                    / n,
                steal: steal.saturating_sub(self.steal0),
            });
            self.call_ns.clear();
            self.started = Instant::now();
            self.cpu0 = cpu;
            self.steal0 = steal;
            self.barrier_cpu = Duration::ZERO;
        }
    }
}

/// One CUDA call of a job script.
#[derive(Debug, Clone, Copy)]
enum Op {
    SetDevice(u32),
    RegisterFatBinary,
    RegisterFunction,
    Malloc(usize),
    Upload(usize),
    Configure,
    Launch(usize),
    Download(usize),
    Free(usize),
    Exit,
}

impl Op {
    fn kind(self) -> &'static str {
        match self {
            Op::Malloc(_) => "malloc",
            Op::Upload(_) => "h2d",
            Op::Launch(_) => "launch",
            Op::Download(_) => "d2h",
            Op::Free(_) => "free",
            Op::Exit => "exit",
            _ => "other",
        }
    }
}

fn script(job: &Job, device: Option<u32>) -> Vec<Op> {
    let mut ops: Vec<Op> = device.map(Op::SetDevice).into_iter().collect();
    ops.extend([Op::RegisterFatBinary, Op::RegisterFunction]);
    ops.extend((0..BUFS).map(Op::Malloc));
    ops.extend((0..BUFS).map(Op::Upload));
    for i in 0..job.launches.len() {
        ops.extend([Op::Configure, Op::Launch(i)]);
    }
    ops.extend((0..BUFS).rev().map(Op::Download));
    ops.extend((0..BUFS).map(Op::Free));
    ops.push(Op::Exit);
    ops
}

/// A job in progress in one slot.
struct Live<'p> {
    job: &'p Job,
    ops: Vec<Op>,
    next: usize,
    client: Box<dyn CudaClient>,
    probe: Option<Arc<Probe>>,
    module: ModuleHandle,
    ptrs: [DeviceAddr; BUFS],
    started: SimInstant,
    launched: bool,
}

impl Live<'_> {
    fn call_for(&self, op: Op, size: u64) -> CudaCall {
        match op {
            Op::SetDevice(device) => CudaCall::SetDevice { device },
            Op::RegisterFatBinary => CudaCall::RegisterFatBinary,
            Op::RegisterFunction => {
                CudaCall::RegisterFunction { module: self.module, kernel: plan::kernel_desc() }
            }
            Op::Malloc(_) => CudaCall::Malloc { size, kind: AllocKind::Linear },
            Op::Upload(b) => CudaCall::MemcpyH2D {
                dst: self.ptrs[b],
                buf: HostBuf::with_shadow(size, self.job.init[b].clone()),
            },
            Op::Configure => CudaCall::ConfigureCall { config: LaunchConfig::default() },
            Op::Launch(i) => {
                let l = self.job.launches[i];
                let mut args: Vec<KernelArg> =
                    self.ptrs.iter().map(|&p| KernelArg::Ptr(p)).collect();
                args.extend([
                    KernelArg::Scalar(l.x as u64),
                    KernelArg::Scalar(SHADOW_BYTES as u64),
                ]);
                CudaCall::Launch {
                    spec: LaunchSpec {
                        kernel: KERNEL.to_string(),
                        config: LaunchConfig::default(),
                        args,
                        work: Work::flops(l.flops),
                    },
                }
            }
            Op::Download(b) => CudaCall::MemcpyD2H { src: self.ptrs[b], len: size },
            Op::Free(b) => CudaCall::Free { ptr: self.ptrs[b] },
            Op::Exit => CudaCall::Exit,
        }
    }
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn since(later: SimInstant, earlier: SimInstant) -> u64 {
    later.duration_since(earlier).as_nanos()
}

/// Waits until the runtime has torn down every context but `live`: a
/// handler replies to `Exit` before it releases the context, and the next
/// call must see the release.
fn wait_contexts(rt: &NodeRuntime, live: usize) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.context_count() > live {
        if Instant::now() > deadline {
            return Err(format!(
                "teardown stalled: {} contexts live, want {live}",
                rt.context_count()
            ));
        }
        std::thread::yield_now();
    }
    Ok(())
}

/// Drives every job of `plan` against `target`.
fn drive(
    plan: &Plan,
    seg: usize,
    target: &Target<'_>,
    traced: bool,
    out: &mut PassOut,
) -> Result<(), String> {
    let clock = target.clock().clone();
    let size = plan.shape.buf_bytes;
    let mut layers = traced.then(Layers::default);
    let mut digest = FNV_SEED;
    let mut meter = WindowMeter::new();
    let mut cursors = vec![0usize; plan.slots.len()];
    let mut live: Vec<Option<Live<'_>>> = (0..plan.slots.len()).map(|_| None).collect();
    let virt_start = clock.now();
    loop {
        let mut active = false;
        for slot in 0..plan.slots.len() {
            if live[slot].is_none() {
                let Some(job) = plan.segment(slot, seg).get(cursors[slot]) else { continue };
                cursors[slot] += 1;
                let (client, probe, device) = match target {
                    Target::Node(node) => {
                        let (c, p) = node.connect(traced);
                        (c, p, None)
                    }
                    Target::Bare { driver, .. } => {
                        let c: Box<dyn CudaClient> = Box::new(BareClient::new(Arc::clone(driver)));
                        (c, None, Some((slot % plan.shape.devices) as u32))
                    }
                };
                if let Some(l) = layers.as_mut() {
                    l.threads_peak = l.threads_peak.max(procfs::thread_count());
                }
                live[slot] = Some(Live {
                    job,
                    ops: script(job, device),
                    next: 0,
                    client,
                    probe,
                    module: ModuleHandle(0),
                    ptrs: [DeviceAddr(0); BUFS],
                    started: clock.now(),
                    launched: false,
                });
            }
            active = true;
            let job_live = live[slot].as_mut().expect("filled above");
            let op = job_live.ops[job_live.next];
            job_live.next += 1;
            if let (Op::Exit, Some(l), Some(p)) = (op, layers.as_mut(), &job_live.probe) {
                // The handler thread exits with its tenant: sample it first.
                if let Some(s) = p.stamps().handler_tid.and_then(procfs::thread) {
                    l.handler.add(s);
                }
            }
            let call = job_live.call_for(op, size);
            let v0 = clock.now();
            let t0 = Instant::now();
            let reply = job_live.client.call(call);
            let observed = t0.elapsed().as_nanos() as u64;
            out.calls += 1;
            meter.record(observed);
            if let Op::Launch(_) = op {
                out.launch_virt_ns.push(since(clock.now(), v0));
            }
            if let (Some(l), Some(p)) = (layers.as_mut(), &job_live.probe) {
                record_phases(l, p, op, observed, !job_live.launched);
                if let (Op::Launch(_), Target::Node(node)) = (op, target) {
                    l.swap_peak_bytes = l.swap_peak_bytes.max(node.rt.memory().swap_used());
                }
            }
            match (op, reply) {
                (_, Err(e)) => {
                    out.failed += 1;
                    out.error(format!("slot {slot}: {op:?} failed: {e:?}"));
                }
                (Op::RegisterFatBinary, Ok(ReplyValue::Module(m))) => job_live.module = m,
                (Op::Malloc(b), Ok(ReplyValue::Ptr(p))) => job_live.ptrs[b] = p,
                (Op::Launch(_), Ok(ReplyValue::LaunchDone { .. })) => {
                    job_live.launched = true;
                    out.launches_ok += 1;
                }
                (Op::Download(b), Ok(ReplyValue::Bytes(buf))) => {
                    digest = fnv(digest, &buf.payload);
                    let want = &job_live.job.expected[b];
                    if buf.payload.get(..want.len()) != Some(&want[..]) {
                        out.error(format!(
                            "slot {slot}: {:?} job, buffer {b}: download differs from the host model",
                            job_live.job.kind
                        ));
                    }
                }
                (Op::SetDevice(_), Ok(ReplyValue::Unit))
                | (Op::RegisterFunction, Ok(ReplyValue::Unit))
                | (Op::Upload(_), Ok(ReplyValue::Unit))
                | (Op::Configure, Ok(ReplyValue::Unit))
                | (Op::Free(_), Ok(ReplyValue::Unit))
                | (Op::Exit, Ok(ReplyValue::Unit)) => {}
                (op, Ok(other)) => out.error(format!("slot {slot}: {op:?} answered {other:?}")),
            }
            if let Op::Exit = op {
                let turnaround = since(clock.now(), job_live.started);
                out.job_virt_ns.push(turnaround);
                digest = fnv(digest, &turnaround.to_le_bytes());
                live[slot] = None;
                if let Target::Node(node) = target {
                    let spin0 = procfs::thread_cpu();
                    wait_contexts(&node.rt, live.iter().flatten().count())?;
                    meter.barrier_cpu += procfs::thread_cpu().saturating_sub(spin0);
                }
            }
        }
        if !active {
            break;
        }
        if let Target::Node(node) = target {
            let t0 = Instant::now();
            node.rt.monitor_tick();
            if let Some(l) = layers.as_mut() {
                l.tick_ns.push(t0.elapsed().as_nanos() as u64);
            }
        }
    }
    out.virt_ns = since(clock.now(), virt_start);
    out.windows = meter.done;
    out.fingerprint = fnv(digest, &out.virt_ns.to_le_bytes());
    out.layers = layers;
    Ok(())
}

/// Splits one call's observed time at the probe's boundary stamps.
fn record_phases(l: &mut Layers, probe: &Probe, op: Op, observed: u64, first_launch: bool) {
    let s = probe.stamps();
    let (Some(sent), Some(recv), Some(resumed)) = (s.sent, s.recv, s.resumed) else { return };
    let ns = |later: Instant, earlier: Instant| {
        later.saturating_duration_since(earlier).as_nanos() as u64
    };
    let hop_in = ns(recv, sent);
    let client_side = observed.saturating_sub(ns(resumed, sent));
    l.hop_in_ns.push(hop_in);
    l.observed_sum_ns += observed as u128;
    match s.reply {
        Some(reply) => {
            let serve = ns(reply, recv);
            let hop_out = ns(resumed, reply);
            l.hop_out_ns.push(hop_out);
            l.serve_ns.push(serve);
            l.serve_by_kind.entry(op.kind()).or_default().push(serve);
            if first_launch && matches!(op, Op::Launch(_)) {
                l.bind_launch_ns.push(serve);
            }
            l.phase_sum_ns += (client_side + hop_in + serve + hop_out) as u128;
        }
        None => {
            let dispatch = ns(resumed, recv);
            l.mux_dispatch_ns.push(dispatch);
            l.phase_sum_ns += (client_side + hop_in + dispatch) as u128;
        }
    }
}

/// Reads the counters of a finished pass and checks the end state:
/// bindings balance, no context or swap slab is left, every launch issued
/// was counted, and the workload exercised the layer it exists for.
fn check_end(plan: &Plan, node: &Node, out: &mut PassOut) {
    let snap = node.rt.metrics();
    let mut c = Counters::default();
    for (_, gpu) in node.driver.devices() {
        let st = gpu.stats().snapshot();
        c.kernels += st.kernels_launched;
        c.h2d_bytes += st.h2d_bytes;
        c.d2h_bytes += st.d2h_bytes;
        c.failed_allocs += st.failed_allocs;
        c.compute_busy_ns += gpu.compute_busy_time().as_nanos();
    }
    let writeback: u64 = snap.per_device.iter().map(|d| d.swap_out_bytes).sum();
    let mut problems = Vec::new();
    if snap.bindings != snap.unbindings {
        problems.push(format!("bindings {} != unbindings {}", snap.bindings, snap.unbindings));
    }
    if node.rt.context_count() != 0 {
        problems.push(format!("{} contexts left", node.rt.context_count()));
    }
    if node.rt.memory().swap_used() != 0 {
        problems.push(format!("{} swap bytes left", node.rt.memory().swap_used()));
    }
    if snap.launches != out.launches_ok {
        problems.push(format!("launches counter {} != {} issued", snap.launches, out.launches_ok));
    }
    let swaps = snap.inter_app_swaps + snap.intra_app_swaps;
    match plan.workload {
        Workload::Share | Workload::Mux if swaps != 0 => {
            problems.push(format!("{swaps} swaps where every footprint fits"));
        }
        Workload::Oversub
            if snap.inter_app_swaps == 0
                || writeback == 0
                || snap.swap_bytes_skipped_clean == 0 =>
        {
            problems.push(format!(
                "oversubscription did not swap both ways: inter-app {}, writeback {writeback} B, clean-skipped {} B",
                snap.inter_app_swaps, snap.swap_bytes_skipped_clean
            ));
        }
        _ => {}
    }
    if plan.workload == Workload::Mux && snap.mux_requests != out.calls {
        problems.push(format!("mux_requests {} != {} calls issued", snap.mux_requests, out.calls));
    }
    for p in problems {
        out.error(p);
    }
    let mut text = format!("{snap:?}");
    let _ = write!(
        text,
        "{:?}",
        (c.kernels, c.h2d_bytes, c.d2h_bytes, c.failed_allocs, c.compute_busy_ns)
    );
    for v in &out.launch_virt_ns {
        let _ = write!(text, "{v},");
    }
    out.fingerprint = fnv(out.fingerprint, text.as_bytes());
    c.snap = snap;
    out.counters = c;
}

/// Samples the threads a mux node started, before they are stopped.
fn sample_mux_threads(l: &mut Layers) {
    for t in procfs::threads() {
        if t.name.starts_with("mux-worker") {
            l.workers.add(t.sched);
        } else if t.name.starts_with("mux-reactor") {
            l.reactor.add(t.sched);
        } else if t.name.starts_with("mux-reader") {
            l.reader.add(t.sched);
        }
    }
}

/// Runs segment `seg` of `plan` as one pass on a fresh node.
pub fn run_pass(plan: &Plan, seg: usize, traced: bool) -> Result<PassOut, String> {
    let (node, setup) = Node::start(plan, traced)?;
    let mut out = PassOut { setup, segment: seg, ..PassOut::default() };
    let client0 = procfs::this_thread();
    let steal0 = procfs::host_steal();
    let cpu0 = procfs::process_cpu();
    let driven = drive(plan, seg, &Target::Node(&node), traced, &mut out);
    if let Some(l) = out.layers.as_mut() {
        l.client = procfs::this_thread().since(client0);
        l.proc_cpu = procfs::process_cpu().saturating_sub(cpu0);
        l.host_steal = procfs::host_steal().saturating_sub(steal0);
        if plan.workload == Workload::Mux {
            sample_mux_threads(l);
        }
    }
    if let Err(e) = driven {
        node.stop();
        return Err(e);
    }
    check_end(plan, &node, &mut out);
    node.stop();
    Ok(out)
}

/// Runs segment 0 of `plan` through `BareClient`, straight onto fresh
/// devices with no interposer: the paper's bare-CUDA baseline. Each slot
/// selects device `slot % devices`, so no device holds more than
/// `slots / devices` contexts (the bare runtime allows eight).
pub fn run_bare(plan: &Plan) -> Result<PassOut, String> {
    plan::register_kernel();
    let clock = Clock::virtual_clock();
    let driver = Driver::with_devices(clock.clone(), devices(plan));
    let mut out = PassOut::default();
    drive(plan, 0, &Target::Bare { driver, clock }, false, &mut out)?;
    Ok(out)
}
