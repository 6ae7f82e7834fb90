//! End-to-end and per-layer benchmark of the mtgpu runtime.
//!
//! ```text
//! mtbench --workload share|oversub|mux --seed N --seconds S --trace 0|1
//! mtbench --workload W --seed N --replay          # replay check
//! mtbench --workload W --seed N --corrupt-model   # must exit non-zero
//! mtbench --fault-repro                           # victim-size fault
//! ```
//!
//! A run repeats whole passes of the seed's plan (see `drive`) on fresh
//! nodes until `--seconds` have passed. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer metrics of alternating traced and
//! untraced passes plus one bare-CUDA pass. The last line of standard
//! output is the JSON result; the exit code is 0 only if every output check
//! passed. See README.md for the metrics and what moves them.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("mtbench reads /proc and clock_gettime: 64-bit Linux only");

mod drive;
mod fault;
mod placement;
mod plan;
mod probe;
mod procfs;
mod stats;

use drive::{Node, PassOut};
use plan::{Plan, Workload, SEGMENTS};
use stats::{median, percentile, result_line, Metrics};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up-only cycles (start and stop a node) before every pass; the
/// reported set-up time is the median over these and every pass's own.
/// Spreading them over the run keeps one moment of host interference from
/// deciding the figure.
const SETUP_CYCLES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    replay: bool,
    corrupt_model: bool,
    fault_repro: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Share,
        seed: 1,
        seconds: 10,
        trace: false,
        replay: false,
        corrupt_model: false,
        fault_repro: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--replay" => args.replay = true,
            "--corrupt-model" => args.corrupt_model = true,
            "--fault-repro" => args.fault_repro = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mtbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.fault_repro {
        return if fault::repro() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    match if args.replay { replay(&args) } else { bench(&args) } {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mtbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn build_plan(args: &Args) -> Plan {
    let mut plan = Plan::build(args.workload, args.seed);
    if args.corrupt_model {
        plan.corrupt_model();
    }
    plan
}

/// Runs every segment of the plan twice on one seed, on fresh nodes, and
/// fails unless every virtual-time figure and counter is identical and
/// every output check passes.
fn replay(args: &Args) -> Result<bool, String> {
    placement::pin_to_first_cpu();
    let plan = build_plan(args);
    let mut ok = true;
    for seg in 0..SEGMENTS {
        let a = drive::run_pass(&plan, seg, false)?;
        let b = drive::run_pass(&plan, seg, false)?;
        let same = a.fingerprint == b.fingerprint
            && a.virt_ns == b.virt_ns
            && a.job_virt_ns == b.job_virt_ns
            && a.launch_virt_ns == b.launch_virt_ns
            && a.counters.snap == b.counters.snap;
        for e in a.errors.iter().chain(&b.errors) {
            eprintln!("check failed: {e}");
        }
        eprintln!(
            "replay {} seed {} segment {seg}: fingerprints {:016x} / {:016x}, virt_s {} / {}, \
             inter-app swaps {} / {}",
            plan.workload.name(),
            plan.seed,
            a.fingerprint,
            b.fingerprint,
            secs(a.virt_ns),
            secs(b.virt_ns),
            a.counters.snap.inter_app_swaps,
            b.counters.snap.inter_app_swaps,
        );
        ok &= same && a.errors.is_empty() && b.errors.is_empty() && a.failed == 0 && b.failed == 0;
    }
    println!("{}", if ok { "replay: identical" } else { "replay: MISMATCH" });
    Ok(ok)
}

fn bench(args: &Args) -> Result<bool, String> {
    let cpu = placement::pin_to_first_cpu();
    let plan = build_plan(args);
    let mut setups = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<PassOut> = Vec::new();
    // Pass k runs segment k % SEGMENTS; the first SEGMENTS passes cover the
    // whole plan and give the virtual-time figures and counters. Traced
    // runs alternate untraced and traced passes, so the difference between
    // the two is the tracing overhead. Whole passes only: another pass
    // starts only if it should end within the budget, judged by the mean
    // pass so far.
    loop {
        let elapsed = start.elapsed();
        let mean = elapsed / passes.len().max(1) as u32;
        if passes.len() >= SEGMENTS && elapsed + mean > budget {
            break;
        }
        for _ in 0..SETUP_CYCLES {
            let (node, setup) = Node::start(&plan, false)?;
            node.stop();
            setups.push(setup.as_secs_f64());
        }
        let traced = args.trace && passes.len() % 2 == 1;
        let mut pass = drive::run_pass(&plan, passes.len() % SEGMENTS, traced)?;
        let (rate, p50, p99, cpu) = window_medians(&[&pass]);
        eprintln!(
            "pass {}{}: {rate:.0} calls/s, p50 {p50:.2} us, p99 {p99:.2} us, {cpu:.2} CPU-us/call",
            passes.len(),
            if traced { " (traced)" } else { "" },
        );
        setups.push(pass.setup.as_secs_f64());
        if passes.len() >= SEGMENTS {
            // Identical to the first pass on this segment (the fingerprint
            // says so); keep the run's memory flat however many passes.
            pass.job_virt_ns = Vec::new();
            pass.launch_virt_ns = Vec::new();
        }
        passes.push(pass);
    }
    let bare = if args.trace {
        Some(drive::run_bare(&Plan::build(Workload::Share, args.seed))?)
    } else {
        None
    };

    let mut correct = true;
    for (i, p) in passes.iter().enumerate() {
        for e in &p.errors {
            eprintln!("pass {i}: check failed: {e}");
            correct = false;
        }
        if p.fingerprint != passes[p.segment].fingerprint {
            eprintln!("pass {i}: virtual-time figures or counters differ from pass {}", p.segment);
            correct = false;
        }
    }
    if let Some(b) = &bare {
        for e in &b.errors {
            eprintln!("bare pass: check failed: {e}");
            correct = false;
        }
    }
    let attempted: u64 =
        passes.iter().map(|p| p.calls).sum::<u64>() + bare.as_ref().map_or(0, |b| b.calls);
    let failed: u64 =
        passes.iter().map(|p| p.failed).sum::<u64>() + bare.as_ref().map_or(0, |b| b.failed);
    eprintln!(
        "{} seed {} ({}): {} passes of {} jobs / {} calls in {:.1} s",
        plan.workload.name(),
        plan.seed,
        cpu.map_or("unpinned".to_string(), |c| format!("pinned to CPU {c}")),
        passes.len(),
        plan.job_count() / SEGMENTS,
        passes[0].calls,
        start.elapsed().as_secs_f64()
    );
    let metrics = if args.trace {
        // The boundary stamps must account for what the tenant saw.
        let coverage = phase_coverage(&passes);
        if plan.workload != Workload::Mux && coverage < 0.95 {
            eprintln!("phase coverage {coverage:.4} < 0.95 of client-observed call time");
            correct = false;
        }
        per_layer(&passes, bare.as_ref())
    } else {
        end_to_end(&passes, &setups)
    };
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |v| v as f64 / 1e3)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

const MIB: f64 = (1u64 << 20) as f64;

/// Medians over every window of `passes`: calls per second, call p50 and
/// p99 (us), process CPU per call (us).
///
/// Only the quietest windows count: those whose host steal is at most the
/// lower quartile of the run's windows. On a quiet host that is nearly every
/// window (no steal); while another tenant of the machine takes the CPUs,
/// the windows it hit least. The choice depends only on the hypervisor's
/// steal counter, never on the figures measured.
fn window_medians(passes: &[&PassOut]) -> (f64, f64, f64, f64) {
    let all: Vec<drive::Window> = passes.iter().flat_map(|p| p.windows.iter().copied()).collect();
    let quiet = percentile(&mut all.iter().map(|w| w.steal).collect::<Vec<_>>(), 0.25);
    let windows: Vec<drive::Window> =
        all.iter().copied().filter(|w| Some(w.steal) <= quiet).collect();
    let med =
        |f: &dyn Fn(&drive::Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    (
        med(&|w| w.calls_per_s),
        med(&|w| w.p50_ns as f64 / 1e3),
        med(&|w| w.p99_ns as f64 / 1e3),
        med(&|w| w.cpu_ns_per_call / 1e3),
    )
}

/// Sums a per-pass count over the first `SEGMENTS` passes: the whole plan.
fn plan_sum(passes: &[PassOut], f: impl Fn(&PassOut) -> u64) -> u64 {
    passes[..SEGMENTS].iter().map(f).sum()
}

/// Concatenates a per-pass sample vector over the whole plan.
fn plan_samples(passes: &[PassOut], f: impl Fn(&PassOut) -> &Vec<u64>) -> Vec<u64> {
    passes[..SEGMENTS].iter().flat_map(|p| f(p).iter().copied()).collect()
}

fn end_to_end(passes: &[PassOut], setups: &[f64]) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median(setups), "s");
    let all: Vec<&PassOut> = passes.iter().collect();
    let (rate, p50, _, cpu) = window_medians(&all);
    m.put("calls_per_s", rate, "1/s");
    m.put("call_p50_us", p50, "us");
    m.put("cpu_us_per_call", cpu, "us");
    m.put("virt_s", secs(plan_sum(passes, |p| p.virt_ns)), "s");
    let mut jobs = plan_samples(passes, |p| &p.job_virt_ns);
    m.put("virt_job_p50_s", secs(percentile(&mut jobs, 0.50).unwrap_or(0)), "s");
    m.put("virt_job_p99_s", secs(percentile(&mut jobs, 0.99).unwrap_or(0)), "s");
    m.put("peak_rss_mb", procfs::peak_rss_mb(), "MB");
    m
}

/// Merges one sample vector across passes.
fn merged(passes: &[&PassOut], f: impl Fn(&drive::Layers) -> &Vec<u64>) -> Vec<u64> {
    passes.iter().filter_map(|p| p.layers.as_ref()).flat_map(|l| f(l).iter().copied()).collect()
}

/// Client-side time + hop in + serve + hop out (on mux: client-side + hop
/// in + dispatch), summed over traced calls, as a share of the summed
/// client-observed call time.
fn phase_coverage(passes: &[PassOut]) -> f64 {
    let (phases, seen) = passes
        .iter()
        .filter_map(|p| p.layers.as_ref())
        .fold((0u128, 0u128), |(a, b), l| (a + l.phase_sum_ns, b + l.observed_sum_ns));
    if seen == 0 {
        0.0
    } else {
        phases as f64 / seen as f64
    }
}

/// Per-layer metrics. Counts and virtual figures are totals over the whole
/// plan; CPU and wait times are per plan too, scaled up from the mean
/// traced pass; latencies pool every traced call.
fn per_layer(passes: &[PassOut], bare: Option<&PassOut>) -> Metrics {
    let traced: Vec<&PassOut> = passes.iter().filter(|p| p.layers.is_some()).collect();
    let untraced: Vec<&PassOut> = passes.iter().filter(|p| p.layers.is_none()).collect();
    let layers = || traced.iter().filter_map(|p| p.layers.as_ref());
    let per_plan = |f: &dyn Fn(&drive::Layers) -> f64| {
        layers().map(f).sum::<f64>() / traced.len() as f64 * SEGMENTS as f64
    };
    let peak = |f: &dyn Fn(&drive::Layers) -> f64| layers().map(f).fold(0.0, f64::max);
    let count = |f: &dyn Fn(&drive::Counters) -> u64| plan_sum(passes, |p| f(&p.counters)) as f64;
    let mb = |f: &dyn Fn(&drive::Counters) -> u64| count(f) / MIB;
    let p = |v: Vec<u64>, q: f64| us(percentile(&mut v.clone(), q));
    let mut m = Metrics::default();

    // A host figure whose run-to-run spread exceeds any bound an end-to-end
    // metric may have (see README), taken from the untraced passes.
    m.put("call_p99_us", window_medians(&untraced).2, "us");
    m.put("trace.overhead_us_p50", window_medians(&traced).1 - window_medians(&untraced).1, "us");
    m.put("api.phase_coverage", phase_coverage(passes), "ratio");

    m.put("api.hop_in_us_p50", p(merged(&traced, |l| &l.hop_in_ns), 0.5), "us");
    m.put("api.hop_out_us_p50", p(merged(&traced, |l| &l.hop_out_ns), 0.5), "us");
    m.put("api.client_cpu_s", per_plan(&|l| secs(l.client.run_ns)), "s");
    m.put("api.reactor_cpu_s", per_plan(&|l| secs(l.reactor.run_ns)), "s");
    m.put("api.mux_reader_cpu_s", per_plan(&|l| secs(l.reader.run_ns)), "s");
    m.put("core.mux.worker_cpu_s", per_plan(&|l| secs(l.workers.run_ns)), "s");
    m.put("core.mux.requests", count(&|c| c.snap.mux_requests), "count");
    m.put("core.mux.retries", count(&|c| c.snap.mux_retries), "count");
    m.put("core.mux.dispatch_us_p50", p(merged(&traced, |l| &l.mux_dispatch_ns), 0.5), "us");

    m.put("core.service.serve_us_p50", p(merged(&traced, |l| &l.serve_ns), 0.5), "us");
    m.put("core.service.serve_us_p99", p(merged(&traced, |l| &l.serve_ns), 0.99), "us");
    let by_kind = |kind: &'static str| {
        layers().flat_map(|l| l.serve_by_kind.get(kind).cloned().unwrap_or_default()).collect()
    };
    for kind in ["malloc", "h2d", "launch", "d2h", "free", "exit"] {
        m.put(&format!("core.service.{kind}_us_p50"), p(by_kind(kind), 0.5), "us");
    }
    m.put("core.service.launch_us_p99", p(by_kind("launch"), 0.99), "us");
    m.put("core.service.handler_cpu_s", per_plan(&|l| secs(l.handler.run_ns)), "s");

    m.put("core.sched.bindings", count(&|c| c.snap.bindings), "count");
    m.put("core.sched.unbindings", count(&|c| c.snap.unbindings), "count");
    m.put("core.sched.bind_launch_us_p50", p(merged(&traced, |l| &l.bind_launch_ns), 0.5), "us");

    m.put("core.memory.inter_app_swaps", count(&|c| c.snap.inter_app_swaps), "count");
    m.put("core.memory.intra_app_swaps", count(&|c| c.snap.intra_app_swaps), "count");
    m.put("core.memory.swap_mb", mb(&|c| c.snap.swap_bytes), "MB");
    m.put("core.memory.swap_clean_skipped_mb", mb(&|c| c.snap.swap_bytes_skipped_clean), "MB");
    m.put("core.memory.transfer_plans", count(&|c| c.snap.transfer_plans), "count");
    m.put("core.memory.launch_retries", count(&|c| c.snap.launch_retries), "count");
    m.put("core.memory.coalesced_copies", count(&|c| c.snap.coalesced_copies), "count");
    let launch_virt = plan_samples(passes, |p| &p.launch_virt_ns);
    m.put("core.memory.launch_virt_ms_p50", p(launch_virt.clone(), 0.5) / 1e3, "ms");
    m.put("core.memory.launch_virt_ms_p99", p(launch_virt, 0.99) / 1e3, "ms");
    m.put("core.memory.swap_peak_mb", peak(&|l| l.swap_peak_bytes as f64) / MIB, "MB");

    m.put("core.monitor.tick_us_p50", p(merged(&traced, |l| &l.tick_ns), 0.5), "us");

    m.put("gpusim.compute_busy_s", secs(plan_sum(passes, |p| p.counters.compute_busy_ns)), "s");
    m.put("gpusim.kernels", count(&|c| c.kernels), "count");
    m.put("gpusim.h2d_mb", mb(&|c| c.h2d_bytes), "MB");
    m.put("gpusim.d2h_mb", mb(&|c| c.d2h_bytes), "MB");
    m.put("gpusim.failed_allocs", count(&|c| c.failed_allocs), "count");
    m.put("gpusim.bare_call_us_p50", bare.map_or(0.0, |b| window_medians(&[b]).1), "us");

    m.put("proc.cpu_s", per_plan(&|l| l.proc_cpu.as_secs_f64()), "s");
    m.put("proc.runq_wait_s", per_plan(&|l| secs(l.runq_wait_ns())), "s");
    m.put("proc.threads_peak", peak(&|l| l.threads_peak as f64), "count");
    m.put("proc.host_steal_s", per_plan(&|l| l.host_steal.as_secs_f64()), "s");
    m
}
