//! `--fault-repro`: the input on which inter-application swap never finds
//! a victim and a launch never returns.
//!
//! `Materialize::NeedBytes` reports the size of the allocation that failed,
//! not the shortfall, and `try_inter_app_swap` accepts only a co-tenant
//! whose resident bytes alone cover that size. Nine tenants on three
//! 64 MiB devices each allocate one buffer of 24 MiB + i x 256 KiB and
//! launch once. The fourth tenant to launch shares a device with one that
//! holds a smaller buffer, so no co-tenant qualifies; on the virtual clock
//! its unbind/backoff/retry loop then spins forever at full CPU. The check
//! drives that input from one thread under a watchdog: it exits 0 if every
//! tenant finishes and 1 if no call returns within the watchdog period.

use mtgpu_api::{CudaClient, HostBuf};
use mtgpu_core::{NodeRuntime, RuntimeConfig};
use mtgpu_gpusim::{Driver, GpuSpec, KernelArg, KernelDesc, LaunchConfig, LaunchSpec, Work};
use mtgpu_simtime::Clock;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const KERNEL: &str = "mtbench_touch";
const TENANTS: u64 = 9;
const MIB: u64 = 1 << 20;
const WATCHDOG: Duration = Duration::from_secs(5);

pub fn repro() -> bool {
    let driver = Driver::with_devices(Clock::virtual_clock(), vec![GpuSpec::test_small(); 3]);
    let cfg = RuntimeConfig::default().with_vgpus(4).with_seed(1).with_background_monitor(false);
    let rt = NodeRuntime::start(driver, cfg);
    let (tx, rx) = mpsc::channel::<String>();
    let driving = Arc::clone(&rt);
    // Detached on purpose: on a stall this thread stays blocked on a reply
    // that never comes, and process exit ends it.
    std::thread::spawn(move || {
        let mut clients: Vec<_> = (0..TENANTS).map(|_| driving.local_client()).collect();
        let mut ptrs = Vec::new();
        for (i, c) in clients.iter_mut().enumerate() {
            let m = c.register_fat_binary().expect("register module");
            c.register_function(m, KernelDesc::plain(KERNEL)).expect("register kernel");
            ptrs.push(c.malloc(24 * MIB + i as u64 * 256 * 1024).expect("malloc"));
        }
        for (i, c) in clients.iter_mut().enumerate() {
            let size = 24 * MIB + i as u64 * 256 * 1024;
            c.memcpy_h2d(ptrs[i], HostBuf::declared(size)).expect("upload");
        }
        for (i, c) in clients.iter_mut().enumerate() {
            let _ = tx.send(format!("tenant {i} launches"));
            let spec = LaunchSpec {
                kernel: KERNEL.to_string(),
                config: LaunchConfig::default(),
                args: vec![KernelArg::Ptr(ptrs[i])],
                work: Work::flops(1e6),
            };
            c.launch(spec).expect("launch");
        }
        for c in clients.iter_mut() {
            c.exit().expect("exit");
        }
        let _ = tx.send("done".to_string());
    });
    let mut last = String::from("start");
    loop {
        match rx.recv_timeout(WATCHDOG) {
            Ok(msg) if msg == "done" => {
                eprintln!("fault-repro: every tenant finished; the victim-size fault is gone");
                println!("fault-repro: completed");
                return true;
            }
            Ok(msg) => last = msg,
            Err(_) => {
                let before = rt.metrics().launch_retries;
                std::thread::sleep(Duration::from_secs(1));
                let after = rt.metrics().launch_retries;
                eprintln!(
                    "fault-repro: stalled after \"{last}\": no progress for {}s, inter-app swaps {}, \
                     launch retries {before} -> {after} in the last second, virtual clock at {:.1} s",
                    WATCHDOG.as_secs(),
                    rt.metrics().inter_app_swaps,
                    rt.clock().now().since_epoch().as_secs_f64(),
                );
                println!("fault-repro: stalled");
                return false;
            }
        }
    }
}
