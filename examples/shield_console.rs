//! An interactive console in the spirit of RedHawk's `shield(1)` utility:
//! drive a live simulated system from stdin, shield and unshield CPUs, and
//! watch the latency numbers move.
//!
//! Run with: `cargo run --release --example shield_console`
//! (or pipe a script: `echo "run 2000; shield 2; run 2000; latency; quit" | ...`)

use shielded_processors::prelude::*;
use sp_workloads::{stress_kernel, StressDevices};
use std::io::{BufRead, Write};

struct Console {
    sim: Simulator,
    rt: Pid,
    rcim: DeviceId,
    /// Latency samples already consumed by a previous `latency` command.
    seen: usize,
}

impl Console {
    fn new() -> Self {
        let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), 3);
        let rcim = sim.add_device(RcimDevice::new(Nanos::from_ms(1)));
        let nic = sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(
            Nanos::from_ms(1),
        ))));
        let disk = sim.add_device(DiskDevice::new());
        stress_kernel(&mut sim, StressDevices { nic, disk });
        let rt = sim.spawn(
            TaskSpec::new(
                "rt-waiter",
                SchedPolicy::fifo(90),
                Program::forever(vec![Op::WaitIrq {
                    device: rcim,
                    api: WaitApi::IoctlWait { driver_bkl_free: true },
                }]),
            )
            .mlockall(),
        );
        sim.watch_latency(rt);
        sim.arm_flight(1);
        sim.start();
        Console { sim, rt, rcim, seen: 0 }
    }

    fn dispatch(&mut self, line: &str) -> bool {
        let mut parts = line.split_whitespace();
        match parts.next() {
            None => {}
            Some("help") => {
                println!("commands:");
                println!("  run <ms>          advance simulated time");
                println!("  shield <mask>     fully shield CPUs (hex mask) + bind rt task & irq");
                println!("  unshield          clear all shielding");
                println!("  status            /proc/shield, /proc/irq, per-CPU accounting");
                println!("  top               tasks by consumed CPU time");
                println!("  latency           rt-waiter latency since the last call");
                println!("  timeline          per-CPU activity map of recent flight events");
                println!("  quit");
            }
            Some("run") => match parts.next().and_then(|a| a.parse::<u64>().ok()) {
                Some(ms) => {
                    self.sim.run_for(Nanos::from_ms(ms));
                    println!("now at {}", self.sim.now());
                }
                None => println!("usage: run <ms>"),
            },
            Some("shield") => match parts.next().map(str::parse::<CpuMask>) {
                Some(Ok(mask)) => {
                    let result = ShieldPlan::full(mask)
                        .bind_task(self.rt)
                        .bind_irq(self.rcim)
                        .apply(&mut self.sim);
                    match result {
                        Ok(()) => print!("{}", ProcShield::status(&self.sim)),
                        Err(e) => println!("error: {e}"),
                    }
                }
                _ => println!("usage: shield <hex cpu mask>"),
            },
            Some("unshield") => match ShieldPlan::clear(&mut self.sim) {
                Ok(()) => print!("{}", ProcShield::status(&self.sim)),
                Err(e) => println!("error: {e}"),
            },
            Some("status") => {
                print!("{}", ProcShield::status(&self.sim));
                print!("{}", sp_core::ProcIrq::status(&self.sim));
                print!("{}", sp_core::ProcInterrupts::read(&self.sim));
                let mut t = Table::new(["cpu", "user", "kernel", "isr", "softirq", "ticks"]);
                for (i, acc) in self.sim.obs.cpu.iter().enumerate() {
                    t.row([
                        format!("cpu{i}"),
                        acc.user.to_string(),
                        acc.kernel.to_string(),
                        acc.isr.to_string(),
                        acc.softirq.to_string(),
                        acc.ticks.to_string(),
                    ]);
                }
                print!("{}", t.render());
            }
            Some("top") => {
                print!("{}", sp_core::render_ps(&self.sim));
            }
            Some("latency") => {
                let lats = &self.sim.obs.latencies(self.rt)[self.seen..];
                if lats.is_empty() {
                    println!("no new samples — `run` some time first");
                } else {
                    let h: LatencyHistogram = lats.iter().copied().collect();
                    println!("{}", LatencySummary::from_histogram(&h));
                    self.seen = self.sim.obs.latencies(self.rt).len();
                }
            }
            Some("timeline") => {
                print!(
                    "{}",
                    sp_metrics::render_timeline(
                        self.sim.flight.records(),
                        self.sim.machine().logical_cpus(),
                        64
                    )
                );
            }
            Some("quit") | Some("exit") => return false,
            Some(other) => println!("unknown command '{other}' (try: help)"),
        }
        true
    }
}

fn main() {
    println!("shield console — simulated dual-CPU RedHawk under stress-kernel load");
    println!("type 'help' for commands; commands may be ';'-separated\n");
    let mut console = Console::new();
    let stdin = std::io::stdin();
    loop {
        print!("shield> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let mut keep_going = true;
        for cmd in line.split(';') {
            keep_going = console.dispatch(cmd.trim());
            if !keep_going {
                break;
            }
        }
        if !keep_going {
            break;
        }
    }
}
