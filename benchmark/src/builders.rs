//! Simulator shells built through public constructors only.
//!
//! Each builder mirrors, call for call, the private builder of the study it
//! stands for (`sp-experiments`' determinism, realfeel, RCIM, modern-matrix
//! and autopilot plants), so a shell built here dispatches exactly the same
//! trajectory. The benchmark uses them for set-up (one build of every
//! distinct config), for the fork probe, and for the traced replays, whose
//! digests are checked against the real entry points.

use simcore::{DurationDist, Nanos};
use sp_core::{ProcShield, ShieldPlan};
use sp_experiments::faultmatrix::MatrixPath;
use sp_experiments::{
    AutopilotConfig, DeterminismConfig, ModernVariant, RcimConfig, RealfeelConfig,
};
use sp_hw::{CpuId, CpuMask, MachineConfig};
use sp_kernel::devices::{DiskDevice, GpuDevice, NicDevice, OnOffPoisson, RcimDevice, RtcDevice};
use sp_kernel::{
    KernelConfig, KernelVariant, Op, Pid, Program, SchedPolicy, Simulator, TaskSpec, WaitApi,
};
use sp_workloads::{
    disknoise, diurnal_burst_profile, request_kernel_config, request_serving, scp_nic_profile,
    scp_receiver, stress_kernel, ttcp_ethernet_profile, x11perf_driver, RequestService,
    StressDevices,
};

/// How a shell's shield is put in place after `start()`: through
/// `ShieldPlan` (every paper and matrix study) or a raw `/proc/shield`
/// write (what the autopilot does when it engages a ladder rung).
pub enum Shield {
    None,
    Plan(ShieldPlan),
    Procfs(CpuMask),
}

/// A started simulator plus its measured task and the shield still to apply.
pub struct Shell {
    pub sim: Simulator,
    pub pid: Pid,
    pub shield: Shield,
}

impl Shell {
    /// Apply the pending shield (a no-op when there is none or it already
    /// ran).
    pub fn apply_shield(&mut self) {
        match std::mem::replace(&mut self.shield, Shield::None) {
            Shield::None => {}
            Shield::Plan(plan) => plan.apply(&mut self.sim).expect("shield plan applies"),
            Shield::Procfs(mask) => {
                ProcShield::write_all(&mut self.sim, mask).expect("/proc/shield write")
            }
        }
    }

    /// Build-and-shield in one step, the form the studies use.
    pub fn shielded(mut self) -> Self {
        self.apply_shield();
        self
    }
}

/// Run `sim` until it has dispatched at least `n` more events; returns how
/// many it dispatched.
pub fn run_events(sim: &mut Simulator, n: u64) -> u64 {
    let start = sim.events_dispatched();
    while sim.events_dispatched() - start < n {
        sim.run_for(Nanos::from_ms(5));
    }
    sim.events_dispatched() - start
}

/// Every simulator config the benchmark knows how to build.
#[derive(Debug, Clone)]
pub enum SimConfig {
    Determinism(DeterminismConfig),
    Realfeel(RealfeelConfig),
    Rcim(RcimConfig),
    Modern { variant: ModernVariant, path: MatrixPath, seed: u64 },
    Plant(AutopilotConfig),
}

impl SimConfig {
    /// Build and start the shell (shield not yet applied).
    pub fn build(&self) -> Shell {
        match self {
            SimConfig::Determinism(c) => determinism(c),
            SimConfig::Realfeel(c) => realfeel(c, c.seed),
            SimConfig::Rcim(c) => rcim(c),
            SimConfig::Modern { variant, path, seed } => modern(*variant, *path, *seed),
            SimConfig::Plant(c) => {
                let (sim, svc) = plant(c);
                let top = c.controller().levels.last().expect("ladder is nonempty").mask;
                Shell { sim, pid: svc.server, shield: Shield::Procfs(top) }
            }
        }
    }
}

/// `sp_experiments::run_determinism`'s simulator.
pub fn determinism(cfg: &DeterminismConfig) -> Shell {
    let machine = MachineConfig::dual_xeon_p4(cfg.hyperthreading);
    let mut sim = Simulator::new(machine, KernelConfig::new(cfg.variant), cfg.seed);
    sim.add_device(NicDevice::new(Some(scp_nic_profile())));
    let disk = sim.add_device(DiskDevice::new());
    scp_receiver(&mut sim, disk);
    disknoise(&mut sim, disk);
    let prog =
        Program::forever(vec![Op::MarkLap, Op::Compute(DurationDist::constant(cfg.loop_work))]);
    let mut spec = TaskSpec::new("determinism-loop", SchedPolicy::fifo(90), prog).mlockall();
    if let Some(cpu) = cfg.shield {
        spec = spec.pinned(CpuMask::single(CpuId(cpu)));
    }
    let pid = sim.spawn(spec);
    sim.watch_laps(pid);
    sim.start();
    let shield = match cfg.shield {
        Some(cpu) => Shield::Plan(ShieldPlan::cpu(CpuId(cpu)).bind_task(pid)),
        None => Shield::None,
    };
    Shell { sim, pid, shield }
}

/// The realfeel simulator of Figures 5–6 and of every sweep cell, seeded
/// with `seed` (sweep forks rebuild the shell on the warm seed).
pub fn realfeel(cfg: &RealfeelConfig, seed: u64) -> Shell {
    let mut sim =
        Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::new(cfg.variant), seed);
    let rtc = sim.add_device(RtcDevice::new(cfg.rtc_hz));
    let nic = sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(Nanos::from_ms(20)))));
    let disk = sim.add_device(DiskDevice::new());
    stress_kernel(&mut sim, StressDevices { nic, disk });
    let prog = Program::forever(vec![Op::WaitIrq { device: rtc, api: WaitApi::ReadDevice }]);
    let mut spec = TaskSpec::new("realfeel", SchedPolicy::fifo(90), prog).mlockall();
    if let Some(cpu) = cfg.shield {
        spec = spec.pinned(CpuMask::single(CpuId(cpu)));
    }
    let pid = sim.spawn(spec);
    sim.watch_latency(pid);
    sim.start();
    let shield = match cfg.shield {
        Some(cpu) => Shield::Plan(ShieldPlan::cpu(CpuId(cpu)).bind_task(pid).bind_irq(rtc)),
        None => Shield::None,
    };
    Shell { sim, pid, shield }
}

/// The RCIM simulator of Figure 7.
pub fn rcim(cfg: &RcimConfig) -> Shell {
    let mut sim = Simulator::new(
        MachineConfig::dual_xeon_p4_2ghz(),
        KernelConfig::new(cfg.variant),
        cfg.seed,
    );
    let dev = sim.add_device(RcimDevice::new(cfg.period));
    let nic = sim.add_device(NicDevice::new(Some(ttcp_ethernet_profile())));
    let disk = sim.add_device(DiskDevice::new());
    sim.add_device(GpuDevice::x11perf());
    stress_kernel(&mut sim, StressDevices { nic, disk });
    x11perf_driver(&mut sim);
    let prog = Program::forever(vec![Op::WaitIrq {
        device: dev,
        api: WaitApi::IoctlWait { driver_bkl_free: cfg.driver_bkl_free },
    }]);
    let mut spec = TaskSpec::new("rcim-response", SchedPolicy::fifo(90), prog).mlockall();
    if let Some(cpu) = cfg.shield {
        spec = spec.pinned(CpuMask::single(CpuId(cpu)));
    }
    let pid = sim.spawn(spec);
    sim.watch_latency(pid);
    sim.start();
    let shield = match cfg.shield {
        Some(cpu) => Shield::Plan(ShieldPlan::cpu(CpuId(cpu)).bind_task(pid).bind_irq(dev)),
        None => Shield::None,
    };
    Shell { sim, pid, shield }
}

/// One modern-matrix group's simulator: the variant's kernel knobs and
/// shield shape on the measured path. Fault injectors are not registered —
/// the shell is used for set-up and the fork probe, never compared with
/// the matrix's own cells.
pub fn modern(variant: ModernVariant, path: MatrixPath, seed: u64) -> Shell {
    let classic = KernelConfig::new(KernelVariant::RedHawk);
    let kernel = match variant {
        ModernVariant::Classic24 => classic,
        ModernVariant::ThreadedIrq => KernelConfig { threaded_irqs: true, ..classic },
        ModernVariant::NohzFull => KernelConfig { nohz_full: true, ..classic },
        ModernVariant::KthreadIso => KernelConfig { kthread_iso: true, ..classic },
        ModernVariant::ModernAll => KernelConfig::modern(),
    };
    let (machine, api) = match path {
        MatrixPath::Realfeel => (MachineConfig::dual_xeon_p3(), WaitApi::ReadDevice),
        MatrixPath::Rcim => {
            (MachineConfig::dual_xeon_p4_2ghz(), WaitApi::IoctlWait { driver_bkl_free: true })
        }
    };
    let mut sim = Simulator::new(machine, kernel, seed);
    let dev = match path {
        MatrixPath::Realfeel => {
            let rtc = sim.add_device(RtcDevice::new(2048));
            let nic =
                sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(Nanos::from_ms(20)))));
            let disk = sim.add_device(DiskDevice::new());
            stress_kernel(&mut sim, StressDevices { nic, disk });
            rtc
        }
        MatrixPath::Rcim => {
            let rcim = match variant {
                ModernVariant::ModernAll => sim.add_device(RcimDevice::modern(Nanos::from_ms(1))),
                _ => sim.add_device(RcimDevice::new(Nanos::from_ms(1))),
            };
            let nic = sim.add_device(NicDevice::new(Some(ttcp_ethernet_profile())));
            let disk = sim.add_device(DiskDevice::new());
            sim.add_device(GpuDevice::x11perf());
            stress_kernel(&mut sim, StressDevices { nic, disk });
            x11perf_driver(&mut sim);
            rcim
        }
    };
    let measured = CpuId(1);
    let prog = Program::forever(vec![Op::WaitIrq { device: dev, api }]);
    let spec = TaskSpec::new("measured", SchedPolicy::fifo(90), prog)
        .mlockall()
        .pinned(CpuMask::single(measured));
    let pid = sim.spawn(spec);
    sim.watch_latency(pid);
    sim.start();
    let mut plan = ShieldPlan::cpu(measured).bind_task(pid).bind_irq(dev);
    match variant {
        ModernVariant::Classic24 | ModernVariant::ThreadedIrq => {}
        ModernVariant::NohzFull => plan = plan.keep_local_timer(),
        ModernVariant::KthreadIso => plan = plan.fence_kthreads(),
        ModernVariant::ModernAll => plan = plan.keep_local_timer().fence_kthreads(),
    }
    Shell { sim, pid, shield: Shield::Plan(plan) }
}

/// The autopilot study's request-serving plant, started and unshielded
/// (the controller's `engage` applies the first rung).
pub fn plant(cfg: &AutopilotConfig) -> (Simulator, RequestService) {
    let mut sim =
        Simulator::new(MachineConfig::quad_xeon_server(), request_kernel_config(), cfg.seed);
    let svc = request_serving(&mut sim, diurnal_burst_profile(), CpuId(3), cfg.analytics);
    sim.start();
    (sim, svc)
}
