//! The `/proc/shield` file interface (§3 of the paper).
//!
//! RedHawk added a directory of three files, each holding a hex CPU bitmask:
//!
//! ```text
//! /proc/shield/procs     # CPUs shielded from processes
//! /proc/shield/irqs      # CPUs shielded from maskable interrupts
//! /proc/shield/ltmrs     # CPUs whose local timer interrupt is disabled
//! /proc/shield/kthreads  # CPUs fenced from housekeeping-kthread work
//! ```
//!
//! The fourth file is a post-paper extension backing the `kthread_iso`
//! kernel knob (softirq work raised on a fenced CPU is punted to a
//! housekeeping CPU); it accepts writes on any kernel but only changes
//! behaviour when the knob is on.
//!
//! Writing a mask dynamically (re)shields: affinity masks of every process
//! and interrupt are re-examined, current residents are migrated off, and
//! the local timer is switched per CPU. This module emulates those files on
//! top of the kernel mechanism, including the write-time validation a real
//! `/proc` handler performs.

use sp_hw::CpuMask;
use sp_kernel::Simulator;

/// Which shield file a read/write addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShieldFile {
    Procs,
    Irqs,
    Ltmrs,
    Kthreads,
}

impl ShieldFile {
    pub const ALL: [ShieldFile; 4] =
        [ShieldFile::Procs, ShieldFile::Irqs, ShieldFile::Ltmrs, ShieldFile::Kthreads];

    pub fn name(self) -> &'static str {
        match self {
            ShieldFile::Procs => "procs",
            ShieldFile::Irqs => "irqs",
            ShieldFile::Ltmrs => "ltmrs",
            ShieldFile::Kthreads => "kthreads",
        }
    }

    /// Parse a path like `/proc/shield/procs` or a bare file name.
    pub fn from_path(path: &str) -> Option<ShieldFile> {
        let name = path.trim().trim_end_matches('/').rsplit('/').next()?;
        match name {
            "procs" => Some(ShieldFile::Procs),
            "irqs" => Some(ShieldFile::Irqs),
            "ltmrs" => Some(ShieldFile::Ltmrs),
            "kthreads" => Some(ShieldFile::Kthreads),
            _ => None,
        }
    }
}

/// Errors a write can produce (mirroring `-EINVAL`-style rejections).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcWriteError {
    /// Not parseable as a hex mask.
    BadMask(String),
    /// Mask mentions CPUs that don't exist on this machine.
    OfflineCpus(CpuMask),
    /// The kernel refused the configuration (e.g. shielding every CPU, or a
    /// kernel without shield support).
    Rejected(String),
}

impl std::fmt::Display for ProcWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcWriteError::BadMask(s) => write!(f, "cannot parse '{s}' as a cpu mask"),
            ProcWriteError::OfflineCpus(m) => write!(f, "mask names offline cpus: {m}"),
            ProcWriteError::Rejected(msg) => write!(f, "kernel rejected shield write: {msg}"),
        }
    }
}

impl std::error::Error for ProcWriteError {}

/// Emulated `/proc/shield` directory bound to a simulator.
pub struct ProcShield;

impl ProcShield {
    /// Read one file: the current mask as hex, newline-terminated, exactly
    /// as `cat /proc/shield/procs` would print it.
    pub fn read(sim: &Simulator, file: ShieldFile) -> String {
        let ctl = sim.shield();
        let mask = match file {
            ShieldFile::Procs => ctl.procs,
            ShieldFile::Irqs => ctl.irqs,
            ShieldFile::Ltmrs => ctl.ltmrs,
            ShieldFile::Kthreads => ctl.kthreads,
        };
        format!("{mask}\n")
    }

    /// Write one file. The new mask takes effect immediately: affinities are
    /// recomputed, tasks migrate, interrupt routing changes, local timers
    /// switch.
    pub fn write(
        sim: &mut Simulator,
        file: ShieldFile,
        contents: &str,
    ) -> Result<(), ProcWriteError> {
        let mask: CpuMask = contents
            .parse()
            .map_err(|_| ProcWriteError::BadMask(contents.trim().to_string()))?;
        Self::write_mask(sim, file, mask)
    }

    /// [`ProcShield::write`] of an already-parsed mask.
    pub fn write_mask(
        sim: &mut Simulator,
        file: ShieldFile,
        mask: CpuMask,
    ) -> Result<(), ProcWriteError> {
        let online = sim.machine().online_mask();
        let offline = mask - online;
        if !offline.is_empty() {
            return Err(ProcWriteError::OfflineCpus(offline));
        }
        let mut ctl = sim.shield();
        match file {
            ShieldFile::Procs => ctl.procs = mask,
            ShieldFile::Irqs => ctl.irqs = mask,
            ShieldFile::Ltmrs => ctl.ltmrs = mask,
            ShieldFile::Kthreads => ctl.kthreads = mask,
        }
        sim.set_shield(ctl).map_err(ProcWriteError::Rejected)
    }

    /// Write every shield file at once (`shield -a <mask>` in RedHawk's
    /// tool, extended to cover the kthreads fence).
    pub fn write_all(sim: &mut Simulator, mask: CpuMask) -> Result<(), ProcWriteError> {
        for file in ShieldFile::ALL {
            Self::write_mask(sim, file, mask)?;
        }
        Ok(())
    }

    /// Render the whole directory, like `grep . /proc/shield/*`.
    pub fn status(sim: &Simulator) -> String {
        let mut out = String::new();
        for file in ShieldFile::ALL {
            out.push_str(&format!(
                "/proc/shield/{}:{}",
                file.name(),
                Self::read(sim, file)
            ));
        }
        out
    }
}
