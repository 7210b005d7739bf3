//! `mrpic` — mesh-refined electromagnetic Particle-In-Cell simulations.
//!
//! Umbrella crate re-exporting the whole workspace:
//!
//! * [`amr`] — block-structured mesh substrate (boxes, distribution
//!   mappings, staggered fab arrays, guard exchange);
//! * [`kernels`] — particle↔mesh hot loops (shape factors, field gather,
//!   Esirkepov current deposition, Boris/Vay pushers);
//! * [`field`] — Yee FDTD Maxwell solver, PML absorbing layers, moving
//!   window;
//! * [`core`] — the simulation driver: species, lasers, mesh refinement,
//!   diagnostics, load balancing;
//! * [`cluster`] — exascale machine models and the scaling/FOM/Flop-rate
//!   simulator used to regenerate the paper's performance studies;
//! * [`dist`] — multi-rank distributed runtime: message-passing halo
//!   exchange, particle migration, and box-migration load balancing over
//!   a pluggable transport;
//! * [`serve`] — multi-tenant job service: Unix-socket submission,
//!   weighted-fair scheduling, and checkpoint-backed preemption;
//! * [`trace`] — low-overhead span tracing, counters/histograms, Chrome
//!   trace export, and comm-matrix / critical-path analysis;
//! * [`obs`] — live observability plane: fleet metrics hub, Prometheus
//!   text exposition, scrape endpoint, and per-rank flight recorder.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory and the per-experiment index.

pub use mrpic_amr as amr;
pub use mrpic_cluster as cluster;
pub use mrpic_core as core;
pub use mrpic_dist as dist;
pub use mrpic_field as field;
pub use mrpic_kernels as kernels;
pub use mrpic_obs as obs;
pub use mrpic_serve as serve;
pub use mrpic_trace as trace;

/// Workspace version string.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Report a usage, config or IO error of a run driver (`mrpic_run`,
/// `mrpic_rank`) on stderr and exit 2 (`core::run::Exit::Usage`).
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(core::run::Exit::Usage.code());
}

/// End a printing CLI's write to stdout (`mrpic_run --serve-status`,
/// `mrpic_top`, `mrpic_prof`): a reader that closed the pipe early
/// (`| head`, `| grep -q`) is a clean exit 0, not the panic `print!`
/// raises; any other write error exits 1.
pub fn exit_on_stdout_error(written: std::io::Result<()>) {
    if let Err(e) = written {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}
