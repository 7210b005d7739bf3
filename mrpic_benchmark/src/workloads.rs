//! The six workloads, their fixed sizes, and the per-run context
//! (scratch directory, sibling binaries).

use crate::decks::Deck;
use std::path::PathBuf;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    UniformPlasma,
    LwfaWindowF32,
    MrHybrid,
    MrHybridDist2,
    CliSocket2,
    ServePreempt,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::UniformPlasma,
        Workload::LwfaWindowF32,
        Workload::MrHybrid,
        Workload::MrHybridDist2,
        Workload::CliSocket2,
        Workload::ServePreempt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformPlasma => "uniform_plasma",
            Workload::LwfaWindowF32 => "lwfa_window_f32",
            Workload::MrHybrid => "mr_hybrid",
            Workload::MrHybridDist2 => "mr_hybrid_dist2",
            Workload::CliSocket2 => "cli_socket2",
            Workload::ServePreempt => "serve_preempt",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The deck whose library state the traced pass probes: the
    /// workload's own deck, or for `serve_preempt` its long job's.
    pub fn deck(self) -> Deck {
        match self {
            Workload::UniformPlasma => Deck::UniformPlasma,
            Workload::LwfaWindowF32 | Workload::ServePreempt => Deck::LwfaWindowF32,
            Workload::MrHybrid | Workload::MrHybridDist2 | Workload::CliSocket2 => Deck::MrHybrid,
        }
    }

    /// In-process rank threads of the library loop.
    pub fn ranks(self) -> usize {
        if self == Workload::MrHybridDist2 {
            2
        } else {
            1
        }
    }

    /// Whether the final `state_digest` must agree across workloads.
    pub fn shares_mr_digest(self) -> bool {
        matches!(
            self,
            Workload::MrHybrid | Workload::MrHybridDist2 | Workload::CliSocket2
        )
    }
}

/// Step counts of one round. Fixed per deck — the same on every commit
/// — so a round is the same work whatever it costs; a run repeats whole
/// rounds until its `--seconds` are used.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub warmup: usize,
    pub timed: usize,
}

impl Sizes {
    /// The issue's 20 + {150, 800, 400} step counts scaled by ~0.27 so
    /// that three serial rounds fit a 15 s run; `lwfa_window_f32` warms
    /// up past its window start (step 49) so every timed step shifts.
    pub fn of(deck: Deck, smoke: bool) -> Self {
        if smoke {
            return Sizes {
                warmup: 1,
                timed: 5,
            };
        }
        match deck {
            Deck::UniformPlasma => Sizes {
                warmup: 5,
                timed: 40,
            },
            Deck::LwfaWindowF32 => Sizes {
                warmup: 60,
                timed: 240,
            },
            Deck::MrHybrid => Sizes {
                warmup: 7,
                timed: 100,
            },
        }
    }

    pub fn total(self) -> usize {
        self.warmup + self.timed
    }
}

/// Step budgets of the two `serve_preempt` jobs (low-priority
/// `lwfa_window_f32`, high-priority `mr_hybrid`).
pub const SERVE_BUDGETS: (u64, u64) = (240, 30);
/// The same scenario at the size the traced pass and `--smoke` use:
/// still one preemption at quantum 10.
pub const SERVE_BUDGETS_SMALL: (u64, u64) = (25, 5);

/// What one round measured.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    pub first_record_s: f64,
    pub run_wall_s: f64,
    /// Wall time of each timed step \[ms\].
    pub step_ms: Vec<f64>,
    /// Paper Eq. 1 numerator summed over the timed steps.
    pub fom_work: f64,
    /// Operations attempted (steps, or jobs for `serve_preempt`).
    pub ops: u64,
    pub failed: u64,
    pub digest: Option<u64>,
    /// Why operations count as failed.
    pub problems: Vec<String>,
}

/// Scratch directory inside the checkout, addressed by a short
/// *relative* path: Unix-socket paths (`sun_path`, 108 bytes) built
/// under it stay short however deep the checkout itself sits.
pub struct Scratch {
    pub root: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Self, String> {
        let root = PathBuf::from(format!(".bench_tmp/{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(Self { root })
    }

    /// A fresh subdirectory for one round's child processes.
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let p = self.root.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).map_err(|e| format!("create {}: {e}", p.display()))?;
        Ok(p)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Only removes the shared parent once the last run is gone.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Per-run inputs shared by all workloads.
pub struct Ctx {
    pub seed: u64,
    pub smoke: bool,
    pub scratch: Scratch,
}

/// A release binary built next to this one (`mrpic_run`, `mrpic_rank`,
/// `mrpic_serve`), or a clear error naming what is missing.
pub fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let dir = exe
        .parent()
        .ok_or_else(|| "this binary has no parent directory".to_string())?;
    let path = dir.join(name);
    if path.is_file() {
        std::path::absolute(&path).map_err(|e| format!("resolve {}: {e}", path.display()))
    } else {
        Err(format!(
            "binary {name} not found next to {} — build it with mrpic_benchmark/run.sh",
            exe.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn missing_binary_is_a_clear_error() {
        let err = sibling_binary("mrpic_no_such_binary").unwrap_err();
        assert!(err.contains("not found next to"), "{err}");
    }
}
