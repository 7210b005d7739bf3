//! Declarative run configuration (JSON), for the `mrpic_run` CLI.
//!
//! Everything the builder API exposes can be described in a config file:
//! domain, species with profiles, lasers, moving window, MR patches,
//! diagnostics cadence. See `configs/` at the repository root for
//! annotated samples.

use crate::laser::{LaserAntenna, Polarization};
use crate::mr::MrConfig;
use crate::profile::Profile;
use crate::sim::{Precision, ShapeOrder, Simulation, SimulationBuilder};
use crate::species::Species;
use mrpic_amr::{IndexBox, IntVect};
use mrpic_field::fieldset::Dim;
use mrpic_kernels::constants::{field_from_a0, M_E, M_P, Q_E};
use serde::{Deserialize, Serialize};

/// Top-level run description.
///
/// Unknown JSON keys are rejected (a typo'd key would otherwise silently
/// fall back to a default), and [`RunConfig::from_json`] range-checks the
/// numeric fields before handing them to the builder.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RunConfig {
    /// "2d" or "3d".
    pub dimension: String,
    pub cells: [i64; 3],
    /// Cell size \[m\] per axis.
    pub dx: [f64; 3],
    #[serde(default)]
    pub origin: [f64; 3],
    #[serde(default)]
    pub periodic: [bool; 3],
    #[serde(default = "default_cfl")]
    pub cfl: f64,
    /// 1, 2 or 3.
    #[serde(default = "default_order")]
    pub shape_order: usize,
    /// PML thickness in cells; 0 disables.
    #[serde(default)]
    pub pml: i64,
    /// Chop the domain into boxes of at most this size (enables the
    /// box-parallel particle advance); absent = one box.
    #[serde(default)]
    pub max_box: Option<[i64; 3]>,
    /// Moving-window start time \[s\]; absent = no window.
    #[serde(default)]
    pub moving_window_start: Option<f64>,
    #[serde(default)]
    pub filter_passes: usize,
    /// Particle-kernel precision: "f64" (bitwise-reproducible default)
    /// or "f32_particles" (single-precision gather/push/deposit).
    #[serde(default)]
    pub precision: Precision,
    #[serde(default = "default_seed")]
    pub seed: u64,
    #[serde(default)]
    pub species: Vec<SpeciesConfig>,
    #[serde(default)]
    pub lasers: Vec<LaserConfig>,
    #[serde(default)]
    pub mr_patches: Vec<MrPatchConfig>,
    /// Online load-balance policy (trigger → predict → adopt); absent =
    /// no live rebalancing.
    #[serde(default)]
    pub load_balance: Option<LoadBalanceConfig>,
    /// Stop after this physical time \[s\].
    pub t_end: f64,
    /// Diagnostics cadence in steps (0 = only at the end).
    #[serde(default)]
    pub diag_interval: u64,
    /// Physics-probe cadence in steps (field energy, Gauss residual);
    /// 0 disables the probes.
    #[serde(default = "default_probe_interval")]
    pub probe_interval: u64,
    /// NaN/Inf sentinel cadence in steps; 0 disables the sentinel.
    #[serde(default = "default_sentinel_interval")]
    pub sentinel_interval: u64,
    /// Rotate the telemetry JSONL sink once it exceeds this many bytes
    /// (`telemetry.jsonl` → `telemetry.jsonl.1`); 0 keeps one unbounded
    /// file.
    #[serde(default)]
    pub telemetry_rotate_bytes: u64,
}

fn default_cfl() -> f64 {
    0.7
}
fn default_order() -> usize {
    2
}

fn default_seed() -> u64 {
    20220101
}

fn default_probe_interval() -> u64 {
    20
}

fn default_sentinel_interval() -> u64 {
    1
}

/// One species entry.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SpeciesConfig {
    pub name: String,
    /// "electron", "proton", or "custom".
    #[serde(default = "default_kind")]
    pub kind: String,
    /// For `kind = "custom"`: charge \[C\] and mass \[kg\].
    #[serde(default)]
    pub charge: Option<f64>,
    #[serde(default)]
    pub mass: Option<f64>,
    pub ppc: [usize; 3],
    pub profile: ProfileConfig,
    #[serde(default)]
    pub u_drift: [f64; 3],
    #[serde(default)]
    pub u_thermal: [f64; 3],
}

fn default_kind() -> String {
    "electron".into()
}

/// Serializable density profile mirror of [`Profile`].
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case", deny_unknown_fields)]
pub enum ProfileConfig {
    Uniform {
        n0: f64,
    },
    Slab {
        n0: f64,
        axis: usize,
        x0: f64,
        x1: f64,
    },
    Ramped {
        n0: f64,
        axis: usize,
        up_start: f64,
        up_end: f64,
        down_start: f64,
        down_end: f64,
    },
    Gaussian {
        n0: f64,
        axis: usize,
        x0: f64,
        sigma: f64,
    },
    Sum {
        parts: Vec<ProfileConfig>,
    },
}

impl ProfileConfig {
    pub fn build(&self) -> Profile {
        match self {
            ProfileConfig::Uniform { n0 } => Profile::Uniform { n0: *n0 },
            ProfileConfig::Slab { n0, axis, x0, x1 } => Profile::Slab {
                n0: *n0,
                axis: *axis,
                x0: *x0,
                x1: *x1,
            },
            ProfileConfig::Ramped {
                n0,
                axis,
                up_start,
                up_end,
                down_start,
                down_end,
            } => Profile::Ramped {
                n0: *n0,
                axis: *axis,
                up_start: *up_start,
                up_end: *up_end,
                down_start: *down_start,
                down_end: *down_end,
            },
            ProfileConfig::Gaussian {
                n0,
                axis,
                x0,
                sigma,
            } => Profile::Gaussian {
                n0: *n0,
                axis: *axis,
                x0: *x0,
                sigma: *sigma,
            },
            ProfileConfig::Sum { parts } => Profile::Sum(parts.iter().map(|p| p.build()).collect()),
        }
    }
}

/// One laser antenna entry.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct LaserConfig {
    /// Normalized amplitude.
    pub a0: f64,
    pub wavelength: f64,
    /// Intensity-FWHM duration \[s\].
    pub tau_fwhm: f64,
    pub t_peak: f64,
    /// Emission plane x \[m\].
    pub x_plane: f64,
    /// Transverse center \[m\].
    #[serde(default)]
    pub z0: f64,
    /// 3-D transverse (y) center \[m\].
    #[serde(default)]
    pub y0: f64,
    /// Waist \[m\]; absent = plane wave.
    #[serde(default)]
    pub waist: Option<f64>,
    /// Incidence angle \[deg\] from the x axis.
    #[serde(default)]
    pub angle_deg: f64,
    /// "s" or "p".
    #[serde(default = "default_pol")]
    pub polarization: String,
}

fn default_pol() -> String {
    "s".into()
}

/// One mesh-refinement patch entry.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MrPatchConfig {
    pub lo: [i64; 3],
    pub hi: [i64; 3],
    #[serde(default = "default_rr")]
    pub rr: i64,
    #[serde(default = "default_ntrans")]
    pub n_transition: i64,
    #[serde(default = "default_patch_pml")]
    pub npml: i64,
    #[serde(default)]
    pub subcycle: bool,
    /// Remove the patch at this time \[s\], if set.
    #[serde(default)]
    pub remove_at: Option<f64>,
}

fn default_rr() -> i64 {
    2
}
fn default_ntrans() -> i64 {
    2
}
/// Thinnest PML (`pml`, patch `npml`) that still absorbs; the field
/// crate refuses to build a thinner one.
const MIN_PML: i64 = 4;

fn default_patch_pml() -> i64 {
    8
}

/// Online load-balance policy knobs (see
/// [`crate::balance::LbPolicyCfg`], which every field maps onto 1:1
/// except `ranks` — in a distributed run the endpoint count wins).
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct LoadBalanceConfig {
    /// Rank count candidates are evaluated over in a single-process
    /// run; a `DistSim` overrides it with the real endpoint count.
    #[serde(default = "default_lb_ranks")]
    pub ranks: usize,
    /// Max/mean imbalance that arms the trigger (>= 1).
    #[serde(default = "default_lb_threshold")]
    pub threshold: f64,
    /// Consecutive over-threshold steps before evaluating (>= 1).
    #[serde(default = "default_lb_patience")]
    pub patience: u64,
    /// Minimum predicted relative imbalance improvement, in [0, 1).
    #[serde(default = "default_lb_min_gain")]
    pub min_gain: f64,
    /// Steps migration cost is amortized over (>= 1).
    #[serde(default = "default_lb_horizon")]
    pub horizon: u64,
    /// Migration-model per-message latency \[s\].
    #[serde(default = "default_lb_latency")]
    pub latency: f64,
    /// Migration-model link bandwidth \[B/s\].
    #[serde(default = "default_lb_bandwidth")]
    pub bandwidth: f64,
    /// Steps the trigger stays disarmed after an evaluation.
    #[serde(default = "default_lb_cooldown")]
    pub cooldown: u64,
    /// "measured" (wall-clock box seconds) or "heuristic"
    /// (deterministic cell/particle-count FOM).
    #[serde(default)]
    pub cost_source: crate::balance::CostSource,
    /// Seconds per cost unit when predicting step savings.
    #[serde(default = "default_lb_cost_scale")]
    pub cost_scale: f64,
}

fn default_lb_ranks() -> usize {
    1
}
fn default_lb_threshold() -> f64 {
    crate::balance::LbPolicyCfg::default().threshold
}
fn default_lb_patience() -> u64 {
    crate::balance::LbPolicyCfg::default().patience
}
fn default_lb_min_gain() -> f64 {
    crate::balance::LbPolicyCfg::default().min_gain
}
fn default_lb_horizon() -> u64 {
    crate::balance::LbPolicyCfg::default().horizon
}
fn default_lb_latency() -> f64 {
    crate::balance::LbPolicyCfg::default().latency
}
fn default_lb_bandwidth() -> f64 {
    crate::balance::LbPolicyCfg::default().bandwidth
}
fn default_lb_cooldown() -> u64 {
    crate::balance::LbPolicyCfg::default().cooldown
}
fn default_lb_cost_scale() -> f64 {
    crate::balance::LbPolicyCfg::default().cost_scale
}

impl LoadBalanceConfig {
    /// Lower to the policy configuration the builder consumes.
    pub fn to_policy_cfg(&self) -> crate::balance::LbPolicyCfg {
        crate::balance::LbPolicyCfg {
            nranks: self.ranks,
            threshold: self.threshold,
            patience: self.patience,
            min_gain: self.min_gain,
            horizon: self.horizon,
            latency: self.latency,
            bandwidth: self.bandwidth,
            cooldown: self.cooldown,
            cost_source: self.cost_source,
            cost_scale: self.cost_scale,
        }
    }
}

impl RunConfig {
    pub fn from_json(text: &str) -> Result<Self, String> {
        let cfg: Self = serde_json::from_str(text).map_err(|e| e.to_string())?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Range-check the numeric fields with actionable messages.
    pub fn validate(&self) -> Result<(), String> {
        match self.dimension.as_str() {
            "2d" | "2D" | "3d" | "3D" => {}
            other => {
                return Err(format!(
                    "dimension must be \"2d\" or \"3d\", got \"{other}\""
                ))
            }
        }
        if !(self.cfl > 0.0 && self.cfl <= 1.0) {
            return Err(format!(
                "cfl must be in (0, 1], got {} (the Yee solver is unstable above \
                 the Courant limit)",
                self.cfl
            ));
        }
        if !(1..=3).contains(&self.shape_order) {
            return Err(format!(
                "shape_order must be 1 (linear), 2 (quadratic) or 3 (cubic), got {}",
                self.shape_order
            ));
        }
        for d in 0..3 {
            if self.cells[d] < 1 {
                return Err(format!("cells[{d}] must be >= 1, got {}", self.cells[d]));
            }
            if !(self.dx[d] > 0.0 && self.dx[d].is_finite()) {
                return Err(format!(
                    "dx[{d}] must be a positive length in meters, got {}",
                    self.dx[d]
                ));
            }
        }
        if let Some(mb) = self.max_box {
            for d in 0..3 {
                if mb[d] < 1 {
                    return Err(format!(
                        "max_box[{d}] must be >= 1 cell, got {} (omit max_box for \
                         one box)",
                        mb[d]
                    ));
                }
            }
        }
        if self.dim()? == Dim::Two && self.cells[1] != 1 {
            return Err(format!(
                "2d runs use a single y cell: cells[1] must be 1, got {}",
                self.cells[1]
            ));
        }
        if self.precision == Precision::F32Particles && !self.mr_patches.is_empty() {
            return Err(
                "precision \"f32_particles\" cannot be combined with mr_patches \
                 (mesh refinement is only validated in f64)"
                    .into(),
            );
        }
        if self.pml < 0 {
            return Err(format!(
                "pml must be >= 0 cells (0 disables it), got {}",
                self.pml
            ));
        }
        if (1..MIN_PML).contains(&self.pml) {
            return Err(format!(
                "pml must be 0 (disabled) or >= {MIN_PML} cells, got {} (a thinner \
                 layer cannot absorb)",
                self.pml
            ));
        }
        let dim = self.dim()?;
        if self.pml > 0 && dim.axes().iter().all(|&d| self.periodic[d]) {
            return Err(format!(
                "pml = {} needs a non-periodic axis, but every real axis of this {} \
                 deck is periodic (set pml to 0)",
                self.pml, self.dimension
            ));
        }
        if !(self.t_end > 0.0 && self.t_end.is_finite()) {
            return Err(format!(
                "t_end must be a positive time in seconds, got {}",
                self.t_end
            ));
        }
        for (i, sc) in self.species.iter().enumerate() {
            match sc.kind.as_str() {
                "electron" | "proton" => {}
                "custom" => {
                    if sc.charge.is_none() || sc.mass.is_none() {
                        return Err(format!(
                            "species[{i}] \"{}\": kind \"custom\" needs both \
                             charge [C] and mass [kg]",
                            sc.name
                        ));
                    }
                }
                k => {
                    return Err(format!(
                        "species[{i}] \"{}\": kind must be \"electron\", \
                         \"proton\" or \"custom\", got \"{k}\"",
                        sc.name
                    ))
                }
            }
            if sc.ppc.contains(&0) {
                return Err(format!(
                    "species[{i}] \"{}\": every ppc component must be >= 1, \
                     got {:?}",
                    sc.name, sc.ppc
                ));
            }
        }
        for (i, lc) in self.lasers.iter().enumerate() {
            if !(lc.wavelength > 0.0 && lc.wavelength.is_finite()) {
                return Err(format!(
                    "lasers[{i}]: wavelength must be a positive length in meters, got {}",
                    lc.wavelength
                ));
            }
            if !(lc.tau_fwhm > 0.0 && lc.tau_fwhm.is_finite()) {
                return Err(format!(
                    "lasers[{i}]: tau_fwhm must be a positive duration in seconds, got {}",
                    lc.tau_fwhm
                ));
            }
            if let Some(w) = lc.waist {
                if !(w > 0.0 && w.is_finite()) {
                    return Err(format!(
                        "lasers[{i}]: waist must be a positive length in meters \
                         (omit it for a plane wave), got {w}"
                    ));
                }
            }
            if !matches!(lc.polarization.as_str(), "s" | "S" | "p" | "P") {
                return Err(format!(
                    "lasers[{i}]: polarization must be \"s\" or \"p\", got \"{}\"",
                    lc.polarization
                ));
            }
        }
        if let Some(lb) = &self.load_balance {
            if lb.ranks < 1 {
                return Err(format!("load_balance.ranks must be >= 1, got {}", lb.ranks));
            }
            if !(lb.threshold >= 1.0 && lb.threshold.is_finite()) {
                return Err(format!(
                    "load_balance.threshold is a max/mean imbalance ratio and must \
                     be >= 1.0, got {}",
                    lb.threshold
                ));
            }
            if lb.patience < 1 {
                return Err(format!(
                    "load_balance.patience must be >= 1 step, got {}",
                    lb.patience
                ));
            }
            if !(0.0..1.0).contains(&lb.min_gain) {
                return Err(format!(
                    "load_balance.min_gain must be in [0, 1), got {}",
                    lb.min_gain
                ));
            }
            if lb.horizon < 1 {
                return Err(format!(
                    "load_balance.horizon must be >= 1 step, got {}",
                    lb.horizon
                ));
            }
            if !(lb.latency >= 0.0 && lb.latency.is_finite()) {
                return Err(format!(
                    "load_balance.latency must be >= 0 seconds, got {}",
                    lb.latency
                ));
            }
            if !(lb.bandwidth > 0.0 && lb.bandwidth.is_finite()) {
                return Err(format!(
                    "load_balance.bandwidth must be a positive byte rate, got {}",
                    lb.bandwidth
                ));
            }
            if !(lb.cost_scale > 0.0 && lb.cost_scale.is_finite()) {
                return Err(format!(
                    "load_balance.cost_scale must be a positive seconds-per-cost \
                     factor, got {}",
                    lb.cost_scale
                ));
            }
        }
        if self.mr_patches.len() > 1 {
            return Err(format!(
                "mr_patches[1]: only one refinement patch is supported at a time, \
                 got {} patches",
                self.mr_patches.len()
            ));
        }
        for (i, mp) in self.mr_patches.iter().enumerate() {
            if mp.npml < MIN_PML {
                return Err(format!(
                    "mr_patches[{i}]: npml must be >= {MIN_PML} cells, got {} (patch \
                     grids are always PML-terminated)",
                    mp.npml
                ));
            }
            if mp.rr < 2 {
                return Err(format!(
                    "mr_patches[{i}]: refinement ratio rr must be >= 2, got {}",
                    mp.rr
                ));
            }
            for d in 0..3 {
                if mp.lo[d] >= mp.hi[d] {
                    return Err(format!(
                        "mr_patches[{i}]: lo[{d}] ({}) must be below hi[{d}] ({})",
                        mp.lo[d], mp.hi[d]
                    ));
                }
                if mp.lo[d] < 0 || mp.hi[d] > self.cells[d] {
                    return Err(format!(
                        "mr_patches[{i}]: the patch must lie inside [0, cells), but \
                         lo[{d}] = {} and hi[{d}] = {} with cells[{d}] = {}",
                        mp.lo[d], mp.hi[d], self.cells[d]
                    ));
                }
            }
            if mp.subcycle {
                // c dt < dx_fine = dx/rr requires cfl < sqrt(d)/rr.
                let axes = if self.dim()? == Dim::Two { 2.0 } else { 3.0 };
                let max_cfl = f64::sqrt(axes) / mp.rr as f64;
                if self.cfl >= max_cfl {
                    return Err(format!(
                        "mr_patches[{i}]: subcycling at rr = {} needs cfl < {max_cfl:.3}, \
                         got {} (particle moves must stay below one fine cell)",
                        mp.rr, self.cfl
                    ));
                }
            }
        }
        Ok(())
    }

    pub fn dim(&self) -> Result<Dim, String> {
        match self.dimension.as_str() {
            "2d" | "2D" => Ok(Dim::Two),
            "3d" | "3D" => Ok(Dim::Three),
            other => Err(format!(
                "dimension must be \"2d\" or \"3d\", got \"{other}\""
            )),
        }
    }

    /// Build the simulation (MR patch removal times are returned for the
    /// run loop to act on). Re-validates first, so a hand-constructed
    /// config with bad fields returns an actionable error instead of
    /// aborting the process.
    pub fn build(&self) -> Result<(Simulation, Vec<f64>), String> {
        self.validate()?;
        let dim = self.dim()?;
        let mut b = SimulationBuilder::new(dim)
            .domain(
                IntVect::new(self.cells[0], self.cells[1], self.cells[2]),
                self.dx,
                self.origin,
            )
            .periodic(self.periodic)
            .cfl(self.cfl)
            .order(match self.shape_order {
                1 => ShapeOrder::Linear,
                2 => ShapeOrder::Quadratic,
                3 => ShapeOrder::Cubic,
                o => {
                    return Err(format!(
                        "shape_order must be 1 (linear), 2 (quadratic) or 3 (cubic), got {o}"
                    ))
                }
            })
            .seed(self.seed)
            .filter_passes(self.filter_passes)
            .precision(self.precision);
        if self.pml > 0 {
            b = b.pml(self.pml);
        }
        if let Some(mb) = self.max_box {
            b = b.max_box(IntVect::new(mb[0], mb[1], mb[2]));
        }
        if let Some(t) = self.moving_window_start {
            b = b.moving_window(t);
        }
        if let Some(lb) = &self.load_balance {
            b = b.load_balance(lb.to_policy_cfg());
        }
        for sc in &self.species {
            let (q, m) = match sc.kind.as_str() {
                "electron" => (-Q_E, M_E),
                "proton" => (Q_E, M_P),
                "custom" => (
                    sc.charge.ok_or_else(|| {
                        format!("species \"{}\": kind \"custom\" needs charge [C]", sc.name)
                    })?,
                    sc.mass.ok_or_else(|| {
                        format!("species \"{}\": kind \"custom\" needs mass [kg]", sc.name)
                    })?,
                ),
                k => {
                    return Err(format!(
                        "species \"{}\": kind must be \"electron\", \"proton\" or \
                         \"custom\", got \"{k}\"",
                        sc.name
                    ))
                }
            };
            let mut sp = Species::electrons(&sc.name, sc.profile.build(), sc.ppc)
                .with_drift(sc.u_drift)
                .with_thermal(sc.u_thermal);
            sp.charge = q;
            sp.mass = m;
            b = b.add_species(sp);
        }
        for lc in &self.lasers {
            let ant = LaserAntenna {
                x_plane: lc.x_plane,
                e0: field_from_a0(lc.a0, lc.wavelength),
                lambda: lc.wavelength,
                tau_fwhm: lc.tau_fwhm,
                t_peak: lc.t_peak,
                z0: lc.z0,
                y0: lc.y0,
                waist: lc.waist.unwrap_or(f64::INFINITY),
                theta: lc.angle_deg.to_radians(),
                pol: match lc.polarization.as_str() {
                    "p" | "P" => Polarization::P,
                    _ => Polarization::S,
                },
            };
            b = b.add_laser(ant);
        }
        let mut sim = b.build();
        sim.telemetry.cfg.probe_interval = self.probe_interval;
        sim.telemetry.cfg.sentinel_interval = self.sentinel_interval;
        sim.telemetry.cfg.rotate_bytes = self.telemetry_rotate_bytes;
        for mp in &self.mr_patches {
            sim.add_mr_patch(MrConfig {
                patch: IndexBox::new(mp.lo.into(), mp.hi.into()),
                rr: mp.rr,
                n_transition: mp.n_transition,
                npml: mp.npml,
                subcycle: mp.subcycle,
            });
        }
        Ok((sim, self.removal_times()))
    }

    /// MR patch removal times, one per patch (`INFINITY`: never).
    pub fn removal_times(&self) -> Vec<f64> {
        self.mr_patches
            .iter()
            .map(|mp| mp.remove_at.unwrap_or(f64::INFINITY))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "dimension": "2d",
        "cells": [64, 1, 16],
        "dx": [1e-7, 1e-7, 1e-7],
        "periodic": [false, false, true],
        "pml": 8,
        "cfl": 0.6,
        "shape_order": 2,
        "t_end": 2e-14,
        "filter_passes": 1,
        "species": [
            {
                "name": "gas",
                "ppc": [1, 1, 2],
                "profile": {"type": "uniform", "n0": 1e24},
                "u_thermal": [1e6, 0.0, 0.0]
            }
        ],
        "lasers": [
            {
                "a0": 1.0,
                "wavelength": 8e-7,
                "tau_fwhm": 5e-15,
                "t_peak": 8e-15,
                "x_plane": 1e-6
            }
        ],
        "mr_patches": [
            {"lo": [24, 0, 0], "hi": [48, 1, 16], "remove_at": 1.5e-14}
        ]
    }"#;

    #[test]
    fn parses_and_builds_sample() {
        let cfg = RunConfig::from_json(SAMPLE).unwrap();
        assert_eq!(cfg.dim(), Ok(Dim::Two));
        assert_eq!(cfg.shape_order, 2);
        let (sim, removals) = cfg.build().unwrap();
        assert_eq!(sim.species.len(), 1);
        assert_eq!(sim.lasers.len(), 1);
        assert!(sim.mr.is_some());
        assert_eq!(removals, vec![1.5e-14]);
        assert!(sim.total_particles() > 0);
        assert!((sim.lasers[0].a0() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_run_executes() {
        let cfg = RunConfig::from_json(SAMPLE).unwrap();
        let (mut sim, _) = cfg.build().unwrap();
        sim.run(3);
        assert_eq!(sim.istep, 3);
    }

    #[test]
    fn roundtrips_through_serde() {
        let cfg = RunConfig::from_json(SAMPLE).unwrap();
        let text = serde_json::to_string(&cfg).unwrap();
        let back = RunConfig::from_json(&text).unwrap();
        assert_eq!(back.cells, cfg.cells);
        assert_eq!(back.species.len(), 1);
    }

    #[test]
    fn rejects_bad_dimension() {
        let mut cfg = RunConfig::from_json(SAMPLE).unwrap();
        cfg.dimension = "4d".into();
        let err = cfg.dim().unwrap_err();
        assert!(err.contains("dimension must be"), "{err}");
        // build() revalidates, so it errors instead of aborting.
        let err = cfg.build().err().unwrap();
        assert!(err.contains("dimension must be"), "{err}");
    }

    #[test]
    fn build_surfaces_errors_without_panicking() {
        // A config mutated after parsing (bypassing from_json's validate)
        // must still fail gracefully.
        let mut cfg = RunConfig::from_json(SAMPLE).unwrap();
        cfg.shape_order = 7;
        let err = cfg.build().err().unwrap();
        assert!(err.contains("shape_order must be"), "{err}");
        let mut cfg = RunConfig::from_json(SAMPLE).unwrap();
        cfg.species[0].kind = "positronium".into();
        let err = cfg.build().err().unwrap();
        assert!(err.contains("kind must be"), "{err}");
        let mut cfg = RunConfig::from_json(SAMPLE).unwrap();
        cfg.species[0].kind = "custom".into();
        let err = cfg.build().err().unwrap();
        assert!(err.contains("custom"), "{err}");
    }

    #[test]
    fn rejects_unknown_top_level_key() {
        let text = SAMPLE.replacen("\"pml\"", "\"pml_cells\"", 1);
        let err = RunConfig::from_json(&text).unwrap_err();
        assert!(err.contains("unknown field `pml_cells`"), "{err}");
        assert!(err.contains("expected one of"), "{err}");
    }

    #[test]
    fn rejects_unknown_species_key() {
        let text = SAMPLE.replacen("\"u_thermal\"", "\"u_termal\"", 1);
        let err = RunConfig::from_json(&text).unwrap_err();
        assert!(err.contains("unknown field `u_termal`"), "{err}");
    }

    #[test]
    fn rejects_unknown_profile_key() {
        let text = SAMPLE.replacen(
            "\"type\": \"uniform\", \"n0\"",
            "\"type\": \"uniform\", \"dens\"",
            1,
        );
        let err = RunConfig::from_json(&text).unwrap_err();
        assert!(err.contains("unknown field `dens`"), "{err}");
    }

    #[test]
    fn validate_rejects_bad_cfl() {
        let mut cfg = RunConfig::from_json(SAMPLE).unwrap();
        cfg.cfl = 1.3;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("cfl must be in (0, 1]"), "{err}");
        cfg.cfl = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_order_and_cells() {
        let mut cfg = RunConfig::from_json(SAMPLE).unwrap();
        cfg.shape_order = 4;
        assert!(cfg.validate().unwrap_err().contains("shape_order"));
        cfg.shape_order = 2;
        cfg.cells[0] = 0;
        assert!(cfg.validate().unwrap_err().contains("cells[0]"));
        cfg.cells[0] = 64;
        cfg.cells[1] = 4; // 2d must keep one y cell
        assert!(cfg.validate().unwrap_err().contains("cells[1]"));
        cfg.cells[1] = 1;
        cfg.dx[2] = -1.0;
        assert!(cfg.validate().unwrap_err().contains("dx[2]"));
    }

    #[test]
    fn validate_rejects_bad_species_and_patches() {
        let mut cfg = RunConfig::from_json(SAMPLE).unwrap();
        cfg.species[0].kind = "custom".into();
        assert!(cfg.validate().unwrap_err().contains("custom"));
        cfg.species[0].charge = Some(-1.0e-19);
        cfg.species[0].mass = Some(9.0e-31);
        assert!(cfg.validate().is_ok());
        cfg.mr_patches[0].rr = 1;
        assert!(cfg.validate().unwrap_err().contains("rr"));
        cfg.mr_patches[0].rr = 2;
        cfg.mr_patches[0].hi[0] = cfg.mr_patches[0].lo[0];
        assert!(cfg.validate().unwrap_err().contains("lo[0]"));
    }

    /// Both `validate()` and `build()` refuse `cfg` with a message
    /// naming `want`.
    fn assert_rejected(cfg: &RunConfig, want: &str) {
        let err = cfg.validate().unwrap_err();
        assert!(err.contains(want), "{err}");
        let err = cfg.build().err().unwrap();
        assert!(err.contains(want), "{err}");
    }

    #[test]
    fn validate_rejects_patch_outside_domain() {
        let mut cfg = RunConfig::from_json(SAMPLE).unwrap();
        cfg.mr_patches[0].hi[0] = 65; // cells[0] = 64
        assert_rejected(&cfg, "mr_patches[0]: the patch must lie inside [0, cells)");
        cfg.mr_patches[0].hi[0] = 48;
        cfg.mr_patches[0].lo[2] = -1;
        assert_rejected(&cfg, "mr_patches[0]: the patch must lie inside [0, cells)");
        // In 2d the patch spans the single y cell.
        cfg.mr_patches[0].lo[2] = 0;
        cfg.mr_patches[0].hi[1] = 0;
        assert_rejected(&cfg, "mr_patches[0]: lo[1] (0) must be below hi[1] (0)");
    }

    #[test]
    fn validate_rejects_non_positive_max_box() {
        let mut cfg = RunConfig::from_json(SAMPLE).unwrap();
        cfg.max_box = Some([32, 1, 16]);
        cfg.validate().unwrap();
        cfg.max_box = Some([0, 1, 0]);
        assert_rejected(&cfg, "max_box[0] must be >= 1 cell, got 0");
        cfg.max_box = Some([-4, 1, 16]);
        assert_rejected(&cfg, "max_box[0] must be >= 1 cell, got -4");
        cfg.max_box = Some([32, 1, 0]);
        assert_rejected(&cfg, "max_box[2] must be >= 1 cell, got 0");
    }

    #[test]
    fn validate_rejects_bad_laser_fields() {
        let base = RunConfig::from_json(SAMPLE).unwrap();
        let with = |f: &dyn Fn(&mut LaserConfig)| {
            let mut cfg = base.clone();
            f(&mut cfg.lasers[0]);
            cfg
        };
        for bad in [0.0, -8e-7, f64::NAN, f64::INFINITY] {
            assert_rejected(
                &with(&|l| l.wavelength = bad),
                "lasers[0]: wavelength must be a positive length",
            );
            assert_rejected(
                &with(&|l| l.tau_fwhm = bad),
                "lasers[0]: tau_fwhm must be a positive duration",
            );
            assert_rejected(
                &with(&|l| l.waist = Some(bad)),
                "lasers[0]: waist must be a positive length",
            );
        }
        assert_rejected(
            &with(&|l| l.polarization = "q".into()),
            "lasers[0]: polarization must be \"s\" or \"p\", got \"q\"",
        );
        for ok in ["s", "S", "p", "P"] {
            with(&|l| l.polarization = ok.into()).validate().unwrap();
        }
        with(&|l| l.waist = Some(2e-6)).validate().unwrap();
    }

    #[test]
    fn validate_rejects_thin_or_useless_pml() {
        let mut cfg = RunConfig::from_json(SAMPLE).unwrap();
        for thin in 1..4 {
            cfg.pml = thin;
            assert_rejected(
                &cfg,
                &format!("pml must be 0 (disabled) or >= 4 cells, got {thin}"),
            );
        }
        cfg.pml = 4;
        cfg.validate().unwrap();
        cfg.mr_patches[0].npml = 2;
        assert_rejected(&cfg, "mr_patches[0]: npml must be >= 4 cells, got 2");
        cfg.mr_patches[0].npml = 4;
        cfg.validate().unwrap();
        // All real axes periodic: no axis could carry a layer. The
        // collapsed 2-D y axis does not count either way.
        cfg.periodic = [true, false, true];
        assert_rejected(&cfg, "pml = 4 needs a non-periodic axis");
        cfg.pml = 0;
        cfg.validate().unwrap();
    }

    #[test]
    fn validate_rejects_second_patch() {
        let mut cfg = RunConfig::from_json(SAMPLE).unwrap();
        let second = cfg.mr_patches[0].clone();
        cfg.mr_patches.push(second);
        assert_rejected(&cfg, "mr_patches[1]: only one refinement patch");
    }

    #[test]
    fn validate_rejects_subcycling_above_fine_courant_limit() {
        // 2d at rr = 2: subcycling needs cfl < sqrt(2)/2 ~ 0.707.
        let mut cfg = RunConfig::from_json(SAMPLE).unwrap();
        cfg.mr_patches[0].subcycle = true;
        cfg.validate().unwrap();
        cfg.cfl = 0.8;
        assert_rejected(
            &cfg,
            "mr_patches[0]: subcycling at rr = 2 needs cfl < 0.707",
        );
        cfg.mr_patches[0].subcycle = false;
        cfg.validate().unwrap();
    }

    #[test]
    fn precision_field_roundtrips_and_validates() {
        // Default is f64 and serializes to the exact snake_case string.
        let cfg = RunConfig::from_json(SAMPLE).unwrap();
        assert_eq!(cfg.precision, Precision::F64);
        let text = serde_json::to_string(&cfg).unwrap();
        assert!(text.contains("\"precision\":\"f64\""), "{text}");
        let back = RunConfig::from_json(&text).unwrap();
        assert_eq!(back.precision, Precision::F64);

        // f32_particles parses, round-trips, and flows into the builder
        // (the sample has an MR patch, which f32 rejects — drop it).
        let mut cfg = RunConfig::from_json(SAMPLE).unwrap();
        cfg.precision = Precision::F32Particles;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("f32_particles"), "{err}");
        cfg.mr_patches.clear();
        cfg.validate().unwrap();
        let text = serde_json::to_string(&cfg).unwrap();
        assert!(text.contains("\"precision\":\"f32_particles\""), "{text}");
        let back = RunConfig::from_json(&text).unwrap();
        assert_eq!(back.precision, Precision::F32Particles);
        let (sim, _) = back.build().unwrap();
        assert_eq!(sim.precision, Precision::F32Particles);

        // Unknown precision strings are rejected by serde.
        let text = text.replacen("f32_particles", "f16_particles", 1);
        assert!(RunConfig::from_json(&text).is_err());
    }

    /// The kernel family is not configurable and every step emits its
    /// telemetry record: a deck still carrying one of the retired
    /// kernel-selection keys or the telemetry off-switch is rejected by
    /// name instead of being silently ignored.
    #[test]
    fn rejects_retired_kernel_keys() {
        for frag in [
            "\"lane_width\": 8,",
            "\"optimized_kernels\": false,",
            "\"telemetry\": false,",
        ] {
            let text =
                SAMPLE.replacen("\"t_end\": 2e-14,", &format!("\"t_end\": 2e-14, {frag}"), 1);
            let err = RunConfig::from_json(&text).unwrap_err();
            let key = frag.split('"').nth(1).unwrap();
            assert!(err.contains(&format!("unknown field `{key}`")), "{err}");
        }
    }

    #[test]
    fn telemetry_knobs_flow_into_simulation() {
        let text = SAMPLE.replacen(
            "\"t_end\": 2e-14,",
            "\"t_end\": 2e-14, \"probe_interval\": 5, \"sentinel_interval\": 0, \
             \"telemetry_rotate_bytes\": 1048576,",
            1,
        );
        let cfg = RunConfig::from_json(&text).unwrap();
        let (sim, _) = cfg.build().unwrap();
        assert_eq!(sim.telemetry.cfg.probe_interval, 5);
        assert_eq!(sim.telemetry.cfg.sentinel_interval, 0);
        assert_eq!(sim.telemetry.cfg.rotate_bytes, 1 << 20);
    }

    #[test]
    fn load_balance_section_parses_validates_and_flows() {
        let text = SAMPLE.replacen(
            "\"t_end\": 2e-14,",
            "\"t_end\": 2e-14, \"load_balance\": {\"ranks\": 2, \"threshold\": 1.1, \
             \"patience\": 2, \"cost_source\": \"heuristic\"},",
            1,
        );
        let cfg = RunConfig::from_json(&text).unwrap();
        let lb = cfg.load_balance.as_ref().unwrap();
        assert_eq!(lb.ranks, 2);
        assert_eq!(lb.cost_source, crate::balance::CostSource::Heuristic);
        // Unspecified knobs take the policy defaults.
        assert_eq!(lb.horizon, crate::balance::LbPolicyCfg::default().horizon);
        let (sim, _) = cfg.build().unwrap();
        let policy = sim.lb.as_ref().expect("policy enabled");
        assert_eq!(policy.cfg().nranks, 2);
        assert!((policy.cfg().threshold - 1.1).abs() < 1e-12);
        // Absent section → no policy.
        let (sim, _) = RunConfig::from_json(SAMPLE).unwrap().build().unwrap();
        assert!(sim.lb.is_none());
        // Unknown keys inside the section are rejected.
        let bad = text.replacen("\"patience\"", "\"patients\"", 1);
        let err = RunConfig::from_json(&bad).unwrap_err();
        assert!(err.contains("unknown field `patients`"), "{err}");
    }

    #[test]
    fn validate_rejects_bad_load_balance_knobs() {
        let with = |frag: &str| {
            let text = SAMPLE.replacen(
                "\"t_end\": 2e-14,",
                &format!("\"t_end\": 2e-14, \"load_balance\": {{{frag}}},"),
                1,
            );
            RunConfig::from_json(&text).unwrap_err()
        };
        assert!(with("\"ranks\": 0").contains("load_balance.ranks"));
        assert!(with("\"threshold\": 0.9").contains("load_balance.threshold"));
        assert!(with("\"patience\": 0").contains("load_balance.patience"));
        assert!(with("\"min_gain\": 1.0").contains("load_balance.min_gain"));
        assert!(with("\"horizon\": 0").contains("load_balance.horizon"));
        assert!(with("\"latency\": -1e-6").contains("load_balance.latency"));
        assert!(with("\"bandwidth\": 0.0").contains("load_balance.bandwidth"));
        assert!(with("\"cost_scale\": 0.0").contains("load_balance.cost_scale"));
        let err = with("\"cost_source\": \"oracle\"");
        assert!(
            err.contains("oracle") || err.contains("unknown variant"),
            "{err}"
        );
    }

    #[test]
    fn profile_configs_match_profiles() {
        let p = ProfileConfig::Sum {
            parts: vec![
                ProfileConfig::Uniform { n0: 1.0 },
                ProfileConfig::Gaussian {
                    n0: 2.0,
                    axis: 0,
                    x0: 0.0,
                    sigma: 1.0,
                },
            ],
        }
        .build();
        assert!((p.density(0.0, 0.0, 0.0) - 3.0).abs() < 1e-12);
    }
}
