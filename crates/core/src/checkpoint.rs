//! Checkpoint / restart of the full simulation state.
//!
//! Long campaigns on shared machines (the paper's science runs took many
//! wall-clock hours across reservations) need restart capability. A
//! checkpoint persists the run clock, the particle phase space, the field
//! data of every grid (parent, PML split fields, MR patch fine/coarse/aux
//! grids), and the moving-window state, so a restored run continues
//! bitwise identically to the uninterrupted one. Restoring also drops all
//! cached exchange plans: the restore overwrites field data in place, and
//! stale plans built against the pre-restore window position would move
//! the wrong cells.

use crate::particles::ParticleBuf;
use crate::sim::MovingWindow;
use mrpic_amr::FabArray;
use mrpic_field::fieldset::FieldSet;
use mrpic_field::pml::Pml;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Why a checkpoint could not be applied to a simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestoreError(pub String);

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint restore failed: {}", self.0)
    }
}

impl std::error::Error for RestoreError {}

fn err(msg: String) -> RestoreError {
    RestoreError(msg)
}

/// Raw data of one [`FabArray`]: per box, all components including guards.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FabArraySnap {
    pub data: Vec<Vec<f64>>,
}

impl FabArraySnap {
    fn capture(fa: &FabArray) -> Self {
        Self {
            data: fa.fabs().iter().map(|f| f.raw().to_vec()).collect(),
        }
    }

    fn restore(&self, fa: &mut FabArray, what: &str) -> Result<(), RestoreError> {
        if self.data.len() != fa.fabs().len() {
            return Err(err(format!(
                "{what}: checkpoint has {} boxes, simulation has {} \
                 (box layout must match the capture-time run)",
                self.data.len(),
                fa.fabs().len()
            )));
        }
        for (bi, (src, fab)) in self.data.iter().zip(fa.fabs_mut()).enumerate() {
            let dst = fab.raw_mut();
            if src.len() != dst.len() {
                return Err(err(format!(
                    "{what}, box {bi}: checkpoint fab has {} values, \
                     simulation fab has {} (grid shape must match)",
                    src.len(),
                    dst.len()
                )));
            }
            dst.copy_from_slice(src);
        }
        Ok(())
    }
}

/// Field data + origin of one grid level (parent, MR fine/coarse/aux).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FieldSetSnap {
    pub x0: [f64; 3],
    pub e: [FabArraySnap; 3],
    pub b: [FabArraySnap; 3],
    pub j: [FabArraySnap; 3],
}

impl FieldSetSnap {
    fn capture(fs: &FieldSet) -> Self {
        let snap3 = |a: &[FabArray; 3]| {
            [
                FabArraySnap::capture(&a[0]),
                FabArraySnap::capture(&a[1]),
                FabArraySnap::capture(&a[2]),
            ]
        };
        Self {
            x0: fs.geom.x0,
            e: snap3(&fs.e),
            b: snap3(&fs.b),
            j: snap3(&fs.j),
        }
    }

    fn restore(&self, fs: &mut FieldSet, what: &str) -> Result<(), RestoreError> {
        for c in 0..3 {
            self.e[c].restore(&mut fs.e[c], &format!("{what} E[{c}]"))?;
            self.b[c].restore(&mut fs.b[c], &format!("{what} B[{c}]"))?;
            self.j[c].restore(&mut fs.j[c], &format!("{what} J[{c}]"))?;
        }
        fs.geom.x0 = self.x0;
        Ok(())
    }
}

/// Split-field data of one PML shell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PmlSnap {
    pub e: [FabArraySnap; 3],
    pub b: [FabArraySnap; 3],
}

impl PmlSnap {
    fn capture(pml: &Pml) -> Self {
        let snap3 = |a: &[FabArray; 3]| {
            [
                FabArraySnap::capture(&a[0]),
                FabArraySnap::capture(&a[1]),
                FabArraySnap::capture(&a[2]),
            ]
        };
        Self {
            e: snap3(pml.esplit()),
            b: snap3(pml.bsplit()),
        }
    }

    fn restore(&self, pml: &mut Pml, what: &str) -> Result<(), RestoreError> {
        for c in 0..3 {
            self.e[c].restore(&mut pml.esplit_mut()[c], &format!("{what} Esplit[{c}]"))?;
            self.b[c].restore(&mut pml.bsplit_mut()[c], &format!("{what} Bsplit[{c}]"))?;
        }
        Ok(())
    }
}

/// State of the mesh-refinement patch: all three grid levels + PMLs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MrSnap {
    pub fine: FieldSetSnap,
    pub coarse: FieldSetSnap,
    pub aux: FieldSetSnap,
    pub fine_pml: PmlSnap,
    pub coarse_pml: PmlSnap,
}

/// Everything needed to resume a run bitwise identically.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    #[serde(default)]
    pub version: u32,
    pub time: f64,
    pub istep: u64,
    pub x0: [f64; 3],
    #[serde(default)]
    pub window: Option<MovingWindow>,
    pub fields: FieldSetSnap,
    #[serde(default)]
    pub pml: Option<PmlSnap>,
    #[serde(default)]
    pub mr: Option<MrSnap>,
    /// Per species, per box.
    pub species: Vec<Vec<ParticleBuf>>,
}

impl Checkpoint {
    pub fn capture(sim: &crate::sim::Simulation) -> Self {
        Self {
            version: 2,
            time: sim.time,
            istep: sim.istep,
            x0: sim.fs.geom.x0,
            window: sim.window,
            fields: FieldSetSnap::capture(&sim.fs),
            pml: sim.pml.as_ref().map(PmlSnap::capture),
            mr: sim.mr.as_ref().map(|mr| MrSnap {
                fine: FieldSetSnap::capture(&mr.fine),
                coarse: FieldSetSnap::capture(&mr.coarse),
                aux: FieldSetSnap::capture(&mr.aux),
                fine_pml: PmlSnap::capture(&mr.fine_pml),
                coarse_pml: PmlSnap::capture(&mr.coarse_pml),
            }),
            species: sim.parts.iter().map(|pc| pc.bufs.clone()).collect(),
        }
    }

    /// Restore the full state into a compatible simulation: same domain
    /// and box layout, same species set, and (when captured with one) the
    /// same PML / MR patch configuration. Drops all cached exchange plans
    /// afterwards — the field data and window position changed under them.
    pub fn restore(&self, sim: &mut crate::sim::Simulation) -> Result<(), RestoreError> {
        if self.version > 2 {
            return Err(err(format!(
                "checkpoint version {} is newer than this build understands (max 2)",
                self.version
            )));
        }
        if self.species.len() != sim.parts.len() {
            return Err(err(format!(
                "checkpoint has {} species, simulation has {} \
                 (build the target with the same species set)",
                self.species.len(),
                sim.parts.len()
            )));
        }
        for (si, bufs) in self.species.iter().enumerate() {
            if bufs.len() != sim.parts[si].bufs.len() {
                return Err(err(format!(
                    "species {si}: checkpoint has {} particle boxes, \
                     simulation has {} (box layout must match)",
                    bufs.len(),
                    sim.parts[si].bufs.len()
                )));
            }
        }
        match (&self.pml, &mut sim.pml) {
            (Some(snap), Some(pml)) => snap.restore(pml, "PML")?,
            (None, None) => {}
            (Some(_), None) => {
                return Err(err(
                    "checkpoint carries PML state but the simulation has no PML \
                     (build the target with the same .pml(npml))"
                        .into(),
                ))
            }
            (None, Some(_)) => {
                return Err(err(
                    "simulation has a PML but the checkpoint carries none".into()
                ))
            }
        }
        match (&self.mr, &mut sim.mr) {
            (Some(snap), Some(mr)) => {
                snap.fine.restore(&mut mr.fine, "MR fine")?;
                snap.coarse.restore(&mut mr.coarse, "MR coarse")?;
                snap.aux.restore(&mut mr.aux, "MR aux")?;
                snap.fine_pml.restore(&mut mr.fine_pml, "MR fine PML")?;
                snap.coarse_pml
                    .restore(&mut mr.coarse_pml, "MR coarse PML")?;
            }
            (None, None) => {}
            (Some(_), None) => {
                return Err(err(
                    "checkpoint carries an MR patch but the simulation has none \
                     (attach the same patch with add_mr_patch before restoring)"
                        .into(),
                ))
            }
            (None, Some(_)) => {
                return Err(err(
                    "simulation has an MR patch but the checkpoint carries none".into(),
                ))
            }
        }
        self.fields.restore(&mut sim.fs, "parent")?;
        sim.fs.geom.x0 = self.x0;
        sim.time = self.time;
        sim.istep = self.istep;
        sim.window = self.window;
        for (pc, bufs) in sim.parts.iter_mut().zip(&self.species) {
            pc.bufs = bufs.clone();
        }
        // The restore rewrote field data and (possibly) the window
        // position in place: cached exchange plans are stale.
        sim.invalidate_all_plans();
        Ok(())
    }

    /// Rebuild a simulation from `cfg` and restore this checkpoint into
    /// it, returning the sim plus the config's MR-removal times — the
    /// one-call resume path for parked jobs. Reconciles MR-patch
    /// presence: a checkpoint captured *after* the config's `remove_at`
    /// fired carries no MR state, so the freshly built patch is removed
    /// before restoring (the caller re-derives which removals already
    /// fired from the restored `time`).
    pub fn resume(
        &self,
        cfg: &crate::config::RunConfig,
    ) -> Result<(crate::sim::Simulation, Vec<f64>), String> {
        let (mut sim, removals) = cfg.build()?;
        if self.mr.is_none() && sim.mr.is_some() {
            sim.remove_mr_patch();
        }
        self.restore(&mut sim).map_err(|e| e.to_string())?;
        Ok((sim, removals))
    }

    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let bytes = serde_json::to_vec(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, bytes)
    }

    pub fn load(path: &Path) -> std::io::Result<Self> {
        let data = std::fs::read(path)?;
        serde_json::from_slice(&data)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    pub fn total_particles(&self) -> usize {
        self.species
            .iter()
            .map(|s| s.iter().map(|b| b.len()).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::sim::{ShapeOrder, SimulationBuilder};
    use crate::species::Species;
    use mrpic_amr::IntVect;
    use mrpic_field::fieldset::Dim;

    fn mk_sim() -> crate::sim::Simulation {
        SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(16, 1, 16), [1.0e-6; 3], [0.0; 3])
            .periodic([true, true, true])
            .order(ShapeOrder::Quadratic)
            .add_species(Species::electrons(
                "e",
                Profile::Uniform { n0: 1.0e24 },
                [2, 1, 1],
            ))
            .build()
    }

    #[test]
    fn capture_restore_roundtrip() {
        let mut sim = mk_sim();
        sim.run(5);
        let ck = Checkpoint::capture(&sim);
        assert_eq!(ck.istep, 5);
        assert_eq!(ck.total_particles(), sim.total_particles());
        let mut sim2 = mk_sim();
        ck.restore(&mut sim2).unwrap();
        assert_eq!(sim2.istep, 5);
        assert_eq!(sim2.time, sim.time);
        assert_eq!(sim2.parts[0].bufs[0].x, sim.parts[0].bufs[0].x);
        // Field data restored bitwise, not rebuilt.
        assert_eq!(
            sim2.fs.e[0].fab(0).raw(),
            sim.fs.e[0].fab(0).raw(),
            "E field not restored"
        );
    }

    #[test]
    fn restart_continues_identically() {
        // Capture at step 10, restore into a fresh sim, and step both 10
        // more: every field value and particle must match bitwise.
        let mut a = mk_sim();
        a.run(10);
        let ck = Checkpoint::capture(&a);
        let dir = std::env::temp_dir().join("mrpic_ck_test.json");
        ck.save(&dir).unwrap();
        let back = Checkpoint::load(&dir).unwrap();
        let _ = std::fs::remove_file(&dir);
        assert_eq!(back.istep, 10);
        assert_eq!(back.version, 2);
        assert_eq!(back.total_particles(), ck.total_particles());
        let mut b = mk_sim();
        back.restore(&mut b).unwrap();
        assert_eq!(b.parts[0].bufs[0].ux, a.parts[0].bufs[0].ux);
        a.run(10);
        b.run(10);
        for c in 0..3 {
            for bi in 0..a.fs.nfabs() {
                assert_eq!(
                    a.fs.e[c].fab(bi).raw(),
                    b.fs.e[c].fab(bi).raw(),
                    "E[{c}] box {bi} diverged after restart"
                );
            }
        }
        for (ba_, bb) in a.parts[0].bufs.iter().zip(&b.parts[0].bufs) {
            assert_eq!(ba_.x, bb.x);
            assert_eq!(ba_.ux, bb.ux);
        }
    }

    #[test]
    fn restore_rejects_mismatched_species() {
        let sim = mk_sim();
        let ck = Checkpoint::capture(&sim);
        let mut other = SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(16, 1, 16), [1.0e-6; 3], [0.0; 3])
            .periodic([true, true, true])
            .build();
        let e = ck.restore(&mut other).unwrap_err();
        assert!(e.0.contains("species"), "unexpected error: {e}");
    }

    #[test]
    fn restore_rejects_mismatched_layout() {
        let sim = mk_sim();
        let ck = Checkpoint::capture(&sim);
        let mut other = SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(32, 1, 16), [1.0e-6; 3], [0.0; 3])
            .periodic([true, true, true])
            .add_species(Species::electrons(
                "e",
                Profile::Uniform { n0: 1.0e24 },
                [2, 1, 1],
            ))
            .build();
        assert!(ck.restore(&mut other).is_err());
    }
}
