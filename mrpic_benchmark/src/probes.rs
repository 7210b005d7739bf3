//! Per-layer probes: K timed calls of each layer's public entry point
//! on a warm simulation state, medians reported. Nothing here adds a
//! span or counter to the program; every clock is read in this file.

use crate::spans::Recorder;
use crate::stats::median;
use mrpic::amr::{Fab, IntVect};
use mrpic::core::checkpoint::Checkpoint;
use mrpic::core::mr::restriction_margin;
use mrpic::core::sim::Simulation;
use mrpic::dist::frame;
use mrpic::dist::transport::{mem_transport, Endpoint, Phase, Tag};
use mrpic::dist::{socket_mesh, DistSim, MeshCfg};
use mrpic::field::fieldset::{view_of_fab, view_over};
use mrpic::field::filter::filter_current;
use mrpic::field::{pml, yee};
use mrpic::kernels::deposit::JViews;
use mrpic::kernels::flops::KernelCosts;
use mrpic::kernels::gather::{EmOut, EmViews};
use mrpic::kernels::push::{gamma_of_u, push_position2};
use mrpic::kernels::{FieldView, FieldViewMut, Lanes, Quadratic, DEFAULT_LANE_WIDTH};
use std::path::Path;
use std::time::Instant;

type L = Lanes<DEFAULT_LANE_WIDTH>;

/// Named results in report order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Median nanoseconds of `k` calls of `f`, each under a span `name`.
fn timed_ns(rec: &mut Recorder, name: &'static str, k: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..k).map(|_| rec.time(name, &mut f).1 as f64).collect();
    median(&samples)
}

/// [`timed_ns`] after one untimed call (caches and lazy set-up).
pub fn med_ns(rec: &mut Recorder, name: &'static str, k: usize, mut f: impl FnMut()) -> f64 {
    f();
    timed_ns(rec, name, k, f)
}

/// Per-particle cost of the lane kernels on the fullest box of species
/// 0 (2-D, order 2 — what every deck runs), in f64 and f32.
pub struct KernelTimes {
    pub gather_ns: f64,
    pub push_ns: f64,
    pub deposit_ns: f64,
    pub gather_f32_ns: f64,
    pub deposit_f32_ns: f64,
}

fn stage_f32<'a>(store: &'a mut Vec<f32>, v: &FieldView<'_, f64>) -> FieldView<'a, f32> {
    store.clear();
    store.extend(v.data.iter().map(|&x| x as f32));
    FieldView {
        data: store,
        lo: v.lo,
        nx: v.nx,
        nxy: v.nxy,
        half: v.half,
    }
}

/// Six gathered-field arrays as the kernels' output view.
fn em_out<T>(em: &mut [Vec<T>; 6]) -> EmOut<'_, T> {
    let [ex, ey, ez, bx, by, bz] = em;
    EmOut {
        ex,
        ey,
        ez,
        bx,
        by,
        bz,
    }
}

/// An f32 deposition tile with the index layout of `fab`.
fn view_like<'a>(fab: &Fab, data: &'a mut [f32]) -> FieldViewMut<'a, f32> {
    let v = view_of_fab(fab);
    FieldViewMut {
        data,
        lo: v.lo,
        nx: v.nx,
        nxy: v.nxy,
        half: v.half,
    }
}

pub fn kernels(rec: &mut Recorder, sim: &Simulation, k: usize) -> KernelTimes {
    rec.begin("kernels");
    let (bi, buf) = sim.parts[0]
        .bufs
        .iter()
        .enumerate()
        .max_by_key(|(_, b)| b.len())
        .expect("at least one box");
    let n = buf.len().max(1);
    let sp = &sim.species[0];
    let (q, dt) = (sp.charge, sim.dt);
    let qmdt2 = q * dt / (2.0 * sp.mass);
    let geom = sim.fs.geom.kernel_geom();
    let views = sim.fs.em_views(bi);

    let mut em: [Vec<f64>; 6] = std::array::from_fn(|_| vec![0.0; buf.len()]);
    let gather_ns = med_ns(rec, "kernels.gather", k, || {
        L::gather2::<Quadratic, f64>(&buf.x, &buf.z, &geom, &views, &mut em_out(&mut em));
    });

    // Everything the step does per particle between gather and deposit:
    // save the old position, momentum push, transverse velocity,
    // position push. Positions restart from the stored ones on every
    // call, so the displacement handed to the deposit stays sub-cell.
    let (mut ux, mut uy, mut uz) = (buf.ux.clone(), buf.uy.clone(), buf.uz.clone());
    let (mut x1, mut y1, mut z1) = (buf.x.clone(), buf.y.clone(), buf.z.clone());
    let mut vy = vec![0.0f64; buf.len()];
    let push_ns = {
        let [ex, ey, ez, bx, by, bz] = &em;
        med_ns(rec, "kernels.push", k, || {
            x1.copy_from_slice(&buf.x);
            y1.copy_from_slice(&buf.y);
            z1.copy_from_slice(&buf.z);
            L::push_momentum(
                sp.pusher, &mut ux, &mut uy, &mut uz, ex, ey, ez, bx, by, bz, qmdt2,
            );
            for (p, v) in vy.iter_mut().enumerate() {
                *v = uy[p] / gamma_of_u(ux[p], uy[p], uz[p]);
            }
            push_position2(&mut x1, &mut z1, &ux, &uy, &uz, dt);
        })
    };

    let jfabs = [
        sim.fs.j[0].fab(bi),
        sim.fs.j[1].fab(bi),
        sim.fs.j[2].fab(bi),
    ];
    let mut jdata: [Vec<f64>; 3] = std::array::from_fn(|c| vec![0.0; jfabs[c].comp(0).len()]);
    let deposit_ns = med_ns(rec, "kernels.deposit", k, || {
        let [jx, jy, jz] = &mut jdata;
        let mut jv = JViews {
            jx: view_over(jfabs[0], jx),
            jy: view_over(jfabs[1], jy),
            jz: view_over(jfabs[2], jz),
        };
        L::esirkepov2::<Quadratic, f64>(
            &buf.x, &buf.z, &x1, &z1, &vy, &buf.w, q, dt, &geom, &mut jv,
        );
    });

    // The same two kernels in single precision, inputs cast up front
    // (the program's per-box staging is not part of the kernel).
    let cast = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
    let (x0f, z0f, x1f, z1f) = (cast(&buf.x), cast(&buf.z), cast(&x1), cast(&z1));
    let (vyf, wf) = (cast(&vy), cast(&buf.w));
    let mut fld: [Vec<f32>; 6] = Default::default();
    let [f0, f1, f2, f3, f4, f5] = &mut fld;
    let views32 = EmViews {
        ex: stage_f32(f0, &views.ex),
        ey: stage_f32(f1, &views.ey),
        ez: stage_f32(f2, &views.ez),
        bx: stage_f32(f3, &views.bx),
        by: stage_f32(f4, &views.by),
        bz: stage_f32(f5, &views.bz),
    };
    let mut em32: [Vec<f32>; 6] = std::array::from_fn(|_| vec![0.0; buf.len()]);
    let gather_f32_ns = med_ns(rec, "kernels.gather_f32", k, || {
        L::gather2::<Quadratic, f32>(&x0f, &z0f, &geom, &views32, &mut em_out(&mut em32));
    });
    let mut j32: [Vec<f32>; 3] = std::array::from_fn(|c| vec![0.0; jdata[c].len()]);
    let deposit_f32_ns = med_ns(rec, "kernels.deposit_f32", k, || {
        let [jx, jy, jz] = &mut j32;
        let mut jv = JViews {
            jx: view_like(jfabs[0], jx),
            jy: view_like(jfabs[1], jy),
            jz: view_like(jfabs[2], jz),
        };
        L::esirkepov2::<Quadratic, f32>(
            &x0f, &z0f, &x1f, &z1f, &vyf, &wf, q as f32, dt as f32, &geom, &mut jv,
        );
    });
    rec.end();
    let per = |ns: f64| ns / n as f64;
    KernelTimes {
        gather_ns: per(gather_ns),
        push_ns: per(push_ns),
        deposit_ns: per(deposit_ns),
        gather_f32_ns: per(gather_f32_ns),
        deposit_f32_ns: per(deposit_f32_ns),
    }
}

/// `kernels.*` metrics from measured ns/particle and the audited
/// (computed, not measured) flop/byte counts of `kernels::flops`.
pub fn kernel_metrics(t: &KernelTimes, out: &mut Metrics) {
    let c = KernelCosts::for_order(2, 2, 8.0);
    out.put("kernels.gather_ns_per_particle", t.gather_ns, "ns");
    out.put("kernels.push_ns_per_particle", t.push_ns, "ns");
    out.put("kernels.deposit_ns_per_particle", t.deposit_ns, "ns");
    out.put("kernels.gather_f32_ns_per_particle", t.gather_f32_ns, "ns");
    out.put(
        "kernels.deposit_f32_ns_per_particle",
        t.deposit_f32_ns,
        "ns",
    );
    out.put(
        "kernels.gather_flops_per_byte",
        c.gather_intensity(),
        "flop/B",
    );
    out.put(
        "kernels.deposit_flops_per_byte",
        c.deposit_intensity(),
        "flop/B",
    );
    // flops per ns == Gflop/s; bytes per ns == GB/s.
    out.put(
        "kernels.gather_gflops",
        c.gather_flops / t.gather_ns,
        "Gflop/s",
    );
    out.put(
        "kernels.deposit_gflops",
        c.deposit_flops / t.deposit_ns,
        "Gflop/s",
    );
    out.put(
        "kernels.deposit_gbytes_per_s",
        c.deposit_bytes / t.deposit_ns,
        "GB/s",
    );
}

/// Last-level cache size \[bytes\] as sysfs reports it for cpu0.
pub fn llc_bytes() -> Option<u64> {
    (0..6).rev().find_map(|i| {
        let s =
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()?;
        let s = s.trim();
        let (num, mult) = match s.as_bytes().last()? {
            b'K' => (&s[..s.len() - 1], 1 << 10),
            b'M' => (&s[..s.len() - 1], 1 << 20),
            _ => (s, 1),
        };
        num.parse::<u64>().ok().map(|n| n * mult)
    })
}

/// Bytes per triad array: 3 arrays x 64 MiB = 192 MiB. The report
/// prints this next to the last-level cache size; on a host whose LLC
/// is not 4x smaller, read the number as cache-assisted, not DRAM.
pub const TRIAD_ARRAY_BYTES: usize = 64 << 20;

/// STREAM-triad bandwidth `a = b + s*c` \[GB/s\], one thread.
pub fn triad_gbytes_per_s(rec: &mut Recorder, k: usize) -> f64 {
    let n = TRIAD_ARRAY_BYTES / 8;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let s = std::hint::black_box(3.0f64);
    let ns = med_ns(rec, "machine.triad", k, || {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        std::hint::black_box(&mut a);
    });
    // Two loads and one store per element.
    (3 * TRIAD_ARRAY_BYTES) as f64 / ns
}

/// One full field advance (B half / E / B half with every guard and
/// PML-interface exchange) \[ns\]: plain Yee, and PML-terminated when
/// the state has a PML; plus one binomial current-filter pass.
pub struct FieldTimes {
    pub yee_ns: f64,
    pub yee_cells: f64,
    pub pml_ns: Option<f64>,
    pub pml_cells: f64,
    pub filter_ns: f64,
}

pub fn field(rec: &mut Recorder, sim: &mut Simulation, k: usize) -> FieldTimes {
    rec.begin("field");
    let dt = sim.dt;
    let yee_cells = sim.fs.boxarray().total_cells() as f64;
    let yee_ns = med_ns(rec, "field.yee", k, || yee::step_fields(&mut sim.fs, dt));
    let mut pml_cells = yee_cells;
    let pml_ns = match &mut sim.pml {
        Some(p) => {
            pml_cells += p.boxarray().total_cells() as f64;
            let fs = &mut sim.fs;
            Some(med_ns(rec, "field.yee_pml", k, || {
                pml::step_fields_with_pml(fs, p, dt)
            }))
        }
        None => None,
    };
    let fs = &mut sim.fs;
    let filter_ns = med_ns(rec, "field.filter", k, || filter_current(fs, 1));
    rec.end();
    FieldTimes {
        yee_ns,
        yee_cells,
        pml_ns,
        pml_cells,
        filter_ns,
    }
}

/// Guard exchanges of the parent grids on cached plans \[ns\]: one E
/// fill + one B fill, one J sum, all three right after
/// `invalidate_plans` (rebuild + execute), and a one-cell window shift
/// of all nine arrays with its guard refills.
pub struct ExchangeTimes {
    pub fill_ns: f64,
    pub sum_ns: f64,
    pub rebuild_ns: f64,
    pub shift_ns: f64,
}

pub fn exchange(rec: &mut Recorder, sim: &mut Simulation, k: usize) -> ExchangeTimes {
    rec.begin("amr");
    let fs = &mut sim.fs;
    let fill_ns = med_ns(rec, "amr.fill", k, || {
        fs.fill_e_boundaries();
        fs.fill_b_boundaries();
    });
    let sum_ns = med_ns(rec, "amr.sum", k, || fs.sum_j_boundaries());
    let rebuild_ns = med_ns(rec, "amr.plan_rebuild", k, || {
        fs.invalidate_plans();
        fs.fill_e_boundaries();
        fs.fill_b_boundaries();
        fs.sum_j_boundaries();
    });
    let shift_ns = med_ns(rec, "amr.shift_window", k, || {
        fs.shift_window(IntVect::new(1, 0, 0))
    });
    rec.end();
    ExchangeTimes {
        fill_ns,
        sum_ns,
        rebuild_ns,
        shift_ns,
    }
}

/// The three per-step mesh-refinement sweeps \[ns\] and the fine-patch
/// cell count they are normalised by.
pub struct MrTimes {
    pub build_aux_ns: f64,
    pub couple_ns: f64,
    pub advance_ns: f64,
    pub cells: f64,
    pub bytes: f64,
}

pub fn mr(rec: &mut Recorder, sim: &mut Simulation, k: usize) -> Option<MrTimes> {
    let dt = sim.dt;
    let order = sim.order.order();
    let lvl = sim.mr.as_mut()?;
    rec.begin("core.mr");
    let margin = restriction_margin(order, lvl.cfg.rr);
    let fs = &mut sim.fs;
    let build_aux_ns = med_ns(rec, "mr.build_aux", k, || lvl.build_aux(fs));
    let couple_ns = med_ns(rec, "mr.couple_currents", k, || {
        lvl.couple_currents(fs, margin)
    });
    let advance_ns = med_ns(rec, "mr.advance_fields", k, || lvl.advance_fields(dt));
    rec.end();
    Some(MrTimes {
        build_aux_ns,
        couple_ns,
        advance_ns,
        cells: lvl.fine.boxarray().total_cells() as f64,
        bytes: lvl.bytes() as f64,
    })
}

/// Step-loop housekeeping in `core`: locality sort and redistribution
/// per particle \[ns\], and the state digest \[ns\].
pub struct CoreTimes {
    pub sort_ns: f64,
    pub redistribute_ns: f64,
    pub digest_ns: f64,
}

pub fn core(rec: &mut Recorder, sim: &mut Simulation, k: usize) -> CoreTimes {
    rec.begin("core");
    let geom = sim.fs.geom;
    let period = sim.fs.period;
    let np = sim.total_particles().max(1) as f64;
    // Sorting mutates its input, so every call gets the warm state's
    // order back (the clone is outside the clock).
    let pristine = sim.parts[0].bufs.clone();
    let sorted: f64 = pristine.iter().map(|b| b.len()).sum::<usize>().max(1) as f64;
    let mut sort_samples = Vec::with_capacity(k);
    for _ in 0..k.min(10) {
        let mut bufs = pristine.clone();
        let ((), ns) = rec.time("core.sort", || {
            for b in &mut bufs {
                b.sort_by_cell(&geom);
            }
        });
        sort_samples.push(ns as f64);
    }
    let ba = sim.fs.boxarray().clone();
    let parts = &mut sim.parts;
    let redistribute_ns = med_ns(rec, "core.redistribute", k, || {
        for pc in parts.iter_mut() {
            pc.redistribute(&ba, &geom, &period);
        }
    });
    let digest_ns = med_ns(rec, "core.state_digest", k.min(5), || {
        std::hint::black_box(sim.state_digest());
    });
    rec.end();
    CoreTimes {
        sort_ns: median(&sort_samples) / sorted,
        redistribute_ns: redistribute_ns / np,
        digest_ns,
    }
}

/// `checkpoint.*`: in-memory capture/restore and the JSON file round
/// trip, on `sim` (always the `mr_hybrid` state: fields, PML, MR patch
/// and particles all present). No warm-up call: one file round trip
/// costs about a second.
pub fn checkpoint(
    rec: &mut Recorder,
    sim: &mut Simulation,
    dir: &Path,
    k: usize,
    out: &mut Metrics,
) -> Result<(), String> {
    rec.begin("core.checkpoint");
    let capture_ns = timed_ns(rec, "checkpoint.capture", k, || {
        std::hint::black_box(Checkpoint::capture(sim));
    });
    let ck = Checkpoint::capture(sim);
    let mut err = None;
    let restore_ns = timed_ns(rec, "checkpoint.restore", k, || {
        if let Err(e) = ck.restore(sim) {
            err = Some(e.to_string());
        }
    });
    let path = dir.join("probe.ckpt");
    let save_ns = timed_ns(rec, "checkpoint.save", k, || {
        if let Err(e) = ck.save(&path) {
            err = Some(format!("save: {e}"));
        }
    });
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) as f64;
    let load_ns = timed_ns(rec, "checkpoint.load", k, || {
        match Checkpoint::load(&path) {
            Ok(c) => drop(std::hint::black_box(c)),
            Err(e) => err = Some(format!("load: {e}")),
        }
    });
    let _ = std::fs::remove_file(&path);
    rec.end();
    if let Some(e) = err {
        return Err(format!("checkpoint probe: {e}"));
    }
    out.put("checkpoint.capture_ms", capture_ns / 1e6, "ms");
    out.put("checkpoint.restore_ms", restore_ns / 1e6, "ms");
    // bytes per ns * 1000 == MB/s (decimal megabytes).
    out.put("checkpoint.save_mb_per_s", bytes / save_ns * 1e3, "MB/s");
    out.put("checkpoint.load_mb_per_s", bytes / load_ns * 1e3, "MB/s");
    out.put("checkpoint.bytes", bytes, "B");
    Ok(())
}

/// A dist message of at most this many bytes carries no payload: one
/// `u32` item count plus the CRC seal.
pub const EMPTY_MSG_BYTES: u64 = 8;

/// The dist tax on `sim`'s deck: the 1-rank `DistSim` step against the
/// serial median `serial_p50_ms`, then exact message counts and the
/// receive-wait share over `steps` recorded 2-rank steps.
pub fn dist(
    rec: &mut Recorder,
    sim: Simulation,
    serial_p50_ms: f64,
    steps: usize,
    out: &mut Metrics,
) -> Simulation {
    rec.begin("dist");
    let mut d1 = DistSim::in_process(sim, 1);
    // Plans were dropped by the restore that preceded this probe.
    let _ = d1.step();
    let r1: Vec<f64> = (0..steps)
        .map(|_| {
            rec.time("dist.step_r1", || {
                let _ = d1.step();
            })
            .1 as f64
                / 1e6
        })
        .collect();
    out.put(
        "dist.r1_overhead_share",
        median(&r1) / serial_p50_ms - 1.0,
        "ratio",
    );
    let DistSim { sim, .. } = d1;

    let (mut d2, recorder) = DistSim::recording(sim, 2);
    let _ = d2.step();
    let first = d2.sim.istep;
    let t = Instant::now();
    for _ in 0..steps {
        rec.time("dist.step_r2", || {
            let _ = d2.step();
        });
    }
    let wall = t.elapsed().as_secs_f64();
    let msgs: Vec<_> = recorder
        .messages()
        .into_iter()
        .filter(|m| m.step >= first)
        .collect();
    let n = steps as f64;
    out.put("dist.msgs_per_step", msgs.len() as f64 / n, "count");
    out.put(
        "dist.bytes_per_step",
        msgs.iter().map(|m| m.bytes).sum::<u64>() as f64 / n,
        "B",
    );
    out.put(
        "dist.empty_msgs_per_step",
        msgs.iter().filter(|m| m.bytes <= EMPTY_MSG_BYTES).count() as f64 / n,
        "count",
    );
    let waited: f64 = recorder
        .receives()
        .iter()
        .filter(|r| r.step >= first)
        .map(|r| r.wait_seconds)
        .sum();
    out.put("dist.recv_wait_share", waited / (2.0 * wall), "ratio");
    rec.end();
    let DistSim { sim, .. } = d2;
    sim
}

/// Frame codec cost per payload byte on a 64 KiB data frame.
pub fn frames(rec: &mut Recorder, k: usize, out: &mut Metrics) {
    let payload: Vec<u8> = (0..64 << 10).map(|i| (i * 31 % 251) as u8).collect();
    let tag = Tag {
        phase: Phase::Fill,
        seq: 7,
    };
    let enc = med_ns(rec, "dist.frame_encode", k, || {
        std::hint::black_box(frame::encode_data(0, 1, tag, 42, &payload));
    });
    let wire = frame::encode_data(0, 1, tag, 42, &payload);
    let dec = med_ns(rec, "dist.frame_decode", k, || {
        std::hint::black_box(frame::decode(&wire).expect("a frame this file just encoded"));
    });
    let n = payload.len() as f64;
    out.put("dist.frame_encode_ns_per_byte", enc / n, "ns");
    out.put("dist.frame_decode_ns_per_byte", dec / n, "ns");
}

const STREAM_MSG_BYTES: usize = 1 << 20;

/// Two endpoints on two threads: median round trip of an 8-byte
/// message \[µs\], then one-way throughput of 1 MiB messages \[MB/s\].
fn wire_pair<E: Endpoint + 'static>(
    mut eps: Vec<E>,
    round_trips: u32,
    stream_msgs: u32,
) -> Result<(f64, f64), String> {
    let mut b = eps.pop().ok_or("transport built no endpoints")?;
    let mut a = eps.pop().ok_or("transport built one endpoint")?;
    let tag = |seq| Tag {
        phase: Phase::Fill,
        seq,
    };
    let echo = std::thread::spawn(move || -> Result<(), String> {
        for i in 0..round_trips {
            let m = b.recv(0, tag(i)).map_err(|e| e.to_string())?;
            b.send(0, tag(i), m).map_err(|e| e.to_string())?;
        }
        for i in 0..stream_msgs {
            b.recv(0, tag(round_trips + i)).map_err(|e| e.to_string())?;
        }
        b.send(0, tag(round_trips + stream_msgs), vec![1])
            .map_err(|e| e.to_string())
    });
    let drive = (|| -> Result<(f64, f64), String> {
        let mut rtt = Vec::with_capacity(round_trips as usize);
        for i in 0..round_trips {
            let t = Instant::now();
            a.send(1, tag(i), vec![0u8; 8]).map_err(|e| e.to_string())?;
            a.recv(1, tag(i)).map_err(|e| e.to_string())?;
            rtt.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let t = Instant::now();
        for i in 0..stream_msgs {
            a.send(1, tag(round_trips + i), vec![0u8; STREAM_MSG_BYTES])
                .map_err(|e| e.to_string())?;
        }
        a.recv(1, tag(round_trips + stream_msgs))
            .map_err(|e| e.to_string())?;
        let mb = stream_msgs as f64 * STREAM_MSG_BYTES as f64 / 1e6;
        Ok((median(&rtt), mb / t.elapsed().as_secs_f64()))
    })();
    let echoed = echo.join().map_err(|_| "echo thread panicked")?;
    let r = drive?;
    echoed?;
    Ok(r)
}

/// `dist.{mem,uds,tcp}_{pingpong_us,stream_mb_per_s}`. `dir` hosts the
/// Unix sockets (relative, so the path stays short).
pub fn transports(
    rec: &mut Recorder,
    dir: &Path,
    round_trips: u32,
    stream_msgs: u32,
    out: &mut Metrics,
) -> Result<(), String> {
    rec.begin("dist.transports");
    let nonce = u64::from(std::process::id());
    let mut put = |name: &str, r: (f64, f64)| {
        out.put(&format!("dist.{name}_pingpong_us"), r.0, "us");
        out.put(&format!("dist.{name}_stream_mb_per_s"), r.1, "MB/s");
    };
    let (r, _) = rec.time("dist.mem_wire", || {
        wire_pair(mem_transport(2), round_trips, stream_msgs)
    });
    put("mem", r?);
    let (r, _) = rec.time("dist.uds_wire", || {
        let eps =
            socket_mesh(&MeshCfg::uds(dir, 2, nonce)).map_err(|e| format!("uds mesh: {e}"))?;
        wire_pair(eps, round_trips, stream_msgs)
    });
    put("uds", r?);
    let (r, _) = rec.time("dist.tcp_wire", || {
        // Loopback ports derived from the pid; a clash moves on.
        let base = 21000 + (std::process::id() % 20000) as u16;
        let eps = (0..8)
            .find_map(|i| socket_mesh(&MeshCfg::tcp(base + 2 * i, 2, nonce)).ok())
            .ok_or("tcp mesh: no free loopback port pair")?;
        wire_pair(eps, round_trips, stream_msgs)
    });
    put("tcp", r?);
    rec.end();
    Ok(())
}

/// `obs.snapshot_render_us` (one rank's sampled metrics rendered as
/// Prometheus text) and `trace.disabled_span_ns`.
pub fn observability(rec: &mut Recorder, sim: &Simulation, k: usize, out: &mut Metrics) {
    let hub = mrpic::obs::MetricsHub::new("run");
    let mut sampler = mrpic::obs::RankSampler::new(0);
    for r in sim.telemetry.records() {
        sampler.observe(r);
    }
    hub.update_rank(sampler.sample());
    let render = med_ns(rec, "obs.snapshot_render", k, || {
        std::hint::black_box(hub.render_prometheus());
    });
    out.put("obs.snapshot_render_us", render / 1e3, "us");

    const SPANS: u32 = 1_000_000;
    let was_on = mrpic::trace::enabled();
    mrpic::trace::disable();
    let span = med_ns(rec, "trace.disabled_span", k.min(5), || {
        for i in 0..SPANS {
            let g = mrpic::trace::SpanGuard::enter("probe", -1, i64::from(i), -1);
            std::hint::black_box(&g);
        }
    });
    if was_on {
        mrpic::trace::enable();
    }
    out.put("trace.disabled_span_ns", span / f64::from(SPANS), "ns");
}
