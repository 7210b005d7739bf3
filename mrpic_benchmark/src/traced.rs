//! The traced pass: the per-layer ladder for one workload.
//!
//! 1. The workload's library deck is built and warmed, then stepped in
//!    alternating untraced / traced blocks (spans + allocation counting
//!    on) — tracing overhead, allocations per step, exchange counts.
//! 2. Each layer's entry points are probed on that warm state. Layers
//!    the deck does not have (PML, MR) and the checkpoint probe use the
//!    `mr_hybrid` state instead, so every metric is measured in every
//!    traced run.
//! 3. State-independent probes: frame codec, the three transports,
//!    metrics rendering, a disabled span, STREAM triad.
//! 4. A small `mrpic_run` socket mesh and a small `mrpic_serve`
//!    preemption scenario, spanned from the client side.

use crate::alloc;
use crate::decks::Deck;
use crate::library::Driver;
use crate::measure::{built_work, failed_ops, Outcome};
use crate::probes::{self, Metrics};
use crate::process::{cli_round, serve_round};
use crate::spans::Recorder;
use crate::stats::percentile;
use crate::workloads::{Ctx, Sizes, Workload, SERVE_BUDGETS_SMALL};
use mrpic::core::checkpoint::Checkpoint;
use mrpic::core::sim::{Precision, Simulation};
use std::path::Path;

/// Probe repetitions (`K`), dist-probe steps, wire ping-pongs and
/// 1 MiB stream messages; the smoke sizes only prove the calls work.
struct Reps {
    k: usize,
    k_slow: usize,
    dist_steps: usize,
    round_trips: u32,
    stream_msgs: u32,
}

impl Reps {
    fn of(smoke: bool) -> Self {
        if smoke {
            Reps {
                k: 2,
                k_slow: 1,
                dist_steps: 2,
                round_trips: 20,
                stream_msgs: 2,
            }
        } else {
            Reps {
                k: 30,
                k_slow: 2,
                dist_steps: 12,
                round_trips: 2000,
                stream_msgs: 32,
            }
        }
    }
}

/// Step counts of the traced run's process scenarios: big enough for
/// one preemption and a flushed telemetry sink, small enough to fit.
fn scenario_sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes::of(Deck::MrHybrid, true)
    } else {
        Sizes {
            warmup: 2,
            timed: 38,
        }
    }
}

struct Blocks {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    allocs_per_step: f64,
    alloc_bytes_per_step: f64,
    exchange_bytes_per_step: f64,
    plan_builds_per_step: f64,
    window_shifts_per_step: f64,
}

/// `sizes.timed` steps in four alternating blocks, untraced first.
fn step_blocks(rec: &mut Recorder, drv: &mut Driver, sizes: Sizes) -> Blocks {
    let block = (sizes.timed / 4).max(1);
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut allocs, mut bytes) = (0u64, 0u64);
    let comm0 = drv.sim().comm_stats_total();
    let plans0 = drv.sim().plan_builds_total();
    let x0 = drv.sim().fs.geom.x0[0];
    for b in 0..4 {
        let traced = b % 2 == 1;
        rec.enabled = traced;
        let before = alloc::counts();
        alloc::set_counting(traced);
        for _ in 0..block {
            let ((), ns) = rec.time("step", || drv.step());
            let into = if traced {
                &mut traced_ms
            } else {
                &mut untraced_ms
            };
            into.push(ns as f64 / 1e6);
        }
        alloc::set_counting(false);
        let after = alloc::counts();
        allocs += after.0 - before.0;
        bytes += after.1 - before.1;
    }
    rec.enabled = true;
    let comm = drv.sim().comm_stats_total().delta_since(&comm0);
    let steps = (4 * block) as f64;
    let traced_steps = (2 * block) as f64;
    Blocks {
        untraced_ms,
        traced_ms,
        allocs_per_step: allocs as f64 / traced_steps,
        alloc_bytes_per_step: bytes as f64 / traced_steps,
        exchange_bytes_per_step: comm.bytes as f64 / steps,
        plan_builds_per_step: (drv.sim().plan_builds_total() - plans0) as f64 / steps,
        // The window origin advances one cell per shift.
        window_shifts_per_step: ((drv.sim().fs.geom.x0[0] - x0) / drv.sim().fs.geom.dx[0]).round()
            / steps,
    }
}

fn warm_state(deck: Deck, ctx: &Ctx, ranks: usize) -> Result<(Driver, Sizes), String> {
    let sizes = Sizes::of(deck, ctx.smoke);
    let path = deck.generate(ctx.seed, &ctx.scratch.root)?;
    let mut drv = Driver::build(&path, ranks)?;
    for _ in 0..sizes.warmup {
        drv.step();
    }
    Ok((drv, sizes))
}

/// Probes that mutate fields run between a capture and a restore, so
/// the state handed on is the warm one again.
fn with_restore<R>(
    sim: &mut Simulation,
    f: impl FnOnce(&mut Simulation) -> R,
) -> Result<R, String> {
    let snap = Checkpoint::capture(sim);
    let r = f(sim);
    snap.restore(sim)
        .map_err(|e| format!("restore after probes: {e}"))?;
    Ok(r)
}

pub fn run(w: Workload, ctx: &Ctx, rec: &mut Recorder) -> Result<Outcome, String> {
    let reps = Reps::of(ctx.smoke);
    let deck = w.deck();
    let mut m = Metrics::default();
    let mut problems = Vec::new();

    // 1. Warm state + alternating blocks.
    rec.begin("library");
    rec.begin("setup");
    let (mut drv, sizes) = warm_state(deck, ctx, w.ranks())?;
    rec.end();
    let blocks = step_blocks(rec, &mut drv, sizes);
    rec.end();
    if drv.sim().telemetry.tripped() {
        problems.push("the NaN/Inf guard tripped in the traced pass".to_string());
    }
    let p50 = percentile(&blocks.untraced_ms, 50.0);
    let p50_traced = percentile(&blocks.traced_ms, 50.0);
    let lib_steps = (blocks.untraced_ms.len() + blocks.traced_ms.len()) as u64;
    let mut sim = drv.into_sim();

    // 2. Layer probes on the workload's own state ...
    rec.begin("probes");
    let kt = probes::kernels(rec, &sim, reps.k);
    probes::kernel_metrics(&kt, &mut m);
    let ct = probes::core(rec, &mut sim, reps.k);
    let (xt, ft, mt) = with_restore(&mut sim, |s| {
        let xt = probes::exchange(rec, s, reps.k);
        let ft = probes::field(rec, s, reps.k);
        let mt = probes::mr(rec, s, reps.k);
        (xt, ft, mt)
    })?;

    // ... and on the mr_hybrid state for what this deck lacks.
    let (mut pml_ns, mut pml_cells, mut mr_t) = (ft.pml_ns, ft.pml_cells, mt);
    let own_has_mr = mr_t.is_some();
    if deck == Deck::MrHybrid {
        probes::checkpoint(rec, &mut sim, &ctx.scratch.root, reps.k_slow, &mut m)?;
    } else {
        rec.begin("mr_hybrid_state");
        let (drv, _) = warm_state(Deck::MrHybrid, ctx, 1)?;
        let mut other = drv.into_sim();
        if pml_ns.is_none() {
            let f = probes::field(rec, &mut other, reps.k);
            (pml_ns, pml_cells) = (f.pml_ns, f.pml_cells);
        }
        mr_t = probes::mr(rec, &mut other, reps.k);
        probes::checkpoint(rec, &mut other, &ctx.scratch.root, reps.k_slow, &mut m)?;
        rec.end();
    }
    let mr_t = mr_t.ok_or("the mr_hybrid deck built no MR level")?;
    let pml_ns = pml_ns.ok_or("the mr_hybrid deck built no PML")?;
    rec.end();

    m.put("field.yee_ns_per_cell", ft.yee_ns / ft.yee_cells, "ns");
    m.put("field.yee_pml_ns_per_cell", pml_ns / pml_cells, "ns");
    m.put(
        "field.filter_ns_per_cell",
        ft.filter_ns / ft.yee_cells,
        "ns",
    );
    m.put("amr.fill_us", xt.fill_ns / 1e3, "us");
    m.put("amr.sum_us", xt.sum_ns / 1e3, "us");
    m.put("amr.plan_rebuild_us", xt.rebuild_ns / 1e3, "us");
    m.put("amr.shift_window_us", xt.shift_ns / 1e3, "us");
    m.put(
        "amr.exchange_bytes_per_step",
        blocks.exchange_bytes_per_step,
        "B",
    );
    m.put(
        "amr.plan_builds_per_step",
        blocks.plan_builds_per_step,
        "count",
    );
    m.put(
        "mr.build_aux_ns_per_cell",
        mr_t.build_aux_ns / mr_t.cells,
        "ns",
    );
    m.put(
        "mr.couple_currents_ns_per_cell",
        mr_t.couple_ns / mr_t.cells,
        "ns",
    );
    m.put(
        "mr.advance_fields_ns_per_cell",
        mr_t.advance_ns / mr_t.cells,
        "ns",
    );
    m.put("mr.bytes", mr_t.bytes, "B");
    m.put("core.sort_ns_per_particle", ct.sort_ns, "ns");
    m.put(
        "core.redistribute_ns_per_particle",
        ct.redistribute_ns,
        "ns",
    );
    m.put("core.state_digest_ms", ct.digest_ns / 1e6, "ms");

    // Shares of this deck's serial step: probe median x calls per step
    // over the untraced step median. The field probe contains the four
    // guard fills of a step; they are booked under exchange.
    let np = sim.total_particles() as f64;
    let step_ns = p50 * 1e6;
    let (gather, deposit) = if sim.precision == Precision::F32Particles {
        (kt.gather_f32_ns, kt.deposit_f32_ns)
    } else {
        (kt.gather_ns, kt.deposit_ns)
    };
    let kernels_share = (gather + kt.push_ns + deposit) * np / step_ns;
    let fills = 2.0 * xt.fill_ns;
    let field_ns = ft.pml_ns.unwrap_or(ft.yee_ns);
    let filter_ns = sim.filter_passes as f64 * ft.filter_ns;
    let field_share = ((field_ns - fills).max(0.0) + filter_ns) / step_ns;
    // A window shift moves all nine arrays and drops their plans; the
    // next exchanges pay the rebuild.
    let per_shift = xt.shift_ns + (xt.rebuild_ns - xt.fill_ns - xt.sum_ns).max(0.0);
    let amr_share = (fills + xt.sum_ns + blocks.window_shifts_per_step * per_shift) / step_ns;
    let mr_share = if own_has_mr {
        (mr_t.build_aux_ns + mr_t.couple_ns + mr_t.advance_ns) / step_ns
    } else {
        0.0
    };
    let sort_every = sim.sort_interval.max(1) as f64;
    let core_share = (ct.sort_ns / sort_every + ct.redistribute_ns) * np / step_ns;
    m.put("step.kernels_share", kernels_share, "ratio");
    m.put("step.field_share", field_share, "ratio");
    m.put("step.amr_share", amr_share, "ratio");
    m.put("step.mr_share", mr_share, "ratio");
    m.put(
        "core.step_unattributed_share",
        1.0 - kernels_share - field_share - amr_share - mr_share - core_share,
        "ratio",
    );
    m.put("core.allocs_per_step", blocks.allocs_per_step, "count");
    m.put(
        "core.alloc_bytes_per_step",
        blocks.alloc_bytes_per_step,
        "B",
    );

    // The dist tax is measured against this deck's *serial* step; a
    // dist2 workload's own blocks ran on two ranks, so it gets a serial
    // median from a few extra steps.
    let serial_p50 = if w.ranks() > 1 {
        let ms: Vec<f64> = (0..reps.dist_steps)
            .map(|_| {
                rec.time("step_serial", || {
                    let _ = sim.step();
                })
                .1 as f64
                    / 1e6
            })
            .collect();
        percentile(&ms, 50.0)
    } else {
        p50
    };
    let sim = probes::dist(rec, sim, serial_p50, reps.dist_steps, &mut m);

    // 3. State-independent probes.
    rec.begin("wire");
    probes::frames(rec, reps.k, &mut m);
    let mesh_dir = ctx.scratch.subdir("mesh")?;
    probes::transports(rec, &mesh_dir, reps.round_trips, reps.stream_msgs, &mut m)?;
    rec.end();
    probes::observability(rec, &sim, reps.k, &mut m);
    drop(sim);
    m.put(
        "machine.triad_gbytes_per_s",
        probes::triad_gbytes_per_s(rec, reps.k_slow.max(2)),
        "GB/s",
    );

    // 4. Process scenarios.
    let scen = scenario_sizes(ctx.smoke);
    let (cli_ops, cli_failed) = cli_scenario(rec, ctx, scen, &mut m, &mut problems)?;
    let (jobs, jobs_failed) = serve_scenario(rec, ctx, &mut m, &mut problems)?;

    m.put("bench.step_ms_p50", p50, "ms");
    m.put("step_ms_p90", percentile(&blocks.untraced_ms, 90.0), "ms");
    m.put(
        "bench.trace_overhead_share",
        p50_traced / p50 - 1.0,
        "ratio",
    );
    let attempted = lib_steps + cli_ops + jobs;
    let failed = failed_ops(attempted, cli_failed + jobs_failed, &problems);
    Ok(Outcome {
        metrics: m,
        info: Metrics::default(),
        attempted,
        failed,
        problems,
        digest: None,
        round_wall_s: Vec::new(),
        step_samples: lib_steps as usize,
    })
}

fn cli_scenario(
    rec: &mut Recorder,
    ctx: &Ctx,
    sizes: Sizes,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let deck_path = Deck::MrHybrid.generate(ctx.seed, &ctx.scratch.root)?;
    let dir = ctx.scratch.subdir("cli_probe")?;
    let (r, _) = rec.time("cli_socket2", || cli_round(&deck_path, &dir, sizes, 0.0));
    let r = r?;
    problems.extend(r.round.problems.iter().cloned());
    m.put(
        "telemetry.jsonl_bytes_per_step",
        r.jsonl_bytes as f64 / r.steps.max(1) as f64,
        "B",
    );
    Ok((r.round.ops, r.round.failed))
}

fn serve_scenario(
    rec: &mut Recorder,
    ctx: &Ctx,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let dir: &Path = &ctx.scratch.subdir("srv_probe")?;
    let work = (
        built_work(Deck::LwfaWindowF32, ctx)?,
        built_work(Deck::MrHybrid, ctx)?,
    );
    rec.begin("serve_preempt");
    let s = serve_round(ctx, dir, SERVE_BUDGETS_SMALL, work);
    if let Ok(s) = &s {
        // The clients' view of the scenario, one track per connection.
        rec.add("serve.startup", s.spawned, s.ready, 0);
        for (track, name, tr) in [(1, "serve.job_lo", &s.lo), (2, "serve.job_hi", &s.hi)] {
            if let Some(done) = tr.done {
                rec.add(name, tr.submit, done, track);
            }
            if let Some(acc) = tr.accepted {
                rec.add("serve.accept", tr.submit, acc, track);
            }
        }
    }
    rec.end();
    let s = s?;
    problems.extend(s.round.problems.iter().cloned());
    m.put("serve.accept_ms", s.accept_ms(), "ms");
    m.put(
        "serve.preempt_to_hi_first_step_ms",
        s.preempt_to_hi_first_step_ms(),
        "ms",
    );
    m.put("serve.resume_ms", s.resume_ms(), "ms");
    m.put("serve.preempts", s.preempts() as f64, "count");
    m.put(
        "serve.stream_bytes_per_step",
        s.stream_bytes_per_step(),
        "B",
    );
    // Demoted from the end-to-end list: only this scenario defines
    // them, an end-to-end metric must exist on every workload, and
    // both spread by more than 10 % between runs of the same code.
    m.put("first_record_s", s.round.first_record_s, "s");
    m.put("hi_turnaround_s", s.hi_turnaround_s, "s");
    Ok((s.round.ops, s.round.failed))
}
