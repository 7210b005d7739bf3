//! §V-C ablations: dynamic load balancing on a laser–solid workload
//! (paper cites 3.8x) and PML co-location with parent grids (paper: 25%).
//!
//! Run with: `cargo run --release -p mrpic-cluster --bin lb_ablation`
//!
//! With `--trace`, instead of modeled halo volumes the communication
//! cost is replayed from *measured* message sizes: a real 4-rank
//! laser–foil run executes on the `mrpic-dist` recording transport, and
//! every framed message (fill, sum, particle redistribution, box
//! migration) is priced on a latency/bandwidth machine model.
//!
//! `--trace trace.json` (a path after the flag) skips the in-process
//! run and prices waits from *real* mrpic-trace spans instead of the
//! recorder: the Chrome-trace file written by `mrpic_run --trace-out`
//! supplies the per-pair byte matrix (matched `send` spans) and the
//! measured per-rank `recv_wait` blocked time.
//!
//! `--backend hsn|mem|socket|tcp` selects the latency/bandwidth model
//! the trace is priced on (default `hsn`, the Slingshot-class NIC the
//! costings always used): `mem` is the in-process mpsc transport,
//! `socket`/`tcp` are the out-of-process loopback meshes of
//! `mrpic_run --transport`, so the same recorded trace prices what a
//! run costs on each real backend.

use mrpic_amr::{BoxArray, IndexBox, IntVect};
use mrpic_cluster::lb::{compare_strategies, multilevel_lb, pml_colocation_gain, solid_slab_costs};
use mrpic_cluster::machine::Network;
use mrpic_cluster::tables::print_table;
use mrpic_core::balance::{comm_time_model, comm_times};
use mrpic_core::laser::antenna_for_a0;
use mrpic_core::profile::Profile;
use mrpic_core::sim::{ShapeOrder, SimulationBuilder};
use mrpic_core::species::Species;
use mrpic_dist::{DistSim, Phase};
use mrpic_field::fieldset::Dim;

/// Replay measured message traffic from a real multi-rank run.
fn trace_mode(backend: &str, net: Network) {
    const NRANKS: usize = 4;
    const STEPS: usize = 30;
    println!("=== Trace-driven communication costing ({NRANKS} ranks, {STEPS} steps) ===\n");
    let sim = SimulationBuilder::new(Dim::Two)
        .domain(IntVect::new(64, 1, 24), [0.1e-6; 3], [0.0; 3])
        .periodic([false, false, true])
        .pml(8)
        .max_box(IntVect::new(16, 1, 12))
        .order(ShapeOrder::Quadratic)
        .cfl(0.6)
        .seed(29)
        .add_species(
            Species::electrons(
                "foil",
                Profile::Slab {
                    n0: 2.0e27,
                    axis: 0,
                    x0: 4.0e-6,
                    x1: 4.6e-6,
                },
                [2, 1, 2],
            )
            .with_thermal([1.0e6; 3]),
        )
        .add_laser(antenna_for_a0(1.5, 0.8e-6, 6.0e-15, 1.0e-6, 1.2e-6, 1.5e-6))
        .build();
    let (mut d, rec) = DistSim::recording(sim, NRANKS);
    let run = d.run(STEPS / 2).and_then(|()| {
        d.force_rebalance(); // include one adopted box migration in the trace
        d.run(STEPS - STEPS / 2)
    });
    if let Err(e) = run {
        eprintln!("trace run failed: {e}");
        std::process::exit(e.exit().code());
    }
    let msgs = rec.messages();
    let mut per_phase: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for m in &msgs {
        let name = match m.phase {
            Phase::Fill => "fill",
            Phase::Sum => "sum",
            Phase::Redist => "redistribute",
            Phase::Migrate => "migrate",
        };
        let e = per_phase.entry(name).or_default();
        e.0 += 1;
        e.1 += m.bytes;
    }
    let rows: Vec<Vec<String>> = per_phase
        .iter()
        .map(|(name, &(n, b))| vec![name.to_string(), n.to_string(), format!("{b}")])
        .collect();
    print_table(&["phase", "messages", "bytes"], &rows);
    println!();
    let pairs = rec.pair_bytes();
    let rows: Vec<Vec<String>> = pairs
        .iter()
        .map(|&(s, dst, b)| vec![format!("{s} -> {dst}"), format!("{b}")])
        .collect();
    print_table(&["rank pair", "bytes"], &rows);
    let (lat, bw) = (net.latency, net.bw_per_node);
    let times = comm_times(&pairs, NRANKS, lat, bw);
    println!(
        "\nper-rank comm seconds over the whole trace ({backend}: {:.1} us latency, {:.0} GB/s):",
        lat * 1e6,
        bw / 1e9,
    );
    for (r, t) in times.iter().enumerate() {
        println!("  rank {r}: {t:.3e} s");
    }
    println!(
        "bulk-synchronous comm time: {:.3e} s/step measured-trace replay",
        comm_time_model(&pairs, NRANKS, lat, bw) / STEPS as f64
    );
    // The recorder also times every blocking receive, so alongside the
    // modeled wire cost we can price what the run *actually* waited:
    // time a rank sat in recv with no frame ready is pure imbalance the
    // balancer could reclaim.
    let waits = rec.rank_wait_seconds(NRANKS);
    let recvs = rec.receives();
    let mut recv_counts = [0u64; NRANKS];
    for r in &recvs {
        recv_counts[r.dst] += 1;
    }
    println!("\nmeasured receive-side wait (in-process transport):");
    let rows: Vec<Vec<String>> = (0..NRANKS)
        .map(|r| {
            vec![
                format!("{r}"),
                recv_counts[r].to_string(),
                format!("{:.3e}", waits[r]),
                format!("{:.3e}", waits[r] / STEPS as f64),
            ]
        })
        .collect();
    print_table(&["rank", "receives", "wait s", "wait s/step"], &rows);
    let (min_w, max_w) = waits.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
        (lo.min(w), hi.max(w))
    });
    println!(
        "wait imbalance (max/min across ranks): {:.2}x — the slack a \
         cost-aware rebalance converts into compute",
        max_w / min_w.max(1e-12)
    );
}

/// Price communication and waits from real mrpic-trace spans: a
/// Chrome-trace file from `mrpic_run --trace-out` replaces both the
/// recording transport's byte log (via matched `send` spans) and its
/// modeled wait estimate (via measured `recv_wait` spans).
fn trace_file_mode(path: &str, backend: &str, net: Network) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read trace {path}: {e}");
        std::process::exit(2);
    });
    let trace = mrpic_trace::chrome::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path} is not a valid Chrome trace: {e}");
        std::process::exit(2);
    });
    let nranks = trace.nranks();
    if nranks < 2 {
        eprintln!("{path} holds fewer than two rank tracks — nothing to price");
        std::process::exit(2);
    }
    let steps = trace.named("step").count().max(1);
    println!("=== Span-driven communication costing ({path}: {nranks} ranks, {steps} steps) ===\n");
    let matrix = mrpic_trace::analysis::comm_matrix(&trace, nranks);
    let mut pairs: Vec<(usize, usize, u64)> = Vec::new();
    for (s, row) in matrix.iter().enumerate() {
        for (d, &b) in row.iter().enumerate() {
            if b > 0 {
                pairs.push((s, d, b));
            }
        }
    }
    let rows: Vec<Vec<String>> = pairs
        .iter()
        .map(|&(s, d, b)| vec![format!("{s} -> {d}"), format!("{b}")])
        .collect();
    print_table(&["rank pair", "bytes"], &rows);
    let (lat, bw) = (net.latency, net.bw_per_node);
    let times = comm_times(&pairs, nranks, lat, bw);
    println!(
        "\nper-rank comm seconds over the whole trace ({backend}: {:.1} us latency, {:.0} GB/s):",
        lat * 1e6,
        bw / 1e9,
    );
    for (r, t) in times.iter().enumerate() {
        println!("  rank {r}: {t:.3e} s");
    }
    println!(
        "bulk-synchronous comm time: {:.3e} s/step measured-trace replay",
        comm_time_model(&pairs, nranks, lat, bw) / steps as f64
    );
    // Real blocked time, straight from the recv_wait spans — no model.
    let waits = mrpic_trace::analysis::recv_wait_seconds(&trace, nranks);
    let mut recv_counts = vec![0u64; nranks];
    for s in trace.named("recv") {
        if s.rank >= 0 && (s.rank as usize) < nranks {
            recv_counts[s.rank as usize] += 1;
        }
    }
    println!("\nmeasured receive-side wait (recv_wait spans):");
    let rows: Vec<Vec<String>> = (0..nranks)
        .map(|r| {
            vec![
                format!("{r}"),
                recv_counts[r].to_string(),
                format!("{:.3e}", waits[r]),
                format!("{:.3e}", waits[r] / steps as f64),
            ]
        })
        .collect();
    print_table(&["rank", "receives", "wait s", "wait s/step"], &rows);
    let (min_w, max_w) = waits.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
        (lo.min(w), hi.max(w))
    });
    println!(
        "wait imbalance (max/min across ranks): {:.2}x — the slack a \
         cost-aware rebalance converts into compute",
        max_w / min_w.max(1e-12)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let backend = match args.iter().position(|a| a == "--backend") {
        Some(i) => args.get(i + 1).cloned().unwrap_or_default(),
        None => "hsn".to_string(),
    };
    let net = Network::for_backend(&backend).unwrap_or_else(|| {
        eprintln!("--backend needs one of: hsn, mem, socket, tcp");
        std::process::exit(2);
    });
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        // A path after the flag prices from real spans; bare `--trace`
        // falls back to the in-process recording transport.
        match args.get(i + 1) {
            Some(p) if !p.starts_with("--") => trace_file_mode(p, &backend, net),
            _ => trace_mode(&backend, net),
        }
        return;
    }
    println!("=== Dynamic load balancing on a laser-solid cost field ===\n");
    // A thin dense slab (the plasma mirror) concentrates particle work.
    let dom = IndexBox::from_size(IntVect::new(512, 512, 1));
    // 16-cell boxes give the balancer enough granularity (the paper
    // assigns 1-4 blocks per device for exactly this reason).
    let ba = BoxArray::chop(dom, IntVect::new(16, 16, 1));
    let slab = IndexBox::new(IntVect::new(256, 0, 0), IntVect::new(288, 512, 1));
    for contrast in [10.0, 50.0, 200.0] {
        let costs = solid_slab_costs(&ba, &slab, contrast);
        println!(
            "target/background cost contrast: {contrast}x, {} boxes, 64 ranks",
            ba.len()
        );
        let outcomes = compare_strategies(&ba, &costs, 64);
        let best = outcomes
            .iter()
            .map(|o| o.relative_time)
            .fold(f64::INFINITY, f64::min);
        let rows: Vec<Vec<String>> = outcomes
            .iter()
            .map(|o| {
                vec![
                    o.strategy.clone(),
                    format!("{:.2}", o.imbalance),
                    format!("{:.2}x", o.relative_time / best),
                ]
            })
            .collect();
        print_table(&["strategy", "max/mean load", "slowdown vs best"], &rows);
        let blind = outcomes
            .iter()
            .find(|o| o.strategy == "sfc-uniform")
            .unwrap();
        let knap = outcomes.iter().find(|o| o.strategy == "knapsack").unwrap();
        println!(
            "dynamic-LB speedup (cost-blind SFC -> knapsack): {:.2}x (paper: 3.8x)\n",
            blind.relative_time / knap.relative_time
        );
    }

    println!("=== Multi-level (MR) load balancing ===\n");
    let coarse = BoxArray::chop(
        IndexBox::from_size(IntVect::new(512, 512, 1)),
        IntVect::new(32, 32, 1),
    );
    let coarse_costs: Vec<f64> = coarse.iter().map(|b| b.num_cells() as f64).collect();
    let patch = IndexBox::new(IntVect::new(224, 0, 0), IntVect::new(288, 512, 1));
    let fine = BoxArray::chop(patch.refine(IntVect::new(2, 2, 1)), IntVect::new(32, 32, 1));
    let fine_costs: Vec<f64> = fine.iter().map(|b| 10.0 * b.num_cells() as f64).collect();
    let (co, joint) = multilevel_lb(&coarse, &coarse_costs, &fine, &fine_costs, 64);
    println!("fine patch over 1/8 of the domain, 10x particle cost, 64 ranks:");
    println!("  co-located fine boxes : {co:.2}x the ideal step time");
    println!("  joint knapsack        : {joint:.2}x the ideal step time");
    println!(
        "  between-level balancing speedup: {:.2}x (the paper's innovation (iii))\n",
        co / joint
    );

    println!("=== PML co-location with parent grids ===\n");
    // Traffic sized from a 2-D science run: PML strips around the domain
    // and the MR patch exchange ~1/3 of the interior halo volume.
    let rows: Vec<Vec<String>> = [(0.25f64, 0.15f64), (0.33, 0.2), (0.5, 0.3)]
        .iter()
        .map(|&(pml_frac, comm_frac)| {
            let interior = 1.0e9;
            let compute = interior / 1.0e9 * (1.0 - comm_frac) / comm_frac;
            let (without, with) =
                pml_colocation_gain(interior, pml_frac * interior, compute, 1.0e9);
            vec![
                format!("{:.0}%", pml_frac * 100.0),
                format!("{:.0}%", comm_frac * 100.0),
                format!("{:.1}%", 100.0 * (without / with - 1.0)),
            ]
        })
        .collect();
    print_table(
        &[
            "PML traffic / interior",
            "comm share of step",
            "co-location gain",
        ],
        &rows,
    );
    println!("\npaper: co-locating PML patches with their parent grids gave 25%");
}
