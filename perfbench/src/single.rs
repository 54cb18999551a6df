//! Single-query streams, the paper's protocol: every query runs through
//! Cold-Start, CISGraph-O and the simulated CISGraph accelerator
//! (`AcceleratorConfig::date2025`), batch by batch, over one shared graph.
//!
//! `paper-or` is made of these passes.

use crate::stats::{median, ms, quantile, ratio, tail_q, us};
use crate::{repeat_until, Outcome, Settings};
use cisgraph_algo::classify::ClassificationSummary;
use cisgraph_algo::Ppsp;
use cisgraph_bench::WorkloadBundle;
use cisgraph_core::{AcceleratorConfig, CisGraphAccel};
use cisgraph_engines::{CisGraphO, ColdStart, StreamingEngine};
use cisgraph_graph::DynamicGraph;
use cisgraph_sim::MemStats;
use cisgraph_types::{EdgeUpdate, PairQuery};
use std::time::{Duration, Instant};

/// The three engines of one query.
struct Engines {
    cs: ColdStart<Ppsp>,
    ciso: CisGraphO<Ppsp>,
    accel: CisGraphAccel<Ppsp>,
}

impl Engines {
    fn new(graph: &DynamicGraph, query: PairQuery) -> Self {
        Self {
            cs: ColdStart::new(query),
            ciso: CisGraphO::new(graph, query),
            accel: CisGraphAccel::new(graph, query, AcceleratorConfig::date2025()),
        }
    }
}

/// Sums over the (query, batch) steps of one or more passes.
#[derive(Debug, Default)]
struct Tally {
    setups_s: Vec<f64>,
    batch_ms: Vec<f64>,
    layer_ms: Vec<f64>,
    updates: u64,
    batches: u64,
    failed: u64,
    wrong: u64,
    steps: u64,
    cs_response_ms: Vec<f64>,
    ciso_response_us: Vec<f64>,
    accel_response_kcycles: Vec<f64>,
    accel_wall_ms: Vec<f64>,
    apply: Duration,
    cs_response: Duration,
    cs_computations: u64,
    ciso_response: Duration,
    ciso_drain: Duration,
    ciso_computations: u64,
    ciso_class: ClassificationSummary,
    snapshot: Duration,
    simulate: Duration,
    response_cycles: u64,
    identification_cycles: u64,
    additions_cycles: u64,
    drain_cycles: u64,
    mem: MemStats,
}

impl Tally {
    /// Mean over (query, batch) steps.
    fn per_step(&self, total: f64) -> f64 {
        ratio(total, self.steps as f64)
    }
}

/// One pass, query by query as the paper streams them: each query gets a
/// copy of `initial` and its own engines (their construction, summed over
/// queries, is the pass's set-up time), then streams `batches`. A step is
/// one (query, batch): apply the batch, then run the three engines. A batch
/// call is one batch answered for every query of the pass: the sum of that
/// batch's steps. A traced pass materializes the snapshot and simulates on
/// it as two timed calls instead of one `CisGraphAccel::process_batch`.
fn pass(
    initial: &DynamicGraph,
    queries: &[PairQuery],
    batches: &[Vec<EdgeUpdate>],
    traced: bool,
    t: &mut Tally,
) {
    let mut setup = Duration::ZERO;
    let mut calls = vec![(Duration::ZERO, Duration::ZERO); batches.len()];
    for &query in queries {
        let mut graph = initial.clone();
        let start = Instant::now();
        let mut e = Engines::new(&graph, query);
        setup += start.elapsed();
        stream(&mut graph, &mut e, batches, traced, &mut calls, t);
    }
    t.setups_s.push(setup.as_secs_f64());
    for (batch, (wall, layers)) in batches.iter().zip(calls) {
        t.batch_ms.push(ms(wall));
        t.layer_ms.push(ms(layers));
        t.updates += batch.len() as u64;
    }
}

/// Streams `batches` through one query's engines, one step per batch, and
/// adds each step's wall time and timed-layer time to `calls`.
fn stream(
    graph: &mut DynamicGraph,
    e: &mut Engines,
    batches: &[Vec<EdgeUpdate>],
    traced: bool,
    calls: &mut [(Duration, Duration)],
    t: &mut Tally,
) {
    for (batch, call) in batches.iter().zip(calls) {
        let step = Instant::now();
        t.batches += 1;
        if graph.apply_batch(batch).is_err() {
            t.failed += 1;
            break;
        }
        let apply = step.elapsed();
        t.apply += apply;
        let mut layers = apply;
        let clock = Instant::now();
        let cs = e.cs.process_batch(graph, batch);
        let cs_wall = clock.elapsed();
        let clock = Instant::now();
        let ciso = e.ciso.process_batch(graph, batch);
        let ciso_wall = clock.elapsed();
        layers += cs_wall + ciso_wall;
        let accel = if traced {
            let clock = Instant::now();
            let snapshot = graph.snapshot();
            let snapshot_wall = clock.elapsed();
            let clock = Instant::now();
            let report = e.accel.process_batch_on_snapshot(&snapshot, batch);
            let simulate_wall = clock.elapsed();
            t.snapshot += snapshot_wall;
            t.simulate += simulate_wall;
            layers += snapshot_wall + simulate_wall;
            report
        } else {
            let clock = Instant::now();
            let report = e.accel.process_batch(graph, batch);
            t.accel_wall_ms.push(ms(clock.elapsed()));
            report
        };
        t.wrong += u64::from(ciso.answer != cs.answer) + u64::from(accel.answer != cs.answer);
        t.steps += 1;
        t.cs_response_ms.push(ms(cs.response_time));
        t.ciso_response_us.push(us(ciso.response_time));
        t.accel_response_kcycles
            .push(accel.response_cycles as f64 / 1e3);
        t.cs_response += cs.response_time;
        t.cs_computations += cs.counters.computations;
        t.ciso_response += ciso.response_time;
        t.ciso_drain += ciso.total_time.saturating_sub(ciso.response_time);
        t.ciso_computations += ciso.counters.computations;
        if let Some(c) = ciso.classification {
            t.ciso_class += c;
        }
        t.response_cycles += accel.response_cycles;
        t.identification_cycles += accel.milestones.identification_done;
        t.additions_cycles += accel.milestones.additions_done;
        t.drain_cycles += accel
            .milestones
            .drain_done
            .saturating_sub(accel.milestones.response);
        t.mem += accel.mem;
        call.0 += step.elapsed();
        call.1 += layers;
    }
}

/// The single-query layers' metrics: means per (query, batch) step, and
/// medians where the name says response.
fn per_layer(t: &Tally, out: &mut Outcome) {
    let clock_hz = AcceleratorConfig::date2025().clock_ghz * 1e9;
    let cs_s = t.per_step(t.cs_response.as_secs_f64());
    let ciso_s = t.per_step(t.ciso_response.as_secs_f64());
    let accel_s = t.per_step(t.response_cycles as f64) / clock_hz;
    out.set("graph.apply_ms", ratio(ms(t.apply), t.batches as f64));
    out.set("graph.snapshot_ms", t.per_step(ms(t.snapshot)));
    out.set("sim.simulate_ms", t.per_step(ms(t.simulate)));
    out.set("ciso.response_us", ciso_s * 1e6);
    out.set(
        "ciso.drain_us",
        t.per_step(t.ciso_drain.as_secs_f64()) * 1e6,
    );
    out.set("ciso.computations", t.per_step(t.ciso_computations as f64));
    out.set(
        "cold_start.computations",
        t.per_step(t.cs_computations as f64),
    );
    out.set("cold_start.response_ms", median(&t.cs_response_ms));
    out.set("accel.response_kcycles", median(&t.accel_response_kcycles));
    out.set(
        "accel.identification_kcycles",
        t.per_step(t.identification_cycles as f64) / 1e3,
    );
    out.set(
        "accel.additions_kcycles",
        t.per_step(t.additions_cycles as f64) / 1e3,
    );
    out.set(
        "accel.drain_kcycles",
        t.per_step(t.drain_cycles as f64) / 1e3,
    );
    out.set("sim.dram_reads", t.per_step(t.mem.dram_reads as f64));
    out.set("sim.row_hit_rate", t.mem.row_hit_rate());
    out.set("sim.spm_hit_rate", t.mem.spm_hit_rate());
    out.set("paper.table4_ciso_x", ratio(cs_s, ciso_s));
    out.set("paper.table4_accel_x", ratio(cs_s, accel_s));
    out.set("paper.fig2_useless_share", t.ciso_class.useless_fraction());
}

fn tallies_into(t: &Tally, out: &mut Outcome) {
    out.attempted += t.batches;
    out.failed += t.failed;
    out.wrong_answers += t.wrong;
}

/// The `paper-or` workload.
pub fn run(settings: &Settings, bundle: &WorkloadBundle) -> Outcome {
    let size = &settings.size;
    let batches = &bundle.batches[..size.batches.min(bundle.batches.len())];
    let query_sets: Vec<&[PairQuery]> = bundle.queries.chunks(size.queries.max(1)).collect();
    let mut out = Outcome::default();
    if settings.trace {
        // Untraced and traced passes alternate over query set 0, so the
        // tracing overhead is measured against the same work in the same
        // run, and the traced counts repeat exactly under one seed.
        let mut plain = Tally::default();
        let mut traced = Tally::default();
        let passes = repeat_until(settings.seconds, 2, |i| {
            let tally = if i % 2 == 0 { &mut plain } else { &mut traced };
            pass(&bundle.initial, query_sets[0], batches, i % 2 == 1, tally);
        });
        tallies_into(&plain, &mut out);
        tallies_into(&traced, &mut out);
        per_layer(&traced, &mut out);
        let plain_p50 = median(&plain.batch_ms);
        out.set("sim.process_batch_ms", median(&plain.accel_wall_ms));
        out.set("trace.overhead", ratio(median(&traced.batch_ms), plain_p50));
        out.set(
            "serve.unattributed_share",
            1.0 - ratio(median(&traced.layer_ms), plain_p50),
        );
        out.notes.push(format!(
            "{passes} passes alternating untraced/traced; {} traced steps of {} queries",
            traced.steps,
            query_sets[0].len()
        ));
        return out;
    }
    let mut t = Tally::default();
    let passes = repeat_until(settings.seconds, 1, |i| {
        pass(
            &bundle.initial,
            query_sets[i % query_sets.len()],
            batches,
            false,
            &mut t,
        );
    });
    while t.setups_s.len() < crate::MIN_SETUPS {
        let mut setup = Duration::ZERO;
        for &query in query_sets[t.setups_s.len() % query_sets.len()] {
            let start = Instant::now();
            drop(Engines::new(&bundle.initial, query));
            setup += start.elapsed();
        }
        t.setups_s.push(setup.as_secs_f64());
    }
    tallies_into(&t, &mut out);
    let n = t.batch_ms.len();
    out.set("batch_p50_ms", median(&t.batch_ms));
    out.set("batch_tail_ms", quantile(&t.batch_ms, tail_q(n)));
    out.set(
        "updates_per_s",
        ratio(t.updates as f64, t.batch_ms.iter().sum::<f64>() / 1e3),
    );
    out.set("response_p50_us", median(&t.ciso_response_us));
    out.set("setup_s", median(&t.setups_s));
    out.notes.push(format!(
        "{passes} passes of {} queries (query set per pass, {} sets) x {} batches; \
         batch-call samples n={n} (tail q={:.3}); set-ups {}",
        query_sets[0].len(),
        query_sets.len(),
        batches.len(),
        tail_q(n),
        t.setups_s.len(),
    ));
    out
}
