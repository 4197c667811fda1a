//! Reduced-iteration benchmark pass over the bench groups, writing a
//! machine-readable `BENCH.json` perf trajectory.
//!
//! ```text
//! quick [output-path]     # default: BENCH.json in the current directory
//! ```
//!
//! This is the repo's only microbenchmark harness: a calibrated-batch
//! median per benchmark, so CI (and the PR log) can archive numbers
//! without parsing stdout. Each benchmark takes ~25 ms, the whole pass a
//! few seconds.

use std::hint::black_box;

use falcon_bench::QuickBench;
use falcon_core::{
    BayesianMpOptimizer, BayesianOptimizer, BoMpParams, BoParams, ConjugateGradientOptimizer,
    FalconAgent, GradientDescentOptimizer, HillClimbingOptimizer, Observation, OnlineOptimizer,
    ProbeMetrics, SearchBounds, TransferSettings, UtilityFunction,
};
use falcon_gp::{
    Acquisition, AcquisitionKind, AscentPlan, AscentScratch, GpRegressor, LineLattice, Matern52,
    Points, SweepCache,
};
use falcon_sim::alloc::{weighted_max_min_allocate_into, AllocScratch, WeightedStreamDemand};
use falcon_sim::{
    oracle, AgentSettings, Environment, EnvironmentEvent, EventAction, EventQueue, Simulation,
};

fn observation(cc: u32) -> Observation {
    let m = ProbeMetrics::from_aggregate(
        TransferSettings::with_concurrency(cc),
        f64::from(cc.min(48)) * 21.0,
        0.001,
        5.0,
    );
    Observation {
        settings: m.settings,
        utility: UtilityFunction::falcon_default().evaluate(&m),
        metrics: m,
    }
}

fn training_set(n: usize) -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (0..n).map(|i| (i % 64) as f64).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|&n| n * 21.0f64.min(1008.0 / n.max(1.0)) / 1.02f64.powf(n))
        .collect();
    (xs, ys)
}

/// Emulab-48 synthetic aggregate throughput.
fn landscape(cc: u32) -> f64 {
    f64::from(cc) * 21.0f64.min(1008.0 / f64::from(cc))
}

/// Drive an agent until its proposal enters [44, 52]; returns probe count.
fn probes_to_converge(mut agent: FalconAgent, limit: usize) -> usize {
    let mut cc = agent.initial_settings().concurrency;
    for i in 0..limit {
        if (44..=52).contains(&cc) {
            return i;
        }
        let m = ProbeMetrics::from_aggregate(
            TransferSettings::with_concurrency(cc),
            landscape(cc),
            0.0,
            5.0,
        );
        cc = agent.observe(m).concurrency;
    }
    limit
}

fn bench_utility(q: &mut QuickBench) {
    let m = ProbeMetrics::from_aggregate(
        TransferSettings {
            concurrency: 24,
            parallelism: 4,
            pipelining: 8,
        },
        9_600.0,
        0.004,
        5.0,
    );
    for (name, u) in [
        ("eq1_throughput", UtilityFunction::Throughput),
        ("eq4_nonlinear_regret", UtilityFunction::falcon_default()),
        ("eq7_multi_param", UtilityFunction::falcon_multi_param()),
    ] {
        q.bench("utility", name, || black_box(u.evaluate(black_box(&m))));
    }
    let u = UtilityFunction::falcon_default();
    q.bench("utility", "estimated_curve_64", || {
        black_box(u.estimated_curve(64, |n| f64::from(n.min(48)) * 21.0))
    });
}

fn bench_gp(q: &mut QuickBench) {
    let (xs, ys) = training_set(20);
    q.bench("gp", "fit_n20", || {
        black_box(GpRegressor::fit(
            Points::new(&xs, 1),
            &ys,
            Matern52::new(1.0, 10.0),
            1e-3,
        ))
    });
    // The incremental path at the same window size: clone a 19-point model
    // and append the 20th observation — the clone is part of the measured
    // cost, so the fit/extend ratio below is a *lower* bound on the
    // algorithmic speedup.
    let base = match GpRegressor::fit(
        Points::new(&xs[..19], 1),
        &ys[..19],
        Matern52::new(1.0, 10.0),
        1e-3,
    ) {
        Ok(gp) => gp,
        Err(e) => {
            eprintln!("gp fit failed during bench setup: {e:?}");
            std::process::exit(1);
        }
    };
    q.bench("gp", "clone_n19_baseline", || black_box(base.clone()));
    q.bench("gp", "extend_to_n20_incl_clone", || {
        let mut gp = base.clone();
        if gp.extend(&xs[19..20], ys[19]).is_err() {
            std::process::exit(1);
        }
        black_box(gp)
    });
    q.bench("gp", "fit_auto_window20", || {
        black_box(GpRegressor::fit_auto(Points::new(&xs, 1), &ys, 0.02))
    });
    let full = match GpRegressor::fit(Points::new(&xs, 1), &ys, Matern52::new(1.0, 10.0), 1e-3) {
        Ok(gp) => gp,
        Err(e) => {
            eprintln!("gp fit failed during bench setup: {e:?}");
            std::process::exit(1);
        }
    };
    // Fresh buffers per call: the pin times a cold query, allocation included.
    q.bench("gp", "predict_window20", || {
        let mut scratch = falcon_gp::PredictScratch::default();
        black_box(full.predict_into(black_box(&[31.0]), &mut scratch))
    });
    let mut scratch = falcon_gp::PredictScratch::default();
    q.bench("gp", "predict_into_window20", || {
        black_box(full.predict_into(black_box(&[31.0]), &mut scratch))
    });
    // Window slide primitives: rank-1 downdate of the oldest row, and the
    // full per-probe slide (append + evict). Clone cost is included, so
    // both are upper bounds on the in-place path the optimizers run.
    q.bench("gp", "drop_oldest_n20_incl_clone", || {
        let mut gp = full.clone();
        if gp.drop_oldest().is_err() {
            std::process::exit(1);
        }
        black_box(gp)
    });
    q.bench("gp", "slide_window20_incl_clone", || {
        let mut gp = full.clone();
        if gp.slide(&[20.0], 0.3).is_err() {
            std::process::exit(1);
        }
        black_box(gp)
    });
    let flat: Vec<f64> = (1..=100).map(f64::from).collect();
    let candidates = Points::new(&flat, 1);
    let acq = Acquisition::with_defaults(AcquisitionKind::ExpectedImprovement);
    let lattice = LineLattice::new(candidates.len());
    let mut cache = SweepCache::new();
    let mut ascent = AscentScratch::default();
    // Full-scan baseline: a stride-1 scan scores every candidate.
    let full_scan = AscentPlan {
        starts: &[],
        scan_stride: Some(1),
    };
    q.bench("gp", "acquisition_argmax_100_candidates", || {
        cache.begin(candidates.len());
        black_box(falcon_gp::sweep::nominate(
            &acq,
            &full,
            candidates,
            &lattice,
            &full_scan,
            &mut cache,
            &mut ascent,
            300.0,
        ))
    });
    // The same argmax via multi-start local ascent over the shared
    // posterior cache — the production decision path's inner search.
    let starts = [47usize, 31, 0];
    let plan = AscentPlan {
        starts: &starts,
        scan_stride: None,
    };
    q.bench("gp", "acquisition_ascent_100_candidates", || {
        cache.begin(candidates.len());
        black_box(falcon_gp::sweep::nominate(
            &acq,
            &full,
            candidates,
            &lattice,
            &plan,
            &mut cache,
            &mut ascent,
            300.0,
        ))
    });
}

fn bench_simulator(q: &mut QuickBench) {
    // Steady state: settings fixed across steps, so after the first step
    // every step reuses the cached targets.
    let mut sim = Simulation::new(Environment::emulab(21.0), 1);
    let a = sim.add_agent();
    assert!(sim.try_set_settings(a, AgentSettings::with_concurrency(100)));
    q.bench("simulator", "step_100conn_steady", || {
        sim.advance(black_box(0.1))
    });
    // Churn: concurrency flips every step, so every step rebuilds the
    // targets; the steady/churn gap is what the targets cache saves.
    let mut sim = Simulation::new(Environment::emulab(21.0), 1);
    let a = sim.add_agent();
    let mut flip = false;
    q.bench("simulator", "step_100conn_churn", || {
        flip = !flip;
        assert!(sim.try_set_settings(
            a,
            AgentSettings::with_concurrency(if flip { 100 } else { 99 }),
        ));
        sim.advance(black_box(0.1))
    });
    let mut sim = Simulation::new(Environment::hpclab(), 1);
    for _ in 0..3 {
        let a = sim.add_agent();
        assert!(sim.try_set_settings(a, AgentSettings::with_concurrency(16)));
    }
    q.bench("simulator", "step_three_agents_steady", || {
        sim.advance(black_box(0.1))
    });
    q.bench("simulator", "loss_model_eval", || {
        black_box(falcon_tcp::loss_rate(
            black_box(320.0),
            black_box(100.0),
            black_box(32),
            black_box(0.03),
            black_box(1460.0),
        ))
    });
    let streams: Vec<WeightedStreamDemand> = (0..100)
        .map(|i| WeightedStreamDemand {
            cap_mbps: 10.0 + (i % 7) as f64,
            resource_mask: 0b11111,
            weight: 1.0,
            count: 1,
        })
        .collect();
    let caps = [4000.0, 10_000.0, 1000.0, 10_000.0, 4000.0];
    // Fresh buffers per call: the pin times a cold solve, allocation included.
    q.bench("simulator", "max_min_allocate_100", || {
        let (mut rate, mut scratch) = (Vec::new(), AllocScratch::default());
        weighted_max_min_allocate_into(&streams, &caps, &mut rate, &mut scratch);
        black_box(rate)
    });
}

fn bench_fleet(q: &mut QuickBench) {
    // Per-step cost of a 200-transfer routed fleet on a 3-bottleneck
    // backbone: 200 agents spread over the per-link routes plus the
    // all-links cross route, 2 connections each. Steady settings reuse the
    // cached targets every step, as in a converged campaign.
    let routes = [0b001u64, 0b010, 0b100, 0b111];
    let mut sim = Simulation::new(Environment::fleet(&[1000.0, 1600.0, 2500.0]), 1);
    let handles: Vec<_> = (0..200)
        .map(|i| {
            let h = sim.add_agent_on_path(routes[i % routes.len()]);
            assert!(sim.try_set_settings(h, AgentSettings::with_concurrency(2)));
            h
        })
        .collect();
    q.bench("fleet", "step_200transfer_fleet_steady", || {
        sim.advance(black_box(0.1))
    });
    // Churn: one agent's concurrency flips each step, forcing the full
    // routed loss + allocation pipeline every step.
    let mut flip = false;
    q.bench("fleet", "step_200transfer_fleet_churn", || {
        flip = !flip;
        assert!(sim.try_set_settings(
            handles[0],
            AgentSettings::with_concurrency(if flip { 3 } else { 2 }),
        ));
        sim.advance(black_box(0.1))
    });
    // Probe mix: one settings change per five steps, so four steps in
    // five reuse the targets — the 0.79 reuse ratio of a `falcon-bo`
    // fleet campaign.
    let mut step = 0u32;
    q.bench("fleet", "step_200transfer_fleet_probe_mix", || {
        step += 1;
        if step.is_multiple_of(5) {
            flip = !flip;
            assert!(sim.try_set_settings(
                handles[0],
                AgentSettings::with_concurrency(if flip { 3 } else { 2 }),
            ));
        }
        sim.advance(black_box(0.1))
    });
}

fn bench_fleet_scale(q: &mut QuickBench) {
    use falcon_fleet::{
        run_scale_campaign, RlKind, ScaleCampaignSpec, ScaleTopology, ScaleTuner, ScaleWorkload,
    };
    use falcon_sim::alloc::IncrementalMaxMin;

    // Allocator cost at 10^4 live streams on a 32-class dumbbell (96
    // links, 10^4 routed streams). The dense baseline is what the old
    // engine paid per arrival/departure: a from-scratch progressive fill
    // over every live stream. The incremental path re-solves only the
    // dirty component.
    let rtts: Vec<f64> = (0..32).map(|c| 10.0 * 1.09f64.powi(c)).collect();
    let topo = ScaleTopology::dumbbell_wan(4, &rtts, 10.0, 40.0);
    let n_streams = 10_000usize;
    let mut alloc = IncrementalMaxMin::with_links(
        &topo
            .links
            .iter()
            .map(|l| l.capacity_mbps)
            .collect::<Vec<_>>(),
    );
    let mut ids = Vec::with_capacity(n_streams);
    for i in 0..n_streams {
        let r = &topo.routes[i % topo.routes.len()];
        ids.push(alloc.add_stream(600.0, 1.0 + (i % 7) as f64 * 0.25, &r.links));
    }
    alloc.solve_all();

    let dense = q.bench("fleet_scale", "dense_resolve_10k_streams", || {
        black_box(alloc.solve_all().len())
    });
    // Steady-state churn: one departure + one arrival, each followed by a
    // solve — the per-transfer event cost the campaign engine pays.
    let mut cursor = 0usize;
    let incremental = q.bench("fleet_scale", "incremental_arrive_depart_10k", || {
        let slot = cursor % n_streams;
        cursor += 1;
        alloc.remove_stream(ids[slot]);
        black_box(alloc.solve().len());
        let r = &topo.routes[slot % topo.routes.len()];
        ids[slot] = alloc.add_stream(600.0, 1.0 + (slot % 7) as f64 * 0.25, &r.links);
        black_box(alloc.solve().len())
    });
    q.gauge(
        "fleet_scale",
        "dense_over_incremental_ratio",
        if incremental > 0.0 {
            dense / incremental
        } else {
            0.0
        },
    );
    q.gauge(
        "fleet_scale",
        "allocator_bytes_per_stream_10k",
        alloc.memory_bytes() as f64 / alloc.live_streams().max(1) as f64,
    );

    // Churn history must not widen a solve: 1024 live streams on a pod-local
    // k=8 fat tree, 10^5 departures, each arrival taking the freed id onto
    // another route. Streams re-solved per solve over the last 10^4 steps
    // is a count, exact on every machine; it climbs if departed members
    // ever linger in (or return to) the per-link lists.
    let local = ScaleTopology::fat_tree(8, 10.0).pod_local();
    let caps: Vec<f64> = local.links.iter().map(|l| l.capacity_mbps).collect();
    let mut churn = IncrementalMaxMin::with_links(&caps);
    let route = |n: usize| &local.routes[n * 7 % local.routes.len()].links;
    let mut live: std::collections::VecDeque<u32> = (0..1024)
        .map(|n| churn.add_stream(1500.0, 2.0, route(n)))
        .collect();
    let (mut solves, mut resolved) = (0, 0);
    for step in 0..100_000usize {
        if step == 90_000 {
            (solves, resolved) = (churn.solves, churn.streams_resolved);
        }
        if let Some(id) = live.pop_front() {
            churn.remove_stream(id);
        }
        black_box(churn.solve().len());
        live.push_back(churn.add_stream(1500.0, 2.0, route(step + 1024)));
        black_box(churn.solve().len());
    }
    q.gauge(
        "fleet_scale",
        "resolved_per_solve_after_100k_churn",
        (churn.streams_resolved - resolved) as f64 / (churn.solves - solves) as f64,
    );

    // End-to-end campaign: 5k transfers on a pod-local k=8 fat tree,
    // reported as ns per transfer (arrival + allocation churn + lazy
    // integration + departure, amortized) plus peak state per transfer.
    let spec = ScaleCampaignSpec::fat_tree_local(8, 5_000, 0xbe7c4);
    let mut last_bytes_per_transfer = 0.0;
    let campaign_ns = q.bench("fleet_scale", "campaign_5k_fat_tree8", || {
        let report = run_scale_campaign(black_box(&spec), 1);
        last_bytes_per_transfer = report.bytes_per_transfer();
        black_box(report.completions)
    });
    q.gauge(
        "fleet_scale",
        "campaign_ns_per_transfer",
        campaign_ns / spec.workload.transfers as f64,
    );
    q.gauge(
        "fleet_scale",
        "campaign_state_bytes_per_transfer",
        last_bytes_per_transfer,
    );

    // The same engine with a tuner per transfer: the benchmark's
    // `campaign-rl` shape cut to 3k transfers — long transfers on the
    // `dumbbell:8x3` WAN, each under its own rl:bandit probing every 5 sim-s —
    // so the probe event (pop, observe, re-rate, solve, re-arm) is nearly
    // all of the work, reported per probe.
    let rl_spec = ScaleCampaignSpec {
        topology: ScaleTopology::dumbbell_wan(8, &[10.0, 40.0, 160.0], 10.0, 40.0),
        workload: ScaleWorkload {
            transfers: 3_000,
            arrivals_per_min: 12.0,
            mean_file_mb: 16_000.0,
            diurnal: 0.4,
            tenants: 3,
            tuner: ScaleTuner::Rl(RlKind::Bandit),
            ..ScaleWorkload::default()
        },
        failures: Vec::new(),
        duration_s: 60_000.0,
        seed: 0xbe7c4,
        shards: 3,
    };
    let mut probes = 0;
    let rl_ns = q.bench("fleet_scale", "campaign_rl_dumbbell", || {
        let report = run_scale_campaign(black_box(&rl_spec), 1);
        probes = report.probes;
        black_box(report.completions)
    });
    q.gauge(
        "fleet_scale",
        "campaign_rl_ns_per_probe",
        rl_ns / probes.max(1) as f64,
    );
}

fn bench_des(q: &mut QuickBench) {
    // Idle advance: a converged sim has no pending state changes, so the
    // DES engine crosses the whole span in one closed-form segment while
    // the tick oracle pays one step per 0.1 s — the des/tick ratio here
    // is the O(1)-vs-O(ticks) win the engine exists for.
    let mut sim = Simulation::new(Environment::emulab(21.0), 1);
    let a = sim.add_agent();
    assert!(sim.try_set_settings(a, AgentSettings::with_concurrency(100)));
    sim.advance(30.0);
    q.bench("des", "advance_10s_idle", || sim.advance(black_box(10.0)));
    let mut sim = Simulation::new(Environment::emulab(21.0), 1);
    let a = sim.add_agent();
    assert!(sim.try_set_settings(a, AgentSettings::with_concurrency(100)));
    oracle::run_for(&mut sim, 30.0, 0.1);
    q.bench("des", "advance_10s_idle_tick_oracle", || {
        oracle::run_for(&mut sim, black_box(10.0), 0.1)
    });
    // ns per transfer-visible event: schedule one capacity edge just
    // ahead of the clock and advance through it, so each iteration pays
    // schedule + boundary split + fire + re-cap.
    let mut sim = Simulation::new(Environment::emulab(21.0), 7);
    let a = sim.add_agent();
    assert!(sim.try_set_settings(a, AgentSettings::with_concurrency(8)));
    let mut flip = false;
    q.bench("des", "event_schedule_and_fire", || {
        flip = !flip;
        sim.try_add_events([EnvironmentEvent::at(
            sim.time_s() + 0.005,
            EventAction::LinkCapacityFactor {
                resource: None,
                factor: if flip { 0.5 } else { 2.0 },
            },
        )])
        .unwrap();
        sim.advance(black_box(0.01));
    });
    // Raw scheduler throughput (events/sec): 64 pushes + a full drain of
    // the deterministic priority queue per iteration.
    let mut queue: EventQueue<u64> = EventQueue::new();
    q.bench("des", "event_queue_push_pop_64", || {
        for i in 0..64u64 {
            queue.push(((i * 37) % 64) as f64, (i % 3) as u8, i);
        }
        while let Some(e) = queue.pop() {
            black_box(e);
        }
    });
    // The hold model at the depth a 200k-transfer campaign shard's heap
    // had while it held every arrival to come: pop the earliest entry,
    // push one a pseudo-random increment later. This is what a probe paid
    // before the shard loop kept probes in a FIFO.
    const DEPTH: u64 = 65_536;
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    let mut ahead = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 11) as f64 / (1u64 << 53) as f64 * DEPTH as f64
    };
    let mut held: EventQueue<u64> = EventQueue::new();
    for i in 0..DEPTH {
        held.push(ahead(), (i % 4) as u8, i);
    }
    q.bench("des", "event_queue_hold_64k", || {
        if let Some((t, class, payload)) = held.pop() {
            held.push(t + ahead(), class, payload);
        }
    });
}

fn bench_trace(q: &mut QuickBench) {
    use falcon_trace::{TraceEvent, Tracer};
    // Disabled tracer: the no-op path threaded through every hot loop. A
    // single branch on `Option::is_none` — the closure must never run.
    let disabled = Tracer::default();
    q.bench("trace", "emit_disabled", || {
        disabled.emit(|| TraceEvent::SettingsChange {
            concurrency: black_box(32),
            parallelism: 1,
            pipelining: 1,
        });
    });
    let recording = Tracer::recording();
    q.bench("trace", "emit_enabled", || {
        recording.emit(|| TraceEvent::SettingsChange {
            concurrency: black_box(32),
            parallelism: 1,
            pipelining: 1,
        });
    });
    q.bench("trace", "counter_incr_enabled", || {
        recording.add(black_box("bench.counter"), 1);
    });
    // The acceptance gate: a steady-state sim step with the default
    // (disabled) tracer installed must sit within noise of
    // simulator/step_100conn_steady above.
    let mut sim = Simulation::new(Environment::emulab(21.0), 1);
    sim.set_tracer(Tracer::default());
    let a = sim.add_agent();
    assert!(sim.try_set_settings(a, AgentSettings::with_concurrency(100)));
    q.bench("trace", "step_100conn_tracer_disabled", || {
        sim.advance(black_box(0.1))
    });
    let mut sim = Simulation::new(Environment::emulab(21.0), 1);
    sim.set_tracer(Tracer::recording());
    let a = sim.add_agent();
    assert!(sim.try_set_settings(a, AgentSettings::with_concurrency(100)));
    q.bench("trace", "step_100conn_tracer_recording", || {
        sim.advance(black_box(0.1))
    });
}

fn bench_optimizers(q: &mut QuickBench) -> (f64, f64) {
    let mut opt = HillClimbingOptimizer::new(100);
    let mut cc = opt.initial().concurrency;
    let hc_ns = q.bench("optimizers", "decision_hill_climbing", || {
        let s = opt.next(black_box(&observation(cc)));
        cc = s.concurrency;
        black_box(s)
    });
    let mut opt = GradientDescentOptimizer::new(100);
    let mut cc = opt.initial().concurrency;
    let gd_ns = q.bench("optimizers", "decision_gradient_descent", || {
        let s = opt.next(black_box(&observation(cc)));
        cc = s.concurrency;
        black_box(s)
    });
    let mut opt = BayesianOptimizer::new(BoParams::new(100));
    let mut cc = opt.initial().concurrency;
    for _ in 0..25 {
        cc = opt.next(&observation(cc)).concurrency;
    }
    q.bench("optimizers", "decision_bayesian_window20", || {
        let s = opt.next(black_box(&observation(cc)));
        cc = s.concurrency;
        black_box(s)
    });
    let mut opt = BayesianMpOptimizer::new(BoMpParams::new(32, 8));
    let mut s = opt.initial();
    for _ in 0..25 {
        s = opt.next(&observation(s.concurrency));
    }
    q.bench("optimizers", "decision_bayesian_mp_32x8", || {
        let next = opt.next(black_box(&observation(s.concurrency)));
        s = next;
        black_box(next)
    });
    let mut opt = ConjugateGradientOptimizer::new(SearchBounds::multi_parameter(64, 8, 32));
    let mut s = opt.initial();
    q.bench("optimizers", "decision_conjugate_gradient", || {
        let next = opt.next(black_box(&observation(s.concurrency)));
        s = next;
        black_box(next)
    });
    (hc_ns, gd_ns)
}

fn bench_rl(q: &mut QuickBench, hc_ns: f64, gd_ns: f64) {
    use falcon_baselines::HarpHistory;
    use falcon_rl::{BanditOptimizer, QParams, TabularQOptimizer, WarmTable};

    let mut opt = BanditOptimizer::new(100, 7);
    let mut cc = opt.initial().concurrency;
    let bandit_ns = q.bench("rl", "decision_bandit", || {
        let s = opt.next(black_box(&observation(cc)));
        cc = s.concurrency;
        black_box(s)
    });
    let mut opt = TabularQOptimizer::new(QParams::new(100, 7));
    let mut cc = opt.initial().concurrency;
    let q_ns = q.bench("rl", "decision_tabular_q", || {
        let s = opt.next(black_box(&observation(cc)));
        cc = s.concurrency;
        black_box(s)
    });
    // Warm start: the one-time table fit from a synthetic HARP corpus,
    // then the per-probe decision cost of the warm-started bandit.
    let history = HarpHistory::ten_gig_corpus();
    q.bench("rl", "warm_table_fit_24_samples", || {
        black_box(WarmTable::fit(&history, 100, 7))
    });
    let table = WarmTable::fit(&history, 100, 7);
    let mut opt = BanditOptimizer::warm_started(100, 7, &table);
    let mut cc = opt.initial().concurrency;
    let warm_ns = q.bench("rl", "decision_warm_bandit", || {
        let s = opt.next(black_box(&observation(cc)));
        cc = s.concurrency;
        black_box(s)
    });
    // The acceptance gate: the slowest RL decision must stay within 10x
    // of the slower classical single-parameter decision.
    let reference = hc_ns.max(gd_ns);
    let worst = bandit_ns.max(q_ns).max(warm_ns);
    q.gauge(
        "rl",
        "decision_over_classical_ratio",
        if reference > 0.0 {
            worst / reference
        } else {
            0.0
        },
    );
}

fn bench_convergence(q: &mut QuickBench) {
    q.bench("convergence", "converge_gradient_descent", || {
        black_box(probes_to_converge(FalconAgent::gradient_descent(100), 400))
    });
    q.bench("convergence", "converge_bayesian", || {
        black_box(probes_to_converge(FalconAgent::bayesian(100, 7), 400))
    });
}

fn bench_figures(q: &mut QuickBench) {
    q.bench("figures", "table1", || {
        black_box(falcon_experiments::table1())
    });
    q.bench("figures", "fig6a_analytic", || {
        black_box(falcon_experiments::figs6_8::fig6a())
    });
}

fn bench_lint(q: &mut QuickBench) {
    // Full workspace analysis (lex + every per-file rule + the lock-order
    // cycle check) over every library source file, with the sources
    // preloaded so the number tracks analysis cost, not disk IO.
    // This is the wall time `tests/lint.rs` pays per tier-1 run, so it
    // must stay flat as rule families grow.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    match falcon_lint::workspace_sources(&root) {
        Ok(specs) => {
            q.bench("lint", "analyze_workspace_preloaded", || {
                black_box(falcon_lint::lint_files(black_box(&specs)).len())
            });
            q.bench("lint", "walk_and_analyze_with_io", || {
                black_box(
                    falcon_lint::lint_workspace(black_box(&root))
                        .map(|f| f.len())
                        .unwrap_or(usize::MAX),
                )
            });
        }
        Err(e) => eprintln!("lint bench skipped: could not read workspace sources: {e}"),
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH.json".to_string());
    let mut q = QuickBench::new();
    bench_utility(&mut q);
    bench_gp(&mut q);
    bench_simulator(&mut q);
    bench_fleet(&mut q);
    bench_fleet_scale(&mut q);
    bench_des(&mut q);
    bench_trace(&mut q);
    let (hc_ns, gd_ns) = bench_optimizers(&mut q);
    bench_rl(&mut q, hc_ns, gd_ns);
    bench_convergence(&mut q);
    bench_figures(&mut q);
    bench_lint(&mut q);

    for r in q.results() {
        println!(
            "{:<12} {:<36} median {:>12.1} ns  ({:.2e}/s)",
            r.group, r.name, r.median_ns, r.throughput_per_s
        );
    }
    if let Err(e) = std::fs::write(&out_path, q.to_json()) {
        eprintln!("could not write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
