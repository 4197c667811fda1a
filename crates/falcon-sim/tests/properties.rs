//! Property-based tests for the fluid simulator.

use proptest::prelude::*;

use falcon_sim::{AgentSettings, Environment, EnvironmentKind, Simulation};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Aggregate delivered goodput never exceeds the path capacity, for any
    /// mix of agents and settings in any preset.
    #[test]
    fn throughput_never_exceeds_capacity(
        env_idx in 0usize..7,
        ccs in proptest::collection::vec(1u32..40, 1..4),
        seed in 0u64..1000,
    ) {
        let env = EnvironmentKind::all()[env_idx].build().without_noise();
        let capacity = env.path_capacity_mbps();
        let mut sim = Simulation::new(env, seed);
        let agents: Vec<_> = ccs
            .iter()
            .map(|&cc| {
                let a = sim.add_agent();
                assert!(sim.try_set_settings(a, AgentSettings::with_concurrency(cc)));
                a
            })
            .collect();
        sim.advance(30.0);
        let total: f64 = agents.iter().map(|&a| sim.try_take_sample(a).unwrap().throughput_mbps).sum();
        prop_assert!(
            total <= capacity * 1.01,
            "total {total} exceeds capacity {capacity}"
        );
    }

    /// Identical agents get near-identical throughput (symmetry).
    #[test]
    fn identical_agents_are_symmetric(
        cc in 1u32..32,
        n_agents in 2usize..4,
        seed in 0u64..100,
    ) {
        let env = Environment::emulab(100.0).without_noise();
        let mut sim = Simulation::new(env, seed);
        let agents: Vec<_> = (0..n_agents)
            .map(|_| {
                let a = sim.add_agent();
                assert!(sim.try_set_settings(a, AgentSettings::with_concurrency(cc)));
                a
            })
            .collect();
        sim.advance(40.0);
        let rates: Vec<f64> = agents.iter().map(|&a| sim.try_take_sample(a).unwrap().throughput_mbps).collect();
        let max = rates.iter().cloned().fold(0.0, f64::max);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(max - min <= 0.02 * max.max(1.0), "rates {rates:?}");
    }

    /// More concurrency never reduces throughput by more than the host
    /// contention erosion allows (weak monotonicity up to saturation).
    #[test]
    fn throughput_weakly_monotone_before_saturation(
        seed in 0u64..100,
    ) {
        let env = Environment::hpclab().without_noise();
        let sat = env.saturating_concurrency();
        let mut prev = 0.0;
        for cc in 1..=sat {
            let mut sim = Simulation::new(env.clone(), seed);
            let a = sim.add_agent();
            assert!(sim.try_set_settings(a, AgentSettings::with_concurrency(cc)));
            sim.advance(25.0);
            let thr = sim.try_take_sample(a).unwrap().throughput_mbps;
            prop_assert!(thr >= prev * 0.995, "cc={cc}: {thr} < prev {prev}");
            prev = thr;
        }
    }

    /// Loss is a probability at all times, under any load.
    #[test]
    fn loss_is_probability(
        cc in 1u32..100,
        seed in 0u64..100,
    ) {
        let mut sim = Simulation::new(Environment::emulab_fig4(), seed);
        let a = sim.add_agent();
        assert!(sim.try_set_settings(a, AgentSettings::with_concurrency(cc)));
        sim.advance(20.0);
        let l = sim.current_loss();
        prop_assert!((0.0..=1.0).contains(&l));
        let s = sim.try_take_sample(a).unwrap();
        prop_assert!((0.0..=1.0).contains(&s.loss_rate));
    }

    /// Settings changes preserve invariants: shrinking and growing the
    /// connection pool mid-flight never produces negative or NaN rates.
    #[test]
    fn settings_churn_is_safe(
        steps in proptest::collection::vec((1u32..48, 1u32..4), 2..10),
        seed in 0u64..100,
    ) {
        let mut sim = Simulation::new(Environment::stampede2_comet(), seed);
        let a = sim.add_agent();
        for &(cc, p) in &steps {
            assert!(sim.try_set_settings(
                a,
                AgentSettings {
                    parallelism: p,
                    ..AgentSettings::with_concurrency(cc)
                },
            ));
            sim.advance(3.0);
            let r = sim.try_instantaneous_rate_mbps(a).unwrap();
            prop_assert!(r.is_finite() && r >= 0.0, "rate {r} after {cc}x{p}");
        }
        let s = sim.try_take_sample(a).unwrap();
        prop_assert!(s.throughput_mbps.is_finite() && s.throughput_mbps >= 0.0);
    }

    /// Sample accounting: the interval-average throughput equals delivered
    /// megabits divided by elapsed time, so two consecutive samples over
    /// halves equal one sample over the whole (noise-free).
    #[test]
    fn sampling_is_additive(cc in 1u32..20, seed in 0u64..50) {
        let env = Environment::xsede().without_noise();
        let mut sim1 = Simulation::new(env.clone(), seed);
        let a1 = sim1.add_agent();
        assert!(sim1.try_set_settings(a1, AgentSettings::with_concurrency(cc)));
        sim1.advance(20.0);
        let whole = sim1.try_take_sample(a1).unwrap().throughput_mbps;

        let mut sim2 = Simulation::new(env, seed);
        let a2 = sim2.add_agent();
        assert!(sim2.try_set_settings(a2, AgentSettings::with_concurrency(cc)));
        sim2.advance(10.0);
        let h1 = sim2.try_take_sample(a2).unwrap();
        sim2.advance(10.0);
        let h2 = sim2.try_take_sample(a2).unwrap();
        let combined = (h1.throughput_mbps * h1.interval_s + h2.throughput_mbps * h2.interval_s)
            / (h1.interval_s + h2.interval_s);
        prop_assert!(
            (whole - combined).abs() < 0.01 * whole.max(1.0),
            "whole {whole} vs combined {combined}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random event schedules — including times landing exactly on step
    /// boundaries, coincident events, and events strictly inside the
    /// fractional remainder step — produce bit-identical environment
    /// state under the discrete-event engine and the split-step tick
    /// oracle, for any run_for slicing.
    #[test]
    fn random_event_schedules_agree_across_engines(
        seed in 0u64..500,
        // Event times quantized to 1 ms: mixes exact boundary hits
        // (multiples of the 0.1 s tick) with strictly-interior times.
        times_ms in proptest::collection::vec(0u32..30_000, 0..6),
        coincident_bit in 0u32..2,
        factors in proptest::collection::vec(1u32..10, 0..6),
        // Slices with an awkward fractional remainder (e.g. 7.77 s).
        slice_cs in 100u32..1500,
    ) {
        use falcon_sim::{oracle, EnvironmentEvent, EventAction};
        let build = || {
            let mut sim = Simulation::new(Environment::emulab(100.0).without_noise(), seed);
            let a = sim.add_agent();
            assert!(sim.try_set_settings(a, AgentSettings::with_concurrency(6)));
            let mut evs: Vec<EnvironmentEvent> = times_ms
                .iter()
                .zip(factors.iter().chain(std::iter::repeat(&5)))
                .map(|(&ms, &f)| {
                    EnvironmentEvent::at(
                        f64::from(ms) / 1000.0,
                        EventAction::LinkCapacityFactor {
                            resource: None,
                            factor: f64::from(f) / 10.0,
                        },
                    )
                })
                .collect();
            let coincident = coincident_bit == 1;
            if coincident {
                // Duplicate the first event's time with a different action:
                // same-instant ordering must be insertion order.
                if let Some(first) = evs.first().copied() {
                    evs.push(EnvironmentEvent::at(
                        first.at_s,
                        EventAction::LossFloor { rate: 0.005 },
                    ));
                }
            }
            evs.sort_by(|x, y| x.at_s.total_cmp(&y.at_s));
            sim.try_add_events(evs).expect("future events");
            (sim, a)
        };
        let (mut des, da) = build();
        let (mut tick, ta) = build();
        let slice = f64::from(slice_cs) / 100.0;
        while des.time_s() < 35.0 {
            des.advance(slice);
            oracle::run_for(&mut tick, slice, 0.1);
            prop_assert_eq!(des.time_s(), tick.time_s());
            let dcaps: Vec<f64> = des.env().resources.iter().map(|r| r.capacity_mbps).collect();
            let tcaps: Vec<f64> = tick.env().resources.iter().map(|r| r.capacity_mbps).collect();
            prop_assert_eq!(&dcaps, &tcaps, "caps diverged at t={}", des.time_s());
            prop_assert_eq!(des.current_loss(), tick.current_loss());
            prop_assert_eq!(des.pending_events().len(), tick.pending_events().len());
        }
        // Delivered goodput differs only by the oracle's O(dt) Riemann error.
        let d = des.delivered_mbits_total(da);
        let t = tick.delivered_mbits_total(ta);
        prop_assert!(
            (d - t).abs() <= 0.02 * t.max(1.0),
            "delivered {} (DES) vs {} (tick)", d, t
        );
    }
}
