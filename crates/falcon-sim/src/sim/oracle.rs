//! The fixed-tick stepper, kept as a differential-testing oracle.
//!
//! This is the simulator's original integration scheme: time advances in
//! ticks of a caller-chosen `dt_s` and goodput accrues by the
//! right-Riemann rule. Nothing on the product path calls it;
//! `tests/des_vs_tick.rs`, this crate's tests and the `quick` benchmark's
//! DES-vs-tick pair run it beside [`Simulation::run_until`] to bound the
//! discrete-event stepper by the tick-quantization error. Ticks split at
//! the same interior state-change times the discrete-event stepper stops
//! at, so both agree on environment state at every instant.

use super::{advance_runs, Simulation};

/// Advance `sim` by `duration_s` in ticks of `dt_s`. Tick ends are
/// computed as `start + i·dt_s`, never accumulated, so multi-hour runs
/// cannot drift; any fractional remainder runs as one shorter final tick.
pub fn run_for(sim: &mut Simulation, duration_s: f64, dt_s: f64) {
    debug_assert!(dt_s > 0.0, "dt_s must be positive");
    debug_assert!(duration_s >= 0.0, "duration_s must be non-negative");
    let start = sim.time_s;
    let t_end_s = start + duration_s;
    let span = t_end_s - start;
    if span <= 0.0 {
        return;
    }
    let whole = (span / dt_s).floor() as u64;
    for i in 1..=whole {
        // A span that is an exact tick multiple can put the last grid
        // point one ulp past `t_end_s`; cap it so the clock lands on the
        // caller's target bit-exactly, like `run_until` does.
        tick_to(sim, (start + (i as f64) * dt_s).min(t_end_s));
    }
    // Fractional remainder as one shorter final tick; skip float dust
    // from spans meant as exact tick multiples.
    if t_end_s - sim.time_s > dt_s * 1e-9 {
        tick_to(sim, t_end_s);
    }
}

/// One nominal tick ending exactly at `target_s`, split at interior
/// event/background boundaries. Boundary times are assigned exactly
/// (`time_s = boundary`), never accumulated, so tick grids cannot drift
/// relative to scheduled events.
fn tick_to(sim: &mut Simulation, target_s: f64) {
    while sim.time_s < target_s {
        sim.tracer.set_time(sim.time_s);
        sim.apply_due_events();
        let boundary = sim.next_boundary_after(sim.time_s).min(target_s);
        let dt = boundary - sim.time_s;
        let (routed, loss) = sim.prepare_targets();
        integrate_tick(sim, dt, routed, loss);
        sim.time_s = boundary;
    }
}

/// Advance each cohort by one tick and accrue goodput with the
/// right-Riemann rule (`post_advance_rate × dt`).
fn integrate_tick(sim: &mut Simulation, dt_s: f64, routed: bool, loss: f64) {
    let mut entry = 0usize;
    for (idx, a) in sim.agents.iter_mut().enumerate() {
        if !a.alive {
            continue;
        }
        let (survival, agent_loss) = if routed {
            let s = sim.scratch.agent_survival[idx];
            (s, 1.0 - s)
        } else {
            (1.0 - loss, loss)
        };
        let target = sim.scratch.next_rate(&mut entry, idx);
        let (agg, _) = advance_runs(&mut a.ramps, survival, |ramp| {
            (ramp.advance(target, dt_s), 0.0)
        });
        a.instant_mbps = agg;
        let delivered = agg * dt_s;
        a.delivered_mb += delivered;
        a.total_delivered_mb += delivered;
        a.loss_integral += agent_loss * dt_s;
        // falcon-lint::allow(float-time-accum, reason = "accrues exact segment lengths between samples and is reset at every sample read; bounded by one probe interval")
        a.sample_clock_s += dt_s;
    }
}
