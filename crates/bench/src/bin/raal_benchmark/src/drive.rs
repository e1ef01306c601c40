//! The load generator: starts the service and drives it.
//!
//! The gated numbers come from **closed-loop** windows — each client
//! sends its next call when the previous one returned — because that is
//! how a cost model is called: the optimizer blocks on every estimate. A
//! run alternates quarter-second *latency windows* (one client, a strict
//! chain through every layer) with *throughput windows*
//! ([`Machine::clients`] clients, so calls queue and the dispatcher can
//! coalesce them), with a machine-speed calibration between every two
//! (see `calib.rs`). Every metric is computed per window and the **median
//! window** is reported, so one host hiccup cannot move it.
//!
//! The open-loop ("paced") phase is a diagnostic only; see the README for
//! why it does not gate.

use crate::affinity::{self, CpuSet};
use crate::calib::Speedometer;
use crate::check::{Checker, FailReason, Tally};
use crate::fixture::Fixture;
use crate::stats;
use crate::stream::Stream;
use raal::{ModelBundle, ServingConfig, ServingPrediction, ShardConfig, ShardedServing};
use std::sync::Arc;
use std::time::Duration;

/// Length of one measurement window. Short, because what a window is
/// normalised by — the calibrations on either side of it — tracks the
/// machine only as finely as the windows are long; many short windows and
/// few long ones gave the same spread for the same total time.
pub const WINDOW_NS: u64 = 250_000_000;
/// Plans per second the paced phase offers, over all clients — about a
/// seventh of what one core serves, on every workload: `select_k` sends a
/// fifth as many calls as the probes, not five times the load.
pub const PACED_PLANS_PER_S: u64 = 1_000;
/// Deadline the service is configured with; generous so that nothing
/// sheds — a shed call is a failed call here.
pub const DEADLINE: Duration = Duration::from_secs(5);

/// The generator's sizing, derived from the CPUs the process was started
/// on and printed with every result. Never more client threads than
/// cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Machine {
    pub cores: usize,
    pub clients: usize,
    pub shards: usize,
}

impl Machine {
    pub fn for_cores(cores: usize) -> Self {
        let cores = cores.max(1);
        Self {
            cores,
            clients: cores.min(4),
            shards: (cores / 2).clamp(1, 2),
        }
    }

    /// Sizes the generator for the CPUs this process may run on. Call it
    /// before [`Placement::serve`] narrows that set.
    pub fn detect() -> Self {
        Self::for_cores(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// Where the run's threads execute.
///
/// Set-up runs on every CPU the process was started on, as a user's
/// would. From the moment the service starts, its threads, the clients
/// and the calibration loop all share **one** CPU — the highest-numbered
/// allowed one. Why: on the small shared-host VMs this benchmark has to
/// repeat on, a thread hop that crosses vCPUs costs an inter-processor
/// interrupt, a VM exit and the wake-up of an idle vCPU, and that cost
/// belongs to the host: left to the scheduler the same binary read 161 us
/// per call on one CPU, 209 us and half an hour later 294 us with the
/// clients on one vCPU and the service on the other, and 290 us unplaced
/// with single windows between 157 and 281 us. Calibration cannot
/// cancel a cost that does not scale with compute speed. On one
/// always-busy CPU what is measured is the ROADMAP's unit — CPU cost per
/// served prediction, predictions per second *per core* — and what is not
/// is the cross-core wake-up of a hop; the README says so.
///
/// The placement is printed, recorded in every `--append`ed result, and
/// `--compare` refuses sets made under different placements: a run that
/// could not place its threads measured another regime, not another
/// program.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// The CPUs the process was started on and the one of them serving
    /// is confined to; `None` when the platform would not place threads.
    cpus: Option<(CpuSet, CpuSet)>,
}

impl Placement {
    /// Reads the CPUs the calling (main) thread may use and checks that it
    /// can narrow itself to the last of them and widen again. Call it
    /// before any thread is started.
    pub fn detect() -> Self {
        let cpus = affinity::allowed().and_then(|all| {
            let one = CpuSet::single(*all.cpus().last()?);
            (affinity::restrict_to(&one) && affinity::restrict_to(&all)).then_some((all, one))
        });
        Self { cpus }
    }

    /// `"one_cpu"`, or `"free"` when the threads run wherever the
    /// scheduler puts them.
    pub fn name(&self) -> &'static str {
        match self.cpus {
            Some(_) => "one_cpu",
            None => "free",
        }
    }

    /// The CPU everything shares once the service runs.
    pub fn serving_cpu(&self) -> Option<usize> {
        self.cpus.and_then(|(_, one)| one.cpus().first().copied())
    }

    /// From here on the calling thread, and every thread it starts, runs
    /// where set-up runs: on all the CPUs the process was started on.
    pub fn set_up(&self) {
        if let Some((all, _)) = &self.cpus {
            affinity::restrict_to(all);
        }
    }

    /// From here on the calling thread, and every thread it starts — the
    /// service's, the clients' — shares the serving CPU.
    pub fn serve(&self) {
        if let Some((_, one)) = &self.cpus {
            affinity::restrict_to(one);
        }
    }
}

/// The service configuration users get by default (int8 tier, default
/// batching and quotas) apart from the deadline, the engine's cluster
/// and a shard count fitted to the machine.
pub fn shard_config(fixture: &Fixture, machine: Machine) -> ShardConfig {
    ShardConfig {
        shards: machine.shards,
        serving: ServingConfig {
            deadline: DEADLINE,
            cluster: fixture.cluster().clone(),
            ..ServingConfig::default()
        },
        ..ShardConfig::default()
    }
}

pub fn start_service(fixture: &Fixture, machine: Machine) -> ShardedServing {
    ShardedServing::new(
        ModelBundle::new(fixture.model.clone(), &fixture.encoder),
        Arc::new(fixture.gpsj.clone()),
        shard_config(fixture, machine),
    )
}

/// What the client threads share.
pub struct Load<'a> {
    pub service: &'a ShardedServing,
    pub stream: &'a Stream<'a>,
    pub checker: &'a Checker,
}

impl Load<'_> {
    /// Sends the request at cycle position `pos` as `tenant` and returns
    /// the answers with the correctness gate's verdict on them.
    pub fn call(
        &self,
        tenant: &str,
        pos: usize,
    ) -> (Vec<ServingPrediction>, Result<(), FailReason>) {
        let req = &self.stream.requests[pos];
        let preds = if req.plans.len() == 1 {
            vec![self.service.predict(tenant, req.plans[0], &req.resources)]
        } else {
            self.service.predict_many(tenant, &req.plans, &req.resources)
        };
        let outcome = self.checker.check(pos, req.plans.len(), &preds);
        (preds, outcome)
    }
}

/// One client's place in the cycle; it persists across windows so the
/// run walks the stream instead of replaying its head.
pub struct ClientState {
    pub tenant: String,
    pub cursor: usize,
}

impl ClientState {
    /// Sends the request under the cursor and moves on.
    fn step(&mut self, load: &Load<'_>, tally: &mut Tally) -> usize {
        let (preds, outcome) = load.call(&self.tenant, self.cursor);
        tally.tally_call(outcome);
        self.cursor = (self.cursor + 1) % load.stream.len();
        preds.len()
    }
}

pub fn client_states(stream: &Stream<'_>, clients: usize) -> Vec<ClientState> {
    (0..clients)
        .map(|c| ClientState {
            tenant: format!("client-{c}"),
            cursor: stream.start_offset(c, clients),
        })
        .collect()
}

/// What one window measured. Times are as the clock read them; the
/// accessors bring them to reference speed (see `calib.rs`).
#[derive(Debug)]
pub struct Window {
    /// How much slower than the reference machine the window ran, from
    /// the calibrations on either side of it.
    pub slowdown: f64,
    pub calls: u64,
    pub plans: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Per-call latencies, ascending.
    pub latencies_ns: Vec<u64>,
    pub tally: Tally,
}

impl Default for Window {
    fn default() -> Self {
        Self {
            slowdown: 1.0,
            calls: 0,
            plans: 0,
            wall_s: 0.0,
            cpu_s: 0.0,
            latencies_ns: Vec::new(),
            tally: Tally::default(),
        }
    }
}

impl Window {
    pub fn plans_per_s(&self) -> f64 {
        self.plans as f64 / self.wall_s * self.slowdown
    }

    pub fn cpu_us_per_plan(&self) -> f64 {
        self.cpu_s * 1e6 / self.plans as f64 / self.slowdown
    }

    pub fn latency_us(&self, q: f64) -> f64 {
        stats::percentile(&self.latencies_ns, q) as f64 / 1e3 / self.slowdown
    }
}

/// Runs the first `clients` of `states` closed-loop for `dur_ns`.
pub fn closed_loop_window(
    load: &Load<'_>,
    states: &mut [ClientState],
    clients: usize,
    dur_ns: u64,
) -> Window {
    let cpu0 = stats::process_cpu_seconds();
    let t0 = telemetry::clock_ns();
    let end = t0 + dur_ns;
    let mut window = Window::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = states[..clients]
            .iter_mut()
            .map(|state| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut latencies = Vec::with_capacity(8_192);
                    let mut plans = 0u64;
                    let mut t = telemetry::clock_ns();
                    while t < end {
                        plans += state.step(load, &mut tally) as u64;
                        let done = telemetry::clock_ns();
                        latencies.push(done - t);
                        t = done;
                    }
                    (tally, latencies, plans)
                })
            })
            .collect();
        for h in handles {
            let (tally, latencies, plans) = h.join().expect("client thread panicked");
            window.tally.merge(&tally);
            window.calls += latencies.len() as u64;
            window.plans += plans;
            window.latencies_ns.extend(latencies);
        }
    });
    window.wall_s = (telemetry::clock_ns() - t0) as f64 * 1e-9;
    window.cpu_s = stats::process_cpu_seconds() - cpu0;
    window.latencies_ns.sort_unstable();
    window
}

/// The measured phase of an untraced run, window by window.
#[derive(Default)]
pub struct ClosedLoop {
    pub latency: Vec<Window>,
    pub throughput: Vec<Window>,
    /// Largest resident set seen at a window boundary, MB.
    pub peak_rss_mb: f64,
}

impl ClosedLoop {
    /// Alternates latency and throughput windows for `seconds` seconds
    /// of window time (at least one window of each), with a calibration
    /// before the first window, between every two and after the last.
    pub fn run(
        load: &Load<'_>,
        states: &mut [ClientState],
        machine: Machine,
        seconds: u64,
    ) -> Self {
        let mut out = Self::default();
        let mut speed = Speedometer::start();
        for w in 0..(seconds * 1_000_000_000 / WINDOW_NS).max(2) {
            let clients = if w % 2 == 0 { 1 } else { machine.clients };
            let mut window = closed_loop_window(load, states, clients, WINDOW_NS);
            window.slowdown = speed.lap();
            if w % 2 == 0 {
                out.latency.push(window);
            } else {
                out.throughput.push(window);
            }
            out.peak_rss_mb = out.peak_rss_mb.max(stats::process_status_mb("VmRSS"));
        }
        out
    }

    fn median_of(windows: &[Window], f: impl Fn(&Window) -> f64) -> f64 {
        stats::median(&windows.iter().map(f).collect::<Vec<_>>())
    }

    pub fn latency_us(&self, q: f64) -> f64 {
        Self::median_of(&self.latency, |w| w.latency_us(q))
    }

    pub fn plans_per_s(&self) -> f64 {
        Self::median_of(&self.throughput, Window::plans_per_s)
    }

    pub fn cpu_us_per_plan(&self) -> f64 {
        Self::median_of(&self.throughput, Window::cpu_us_per_plan)
    }

    /// Single-client calls per second (latency windows) — the reference
    /// the traced phase is compared with.
    pub fn single_client_calls_per_s(&self) -> f64 {
        Self::median_of(&self.latency, |w| w.calls as f64 / w.wall_s * w.slowdown)
    }

    /// The median machine slowdown over all windows: multiply a reported
    /// time by it (divide a rate) to get back what the clock read.
    pub fn median_slowdown(&self) -> f64 {
        let windows = self.latency.iter().chain(&self.throughput);
        stats::median(&windows.map(|w| w.slowdown).collect::<Vec<_>>())
    }

    /// Noise of the throughput windows: IQR ÷ median of their plans/s.
    pub fn throughput_iqr_ratio(&self) -> f64 {
        let v: Vec<f64> = self.throughput.iter().map(Window::plans_per_s).collect();
        stats::iqr_ratio(&v).unwrap_or(f64::NAN)
    }

    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for w in self.latency.iter().chain(&self.throughput) {
            t.merge(&w.tally);
        }
        t
    }
}

/// What the paced (open-loop) phase measured. Each call is timed from
/// the instant it was *due*, so a stalled generator cannot hide queueing
/// (coordinated omission), and how late the generator ran is reported.
#[derive(Debug, Default)]
pub struct Paced {
    /// How much slower than the reference machine the phase ran.
    pub slowdown: f64,
    /// Completion − due time per call, ascending.
    pub latencies_ns: Vec<u64>,
    /// Actual send − due time per call, ascending.
    pub send_lag_ns: Vec<u64>,
    /// Calls sent more than one schedule interval after they were due.
    pub late: u64,
    pub tally: Tally,
}

impl Paced {
    /// Offers [`PACED_PLANS_PER_S`] for `dur_ns`, split over fixed
    /// per-client schedules that are interleaved, not aligned.
    pub fn run(load: &Load<'_>, states: &mut [ClientState], clients: usize, dur_ns: u64) -> Self {
        let plans_per_call = load.stream.requests[0].plans.len() as u64;
        let interval = 1_000_000_000 * clients as u64 * plans_per_call / PACED_PLANS_PER_S;
        let mut speed = Speedometer::start();
        let start = telemetry::clock_ns() + 1_000_000;
        let mut out = Self::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = states[..clients]
                .iter_mut()
                .enumerate()
                .map(|(c, state)| {
                    s.spawn(move || {
                        let mut part = Paced::default();
                        let first = start + c as u64 * interval / clients as u64;
                        for k in 0..dur_ns / interval {
                            let due = first + k * interval;
                            let now = telemetry::clock_ns();
                            if now < due {
                                std::thread::sleep(Duration::from_nanos(due - now));
                            }
                            let sent = telemetry::clock_ns();
                            state.step(load, &mut part.tally);
                            let done = telemetry::clock_ns();
                            part.latencies_ns.push(done.saturating_sub(due));
                            part.send_lag_ns.push(sent.saturating_sub(due));
                            part.late += u64::from(sent.saturating_sub(due) > interval);
                        }
                        part
                    })
                })
                .collect();
            for h in handles {
                let part = h.join().expect("paced client thread panicked");
                out.latencies_ns.extend(part.latencies_ns);
                out.send_lag_ns.extend(part.send_lag_ns);
                out.late += part.late;
                out.tally.merge(&part.tally);
            }
        });
        out.slowdown = speed.lap();
        out.latencies_ns.sort_unstable();
        out.send_lag_ns.sort_unstable();
        out
    }

    pub fn latency_us(&self, q: f64) -> f64 {
        stats::percentile(&self.latencies_ns, q) as f64 / 1e3 / self.slowdown
    }

    pub fn send_lag_us(&self, q: f64) -> f64 {
        stats::percentile(&self.send_lag_ns, q) as f64 / 1e3 / self.slowdown
    }

    pub fn late_share(&self) -> f64 {
        self.late as f64 / self.latencies_ns.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_generator_never_outnumbers_the_cores() {
        for cores in [1, 2, 3, 4, 8, 64] {
            let m = Machine::for_cores(cores);
            assert!(m.clients <= cores && m.clients >= 1 && m.clients <= 4);
            assert!((1..=2).contains(&m.shards));
        }
        assert_eq!(Machine::for_cores(2), Machine { cores: 2, clients: 2, shards: 1 });
        assert_eq!(Machine::for_cores(8), Machine { cores: 8, clients: 4, shards: 2 });
        assert_eq!(Machine::for_cores(0).clients, 1);
    }

    #[test]
    fn window_metrics_are_per_window_and_the_median_window_is_reported() {
        let win = |plans: u64, wall_s: f64, cpu_s: f64, lat: &[u64]| Window {
            slowdown: 1.0,
            calls: lat.len() as u64,
            plans,
            wall_s,
            cpu_s,
            latencies_ns: lat.to_vec(),
            tally: Tally::default(),
        };
        let run = ClosedLoop {
            latency: vec![
                win(3, 1.0, 0.0, &[100_000, 200_000, 300_000]),
                win(3, 1.0, 0.0, &[110_000, 210_000, 310_000]),
                win(3, 1.0, 0.0, &[900_000, 900_000, 900_000]),
            ],
            throughput: vec![
                win(5_000, 1.0, 1.0, &[]),
                win(4_000, 1.0, 1.0, &[]),
                win(1_000, 2.0, 1.0, &[]),
            ],
            peak_rss_mb: 0.0,
        };
        assert_eq!(run.latency_us(0.5), 210.0);
        assert_eq!(run.plans_per_s(), 4_000.0);
        assert_eq!(run.cpu_us_per_plan(), 250.0);
        assert_eq!(run.single_client_calls_per_s(), 3.0);
    }

    #[test]
    fn a_window_on_a_slow_machine_reads_as_at_reference_speed() {
        let window = Window {
            slowdown: 1.25,
            calls: 2,
            plans: 4_000,
            wall_s: 1.0,
            cpu_s: 1.0,
            latencies_ns: vec![250_000, 250_000],
            tally: Tally::default(),
        };
        assert_eq!(window.latency_us(0.5), 200.0);
        assert_eq!(window.plans_per_s(), 5_000.0);
        assert_eq!(window.cpu_us_per_plan(), 200.0);
    }
}
