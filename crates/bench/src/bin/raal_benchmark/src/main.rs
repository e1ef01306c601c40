//! `raal_benchmark` — the repo's benchmark: four serving workloads driven
//! through `raal::serving::shard::ShardedServing` from one process, every
//! answer checked, every metric printed by name with its unit.
//!
//! ```text
//! raal_benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//!                [--smoke] [--append <file>]
//! raal_benchmark --compare <A> <B> [--bounds <BENCHMARK.json>]
//! ```
//!
//! An untraced run (`--trace 0`, the default) reports the end-to-end
//! metrics; a traced run (`--trace 1`) reports the per-layer metrics and
//! writes `.bench_tmp/trace.json`. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. See the
//! README next to this package for what each workload and metric is for.

mod affinity;
mod calib;
mod check;
mod compare;
mod drive;
mod fixture;
mod layers;
mod report;
mod stats;
mod stream;
mod trace;

use check::{Checker, FailReason, Tally};
use drive::{ClosedLoop, Load, Machine, Paced, Placement, Window};
use fixture::Fixture;
use raal::{FallbackReason, ShardedServing};
use report::Report;
use std::path::{Path, PathBuf};
use stream::{Stream, Workload};

/// Measured seconds when `--seconds` is not given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: u64 = 13;
/// `--smoke` shortens every phase to this.
const SMOKE_SECONDS: u64 = 2;
/// Full set-ups per untraced run; `setup_s` is their median, so one slow
/// set-up (page cache, a busy neighbour) does not decide it.
const SETUP_REPEATS: usize = 3;
/// Calls answered before a set-up counts as finished: the service's
/// threads are up and every arena on the path has been through a request.
const SETUP_CALLS: usize = 64;
const SECOND_NS: u64 = 1_000_000_000;
/// Untimed closed-loop warm-up before the measured phase. Short: the
/// set-up just before it already ended with [`SETUP_CALLS`] answered calls.
const WARMUP_NS: u64 = SECOND_NS / 2;
/// Where the run may write: temp files (removed) and `trace.json` (kept).
const SCRATCH_DIR: &str = ".bench_tmp";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    append: Option<PathBuf>,
}

enum Command {
    Run(Args),
    Compare {
        a: PathBuf,
        b: PathBuf,
        bounds: PathBuf,
    },
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: raal_benchmark --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>] \
         [--smoke] [--append <file>]\n       raal_benchmark --compare <A> <B> [--bounds <file>]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut append = None;
    let mut compare = None;
    let mut bounds = PathBuf::from("BENCHMARK.json");
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                seed = Some(v.parse().map_err(|_| format!("--seed '{v}' is not an integer"))?);
            }
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                seconds = v.parse().map_err(|_| format!("--seconds '{v}' is not an integer"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                // `--trace 0|1`, or a bare `--trace` meaning 1.
                trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    Some(other) if !other.starts_with("--") => {
                        return Err(format!("--trace takes 0 or 1, not '{other}'"));
                    }
                    _ => true,
                };
            }
            "--smoke" => seconds = SMOKE_SECONDS,
            "--append" => append = Some(PathBuf::from(value(&mut i, "--append")?)),
            "--compare" => {
                let a = PathBuf::from(value(&mut i, "--compare")?);
                let b = PathBuf::from(value(&mut i, "--compare")?);
                compare = Some((a, b));
            }
            "--bounds" => bounds = PathBuf::from(value(&mut i, "--bounds")?),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if let Some((a, b)) = compare {
        return Ok(Command::Compare { a, b, bounds });
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        append,
    }))
}

/// A directory under [`SCRATCH_DIR`] that is removed when the run ends,
/// however it ends.
struct TempDir(PathBuf);

impl TempDir {
    fn create() -> std::io::Result<Self> {
        let dir = Path::new(SCRATCH_DIR).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The git commit of the working directory, if it is a repository (the
/// telemetry crate's manifest already knows how to find it).
fn git_sha() -> String {
    serde_json::from_str::<serde::Value>(&telemetry::manifest_json(&[]))
        .ok()
        .and_then(|m| m.get("git_sha").and_then(report::as_str).map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// One full set-up: build the served system and the plan pool (on every
/// CPU the process has, as a user's would), start the service where it
/// is measured and get [`SETUP_CALLS`] calls answered. Returns how long
/// that took and how many plans those calls scored.
fn set_up(
    args: &Args,
    machine: Machine,
    placement: Placement,
) -> (Fixture, ShardedServing, f64, u64) {
    let t0 = telemetry::clock_ns();
    placement.set_up();
    let fixture = Fixture::build(args.seed);
    placement.serve();
    let service = drive::start_service(&fixture, machine);
    let stream = Stream::build(args.workload, &fixture.pool, fixture.cluster(), args.seed);
    let mut plans = 0;
    for req in stream.requests.iter().take(SETUP_CALLS) {
        plans += service.predict_many("client-0", &req.plans, &req.resources).len() as u64;
    }
    drop(stream);
    (fixture, service, stats::seconds_since(t0), plans)
}

/// What both kinds of run end with: the service's own accounting must
/// agree with the generator's, and nothing may have fallen back.
fn conserved(service: &ShardedServing, plans_sent: u64) -> bool {
    let slo = service.slo_stats();
    let ok = slo.total == plans_sent && slo.model == slo.total;
    if !ok {
        println!(
            "ACCOUNTING: service counted {} predictions ({} from the model), generator sent {}",
            slo.total, slo.model, plans_sent
        );
    }
    ok
}

fn print_failures(tally: &Tally) {
    println!("calls attempted {} failed {}", tally.attempted, tally.failed());
    for reason in FailReason::ALL {
        let n = tally.by_reason[reason as usize];
        if n > 0 {
            println!("  {:<32} {n}", reason.metric());
        }
    }
}

fn print_header(args: &Args, machine: Machine, placement: Placement) {
    println!("raal_benchmark workload={} seed={}", args.workload.name(), args.seed);
    println!("why: {}", args.workload.why());
    println!(
        "machine_cores={} clients={} shards={} seconds={} trace={} git_sha={}",
        machine.cores,
        machine.clients,
        machine.shards,
        args.seconds,
        u8::from(args.trace),
        git_sha()
    );
    match placement.serving_cpu() {
        Some(cpu) => println!(
            "placement={}: set-up on every allowed cpu; service, clients and calibration \
             share cpu {cpu}",
            placement.name()
        ),
        None => println!(
            "placement={}: THREADS NOT PLACED (the platform refused); this run measures \
             another regime and compares only with runs like it, see README",
            placement.name()
        ),
    }
}

fn print_inputs(
    fixture: &Fixture,
    machine: Machine,
    stream: &Stream<'_>,
    checker: &Checker,
    stream_hash: u64,
) {
    println!("service config: {:?}", drive::shard_config(fixture, machine));
    println!(
        "inputs: {} distinct plans (mean {:.1} nodes), cycle of {} requests, {} with a tape \
         reference, client.stream_hash={:016x}",
        fixture.pool.plans.len(),
        fixture.pool.mean_nodes(),
        stream.len(),
        checker.sample_size(),
        stream_hash
    );
}

fn per_window(windows: &[Window], f: impl Fn(&Window) -> f64) -> Vec<f64> {
    windows.iter().map(f).collect()
}

/// `--trace 0`: the end-to-end metrics.
fn untraced_run(
    args: &Args,
    machine: Machine,
    placement: Placement,
    report: &mut Report,
) -> (Tally, bool) {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut system = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous system down first: two resident copies would
        // inflate the memory figure.
        drop(system.take());
        let (fixture, service, secs, plans) = set_up(args, machine, placement);
        println!("set-up: {secs:.3} s on the clock");
        setups.push(secs);
        system = Some((fixture, service, plans));
    }
    let (fixture, service, mut plans_sent) = system.expect("SETUP_REPEATS is at least 1");

    let stream = Stream::build(args.workload, &fixture.pool, fixture.cluster(), args.seed);
    let checker = Checker::build(&fixture, &stream);
    print_inputs(&fixture, machine, &stream, &checker, stream.hash());
    let load = Load {
        service: &service,
        stream: &stream,
        checker: &checker,
    };
    let mut states = drive::client_states(&stream, machine.clients);

    let warm = drive::closed_loop_window(&load, &mut states, machine.clients, WARMUP_NS);
    let run = ClosedLoop::run(&load, &mut states, machine, args.seconds);
    let mut tally = warm.tally;
    tally.merge(&run.tally());
    plans_sent += tally.attempted * stream.requests[0].plans.len() as u64;
    let conserved = conserved(&service, plans_sent);
    service.shutdown();

    println!(
        "windows: {} latency (1 client, {} calls) + {} throughput ({} clients, {} plans); \
         latency p95 {:.1} us, p99 {:.1} us; throughput-window IQR/median {:.4}",
        run.latency.len(),
        run.latency.iter().map(|w| w.calls).sum::<u64>(),
        run.throughput.len(),
        machine.clients,
        run.throughput.iter().map(|w| w.plans).sum::<u64>(),
        run.latency_us(0.95),
        run.latency_us(0.99),
        run.throughput_iqr_ratio(),
    );
    println!(
        "per window, at reference speed (clock reading = value x slowdown for times, / for rates):"
    );
    println!("  latency p50, us: {:.1?}", per_window(&run.latency, |w| w.latency_us(0.5)));
    println!("  plans/s:         {:.0?}", per_window(&run.throughput, Window::plans_per_s));
    println!(
        "  cpu us/plan:     {:.1?}",
        per_window(&run.throughput, Window::cpu_us_per_plan)
    );
    println!(
        "  slowdown per latency window:    {:.3?}",
        per_window(&run.latency, |w| w.slowdown)
    );
    println!(
        "  slowdown per throughput window: {:.3?}",
        per_window(&run.throughput, |w| w.slowdown)
    );
    // A set-up lasts ten windows; the machine's speed flips by 10-20%
    // between neighbouring windows, so a calibration at either end says
    // little about the seconds in between. The run's median slowdown does.
    let slowdown = run.median_slowdown();
    println!("set-up at reference speed: clock reading / the run's median slowdown {slowdown:.3}");
    report.set("setup_s", stats::median(&setups) / slowdown);
    report.set("latency_p50_us", run.latency_us(0.5));
    report.set("throughput_plans_per_s", run.plans_per_s());
    report.set("cpu_us_per_plan", run.cpu_us_per_plan());
    report.set("peak_rss_mb", run.peak_rss_mb);
    (tally, conserved)
}

/// Bytes and lines of the telemetry sink so far (0, 0 when there is none).
fn sink_size(sink: Option<&Path>) -> (u64, u64) {
    telemetry::flush();
    sink.and_then(|p| std::fs::read(p).ok()).map_or((0, 0), |bytes| {
        (bytes.len() as u64, bytes.iter().filter(|&&b| b == b'\n').count() as u64)
    })
}

/// `--trace 1`: the per-layer metrics.
fn traced_run(
    args: &Args,
    machine: Machine,
    placement: Placement,
    tmp: &Path,
    sink: Option<&Path>,
    report: &mut Report,
) -> (Tally, bool) {
    let (fixture, service, _, mut plans_sent) = set_up(args, machine, placement);
    layers::report_checkpoint(report, &fixture, tmp);
    let frozen = service
        .model()
        .expect("a healthy service exposes its frozen model")
        .clone();
    layers::report_model_side(report, &fixture, &frozen);
    layers::report_serving_side(report, &fixture, machine);

    let stream = Stream::build(args.workload, &fixture.pool, fixture.cluster(), args.seed);
    let checker = Checker::build(&fixture, &stream);
    let stream_hash = stream.hash();
    print_inputs(&fixture, machine, &stream, &checker, stream_hash);
    let load = Load {
        service: &service,
        stream: &stream,
        checker: &checker,
    };
    let mut states = drive::client_states(&stream, machine.clients);

    // A quarter of the time untraced (the reference the traced phase is
    // compared with; four windows at least, so their spread exists), half
    // traced, a quarter paced.
    let warm = drive::closed_loop_window(&load, &mut states, machine.clients, WARMUP_NS);
    let (sink_bytes0, sink_lines0) = sink_size(sink);
    let untraced = ClosedLoop::run(&load, &mut states, machine, (args.seconds / 4).max(4));
    report.set("client.machine_slowdown", untraced.median_slowdown());
    // Set-up stages by the run's median slowdown, as `setup_s` is.
    layers::report_stages(report, &fixture.stages, untraced.median_slowdown());
    let traced =
        trace::traced_phase(&load, &fixture, &mut states[0], (args.seconds / 2).max(1) * SECOND_NS);
    let (sink_bytes1, sink_lines1) = sink_size(sink);
    let paced =
        Paced::run(&load, &mut states, machine.clients, (args.seconds / 4).max(1) * SECOND_NS);

    let mut tally = warm.tally;
    tally.merge(&untraced.tally());
    let calls_between_sink_reads = untraced.tally().attempted + traced.tally.attempted;
    tally.merge(&traced.tally);
    tally.merge(&paced.tally);
    plans_sent += tally.attempted * stream.requests[0].plans.len() as u64;
    let conserved = conserved(&service, plans_sent);
    let slo = service.slo_stats();
    service.shutdown();

    let trace_path = Path::new(SCRATCH_DIR).join("trace.json");
    match traced.recorder.write_trace_file(&trace_path) {
        Ok(()) => {
            println!("wrote {} spans to {}", traced.recorder.spans.len(), trace_path.display())
        }
        Err(e) => println!("could not write {}: {e}", trace_path.display()),
    }

    // client
    report.set("client.sent", tally.attempted as f64);
    report.set("client.ok", (tally.attempted - tally.failed()) as f64);
    report.set("client.failed", tally.failed() as f64);
    // The 53 bits a float carries exactly; the header prints all 64.
    report.set("client.stream_hash", (stream_hash >> 11) as f64);
    report.set("client.latency_p50_us", untraced.latency_us(0.5));
    report.set("client.latency_p95_us", untraced.latency_us(0.95));
    report.set("client.latency_p99_us", untraced.latency_us(0.99));
    report.set("client.cpu_us_per_plan", untraced.cpu_us_per_plan());
    report.set("client.window_iqr_ratio", untraced.throughput_iqr_ratio());
    report.set("client.paced_p50_us", paced.latency_us(0.5));
    report.set("client.paced_p99_us", paced.latency_us(0.99));
    report.set("client.paced_send_lag_p99_us", paced.send_lag_us(0.99));
    report.set("client.paced_late_share", paced.late_share());
    report.set("client.vm_hwm_mb", stats::process_status_mb("VmHWM"));
    for reason in FailReason::ALL {
        report.set(reason.metric(), tally.by_reason[reason as usize] as f64);
    }
    report.set("client.machine_cores", machine.cores as f64);
    report.set("client.clients", machine.clients as f64);
    report.set("client.shards", machine.shards as f64);
    report.set("client.distinct_plans", fixture.pool.plans.len() as f64);
    report.set("client.cycle_requests", stream.len() as f64);
    report.set("client.check_sample", checker.sample_size() as f64);

    // trace
    let served_p50 = traced.median_us(trace::SERVED);
    report.set(
        "trace.overhead_ratio",
        traced.calls_per_s() / untraced.single_client_calls_per_s(),
    );
    report.set("trace.requests", traced.requests as f64);
    report.set("trace.served_p50_us", served_p50);
    report.set("trace.replay_encode_us", traced.median_us(trace::REPLAY_ENCODE));
    report.set("trace.replay_feature_vector_us", traced.median_us(trace::REPLAY_FEATURES));
    report.set("trace.replay_gpsj_us", traced.median_us(trace::REPLAY_GPSJ));
    report.set("trace.replay_packed_us", traced.median_us(trace::REPLAY_PACKED));
    report.set("trace.replay_self_us", traced.median_self_us(trace::REPLAY));
    report.set("encoding.share_of_served", traced.median_us(trace::REPLAY_ENCODE) / served_p50);

    // raal.serving.shard
    report.set("raal.serving.shard.unattributed_us", traced.unattributed_us());
    let int8_us = report
        .get("raal.model.predict_int8_us")
        .expect("set by report_model_side");
    report.set("raal.serving.shard.overhead_ratio", untraced.cpu_us_per_plan() / int8_us);
    report.set("raal.serving.shard.model_hit_rate", slo.hit_rate());
    for (name, reason) in [
        ("raal.serving.shard.fallback_checkpoint", FallbackReason::Checkpoint),
        ("raal.serving.shard.fallback_admission", FallbackReason::Admission),
        ("raal.serving.shard.fallback_deadline", FallbackReason::Deadline),
        ("raal.serving.shard.fallback_busy", FallbackReason::Busy),
        ("raal.serving.shard.fallback_worker_lost", FallbackReason::WorkerLost),
        ("raal.serving.shard.fallback_tenant_quota", FallbackReason::TenantQuota),
    ] {
        report.set(name, slo.count(reason) as f64);
    }

    // telemetry: what the untraced + traced phases wrote per call, then
    // the primitives with telemetry on. On a workload that runs with
    // telemetry off it is switched on only now, after everything else
    // was measured.
    let calls = calls_between_sink_reads.max(1) as f64;
    report.set("telemetry.events_per_request", (sink_lines1 - sink_lines0) as f64 / calls);
    report.set("telemetry.bytes_per_request", (sink_bytes1 - sink_bytes0) as f64 / calls);
    if sink.is_none() {
        enable_telemetry(&tmp.join("events.jsonl"));
    }
    layers::report_telemetry_primitives(report, true);
    (tally, conserved)
}

/// Switches the program's telemetry on the way an operator does: the
/// `RAAL_TELEMETRY` variable names the JSONL sink and `init_from_env`
/// reads it (once per process).
fn enable_telemetry(sink: &Path) {
    std::env::set_var("RAAL_TELEMETRY", sink);
    telemetry::init_from_env();
}

fn run(args: &Args) -> Result<(), String> {
    let machine = Machine::detect();
    let placement = Placement::detect();
    let tmp = TempDir::create().map_err(|e| format!("cannot create {SCRATCH_DIR}: {e}"))?;
    print_header(args, machine, placement);

    let mut report = Report::default();
    if args.trace {
        // Before anything can switch telemetry on.
        layers::report_telemetry_primitives(&mut report, false);
    }
    let sink = args.workload.observed().then(|| tmp.0.join("events.jsonl"));
    if let Some(sink) = &sink {
        enable_telemetry(sink);
        if !telemetry::enabled() {
            return Err("telemetry did not switch on".to_string());
        }
    }

    let (tally, conserved) = if args.trace {
        traced_run(args, machine, placement, &tmp.0, sink.as_deref(), &mut report)
    } else {
        untraced_run(args, machine, placement, &mut report)
    };
    telemetry::shutdown();

    print_failures(&tally);
    let defs: &[report::MetricDef] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let metrics = report.print_and_collect(defs)?;
    let correct = tally.failed() == 0 && conserved;
    let line = report::result_line(correct, tally.attempted, tally.failed(), metrics);
    if let Some(path) = &args.append {
        append_result(path, args, placement, &line)
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    drop(tmp);
    println!("{line}");
    Ok(())
}

/// Appends the result line, tagged with what produced it, to a result
/// set for `--compare`.
fn append_result(
    path: &Path,
    args: &Args,
    placement: Placement,
    line: &str,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(
        file,
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"placement\":\"{}\",{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        placement.name(),
        &line[1..]
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Ok(Command::Run(args)) => run(&args).map(|()| 0),
        Ok(Command::Compare { a, b, bounds }) => compare::run(&a, &b, &bounds),
        Err(e) => Err(format!("{e}\n{}", usage())),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("raal_benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let Ok(Command::Run(a)) =
            parse(&["--workload", "select_k", "--seed", "7", "--seconds", "12", "--trace", "1"])
        else {
            panic!("expected a run")
        };
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::SelectK, 7, 12, true));
        let Ok(Command::Run(a)) =
            parse(&["--workload", "probe_unique", "--seed", "1", "--trace", "0"])
        else {
            panic!("expected a run")
        };
        assert!(!a.trace);
        assert_eq!(a.seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn bare_trace_and_smoke_are_accepted() {
        let Ok(Command::Run(a)) =
            parse(&["--workload", "resweep_hot", "--seed", "1", "--trace", "--smoke"])
        else {
            panic!("expected a run")
        };
        assert!(a.trace);
        assert_eq!(a.seconds, SMOKE_SECONDS);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload", "probe_unique"]).is_err());
        assert!(parse(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(parse(&["--workload", "select_k", "--seed", "x"]).is_err());
        assert!(parse(&["--workload", "select_k", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "select_k", "--seed", "1", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "select_k", "--seed", "1", "--frobnicate"]).is_err());
        assert!(matches!(parse(&["--compare", "a", "b"]), Ok(Command::Compare { .. })));
        assert!(parse(&["--compare", "a"]).is_err());
    }

    #[test]
    fn default_seconds_is_what_benchmark_json_declares() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let file: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(file.get("run_seconds").and_then(report::as_f64), Some(DEFAULT_SECONDS as f64));
    }
}
