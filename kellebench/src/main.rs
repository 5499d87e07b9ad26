//! End-to-end and per-layer serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path kellebench/Cargo.toml -- \
//!     --workload chat_2drp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every round serves the workload's seeded request set to completion;
//! rounds repeat while the next one is expected to end within `--seconds`
//! (at least one round) and each metric is the median over rounds.  `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones from a traced round
//! next to each untraced one plus out-of-band layer probes.  The last line
//! of standard output is the result as one JSON object; the exit code is
//! non-zero when any output was wrong.  See `README.md`.

mod drive;
mod host;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use drive::Round;
use host::HostStamp;
use probes::{ratio, PREFILL_BUCKETS};
use spans::{Span, Tracer};
use workloads::{Setup, SetupTimes, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Requests per run re-served through `serve_request` as the output check.
const RECHECK_SAMPLE: usize = 4;
/// Requests per run replayed by the session probe.
const PROBE_SAMPLE: usize = 4;
/// Span names reported by count and self time, in output order.
const SPAN_NAMES: [&str; 15] = [
    "build",
    "generate",
    "publish",
    "warmup",
    "round",
    "serve",
    "drive",
    "submit",
    "pump",
    "sink",
    "recheck",
    "probe.prefill",
    "probe.decode",
    "probe.corrupt",
    "probe.matvec",
];
/// Spans of the benchmark's own loop rather than of a call into the
/// program; `trace.accounted_frac` leaves their self time out.
const HARNESS_SPANS: [&str; 2] = ["round", "drive"];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: kellebench --workload <chat_2drp|docqa_safe_refresh|prefix_backlog> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Sample counts and percentile, for the human-readable line.
    note: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, note: String) -> Metric {
    assert!(value.is_finite(), "metric values are finite");
    Metric {
        name: name.into(),
        value,
        unit,
        note,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("kellebench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stamp = HostStamp::take(args.workload.name(), args.seed);
    println!("host {}", stamp.to_json());

    let mut tracer = Tracer::new(args.trace);
    let mut quiet = Tracer::new(false);
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for repeat in 0..SETUP_REPEATS {
        let last = repeat + 1 == SETUP_REPEATS;
        let next = Setup::new(
            args.workload,
            args.seed,
            if last { &mut tracer } else { &mut quiet },
        );
        setup_times.push(next.times);
        setup = Some(next);
    }
    let setup = setup.expect("at least one set-up");

    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut traced = Vec::new();
    // Whole rounds only: start another while it is expected to end within
    // `--seconds`.
    loop {
        let round_start = Instant::now();
        rounds.push(drive::run_round(&setup, &mut quiet));
        if args.trace {
            traced.push(drive::run_round(&setup, &mut tracer));
        }
        if (start.elapsed() + round_start.elapsed()).as_secs_f64() > args.seconds {
            break;
        }
    }

    // Output check: every round delivered what the engine reports, every
    // round of this seed delivered the same streams, and a sample
    // re-served one request at a time matches bit for bit.
    let reference = &rounds[0];
    let n = setup.arrivals.len();
    let mut attempted = n * (rounds.len() + traced.len());
    let mut failed = 0;
    for round in rounds.iter().chain(&traced) {
        failed += round.failed;
        failed += (0..n)
            .filter(|&i| round.streams[i] != reference.streams[i])
            .count();
    }
    let sample = drive::sample_indices(n, RECHECK_SAMPLE);
    attempted += sample.len();
    failed += drive::recheck(
        &setup.engine,
        &setup,
        &reference.streams,
        &sample,
        &mut tracer,
    );

    let metrics = if args.trace {
        per_layer(
            args.seed,
            &setup,
            &setup_times,
            &rounds,
            &traced,
            &mut tracer,
        )
    } else {
        end_to_end(&setup_times, &rounds)
    };
    if args.trace {
        for m in end_to_end(&setup_times, &rounds) {
            println!(
                "untraced {:<28} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        if let Err(error) = write_trace(&stamp, tracer.spans()) {
            eprintln!("kellebench: could not write the span file: {error}");
        }
    }
    for m in &metrics {
        println!(
            "metric {:<38} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "streams digest={:016x} rounds={} traced_rounds={} attempted={attempted} failed={failed} failed_frac={}",
        reference.digest,
        rounds.len(),
        traced.len(),
        failed as f64 / attempted as f64
    );
    let correct = failed == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("kellebench: {failed} of {attempted} requests failed the output check");
        ExitCode::FAILURE
    }
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    stats::median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(setup_times: &[SetupTimes], rounds: &[Round]) -> Vec<Metric> {
    let k = rounds.len();
    let first = &rounds[0];
    let tail_note = |n: usize, pct: f64| format!("p{pct:.1} n={n}/round rounds={k}");
    let p50_note = |n: usize| format!("p50 n={n}/round rounds={k}");
    let total_s: Vec<f64> = setup_times.iter().map(|t| t.total_s).collect();
    vec![
        metric(
            "setup_s",
            stats::median(&total_s),
            "s",
            format!("median of {} set-ups", total_s.len()),
        ),
        metric(
            "ttft_p50_ms",
            median_of(rounds, |r| r.ttft.p50),
            "ms",
            p50_note(first.ttft.n),
        ),
        metric(
            "ttft_tail_ms",
            median_of(rounds, |r| r.ttft.tail),
            "ms",
            tail_note(first.ttft.n, first.ttft.tail_pct),
        ),
        metric(
            "tpot_p50_ms",
            median_of(rounds, |r| r.tpot.p50),
            "ms",
            p50_note(first.tpot.n),
        ),
        metric(
            "tpot_tail_ms",
            median_of(rounds, |r| r.tpot.tail),
            "ms",
            tail_note(first.tpot.n, first.tpot.tail_pct),
        ),
        metric(
            "tokens_per_s",
            median_of(rounds, Round::tokens_per_s),
            "tok/s",
            format!("tokens={}/round rounds={k}", first.tokens),
        ),
        metric(
            "peak_rss_mb",
            host::peak_rss_mb(),
            "MiB",
            "VmHWM".to_string(),
        ),
    ]
}

/// Durations in ms of every span named `name`.
fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

fn percentile_of(mut values: Vec<f64>, pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    stats::percentile(&values, pct)
}

fn per_layer(
    seed: u64,
    setup: &Setup,
    setup_times: &[SetupTimes],
    rounds: &[Round],
    traced: &[Round],
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let engine = &setup.engine;
    let n = setup.arrivals.len();
    let sample = drive::sample_indices(n, PROBE_SAMPLE);
    let corrupt_ns = probes::corrupt_ns_per_word(engine, seed, tracer);
    let matvec = probes::matvec_costs(&probes::surrogate_shapes(engine), tracer);
    let session = probes::session_costs(engine, &setup.arrivals, &sample, tracer);

    let spans = tracer.spans();
    let round = &traced[0];
    let outcome = &round.outcome;
    let outcomes = &outcome.outcomes;
    let tokens = round.tokens as f64;
    let sum = |f: &dyn Fn(&kelle::ServeOutcome) -> f64| outcomes.iter().map(f).sum::<f64>();
    let words = sum(&|o| o.faults.words_examined as f64);
    let flips = sum(&|o| o.faults.bits_flipped as f64);
    let energy = sum(&|o| o.hardware.total_energy_j());
    let refresh = sum(&|o| o.hardware.total_energy().refresh_j);
    let prompt_tokens: usize = setup
        .arrivals
        .iter()
        .map(|a| a.request.prompt().len())
        .sum();
    let queue_ticks: Vec<f64> = outcome
        .contention
        .per_request
        .iter()
        .map(|t| t.queue_ticks as f64)
        .collect();
    let ticks = &round.ticks;
    let median_setup =
        |f: fn(&SetupTimes) -> f64| stats::median(&setup_times.iter().map(f).collect::<Vec<_>>());
    let traced_wall = median_of(traced, |r| r.wall_s);
    let untraced_wall = median_of(rounds, |r| r.wall_s);

    let self_times = spans::self_times(spans);
    let (mut program_ns, mut rounds_ns) = (0u64, 0u64);
    for (index, span) in spans.iter().enumerate() {
        let root = spans::root_of(spans, index);
        if spans[root].name != "round" {
            continue;
        }
        if root == index {
            rounds_ns += span.duration_ns();
        }
        if !HARNESS_SPANS.contains(&span.name) {
            program_ns += self_times[index];
        }
    }

    let submit_ms = span_ms(spans, "submit");
    let pump_ms = span_ms(spans, "pump");
    let spans_note = |v: &Vec<f64>| format!("n={}", v.len());
    let no_note = String::new;
    let mut m = vec![
        metric(
            "engine.build_ms",
            median_setup(|t| t.build_ms),
            "ms",
            no_note(),
        ),
        metric(
            "workloads.generate_ms",
            median_setup(|t| t.generate_ms),
            "ms",
            no_note(),
        ),
        metric(
            "prefix.publish_ms",
            median_setup(|t| t.publish_ms),
            "ms",
            no_note(),
        ),
        metric(
            "front.submit_ms.p50",
            percentile_of(submit_ms.clone(), 50.0),
            "ms",
            spans_note(&submit_ms),
        ),
        metric(
            "front.submit_ms.p99",
            percentile_of(submit_ms.clone(), 99.0),
            "ms",
            spans_note(&submit_ms),
        ),
        metric(
            "front.pump_ms.p50",
            percentile_of(pump_ms.clone(), 50.0),
            "ms",
            spans_note(&pump_ms),
        ),
        metric(
            "front.pump_ms.p99",
            percentile_of(pump_ms.clone(), 99.0),
            "ms",
            spans_note(&pump_ms),
        ),
        metric(
            "front.batch_size.mean",
            stats::mean(&ticks.batch_size),
            "count",
            format!("ticks={}", ticks.batch_size.len()),
        ),
        metric(
            "front.queue_depth.mean",
            stats::mean(&ticks.queue_depth),
            "count",
            format!("ticks={}", ticks.queue_depth.len()),
        ),
        metric(
            "scheduler.ticks",
            outcome.slo.ticks as f64,
            "count",
            no_note(),
        ),
        metric(
            "scheduler.queue_ticks.p50",
            percentile_of(queue_ticks.clone(), 50.0),
            "ticks",
            format!("n={}", queue_ticks.len()),
        ),
        metric(
            "scheduler.queue_ticks.p99",
            percentile_of(queue_ticks.clone(), 99.0),
            "ticks",
            format!("n={}", queue_ticks.len()),
        ),
    ];
    for (bucket, (_, suffix)) in PREFILL_BUCKETS.iter().enumerate() {
        m.push(metric(
            format!("session.prefill_us_per_token.{suffix}"),
            session.cold_us_per_token(bucket),
            "us",
            format!("tokens={}", session.cold[bucket].1),
        ));
    }
    m.extend([
        metric(
            "session.prefix_prefill_us_per_token",
            ratio(session.prefix_hit.0, session.prefix_hit.1 as f64),
            "us",
            format!("tokens={}", session.prefix_hit.1),
        ),
        metric(
            "session.decode_ms_per_step",
            ratio(session.decode.0, session.decode.1 as f64),
            "ms",
            format!("steps={}", session.decode.1),
        ),
        metric(
            "fault.words_per_token",
            ratio(words, tokens),
            "count",
            no_note(),
        ),
        metric(
            "fault.flips_per_token",
            ratio(flips, tokens),
            "count",
            no_note(),
        ),
        metric(
            "fault.bit_error_rate",
            ratio(flips, words * 16.0),
            "frac",
            no_note(),
        ),
        metric("fault.corrupt_ns_per_word", corrupt_ns, "ns", no_note()),
        metric(
            "fault.est_share",
            ratio(
                corrupt_ns * words,
                round.wall_s * 1e9 * engine.config().workers as f64,
            ),
            "frac",
            "corrupt ns/word x words / (traced round wall x workers)".to_string(),
        ),
        metric(
            "cache.evictions_per_token",
            ratio(sum(&|o| o.cache.evictions as f64), tokens),
            "count",
            no_note(),
        ),
        metric(
            "cache.peak_entries",
            outcomes
                .iter()
                .map(|o| o.trace.peak_entries())
                .max()
                .unwrap_or(0) as f64,
            "count",
            no_note(),
        ),
        metric(
            "cache.recompute_entries",
            outcomes
                .iter()
                .map(|o| o.cache.recompute_entries)
                .max()
                .unwrap_or(0) as f64,
            "count",
            no_note(),
        ),
        metric(
            "prefix.hit_token_frac",
            ratio(outcome.prefix.hit_tokens as f64, prompt_tokens as f64),
            "frac",
            no_note(),
        ),
        metric(
            "prefix.hit_requests",
            outcome.prefix.hit_requests as f64,
            "count",
            no_note(),
        ),
        metric(
            "prefix.resident_bytes",
            engine.prefix_stats().resident_bytes as f64,
            "B",
            no_note(),
        ),
        metric(
            "tier.demotions",
            outcome.tiering.demotions as f64,
            "count",
            no_note(),
        ),
        metric(
            "tier.promotions",
            outcome.tiering.promotions as f64,
            "count",
            no_note(),
        ),
        metric(
            "tier.migrated_bytes",
            outcome.tiering.migrated_bytes as f64,
            "B",
            no_note(),
        ),
        metric(
            "parallel.queue_crossings_per_tick",
            outcome.parallel.crossings_per_tick(),
            "count",
            no_note(),
        ),
    ]);
    for cost in &matvec {
        let shape = format!("{}x{}", cost.rows, cost.cols);
        m.push(metric(
            format!("tensor.matvec_ns.{shape}"),
            cost.ns_per_call,
            "ns",
            no_note(),
        ));
        m.push(metric(
            format!("tensor.matvec_flops.{shape}"),
            cost.flops(),
            "flop",
            no_note(),
        ));
        m.push(metric(
            format!("tensor.matvec_bytes.{shape}"),
            cost.bytes(),
            "B",
            "computed from tensor sizes".to_string(),
        ));
    }
    m.extend([
        metric(
            "arch.energy_mj_per_token",
            ratio(energy * 1e3, tokens),
            "mJ",
            no_note(),
        ),
        metric(
            "arch.refresh_energy_share",
            ratio(refresh, energy),
            "frac",
            no_note(),
        ),
        metric(
            "trace.overhead_frac",
            traced_wall / untraced_wall - 1.0,
            "frac",
            format!("traced={} untraced={} rounds", traced.len(), rounds.len()),
        ),
        metric(
            "trace.accounted_frac",
            ratio(program_ns as f64, rounds_ns as f64),
            "frac",
            no_note(),
        ),
        metric("trace.spans", spans.len() as f64, "count", no_note()),
    ]);
    let by_name = spans::self_time_by_name(spans);
    for name in SPAN_NAMES {
        let (calls, self_ns) = by_name.get(name).copied().unwrap_or((0, 0));
        m.push(metric(
            format!("span.{name}.count"),
            calls as f64,
            "count",
            no_note(),
        ));
        m.push(metric(
            format!("span.{name}.self_ms"),
            self_ns as f64 / 1e6,
            "ms",
            no_note(),
        ));
    }
    m
}

/// Writes the host stamp and every span to `.bench_trace/` in the working
/// directory, once, at the end of the run.
fn write_trace(stamp: &HostStamp, spans: &[Span]) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}.json", stamp.workload, stamp.seed));
    let body = format!(
        "{{\"host\": {},\n\"spans\": {}}}\n",
        stamp.to_json(),
        spans::to_json(spans)
    );
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "prefix_backlog",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(args.workload, Workload::PrefixBacklog);
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 12.0);
        assert!(args.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "chat_2drp", "--trace", "2"],
            &["--workload", "chat_2drp", "--seconds", "0"],
            &["--workload", "chat_2drp", "--seed"],
            &["--seed", "3"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 3, 0, &[metric("setup_s", 0.5, "s", String::new())]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
