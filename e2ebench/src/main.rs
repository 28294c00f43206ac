//! The repository benchmark: one command per workload and seed runs the
//! workload for a fixed time, checks its outputs, and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `loop_mix_100k`, `loop_quiet_1m` and `portfolio_finite` (see
//! `e2ebench/README.md` for why each was chosen and what each metric should
//! move). With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics, computed from
//! spans the benchmark records around its own calls into the crates, and
//! the spans are written to `e2ebench/out/spans-<workload>-<seed>.jsonl`.

mod loops;
mod serve_load;
mod spans;
mod stats;

use spans::Spans;
use spotbid_json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, name and unit, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("session_rel", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, name and unit, in output order.
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.slots", "count"),
    ("engine.skipped_slots", "count"),
    ("engine.skip_ratio", "ratio"),
    ("engine.woken", "count"),
    ("engine.woken_per_tenant", "ratio"),
    ("engine.swept", "count"),
    ("engine.quiet_slot_ns", "ns"),
    ("engine.wave_s", "s"),
    ("exec.speedup", "ratio"),
    ("core.decide_us.optimal_persistent", "us"),
    ("core.decide_us.percentile", "us"),
    ("core.decide_us.fixed_bid", "us"),
    ("core.plan_us.zone_fallback", "us"),
    ("core.plan_us.split_even", "us"),
    ("core.plan_us.contract", "us"),
    ("numerics.model_build_us", "us"),
    ("market.submit_ns", "ns"),
    ("market.step_us", "us"),
    ("market.capacity_step_us", "us"),
    ("provider.reclaims", "count"),
    ("provider.fresh_evictions", "count"),
    ("provider.parked_restarts", "count"),
    ("provider.mean_utilization", "ratio"),
    ("wire.parse_request_ns", "ns"),
    ("wire.parse_feed_record_ns", "ns"),
    ("trace.record_fault_ns", "ns"),
    ("model.ingest_ns", "ns"),
    ("model.cached_ns", "ns"),
    ("model.rebuild_us", "us"),
    ("model.rebuild_share", "ratio"),
    ("model.advise_us", "us"),
    ("model.mapred_us", "us"),
    ("wire.serialize_us", "us"),
    ("serve.advise_p50_us", "us"),
    ("serve.advise_p99_us", "us"),
    ("serve.advise_max_rps", "1/s"),
    ("server.sessions_shed", "count"),
    ("server.request_errors", "count"),
    ("server.worker_panics", "count"),
    ("feed.records_ok", "count"),
    ("feed.records_dropped", "count"),
    ("feed.reconnects", "count"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.attained_rps", "1/s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.session_s", "s"),
    ("bench.session_tail_s", "s"),
    ("bench.host_ref_us", "us"),
];

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    /// # Panics
    ///
    /// If `name` was never put.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// What a workload run returns to `main`.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
}

impl RunResult {
    pub fn all_failed(attempted: u64) -> Self {
        RunResult {
            attempted,
            failed: attempted,
            e2e: Metrics::new(),
            layers: Metrics::new(),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Stop once set up and print only the set-up time: the mode of the
    /// child processes `setup_s` takes its median over.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_owned(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        setup_only: flags.get("--setup-only") == Some(&"1"),
    })
}

/// Renders the final result line from the metrics `list` names.
fn result_line(run: &RunResult, list: &[(&str, &str)], values: &Metrics) -> String {
    let metrics = list
        .iter()
        .map(|(name, unit)| {
            let mut m = BTreeMap::new();
            m.insert("value".to_owned(), Json::Num(values.get(name)));
            m.insert("unit".to_owned(), Json::Str((*unit).to_owned()));
            ((*name).to_owned(), Json::Obj(m))
        })
        .collect();
    // Counts are printed as JSON integers, which `spotbid_json` (all
    // numbers are f64) would render as `12.0`.
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        spotbid_json::to_string(&Json::Obj(metrics))
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: e2ebench --workload <loop_mix_100k|loop_quiet_1m|portfolio_finite> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let run_id = args.seed ^ (u64::from(std::process::id()) << 32);
    let mut spans = Spans::new(args.trace, run_id, process_start);
    let kind = match args.workload.as_str() {
        "loop_mix_100k" => loops::LoopKind::Mix,
        "loop_quiet_1m" => loops::LoopKind::Quiet,
        "portfolio_finite" => loops::LoopKind::Portfolio,
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} for {} s, trace {}, {} CPUs",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spotbid_bench::timing::logical_cpus()
    );
    if args.setup_only {
        let setup_s = loops::setup_only(kind, process_start, &mut spans);
        println!("setup_s {setup_s}");
        return ExitCode::SUCCESS;
    }
    let run = spans.span("bench.run", 1, |sp| {
        loops::run(kind, args.seed, args.seconds, sp, process_start)
    });
    if run.e2e.0.is_empty() {
        eprintln!("error: no session completed");
        return ExitCode::FAILURE;
    }
    for (name, unit) in END_TO_END {
        println!("{name:<34} {:>16.6} {unit}", run.e2e.get(name));
    }
    println!(
        "{:<34} {:>16.6} ratio ({} of {})",
        "failed_frac",
        run.failed as f64 / run.attempted as f64,
        run.failed,
        run.attempted
    );
    if args.trace {
        for (name, unit) in PER_LAYER {
            println!("{name:<34} {:>16.6} {unit}", run.layers.get(name));
        }
        let path = std::path::PathBuf::from(format!(
            "e2ebench/out/spans-{}-{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("{}", result_line(&run, PER_LAYER, &run.layers));
    } else {
        println!("{}", result_line(&run, END_TO_END, &run.e2e));
    }
    ExitCode::SUCCESS
}
