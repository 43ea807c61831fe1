//! The repository benchmark. One command per workload:
//!
//! ```text
//! crp-perfbench --workload <explain_offline|serve_rw> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints every metric by name with its unit, then, as the last
//! line, one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones measured at the
//! caller; with `--trace 1` they are the per-layer ones from a separate
//! traced run. A correctness mismatch exits with code 1, a run that
//! could not complete with code 2 (and no JSON line). See README.md.

mod fixture;
mod loadgen;
mod offline;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Every end-to-end metric: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("explain_p50_ms", "ms"),
    ("explain_p99_ms", "ms"),
    ("explains_per_s", "1/s"),
    ("update_p50_ms", "ms"),
    ("update_p95_ms", "ms"),
    ("completed_pct", "%"),
];

/// Every per-layer metric: name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("rtree.build_s", "s"),
    ("serve.start_s", "s"),
    ("filter.stage1_ms", "ms"),
    ("filter.candidates", "count"),
    ("rtree.node_accesses", "count"),
    ("fmcs.self_ms", "ms"),
    ("fmcs.subsets", "count"),
    ("fmcs.prsq_evals", "count"),
    ("serve.pre_exec_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.reply_bytes", "bytes"),
    ("loadgen.lag_p99_ms", "ms"),
    ("plan.run_ms", "ms"),
    ("serve.requests_per_window", "count"),
    ("plan.traversals_per_window", "count"),
    ("plan.derived_pct", "%"),
    ("plan.cache_served_pct", "%"),
    ("serve.post_exec_ms", "ms"),
    ("update.pre_exec_ms", "ms"),
    ("backend.apply_ms", "ms"),
    ("update.post_exec_ms", "ms"),
    ("serve.updates_per_batch", "count"),
    ("session.validate_ms", "ms"),
    ("wal.append_ms", "ms"),
    ("wal.bytes_per_update", "bytes"),
    ("engine.apply_ms", "ms"),
    ("rtree.refreezes_per_batch", "count"),
    ("rtree.reinserts_per_update", "count"),
    ("mvcc.fork_ms", "ms"),
    ("mvcc.live_epochs", "count"),
    ("serve.shed", "count"),
    ("serve.partial", "count"),
    ("trace.overhead_pct", "%"),
];

/// What a workload run hands back.
pub struct Outcome {
    /// Correctness mismatches (never counted as op failures).
    pub mismatches: Vec<String>,
    pub attempted: u64,
    /// Ops shed, partial, or errored.
    pub failed: u64,
    pub metrics: trace::Layers,
}

/// Where runs keep their temporary files: inside the build directory,
/// which stays inside the checkout.
pub fn work_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    base.join("perfbench-run")
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: crp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    let work = work_dir();
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("work dir {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "explain_offline" => offline::run(&args, &work),
        "serve_rw" => serve::run(&args, &work),
        other => Err(format!(
            "unknown workload {other:?} (explain_offline|serve_rw)"
        )),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: run failed: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in names {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<28} {value:>14.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for m in &outcome.mismatches {
        println!("MISMATCH: {m}");
    }
    let correct = outcome.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
