//! End-to-end and per-layer benchmark of the llmsql engine.
//!
//! ```text
//! benchmark --workload <cold_suite|tenant_mix|hybrid_rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per failure cause, then one JSON object as the last line
//! of standard output: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
//! also repeats its work with spans recorded at each layer boundary and
//! reports the per-layer metrics, writing the spans under `.bench_out/`.

mod cold_suite;
mod hybrid_rw;
mod measure;
mod model;
mod tally;
mod tenant_mix;
mod trace;

use std::process::ExitCode;

use measure::Outcome;
use trace::Tracer;

/// End-to-end metrics and their units, printed by every untraced run.
const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("interactive_p95_ms", "ms"),
    ("max_qps_under_slo", "1/s"),
    ("engine_cpu_ms_per_query", "ms"),
    ("logical_calls_per_query", "calls"),
    ("physical_calls_per_query", "calls"),
    ("tokens_per_query", "tokens"),
    ("usd_per_query", "USD"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, printed by every traced run (zero
/// where a workload bypasses the layer by design).
const PER_LAYER: [(&str, &str); 40] = [
    ("sql.parse_us_per_query", "us"),
    ("plan.plan_us_per_query", "us"),
    ("exec.execute_ms_per_query", "ms"),
    ("exec.op_ms.scan", "ms"),
    ("exec.op_ms.filter", "ms"),
    ("exec.op_ms.project", "ms"),
    ("exec.op_ms.join", "ms"),
    ("exec.op_ms.aggregate", "ms"),
    ("exec.op_ms.sort", "ms"),
    ("exec.op_ms.limit", "ms"),
    ("exec.rows_from_llm_per_query", "rows"),
    ("exec.peak_in_flight", "count"),
    ("llm.cache_hit_ratio", "ratio"),
    ("llm.cache_entries", "count"),
    ("llm.coalesced_ratio", "ratio"),
    ("llm.batched_rows_per_physical", "rows"),
    ("llm.prompt_tokens_per_call", "tokens"),
    ("llm.completion_tokens_per_call", "tokens"),
    ("model.calls_per_query", "calls"),
    ("model.ms_per_call", "ms"),
    ("llm.backend.attempts_per_physical", "ratio"),
    ("llm.backend.hedges_issued_per_query", "count"),
    ("llm.backend.hedges_won_ratio", "ratio"),
    ("sched.queue_ms_p50", "ms"),
    ("sched.queue_ms_p99", "ms"),
    ("sched.run_ms_p50", "ms"),
    ("sched.slot_wait_ms_per_query", "ms"),
    ("sched.peak_slots_in_use", "count"),
    ("store.insert_us_per_write", "us"),
    ("store.rows_scanned_per_read", "rows"),
    ("store.cells_filled_per_read", "cells"),
    ("load.lateness_ms_p99", "ms"),
    ("trace.self_ms_per_query.sql", "ms"),
    ("trace.self_ms_per_query.plan", "ms"),
    ("trace.self_ms_per_query.exec", "ms"),
    ("trace.self_ms_per_query.model", "ms"),
    ("trace.self_ms_per_query.sched", "ms"),
    ("trace.self_ms_per_query.store", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.reconcile_error", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 15.0,
            trace: false,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => args.trace = value == "1",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(args.seconds > 0.0 && args.seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(args)
    }

    /// Closed-loop workloads run a fixed number of rounds, so their counts
    /// and memory do not move with speed: `--seconds` × `per_second`, never
    /// fewer than `min`.
    pub fn rounds(&self, min: usize, per_second: f64) -> usize {
        ((self.seconds * per_second).ceil() as usize).max(min)
    }

    /// Write a traced pass's spans to `.bench_out/`.
    pub fn write_trace(&self, tracer: &Tracer) {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.tsv", self.workload, self.seed));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}

/// Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut rand::rngs::StdRng) {
    use rand::Rng;
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome: llmsql_types::Result<Outcome> = match args.workload.as_str() {
        "cold_suite" => cold_suite::run(&args),
        "tenant_mix" => tenant_mix::run(&args),
        "hybrid_rw" => hybrid_rw::run(&args),
        other => {
            eprintln!("unknown workload '{other}' (cold_suite, tenant_mix, hybrid_rw)");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.cause_lines(&args.workload));
            let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            println!("{}", outcome.json_line(names));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
