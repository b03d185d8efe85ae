//! Accounting shared by the workloads: per-operation samples, LLM cost
//! totals, and the end-to-end and per-layer metrics computed from them.

use std::collections::BTreeMap;
use std::time::Instant;

use llmsql_core::{score_batches, Engine, EvalOptions, QueryResult};
use llmsql_exec::ExecMetrics;
use llmsql_llm::UsageStats;
use llmsql_plan::LogicalPlan;
use llmsql_sql::ast::Statement;
use llmsql_sql::parse_statement;
use llmsql_types::{Batch, Result};

use crate::measure::{peak_rss_mb, percentile, process_cpu_ns, ratio, Outcome};
use crate::model::{ModelSnapshot, ModelStats};
use crate::trace::{self, Tracer};

/// Operator names reported as `exec.op_ms.<name>`.
pub const OPERATORS: [&str; 7] = [
    "scan",
    "filter",
    "project",
    "join",
    "aggregate",
    "sort",
    "limit",
];

/// Layers whose self time the traced run reports.
pub const LAYERS: [&str; 6] = ["sql", "plan", "exec", "model", "sched", "store"];

/// Everything one measured pass accumulated.
#[derive(Default)]
pub struct Tally {
    /// Operations completed (queries and writes).
    pub queries: u64,
    /// Measured wall time, ns: the sum of operation times for a closed loop;
    /// for the open loop, the time its measured capacity needs to serve
    /// every query.
    pub wall_ns: u64,
    /// Process CPU time spent in the measured operations, ns.
    pub cpu_ns: u64,
    /// Time and calls inside the model during the measured operations.
    pub model: ModelSnapshot,
    /// Logical LLM calls (every prompt the engine issued).
    pub logical: u64,
    /// Model usage (completions not served by the cache).
    pub usage: UsageStats,
    pub latencies_ms: Vec<f64>,
    /// Latencies of the workload's short queries.
    pub short_ms: Vec<f64>,
    pub batched_rows: u64,
    pub coalesced: u64,
    pub rows_from_llm: u64,
    pub peak_in_flight: u64,
    pub hedges_issued: u64,
    pub hedges_won: u64,
    /// Self time per operator name, ms (traced passes only).
    pub op_ms: BTreeMap<&'static str, f64>,
}

/// Times one closed-loop operation: wall time, process CPU and model use.
pub struct OpClock {
    started: Instant,
    cpu: u64,
    model: ModelSnapshot,
}

impl OpClock {
    pub fn start(stats: &ModelStats) -> OpClock {
        OpClock {
            model: stats.snapshot(),
            cpu: process_cpu_ns(),
            started: Instant::now(),
        }
    }

    /// Close the operation and add it to `tally`; returns its latency, ms.
    pub fn stop(self, stats: &ModelStats, tally: &mut Tally, short: bool) -> f64 {
        let wall = self.started.elapsed().as_nanos() as u64;
        let cpu = process_cpu_ns() - self.cpu;
        let model = stats.snapshot().since(&self.model);
        tally.queries += 1;
        tally.wall_ns += wall;
        tally.cpu_ns += cpu;
        tally.model.calls += model.calls;
        tally.model.call_ns += model.call_ns;
        tally.model.other_ns += model.other_ns;
        let ms = wall as f64 / 1e6;
        tally.latencies_ms.push(ms);
        if short {
            tally.short_ms.push(ms);
        }
        ms
    }
}

impl Tally {
    /// Add the engine-side counters of one statement's result.
    pub fn add_result(&mut self, result: &QueryResult) {
        self.add_metrics(&result.metrics);
        self.usage.merge(&result.usage);
    }

    pub fn add_metrics(&mut self, m: &ExecMetrics) {
        self.logical += m.llm_calls();
        self.batched_rows += m.batched_rows;
        self.coalesced += m.coalesced_calls;
        self.rows_from_llm += m.rows_from_llm;
        self.peak_in_flight = self.peak_in_flight.max(m.peak_in_flight);
        self.hedges_issued += m.hedges_issued;
        self.hedges_won += m.hedges_won;
    }

    pub fn queries_per_s(&self) -> f64 {
        ratio(self.queries as f64, self.wall_ns as f64 / 1e9)
    }

    /// The end-to-end metrics every workload reports.
    pub fn end_to_end(&self, out: &mut Outcome, setup_s: f64, max_qps_under_slo: f64) {
        let q = self.queries as f64;
        out.set("setup_s", setup_s);
        out.set("queries_per_s", self.queries_per_s());
        out.set("query_p50_ms", percentile(&self.latencies_ms, 50.0));
        out.set("query_p99_ms", percentile(&self.latencies_ms, 99.0));
        out.set("interactive_p95_ms", percentile(&self.short_ms, 95.0));
        out.set("max_qps_under_slo", max_qps_under_slo);
        let engine_cpu_ns = self.cpu_ns.saturating_sub(self.model.total_ns());
        out.set(
            "engine_cpu_ms_per_query",
            ratio(engine_cpu_ns as f64 / 1e6, q),
        );
        out.set("logical_calls_per_query", ratio(self.logical as f64, q));
        out.set(
            "physical_calls_per_query",
            ratio(self.model.calls as f64, q),
        );
        out.set(
            "tokens_per_query",
            ratio(self.usage.total_tokens() as f64, q),
        );
        out.set("usd_per_query", ratio(self.usage.cost_usd, q));
        out.set("peak_rss_mb", peak_rss_mb());
    }

    /// The per-layer counters every workload reports (zero where a layer is
    /// bypassed by design). `cache_entries` is read from the client at the
    /// end of the pass.
    pub fn layer_counters(&self, out: &mut Outcome, cache_entries: usize) {
        let q = self.queries as f64;
        let physical = self.model.calls as f64;
        out.set(
            "exec.rows_from_llm_per_query",
            ratio(self.rows_from_llm as f64, q),
        );
        out.set("exec.peak_in_flight", self.peak_in_flight as f64);
        out.set(
            "llm.cache_hit_ratio",
            ratio(self.usage.cache_hits as f64, self.logical as f64),
        );
        out.set("llm.cache_entries", cache_entries as f64);
        out.set(
            "llm.coalesced_ratio",
            ratio(self.coalesced as f64, self.logical as f64),
        );
        out.set(
            "llm.batched_rows_per_physical",
            ratio(self.batched_rows as f64, physical),
        );
        out.set(
            "llm.prompt_tokens_per_call",
            ratio(self.usage.prompt_tokens as f64, self.usage.calls as f64),
        );
        out.set(
            "llm.completion_tokens_per_call",
            ratio(self.usage.completion_tokens as f64, self.usage.calls as f64),
        );
        out.set("model.calls_per_query", ratio(physical, q));
        out.set(
            "model.ms_per_call",
            ratio(self.model.call_ns as f64 / 1e6, physical),
        );
        out.set(
            "llm.backend.hedges_issued_per_query",
            ratio(self.hedges_issued as f64, q),
        );
        out.set(
            "llm.backend.hedges_won_ratio",
            ratio(self.hedges_won as f64, self.hedges_issued as f64),
        );
        for op in OPERATORS {
            let ms = self.op_ms.get(op).copied().unwrap_or(0.0);
            out.set(format!("exec.op_ms.{op}"), ratio(ms, q));
        }
    }
}

/// Per-layer times from the spans of the `traced` pass, compared with its
/// `untraced` twin for the tracing overhead and the reconciliation error.
pub fn layer_times(out: &mut Outcome, tracer: &Tracer, traced: &Tally, untraced: &Tally) {
    let q = traced.queries as f64;
    let mut self_ms: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    for (name, ns) in tracer.self_ns_by_name() {
        let layer = name.split('.').next().unwrap_or(name);
        if let Some(total) = self_ms.get_mut(layer) {
            *total += ns as f64 / 1e6;
        }
    }
    // `Engine::execute_statement` binds and optimizes the statement again
    // before running it; the plan span measured that same work just before,
    // so it is taken out of the exec layer's self time.
    let (plan_ns, _) = tracer.total("plan.plan");
    if let Some(exec) = self_ms.get_mut("exec") {
        *exec = (*exec - plan_ns as f64 / 1e6).max(0.0);
    }
    for (layer, ms) in &self_ms {
        out.set(format!("trace.self_ms_per_query.{layer}"), ratio(*ms, q));
    }
    let (parse_ns, parses) = tracer.total("sql.parse");
    out.set(
        "sql.parse_us_per_query",
        ratio(parse_ns as f64 / 1e3, parses as f64),
    );
    let (_, plans) = tracer.total("plan.plan");
    out.set(
        "plan.plan_us_per_query",
        ratio(plan_ns as f64 / 1e3, plans as f64),
    );
    out.set("exec.execute_ms_per_query", ratio(self_ms["exec"], q));
    out.set(
        "trace.overhead",
        ratio(untraced.queries_per_s(), traced.queries_per_s()),
    );
    let traced_sum: f64 = self_ms.values().sum();
    let untraced_op_ms = ratio(untraced.wall_ns as f64 / 1e6, untraced.queries as f64);
    out.set(
        "trace.reconcile_error",
        ratio(
            (ratio(traced_sum, q) - untraced_op_ms).abs(),
            untraced_op_ms,
        ),
    );
}

/// Run one statement with a span around each layer boundary the engine's
/// public API exposes: `sql.parse`, `plan.plan` (SELECT only) and
/// `exec_span` around `Engine::execute_statement`. Operator self times from
/// `ExecMetrics::op_stats` are added to `tally.op_ms`.
pub fn traced_execute(
    engine: &Engine,
    sql: &str,
    tracer: &Tracer,
    exec_span: &'static str,
    tally: &mut Tally,
) -> Result<QueryResult> {
    let statement = {
        let _s = tracer.enter("sql.parse");
        parse_statement(sql)?
    };
    let plan = match &statement {
        Statement::Select(select) => {
            let _s = tracer.enter("plan.plan");
            Some(engine.plan_select(select)?)
        }
        _ => None,
    };
    let result = {
        let _s = tracer.enter(exec_span);
        engine.execute_statement(&statement, Some(sql))?
    };
    if let Some(plan) = plan {
        add_op_self_ms(&plan, "0", &result.metrics, &mut tally.op_ms);
    }
    Ok(result)
}

fn operator_name(plan: &LogicalPlan) -> Option<&'static str> {
    Some(match plan {
        LogicalPlan::Scan { .. } => "scan",
        LogicalPlan::Filter { .. } => "filter",
        LogicalPlan::Project { .. } => "project",
        LogicalPlan::Join { .. } => "join",
        LogicalPlan::Aggregate { .. } => "aggregate",
        LogicalPlan::Sort { .. } => "sort",
        LogicalPlan::Limit { .. } => "limit",
        LogicalPlan::Values { .. } | LogicalPlan::Distinct { .. } => return None,
    })
}

/// `op_stats` wall times include the operator's subtree; an operator's self
/// time is its wall time minus its children's.
fn add_op_self_ms(
    plan: &LogicalPlan,
    path: &str,
    metrics: &ExecMetrics,
    op_ms: &mut BTreeMap<&'static str, f64>,
) {
    let Some(stats) = metrics.op_stats.get(path) else {
        return;
    };
    let mut children_ms = 0.0;
    for (i, child) in plan.children().into_iter().enumerate() {
        let child_path = format!("{path}.{i}");
        children_ms += metrics.op_stats.get(&child_path).map_or(0.0, |s| s.wall_ms);
        add_op_self_ms(child, &child_path, metrics, op_ms);
    }
    if let Some(name) = operator_name(plan) {
        *op_ms.entry(name).or_insert(0.0) += (stats.wall_ms - children_ms).max(0.0);
    }
}

/// Whether `actual` holds exactly the oracle's rows, in order when
/// `ordered`.
pub fn same_rows(actual: &Batch, expected: &Batch, ordered: bool) -> bool {
    let options = if ordered {
        EvalOptions::exact().order_sensitive()
    } else {
        EvalOptions::exact()
    };
    score_batches(actual, expected, &options).exact
}

/// Run `f` with the calling thread marked as running query `id`, inside a
/// `query` span when tracing.
pub fn in_query<T>(tracer: Option<&Tracer>, id: u64, f: impl FnOnce() -> T) -> T {
    trace::set_query(Some(id));
    let out = {
        let _q = trace::span(tracer, "query");
        f()
    };
    trace::set_query(None);
    out
}
