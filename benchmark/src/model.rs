//! A timing decorator at the model boundary.
//!
//! [`TimedModel`] wraps the simulated model and forwards every
//! `LanguageModel` method unchanged, counting the requests that reach the
//! model (physical calls) and timing every method. The time spent inside the
//! model is subtracted from process CPU time to give the engine's own CPU.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use llmsql_core::Engine;
use llmsql_llm::backend::CallHandle;
use llmsql_llm::{CompletionRequest, CompletionResponse, KnowledgeBase, LanguageModel, SimLlm};
use llmsql_types::{LlmCostModel, Result};

use crate::measure::thread_cpu_ns;
use crate::trace::Tracer;

/// Counters shared between a [`TimedModel`] and the benchmark.
#[derive(Default)]
pub struct ModelStats {
    calls: AtomicU64,
    call_ns: AtomicU64,
    other_ns: AtomicU64,
    tracer: OnceLock<Arc<Tracer>>,
    tracing: AtomicBool,
}

/// A snapshot of [`ModelStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelSnapshot {
    /// Requests that reached the model (`submit` or `complete`).
    pub calls: u64,
    /// CPU time spent inside those requests, ns.
    pub call_ns: u64,
    /// CPU time spent in the model's other methods (cardinality hints,
    /// names), ns.
    pub other_ns: u64,
}

impl ModelSnapshot {
    /// All time spent inside the model, ns.
    pub fn total_ns(&self) -> u64 {
        self.call_ns + self.other_ns
    }

    pub fn since(&self, before: &ModelSnapshot) -> ModelSnapshot {
        ModelSnapshot {
            calls: self.calls - before.calls,
            call_ns: self.call_ns - before.call_ns,
            other_ns: self.other_ns - before.other_ns,
        }
    }
}

impl ModelStats {
    pub fn snapshot(&self) -> ModelSnapshot {
        // ordering: Relaxed — independent statistics, read after the calls
        // they count have returned on this or a joined thread.
        ModelSnapshot {
            calls: self.calls.load(Ordering::Relaxed),
            call_ns: self.call_ns.load(Ordering::Relaxed),
            other_ns: self.other_ns.load(Ordering::Relaxed),
        }
    }

    /// Record a span per model call on `tracer` from now on. A `ModelStats`
    /// traces onto one tracer in its lifetime.
    pub fn start_tracing(&self, tracer: &Arc<Tracer>) {
        let _ = self.tracer.set(Arc::clone(tracer));
        // ordering: SeqCst — publishes the tracer set just above.
        self.tracing.store(true, Ordering::SeqCst);
    }

    fn tracer(&self) -> Option<&Tracer> {
        // ordering: SeqCst — pairs with the store in `start_tracing`.
        if self.tracing.load(Ordering::SeqCst) {
            self.tracer.get().map(Arc::as_ref)
        } else {
            None
        }
    }
}

/// Decorates a model: counts and times every call, and records a
/// `model.call` span per request while its stats are tracing.
pub struct TimedModel {
    inner: Arc<dyn LanguageModel>,
    stats: Arc<ModelStats>,
}

impl TimedModel {
    pub fn new(inner: Arc<dyn LanguageModel>, stats: Arc<ModelStats>) -> Self {
        TimedModel { inner, stats }
    }

    // Times are the calling thread's CPU time: the wrapped simulator answers
    // inline, so this is the model's own work even when the thread is
    // preempted mid-call.
    fn timed_call<T>(&self, f: impl FnOnce() -> T) -> T {
        let _span = self.stats.tracer().map(|t| t.enter("model.call"));
        let started = thread_cpu_ns();
        let out = f();
        let ns = thread_cpu_ns() - started;
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.call_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    fn timed_other<T>(&self, f: impl FnOnce() -> T) -> T {
        let _span = self.stats.tracer().map(|t| t.enter("model.other"));
        let started = thread_cpu_ns();
        let out = f();
        self.stats
            .other_ns
            .fetch_add(thread_cpu_ns() - started, Ordering::Relaxed);
        out
    }
}

impl LanguageModel for TimedModel {
    fn name(&self) -> String {
        self.timed_other(|| self.inner.name())
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        self.timed_call(|| self.inner.complete(request))
    }

    fn submit(&self, request: &CompletionRequest) -> CallHandle {
        self.timed_call(|| self.inner.submit(request))
    }

    fn supports_async_submit(&self) -> bool {
        self.inner.supports_async_submit()
    }

    fn fingerprint(&self) -> String {
        self.timed_other(|| self.inner.fingerprint())
    }

    fn cost_model(&self) -> LlmCostModel {
        self.inner.cost_model()
    }

    fn relation_cardinality(&self, table: &str) -> Option<u64> {
        self.timed_other(|| self.inner.relation_cardinality(table))
    }
}

/// Attach the simulated model over `kb` to `engine`, exactly as
/// `Engine::attach_simulator` does, but behind a [`TimedModel`].
pub fn attach_timed_simulator(
    engine: &mut Engine,
    kb: Arc<KnowledgeBase>,
    stats: Arc<ModelStats>,
) -> Result<()> {
    let config = engine.config();
    let sim = SimLlm::new(kb, config.fidelity, config.seed).with_cost_model(config.cost_model);
    engine.attach_model(Arc::new(TimedModel::new(Arc::new(sim), stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cold_suite, tenant_mix};
    use llmsql_types::Row;

    /// Wrapped and unwrapped engines answer one workload's queries with
    /// identical rows and identical logical and physical call counts.
    #[test]
    fn wrapping_changes_nothing_the_engine_sees() {
        let world = cold_suite::small_world(11);
        let suite = llmsql_workload::standard_suite(&world, 2);
        let kb = world.knowledge().unwrap();
        for config in cold_suite::engine_configs() {
            let mut plain =
                Engine::with_catalog(world.catalog.deep_clone().unwrap(), config.clone());
            plain.attach_simulator(Arc::clone(&kb)).unwrap();
            let stats = Arc::new(ModelStats::default());
            let mut wrapped =
                Engine::with_catalog(world.catalog.deep_clone().unwrap(), config.clone());
            attach_timed_simulator(&mut wrapped, Arc::clone(&kb), Arc::clone(&stats)).unwrap();
            let mut wrapped_physical = 0;
            for case in &suite {
                let a = plain.execute(&case.sql).unwrap();
                let before = stats.snapshot();
                let b = wrapped.execute(&case.sql).unwrap();
                wrapped_physical += stats.snapshot().since(&before).calls;
                let rows = |r: &llmsql_core::QueryResult| -> Vec<Row> { r.rows().to_vec() };
                assert_eq!(rows(&a), rows(&b), "{}", case.sql);
                assert_eq!(a.metrics.llm_calls(), b.metrics.llm_calls(), "{}", case.sql);
                assert_eq!(
                    a.metrics.batched_rows, b.metrics.batched_rows,
                    "{}",
                    case.sql
                );
                assert_eq!(a.usage.calls, b.usage.calls, "{}", case.sql);
            }
            // Tuple packing only merges requests: the wrapper sees at most
            // one request per completion the client records.
            let plain_usage = plain.client().unwrap().usage();
            let wrapped_usage = wrapped.client().unwrap().usage();
            assert_eq!(plain_usage.calls, wrapped_usage.calls);
            assert_eq!(plain_usage.total_tokens(), wrapped_usage.total_tokens());
            assert!(wrapped_physical > 0 && wrapped_physical <= wrapped_usage.calls);
        }
    }

    /// Through a backend pool the physical attempts are countable without
    /// the wrapper too: they match, and the wrapper counts exactly them.
    #[test]
    fn wrapping_keeps_physical_attempts_through_a_pool() {
        let world = cold_suite::small_world(5);
        let kb = world.knowledge().unwrap();
        // Hedges race the endpoints' timers, so two runs issue different
        // numbers of them; the attempt counts of two engines are compared
        // with hedging off.
        let config = tenant_mix::engine_config(5).with_hedging(0.0, 0.0);
        let mut plain = Engine::with_catalog(world.catalog.deep_clone().unwrap(), config.clone());
        plain.attach_simulator(Arc::clone(&kb)).unwrap();
        let stats = Arc::new(ModelStats::default());
        let mut wrapped = Engine::with_catalog(world.catalog.deep_clone().unwrap(), config);
        attach_timed_simulator(&mut wrapped, kb, Arc::clone(&stats)).unwrap();
        let attempts = |e: &Engine| -> u64 {
            e.client()
                .unwrap()
                .backend_stats()
                .unwrap()
                .iter()
                .map(|b| b.calls)
                .sum()
        };
        for (_, sql) in tenant_mix::tenant_queries(&world, 5).unwrap() {
            let a = plain.execute(&sql).unwrap();
            let b = wrapped.execute(&sql).unwrap();
            assert_eq!(a.rows(), b.rows(), "{sql}");
            assert_eq!(a.metrics.llm_calls(), b.metrics.llm_calls(), "{sql}");
        }
        assert_eq!(attempts(&plain), attempts(&wrapped));
        assert_eq!(stats.snapshot().calls, attempts(&wrapped));
    }
}
