//! `tenant_mix`: three tenants, open loop, through `QueryScheduler`.
//!
//! One generator thread sends queries on a fixed schedule at a ladder of
//! arrival rates: two light steps, then a search for the highest rate whose
//! p95 meets the latency limit, then a burst that measures capacity. Queries
//! run on the scheduler's workers over the shared reactor and global call
//! slots, served by a pool of simulated endpoints with a few milliseconds
//! of latency and hedging on; the prompt cache is off. Latency is timed
//! from each query's due time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use llmsql_core::Engine;
use llmsql_sched::{QueryScheduler, QueryTicket};
use llmsql_types::{
    BackendSpec, Batch, EngineConfig, ExecutionMode, LlmFidelity, Priority, PromptStrategy, Result,
    SchedConfig,
};
use llmsql_workload::{World, WorldSpec};

use crate::measure::{
    median, percentile, process_cpu_ns, ratio, thread_cpu_ns, Outcome, WRONG_ROWS,
};
use crate::model::{attach_timed_simulator, ModelStats};
use crate::tally::{layer_times, same_rows, Tally};
use crate::trace::Tracer;
use crate::{shuffle, Args};

/// The two light steps of the ladder, queries per second. The latency
/// metrics pool them: under light load a slower machine lengthens queues
/// least.
const LIGHT_RATES: [f64; 2] = [50.0, 100.0];
/// Latency limit on each step's p95, ms.
const SLO_MS: f64 = 60.0;
/// Queries per light step per second of `--seconds`, and at least: the
/// pooled steps then hold over 1,000 samples.
const PER_STEP_PER_SECOND: f64 = 27.0;
const MIN_PER_STEP: usize = 500;
/// The capacity search after the light steps: steps from `SEARCH_FROM` q/s,
/// each `SEARCH_GROWTH` times the rate of the last, until two steps running
/// miss the limit (at most `SEARCH_STEPS`). Near capacity the p95 leaps
/// from one step to the next, so the steps are close. On the reference
/// machine the p95 crosses the limit at 240-265 q/s and the search ends
/// after 13 to 16 steps.
const SEARCH_FROM: f64 = 170.0;
const SEARCH_GROWTH: f64 = 1.04;
const SEARCH_STEPS: usize = 24;
/// Cycles of the mix per search step.
const SEARCH_CYCLES: usize = 6;
/// Cycles of the mix sent at once after the ladder, to measure capacity.
const BURST_CYCLES: usize = 15;
/// Scheduler workers: the machine's two cores.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

pub fn engine_config(seed: u64) -> EngineConfig {
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::BatchedRows)
        .with_fidelity(LlmFidelity::perfect())
        .with_parallelism(4)
        .with_seed(seed)
        .with_backends(vec![
            BackendSpec::new("edge-fast").with_latency_ms(3.0),
            BackendSpec::new("edge-mid").with_latency_ms(4.0),
            BackendSpec::new("edge-slow").with_latency_ms(5.0),
        ])
        .with_hedging(2.0, 1.0);
    config.enable_prompt_cache = false;
    config.backend_backoff_ms = 0.0;
    config
}

fn world_spec(seed: u64) -> WorldSpec {
    WorldSpec {
        countries: 60,
        cities_per_country: 4,
        people: 60,
        movies: 50,
        seed,
    }
}

/// A scheduler over a fresh engine whose model is a `TimedModel`.
fn scheduler(world: &World, seed: u64, stats: &Arc<ModelStats>) -> Result<QueryScheduler> {
    let mut engine = Engine::with_catalog(world.catalog.deep_clone()?, engine_config(seed));
    attach_timed_simulator(&mut engine, world.knowledge()?, Arc::clone(stats))?;
    let sched = SchedConfig::default()
        .with_workers(WORKERS)
        .with_llm_slots(8)
        .with_max_queue_depth(100_000)
        .with_tenant_queue_cap(100_000);
    QueryScheduler::new(engine, sched)
}

struct Query {
    tenant: &'static str,
    sql: String,
    expected: Batch,
    /// Logical calls of a sequential run on a fresh engine without a
    /// scheduler.
    logical: u64,
}

struct Sent {
    query: usize,
    /// Ladder step; `None` in the burst.
    step: Option<usize>,
    due: Instant,
    sent: Instant,
    ticket: QueryTicket,
}

/// One arrival: which query, in which step, due when (offset from start).
struct Arrival {
    query: usize,
    step: usize,
    at: Duration,
}

/// One cycle of the mix: every interactive and analytics query twice, every
/// bulk query once (32 / 8 / 5 of 45), in a fixed shuffled order. The order
/// does not follow the seed: with round-robin routing it decides which
/// endpoint serves which query, and so the shape of the latency
/// distribution.
fn cycle(queries: &[Query]) -> Vec<usize> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        match q.tenant {
            "interactive" => units.extend([vec![i], vec![i]]),
            // The two copies of an analytics query go back to back, so their
            // identical scan prompts are in flight together and coalesce.
            "analytics" => units.push(vec![i, i]),
            _ => units.push(vec![i]),
        }
    }
    shuffle(&mut units, &mut StdRng::seed_from_u64(0x7465_6e61));
    units.concat()
}

/// `n` arrivals at `rate` from `from` seconds on, each due at its slot of
/// a fixed schedule, cycling through the mix.
fn arrivals(cycle: &[usize], step: usize, rate: f64, n: usize, from: f64) -> Vec<Arrival> {
    (0..n)
        .map(|k| Arrival {
            query: cycle[k % cycle.len()],
            step,
            at: Duration::from_secs_f64(from + k as f64 / rate),
        })
        .collect()
}

/// The light steps back to back, whole cycles each.
fn light_schedule(cycle: &[usize], seconds: f64) -> Vec<Arrival> {
    let per_step = (seconds * PER_STEP_PER_SECOND).max(MIN_PER_STEP as f64);
    let n = (per_step / cycle.len() as f64).ceil() as usize * cycle.len();
    let mut out = Vec::new();
    let mut from = 0.0;
    for (step, rate) in LIGHT_RATES.iter().enumerate() {
        out.extend(arrivals(cycle, step, *rate, n, from));
        from += n as f64 / rate;
    }
    out
}

/// The arrival rate at which the p95 crosses the limit, interpolated
/// linearly between the last step that meets it and the first of the
/// first two steps running that miss it (a single missed step followed by
/// a met one is noise). `steps` holds (rate, p95) in rising rate; when no
/// step misses, the highest rate.
fn max_rate_under_slo(steps: &[(f64, f64)]) -> f64 {
    let miss = |i: usize| steps.get(i).is_none_or(|&(_, p95)| p95 > SLO_MS);
    let Some(i) = (0..steps.len()).find(|&i| miss(i) && miss(i + 1)) else {
        return steps.last().map_or(0.0, |&(rate, _)| rate);
    };
    let (r1, p1) = steps[i];
    let (r0, p0) = if i == 0 { (0.0, 0.0) } else { steps[i - 1] };
    r0 + (SLO_MS - p0) / (p1 - p0) * (r1 - r0)
}

/// The tenants' queries. Interactive queries are equality selections: 14
/// on the key of seeded entities (one 20-row page each) and 2 on
/// `is_capital = false` (each country has three non-capital cities, so 180
/// rows in nine pages whatever the seed). The longer ones are an eighth of
/// the interactive traffic, so its p95 falls inside their latency rather
/// than on the thin edge of the one-page queries' tail. Analytics and bulk
/// queries scan whole tables.
pub fn tenant_queries(world: &World, seed: u64) -> Result<Vec<(&'static str, String)>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_7973);
    let mut out = Vec::new();
    for (table, key, columns, count) in [
        ("countries", "name", "capital, population", 5),
        ("people", "name", "birth_year, nationality", 5),
        ("movies", "title", "year, rating", 4),
    ] {
        let mut keys: Vec<String> = world
            .catalog
            .table(table)?
            .scan()
            .iter()
            .map(|row| row.get(0).to_display_string())
            .collect();
        shuffle(&mut keys, &mut rng);
        for k in keys.iter().take(count) {
            let k = k.replace('\'', "''");
            out.push((
                "interactive",
                format!("SELECT {columns} FROM {table} WHERE {key} = '{k}'"),
            ));
        }
    }
    for columns in ["name, population", "name, country"] {
        out.push((
            "interactive",
            format!("SELECT {columns} FROM cities WHERE is_capital = false"),
        ));
    }
    for sql in [
        "SELECT region, COUNT(*) FROM countries GROUP BY region",
        "SELECT region, SUM(population) FROM countries GROUP BY region",
        "SELECT profession, COUNT(*) FROM people GROUP BY profession",
        "SELECT genre, AVG(rating) FROM movies GROUP BY genre",
    ] {
        out.push(("analytics", sql.to_string()));
    }
    for sql in [
        "SELECT name, capital FROM countries",
        "SELECT name, region, population FROM countries",
        "SELECT name, country FROM cities",
        "SELECT name, profession FROM people",
        "SELECT title, year FROM movies",
    ] {
        out.push(("bulk", sql.to_string()));
    }
    Ok(out)
}

fn prepare(world: &World, seed: u64) -> Result<Vec<Query>> {
    let oracle = world.oracle_engine();
    let mut sequential = Engine::with_catalog(world.catalog.deep_clone()?, engine_config(seed));
    sequential.attach_simulator(world.knowledge()?)?;
    tenant_queries(world, seed)?
        .into_iter()
        .map(|(tenant, sql)| {
            Ok(Query {
                tenant,
                expected: oracle.execute(&sql)?.batch,
                logical: sequential.execute(&sql)?.metrics.llm_calls(),
                sql,
            })
        })
        .collect()
}

struct Pass {
    tally: Tally,
    /// Per ladder step: its rate and latencies, ms.
    steps: Vec<(f64, Vec<f64>)>,
    lateness_ms: Vec<f64>,
    /// Queue and run times of the pooled steps, ms.
    queue_ms: Vec<f64>,
    run_ms: Vec<f64>,
    slot_wait_ms: f64,
    peak_slots: u64,
    /// Physical attempts the backend pool made.
    attempts: u64,
    /// Engine CPU per query during the burst, ms.
    engine_cpu_ms_per_query: f64,
}

fn pool_attempts(sched: &QueryScheduler) -> u64 {
    let client = sched.engine().client().expect("model attached");
    let stats = client.backend_stats().unwrap_or_default();
    stats.iter().map(|b| b.calls).sum()
}

/// Submit `query` and remember when it was due and sent.
fn send(
    sched: &QueryScheduler,
    queries: &[Query],
    query: usize,
    step: Option<usize>,
    due: Instant,
    tracer: Option<&Tracer>,
) -> Result<Sent> {
    let q = &queries[query];
    let sent = Instant::now();
    let ticket = {
        let _s = tracer.map(|t| t.enter("sched.submit"));
        sched.submit(q.tenant, Priority::NORMAL, q.sql.clone())?
    };
    Ok(Sent {
        query,
        step,
        due,
        sent,
        ticket,
    })
}

impl Pass {
    /// Wait for one query, check it, and account it; returns when it
    /// completed.
    fn finish(
        &mut self,
        s: Sent,
        queries: &[Query],
        tracer: Option<&Tracer>,
        out: &mut Outcome,
    ) -> Instant {
        let outcome = s.ticket.wait();
        let admitted_to_done =
            Duration::from_secs_f64((outcome.queue_ms + outcome.run_ms) / 1000.0);
        let done = s.sent + admitted_to_done;
        let latency_ms = (done - s.due).as_secs_f64() * 1000.0;
        out.attempted += 1;
        self.tally.queries += 1;
        self.slot_wait_ms += outcome.slot_wait_ms;
        let q = &queries[s.query];
        match &outcome.result {
            Ok(result) => {
                self.tally.add_metrics(&result.metrics);
                let rows_ok = same_rows(&result.batch, &q.expected, false);
                let calls = result.metrics.llm_calls();
                if !rows_ok || calls != q.logical || result.metrics.coalesced_calls > calls {
                    out.fail(WRONG_ROWS);
                }
            }
            Err(_) => out.fail(WRONG_ROWS),
        }
        let Some(step) = s.step else {
            return done;
        };
        self.steps[step].1.push(latency_ms);
        if step < LIGHT_RATES.len() {
            self.tally.latencies_ms.push(latency_ms);
            if q.tenant == "interactive" {
                self.tally.short_ms.push(latency_ms);
            }
            self.queue_ms.push(outcome.queue_ms);
            self.run_ms.push(outcome.run_ms);
            // The scheduler's own time is the queue wait; the run is engine
            // and model work on its workers. Only the pooled steps are
            // recorded: a backlog's wait is load, not scheduler work.
            if let Some(t) = tracer {
                let started = s.sent + Duration::from_secs_f64(outcome.queue_ms / 1000.0);
                t.record("sched.queue", None, s.sent, started);
            }
        }
        done
    }

    /// Send `arrivals` on their schedule from now, then wait for them all.
    fn run_steps(
        &mut self,
        sched: &QueryScheduler,
        queries: &[Query],
        arrivals: &[Arrival],
        tracer: Option<&Tracer>,
        out: &mut Outcome,
    ) -> Result<()> {
        let start = Instant::now();
        let mut sent = Vec::with_capacity(arrivals.len());
        for a in arrivals {
            let due = start + a.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            self.lateness_ms.push(due.elapsed().as_secs_f64() * 1000.0);
            sent.push(send(sched, queries, a.query, Some(a.step), due, tracer)?);
        }
        for s in sent {
            self.finish(s, queries, tracer, out);
        }
        Ok(())
    }

    /// Each ladder step's rate and p95, ms.
    fn step_p95(&self) -> Vec<(f64, f64)> {
        self.steps
            .iter()
            .map(|(rate, latencies)| (*rate, percentile(latencies, 95.0)))
            .collect()
    }
}

/// The light steps, the capacity search (each step drained before the
/// next), then the burst. Capacity and engine CPU come from the burst,
/// where the workers are never idle.
fn pass(
    sched: &QueryScheduler,
    queries: &[Query],
    cycle: &[usize],
    light: &[Arrival],
    stats: &ModelStats,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Result<Pass> {
    let client = sched.engine().client().expect("model attached");
    let usage_before = client.usage();
    let attempts_before = pool_attempts(sched);
    let model_before = stats.snapshot();
    let mut p = Pass {
        tally: Tally::default(),
        steps: LIGHT_RATES.iter().map(|r| (*r, Vec::new())).collect(),
        lateness_ms: Vec::new(),
        queue_ms: Vec::new(),
        run_ms: Vec::new(),
        slot_wait_ms: 0.0,
        peak_slots: 0,
        attempts: 0,
        engine_cpu_ms_per_query: 0.0,
    };
    p.run_steps(sched, queries, light, tracer, out)?;
    let mut rate = SEARCH_FROM;
    let mut misses = 0;
    for _ in 0..SEARCH_STEPS {
        let step = p.steps.len();
        p.steps.push((rate, Vec::new()));
        let search = arrivals(cycle, step, rate, SEARCH_CYCLES * cycle.len(), 0.0);
        p.run_steps(sched, queries, &search, tracer, out)?;
        if percentile(&p.steps[step].1, 95.0) > SLO_MS {
            misses += 1;
            if misses == 2 {
                break;
            }
        } else {
            misses = 0;
        }
        rate *= SEARCH_GROWTH;
    }

    let burst_model_before = stats.snapshot();
    let cpu_before = process_cpu_ns();
    let gen_cpu_before = thread_cpu_ns();
    let burst_start = Instant::now();
    let burst = (0..BURST_CYCLES * cycle.len())
        .map(|k| {
            send(
                sched,
                queries,
                cycle[k % cycle.len()],
                None,
                burst_start,
                tracer,
            )
        })
        .collect::<Result<Vec<_>>>()?;
    let mut burst_done = burst_start;
    let burst_len = burst.len();
    for s in burst {
        burst_done = burst_done.max(p.finish(s, queries, tracer, out));
    }
    // Process CPU in the burst, less the generator thread's and the
    // model's: the engine's own CPU while its workers are never idle.
    let gen_cpu = thread_cpu_ns() - gen_cpu_before;
    let burst_model = stats.snapshot().since(&burst_model_before).total_ns();
    let engine_cpu = (process_cpu_ns() - cpu_before).saturating_sub(gen_cpu + burst_model);
    p.engine_cpu_ms_per_query = ratio(engine_cpu as f64 / 1e6, burst_len as f64);
    // An open loop's completion rate only echoes the offered rate; its
    // queries per second is the capacity the burst measured.
    let capacity = ratio(burst_len as f64, (burst_done - burst_start).as_secs_f64());
    p.tally.wall_ns = (1e9 * ratio(p.tally.queries as f64, capacity)) as u64;
    p.tally.model = stats.snapshot().since(&model_before);
    p.tally.usage = client.usage().since(&usage_before);
    p.peak_slots = sched.stats().peak_slots_in_use;
    p.attempts = pool_attempts(sched) - attempts_before;
    Ok(p)
}

pub fn run(args: &Args) -> Result<Outcome> {
    let stats = Arc::new(ModelStats::default());
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let started = Instant::now();
        let world = World::generate(world_spec(args.seed))?;
        let sched = scheduler(&world, args.seed, &stats)?;
        // Warm-up: every distinct query once.
        let tickets = tenant_queries(&world, args.seed)?
            .into_iter()
            .map(|(tenant, sql)| sched.submit(tenant, Priority::NORMAL, sql))
            .collect::<Result<Vec<_>>>()?;
        for t in tickets {
            t.wait().result?;
        }
        setup_s.push(started.elapsed().as_secs_f64());
        setup = Some((world, sched));
    }
    let (world, sched) = setup.expect("at least one set-up");
    let queries = prepare(&world, args.seed)?;
    let cycle = cycle(&queries);
    let light = light_schedule(&cycle, args.seconds);

    let mut out = Outcome::default();
    let untraced = pass(&sched, &queries, &cycle, &light, &stats, None, &mut out)?;
    let p95 = untraced.step_p95();
    let tally = untraced.tally;
    eprintln!(
        "# tenant_mix: generator lateness p99 {:.3} ms",
        percentile(&untraced.lateness_ms, 99.0)
    );
    tally.end_to_end(&mut out, median(&setup_s), max_rate_under_slo(&p95));
    out.set("engine_cpu_ms_per_query", untraced.engine_cpu_ms_per_query);
    for (rate, p) in &p95 {
        eprintln!("# tenant_mix: {rate:.1} q/s -> p95 {p:.2} ms");
    }
    if args.trace {
        let tracer = Tracer::new();
        stats.start_tracing(&tracer);
        let mut traced_out = Outcome::default();
        let fresh = scheduler(&world, args.seed, &stats)?;
        let traced = pass(
            &fresh,
            &queries,
            &cycle,
            &light,
            &stats,
            Some(&tracer),
            &mut traced_out,
        )?;
        let t = traced.tally;
        t.layer_counters(&mut out, 0);
        layer_times(&mut out, &tracer, &t, &tally);
        // Work on scheduler threads overlaps, so per-query self times do
        // not add up to a per-query wall time here.
        out.set("trace.reconcile_error", 0.0);
        let q = t.queries as f64;
        out.set("sched.queue_ms_p50", percentile(&traced.queue_ms, 50.0));
        out.set("sched.queue_ms_p99", percentile(&traced.queue_ms, 99.0));
        out.set("sched.run_ms_p50", percentile(&traced.run_ms, 50.0));
        out.set(
            "sched.slot_wait_ms_per_query",
            ratio(traced.slot_wait_ms, q),
        );
        out.set("sched.peak_slots_in_use", traced.peak_slots as f64);
        out.set(
            "llm.backend.attempts_per_physical",
            ratio(traced.attempts as f64, t.usage.calls as f64),
        );
        out.set(
            "load.lateness_ms_p99",
            percentile(&traced.lateness_ms, 99.0),
        );
        args.write_trace(&tracer);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_rate_is_interpolated_at_the_crossing() {
        // Met at 200 (p95 40), missed at 240 and 280: the crossing at 60 ms
        // lies halfway between 200 and 240.
        let steps = [(100.0, 20.0), (200.0, 40.0), (240.0, 80.0), (280.0, 200.0)];
        assert!((max_rate_under_slo(&steps) - 220.0).abs() < 1e-9);
        // One missed step followed by a met one is noise.
        let steps = [(100.0, 20.0), (150.0, 70.0), (200.0, 40.0), (240.0, 80.0)];
        assert!((max_rate_under_slo(&steps) - 220.0).abs() < 1e-9);
        // A last step that misses counts as the crossing.
        let steps = [(100.0, 20.0), (200.0, 40.0), (240.0, 80.0)];
        assert!((max_rate_under_slo(&steps) - 220.0).abs() < 1e-9);
        // Nothing missed: the highest rate; everything missed: from 0.
        assert_eq!(max_rate_under_slo(&[(100.0, 20.0), (200.0, 40.0)]), 200.0);
        assert!((max_rate_under_slo(&[(100.0, 120.0), (200.0, 140.0)]) - 50.0).abs() < 1e-9);
    }
}
