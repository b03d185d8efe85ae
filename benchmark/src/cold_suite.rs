//! `cold_suite`: the engine-CPU lane.
//!
//! One client, closed loop, zero simulated latency, prompt cache off,
//! LLM-only mode. Each round runs the paper's six operator classes
//! (`standard_suite`) through two engines: `BatchedRows` (few large
//! prompts) and `TupleAtATime` with tuple batching (many small prompts).
//! Every answer is compared with Traditional execution over the ground
//! truth; top-k answers are compared in order.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use llmsql_core::{Engine, QueryResult};
use llmsql_llm::{count_tokens, CompletionRequest};
use llmsql_plan::LogicalPlan;
use llmsql_sql::ast::Statement;
use llmsql_sql::parse_statement;
use llmsql_types::{Batch, EngineConfig, ExecutionMode, LlmFidelity, PromptStrategy, Result};
use llmsql_workload::{standard_suite, QueryCase, QueryClass, World, WorldSpec};

use crate::measure::{median, Outcome, WRONG_ROWS};
use crate::model::{attach_timed_simulator, ModelStats};
use crate::tally::{in_query, layer_times, same_rows, traced_execute, OpClock, Tally};
use crate::trace::Tracer;
use crate::Args;

/// Queries per operator class and engine in one round (48 per engine).
const PER_CLASS: usize = 8;
/// Per-tuple prompts packed into one request by the tuple engine.
const TUPLE_BATCH: usize = 8;
/// Rounds never drop below this, so a run has at least 1,000 samples for
/// its p99 and 200 selections for its p95.
const MIN_ROUNDS: usize = 13;
/// Rounds per second of `--seconds` (a round takes about 2 s on the
/// reference machine).
const ROUNDS_PER_SECOND: f64 = 0.65;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The cause under which the tuple engine's truncated enumerations count.
pub const TRUNCATED: &str = "tuple_enumeration_truncated";
/// SimLlm's cap on the rows of one completion (`max_rows_per_completion`).
const SIM_ROWS_PER_COMPLETION: usize = 500;

/// The world: scans of cities (960 rows) and people (480) span dozens of
/// 20-row completion pages.
fn world_spec(seed: u64) -> WorldSpec {
    WorldSpec {
        countries: 240,
        cities_per_country: 4,
        people: 480,
        movies: 320,
        seed,
    }
}

/// A small world for the benchmark's own tests.
#[cfg(test)]
pub fn small_world(seed: u64) -> World {
    World::generate(WorldSpec {
        countries: 30,
        cities_per_country: 3,
        people: 40,
        movies: 30,
        seed,
    })
    .expect("world generation")
}

/// The two engines' configurations: `BatchedRows`, then `TupleAtATime`
/// with tuple batching.
pub fn engine_configs() -> [EngineConfig; 2] {
    let mut base = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_fidelity(LlmFidelity::perfect());
    base.enable_prompt_cache = false;
    let batched = base.clone().with_strategy(PromptStrategy::BatchedRows);
    // A lookup wave is `parallelism` prompts wide; packing needs the whole
    // wave to fill one request.
    let mut tuple = base.with_strategy(PromptStrategy::TupleAtATime);
    tuple.batch_rows_per_call = TUPLE_BATCH;
    tuple.parallelism = TUPLE_BATCH;
    [batched, tuple]
}

/// Tables whose whole key list does not fit in one completion: more keys
/// than SimLlm's row cap, or more tokens (one line per key, counted as
/// SimLlm counts a completion) than a request's default `max_tokens`.
/// Computed from the ground truth, so the engines under test do not decide
/// which queries the fault may excuse.
fn cut_tables(world: &World) -> Result<BTreeSet<String>> {
    let max_tokens = CompletionRequest::new("").max_tokens;
    let mut cut = BTreeSet::new();
    for name in world.catalog.table_names() {
        let table = world.catalog.table(&name)?;
        let schema = table.schema();
        let key = schema
            .columns
            .iter()
            .position(|c| c.primary_key)
            .unwrap_or(0);
        let keys: Vec<String> = table
            .scan()
            .iter()
            .map(|row| row.get(key).to_display_string())
            .collect();
        if keys.len() > SIM_ROWS_PER_COMPLETION || count_tokens(&keys.join("\n")) > max_tokens {
            cut.insert(name);
        }
    }
    Ok(cut)
}

fn scanned_tables(plan: &LogicalPlan, out: &mut BTreeSet<String>) {
    if let LogicalPlan::Scan { table, .. } = plan {
        out.insert(table.clone());
    }
    for child in plan.children() {
        scanned_tables(child, out);
    }
}

/// Whether `sql` scans one of the `cut` tables: the only queries whose
/// tuple-engine shortfall the named fault explains.
fn scans_cut_table(engine: &Engine, sql: &str, cut: &BTreeSet<String>) -> Result<bool> {
    let Statement::Select(select) = parse_statement(sql)? else {
        return Ok(false);
    };
    let mut tables = BTreeSet::new();
    scanned_tables(&engine.plan_select(&select)?, &mut tables);
    Ok(tables.iter().any(|t| cut.contains(t)))
}

/// One suite query with its oracle answer.
struct Case {
    case: QueryCase,
    expected: Batch,
    /// It scans a table whose key list exceeds one completion.
    may_truncate: bool,
}

struct Setup {
    world: World,
    engines: [Engine; 2],
}

fn set_up(seed: u64, stats: &Arc<ModelStats>) -> Result<Setup> {
    let world = World::generate(world_spec(seed))?;
    let kb = world.knowledge()?;
    let make = |config: EngineConfig| -> Result<Engine> {
        let mut engine = Engine::with_catalog(world.catalog.deep_clone()?, config);
        attach_timed_simulator(&mut engine, Arc::clone(&kb), Arc::clone(stats))?;
        Ok(engine)
    };
    let [batched, tuple] = engine_configs();
    let engines = [make(batched)?, make(tuple)?];
    // Warm-up: the first query of every class on both engines.
    for case in standard_suite(&world, 1) {
        for engine in &engines {
            engine.execute(&case.sql)?;
        }
    }
    Ok(Setup { world, engines })
}

/// One pass of `rounds` rounds; returns what it measured.
fn pass(
    setup: &Setup,
    suite: &[Case],
    rounds: usize,
    stats: &ModelStats,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Result<Tally> {
    let mut tally = Tally::default();
    let mut id = 0;
    for _ in 0..rounds {
        for Case {
            case,
            expected,
            may_truncate,
        } in suite
        {
            let short = case.class == QueryClass::Selection;
            let mut batched_rows_from_llm = 0;
            for (e, engine) in setup.engines.iter().enumerate() {
                id += 1;
                let clock = OpClock::start(stats);
                let result: QueryResult = in_query(tracer, id, || match tracer {
                    Some(t) => traced_execute(engine, &case.sql, t, "exec.execute", &mut tally),
                    None => engine.execute(&case.sql),
                })?;
                clock.stop(stats, &mut tally, short);
                tally.add_result(&result);
                out.attempted += 1;
                let rows_from_llm = result.metrics.rows_from_llm;
                if e == 0 {
                    batched_rows_from_llm = rows_from_llm;
                    if !same_rows(&result.batch, expected, case.order_sensitive) {
                        out.fail(WRONG_ROWS);
                    }
                } else if *may_truncate && rows_from_llm < batched_rows_from_llm {
                    // A query over a table whose key list exceeds one
                    // completion, and the tuple engine's scans fetched fewer
                    // rows than the paging engine's: its one-shot key
                    // enumeration was cut off. The answer is wrong, or right
                    // only by chance. A shortfall anywhere else is wrong rows.
                    out.fail(TRUNCATED);
                } else if !same_rows(&result.batch, expected, case.order_sensitive) {
                    out.fail(WRONG_ROWS);
                }
            }
        }
    }
    Ok(tally)
}

pub fn run(args: &Args) -> Result<Outcome> {
    let stats = Arc::new(ModelStats::default());
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let started = Instant::now();
        setup = Some(set_up(args.seed, &stats)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    let oracle = setup.world.oracle_engine();
    let cut = cut_tables(&setup.world)?;
    let suite = standard_suite(&setup.world, PER_CLASS)
        .into_iter()
        .map(|case| {
            Ok(Case {
                expected: oracle.execute(&case.sql)?.batch,
                may_truncate: scans_cut_table(&oracle, &case.sql, &cut)?,
                case,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    eprintln!(
        "# cold_suite: tables past one completion {:?}; {} of {} queries scan them",
        cut,
        suite.iter().filter(|c| c.may_truncate).count(),
        suite.len()
    );
    let rounds = args.rounds(MIN_ROUNDS, ROUNDS_PER_SECOND);

    let mut out = Outcome::default();
    let untraced = pass(&setup, &suite, rounds, &stats, None, &mut out)?;
    untraced.end_to_end(&mut out, median(&setup_s), untraced.queries_per_s());
    if args.trace {
        // Same work again with spans; its failures repeat the untraced
        // pass's, so they are not counted twice.
        let tracer = Tracer::new();
        stats.start_tracing(&tracer);
        let mut traced_out = Outcome::default();
        let traced = pass(
            &setup,
            &suite,
            rounds,
            &stats,
            Some(&tracer),
            &mut traced_out,
        )?;
        traced.layer_counters(&mut out, 0);
        layer_times(&mut out, &tracer, &traced, &untraced);
        args.write_trace(&tracer);
    }
    Ok(out)
}
