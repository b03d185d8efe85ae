//! `hybrid_rw`: reads and writes on an incomplete store beside LLM
//! gap-filling.
//!
//! One client, closed loop, zero simulated latency, prompt cache on, Hybrid
//! mode. The store starts with a share of attribute cells NULL and a share
//! of entities absent. Reads are the operator-class mix plus point
//! selections by key; writes INSERT absent entities with some attributes
//! NULL, one after every few reads. Each read is compared with Traditional
//! execution over a ground-truth copy that holds the same entities as the
//! store at that moment, with every value present; each write must affect
//! exactly one row.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use llmsql_core::{Engine, QueryResult};
use llmsql_store::Catalog;
use llmsql_types::{EngineConfig, Error, ExecutionMode, LlmFidelity, Result, Row, Schema, Value};
use llmsql_workload::{standard_suite, QueryCase, World, WorldSpec};

use crate::measure::{median, ratio, Outcome, WRONG_ROWS};
use crate::model::{attach_timed_simulator, ModelStats};
use crate::tally::{in_query, layer_times, same_rows, traced_execute, OpClock, Tally};
use crate::trace::Tracer;
use crate::{shuffle, Args};

/// Share of non-key attribute cells stored as NULL (also in written rows).
const NULL_SHARE: f64 = 0.3;
/// Share of entities absent from the store at the start: the write pool.
const ABSENT_SHARE: f64 = 0.4;
/// Operator-class queries per class in one round.
const SUITE_PER_CLASS: usize = 3;
/// Point selections by key in one round.
const POINT_READS: usize = 8;
/// One write after every this many reads.
const READS_PER_WRITE: usize = 8;
/// Rounds never drop below this: at least 1,000 operations and 200 point
/// selections per run.
const MIN_ROUNDS: usize = 35;
/// Rounds per second of `--seconds`.
const ROUNDS_PER_SECOND: f64 = 10.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

fn world_spec(seed: u64) -> WorldSpec {
    WorldSpec {
        countries: 400,
        cities_per_country: 4,
        people: 1200,
        movies: 800,
        seed,
    }
}

/// How a point selection finds one stored entity.
#[derive(Clone)]
struct Key {
    table: String,
    column: String,
    value: String,
}

/// An entity not yet in the store, with its full ground-truth row.
struct Absent {
    key: Key,
    schema: Schema,
    row: Row,
}

struct Setup {
    world: World,
    engine: Engine,
    truth: Engine,
    /// Absent entities in the order they are written.
    pool: Vec<Absent>,
    /// Every stored entity.
    keys: Vec<Key>,
}

fn insert_sql(absent: &Absent, rng: &mut StdRng) -> String {
    let mut columns = Vec::new();
    let mut values = Vec::new();
    for (column, value) in absent.schema.columns.iter().zip(absent.row.values()) {
        if !column.primary_key && rng.gen_bool(NULL_SHARE) {
            continue;
        }
        columns.push(column.name.clone());
        values.push(match value {
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
            other => other.to_display_string(),
        });
    }
    format!(
        "INSERT INTO {} ({}) VALUES ({})",
        absent.key.table,
        columns.join(", "),
        values.join(", ")
    )
}

fn set_up(seed: u64, stats: &Arc<ModelStats>) -> Result<Setup> {
    let world = World::generate(world_spec(seed))?;
    let kb = world.knowledge()?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4879_6272);
    let store = Catalog::new();
    let truth_catalog = Catalog::new();
    let mut pool = Vec::new();
    let mut keys = Vec::new();
    for name in world.catalog.table_names() {
        let full = world.catalog.table(&name)?;
        let schema = full.schema();
        let key_idx = schema
            .columns
            .iter()
            .position(|c| c.primary_key)
            .unwrap_or(0);
        let stored = store.create_table(schema.clone())?;
        let truth = truth_catalog.create_table(schema.clone())?;
        for row in full.scan() {
            let key = Key {
                table: name.clone(),
                column: schema.columns[key_idx].name.clone(),
                value: row.get(key_idx).to_display_string(),
            };
            if rng.gen_bool(ABSENT_SHARE) {
                pool.push(Absent {
                    key,
                    schema: schema.clone(),
                    row,
                });
                continue;
            }
            keys.push(key);
            let degraded: Vec<Value> = row
                .values()
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    if i != key_idx && rng.gen_bool(NULL_SHARE) {
                        Value::Null
                    } else {
                        v.clone()
                    }
                })
                .collect();
            stored.insert(Row::new(degraded))?;
            truth.insert(row)?;
        }
    }
    // Interleave the tables in the write order.
    shuffle(&mut pool, &mut rng);

    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::Hybrid)
        .with_fidelity(LlmFidelity::perfect());
    config.enable_prompt_cache = true;
    // Tables grow past the default 1,000-row scan budget as writes land.
    config.max_scan_rows = 100_000;
    let mut engine = Engine::with_catalog(store, config.clone());
    attach_timed_simulator(&mut engine, kb, Arc::clone(stats))?;
    let mut truth_config = EngineConfig::default().with_mode(ExecutionMode::Traditional);
    truth_config.max_scan_rows = config.max_scan_rows;
    let truth = Engine::with_catalog(truth_catalog, truth_config);
    // Warm-up fills the prompt cache: every table in full, then every
    // operator-class query once.
    for name in world.catalog.table_names() {
        engine.execute(&format!("SELECT * FROM {name}"))?;
    }
    for case in standard_suite(&world, SUITE_PER_CLASS) {
        engine.execute(&case.sql)?;
    }
    Ok(Setup {
        world,
        engine,
        truth,
        pool,
        keys,
    })
}

enum Op {
    /// A read, and whether it is a point selection.
    Read(QueryCase, bool),
    /// An INSERT of the pool entity at this index.
    Write(usize, String),
}

/// The operations of one round: the class mix and point selections,
/// shuffled, with a write after every `READS_PER_WRITE` reads.
fn round_ops(
    suite: &[QueryCase],
    setup: &Setup,
    rng: &mut StdRng,
    next: &mut usize,
) -> Result<Vec<Op>> {
    let mut reads: Vec<(QueryCase, bool)> = suite.iter().map(|c| (c.clone(), false)).collect();
    for _ in 0..POINT_READS {
        let key = &setup.keys[rng.gen_range(0..setup.keys.len())];
        reads.push((
            QueryCase {
                id: "point".into(),
                class: llmsql_workload::QueryClass::Selection,
                sql: format!(
                    "SELECT * FROM {} WHERE {} = '{}'",
                    key.table,
                    key.column,
                    key.value.replace('\'', "''")
                ),
                order_sensitive: false,
            },
            true,
        ));
    }
    shuffle(&mut reads, rng);
    let mut ops = Vec::new();
    for (i, (case, point)) in reads.into_iter().enumerate() {
        ops.push(Op::Read(case, point));
        if (i + 1) % READS_PER_WRITE == 0 {
            let absent = setup.pool.get(*next).ok_or_else(|| {
                Error::config("hybrid_rw ran out of absent entities; lower --seconds")
            })?;
            ops.push(Op::Write(*next, insert_sql(absent, rng)));
            *next += 1;
        }
    }
    Ok(ops)
}

struct Pass {
    tally: Tally,
    reads: u64,
    rows_from_store: u64,
    cells_filled: u64,
}

fn pass(
    setup: &mut Setup,
    seed: u64,
    rounds: usize,
    stats: &ModelStats,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Result<Pass> {
    let suite = standard_suite(&setup.world, SUITE_PER_CLASS);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7277);
    let mut p = Pass {
        tally: Tally::default(),
        reads: 0,
        rows_from_store: 0,
        cells_filled: 0,
    };
    let mut next = 0;
    let mut id = 0;
    for _ in 0..rounds {
        for op in round_ops(&suite, setup, &mut rng, &mut next)? {
            id += 1;
            let (sql, short, exec_span) = match &op {
                Op::Read(case, point) => (case.sql.as_str(), *point, "exec.execute"),
                Op::Write(_, sql) => (sql.as_str(), false, "store.insert"),
            };
            let clock = OpClock::start(stats);
            let result: QueryResult = in_query(tracer, id, || match tracer {
                Some(t) => traced_execute(&setup.engine, sql, t, exec_span, &mut p.tally),
                None => setup.engine.execute(sql),
            })?;
            clock.stop(stats, &mut p.tally, short);
            p.tally.add_result(&result);
            out.attempted += 1;
            match op {
                Op::Read(case, _) => {
                    p.reads += 1;
                    p.rows_from_store += result.metrics.rows_from_store;
                    p.cells_filled += result.metrics.cells_filled_by_llm;
                    let expected = setup.truth.execute(&case.sql)?;
                    if !same_rows(&result.batch, &expected.batch, case.order_sensitive) {
                        out.fail(WRONG_ROWS);
                    }
                }
                Op::Write(index, _) => {
                    let absent = &setup.pool[index];
                    let truth = setup.truth.catalog().table(&absent.key.table)?;
                    truth.insert(absent.row.clone())?;
                    setup.keys.push(absent.key.clone());
                    if result.rows_affected != 1 {
                        out.fail(WRONG_ROWS);
                    }
                }
            }
        }
    }
    Ok(p)
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
    let mut setup = setup.expect("at least one set-up");
    let rounds = args.rounds(MIN_ROUNDS, ROUNDS_PER_SECOND);

    let mut out = Outcome::default();
    let untraced = pass(&mut setup, args.seed, rounds, &stats, None, &mut out)?;
    let qps = untraced.tally.queries_per_s();
    untraced.tally.end_to_end(&mut out, median(&setup_s), qps);
    if args.trace {
        // The traced pass writes too, so it starts from a fresh store.
        let mut fresh = set_up(args.seed, &stats)?;
        let tracer = Tracer::new();
        stats.start_tracing(&tracer);
        let mut traced_out = Outcome::default();
        let traced = pass(
            &mut fresh,
            args.seed,
            rounds,
            &stats,
            Some(&tracer),
            &mut traced_out,
        )?;
        let client = fresh.engine.client().expect("model attached");
        traced.tally.layer_counters(&mut out, client.cache_len());
        layer_times(&mut out, &tracer, &traced.tally, &untraced.tally);
        let (insert_ns, inserts) = tracer.total("store.insert");
        out.set(
            "store.insert_us_per_write",
            ratio(insert_ns as f64 / 1e3, inserts as f64),
        );
        let reads = traced.reads as f64;
        out.set(
            "store.rows_scanned_per_read",
            ratio(traced.rows_from_store as f64, reads),
        );
        out.set(
            "store.cells_filled_per_read",
            ratio(traced.cells_filled as f64, reads),
        );
        args.write_trace(&tracer);
    }
    Ok(out)
}
