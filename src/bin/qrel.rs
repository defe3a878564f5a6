//! `qrel` — command-line interface for query reliability.
//!
//! ```text
//! qrel check       --db spec.json
//! qrel worlds      --db spec.json [--limit N]
//! qrel probability --db spec.json --query "exists x. S(x)"
//!                  [--method M] [--eps E] [--delta D] [--seed S]
//! qrel reliability --db spec.json --query "S(x)" [--free x,y]
//!                  [--method M]
//!                  [--timeout-ms T] [--max-worlds N] [--max-samples N] [--max-terms N]
//!                  [--eps E] [--delta D] [--seed S] [--threads T]
//! qrel explain     --query "exists x. S(x)" [--free x,y]
//! qrel serve       [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!                  [--cache-mb MB] [--preload spec.json,spec2.json]
//!                  [--store DIR]
//! qrel store       init    --dir DIR
//!                  ingest  --dir DIR --dataset NAME --db spec.json
//!                  dump    --dir DIR --dataset NAME
//!                  compact --dir DIR [--dataset NAME]
//! qrel fuzz        [--seeds N] [--budget-ms M] [--start-seed S]
//!                  [--eps E] [--delta D] [--corpus DIR] [--families f1,f2]
//!                  [--sample true|false] [--serve true|false]
//!                  [--chaos true|false] [--chaos-pairs N] [--chaos-timeout-ms T]
//! qrel example-spec
//! qrel version
//! ```
//!
//! `qrel help` lists each command's method names `M`. The database spec
//! format is documented in `qrel::prob::spec` (see `qrel example-spec`
//! for a starter file).
//!
//! Exit codes for `reliability`: `0` = the answer carries the strongest
//! guarantee the requested method offers (exact for `auto`), `2` = the
//! solver degraded — an approximate or partial answer under `auto`, or a
//! budget trip — and `1` = hard failure (bad spec, bad query, no method
//! produced any estimate).

use qrel::prelude::*;
use qrel::prob::UnreliableDatabaseSpec;
use qrel::store::DecodedSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::process::ExitCode;
use std::time::Duration;

/// Exit code for a degraded (approximate or partial) answer — distinct
/// from `1`, which signals hard failure.
const EXIT_DEGRADED: u8 = 2;

/// The methods `qrel probability` runs on a Boolean query.
const PROBABILITY_METHODS: [Method; 3] = [Method::Exact, Method::Fptras, Method::Padding];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `qrel help` for usage");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    flags: HashMap<String, String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
            i += 2;
        }
        Ok(Options { flags })
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} expects a number")),
        }
    }

    /// `--eps` / `--delta`, held to the serve protocol's rule (ε positive
    /// and finite, δ ∈ (0, 1)) so a bad value is a usage error rather
    /// than an engine's assertion panic.
    fn accuracy(&self, default_eps: f64, default_delta: f64) -> Result<(f64, f64), String> {
        let eps = self.get_f64("eps", default_eps)?;
        let delta = self.get_f64("delta", default_delta)?;
        if !(eps > 0.0 && eps.is_finite()) {
            return Err("--eps must be a positive finite number".into());
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err("--delta must be in (0, 1)".into());
        }
        Ok((eps, delta))
    }

    fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects an integer")),
        }
    }
}

fn load_spec(path: &str) -> Result<UnreliableDatabase, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let spec = DecodedSpec::parse(&text).map_err(|e| format!("bad spec JSON: {e}"))?;
    spec.build().map_err(|e| format!("invalid spec: {e}"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        print_help();
        return Ok(ExitCode::SUCCESS);
    };
    // `store` carries its own action word (`store init --dir …`), so it
    // dispatches before the flag parser sees the non-flag argument.
    if command == "store" {
        return cmd_store(&args[1..]);
    }
    let opts = Options::parse(&args[1..])?;
    match command.as_str() {
        "help" | "--help" | "-h" => {
            print_help();
            Ok(ExitCode::SUCCESS)
        }
        "example-spec" => {
            print_example_spec();
            Ok(ExitCode::SUCCESS)
        }
        "version" | "--version" | "-V" => {
            print_version();
            Ok(ExitCode::SUCCESS)
        }
        "serve" => cmd_serve(&opts),
        "fuzz" => cmd_fuzz(&opts),
        "check" => cmd_check(&opts).map(|()| ExitCode::SUCCESS),
        "worlds" => cmd_worlds(&opts).map(|()| ExitCode::SUCCESS),
        "probability" => cmd_probability(&opts).map(|()| ExitCode::SUCCESS),
        "reliability" => cmd_reliability(&opts),
        "explain" => cmd_explain(&opts),
        "marginals" => cmd_marginals(&opts).map(|()| ExitCode::SUCCESS),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn print_help() {
    println!(
        "qrel — query reliability on unreliable databases \
         (Grädel/Gurevich/Hirsch, PODS 1998)\n\n\
         commands:\n\
         \x20 check        --db spec.json\n\
         \x20 worlds       --db spec.json [--limit N]\n\
         \x20 probability  --db spec.json --query Q [--method {probability_methods}]\n\
         \x20              [--eps E] [--delta D] [--seed S]\n\
         \x20 reliability  --db spec.json --query Q [--free x,y]\n\
         \x20              [--method {methods}]\n\
         \x20              [--timeout-ms T] [--max-worlds N] [--max-samples N] [--max-terms N]\n\
         \x20              [--eps E] [--delta D] [--seed S] [--threads T] [--json true]\n\
         \x20              (--threads never changes the answer: fixed shard count,\n\
         \x20               per-shard seed-split RNGs; --json true prints the exact\n\
         \x20               wire body POST /v1/solve would return, errors included)\n\
         \x20 marginals    --db spec.json --query Q [--free x,y]\n\
         \x20 explain      --query Q [--free x,y]\n\
         \x20              (print the extensional safe plan the compiler would\n\
         \x20               run, or the reason the query is outside the safe\n\
         \x20               class; exit 2 when unsafe)\n\
         \x20 serve        [--addr HOST:PORT] [--workers N] [--queue-cap N]\n\
         \x20              [--sched-workers N] [--tenant-cap N] [--reserved-workers N]\n\
         \x20              [--job-retain N] [--cache-mb MB] [--preload spec.json,spec2.json]\n\
         \x20              [--shutdown-grace-ms T] [--self-heal true|false]\n\
         \x20              [--breaker-threshold N] [--watchdog-ms T] [--store DIR]\n\
         \x20              (exit 3 when the shutdown drain had to force-cancel work;\n\
         \x20               --store serves a persistent store and enables the\n\
         \x20               /v1/datasets mutation API)\n\
         \x20 store        init    --dir DIR\n\
         \x20              ingest  --dir DIR --dataset NAME --db spec.json\n\
         \x20              dump    --dir DIR --dataset NAME\n\
         \x20              compact --dir DIR [--dataset NAME]\n\
         \x20              (durable on-disk datasets: checksummed columnar segments,\n\
         \x20               crash-safe commits, incremental db-hash)\n\
         \x20 fuzz         [--seeds N] [--budget-ms M] [--start-seed S]\n\
         \x20              [--eps E] [--delta D] [--corpus DIR] [--families f1,f2]\n\
         \x20              [--sample true|false] [--serve true|false]\n\
         \x20              [--chaos true|false] [--chaos-pairs N] [--chaos-timeout-ms T]\n\
         \x20              (differential+metamorphic oracle across every engine;\n\
         \x20               --chaos round-trips pairs with a seeded fault plan armed\n\
         \x20               and asserts the fail-closed invariant;\n\
         \x20               exit 1 + shrunk repro path on any discrepancy)\n\
         \x20 example-spec\n\
         \x20 version\n\n\
         reliability exit codes: 0 = full-guarantee answer, \
         2 = degraded (approximate/partial), 1 = hard failure\n",
        probability_methods = PROBABILITY_METHODS.map(Method::name).join("|"),
        methods = Method::names(),
    );
}

fn print_version() {
    // The build script is free to inject a hash via QREL_GIT_HASH; a
    // plain `cargo build` prints only the crate version.
    match option_env!("QREL_GIT_HASH") {
        Some(hash) => println!("qrel {} ({hash})", env!("CARGO_PKG_VERSION")),
        None => println!("qrel {}", env!("CARGO_PKG_VERSION")),
    }
}

fn cmd_serve(opts: &Options) -> Result<ExitCode, String> {
    let mut config = qrel::serve::ServerConfig::default();
    if let Some(addr) = opts.get("addr") {
        config.addr = addr.to_string();
    }
    config.workers = opts.get_u64("workers", config.workers as u64)?.max(1) as usize;
    config.queue_cap = opts.get_u64("queue-cap", config.queue_cap as u64)?.max(1) as usize;
    config.sched_workers = opts.get_u64("sched-workers", config.sched_workers as u64)? as usize;
    config.per_tenant_cap = opts
        .get_u64("tenant-cap", config.per_tenant_cap as u64)?
        .max(1) as usize;
    config.reserved_workers =
        opts.get_u64("reserved-workers", config.reserved_workers as u64)? as usize;
    config.job_retain_cap = opts
        .get_u64("job-retain", config.job_retain_cap as u64)?
        .max(1) as usize;
    let default_mb = (config.cache_bytes / (1024 * 1024)) as u64;
    config.cache_bytes = opts.get_u64("cache-mb", default_mb)? as usize * 1024 * 1024;
    if let Some(list) = opts.get("preload") {
        config.preload = list
            .split(',')
            .map(|p| std::path::PathBuf::from(p.trim()))
            .collect();
    }
    if let Some(dir) = opts.get("store") {
        config.store = Some(std::path::PathBuf::from(dir));
    }
    let grace_ms = opts.get_u64(
        "shutdown-grace-ms",
        config.shutdown_grace.as_millis() as u64,
    )?;
    config.shutdown_grace = std::time::Duration::from_millis(grace_ms);
    config.self_heal = parse_bool(opts, "self-heal", config.self_heal)?;
    config.breaker_threshold =
        opts.get_u64("breaker-threshold", config.breaker_threshold as u64)? as u32;
    let watchdog_ms = opts.get_u64("watchdog-ms", config.watchdog_period.as_millis() as u64)?;
    config.watchdog_period = std::time::Duration::from_millis(watchdog_ms);
    qrel::serve::install_shutdown_signals();
    let server = qrel::serve::Server::bind(config).map_err(|e| e.to_string())?;
    println!("qrel-serve listening on http://{}", server.local_addr());
    let names = server.dataset_names();
    if !names.is_empty() {
        println!("preloaded datasets: {}", names.join(", "));
    }
    println!(
        "endpoints: POST /v1/jobs, GET /v1/jobs, GET /v1/jobs/{{id}}, \
         GET /v1/jobs/{{id}}/result, DELETE /v1/jobs/{{id}}, \
         POST /v1/solve, GET /v1/datasets, \
         POST|DELETE /v1/datasets/{{name}}/facts, GET /healthz, GET /metrics"
    );
    let report = server.run().map_err(|e| e.to_string())?;
    if report.forced {
        // Forced drain: grace expired or the watchdog shot in-flight
        // work while draining. Distinguishable from a clean exit.
        eprintln!(
            "drain was forced ({} watchdog cancels)",
            report.watchdog_cancels
        );
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_store(args: &[String]) -> Result<ExitCode, String> {
    use qrel::store::Store;
    let Some(action) = args.first() else {
        return Err("store needs an action: init | ingest | dump | compact".into());
    };
    let opts = Options::parse(&args[1..])?;
    let dir = std::path::PathBuf::from(opts.required("dir")?);
    match action.as_str() {
        "init" => {
            Store::init(&dir).map_err(|e| e.to_string())?;
            println!("initialised empty store at {}", dir.display());
        }
        "ingest" => {
            let mut store = Store::open(&dir).map_err(|e| e.to_string())?;
            let name = opts.required("dataset")?;
            let path = opts.required("db")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
            let spec: UnreliableDatabaseSpec =
                serde_json::from_str(&text).map_err(|e| format!("bad spec JSON: {e}"))?;
            let stats = store.ingest_spec(name, &spec).map_err(|e| e.to_string())?;
            println!(
                "ingested {name:?}: {} rows, {} live facts, db-hash {:016x} ({}ms)",
                stats.rows, stats.live_facts, stats.db_hash, stats.elapsed_ms
            );
        }
        "dump" => {
            let store = Store::open(&dir).map_err(|e| e.to_string())?;
            let name = opts.required("dataset")?;
            let mut ds = store.load(name).map_err(|e| e.to_string())?;
            let spec = ds.dump_spec().map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string_pretty(&spec).expect("spec serializes")
            );
        }
        "compact" => {
            let mut store = Store::open(&dir).map_err(|e| e.to_string())?;
            let names = match opts.get("dataset") {
                Some(one) => vec![one.to_string()],
                None => store.dataset_names(),
            };
            for name in names {
                let stats = store.compact(&name).map_err(|e| e.to_string())?;
                println!(
                    "compacted {name:?}: {} live rows, db-hash {:016x} ({}ms)",
                    stats.rows, stats.db_hash, stats.elapsed_ms
                );
            }
        }
        other => {
            return Err(format!(
                "unknown store action {other:?} (init | ingest | dump | compact)"
            ))
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn parse_bool(opts: &Options, name: &str, default: bool) -> Result<bool, String> {
    match opts.get(name) {
        None => Ok(default),
        Some("true") => Ok(true),
        Some("false") => Ok(false),
        Some(other) => Err(format!("--{name} expects true or false, got {other:?}")),
    }
}

fn cmd_fuzz(opts: &Options) -> Result<ExitCode, String> {
    use qrel::oracle::{run_fuzz, serve_round_trip, FuzzConfig, FAMILIES};

    let families: Vec<String> = match opts.get("families") {
        None => FAMILIES.iter().map(|s| s.to_string()).collect(),
        Some(list) => {
            let picked: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
            for f in &picked {
                if !FAMILIES.contains(&f.as_str()) {
                    return Err(format!("unknown family {f:?} (available: {FAMILIES:?})"));
                }
            }
            picked
        }
    };
    let (eps, delta) = opts.accuracy(0.25, 0.2)?;
    let cfg = FuzzConfig {
        seeds: opts.get_u64("seeds", 200)?,
        start_seed: opts.get_u64("start-seed", 1)?,
        budget_ms: opts
            .get("budget-ms")
            .map(|_| opts.get_u64("budget-ms", 0))
            .transpose()?,
        eps,
        delta,
        corpus_dir: Some(std::path::PathBuf::from(
            opts.get("corpus").unwrap_or("tests/corpus"),
        )),
        families,
        sample: parse_bool(opts, "sample", true)?,
    };
    let report = run_fuzz(&cfg);
    print!("{}", report.summary());

    let mut clean = report.clean();
    if parse_bool(opts, "serve", false)? {
        // Round-trip a capped slice of the same seed range through a
        // live POST /v1/solve and demand HTTP ≡ library bit-equality.
        let cap = cfg.seeds.min(32);
        let cases: Vec<qrel::oracle::FuzzCase> = (0..cap)
            .map(|i| {
                let family = &cfg.families[(i % cfg.families.len() as u64) as usize];
                qrel::oracle::generate(cfg.start_seed + i, family)
            })
            .filter(|c| c.db.is_some())
            .collect();
        let serve = serve_round_trip(&cases)?;
        println!(
            "serve round-trip: {} cases, {} mismatches",
            serve.cases,
            serve.mismatches.len()
        );
        for m in &serve.mismatches {
            println!("  DISCREPANCY [{}] {}", m.check, m.detail);
            clean = false;
        }
    }

    if parse_bool(opts, "chaos", false)? {
        // Chaos mode: same round trip, but with a seeded fault plan
        // armed per pair. The server must stay fail-closed: bit-identical
        // answers or explicitly tagged degradation/errors, and no request
        // outliving its deadline past the watchdog + injected stalls.
        let chaos_cfg = qrel::oracle::ChaosConfig {
            pairs: opts.get_u64("chaos-pairs", 500)?,
            start_seed: cfg.start_seed,
            timeout_ms: opts.get_u64("chaos-timeout-ms", 2_000)?,
            corpus_dir: cfg.corpus_dir.clone(),
        };
        let chaos = qrel::oracle::run_chaos(&chaos_cfg);
        println!(
            "chaos: {} (case, plan) pairs, {} violations",
            chaos.pairs,
            chaos.violations.len()
        );
        for v in &chaos.violations {
            println!("  VIOLATION [{}] {}", v.kind, v.detail);
            println!("    plan: {}", v.plan.to_json());
            if let Some(p) = &v.path {
                println!("    repro: {}", p.display());
            }
            clean = false;
        }
    }

    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_example_spec() {
    let db = DatabaseBuilder::new()
        .universe_names(["alice", "bob", "carol"])
        .relation("Knows", 2)
        .relation("Admin", 1)
        .tuples("Knows", [vec![0, 1], vec![1, 2]])
        .tuples("Admin", [vec![0]])
        .build();
    let mut ud = UnreliableDatabase::reliable(db);
    ud.set_error(&Fact::new(0, vec![1, 2]), BigRational::from_ratio(1, 10))
        .unwrap();
    ud.set_error(&Fact::new(1, vec![2]), BigRational::from_ratio(1, 4))
        .unwrap();
    let spec = UnreliableDatabaseSpec::from_model(&ud);
    println!("{}", serde_json::to_string_pretty(&spec).unwrap());
}

fn cmd_check(opts: &Options) -> Result<(), String> {
    let ud = load_spec(opts.required("db")?)?;
    println!("spec OK");
    println!("universe size: {}", ud.size());
    println!(
        "relations: {}",
        ud.observed()
            .vocabulary()
            .symbols()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("stored tuples: {}", ud.observed().tuple_count());
    println!("atomic facts: {}", ud.indexer().total());
    let u = ud.uncertain_facts().len();
    println!("uncertain facts: {u}");
    match ud.world_count() {
        Some(w) => println!("possible worlds: {w}"),
        None => println!("possible worlds: 2^{u} (beyond u64)"),
    }
    Ok(())
}

/// A world ranked by probability, ordered for the bounded min-heap in
/// [`cmd_worlds`] (ties broken toward keeping the earliest world).
struct RankedWorld {
    p: BigRational,
    seq: u64,
    world: Database,
}

impl PartialEq for RankedWorld {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for RankedWorld {}
impl PartialOrd for RankedWorld {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RankedWorld {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lower probability = "greater" so BinaryHeap pops the weakest
        // survivor first; among equals, evict the later world.
        other.p.cmp(&self.p).then(self.seq.cmp(&other.seq))
    }
}

fn cmd_worlds(opts: &Options) -> Result<(), String> {
    let ud = load_spec(opts.required("db")?)?;
    let limit = opts.get_u64("limit", 16)? as usize;
    let u = ud.uncertain_facts().len();
    if u > 20 {
        return Err(format!(
            "{u} uncertain facts — enumeration would not fit; ≤ 20 supported"
        ));
    }
    // Stream the worlds through a bounded min-heap: memory is O(limit),
    // not O(2^u), so `--limit 5` on a 20-fact spec never materialises a
    // million world structs.
    let mut heap: BinaryHeap<RankedWorld> = BinaryHeap::with_capacity(limit + 1);
    let mut total = 0u64;
    for (world, p) in ud.worlds() {
        let seq = total;
        total += 1;
        if heap.len() == limit {
            // Cheap pre-check: skip the clone when this world cannot
            // enter the top-`limit`.
            if let Some(weakest) = heap.peek() {
                if p <= weakest.p {
                    continue;
                }
            }
        }
        heap.push(RankedWorld { p, seq, world });
        if heap.len() > limit {
            heap.pop();
        }
    }
    let mut top = heap.into_vec();
    top.sort_by(|a, b| b.p.cmp(&a.p).then(a.seq.cmp(&b.seq)));
    println!("{total} worlds (showing up to {limit}, most probable first):\n");
    for (i, ranked) in top.iter().enumerate() {
        println!(
            "world #{i}: probability {} (≈ {:.6})",
            ranked.p,
            ranked.p.to_f64()
        );
        println!("{}", ranked.world);
    }
    Ok(())
}

fn parse_query(opts: &Options) -> Result<(Formula, Vec<String>), String> {
    let src = opts.required("query")?;
    let f = parse_formula(src).map_err(|e| e.to_string())?;
    let free = match opts.get("free") {
        Some(spec) => spec.split(',').map(|s| s.trim().to_string()).collect(),
        None => f.free_vars(),
    };
    {
        let mut sorted: Vec<String> = free.clone();
        sorted.sort();
        if sorted != f.free_vars() {
            return Err(format!(
                "--free {:?} does not match the query's free variables {:?}",
                free,
                f.free_vars()
            ));
        }
    }
    Ok((f, free))
}

fn cmd_probability(opts: &Options) -> Result<(), String> {
    let ud = load_spec(opts.required("db")?)?;
    let (f, free) = parse_query(opts)?;
    if !free.is_empty() {
        return Err("probability requires a Boolean query (no free variables)".into());
    }
    let method_name = opts.get("method").unwrap_or("exact");
    let names = PROBABILITY_METHODS.map(Method::name).join("|");
    let method = Method::parse(method_name)
        .filter(|m| PROBABILITY_METHODS.contains(m))
        .ok_or_else(|| format!("unknown method {method_name:?} ({names})"))?;
    let (eps, delta) = opts.accuracy(0.05, 0.05)?;
    let seed = opts.get_u64("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let q = FoQuery::new(f.clone());
    let observed = q.eval_sentence(ud.observed()).map_err(|e| e.to_string())?;
    println!("observed answer: {observed}");
    match method {
        Method::Exact => {
            let p = exact_probability(&ud, &q).map_err(|e| e.to_string())?;
            println!("Pr[𝔅 ⊨ ψ] = {p} (≈ {:.6})", p.to_f64());
        }
        Method::Fptras => {
            let est = existential_probability_fptras(&ud, &f, eps, delta, Route::Direct, &mut rng)
                .map_err(|e| e.to_string())?;
            println!("Pr[𝔅 ⊨ ψ] ≈ {est:.6}   (FPTRAS, ε = {eps}, δ = {delta})");
        }
        Method::Padding => {
            let est = PaddingEstimator::default_xi();
            let rep = est
                .estimate_probability(&ud, &q, eps, delta, &mut rng)
                .map_err(|e| e.to_string())?;
            println!(
                "Pr[𝔅 ⊨ ψ] ≈ {:.6}   (Thm 5.12 padding, {} samples)",
                rep.estimate, rep.samples
            );
        }
        other => unreachable!("{other} is not in PROBABILITY_METHODS"),
    }
    Ok(())
}

/// `qrel explain`: compile (or decline) the query and print the plan
/// tree. Purely symbolic — no database needed; the plan depends only on
/// the query's shape. Exit 0 with the tree when safe, exit 2 with the
/// decline reason when provably unsafe (mirroring the degraded-answer
/// code: the query is still solvable, just not extensionally).
fn cmd_explain(opts: &Options) -> Result<ExitCode, String> {
    let (f, free) = parse_query(opts)?;
    match qrel::plan::compile(&f) {
        Ok(plan) => {
            println!("safe plan ({} nodes) for {f}", plan.node_count());
            if !free.is_empty() {
                println!("free variables: {}", free.join(", "));
            }
            println!("{plan}");
            Ok(ExitCode::SUCCESS)
        }
        Err(reason) => {
            println!("no safe plan for {f}");
            println!("reason: {reason}");
            println!("(Method::Auto falls back to the enumeration/sampling ladder)");
            Ok(ExitCode::from(EXIT_DEGRADED))
        }
    }
}

fn cmd_marginals(opts: &Options) -> Result<(), String> {
    let ud = load_spec(opts.required("db")?)?;
    let (f, free) = parse_query(opts)?;
    let q = FoQuery::with_free_order(f, free);
    let marginals = qrel::core::exact::answer_marginals(&ud, &q).map_err(|e| e.to_string())?;
    let observed = q.answers(ud.observed()).map_err(|e| e.to_string())?;
    println!("tuple marginals Pr[ā ∈ ψ^𝔅] (exact):");
    for (t, m) in marginals {
        if m.is_zero() {
            continue;
        }
        let names: Vec<&str> = t
            .iter()
            .map(|&e| ud.observed().universe().name(e))
            .collect();
        let mark = if observed.contains(&t) {
            "∈ ψ^𝔄"
        } else {
            "∉ ψ^𝔄"
        };
        println!("  ({}) {mark}: {m} (≈ {:.6})", names.join(", "), m.to_f64());
    }
    Ok(())
}

/// Assemble the [`Budget`] from `--timeout-ms` / `--max-worlds` /
/// `--max-samples` / `--max-terms`.
fn build_budget(opts: &Options) -> Result<Budget, String> {
    let mut budget = Budget::unlimited();
    if let Some(ms) = opts.get("timeout-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| "--timeout-ms expects milliseconds".to_string())?;
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(n) = opts.get("max-worlds") {
        let n: u64 = n
            .parse()
            .map_err(|_| "--max-worlds expects an integer".to_string())?;
        budget = budget.with_max_worlds(n);
    }
    if let Some(n) = opts.get("max-samples") {
        let n: u64 = n
            .parse()
            .map_err(|_| "--max-samples expects an integer".to_string())?;
        budget = budget.with_max_samples(n);
    }
    if let Some(n) = opts.get("max-terms") {
        let n: u64 = n
            .parse()
            .map_err(|_| "--max-terms expects an integer".to_string())?;
        budget = budget.with_max_terms(n);
    }
    Ok(budget)
}

fn cmd_reliability(opts: &Options) -> Result<ExitCode, String> {
    let ud = load_spec(opts.required("db")?)?;
    let (f, free) = parse_query(opts)?;
    let method_name = opts.get("method").unwrap_or("auto");
    let method = Method::parse(method_name)
        .ok_or_else(|| format!("unknown method {method_name:?} ({})", Method::names()))?;
    let (eps, delta) = opts.accuracy(0.05, 0.05)?;
    let seed = opts.get_u64("seed", 0)?;
    let budget = build_budget(opts)?;
    let mut solver = Solver::new()
        .with_method(method)
        .with_accuracy(eps, delta)
        .with_seed(seed);
    if let Some(t) = opts.get("threads") {
        let t: usize = t
            .parse()
            .ok()
            .filter(|&t| t > 0)
            .ok_or_else(|| "--threads expects a positive integer".to_string())?;
        solver = solver.with_threads(t);
    }
    let q = FoQuery::with_free_order(f, free);
    let json = parse_bool(opts, "json", false)?;
    let report = match solver.solve(&ud, &q, &budget) {
        Ok(r) => r,
        Err(e) => {
            if json {
                // Same failure, same wire shape: the envelope the HTTP
                // solve endpoint would attach to its 422.
                let body = qrel::serve::error_body(422, &e.to_string(), None);
                println!("{}", String::from_utf8(body).expect("envelope is UTF-8"));
                return Ok(ExitCode::FAILURE);
            }
            return Err(e.to_string());
        }
    };

    if json {
        // One serializer for every surface: this is byte-for-byte the
        // body `POST /v1/solve` (and a job result fetch) returns for
        // the same request, so scripts can switch transports freely.
        let body = qrel::serve::solve_response_body(&report);
        println!("{}", String::from_utf8(body).expect("report body is UTF-8"));
        let degraded = report.is_degraded()
            || (method == Method::Auto && !matches!(report.confidence, Confidence::Exact));
        return Ok(if degraded {
            ExitCode::from(EXIT_DEGRADED)
        } else {
            ExitCode::SUCCESS
        });
    }

    match (&report.exact, report.bounds) {
        (Some(r), _) => {
            println!("R_ψ = {} (≈ {:.6})", r, r.to_f64());
        }
        (None, Some((lo, hi))) => {
            println!(
                "R_ψ ≈ {:.6}   (bounded: {lo:.6} ≤ R_ψ ≤ {hi:.6})",
                report.reliability
            );
        }
        (None, None) => {
            println!("R_ψ ≈ {:.6}", report.reliability);
        }
    }
    println!(
        "method: {}   confidence: {}",
        report.method, report.confidence
    );
    println!("trace: {}", report.trace_line());
    println!(
        "spent: {} worlds, {} samples, {} DNF terms, {}ms",
        report.worlds,
        report.samples,
        report.terms,
        report.elapsed.as_millis()
    );

    // Under `auto` the strongest possible answer is the exact rational,
    // so anything approximate counts as degraded; an explicit sampling
    // method that delivered its (ε, δ) guarantee is what was asked for.
    let degraded = report.is_degraded()
        || (method == Method::Auto && !matches!(report.confidence, Confidence::Exact));
    Ok(if degraded {
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    })
}
