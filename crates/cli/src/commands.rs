//! The CLI subcommands: one flag table each, and a function that takes the
//! checked flags and returns the report as a string (so the logic is
//! unit-testable without capturing stdout).

use std::ops::Bound::{Excluded, Included, Unbounded};

use fafnir_baselines::{CoreModel, NoNdpEngine, RecNmpEngine, TensorDimmEngine};
use fafnir_core::json::{Layout::Compact, Object};
use fafnir_core::model::report::DeploymentSummary;
use fafnir_core::{Batch, FafnirConfig, FafnirEngine, GatherEngine, PeTiming, StripedSource};
use fafnir_mem::{MemoryConfig, MemoryModelKind};
use fafnir_serve::FaultSpec;
use fafnir_sparse::{fafnir_spmv, gen, mtx, two_step, LilMatrix, SpmvTiming};
use fafnir_workloads::query::{BatchGenerator, Popularity};
use fafnir_workloads::trace::QueryTrace;

use crate::args::Kind::{self, Choice, Count, Number, Switch, Text};
use crate::args::{flag, number, usage, ArgError, Args, Command, Flag, Range};

const ANY: Kind = Count(0, u64::MAX);
const NONZERO: Kind = Count(1, u64::MAX);
const U32_MAX: u64 = u32::MAX as u64;
const AT_LEAST_ZERO: Range = (Included(0.0), Unbounded);
const NON_NEGATIVE: Kind = Number(AT_LEAST_ZERO);
const POSITIVE: Kind = Number((Excluded(0.0), Unbounded));
const FRACTION: Kind = Number((Included(0.0), Included(1.0)));
const NONZERO_FRACTION: Kind = Number((Excluded(0.0), Included(1.0)));

/// Upper bounds of the count flags that size a run's memory or length.
/// Each lies far above any figure's or test's use, and no allocation a
/// run sizes by one of them can overflow a capacity; spmv's grid
/// factorization of `--ranks` takes at most 256 steps. `--query-len` is
/// 64 times the engines' header limit of 16 indices, which rejects any
/// longer query; `trace --record` alone writes such queries.
const MAX_BATCH: u64 = 1 << 16;
const MAX_BATCHES: u64 = 1 << 16;
const MAX_QUERIES: u64 = 1 << 22;
const MAX_WORKERS: u64 = 1 << 12;
const MAX_SHARDS: u64 = 1 << 10;
const MAX_NNZ: u64 = 1 << 26;
const MAX_SPMV_RANKS: u64 = 1 << 16;
const MAX_QUERY_LEN: u64 = 1 << 10;

const SEED: Flag = flag("seed", ANY, Some("7"), "random seed");
const SKEW: Flag = flag("skew", NON_NEGATIVE, Some("1.15"), "Zipf exponent; 0 draws uniformly");
const UNIVERSE: Flag = flag("universe", Count(1, U32_MAX), Some("2000"), "embedding rows");
const QUERY_LEN: Flag = flag("query-len", Count(1, MAX_QUERY_LEN), Some("16"), "indices per query");
const BATCH: Flag = flag("batch", Count(1, MAX_BATCH), Some("32"), "queries per batch");
const RANKS: Flag = flag("ranks", Count(1, 64), Some("32"), "memory ranks, a power of two");
const RATIO: Flag =
    flag("ratio", NONZERO, Some("2"), "ranks per leaf PE, a power of two <= --ranks");
const JSON: Flag = flag("json", Switch, None, "print JSON instead of a table");

/// Traffic: the query generator, built by [`traffic`].
const TRAFFIC: &[Flag] = &[SKEW, UNIVERSE, QUERY_LEN, SEED];

/// Engine: the reduction and memory model, read by [`engine_setup`].
const ENGINE: &[Flag] = &[
    flag("op", Text("sum|mean|max|min|argmax|topk:K"), Some("sum"), "reduction operator"),
    flag("memory-model", Choice(&["cycle", "fast"]), Some("cycle"), "DRAM timing model"),
    flag("no-dedup", Switch, None, "read every reference: no batch deduplication"),
];

/// Serving: open-loop load on replicated workers.
const SERVING: &[Flag] = &[
    flag("rate", POSITIVE, Some("1e6"), "offered load in queries/s"),
    flag("workers", Count(1, MAX_WORKERS), Some("4"), "accelerator replicas"),
    flag("duration-queries", Count(1, MAX_QUERIES), Some("512"), "queries to simulate"),
];

const LOOKUP: &[Flag] = &[
    BATCH,
    RANKS,
    flag(
        "engine",
        Choice(&["fafnir", "recnmp", "tensordimm", "no-ndp", "all"]),
        Some("all"),
        "engines to run",
    ),
    flag("interactive", Switch, None, "FAFNIR serves one query per hardware batch"),
    flag("refresh", Switch, None, "model DRAM refresh"),
];

const SERVE: &[Flag] = &[
    flag("process", Choice(&["poisson", "onoff"]), Some("poisson"), "arrival process"),
    flag("policy", Choice(&["size", "deadline", "adaptive"]), Some("adaptive"), "batching"),
    BATCH,
    flag("max-wait-ns", NON_NEGATIVE, Some("500000"), "longest batching wait"),
    flag("queue-capacity", NONZERO, Some("1024"), "admission queue bound"),
    flag("shed", Choice(&["drop-newest", "drop-oldest"]), Some("drop-newest"), "on a full queue"),
    flag("faults", Text(FaultSpec::GRAMMAR), Some("none"), "fault plan"),
    flag("timeout-ns", POSITIVE, None, "per-batch dispatch timeout (off)"),
    flag("retries", Count(0, U32_MAX), Some("0"), "retries per failed batch"),
    flag("backoff-ns", NON_NEGATIVE, Some("1000"), "base retry backoff"),
    flag("hedge-ns", NON_NEGATIVE, None, "hedge a batch still running after this (off)"),
    flag("sweep-windows", Text("W1,W2,..."), None, "one deadline-policy scenario per window"),
    JSON,
];

const CLUSTER: &[Flag] = &[
    flag("shards", Count(1, MAX_SHARDS), Some("4"), "reduction trees"),
    flag("strategy", Choice(&["tablewise", "rowhash", "rowrange"]), Some("rowrange"), "sharding"),
    flag("rows-per-table", Count(1, U32_MAX), Some("250"), "table size for tablewise"),
    flag("replicate-hot", FRACTION, Some("0"), "share of hottest rows on every shard"),
    flag("router", Choice(&["roundrobin", "leastloaded"]), Some("roundrobin"), "replica choice"),
    JSON,
];

const SPMV: &[Flag] = &[
    flag("gen", Choice(&["uniform", "rmat", "banded", "spd"]), Some("rmat"), "matrix generator"),
    flag("rows", Count(1, mtx::MAX_DIMENSION as u64), Some("4096"), "matrix rows"),
    flag("density", NONZERO_FRACTION, Some("0.01"), "uniform: share of non-zeros"),
    flag("nnz", Count(0, MAX_NNZ), None, "rmat: edge draws, repeats summed (rows*8)"),
    flag("bandwidth", Count(0, mtx::MAX_DIMENSION as u64), Some("4"), "banded/spd: band width"),
    flag("vector-size", Count(2, u64::MAX), Some("2048"), "tree input vector size"),
    flag("mtx", Text("FILE"), None, "load Matrix Market input"),
    SEED,
    flag("partition", Choice(&["row", "nnz", "col", "grid"]), None, "split over ranks (off)"),
    flag("ranks", Count(1, MAX_SPMV_RANKS), Some("8"), "ranks for --partition"),
    JSON,
];

const TRACE: &[Flag] = &[
    flag("record", Count(0, MAX_QUERIES), None, "write N queries to stdout as text"),
    flag("stats", Text("FILE"), None, "reuse statistics of a trace file"),
    flag("distances", Text("FILE"), None, "reuse distances and LRU hit rates of a trace file"),
];

/// Every subcommand, in usage order; `fafnir` dispatches over this table.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "lookup",
        summary: "run an embedding-lookup batch through the engines",
        flags: &[LOOKUP, TRAFFIC, ENGINE],
        run: lookup,
    },
    Command {
        name: "serve",
        summary: "simulate an online lookup service in virtual time",
        flags: &[SERVING, SERVE, TRAFFIC, ENGINE],
        run: serve,
    },
    Command {
        name: "cluster",
        summary: "serve against a sharded multi-tree cluster",
        flags: &[CLUSTER, SERVING, TRAFFIC, ENGINE],
        run: cluster,
    },
    Command {
        name: "spmv",
        summary: "run y = A·x on FAFNIR and the Two-Step baseline",
        flags: &[SPMV],
        run: spmv,
    },
    Command {
        name: "report",
        summary: "print the deployment summary",
        flags: &[&[RANKS, RATIO, flag("cores", Count(0, U32_MAX), Some("4"), "host cores")]],
        run: report,
    },
    Command {
        name: "trace",
        summary: "record or characterize query traces",
        flags: &[TRACE, TRAFFIC],
        run: trace,
    },
    Command {
        name: "anatomy",
        summary: "draw one batch's PE waterfall through the reduction tree",
        flags: &[&[
            Flag { default: Some("4"), ..BATCH },
            Flag { default: Some("8"), ..QUERY_LEN },
            Flag { default: Some("8"), ..RANKS },
            SKEW,
            UNIVERSE,
            SEED,
        ]],
        run: anatomy,
    },
    Command {
        name: "energy",
        summary: "DRAM and tree energy of one batch, with and without dedup",
        flags: &[&[BATCH], TRAFFIC],
        run: energy,
    },
    Command {
        name: "selftest",
        summary: "check the engine against the software reference",
        flags: &[&[
            RANKS,
            RATIO,
            flag("batches", Count(1, MAX_BATCHES), Some("6"), "16-query batches"),
            SEED,
        ]],
        run: selftest,
    },
    Command { name: "help", summary: "this text", flags: &[], run: |_| Ok(usage(COMMANDS, None)) },
];

/// Builds the query generator from the traffic flags, checking
/// `1 ≤ query-len ≤ universe ≤ 2^32 − 1` and a finite skew ≥ 0.
fn traffic(args: &Args) -> Result<BatchGenerator, ArgError> {
    let skew: f64 = args.parse_as("skew")?;
    let universe: u64 = args.parse_as("universe")?;
    let query_len: usize = args.parse_as("query-len")?;
    if query_len as u64 > universe {
        return Err(ArgError::flag(
            "query-len",
            format!("{query_len} exceeds --universe {universe}"),
        ));
    }
    let popularity =
        if skew == 0.0 { Popularity::Uniform } else { Popularity::Zipf { exponent: skew } };
    Ok(BatchGenerator::new(popularity, universe, query_len, args.parse_as("seed")?))
}

/// The engine flags on the paper's defaults, plus the memory model.
fn engine_setup(args: &Args) -> Result<(FafnirConfig, MemoryModelKind), ArgError> {
    let config = FafnirConfig {
        dedup: !args.switch("no-dedup"),
        op: args.parse_as("op")?,
        ..FafnirConfig::paper_default()
    };
    Ok((config, args.parse_as("memory-model")?))
}

/// `--ranks`, which the reduction tree needs to be a power of two.
fn tree_ranks(args: &Args) -> Result<usize, ArgError> {
    let ranks: usize = args.parse_as("ranks")?;
    if !ranks.is_power_of_two() {
        return Err(ArgError::flag("ranks", format!("must be a power of two, got {ranks}")));
    }
    Ok(ranks)
}

/// `--ranks` and `--ratio`: the tree needs a power-of-two fan-in and at
/// least one leaf's worth of ranks.
fn tree_shape(args: &Args) -> Result<(usize, usize), ArgError> {
    let ranks = tree_ranks(args)?;
    let ratio: usize = args.parse_as("ratio")?;
    if !ratio.is_power_of_two() {
        return Err(ArgError::flag("ratio", format!("must be a power of two, got {ratio}")));
    }
    if ranks < ratio {
        return Err(ArgError::flag(
            "ranks",
            format!("must be at least --ratio {ratio}, got {ranks}"),
        ));
    }
    Ok((ranks, ratio))
}

/// One engine's row of the lookup table.
fn result_row<E: GatherEngine>(
    engine: &E,
    batch: &Batch,
    source: &StripedSource,
) -> Result<String, ArgError> {
    let result = engine.lookup(batch, source).map_err(|e| ArgError(e.to_string()))?;
    Ok(format!(
        "{:<12} {:>10.2} us {:>12} {:>14} B {:>9.0} %\n",
        engine.name(),
        result.latency.total_ns / 1e3,
        result.traffic.vectors_read,
        result.traffic.bytes_to_host,
        result.ndp_fraction() * 100.0
    ))
}

fn lookup(args: &Args) -> Result<String, ArgError> {
    let batch_size: usize = args.parse_as("batch")?;
    let ranks = tree_ranks(args)?;
    let engine_choice = args.value("engine")?;
    let (config, model) = engine_setup(args)?;
    let config = FafnirConfig { ranks_per_leaf: ranks.min(2), ..config };
    let mem = MemoryConfig {
        refresh: args.switch("refresh"),
        model,
        ..MemoryConfig::with_total_ranks(ranks)
    };
    let source = StripedSource::new(mem.topology, 128);
    let mut generator = traffic(args)?;
    let batch = generator.batch(batch_size);

    let mut out = format!(
        "lookup: {batch_size} queries x {} indices over {ranks} ranks ({:.0} % unique)\n",
        generator.query_len(),
        batch.unique_fraction() * 100.0
    );
    out.push_str(&format!(
        "{:<12} {:>13} {:>12} {:>16} {:>10}\n",
        "engine", "latency", "DRAM reads", "bytes to host", "NDP share"
    ));
    let wants = |name: &str| engine_choice == "all" || engine_choice == name;
    if wants("fafnir") {
        let engine = FafnirEngine::new(config, mem)
            .map_err(|e| ArgError(format!("fafnir configuration: {e}")))?;
        if args.switch("interactive") {
            let result =
                engine.lookup_interactive(&batch, &source).map_err(|e| ArgError(e.to_string()))?;
            out.push_str(&format!(
                "{:<12} {:>10.2} us {:>12} {:>14} B {:>9} %\n",
                "fafnir*",
                result.latency.total_ns / 1e3,
                result.traffic.vectors_read,
                result.traffic.bytes_to_host,
                100
            ));
        } else {
            out.push_str(&result_row(&engine, &batch, &source)?);
        }
    }
    let (core, pe, op) = (CoreModel::server_cpu(), PeTiming::fpga_200mhz(), config.op);
    if wants("recnmp") {
        out.push_str(&result_row(&RecNmpEngine::new(mem, core, pe, op), &batch, &source)?);
    }
    if wants("tensordimm") {
        out.push_str(&result_row(&TensorDimmEngine::new(mem, pe, op), &batch, &source)?);
    }
    if wants("no-ndp") {
        out.push_str(&result_row(&NoNdpEngine::new(mem, core, op), &batch, &source)?);
    }
    if args.switch("interactive") {
        out.push_str("(* interactive mode: one query per hardware batch)\n");
    }
    Ok(out)
}

fn serve(args: &Args) -> Result<String, ArgError> {
    use fafnir_core::pipeline::map_ordered;
    use fafnir_serve::{
        simulate_resilient, BatchPolicy, ResilienceConfig, ServeConfig, ServeReport, ShedPolicy,
    };
    use fafnir_workloads::arrival::ArrivalProcess;

    let rate: f64 = args.parse_as("rate")?;
    let batch: usize = args.parse_as("batch")?;
    let max_wait_ns: f64 = args.parse_as("max-wait-ns")?;
    let workers: usize = args.parse_as("workers")?;
    let queries: usize = args.parse_as("duration-queries")?;
    let seed: u64 = args.parse_as("seed")?;

    // The tables admit only the listed words, so each match's last arm
    // takes the remaining one.
    let arrivals = match args.value("process")? {
        "poisson" => ArrivalProcess::Poisson { rate_qps: rate },
        // 10 % duty-cycle bursts at 10x the nominal rate: the long-run mean
        // stays at --rate, so poisson and onoff runs are comparable.
        _ => ArrivalProcess::OnOff {
            burst_qps: rate * 10.0,
            mean_on_ns: 20_000.0,
            mean_off_ns: 180_000.0,
        },
    };
    let queue_capacity: usize = args.parse_as("queue-capacity")?;
    if args.value("policy")? == "size" && batch > queue_capacity {
        return Err(ArgError::flag(
            "batch",
            format!("the size policy needs at most --queue-capacity {queue_capacity}, got {batch}"),
        ));
    }
    let policy = match args.value("policy")? {
        "size" => BatchPolicy::Size { batch },
        "deadline" => BatchPolicy::Deadline { max_wait_ns, max_batch: batch },
        _ => BatchPolicy::Adaptive { batch, max_wait_ns },
    };
    let shed = match args.value("shed")? {
        "drop-newest" => ShedPolicy::DropNewest,
        _ => ShedPolicy::DropOldest,
    };
    let config = ServeConfig {
        arrivals,
        policy,
        workers,
        queue_capacity,
        shed,
        queries,
        seed,
        ..ServeConfig::default()
    };
    let faults: FaultSpec = args.parse_as("faults")?;
    let resilience = ResilienceConfig {
        faults: faults
            .plan(workers, queries, rate, seed)
            .map_err(|e| ArgError::flag("faults", e))?,
        timeout_ns: args.optional("timeout-ns")?,
        retries: args.parse_as("retries")?,
        backoff_ns: args.parse_as("backoff-ns")?,
        hedge_ns: args.optional("hedge-ns")?,
    };

    let (engine_config, model) = engine_setup(args)?;
    let (engine, source) =
        fafnir_serve::worker_setup(engine_config, model).map_err(|e| ArgError(e.to_string()))?;
    let traffic = traffic(args)?;

    // A sweep runs one deadline-policy config per window on the host's
    // cores. Each run draws from its own copy of the traffic generator and
    // depends on nothing else, so the reports are the same for any number
    // of cores.
    let configs = match args.get("sweep-windows") {
        None => vec![("serve".to_string(), config)],
        Some(spec) => spec
            .split(',')
            .map(|raw| {
                // Each window is a `--max-wait-ns`.
                let window = number(raw.trim(), AT_LEAST_ZERO)
                    .map_err(|e| ArgError::flag("sweep-windows", e))?;
                let policy = BatchPolicy::Deadline { max_wait_ns: window, max_batch: batch };
                Ok((format!("window {window} ns"), ServeConfig { policy, ..config }))
            })
            .collect::<Result<Vec<_>, ArgError>>()?,
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let reports = map_ordered(configs, threads, |(label, config)| {
        simulate_resilient(&engine, &source, &mut traffic.clone(), &config, &resilience)
            .map(|outcome| (label, ServeReport::new(&config, &outcome)))
            .map_err(|e| ArgError(e.to_string()))
    })
    .into_iter()
    .collect::<Result<Vec<_>, ArgError>>()?;
    if reports.len() == 1 {
        let (_, report) = &reports[0];
        return Ok(if args.switch("json") { report.to_json() } else { report.render_table() });
    }
    if args.switch("json") {
        let rows = reports.iter().map(|(label, report)| {
            Object::new(Compact).str("label", label).field("report", report.to_json())
        });
        Ok(Object::new(Compact).rows("scenarios", rows).to_string())
    } else {
        let mut out = String::new();
        for (label, report) in &reports {
            out.push_str(&format!("== {label} ==\n"));
            out.push_str(&report.render_table());
        }
        Ok(out)
    }
}

fn cluster(args: &Args) -> Result<String, ArgError> {
    use fafnir_cluster::{cluster_setup, ClusterReport};
    use fafnir_core::{ShardPlan, ShardStrategy, VectorIndex};
    use fafnir_serve::{simulate, ServeConfig, ServeReport};
    use fafnir_workloads::arrival::ArrivalProcess;
    use fafnir_workloads::Zipf;

    let mut traffic = traffic(args)?;
    let universe = traffic.universe();
    let strategy = match args.value("strategy")? {
        "tablewise" => {
            ShardStrategy::TableWise { rows_per_table: args.parse_as("rows-per-table")? }
        }
        "rowhash" => ShardStrategy::RowHash,
        _ => ShardStrategy::RowRange { universe: universe as u32 },
    };
    let mut plan = ShardPlan::new(args.parse_as("shards")?, strategy);
    let replicate_hot: f64 = args.parse_as("replicate-hot")?;
    if replicate_hot > 0.0 {
        let hot = Zipf::new(universe, args.parse_as("skew")?).hot_set(replicate_hot);
        plan = plan.with_replicated(hot.into_iter().map(|id| VectorIndex(id as u32)));
    }
    let (engine_config, model) = engine_setup(args)?;
    let (cluster, source) = cluster_setup(engine_config, model, plan, args.parse_as("router")?)
        .map_err(|e| ArgError(e.to_string()))?;

    let config = ServeConfig {
        arrivals: ArrivalProcess::Poisson { rate_qps: args.parse_as("rate")? },
        workers: args.parse_as("workers")?,
        queries: args.parse_as("duration-queries")?,
        seed: args.parse_as("seed")?,
        ..ServeConfig::default()
    };
    let outcome =
        simulate(&cluster, &source, &mut traffic, &config).map_err(|e| ArgError(e.to_string()))?;
    let report = ClusterReport::new(&cluster, &ServeReport::new(&config, &outcome));
    Ok(if args.switch("json") { report.to_json() } else { report.render_table() })
}

fn spmv(args: &Args) -> Result<String, ArgError> {
    let rows: usize = args.parse_as("rows")?;
    let seed: u64 = args.parse_as("seed")?;
    let generator = args.value("gen")?;
    let (matrix, label) = if let Some(path) = args.get("mtx") {
        let matrix =
            mtx::read_file(std::path::Path::new(path)).map_err(|e| ArgError::flag("mtx", e))?;
        (matrix, "mtx file")
    } else {
        (generated(args, generator, rows, seed)?, generator)
    };
    let vector_size: usize = args.parse_as("vector-size")?;
    if let Some(spec) = args.get("partition") {
        return run_spmv_partitioned(&matrix, label, spec, vector_size, args);
    }
    run_spmv_report(&matrix, label, vector_size)
}

/// The `--gen` matrix. One that would store more than `MAX_NNZ` entries is
/// an error on the flag that sizes it: `--density` for uniform, `--nnz`
/// (rows*8 by default) for rmat and `--bandwidth` for a band.
fn generated(
    args: &Args,
    generator: &str,
    rows: usize,
    seed: u64,
) -> Result<fafnir_sparse::CooMatrix, ArgError> {
    let density: f64 = args.parse_as("density")?;
    let nnz = args.optional("nnz")?.unwrap_or(rows * 8);
    let bandwidth: usize = args.parse_as("bandwidth")?;
    let band = bandwidth.min(rows - 1) as f64;
    let (flag, entries) = match generator {
        "uniform" => ("density", (rows as f64 * rows as f64 * density).round()),
        "rmat" => ("nnz", nnz as f64),
        _ => ("bandwidth", rows as f64 * (2.0 * band + 1.0) - band * (band + 1.0)),
    };
    if entries > MAX_NNZ as f64 {
        return Err(ArgError::flag(
            flag,
            format!("`--gen {generator}` would store {entries:.0} entries, more than {MAX_NNZ}"),
        ));
    }
    Ok(match generator {
        "uniform" => gen::uniform(rows, rows, density, seed),
        "rmat" => gen::rmat(rows.next_power_of_two().trailing_zeros().max(1), nnz, seed),
        "banded" => gen::banded(rows, bandwidth, seed),
        _ => gen::spd_banded(rows, bandwidth, seed),
    })
}

fn run_spmv_partitioned(
    matrix: &fafnir_sparse::CooMatrix,
    label: &str,
    spec: &str,
    vector_size: usize,
    args: &Args,
) -> Result<String, ArgError> {
    use fafnir_sparse::{execute_partitioned, PartitionReport, PartitionStrategy, SpmvPartition};
    let ranks: usize = args.parse_as("ranks")?;
    let strategy = match spec {
        "row" => PartitionStrategy::RowBlock,
        "nnz" => PartitionStrategy::NnzBalancedRows,
        "col" => PartitionStrategy::ColumnBlock,
        _ => PartitionStrategy::grid(ranks),
    };
    // Surface oversubscription as a flag error, not a panic downstream.
    if !strategy.fits(matrix.rows(), matrix.cols(), ranks) {
        return Err(ArgError::flag(
            "ranks",
            format!(
                "{ranks} oversubscribes a {} x {} matrix under --partition {spec}",
                matrix.rows(),
                matrix.cols()
            ),
        ));
    }
    let partition = SpmvPartition::new(matrix, strategy, ranks);
    let x = vec![1.0; matrix.cols()];
    let run = execute_partitioned(matrix, &x, &partition, vector_size);
    let serial = fafnir_spmv::execute(&LilMatrix::from(matrix), &x, vector_size);
    let timing = SpmvTiming::paper();
    let report = PartitionReport::new(&run, &serial, &timing, &matrix.multiply_dense(&x));
    if args.switch("json") {
        return Ok(format!("{}\n", report.to_json()));
    }
    Ok(format!(
        "spmv: `{label}` matrix partitioned {ranks} ways ({spec})\n{}",
        report.render_table()
    ))
}

fn run_spmv_report(
    matrix: &fafnir_sparse::CooMatrix,
    generator: &str,
    vector_size: usize,
) -> Result<String, ArgError> {
    let profile = fafnir_sparse::MatrixProfile::of(matrix);
    let lil = LilMatrix::from(matrix);
    let x = vec![1.0; matrix.cols()];
    let timing = SpmvTiming::paper();
    let fafnir = fafnir_spmv::execute(&lil, &x, vector_size);
    let baseline = two_step::execute(&lil, &x, vector_size);
    Ok(format!(
        "spmv: `{generator}` matrix — {}\n\
         spmv: {} x {} matrix, {} nnz (density {:.4} %)\n\
         plan        : {:?} rounds per iteration ({} merge iterations)\n\
         fafnir      : {:>10.2} us ({} multiplies, {} adds)\n\
         two-step    : {:>10.2} us\n\
         speedup     : {:.2}x\n",
        profile.summary(),
        matrix.rows(),
        matrix.cols(),
        matrix.nnz(),
        matrix.density() * 100.0,
        fafnir.plan.rounds_per_iteration,
        fafnir.plan.merge_iterations(),
        timing.fafnir_ns(&fafnir) / 1e3,
        fafnir.ops.multiplies,
        fafnir.ops.adds,
        timing.two_step_ns(&baseline) / 1e3,
        two_step::speedup(&timing, &fafnir, &baseline),
    ))
}

fn report(args: &Args) -> Result<String, ArgError> {
    let (ranks, ratio) = tree_shape(args)?;
    let config = FafnirConfig { ranks_per_leaf: ratio, ..FafnirConfig::paper_default() };
    Ok(DeploymentSummary::new(&config, ranks, args.parse_as("cores")?).render())
}

fn anatomy(args: &Args) -> Result<String, ArgError> {
    use fafnir_core::inject::{build_rank_inputs, GatheredVector};
    use fafnir_core::ReductionTree;
    let batch_size: usize = args.parse_as("batch")?;
    let ranks = tree_ranks(args)?;
    let config = FafnirConfig {
        vector_dim: 8,
        ranks_per_leaf: ranks.min(2),
        ..FafnirConfig::paper_default()
    };
    let tree = ReductionTree::new(config, ranks).map_err(|e| ArgError(e.to_string()))?;
    let mut generator = traffic(args)?;
    let batch = generator.batch(batch_size);
    let gathered: Vec<GatheredVector> = batch
        .unique_indices()
        .iter()
        .map(|index| GatheredVector {
            index,
            rank: index.value() as usize % ranks,
            value: vec![1.0; 8].into(),
            ready_ns: 60.0 + f64::from(index.value() % 64),
        })
        .collect();
    let inputs =
        build_rank_inputs(&batch, &gathered, ranks, config.ranks_per_leaf, &PeTiming::default());
    let (run, trace) = tree.run_traced(inputs);
    let mut out = format!(
        "anatomy: {batch_size} queries x {} indices over {ranks} ranks          \
         ({} PEs, {} levels)\n\n",
        generator.query_len(),
        tree.pe_count(),
        tree.levels()
    );
    out.push_str(&trace.render_waterfall(56));
    out.push_str("\nper-level roll-up (level, reduces, forwards, outputs):\n");
    for (level, reduces, forwards, outputs) in trace.level_summary() {
        out.push_str(&format!("  L{level}: r{reduces} f{forwards} out {outputs}\n"));
    }
    out.push_str(&format!(
        "completion {:.0} ns, {} incomplete outputs\n",
        run.stats.completion_ns, run.stats.incomplete_outputs
    ));
    Ok(out)
}

fn selftest(args: &Args) -> Result<String, ArgError> {
    use fafnir_core::verify_engine;
    let (ranks, ratio) = tree_shape(args)?;
    let mem = MemoryConfig::with_total_ranks(ranks);
    let config = FafnirConfig { ranks_per_leaf: ratio, ..FafnirConfig::paper_default() };
    let engine = FafnirEngine::new(config, mem).map_err(|e| ArgError(e.to_string()))?;
    let source = StripedSource::new(mem.topology, 128);
    let mut generator =
        BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, args.parse_as("seed")?);
    let batch_count: usize = args.parse_as("batches")?;
    let batches: Vec<_> = (0..batch_count).map(|_| generator.batch(16)).collect();
    Ok(format!("{}\n", verify_engine(&engine, &source, &batches).summary()))
}

fn energy(args: &Args) -> Result<String, ArgError> {
    use fafnir_core::model::energy::TreeEnergyModel;
    use fafnir_mem::EnergyModel;
    let batch_size: usize = args.parse_as("batch")?;
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let mut generator = traffic(args)?;
    let batch = generator.batch(batch_size);
    let dram_model = EnergyModel::ddr4();
    let tree_model = TreeEnergyModel::asap7();
    let mut out = format!(
        "energy: {batch_size} queries x {} indices ({:.0} % unique)\n",
        generator.query_len(),
        batch.unique_fraction() * 100.0
    );
    for (name, dedup) in [("with dedup", true), ("without dedup", false)] {
        let config = FafnirConfig { dedup, ..FafnirConfig::paper_default() };
        let engine = FafnirEngine::new(config, mem).map_err(|e| ArgError(e.to_string()))?;
        let result = fafnir_core::GatherEngine::lookup(&engine, &batch, &source)
            .map_err(|e| ArgError(e.to_string()))?;
        let dram_nj = dram_model.dynamic_nj(&result.memory);
        let tree_nj = tree_model.tree_energy_nj(&result.tree.ops);
        out.push_str(&format!(
            "  {name:<14} DRAM {dram_nj:>8.0} nJ + tree {tree_nj:>6.1} nJ = {:>8.0} nJ \
             ({} vector reads)\n",
            dram_nj + tree_nj,
            result.traffic.vectors_read
        ));
    }
    Ok(out)
}

fn trace(args: &Args) -> Result<String, ArgError> {
    if let Some(count) = args.optional("record")? {
        return Ok(QueryTrace::record(&mut traffic(args)?, count).to_text());
    }
    let read = |name: &str| -> Result<Option<QueryTrace>, ArgError> {
        let Some(path) = args.get(name) else { return Ok(None) };
        let text = std::fs::read_to_string(path)
            .map_err(|e| ArgError::flag(name, format!("cannot read `{path}`: {e}")))?;
        QueryTrace::from_text(&text).map(Some).map_err(|e| ArgError::flag(name, e))
    };
    if let Some(trace) = read("distances")? {
        let distances = trace.reuse_distances();
        let mut out = format!(
            "reuse distances over {} references ({} cold):\n",
            distances.references, distances.cold
        );
        for (bucket, &count) in distances.buckets.iter().enumerate() {
            let low = if bucket == 0 { 0 } else { 1u64 << bucket };
            let high = (1u64 << (bucket + 1)) - 1;
            out.push_str(&format!("  [{low:>6}..{high:>6}] {count}\n"));
        }
        out.push_str("idealized LRU hit rate by cache size (vectors):\n");
        for capacity in [64usize, 256, 1_024, 4_096] {
            out.push_str(&format!(
                "  {capacity:>5} entries ({:>4} KB at 512 B): {:.1} %\n",
                capacity * 512 / 1024,
                distances.lru_hit_rate(capacity) * 100.0
            ));
        }
        return Ok(out);
    }
    if let Some(trace) = read("stats")? {
        let reuse = trace.reuse_stats(5);
        let mut out = format!(
            "trace: {} queries, {} references, {} distinct indices \
             ({:.1} % unique)\nhottest indices:\n",
            trace.len(),
            reuse.references,
            reuse.distinct,
            reuse.unique_fraction() * 100.0
        );
        for (index, count) in &reuse.hottest {
            out.push_str(&format!("  v{index:<8} {count} references\n"));
        }
        return Ok(out);
    }
    Err(ArgError("trace needs --record N, --stats FILE, or --distances FILE".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::dispatch;

    fn run_line(line: &str) -> Result<String, ArgError> {
        dispatch(COMMANDS, &line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    /// Valid runs and what their reports must say; a `!` needle must be
    /// absent.
    const REPORTS: &[(&str, &[&str])] = &[
        ("lookup --batch 4 --query-len 4 --seed 1", &["fafnir ", "recnmp", "tensordimm", "no-ndp"]),
        ("lookup --batch 4 --query-len 4 --engine fafnir --no-dedup", &["fafnir", "!recnmp"]),
        (
            "lookup --batch 2 --engine fafnir --interactive --memory-model fast",
            &["fafnir*", "mode"],
        ),
        ("serve --rate 2e6 --duration-queries 48 --op mean --memory-model fast", &["p50"]),
        (
            "serve --rate 2e6 --policy deadline --max-wait-ns 20000 --duration-queries 48",
            &["deadline policy", "p50", "p99", "reads per query", "shed"],
        ),
        (
            "serve --rate 2e6 --policy deadline --max-wait-ns 20000 --workers 2 \
             --duration-queries 64 --seed 7 --faults slow:8:1 --hedge-ns 3000 --json",
            &["\"hedges\"", "\"hedge_wins\"", "\"worker_availability\"", "\"p999_ns\""],
        ),
        (
            "serve --rate 2e6 --workers 2 --duration-queries 64 --faults crash:20000:10000 \
             --retries 3 --timeout-ns 50000",
            &["resilience"],
        ),
        (
            "serve --rate 2e6 --workers 2 --duration-queries 32 --faults outage --json",
            &["\"served\": 0", "\"latency\": null"],
        ),
        (
            "cluster --router leastloaded --duration-queries 48 --memory-model fast",
            &["shards", "rowrange", "leastloaded", "shard imbalance", "cross-shard", "p50"],
        ),
        (
            "spmv --gen banded --rows 256 --partition col --ranks 4 --json --seed 3",
            &["\"strategy\": \"col\"", "\"sync_entries\""],
        ),
        ("report --ranks 32 --ratio 2", &["31", "1.25 mm2"]),
        ("selftest --ranks 16 --ratio 2 --batches 2", &["PASS"]),
        ("energy --batch 8 --query-len 8 --seed 4", &["with dedup", "without dedup", "nJ"]),
        ("anatomy --batch 3 --query-len 4 --seed 9", &["L0 PE0", "roll-up", "0 incomplete"]),
    ];

    #[test]
    fn reports_carry_their_metrics() {
        let mut rows: Vec<(String, &[&str])> =
            REPORTS.iter().map(|&(line, needles)| (line.to_string(), needles)).collect();
        for op in ["sum", "mean", "max", "min", "argmax", "topk:4"] {
            rows.push((format!("lookup --batch 4 --query-len 4 --op {op}"), &["fafnir"]));
        }
        for strategy in ["row", "nnz", "col", "grid"] {
            let line = format!("spmv --gen rmat --rows 128 --partition {strategy} --ranks 4");
            rows.push((line, &["nnz imbalance", "ideal 4x"]));
        }
        for (line, needles) in rows {
            let out = run_line(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            for needle in needles {
                match needle.strip_prefix('!') {
                    Some(absent) => assert!(!out.contains(absent), "`{line}` has `{absent}`"),
                    None => assert!(out.contains(needle), "`{line}` lacks `{needle}`:\n{out}"),
                }
            }
        }
    }

    #[test]
    fn the_seed_changes_the_run() {
        let line = "serve --rate 2e6 --batch 16 --max-wait-ns 10000 --duration-queries 48 --json";
        assert_ne!(run_line(line).unwrap(), run_line(&format!("{line} --seed 8")).unwrap());
    }

    /// Command lines that must fail, each with the flag its error names.
    const REJECTED: &[(&str, &str)] = &[
        ("lookup --op bogus", "op"),
        ("lookup --op topk:0", "op"),
        ("lookup --op topk:x", "op"),
        ("lookup --op topk:", "op"),
        ("serve --op bogus --duration-queries 8", "op"),
        ("lookup --op sum --op mean", "op"),
        ("lookup --memory-model bogus", "memory-model"),
        ("lookup --memory-model FAST", "memory-model"),
        ("lookup --memory-model cycle-accurate", "memory-model"),
        ("serve --memory-model bogus --duration-queries 8", "memory-model"),
        ("lookup --memory-model fast --memory-model cycle", "memory-model"),
        ("lookup --no-dedup --no-dedup", "no-dedup"),
        ("lookup --batch", "batch"),
        ("lookup --batch --seed 3", "batch"),
        ("lookup --batch x", "batch"),
        ("lookup --batch 1 --batch 2", "batch"),
        ("lookup --ranks 3", "ranks"),
        ("lookup --ranks 128", "ranks"),
        ("cluster --shards 0 --duration-queries 8", "shards"),
        ("cluster --shards bogus", "shards"),
        ("cluster --shards -1", "shards"),
        ("cluster --shards 1.5", "shards"),
        ("cluster --shards 2 --shards 4", "shards"),
        ("cluster --strategy bogus", "strategy"),
        ("cluster --strategy ROWHASH", "strategy"),
        ("cluster --strategy range", "strategy"),
        ("cluster --strategy rowhash --strategy rowrange", "strategy"),
        ("cluster --replicate-hot bogus", "replicate-hot"),
        ("cluster --replicate-hot -0.5", "replicate-hot"),
        ("cluster --replicate-hot 1.5", "replicate-hot"),
        ("cluster --replicate-hot 2", "replicate-hot"),
        ("cluster --replicate-hot 0.1 --replicate-hot 0.2", "replicate-hot"),
        ("cluster --router bogus", "router"),
        ("serve --policy bogus", "policy"),
        ("serve --process bogus", "process"),
        ("serve --shed bogus", "shed"),
        ("serve --workers 0 --duration-queries 8", "workers"),
        ("serve --rate -5 --duration-queries 8", "rate"),
        ("serve --faults bogus", "faults"),
        ("serve --faults slow:4", "faults"),
        ("serve --faults slow:4:9 --workers 2", "faults"),
        ("serve --faults crash:0:100 --duration-queries 8", "faults"),
        ("serve --duration-queries 8 --workers 2 --faults crash:1e-300:1e-300", "faults"),
        ("serve --timeout-ns -1 --duration-queries 8", "timeout-ns"),
        ("serve --sweep-windows 1000,nan --duration-queries 8", "sweep-windows"),
        ("serve --scenario-threads 2", "scenario-threads"),
        ("spmv --gen bogus", "gen"),
        ("spmv --partition diagonal", "partition"),
        ("spmv --partition row --ranks x", "ranks"),
        ("spmv --partition row --ranks 0", "ranks"),
        ("spmv --gen banded --rows 4 --partition row --ranks 64", "ranks"),
        ("spmv --partition row --partition col", "partition"),
        ("spmv --partition nnz --ranks 4 --stream", "stream"),
        ("spmv --json --json", "json"),
        ("spmv --gen banded --rows 64 --vector-size 1", "vector-size"),
        ("spmv --mtx /does/not/exist.mtx", "mtx"),
        ("spmv --rows 1000000000000", "rows"),
        ("spmv --gen rmat --rows 18446744073709551615", "rows"),
        ("spmv --gen uniform --rows 3000000000 --density 0.000000000001", "rows"),
        ("spmv --gen banded --rows 64 --bandwidth 18446744073709551615", "bandwidth"),
        ("spmv --gen spd --rows 64 --bandwidth 18446744073709551615", "bandwidth"),
        ("spmv --gen banded --rows 1048576 --bandwidth 64", "bandwidth"),
        ("spmv --gen uniform --rows 268435456 --density 1", "density"),
        ("spmv --gen rmat --rows 268435456", "nnz"),
        ("report --cores 18446744073709551615", "cores"),
        // Inputs that used to panic the binary or be ignored.
        ("lookup --universe 0", "universe"),
        ("serve --universe 0", "universe"),
        ("trace --record 4 --universe 0", "universe"),
        ("energy --universe 0", "universe"),
        ("lookup --universe 4", "query-len"),
        ("lookup --skew -1", "skew"),
        ("lookup --skew inf", "skew"),
        ("spmv --gen uniform --density 0", "density"),
        ("spmv --gen uniform --density 2", "density"),
        ("serve --worker 2", "worker"),
        ("report --json", "json"),
        // Values the flag table admits but the tree or the server cannot use.
        ("report --ratio 3", "ratio"),
        ("selftest --ratio 3", "ratio"),
        ("selftest --ranks 1", "ranks"),
        ("report --ranks 2 --ratio 4", "ranks"),
        ("serve --policy size --batch 2000", "batch"),
        // Counts that used to overflow a capacity, abort on an allocation
        // or be ignored.
        ("lookup --batch 18446744073709551615", "batch"),
        ("energy --batch 18446744073709551615", "batch"),
        ("anatomy --batch 18446744073709551615", "batch"),
        ("anatomy --batch 100000000000", "batch"),
        ("anatomy --batch 0", "batch"),
        ("selftest --batches 18446744073709551615", "batches"),
        ("selftest --batches 0", "batches"),
        ("serve --duration-queries 18446744073709551615", "duration-queries"),
        ("cluster --duration-queries 18446744073709551615", "duration-queries"),
        ("serve --workers 18446744073709551615", "workers"),
        ("serve --workers 100000000000", "workers"),
        ("cluster --workers 18446744073709551615", "workers"),
        ("cluster --shards 18446744073709551615", "shards"),
        ("trace --record 18446744073709551615", "record"),
        ("spmv --nnz 18446744073709551615", "nnz"),
        ("spmv --rows 1024 --partition grid --ranks 18446744073709551615", "ranks"),
        ("spmv --rows 1024 --partition grid --ranks 1000000000000000000", "ranks"),
        ("lookup --query-len 4294967295 --universe 4294967295 --skew 0", "query-len"),
    ];

    #[test]
    fn every_rejection_names_its_flag() {
        for &(line, flag) in REJECTED {
            let error = run_line(line).expect_err(line);
            assert!(error.0.starts_with(&format!("flag `--{flag}`: ")), "`{line}`: {error}");
        }
        for (line, needle) in [
            ("", "subcommand"),
            ("frobnicate", "fafnir help"),
            ("lookup stray", "positional"),
            ("trace", "--record"),
        ] {
            let error = run_line(line).expect_err(line);
            assert!(error.0.contains(needle), "`{line}`: {error}");
        }
    }

    /// A small run of each command, under the hostile-value test.
    fn base(command: &str) -> &'static str {
        match command {
            "lookup" => "--batch 2 --query-len 2 --engine fafnir --memory-model fast",
            "serve" | "cluster" => "--duration-queries 8 --workers 2 --memory-model fast",
            "spmv" => "--rows 64",
            "trace" => "--record 4",
            "anatomy" | "energy" => "--batch 2 --query-len 2",
            "selftest" => "--ranks 4 --batches 1",
            _ => "",
        }
    }

    /// The base run of `command` with `--name value` in place of any base
    /// value of that flag.
    fn with_flag(command: &str, name: &str, value: &str) -> Vec<String> {
        let flag = format!("--{name}");
        let mut tokens = vec![command.to_string()];
        let base: Vec<&str> = base(command).split_whitespace().collect();
        for pair in base.chunks(2).filter(|pair| pair[0] != flag) {
            tokens.extend(pair.iter().map(|token| token.to_string()));
        }
        tokens.extend([flag, value.to_string()]);
        tokens
    }

    #[test]
    fn hostile_values_on_every_flag_return_instead_of_panicking() {
        for command in COMMANDS {
            let line = format!("{} {}", command.name, base(command.name));
            run_line(&line).unwrap_or_else(|e| panic!("base run `{line}`: {e}"));
            for flag in command.flags() {
                for value in ["0", "-1", "nan", "inf", "x", "1e300"] {
                    let _ = dispatch(COMMANDS, &with_flag(command.name, flag.name, value));
                }
            }
        }
    }

    /// Skews at which nearly every draw is the hottest index. Queries used
    /// to redraw duplicates until they held `--query-len` distinct indices:
    /// 15 s at `--skew 6`, forever at the others.
    const STEEP: &[&str] = &[
        "lookup --skew 6",
        "lookup --skew 8",
        "serve --skew 1e300 --query-len 2",
        "cluster --skew 1e300",
        "trace --record 4 --skew 1e300",
        "anatomy --skew 1e300",
        "energy --skew 1e300",
    ];

    #[test]
    fn steep_skews_run_to_completion() {
        for line in STEEP {
            run_line(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        }
    }

    #[test]
    fn every_count_flag_at_u64_max_runs_or_names_the_flag() {
        let max = u64::MAX.to_string();
        for command in COMMANDS {
            for flag in command.flags().filter(|flag| matches!(flag.kind, Count(..))) {
                let tokens = with_flag(command.name, flag.name, &max);
                if let Err(error) = dispatch(COMMANDS, &tokens) {
                    let named = error.0.starts_with(&format!("flag `--{}`: ", flag.name));
                    assert!(named, "`{}`: {error}", tokens.join(" "));
                }
            }
        }
    }

    #[test]
    fn help_renders_every_command_and_flag_from_the_tables() {
        let names: Vec<&str> = COMMANDS.iter().map(|command| command.name).collect();
        assert_eq!(
            names,
            [
                "lookup", "serve", "cluster", "spmv", "report", "trace", "anatomy", "energy",
                "selftest", "help"
            ]
        );
        let help = run_line("help").unwrap();
        assert_eq!(help, run_line("--help").unwrap());
        for command in COMMANDS {
            // `--help` prints the command's usage instead of running it.
            let own = run_line(&format!("{} --help --bogus", command.name)).unwrap();
            let block = &own[own.find("COMMANDS\n").unwrap() + 9..];
            assert!(block.starts_with(&format!("  {:<10}{}\n", command.name, command.summary)));
            assert!(help.contains(block), "{} is missing from `fafnir help`", command.name);
            let mut seen = Vec::new();
            for flag in command.flags() {
                assert!(block.contains(&format!("    --{} ", flag.name)), "{}", flag.name);
                assert!(!seen.contains(&flag.name), "{} declares --{} twice", block, flag.name);
                seen.push(flag.name);
            }
        }
    }

    #[test]
    fn file_inputs_round_trip() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 2.0\n";
        let mtx = std::env::temp_dir().join("fafnir-cli-test.mtx");
        std::fs::write(&mtx, text).unwrap();
        let out = run_line(&format!("spmv --mtx {}", mtx.display())).unwrap();
        assert!(out.contains("2 x 2") && out.contains("speedup"), "{out}");
        std::fs::remove_file(&mtx).ok();

        // A declared shape too large to hold is a flag error, not an abort.
        let huge = "%%MatrixMarket matrix coordinate real general\n\
                    1000000000000 1000000000000 1\n1 1 1.0\n";
        let path = std::env::temp_dir().join("fafnir-cli-test-huge.mtx");
        std::fs::write(&path, huge).unwrap();
        let error = run_line(&format!("spmv --mtx {}", path.display())).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(error.0.contains("--mtx") && error.0.contains("1000000000000 x 1000000000000"));

        let trace = run_line("trace --record 30 --query-len 8 --seed 5").unwrap();
        let path = std::env::temp_dir().join("fafnir-cli-test-trace.txt");
        std::fs::write(&path, &trace).unwrap();
        let stats = run_line(&format!("trace --stats {}", path.display())).unwrap();
        assert!(stats.contains("30 queries") && stats.contains("hottest"), "{stats}");
        let distances = run_line(&format!("trace --distances {}", path.display())).unwrap();
        assert!(distances.contains("LRU hit rate") && distances.contains("256 entries"));
        std::fs::remove_file(&path).ok();
    }
}
