//! The `epq` command-line interface.
//!
//! A thin, dependency-free front end over the library: count answers,
//! classify queries, inspect φ*/φ⁺ decompositions, decide counting
//! equivalence, and explain relational-algebra plans. The binary in
//! `src/bin/epq.rs` forwards to [`run`], which writes to any `Write`
//! sink so the whole surface is unit-testable.

use epq_core::classify::classify_query;
use epq_core::equivalence::{counting_equivalent, semi_counting_equivalent};
use epq_core::iex::{check_disjunct_limit, star};
use epq_core::plus::plus_decomposition;
use epq_core::prepared::PreparedQuery;
use epq_counting::engines::{all_engines, PpCountingEngine};
use epq_logic::dnf;
use epq_logic::parser::parse_query;
use epq_logic::query::{check_against_signature, infer_signature};
use epq_logic::{PpFormula, Query};
use epq_structures::parse::{parse_structure, parse_structures};
use epq_structures::{Signature, Structure};
use std::io::Write;

/// Usage text for `epq help`.
pub const USAGE: &str = "\
epq — counting answers to existential positive queries (Chen & Mengel, PODS 2016)

USAGE:
  epq count    --query <Q> (--data <FILE> | --data-inline <S> | --batch <FILE>
               | --stream <FILE>) [--engine <E>] [--threads <N>]
  epq classify --query <Q>
  epq star     --query <Q>
  epq plus     --query <Q>
  epq equiv    --query <Q1> --query2 <Q2>
  epq explain  --query <Q> (--data <FILE> | --data-inline <S>)
  epq help

QUERY SYNTAX:    (x, y) := E(x,y) | (exists u . E(x,u) & E(u,y))
STRUCTURE SYNTAX: structure { universe 4  E = { (0,1), (1,2) } }
ENGINES:         fpt (default) | brute-force | relalg
THREADS:         --threads N caps the worker threads of whichever engine runs
                 (default: all hardware threads); counts never depend on it
BATCH:           --batch <FILE> reads one or more structure blocks; the query
                 is prepared once and counted per block (one count per line).
                 The --threads workers fan out over the blocks; each count
                 runs on one thread
STREAM:          --stream <FILE> replays a tuple log (universe N / rel R/k /
                 insert R e... / checkpoint lines) through the incremental
                 maintainer, printing one count per checkpoint (and a final
                 count if the log does not end on one). The relalg engine
                 maintains through cached scans; the other engines recount
                 each affected disjunct in full
";

/// Runs the CLI with `args` (excluding the program name), writing to
/// `out`. Returns an error message on failure.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let io = |e: std::io::Error| format!("I/O error: {e}");
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => write!(out, "{USAGE}").map_err(io),
        Some("count") => {
            let query = required(args, "--query")?;
            if let Some(path) = flag_value(args, "--batch") {
                return count_batch(args, &query, &path, out);
            }
            if let Some(path) = flag_value(args, "--stream") {
                return count_stream(args, &query, &path, out);
            }
            let b = load_structure(args)?;
            let (q, sig) = prepare(&query, Some(&b))?;
            let prepared = prepare_counting(args, &q, &sig)?;
            writeln!(out, "{}", prepared.count(&b)).map_err(io)
        }
        Some("classify") => {
            let query = required(args, "--query")?;
            let (q, sig) = prepare(&query, None)?;
            let analysis = classify_query(&q, &sig).map_err(|e| e.to_string())?;
            writeln!(out, "phi+ size: {}", analysis.plus_analyses.len()).map_err(io)?;
            for (i, a) in analysis.plus_analyses.iter().enumerate() {
                writeln!(
                    out,
                    "  [{i}] core tw {:?}, contract tw {:?}: {}",
                    a.core_treewidth, a.contract_treewidth, a.core
                )
                .map_err(io)?;
            }
            writeln!(
                out,
                "max core treewidth: {}\nmax contract treewidth: {}",
                analysis.max_core_treewidth, analysis.max_contract_treewidth
            )
            .map_err(io)?;
            writeln!(
                out,
                "regime at width bound w: FPT if w >= {}, Clique-equivalent if {} > w >= {}, else #Clique-hard",
                analysis.max_core_treewidth.max(analysis.max_contract_treewidth),
                analysis.max_core_treewidth,
                analysis.max_contract_treewidth,
            )
            .map_err(io)
        }
        Some("star") => {
            let query = required(args, "--query")?;
            let (q, sig) = prepare(&query, None)?;
            let ds = dnf::disjuncts(&q, &sig).map_err(|e| e.to_string())?;
            check_disjunct_limit(ds.len()).map_err(|e| e.to_string())?;
            writeln!(out, "disjuncts: {}", ds.len()).map_err(io)?;
            for d in &ds {
                writeln!(out, "  | {d}").map_err(io)?;
            }
            let terms = star(&ds);
            writeln!(out, "phi* terms: {}", terms.len()).map_err(io)?;
            for t in &terms {
                writeln!(out, "  {:>3} x |{}|", t.coefficient.to_string(), t.formula)
                    .map_err(io)?;
            }
            Ok(())
        }
        Some("plus") => {
            let query = required(args, "--query")?;
            let (q, sig) = prepare(&query, None)?;
            let dec = plus_decomposition(&q, &sig).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "normalized disjuncts: {} ({} free, {} sentences)",
                dec.disjuncts.len(),
                dec.all_free.len(),
                dec.sentences.len()
            )
            .map_err(io)?;
            writeln!(out, "phi+ ({} formulas):", dec.plus.len()).map_err(io)?;
            for f in &dec.plus {
                writeln!(out, "  {f}").map_err(io)?;
            }
            Ok(())
        }
        Some("equiv") => {
            let q1 = required(args, "--query")?;
            let q2 = required(args, "--query2")?;
            let (a, b) = prepare_pair(&q1, &q2)?;
            writeln!(out, "counting equivalent: {}", counting_equivalent(&a, &b)).map_err(io)?;
            if a.is_free() && b.is_free() {
                writeln!(
                    out,
                    "semi-counting equivalent: {}",
                    semi_counting_equivalent(&a, &b)
                )
                .map_err(io)?;
            }
            Ok(())
        }
        Some("explain") => {
            let query = required(args, "--query")?;
            let b = load_structure(args)?;
            let (q, sig) = prepare(&query, Some(&b))?;
            let ds = dnf::disjuncts(&q, &sig).map_err(|e| e.to_string())?;
            for (i, d) in ds.iter().enumerate() {
                writeln!(out, "disjunct {i}: {d}").map_err(io)?;
                for step in epq_relalg::engine::explain_pp(d, &b) {
                    writeln!(out, "  {step}").map_err(io)?;
                }
            }
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}; try `epq help`")),
    }
}

/// `epq count --batch <FILE>`: parse every structure block, prepare the
/// query once, and fan the per-structure counts across the pool.
fn count_batch(
    args: &[String],
    query_text: &str,
    path: &str,
    out: &mut dyn Write,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let structures = parse_structures(&text).map_err(|e| e.to_string())?;
    let first = &structures[0];
    for (i, s) in structures.iter().enumerate() {
        if s.signature() != first.signature() {
            return Err(format!(
                "batch structures must share one signature; block {i} differs from block 0"
            ));
        }
    }
    let (q, sig) = prepare(query_text, Some(first))?;
    let prepared = prepare_counting(args, &q, &sig)?;
    for n in prepared.count_batch(&structures, prepared.threads()) {
        writeln!(out, "{n}").map_err(|e| format!("I/O error: {e}"))?;
    }
    Ok(())
}

/// `epq count --stream <FILE>`: replay a tuple log through the
/// incremental maintainer, printing the count at every checkpoint.
fn count_stream(
    args: &[String],
    query_text: &str,
    path: &str,
    out: &mut dyn Write,
) -> Result<(), String> {
    use epq_core::incremental::LiveCount;
    use epq_structures::live::{StreamLog, StreamOp};

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let log = StreamLog::parse(&text).map_err(|e| e.to_string())?;
    let q = parse_query(query_text).map_err(|e| e.to_string())?;
    check_against_signature(q.formula(), &log.signature).map_err(|e| e.to_string())?;
    let prepared = prepare_counting(args, &q, &log.signature)?;
    let mut live = LiveCount::new(prepared, log.open()).map_err(|e| e.to_string())?;
    for op in &log.ops {
        if let Some(count) = live.apply(op) {
            writeln!(out, "{count}").map_err(|e| format!("I/O error: {e}"))?;
        }
    }
    // A log that does not end on a checkpoint still reports its final
    // state — silent trailing inserts would be invisible otherwise.
    if !matches!(log.ops.last(), None | Some(StreamOp::Checkpoint)) {
        writeln!(out, "{}", live.current()).map_err(|e| format!("I/O error: {e}"))?;
    }
    Ok(())
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn required(args: &[String], flag: &str) -> Result<String, String> {
    flag_value(args, flag).ok_or_else(|| format!("missing required {flag} <value>"))
}

fn load_structure(args: &[String]) -> Result<Structure, String> {
    if let Some(text) = flag_value(args, "--data-inline") {
        return parse_structure(&text).map_err(|e| e.to_string());
    }
    let path = required(args, "--data")
        .map_err(|_| "provide --data <file> or --data-inline <text>".to_string())?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_structure(&text).map_err(|e| e.to_string())
}

/// Prepares `q` with the `--engine` and `--threads` flags applied.
fn prepare_counting(args: &[String], q: &Query, sig: &Signature) -> Result<PreparedQuery, String> {
    let engine = engine_from(args)?;
    let threads = threads_from(args)?;
    Ok(PreparedQuery::prepare(q, sig)
        .map_err(|e| e.to_string())?
        .with_engine(engine)
        .with_threads(threads))
}

fn threads_from(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--threads") {
        None => Ok(epq_pool::available_threads()),
        Some(text) => match text.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!(
                "--threads expects a positive integer, got {text:?}"
            )),
        },
    }
}

fn engine_from(args: &[String]) -> Result<Box<dyn PpCountingEngine>, String> {
    let name = flag_value(args, "--engine").unwrap_or_else(|| "fpt".to_string());
    all_engines()
        .into_iter()
        .find(|e| e.name() == name)
        .ok_or_else(|| format!("unknown engine {name:?}"))
}

/// Parses a query, inferring the signature (or validating against the
/// data structure's signature when provided).
fn prepare(query_text: &str, data: Option<&Structure>) -> Result<(Query, Signature), String> {
    let q = parse_query(query_text).map_err(|e| e.to_string())?;
    let sig = match data {
        Some(b) => {
            check_against_signature(q.formula(), b.signature()).map_err(|e| e.to_string())?;
            b.signature().clone()
        }
        None => infer_signature([q.formula()]).map_err(|e| e.to_string())?,
    };
    Ok((q, sig))
}

fn prepare_pair(t1: &str, t2: &str) -> Result<(PpFormula, PpFormula), String> {
    let q1 = parse_query(t1).map_err(|e| e.to_string())?;
    let q2 = parse_query(t2).map_err(|e| e.to_string())?;
    if !q1.is_pp() || !q2.is_pp() {
        return Err("equiv requires primitive positive queries (no |)".into());
    }
    let sig = infer_signature([q1.formula(), q2.formula()]).map_err(|e| e.to_string())?;
    let a = PpFormula::from_query(&q1, &sig).map_err(|e| e.to_string())?;
    let b = PpFormula::from_query(&q2, &sig).map_err(|e| e.to_string())?;
    Ok((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out).expect("command succeeds");
        String::from_utf8(out).unwrap()
    }

    fn run_err(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out).expect_err("command fails")
    }

    const DATA: &str = "structure { universe 4 E = { (0,1), (1,2), (2,3), (3,3) } }";

    #[test]
    fn help_prints_usage() {
        assert!(run_ok(&["help"]).contains("USAGE"));
        assert!(run_ok(&[]).contains("USAGE"));
    }

    #[test]
    fn count_subcommand() {
        let out = run_ok(&[
            "count",
            "--query",
            "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))",
            "--data-inline",
            DATA,
        ]);
        assert_eq!(out.trim(), "24");
    }

    #[test]
    fn count_with_each_engine() {
        for engine in all_engines() {
            let engine = engine.name();
            let out = run_ok(&[
                "count",
                "--query",
                "E(x,y)",
                "--data-inline",
                DATA,
                "--engine",
                engine,
            ]);
            assert_eq!(out.trim(), "4", "engine {engine}");
        }
    }

    #[test]
    fn bad_thread_counts_are_reported() {
        for bad in ["0", "-2", "many"] {
            let err = run_err(&[
                "count",
                "--query",
                "E(x,y)",
                "--data-inline",
                DATA,
                "--threads",
                bad,
            ]);
            assert!(err.contains("--threads"), "got: {err}");
        }
    }

    #[test]
    fn classify_subcommand() {
        let out = run_ok(&["classify", "--query", "E(x,y) & E(y,z) & E(x,z)"]);
        assert!(out.contains("max core treewidth: 2"));
        assert!(out.contains("max contract treewidth: 2"));
    }

    #[test]
    fn star_subcommand_shows_cancellation() {
        let out = run_ok(&[
            "star",
            "--query",
            "(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y))",
        ]);
        assert!(out.contains("disjuncts: 3"));
        assert!(out.contains("phi* terms: 2"));
        assert!(out.contains("  3 x"));
        assert!(out.contains(" -2 x"));
    }

    #[test]
    fn plus_subcommand() {
        let out = run_ok(&[
            "plus",
            "--query",
            "(x, y) := E(x,y) | (exists a, b . E(a,b) & E(b,a))",
        ]);
        assert!(out.contains("1 sentences"));
        assert!(out.contains("phi+ (2 formulas):"));
    }

    #[test]
    fn equiv_subcommand() {
        let out = run_ok(&[
            "equiv",
            "--query",
            "E(x,y) & E(y,z)",
            "--query2",
            "E(a,b) & E(b,c)",
        ]);
        assert!(out.contains("counting equivalent: true"));
        let out = run_ok(&[
            "equiv",
            "--query",
            "E(x,y) & E(y,z)",
            "--query2",
            "E(a,b) & E(a,c)",
        ]);
        assert!(out.contains("counting equivalent: false"));
    }

    #[test]
    fn explain_subcommand() {
        let out = run_ok(&[
            "explain",
            "--query",
            "(x,y) := exists u . E(x,u) & E(u,y)",
            "--data-inline",
            DATA,
        ]);
        assert!(out.contains("scan E(x, u) -> 4 rows"));
        assert!(out.contains("eliminate u: join -> 4 rows, project -> 4 rows"));
        assert!(out.contains("join (x, y) -> 4 rows"));
        assert!(out.contains("count -> 4"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run_err(&["count", "--query", "E(x,y)"]).contains("--data"));
        assert!(run_err(&["count", "--query", "E(x,"]).contains("--data"));
        assert!(run_err(&["frobnicate"]).contains("unknown subcommand"));
        assert!(
            run_err(&["count", "--query", "E(x,", "--data-inline", DATA]).contains("parse error")
        );
        assert!(
            run_err(&["count", "--query", "F(x,y)", "--data-inline", DATA])
                .contains("not in signature")
        );
        assert!(
            run_err(&["equiv", "--query", "E(x,y) | E(y,x)", "--query2", "E(x,y)"])
                .contains("primitive positive")
        );
        assert!(run_err(&[
            "count",
            "--query",
            "E(x,y)",
            "--data-inline",
            DATA,
            "--engine",
            "warp"
        ])
        .contains("unknown engine"));
    }

    #[test]
    fn help_flag_spellings() {
        for spelling in [["--help"], ["-h"], ["help"]] {
            let out = run_ok(&spelling);
            assert!(out.contains("USAGE"), "{spelling:?} should print usage");
            assert!(out.contains("ENGINES"), "{spelling:?} should list engines");
        }
    }

    #[test]
    fn missing_query_flag_is_reported() {
        for sub in ["count", "classify", "star", "plus", "explain"] {
            assert!(
                run_err(&[sub]).contains("missing required --query"),
                "{sub} without --query should name the missing flag"
            );
        }
        assert!(run_err(&["equiv", "--query", "E(x,y)"]).contains("--query2"));
    }

    #[test]
    fn flag_without_value_is_reported() {
        // A flag in final position has no value to consume.
        assert!(run_err(&["count", "--query"]).contains("missing required --query"));
    }

    #[test]
    fn unreadable_data_file_is_reported() {
        let err = run_err(&[
            "count",
            "--query",
            "E(x,y)",
            "--data",
            "/nonexistent/epq-test.structure",
        ]);
        assert!(err.contains("cannot read"), "got: {err}");
    }

    #[test]
    fn unparsable_data_file_is_reported() {
        let dir = std::env::temp_dir().join("epq-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.structure");
        std::fs::write(&path, "garbage {{{ not a structure").unwrap();
        let err = run_err(&[
            "count",
            "--query",
            "E(x,y)",
            "--data",
            path.to_str().unwrap(),
        ]);
        assert!(err.contains("parse error"), "got: {err}");
    }

    #[test]
    fn count_batch_prints_one_count_per_block() {
        let dir = std::env::temp_dir().join("epq-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("batch.structures");
        std::fs::write(
            &path,
            format!("{DATA}\nstructure {{ universe 2 E = {{ (0,1) }} }}\nstructure {{ universe 3 E/2 = {{ }} }}"),
        )
        .unwrap();
        let query = "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))";
        let out = run_ok(&["count", "--query", query, "--batch", path.to_str().unwrap()]);
        assert_eq!(out.lines().collect::<Vec<_>>(), vec!["24", "0", "0"]);
    }

    #[test]
    fn count_batch_rejects_mixed_signatures_and_bad_files() {
        let dir = std::env::temp_dir().join("epq-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.structures");
        std::fs::write(
            &path,
            "structure { universe 2 E = { (0,1) } } structure { universe 2 F = { (0,1) } }",
        )
        .unwrap();
        let err = run_err(&[
            "count",
            "--query",
            "E(x,y)",
            "--batch",
            path.to_str().unwrap(),
        ]);
        assert!(err.contains("share one signature"), "got: {err}");
        let err = run_err(&[
            "count",
            "--query",
            "E(x,y)",
            "--batch",
            "/nonexistent/epq-batch.structures",
        ]);
        assert!(err.contains("cannot read"), "got: {err}");
    }

    const STREAM_LOG: &str = "\
# a small ingestion session over the Example 4.3 structure
universe 4
rel E/2
insert E 0 1
checkpoint
insert E 1 2
insert E 2 3
checkpoint
insert E 3 3
";

    #[test]
    fn count_stream_prints_one_count_per_checkpoint() {
        let dir = std::env::temp_dir().join("epq-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("feed.stream");
        std::fs::write(&path, STREAM_LOG).unwrap();
        // (x) := exists u . E(x,u): sources after each prefix — {0},
        // {0,1,2}, and finally {0,1,2,3} (the trailing count covers the
        // insert after the last checkpoint).
        let out = run_ok(&[
            "count",
            "--query",
            "(x) := exists u . E(x,u)",
            "--stream",
            path.to_str().unwrap(),
        ]);
        assert_eq!(out.lines().collect::<Vec<_>>(), vec!["1", "3", "4"]);
    }

    #[test]
    fn every_engine_and_thread_count_agree_on_count_batch_and_stream() {
        let dir = std::env::temp_dir().join("epq-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let batch = dir.join("agree.structures");
        std::fs::write(
            &batch,
            format!("{DATA}\nstructure {{ universe 3 E = {{ (0,1), (1,1) }} }}"),
        )
        .unwrap();
        let stream = dir.join("agree.stream");
        std::fs::write(&stream, STREAM_LOG).unwrap();
        let query = "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))";
        let inputs: [[&str; 2]; 3] = [
            ["--data-inline", DATA],
            ["--batch", batch.to_str().unwrap()],
            ["--stream", stream.to_str().unwrap()],
        ];
        for [flag, value] in inputs {
            let expected = run_ok(&["count", "--query", query, flag, value, "--threads", "1"]);
            for engine in all_engines() {
                let engine = engine.name();
                for threads in ["1", "2", "4"] {
                    let out = run_ok(&[
                        "count",
                        "--query",
                        query,
                        flag,
                        value,
                        "--engine",
                        engine,
                        "--threads",
                        threads,
                    ]);
                    assert_eq!(out, expected, "{flag}: engine {engine}, threads {threads}");
                }
            }
        }
    }

    #[test]
    fn count_stream_reports_errors() {
        let err = run_err(&[
            "count",
            "--query",
            "E(x,y)",
            "--stream",
            "/nonexistent/epq.stream",
        ]);
        assert!(err.contains("cannot read"), "got: {err}");
        let dir = std::env::temp_dir().join("epq-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.stream");
        std::fs::write(&bad, "universe 2\nfrobnicate\n").unwrap();
        let err = run_err(&[
            "count",
            "--query",
            "E(x,y)",
            "--stream",
            bad.to_str().unwrap(),
        ]);
        assert!(err.contains("parse error"), "got: {err}");
        // A query over relations the log never declares is rejected.
        let log = dir.join("f.stream");
        std::fs::write(&log, "universe 2\nrel E/2\ninsert E 0 1\ncheckpoint\n").unwrap();
        let err = run_err(&[
            "count",
            "--query",
            "F(x,y)",
            "--stream",
            log.to_str().unwrap(),
        ]);
        assert!(err.contains("not in signature"), "got: {err}");
    }

    #[test]
    fn count_from_file() {
        let dir = std::env::temp_dir().join("epq-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.structure");
        std::fs::write(&path, DATA).unwrap();
        let out = run_ok(&[
            "count",
            "--query",
            "E(x,x)",
            "--data",
            path.to_str().unwrap(),
        ]);
        assert_eq!(out.trim(), "1");
    }
}
