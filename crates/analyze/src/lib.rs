//! `sdbp-analyze`: a workspace-graph invariant linter for the SDBP
//! reproduction.
//!
//! The simulator's correctness claims rest on invariants the compiler
//! does not check: determinism (same trace + config → byte-identical
//! results), panic-freedom on I/O paths, lossless trace encoding — and,
//! since PR 8, *cross-file contracts*: every wire variant must have an
//! encode arm, a decode arm, and a handler; every registered policy
//! must be gated by the golden fixture and the sampling smoke test; no
//! `Result` may be silently discarded on a serve path. This crate walks
//! every `.rs` file in the workspace with a hand-rolled, span-tracking
//! lexer and item parser (the workspace is std-only, so no `syn`),
//! joins the per-file facts into a workspace graph, and enforces the
//! invariants as lint rules:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-panic-paths` | trace I/O and recording never panic; errors propagate |
//! | `deterministic-iteration` | no `HashMap`/`HashSet` in aggregation/report paths |
//! | `no-wallclock-in-sim` | results are a pure function of trace + config |
//! | `lossless-codec-casts` | no truncating `as` casts in the `.sdbt` codec |
//! | `seed-discipline` | derived streams use `Rng64::fork`, not seed arithmetic |
//! | `pub-api-docs` | every `pub` item in library code is documented |
//! | `flat-metadata` | per-line replacement metadata stays flat |
//! | `mutex-discipline` | no lock guard held across a blocking call |
//! | `shard-determinism` | the engine pool aggregates by submission index |
//! | `result-discipline` | no silently discarded `Result` in non-test code |
//! | `wire-exhaustive` | wire enum variants encode, decode, and are handled |
//! | `registry-coverage` | registered policies are gated by golden + smoke |
//!
//! Rules apply workspace-wide by default; `analyze.toml` `[[exempt]]`
//! entries opt a path out with a written reason, `[[allow]]` entries
//! suppress individual findings, and `// sdbp-allow(rule): reason`
//! escapes do the same in-line. Findings are span-accurate
//! (`file:line:col`) and rendered human-readable, as JSON
//! (`target/analyze-report.json`, path overridable via `--report` /
//! `SDBP_ANALYZE_REPORT`), and as SARIF 2.1.0 (`--sarif`) for GitHub
//! code-scanning upload. Per-file analysis fans out over the
//! `sdbp-engine` pool (`--jobs N`, byte-identical to `--serial`) and is
//! reused across runs through a content-hash cache
//! (`target/analyze-cache.json`), so a warm rerun on an unchanged tree
//! completes in well under a second. The binary exits nonzero on any
//! unsuppressed finding, so CI can gate on it.

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod source;
pub mod workspace;

use std::path::PathBuf;

use config::Config;
use report::{render_human, render_json};
use rules::all_rule_info;
use workspace::{analyze_workspace, find_root, ScanOptions};

/// Parsed command-line options.
#[derive(Debug, Default)]
struct Options {
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    report_out: Option<PathBuf>,
    sarif_out: Option<PathBuf>,
    bench_out: Option<PathBuf>,
    jobs: Option<usize>,
    serial: bool,
    no_cache: bool,
    prune: bool,
    write: bool,
    list_rules: bool,
    quiet: bool,
}

const USAGE: &str = "usage: sdbp-analyze [--root DIR] [--config FILE] [--report FILE] \
[--sarif FILE] [--jobs N | --serial] [--no-cache] [--bench FILE] [--prune [--write]] \
[--list-rules] [--quiet]

Scans every .rs file in the workspace for invariant violations.

  --root DIR     workspace root (default: nearest [workspace] Cargo.toml)
  --config FILE  policy file (default: <root>/analyze.toml)
  --report FILE  JSON report path (default: $SDBP_ANALYZE_REPORT, then
                 <root>/target/analyze-report.json); --json is an alias
  --sarif FILE   also write a SARIF 2.1.0 document for code scanning
  --jobs N       per-file analysis worker threads (default: one per core)
  --serial       single-threaded reference path (same output as --jobs N)
  --no-cache     ignore and do not write target/analyze-cache.json
  --bench FILE   time a cold and a warm scan, write the comparison JSON
  --prune        list stale analyze.toml [[allow]] entries; with --write,
                 remove them from the file
  --list-rules   print the rule table and exit
  --quiet        suppress per-finding output; print only the summary line

exit status: 0 clean, 1 findings, 2 usage or I/O error";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                opts.root =
                    Some(it.next().ok_or("--root needs a directory argument")?.into());
            }
            "--config" => {
                opts.config = Some(it.next().ok_or("--config needs a file argument")?.into());
            }
            "--report" | "--json" => {
                opts.report_out =
                    Some(it.next().ok_or("--report needs a file argument")?.into());
            }
            "--sarif" => {
                opts.sarif_out = Some(it.next().ok_or("--sarif needs a file argument")?.into());
            }
            "--bench" => {
                opts.bench_out = Some(it.next().ok_or("--bench needs a file argument")?.into());
            }
            "--jobs" => {
                let n = it.next().ok_or("--jobs needs a worker count")?;
                opts.jobs =
                    Some(n.parse::<usize>().map_err(|_| format!("bad --jobs value `{n}`"))?);
            }
            "--serial" => opts.serial = true,
            "--no-cache" => opts.no_cache = true,
            "--prune" => opts.prune = true,
            "--write" => opts.write = true,
            "--list-rules" => opts.list_rules = true,
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if opts.serial && opts.jobs.is_some() {
        return Err("--serial and --jobs are mutually exclusive".to_owned());
    }
    if opts.write && !opts.prune {
        return Err("--write only makes sense with --prune".to_owned());
    }
    Ok(opts)
}

/// Runs the linter CLI; returns the process exit code (0 clean,
/// 1 findings, 2 error).
#[must_use]
pub fn run_cli(args: &[String]) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if opts.list_rules {
        for r in all_rule_info() {
            println!("{:<24} {}", r.id, r.summary);
        }
        return 0;
    }
    let run = if opts.prune { run_prune(&opts) } else { run_scan(&opts) };
    match run {
        Ok(clean) => i32::from(!clean),
        Err(msg) => {
            eprintln!("sdbp-analyze: {msg}");
            2
        }
    }
}

/// Resolved scan environment shared by scan and prune modes.
struct Env {
    root: PathBuf,
    config_path: PathBuf,
    config: Config,
    scan: ScanOptions,
}

fn resolve(opts: &Options) -> Result<Env, String> {
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => find_root(&std::env::current_dir().map_err(|e| format!("cwd: {e}"))?)?,
    };
    let ids = rules::rule_ids();
    let config_path = opts.config.clone().unwrap_or_else(|| root.join("analyze.toml"));
    let config = Config::load(&config_path, &ids)?;
    let jobs = if opts.serial {
        1
    } else {
        opts.jobs.unwrap_or_else(|| sdbp_engine::Parallelism::Auto.workers())
    };
    let cache_path =
        (!opts.no_cache).then(|| root.join("target").join("analyze-cache.json"));
    Ok(Env { root, config_path, config, scan: ScanOptions { jobs, cache_path } })
}

/// Writes `content` to `path`, creating parent directories.
fn write_out(path: &PathBuf, content: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Performs the scan described by `opts`; returns whether the tree is
/// clean.
fn run_scan(opts: &Options) -> Result<bool, String> {
    let env = resolve(opts)?;
    let rules = all_rule_info();

    if let Some(bench_path) = &opts.bench_out {
        // Cold: purge the cache first. Warm: immediately rescan.
        if let Some(cache) = &env.scan.cache_path {
            if cache.exists() {
                std::fs::remove_file(cache)
                    .map_err(|e| format!("cannot purge {}: {e}", cache.display()))?;
            }
        }
        // Timing the analyzer itself is the point of --bench: the wall
        // times land in BENCH_analyze.json, not in any simulation result.
        // sdbp-allow(no-wallclock-in-sim): --bench measures analyzer wall time as its output
        let t0 = std::time::Instant::now();
        let cold = analyze_workspace(&env.root, &env.config, &env.scan)?;
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
        // sdbp-allow(no-wallclock-in-sim): --bench measures analyzer wall time as its output
        let t1 = std::time::Instant::now();
        let warm = analyze_workspace(&env.root, &env.config, &env.scan)?;
        let warm_ms = t1.elapsed().as_secs_f64() * 1e3;

        let mut w = sdbp_engine::json::JsonWriter::new();
        w.begin_object();
        w.key("schema").string("sdbp-analyze-bench/v1");
        w.key("files").uint(cold.files_scanned as u64);
        w.key("jobs").uint(env.scan.jobs as u64);
        w.key("cold_ms").float(cold_ms);
        w.key("warm_ms").float(warm_ms);
        w.key("warm_cache_hits").uint(warm.cache_hits as u64);
        w.key("speedup").float(if warm_ms > 0.0 { cold_ms / warm_ms } else { 0.0 });
        w.end_object();
        let mut doc = w.finish();
        doc.push('\n');
        write_out(bench_path, &doc)?;
        println!(
            "analyze-bench: cold {cold_ms:.1} ms, warm {warm_ms:.1} ms ({:.1}x, {} files, {} jobs)",
            if warm_ms > 0.0 { cold_ms / warm_ms } else { 0.0 },
            warm.files_scanned,
            env.scan.jobs
        );
        return finish_scan(opts, &env, warm, &rules);
    }

    let report = analyze_workspace(&env.root, &env.config, &env.scan)?;
    finish_scan(opts, &env, report, &rules)
}

/// Writes reports and prints the human rendering; returns cleanliness.
fn finish_scan(
    opts: &Options,
    env: &Env,
    report: report::Report,
    rules: &[rules::RuleInfo],
) -> Result<bool, String> {
    let report_path = opts
        .report_out
        .clone()
        .or_else(|| std::env::var_os("SDBP_ANALYZE_REPORT").map(PathBuf::from))
        .unwrap_or_else(|| env.root.join("target").join("analyze-report.json"));
    write_out(&report_path, &render_json(&report, rules))?;
    if let Some(sarif_path) = &opts.sarif_out {
        write_out(sarif_path, &sarif::render_sarif(&report, rules))?;
    }

    let human = render_human(&report, rules);
    if opts.quiet {
        if let Some(summary) = human.lines().last() {
            println!("{summary}");
        }
    } else {
        print!("{human}");
    }
    Ok(report.findings.is_empty())
}

/// `--prune`: report (and with `--write`, remove) `[[allow]]` entries
/// that no longer suppress anything. Returns `true` when no stale
/// entries exist (prune does not gate on findings).
fn run_prune(opts: &Options) -> Result<bool, String> {
    let env = resolve(opts)?;
    let report = analyze_workspace(&env.root, &env.config, &env.scan)?;
    let stale: Vec<&config::AllowEntry> = env
        .config
        .allows
        .iter()
        .filter(|entry| {
            !report.allowed.iter().any(|a| {
                a.source == "analyze.toml"
                    && a.finding.rule == entry.rule
                    && (a.finding.path == entry.path
                        || a.finding.path.starts_with(&entry.path))
            })
        })
        .collect();
    if stale.is_empty() {
        println!("prune: no stale [[allow]] entries in {}", env.config_path.display());
        return Ok(true);
    }
    for entry in &stale {
        println!(
            "prune: stale [[allow]] {} at {} ({})",
            entry.rule, entry.path, entry.reason
        );
    }
    if opts.write {
        let text = std::fs::read_to_string(&env.config_path)
            .map_err(|e| format!("cannot read {}: {e}", env.config_path.display()))?;
        let pruned = prune_config_text(
            &text,
            &stale.iter().map(|e| (e.rule.as_str(), e.path.as_str())).collect::<Vec<_>>(),
        );
        std::fs::write(&env.config_path, pruned)
            .map_err(|e| format!("cannot write {}: {e}", env.config_path.display()))?;
        println!(
            "prune: removed {} entr{} from {}",
            stale.len(),
            if stale.len() == 1 { "y" } else { "ies" },
            env.config_path.display()
        );
    } else {
        println!("prune: rerun with --write to remove");
    }
    Ok(false)
}

/// Removes the `[[allow]]` blocks matching `stale` (rule, path) pairs
/// from the TOML text, taking each block's immediately-preceding
/// comment lines with it.
fn prune_config_text(text: &str, stale: &[(&str, &str)]) -> String {
    let lines: Vec<&str> = text.lines().collect();
    // Block = [start, end) line range for each [[allow]]/[[exempt]] header.
    let mut keep = vec![true; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim() != "[[allow]]" {
            i += 1;
            continue;
        }
        let header = i;
        let mut end = i + 1;
        let mut rule = "";
        let mut path = "";
        while end < lines.len() && !lines[end].trim().starts_with("[[") {
            let t = lines[end].trim();
            if let Some(v) = t.strip_prefix("rule") {
                rule = v.trim_start_matches(['=', ' ']).trim_matches('"');
            } else if let Some(v) = t.strip_prefix("path") {
                path = v.trim_start_matches(['=', ' ']).trim_matches('"');
            }
            end += 1;
        }
        if stale.contains(&(rule, path)) {
            // Take immediately-preceding comment lines with the block.
            let mut start = header;
            while start > 0 && lines[start - 1].trim_start().starts_with('#') {
                start -= 1;
            }
            // And one preceding blank separator, if present.
            if start > 0 && lines[start - 1].trim().is_empty() {
                start -= 1;
            }
            // Trailing blank lines inside the block range stay removed
            // with it (they separate it from the next block).
            for flag in keep.iter_mut().take(end).skip(start) {
                *flag = false;
            }
        }
        i = end;
    }
    let mut out = String::new();
    for (line, flag) in lines.iter().zip(&keep) {
        if *flag {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn unknown_flags_and_missing_values_are_usage_errors() {
        assert_eq!(run_cli(&args(&["--frobnicate"])), 2);
        assert_eq!(run_cli(&args(&["--root"])), 2);
        assert_eq!(run_cli(&args(&["--jobs", "zero?"])), 2);
        assert_eq!(run_cli(&args(&["--serial", "--jobs", "4"])), 2);
        assert_eq!(run_cli(&args(&["--write"])), 2, "--write needs --prune");
        assert!(parse_args(&args(&["--help"])).is_err());
    }

    #[test]
    fn list_rules_exits_clean() {
        assert_eq!(run_cli(&args(&["--list-rules"])), 0);
    }

    #[test]
    fn scan_of_clean_and_dirty_trees_yields_exit_codes() {
        let tmp = std::env::temp_dir().join(format!("sdbp-analyze-cli-{}", std::process::id()));
        let src_dir = tmp.join("crates/traceio/src");
        std::fs::create_dir_all(&src_dir).expect("mkdir");
        std::fs::write(tmp.join("Cargo.toml"), "[workspace]\n").expect("manifest");
        std::fs::write(src_dir.join("clean.rs"), "fn f() -> u32 { 0 }\n").expect("write");
        let root = tmp.to_string_lossy().into_owned();
        assert_eq!(run_cli(&args(&["--root", &root, "--quiet"])), 0);

        std::fs::write(src_dir.join("dirty.rs"), "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n")
            .expect("write");
        assert_eq!(run_cli(&args(&["--root", &root, "--quiet"])), 1);
        let json = std::fs::read_to_string(tmp.join("target/analyze-report.json"))
            .expect("report written");
        assert!(json.contains("\"clean\":false"));
        std::fs::remove_dir_all(&tmp).expect("cleanup");
    }

    #[test]
    fn report_flag_overrides_default_path() {
        let tmp = std::env::temp_dir().join(format!("sdbp-analyze-rpt-{}", std::process::id()));
        let src_dir = tmp.join("crates/traceio/src");
        std::fs::create_dir_all(&src_dir).expect("mkdir");
        std::fs::write(tmp.join("Cargo.toml"), "[workspace]\n").expect("manifest");
        std::fs::write(src_dir.join("clean.rs"), "fn f() -> u32 { 0 }\n").expect("write");
        let root = tmp.to_string_lossy().into_owned();
        let custom = tmp.join("out/custom-report.json");
        let custom_arg = custom.to_string_lossy().into_owned();
        assert_eq!(
            run_cli(&args(&["--root", &root, "--quiet", "--report", &custom_arg])),
            0
        );
        assert!(custom.is_file(), "--report path honored");
        assert!(
            !tmp.join("target/analyze-report.json").exists(),
            "default path not written when --report is given"
        );
        std::fs::remove_dir_all(&tmp).expect("cleanup");
    }

    #[test]
    fn sarif_flag_writes_a_sarif_document() {
        let tmp = std::env::temp_dir().join(format!("sdbp-analyze-sarif-{}", std::process::id()));
        let src_dir = tmp.join("crates/traceio/src");
        std::fs::create_dir_all(&src_dir).expect("mkdir");
        std::fs::write(tmp.join("Cargo.toml"), "[workspace]\n").expect("manifest");
        std::fs::write(src_dir.join("dirty.rs"), "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n")
            .expect("write");
        let root = tmp.to_string_lossy().into_owned();
        let sarif = tmp.join("out/findings.sarif");
        let sarif_arg = sarif.to_string_lossy().into_owned();
        assert_eq!(run_cli(&args(&["--root", &root, "--quiet", "--sarif", &sarif_arg])), 1);
        let doc = std::fs::read_to_string(&sarif).expect("sarif written");
        assert!(doc.contains("\"version\":\"2.1.0\""));
        assert!(doc.contains("no-panic-paths"));
        std::fs::remove_dir_all(&tmp).expect("cleanup");
    }

    #[test]
    fn prune_text_removes_stale_blocks_with_their_comments() {
        let text = "# top-of-file header\n\n\
                    # first entry comment\n[[allow]]\nrule = \"a\"\npath = \"p1\"\nreason = \"r\"\n\n\
                    [[allow]]\nrule = \"b\"\npath = \"p2\"\nreason = \"r\"\n";
        let pruned = prune_config_text(text, &[("a", "p1")]);
        assert!(!pruned.contains("first entry comment"), "{pruned}");
        assert!(!pruned.contains("p1"), "{pruned}");
        assert!(pruned.contains("top-of-file header"), "{pruned}");
        assert!(pruned.contains("p2"), "{pruned}");
        let unchanged = prune_config_text(text, &[("zzz", "nope")]);
        assert_eq!(unchanged.trim_end(), text.trim_end());
    }
}
