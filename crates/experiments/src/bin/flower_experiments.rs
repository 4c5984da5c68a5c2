//! Command-line driver regenerating every table and figure of the
//! Flower-CDN paper (§6), plus the engine-scaling sweep.
//!
//! ```text
//! flower-experiments <experiment> [--scale <f|full>] [--seed <n>]
//!                    [--shards <n>] [--instance-bits <b|a,b,..>]
//!                    [--csv-dir <dir>] [--metrics-out <file> [--summary-out <file>]]
//!
//! experiments:
//!   table2a | table2b | table2c | push-threshold
//!   fig5 | fig6 | fig7 | fig8
//!   churn | cache | chaos | all
//!   scale [--nodes <a,b,..>] [--shard-sweep <a,b,..>] [--horizon-secs <s>]
//! ```
//!
//! `--scale 0.1` simulates 2.4 h instead of 24 h (protocol periods
//! scale along); `--scale full` is the paper's exact setup.
//! Every command but `scale` and `chaos` is one declaration of
//! `experiments::claims::SWEEPS`, run by `experiments::exps::sweep`;
//! `all` runs every declaration in order. The §6 commands (`table2a`
//! to `fig8`) end with their claims table (`<cmd>_claims.csv` under
//! `--csv-dir`).
//! `--shards N` runs the simulation engine on N locality shards
//! (worker threads); results are bit-identical for every N.
//! `--instance-bits b` enables the §5.3 PetalUp scale-up: up to `2^b`
//! load-adaptive directory instances per (website, locality) petal
//! (`scale` accepts a comma list and sweeps it).
//! `scale` sweeps node counts × instance bits × shard counts and
//! reports events/sec, wall time and peak queue depth (a table for
//! the eye — the repository's benchmark is `benchmark/run.sh`).
//! `--metrics-out METRICS.json` (for `scale`, `churn` and `chaos`)
//! runs the metrics gate ([`gate::validate_metrics`]) on the registry
//! snapshots of every cell, writes them machine-readably either way,
//! prints the per-subsystem attribution table (`--summary-out` also
//! writes it as markdown) and exits 1 with the gate's message when an
//! invariant fails.
//! Output paths are opened before the first simulation starts: one
//! that cannot be written is refused like any other bad argument.
//! `chaos` runs the fault-injection plane end to end (scripted
//! partition + heal, flash crowd, cross-locality message loss,
//! correlated regional failure), each family across a shard sweep
//! that must stay bit-identical, and reports the availability each
//! fault costs (hit-ratio dip depth, time-to-recover after heal).
//! `--nodes` with a single value overrides the underlay node count of
//! any experiment (e.g. `churn --nodes 50000`, `chaos --nodes 1000`).
//! A flag is taken only by the commands that read it:
//! `--shard-sweep` and `--horizon-secs` by `scale` alone, `--scale`
//! and `--shards` by everything but `scale` and `chaos` (which sweep
//! shard counts of their own over fixed horizons), `--instance-bits`
//! by everything but `chaos`; anywhere else it is an error naming
//! the commands that do.
//! A deployment too small for its D-ring, an unrepresentable
//! `--instance-bits`, more shards than the deployment has localities
//! or a `--scale` that would shrink a protocol period below the 1 ms
//! clock is refused up front with a one-line message.

#![forbid(unsafe_code)]

use std::fs::File;
use std::io::Write;

use experiments::claims::SWEEPS;
use experiments::exps::{self, ExpOutput, ScaleParams};
use experiments::gate;
use experiments::report::{metrics_json, MetricsRecord};
use experiments::runner::{RunOpts, RunScale};
use simnet::SimDuration;

/// Every subcommand, in `usage()` order.
const COMMANDS: &[&str] = &[
    "table2a",
    "table2b",
    "table2c",
    "push-threshold",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "churn",
    "cache",
    "chaos",
    "scale",
    "all",
];

/// The flags `cmd` reads. A flag is accepted only where it is read:
/// anything else would describe a run that does not happen.
fn flags_read_by(cmd: &str) -> Vec<&'static str> {
    let own: &[&str] = match cmd {
        "scale" => &["--instance-bits", "--shard-sweep", "--horizon-secs"],
        "chaos" => &[],
        _ => &["--scale", "--shards", "--instance-bits"],
    };
    let every = [
        "--seed",
        "--nodes",
        "--csv-dir",
        "--metrics-out",
        "--summary-out",
    ];
    every.iter().chain(own).copied().collect()
}

struct Args {
    cmd: String,
    opts: RunOpts,
    csv_dir: Option<String>,
    /// `--metrics-out`: gate the registry snapshots and write them as
    /// METRICS.json.
    metrics_out: Option<String>,
    /// The `scale` sweep: `--nodes`, `--shard-sweep`, `--instance-bits`
    /// and `--horizon-secs` as lists, under `--seed`.
    scale: ScaleParams,
    /// `--summary-out`: where the attribution table goes as markdown.
    summary_out: Option<String>,
}

fn parse_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad list entry {p:?}"))
        })
        .collect()
}

/// A shard count from `--shards` / one `--shard-sweep` entry.
fn shard_count(flag: &str, v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("bad shard count {v:?}")),
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let cmd = args.next().ok_or_else(usage)?;
    if !COMMANDS.contains(&cmd.as_str()) {
        return Err(format!("unknown experiment {cmd:?}\n{}", usage()));
    }
    let mut out = Args {
        cmd,
        opts: RunOpts::new(),
        csv_dir: None,
        metrics_out: None,
        scale: ScaleParams::default(),
        summary_out: None,
    };
    while let Some(a) = args.next() {
        let a = a.as_str();
        let readers: Vec<&str> = COMMANDS
            .iter()
            .copied()
            .filter(|c| flags_read_by(c).contains(&a))
            .collect();
        if !readers.is_empty() && !readers.contains(&out.cmd.as_str()) {
            return Err(format!(
                "`{}` does not read {a}; it is read by {}",
                out.cmd,
                readers.join(", ")
            ));
        }
        match a {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                out.opts.scale = RunScale::parse(&v)?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                out.opts.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--shards" => {
                let v = args.next().ok_or("--shards needs a value")?;
                out.opts.shards = shard_count("--shards", &v)?;
            }
            "--csv-dir" => {
                out.csv_dir = Some(args.next().ok_or("--csv-dir needs a value")?);
            }
            "--metrics-out" => {
                out.metrics_out = Some(args.next().ok_or("--metrics-out needs a value")?);
            }
            "--nodes" => {
                let v = args.next().ok_or("--nodes needs a value")?;
                out.scale.nodes = parse_list(&v)?;
                // Outside `scale` the flag is a single node-count
                // override for the experiment's deployment.
                if out.scale.nodes.len() == 1 {
                    out.opts.nodes = Some(out.scale.nodes[0]);
                } else if out.cmd != "scale" {
                    return Err("--nodes takes a single value outside `scale`".into());
                }
            }
            "--shard-sweep" => {
                let v = args.next().ok_or("--shard-sweep needs a value")?;
                out.scale.shards = v
                    .split(',')
                    .map(|p| shard_count("--shard-sweep", p))
                    .collect::<Result<_, _>>()?;
            }
            "--instance-bits" => {
                let v = args.next().ok_or("--instance-bits needs a value")?;
                let bits: Vec<u32> = parse_list(&v)?.into_iter().map(|b| b as u32).collect();
                if bits.is_empty() {
                    return Err("--instance-bits needs at least one value".into());
                }
                if bits.len() > 1 && out.cmd != "scale" {
                    return Err("an --instance-bits sweep is only valid for `scale`".into());
                }
                out.opts.instance_bits = bits[0];
                out.scale.instance_bits = bits;
            }
            "--horizon-secs" => {
                let v = args.next().ok_or("--horizon-secs needs a value")?;
                let secs = v.parse().map_err(|_| format!("bad horizon {v:?}"))?;
                out.scale.horizon = SimDuration::from_secs(secs);
            }
            "--summary-out" => {
                out.summary_out = Some(args.next().ok_or("--summary-out needs a value")?);
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if out.summary_out.is_some() && out.metrics_out.is_none() {
        return Err("--summary-out needs --metrics-out".into());
    }
    out.scale.seed = out.opts.seed;
    Ok(out)
}

fn usage() -> String {
    format!(
        "usage: flower-experiments <{}> \
         [--scale <f|full>] [--seed <n>] [--shards <n>] \
         [--instance-bits <b|a,b,..>] \
         [--csv-dir <dir>] [--metrics-out <file> [--summary-out <file>]] \
         [--nodes <a,b,..>] [--shard-sweep <a,b,..>] [--horizon-secs <s>]",
        COMMANDS.join("|")
    )
}

/// An output file created (truncated) up front, with the path it was
/// asked for under.
struct OutFile {
    path: String,
    file: File,
}

impl OutFile {
    fn create(flag: &str, path: &str) -> Result<Self, String> {
        let path = path.to_string();
        match File::create(&path) {
            Ok(file) => Ok(OutFile { path, file }),
            Err(e) => Err(format!("cannot write {flag} {path}: {e}")),
        }
    }

    fn write(&mut self, content: &str) -> Result<(), String> {
        self.file
            .write_all(content.as_bytes())
            .map_err(|e| format!("write {}: {e}", self.path))?;
        eprintln!("wrote {}", self.path);
        Ok(())
    }
}

/// Make sure of everything the run will write to before it starts:
/// the CSV directory exists, the `--metrics-out` and `--summary-out`
/// files are created.
fn open_outputs(args: &Args) -> Result<(Option<OutFile>, Option<OutFile>), String> {
    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create --csv-dir {dir}: {e}"))?;
    }
    let open = |flag, path: &Option<String>| {
        path.as_deref()
            .map(|p| OutFile::create(flag, p))
            .transpose()
    };
    Ok((
        open("--metrics-out", &args.metrics_out)?,
        open("--summary-out", &args.summary_out)?,
    ))
}

fn emit(name: &str, out: &ExpOutput, csv_dir: &Option<String>) -> Result<(), String> {
    println!("{}", out.text);
    if let Some(dir) = csv_dir {
        for (stem, content) in &out.csv {
            let path = format!("{dir}/{name}_{stem}.csv");
            std::fs::write(&path, content).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }
    if !out.all_passed() {
        eprintln!("WARNING: {name}: some shape checks failed");
    }
    Ok(())
}

/// `--metrics-out`: gate the records, write the document whatever the
/// verdict (a failed gate is when someone needs to read it), print the
/// attribution table, then report the verdict.
fn gate_and_write(
    records: &[MetricsRecord],
    mut metrics: OutFile,
    summary: Option<OutFile>,
) -> Result<(), String> {
    let host = format!(
        "{} cpus, {}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0),
        std::env::consts::ARCH
    );
    let verdict = gate::validate_metrics(records);
    metrics.write(&metrics_json(&host, records))?;
    let md = gate::metrics_markdown(&host, records);
    println!("{md}");
    if let Some(mut summary) = summary {
        summary.write(&md)?;
    }
    verdict.map_err(|e| format!("{}: {e}", metrics.path))?;
    eprintln!("metrics gate: OK — {} record(s)", records.len());
    Ok(())
}

/// What is about to run, in terms of what the command reads.
fn banner(args: &Args) -> String {
    let reads = flags_read_by(&args.cmd);
    let mut line = format!("# running {}", args.cmd);
    if reads.contains(&"--scale") {
        line += &format!(" at scale {:?}", args.opts.scale);
    }
    line += &format!(" seed {}", args.opts.seed);
    if reads.contains(&"--shards") {
        line += &format!(" with {} shard(s)", args.opts.shards);
    }
    line
}

/// Print one line and exit with `code` (2: refused before running,
/// 1: failed while running).
fn die(code: i32, msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| die(2, &e));
    if let Err(e) = exps::check_deployment_size(&args.cmd, args.opts, &args.scale) {
        die(2, &e);
    }
    let (metrics_out, summary_out) = open_outputs(&args).unwrap_or_else(|e| die(2, &e));
    let opts = args.opts;
    eprintln!("{}", banner(&args));
    let t0 = std::time::Instant::now();
    let mut failed = false;

    let outputs: Vec<(&str, ExpOutput)> = match args.cmd.as_str() {
        "scale" => vec![("scale", exps::scale(&args.scale))],
        "chaos" => vec![("chaos", exps::chaos(opts))],
        cmd => exps::sweep(&declared(cmd), opts),
    };

    let mut metrics_records: Vec<MetricsRecord> = Vec::new();
    for (name, out) in &outputs {
        failed |= !out.all_passed();
        emit(name, out, &args.csv_dir).unwrap_or_else(|e| die(1, &e));
        metrics_records.extend(out.metrics.iter().cloned());
    }
    if let Some(metrics_out) = metrics_out {
        gate_and_write(&metrics_records, metrics_out, summary_out).unwrap_or_else(|e| die(1, &e));
    }
    eprintln!("# done in {:.1}s", t0.elapsed().as_secs_f64());
    if failed {
        std::process::exit(1);
    }
}

/// The declarations ([`SWEEPS`]) `cmd` runs: its own, or every one
/// for `all`, in declaration order.
fn declared(cmd: &str) -> Vec<&'static str> {
    let cmds = SWEEPS.iter().map(|s| s.cmd);
    cmds.filter(|c| cmd == "all" || *c == cmd).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    /// `--nodes` reaches both compared systems: Figures 6–8 build
    /// Flower-CDN and Squirrel from one config, to one horizon.
    #[test]
    fn nodes_reach_both_compared_systems() {
        let cfg = experiments::runner::flower_config(parse("fig6 --nodes 6000").unwrap().opts);
        let fsys = flower_core::FlowerSystem::build(&cfg);
        let ssys = squirrel::SquirrelSystem::build(&cfg);
        assert_eq!(fsys.engine().topology().num_nodes(), 6000);
        assert_eq!(ssys.engine().topology().num_nodes(), 6000);
        assert_eq!(ssys.drain_horizon(), fsys.drain_horizon());
    }

    #[test]
    fn shard_sweep_rejects_zero_and_empty_entries_like_shards_does() {
        assert_eq!(
            parse("fig5 --shards 0").err().unwrap(),
            "--shards must be at least 1"
        );
        assert_eq!(
            parse("scale --shard-sweep 0").err().unwrap(),
            "--shard-sweep must be at least 1"
        );
        assert_eq!(
            parse("scale --shard-sweep 1,0,4").err().unwrap(),
            "--shard-sweep must be at least 1"
        );
        assert!(parse("scale --shard-sweep 1,,4").is_err(), "empty entry");
        assert!(parse("scale --shard-sweep ,").is_err(), "empty entries");
        let ok = parse("scale --shard-sweep 1,2,8").unwrap();
        assert_eq!(ok.scale.shards, vec![1, 2, 8]);
        assert_eq!(parse("fig5 --shards 3").unwrap().opts.shards, 3);
    }

    /// What a retired execution switch or subcommand gets now: it is
    /// simply unknown.
    #[test]
    fn unknown_flags_and_subcommands_get_the_usage_message() {
        for line in [
            "scale --no-such-switch heap",
            "scale --wan",
            "no-such-check",
            "fig5 --substrate pastry",
            "substrates",
            "scale --bench-out x",
            "metrics-check",
            "scale --metrics x",
            "scale --pin",
            "ablation",
            "replication",
        ] {
            let err = parse(line)
                .err()
                .unwrap_or_else(|| panic!("{line:?} accepted"));
            assert!(err.contains("usage: flower-experiments"), "{line:?}: {err}");
        }
        assert!(parse("").err().unwrap().starts_with("usage:"));
    }

    /// Output paths are settled before any experiment runs: what
    /// cannot be written is refused in one line naming it.
    #[test]
    fn unwritable_outputs_are_refused_up_front() {
        // A regular file where a directory is needed.
        let blocker = std::env::temp_dir().join(format!("flower-cli-{}", std::process::id()));
        std::fs::write(&blocker, "").unwrap();
        let under = |name: &str| format!("{}/{name}", blocker.display());
        for line in [
            format!("scale --metrics-out {}", under("M.json")),
            format!("fig5 --csv-dir {}", under("csv")),
        ] {
            let err = open_outputs(&parse(&line).unwrap())
                .err()
                .unwrap_or_else(|| panic!("{line:?} accepted"));
            assert!(err.contains(&under("")), "{line:?}: {err}");
            assert!(!err.contains('\n'), "one line: {err}");
        }
        assert_eq!(
            parse("scale --summary-out s.md").err().unwrap(),
            "--summary-out needs --metrics-out"
        );
        std::fs::remove_file(&blocker).unwrap();
    }

    /// Every `--flag` token of `text`.
    fn flags_in(text: &str) -> std::collections::BTreeSet<&str> {
        text.split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .collect()
    }

    /// The usage line, the parser, the per-command lists and the
    /// module doc name the same flags, and a command takes exactly the
    /// flags on its list.
    #[test]
    fn usage_parser_and_module_doc_agree_on_the_flags() {
        let source = include_str!("flower_experiments.rs");
        // The parser's match arms: `"--flag" => {`.
        let accepted: std::collections::BTreeSet<&str> = source
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("\"--") && l.ends_with("\" => {"))
            .flat_map(flags_in)
            .collect();
        let usage = usage();
        assert_eq!(flags_in(&usage), accepted);
        assert_eq!(accepted.len(), 10, "{accepted:?}");
        let doc: String = source.lines().filter(|l| l.starts_with("//!")).collect();
        let documented = flags_in(&doc);
        for flag in &accepted {
            assert!(documented.contains(flag), "{flag} missing in module doc");
        }
        let mut listed = std::collections::BTreeSet::new();
        for cmd in COMMANDS {
            let reads = flags_read_by(cmd);
            listed.extend(reads.iter().copied());
            for flag in &accepted {
                let err = parse(&format!("{cmd} {flag} 1")).err().unwrap_or_default();
                assert!(!err.contains("unknown flag"), "{cmd} {flag}: {err}");
                assert_eq!(
                    err.starts_with(&format!("`{cmd}` does not read {flag}")),
                    !reads.contains(flag),
                    "{cmd} {flag}: {err:?}"
                );
                assert!(!err.contains('\n'), "one line: {err}");
            }
        }
        assert_eq!(listed, accepted);
    }

    /// The six repros: each flag was accepted and ignored.
    #[test]
    fn a_flag_the_command_never_reads_is_an_error_naming_its_readers() {
        assert_eq!(
            parse("fig5 --horizon-secs 5").err().unwrap(),
            "`fig5` does not read --horizon-secs; it is read by scale"
        );
        assert_eq!(
            parse("fig5 --shard-sweep 1,2").err().unwrap(),
            "`fig5` does not read --shard-sweep; it is read by scale"
        );
        for line in [
            "scale --scale 0.5",
            "scale --shards 4",
            "chaos --shards 4",
            "chaos --scale 0.5",
        ] {
            let err = parse(line).err().unwrap();
            assert!(err.ends_with("churn, cache, all"), "{err}");
            assert!(
                !err.contains("chaos, ") && !err.contains("scale, "),
                "{err}"
            );
        }
        let err = parse("chaos --instance-bits 2").err().unwrap();
        assert!(err.contains("cache, scale, all"), "{err}");
    }

    /// The banner describes the run in the command's own terms.
    #[test]
    fn the_banner_prints_only_what_the_command_reads() {
        assert_eq!(
            banner(&parse("scale --nodes 3000 --shard-sweep 1,2 --horizon-secs 15").unwrap()),
            "# running scale seed 42"
        );
        assert_eq!(
            banner(&parse("chaos --seed 7").unwrap()),
            "# running chaos seed 7"
        );
        assert_eq!(
            banner(&parse("fig5 --scale 0.01 --shards 2").unwrap()),
            "# running fig5 at scale Scaled(0.01) seed 42 with 2 shard(s)"
        );
    }

    #[test]
    fn every_command_in_the_usage_line_parses() {
        for cmd in COMMANDS {
            assert_eq!(parse(cmd).unwrap().cmd, *cmd);
        }
    }

    /// Every §6 command (the first eight) checks at least one claim
    /// row, and every row names a command that runs it; every command
    /// but `scale`, `chaos` and `all` is exactly one declaration, and
    /// `all` runs every declaration in order.
    #[test]
    fn claim_rows_and_section_6_commands_match() {
        use experiments::claims::CLAIMS;
        for cmd in &COMMANDS[..8] {
            assert!(CLAIMS.iter().any(|c| c.figure == *cmd), "{cmd}");
        }
        for c in CLAIMS {
            assert!(COMMANDS.contains(&c.figure), "{}", c.figure);
        }
        for cmd in COMMANDS
            .iter()
            .filter(|c| !["scale", "chaos", "all"].contains(c))
        {
            let decls = SWEEPS.iter().filter(|s| s.cmd == *cmd);
            assert_eq!(decls.count(), 1, "{cmd}");
            assert_eq!(declared(cmd), [*cmd]);
        }
        assert_eq!(
            declared("all"),
            [
                "table2a",
                "table2b",
                "table2c",
                "push-threshold",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "churn",
                "cache"
            ]
        );
    }
}
