//! `flower-bench`: the end-to-end half of the benchmark.
//!
//! * `flower-bench run --workload W --seed N --seconds S` — measure one
//!   workload in [`repetitions`]`(S)` repetitions, one child process
//!   each, and end with the one-line JSON result.
//! * `flower-bench suite [--reps N] [--seed N] [--selfcheck]` — every
//!   workload, repetitions interleaved, tables of median / quartiles /
//!   sample count, then one traced run per workload.
//! * `flower-bench cell …` — one repetition; what the other two spawn.

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use flower_benchmark::cell::{Cell, SLICES};
use flower_benchmark::child::{run_cell, sibling_exe};
use flower_benchmark::cli::Args;
use flower_benchmark::endtoend::{self, Better, Kind, END_TO_END};
use flower_benchmark::output::result_line;
use flower_benchmark::stats::Summary;
use flower_benchmark::workloads::Workload;

/// Fewest repetitions a measurement rests on.
const MIN_REPS: usize = 3;

/// Host seconds one repetition is sized to run for on the reference
/// host (see `workloads.rs`).
const NOMINAL_REP_S: f64 = 3.0;

/// Longest `--seconds` accepted: the most `BENCHMARK.json` may ask for.
const MAX_SECONDS: f64 = 60.0;

/// Host seconds past `--seconds` after which a run starts no further
/// repetition. The acceptance harness allots every invocation a fixed
/// share of an hour; a host slowed by half would otherwise stretch
/// every run by half and overrun it.
const DEADLINE_SLACK_S: f64 = 8.0;

/// Repetitions a `--seconds S` run plans. They follow from `S` alone,
/// never from how fast the code under test runs, so two commits
/// measured with the same settings rest on equally many samples. Only a
/// host disturbed enough to reach the deadline gets fewer.
fn repetitions(seconds: f64) -> usize {
    ((seconds / NOMINAL_REP_S).round() as usize).max(MIN_REPS)
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let args = Args::from_env(2);
    let outcome = match mode.as_str() {
        "cell" => cell(&args),
        "run" => run(&args),
        "suite" => suite(&args),
        _ => Err("usage: flower-bench run|suite|cell [--workload W] [--seed N] …".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("flower-bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn workload_arg(args: &Args) -> Result<Workload, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })
}

/// One repetition, in this process.
fn cell(args: &Args) -> Result<bool, String> {
    let workload = workload_arg(args)?;
    let cell = Cell::run(workload, args.number("--seed", 42)?, SLICES, |_| ());
    print!("{}", cell.to_lines());
    Ok(true)
}

/// The repetitions of one workload, with its shard-parity reference.
struct Measured {
    workload: Workload,
    reps: Vec<Cell>,
    reference: Option<Cell>,
}

impl Measured {
    fn failures(&self) -> Vec<String> {
        endtoend::check(self.workload, &self.reps, self.reference.as_ref())
    }
}

/// One workload, measured in the repetitions `--seconds` asks for.
fn run(args: &Args) -> Result<bool, String> {
    let workload = workload_arg(args)?;
    let seed = args.number("--seed", 42u64)?;
    let seconds = args.number("--seconds", 30.0f64)?;
    if !(seconds > 0.0 && seconds <= MAX_SECONDS) {
        return Err(format!(
            "--seconds must be in (0, {MAX_SECONDS}], got {seconds}"
        ));
    }
    let mut m = Measured {
        workload,
        reps: Vec::new(),
        reference: None,
    };
    if let Some(reference) = workload.parity_reference() {
        m.reference = Some(run_cell(reference, seed)?);
    }
    let planned = repetitions(seconds);
    let started = Instant::now();
    while m.reps.len() < planned {
        let late = started.elapsed().as_secs_f64() > seconds + DEADLINE_SLACK_S;
        if late && m.reps.len() >= MIN_REPS {
            println!(
                "deadline: {} of {planned} planned repetitions in {:.1} s; the host is disturbed",
                m.reps.len(),
                started.elapsed().as_secs_f64()
            );
            break;
        }
        m.reps.push(run_cell(workload, seed)?);
    }
    print_table(&m);
    println!("{}", per_repetition_line(&m, seed));
    let failures = m.failures();
    for f in &failures {
        println!("CHECK FAILED {f}");
    }
    let values = endtoend::metrics(&m.reps);
    let reported: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(d, v)| (d.name.to_string(), v, d.unit))
        .collect();
    let attempted = m.reps.len() + m.reference.iter().len();
    println!(
        "{}",
        result_line(attempted, failures.len().min(attempted), &reported)?
    );
    Ok(failures.is_empty())
}

/// The end-to-end table of one workload.
fn print_table(m: &Measured) {
    let reps = &m.reps;
    println!(
        "\n== {}  (n = {} repetitions, sim_fingerprint {:016x})",
        m.workload.name(),
        reps.len(),
        reps[0].sim_fingerprint
    );
    println!(
        "{:<26} {:>8} {:>4}  {:>14}   per repetition: median [q1, q3] n",
        "metric", "unit", "kind", "value"
    );
    let spread = |samples: &[f64]| {
        let s = Summary::of(samples);
        format!("   {:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n)
    };
    let host = endtoend::host_samples(reps);
    for (i, (d, v)) in END_TO_END.iter().zip(endtoend::metrics(reps)).enumerate() {
        let kind = match d.kind {
            Kind::Host => "H",
            Kind::Sim => "S",
        };
        println!(
            "{:<26} {:>8} {:>4}  {:>14.6}{}",
            d.name,
            d.unit,
            kind,
            v,
            host.get(i).map_or(String::new(), |samples| spread(samples))
        );
    }
    for (name, samples) in endtoend::raw_samples(reps) {
        println!(
            "{name:<26} {:>8} {:>4}  {:>14}{}",
            "",
            "H",
            "",
            spread(&samples)
        );
    }
}

/// What each repetition measured on its own, as one JSON object: the
/// distribution behind the result line's host metrics (reference
/// seconds), what the clock read before scaling, and the seed and the
/// fingerprint two commits are compared by.
fn per_repetition_line(m: &Measured, seed: u64) -> String {
    let named = END_TO_END.iter().map(|d| d.name);
    let fields: Vec<String> = named
        .zip(endtoend::host_samples(&m.reps))
        .chain(endtoend::raw_samples(&m.reps))
        .map(|(name, samples)| {
            let s = Summary::of(&samples);
            format!(
                "\"{name}\": {{\"median\": {:?}, \"q1\": {:?}, \"q3\": {:?}, \"n\": {}}}",
                s.median, s.q1, s.q3, s.n
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"sim_fingerprint\": \"{:016x}\", \"per_repetition\": {{{}}}}}",
        m.workload.name(),
        m.reps[0].sim_fingerprint,
        fields.join(", ")
    )
}

/// Every workload, repetitions interleaved; optionally twice over, to
/// see whether two sets of the same code agree within the bounds.
fn suite(args: &Args) -> Result<bool, String> {
    let reps = args.number("--reps", MIN_REPS)?.max(MIN_REPS);
    let seed = args.number("--seed", 42u64)?;
    let sets = if args.flag("--selfcheck") { 2 } else { 1 };
    println!(
        "flower-bench suite: seed {seed}, {reps} repetitions per workload, {} host threads",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut ok = true;
    let mut medians: Vec<Vec<Vec<f64>>> = Vec::new();
    for set in 0..sets {
        if sets > 1 {
            println!("\n#### set {} of {sets}", set + 1);
        }
        let mut measured = Workload::ALL.map(|workload| Measured {
            workload,
            reps: Vec::new(),
            reference: None,
        });
        for _ in 0..reps {
            for m in &mut measured {
                m.reps.push(run_cell(m.workload, seed)?);
            }
        }
        for i in 0..measured.len() {
            if let Some(reference) = measured[i].workload.parity_reference() {
                let of = measured.iter().find(|m| m.workload == reference);
                measured[i].reference = of.map(|m| m.reps[0].clone());
            }
        }
        let mut set_medians = Vec::new();
        for m in &measured {
            print_table(m);
            for f in m.failures() {
                println!("CHECK FAILED {f}");
                ok = false;
            }
            set_medians.push(endtoend::metrics(&m.reps));
        }
        medians.push(set_medians);
    }

    if args.flag("--no-trace") {
        println!(
            "\ntrace unavailable: --no-trace (flower-bench-trace was not built or not wanted)"
        );
    } else {
        ok &= trace_all(seed)?;
    }
    if sets == 2 {
        ok &= selfcheck(&medians[0], &medians[1]);
    }
    println!(
        "\n{{\"suite\": \"flower-bench\", \"seed\": {seed}, \"reps\": {reps}, \"checks_passed\": {ok}, \"claim\": null}}"
    );
    Ok(ok)
}

/// One traced run per workload, through the trace binary if it built.
fn trace_all(seed: u64) -> Result<bool, String> {
    let exe = sibling_exe("flower-bench-trace")?;
    if !exe.exists() {
        println!("\ntrace unavailable: {} was not built", exe.display());
        return Ok(true);
    }
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}

/// Whether two sets of the same code and seed agree: every simulated
/// metric exactly, every host metric no worse in the second set than in
/// the first by more than its bound, per workload.
fn selfcheck(first: &[Vec<f64>], second: &[Vec<f64>]) -> bool {
    println!("\n#### selfcheck: second set against first, per metric and workload");
    let mut ok = true;
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        for (k, d) in END_TO_END.iter().enumerate() {
            let (a, b) = (first[i][k], second[i][k]);
            let worse = match d.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let (allowed, agree) = match d.kind {
                Kind::Host => (d.bound, worse <= d.bound),
                Kind::Sim => (0.0, a == b),
            };
            ok &= agree;
            println!(
                "{:<16} {:<26} {a:>14.6} {b:>14.6}  worse by {:>+8.4} of {:.3} allowed  {}",
                w.name(),
                d.name,
                worse,
                allowed,
                if agree { "agree" } else { "DISAGREE" }
            );
        }
    }
    ok
}
