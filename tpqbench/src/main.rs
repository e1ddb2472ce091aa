//! `tpqbench` — the repository benchmark.
//!
//! ```text
//! tpqbench --workload <batch-cold|serve-hot|match-doc|serve-churn|all>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the root of a checkout. It builds the `tpq` binary there,
//! generates the workload's inputs from the seed under `.tpqbench/`,
//! measures for the given seconds, checks every output, and prints a
//! human summary on stderr and one JSON result as the last stdout line.
//! `--trace 1` measures half the window untraced and half with spans on,
//! reports the per-layer metrics, and writes the spans with their self
//! times under `.tpqbench/`. `--workload all` runs every workload that
//! `BENCHMARK.json` names in turn and prints every end-to-end metric by
//! name and unit. See README.md.

mod batch;
mod check;
mod host;
mod inputs;
mod matchdoc;
mod report;
mod serve;
mod stats;
mod trace;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The workloads `BENCHMARK.json` names, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["batch-cold", "serve-hot", "match-doc"];
/// Workloads that run on request but are not in `BENCHMARK.json`:
/// serve-churn's head-of-line latencies multiply the host's steal (see
/// README.md), so they cannot carry a bound.
const EXTRA_WORKLOADS: [&str; 1] = ["serve-churn"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// The measured window (half of it each when traced).
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(if self.trace { self.seconds / 2.0 } else { self.seconds })
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let known = WORKLOADS.iter().chain(&EXTRA_WORKLOADS);
    if args.workload != "all" && !known.clone().any(|w| *w == args.workload) {
        let names: Vec<&str> = known.copied().collect();
        return Err(format!("--workload must be one of {} or all", names.join(", ")));
    }
    Ok(args)
}

/// Paths of one run, all inside the checkout.
#[derive(Debug, Clone)]
pub struct RunDir {
    /// The checkout root (the working directory).
    pub root: PathBuf,
    /// Scratch directory of this workload and seed.
    pub work: PathBuf,
}

impl RunDir {
    fn new(args: &Args) -> Result<RunDir, String> {
        let root = std::env::current_dir().map_err(|e| e.to_string())?;
        if !root.join("crates").is_dir() || !root.join("Cargo.toml").is_file() {
            return Err(format!("{} is not a checkout of the repository", root.display()));
        }
        let work = root.join(".tpqbench").join(format!("{}-{}", args.workload, args.seed));
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        Ok(RunDir { root, work })
    }
}

/// Build the `tpq` binary in the checkout and return its path.
pub fn build_tpq(root: &Path) -> Result<PathBuf, String> {
    let status = std::process::Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "tpq"])
        .current_dir(root)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of tpq failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let bin = target.join("release").join("tpq");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built tpq not found at {}", bin.display()))
    }
}

/// Write the traced run's spans (with self times) as JSON lines and a
/// per-name self-time table into the run directory.
pub fn write_trace(
    dir: &RunDir,
    spans: &[trace::SpanRec],
    self_ns: &[u64],
    by_name: &std::collections::BTreeMap<&'static str, trace::NameStat>,
    out: &mut Outcome,
) {
    let spans_path = dir.work.join("spans.jsonl");
    let table_path = dir.work.join("self_times.txt");
    let mut table = format!(
        "{:<26} {:>9} {:>14} {:>14} {:>12}\n",
        "span", "count", "total_ms", "self_ms", "mean_self_us"
    );
    for (name, s) in by_name {
        table.push_str(&format!(
            "{name:<26} {:>9} {:>14.3} {:>14.3} {:>12.3}\n",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.mean_self_us()
        ));
    }
    let written = std::fs::write(&spans_path, trace::to_json_lines(spans, self_ns))
        .and_then(|()| std::fs::write(&table_path, &table));
    match written {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}; self times in {}",
            spans.len(),
            spans_path.display(),
            table_path.display()
        )),
        Err(e) => out.notes.push(format!("cannot write the trace: {e}")),
    }
    out.notes.extend(table.lines().map(str::to_owned));
}

fn run_one(args: &Args) -> Result<Outcome, String> {
    let dir = RunDir::new(args)?;
    match args.workload.as_str() {
        "batch-cold" => batch::run(args, &dir),
        "serve-hot" => serve::run(args, &dir, false),
        "serve-churn" => serve::run(args, &dir, true),
        "match-doc" => matchdoc::run(args, &dir),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Run every workload `BENCHMARK.json` names in a child process of this
/// program and print each end-to-end metric by name and unit.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        // A run whose outputs failed their checks exits non-zero but still
        // prints its result line.
        ok &= out.as_ref().is_ok_and(|o| o.status.success());
        let line = out
            .as_ref()
            .ok()
            .and_then(|o| String::from_utf8_lossy(&o.stdout).lines().last().map(str::to_owned));
        match line.as_deref().map(tpq_base::Json::parse) {
            Some(Ok(json)) => {
                if json.get("correct").and_then(tpq_base::Json::as_bool) != Some(true) {
                    ok = false;
                }
                rows.push((w, json));
            }
            _ => {
                eprintln!("{w}: no result");
                ok = false;
            }
        }
    }
    println!("{:<12} {:<28} {:>16} unit", "workload", "metric", "value");
    for (w, json) in &rows {
        let attempted = json.get("attempted").and_then(tpq_base::Json::as_f64).unwrap_or(0.0);
        let failed = json.get("failed").and_then(tpq_base::Json::as_f64).unwrap_or(0.0);
        if let Some(metrics) = json.get("metrics").and_then(tpq_base::Json::as_object) {
            for (name, m) in metrics {
                let v = m.get("value").and_then(tpq_base::Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(tpq_base::Json::as_str).unwrap_or("");
                println!("{w:<12} {name:<28} {v:>16.4} {unit}");
            }
        }
        let ratio = if attempted > 0.0 { failed / attempted } else { 1.0 };
        println!("{w:<12} {:<28} {ratio:>16.4} ratio ({failed} of {attempted})", "failed_ratio");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: an output check failed; see the defects above");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(matchdoc::GEN_COMMAND) {
        return match matchdoc::generate_cli(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: tpqbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::FAILURE;
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let host = host::HostInfo::probe();
    trace::set_enabled(false);
    match run_one(&args) {
        Ok(out) => {
            eprintln!(
                "{} seed {} trace {} | host: {} CPUs, {}, {}",
                args.workload,
                args.seed,
                u8::from(args.trace),
                host.nproc,
                host.cpu_model,
                host.rustc
            );
            for note in &out.notes {
                eprintln!("  {note}");
            }
            for m in &out.metrics {
                let samples =
                    if m.samples > 0 { format!(" (n={})", m.samples) } else { String::new() };
                eprintln!("  {:<28} {:>14.4} {}{samples}", m.name, m.value, m.unit);
            }
            eprintln!(
                "  {:<28} {:>14.4} ratio ({} of {} operations)",
                "failed_ratio",
                out.failed_ratio(),
                out.failed,
                out.attempted
            );
            for d in &out.defects {
                let short: String = d.chars().take(200).collect();
                let more = if short.len() < d.len() { " …" } else { "" };
                eprintln!("  DEFECT: {short}{more}");
            }
            println!("{}", out.result_line());
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(3)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload serve-hot --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("serve-hot", 7, 10.0, true));
        assert_eq!(a.window(), Duration::from_secs(5));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload match-doc --trace 2")).is_err());
        assert!(parse_args(&argv("--workload match-doc --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload serve-churn")).is_ok(), "an extra workload");
    }

    /// `all` runs exactly the workloads `BENCHMARK.json` names.
    #[test]
    fn workloads_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let json = tpq_base::Json::parse(&text).expect("BENCHMARK.json parses");
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(tpq_base::Json::as_array)
            .expect("workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(tpq_base::Json::as_str))
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
