//! Command line of the benchmark. The driver form is
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; `run`,
//! `trace`, `compare` and `manifest` are for people.

use saps_perfbench::report::{self, WorkloadRuns};
use saps_perfbench::{compare, json, metrics, runner, workloads};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run in this process (driver form)
  run (--all | --workload <name>) [--seed <n>] [--seconds <s>] [--repeat <k>]
  trace [--workload <name>] [--seed <n>] [--seconds <s>]
  compare <old.json> <new.json>
  manifest                                                   print BENCHMARK.json";

/// `--flag value` pairs (a bare `--all` reads as `--all true`).
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let name = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{}'", args[i]))?;
        match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(v) => {
                out.insert(name.to_string(), v.clone());
                i += 2;
            }
            None => {
                out.insert(name.to_string(), "true".into());
                i += 1;
            }
        }
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match f.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: '{v}' is not a number")),
        None => Ok(default),
    }
}

fn selected(f: &BTreeMap<String, String>) -> Result<Vec<workloads::WorkloadSpec>, String> {
    match f.get("workload") {
        Some(name) => Ok(vec![workloads::by_name(name).ok_or_else(|| {
            let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
            format!("unknown workload '{name}' (have: {})", names.join(", "))
        })?]),
        None => Ok(workloads::all()),
    }
}

/// One workload in this process; the result is the last line of stdout.
fn single(f: &BTreeMap<String, String>) -> Result<bool, String> {
    let name = f.get("workload").ok_or("--workload is required")?;
    let spec = selected(f)?.remove(0);
    let seed: u64 = number(f, "seed", 1)?;
    let seconds: f64 = number(f, "seconds", metrics::RUN_SECONDS as f64)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds} must be positive"));
    }
    let traced = number::<u8>(f, "trace", 0)? != 0;
    let (out, units) = if traced {
        (
            runner::run_traced(&spec, seed, seconds)?,
            report::layer_units(),
        )
    } else {
        (runner::run(&spec, seed, seconds)?, report::e2e_units())
    };
    println!(
        "workload {name} seed {seed} seconds {seconds} trace {}",
        u8::from(traced)
    );
    println!("input_digest {:016x}", out.input_digest);
    for (metric, v) in &out.metrics {
        println!("{metric} {v} {}", units.get(metric).copied().unwrap_or(""));
    }
    println!("verify_s {} s", out.verify_s);
    println!("ops_attempted {} ops_failed {}", out.attempted, out.failed);
    for line in &out.findings {
        println!("verification failed: {line}");
    }
    println!("{}", report::last_line(&out, &units));
    Ok(out.correct)
}

/// Runs each selected workload in a child process of its own, one at a
/// time, so `peak_rss_mb` is per workload and nothing shares the cores.
fn children(f: &BTreeMap<String, String>, traced: bool) -> Result<bool, String> {
    let seed: u64 = number(f, "seed", 1)?;
    let seconds: f64 = number(f, "seconds", metrics::RUN_SECONDS as f64)?;
    let repeat: usize = number(f, "repeat", 1)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results: BTreeMap<String, WorkloadRuns> = BTreeMap::new();
    let mut all_ok = true;
    for spec in selected(f)? {
        let runs = results.entry(spec.name.to_string()).or_default();
        for rep in 0..repeat.max(1) {
            let out = Command::new(&exe)
                .args(["--workload", spec.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("starting {}: {e}", spec.name))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            let last = lines.pop().unwrap_or("");
            println!("{}", lines.join("\n"));
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let parsed =
                json::parse(last).map_err(|e| format!("{}: no result line ({e})", spec.name))?;
            runs.add(rep, &parsed)?;
            all_ok &= out.status.success();
        }
        all_ok &= runs.correct;
    }
    if !traced {
        let path = runner::out_dir().join(format!("result-{seed}.json"));
        let text = report::result_json(
            &report::fingerprint(seed, seconds),
            &results,
            &report::e2e_units(),
        );
        std::fs::create_dir_all(runner::out_dir()).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(all_ok)
}

fn read(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let f = flags(&args[1..])?;
            if !f.contains_key("all") && !f.contains_key("workload") {
                return Err("run needs --all or --workload <name>".into());
            }
            children(&f, false)
        }
        Some("trace") => children(&flags(&args[1..])?, true),
        Some("compare") => match &args[1..] {
            [old, new] => Ok(compare::compare(&read(old)?, &read(new)?) == 0),
            _ => Err("compare needs two result files".into()),
        },
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        Some(a) if a.starts_with("--") => single(&flags(args)?),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
