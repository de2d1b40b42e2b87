//! Strict command-line parsing: anything the harness does not know is an
//! error with the usage text, never silently ignored.

use crate::workloads::WORKLOADS;

/// The usage text printed with every parse error.
pub const USAGE: &str = "\
usage: ompc-perf <run|trace|aa> [flags]

  run     measure end-to-end metrics with tracing off, check every output
  trace   the separate traced run: per-layer metrics and span files
          (the same as `run --trace 1`)
  aa      run the benchmark as several sets of fresh processes, in
          alternation, and compare the sets against the bounds

flags of run and trace:
  --workload <name>   one of dispatch_mpi, dispatch_threaded, data_stencil,
                      awave_survey, sim_paper_scale (default: all five)
  --seed <n>          input seed, a whole number (default 1)
  --seconds <s>       time to measure per workload (default 10)
  --trace <0|1>       0 = end-to-end metrics, 1 = per-layer metrics
  --smoke             CI-sized inputs, three samples per workload
  --out <file>        also write the full report document to <file>

flags of aa:
  --sets <n>          sets to compare (default 2)
  --runs <n>          runs per workload and set, each with its own seed
                      (default 1; 10 reproduces the acceptance check)
  --seconds <s>, --smoke, --out <file>   as above
";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `run` / `trace`.
    Run(RunArgs),
    /// `aa`.
    Aa(AaArgs),
}

/// Flags of `run` and `trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workloads to run, in report order.
    pub workloads: Vec<&'static str>,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure per workload.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// CI-sized inputs.
    pub smoke: bool,
    /// Where to write the full report document.
    pub out: Option<String>,
}

/// Flags of `aa`.
#[derive(Debug, Clone, PartialEq)]
pub struct AaArgs {
    /// Sets to compare.
    pub sets: usize,
    /// Runs per workload and set.
    pub runs: usize,
    /// Seconds to measure per run.
    pub seconds: f64,
    /// CI-sized inputs.
    pub smoke: bool,
    /// Where to write the table.
    pub out: Option<String>,
}

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<&'a str, String> {
    it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("{flag} takes a number, got '{text}'"))
}

fn seconds(text: &str) -> Result<f64, String> {
    let s: f64 = number("--seconds", text)?;
    if s.is_finite() && s >= 0.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be a finite, non-negative number, got '{text}'"))
    }
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = it.next().ok_or("missing sub-command")?;
    match sub.as_str() {
        "run" | "trace" => {
            let mut run = RunArgs {
                workloads: WORKLOADS.iter().map(|w| w.0).collect(),
                seed: 1,
                seconds: 10.0,
                trace: sub == "trace",
                smoke: false,
                out: None,
            };
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--workload" => {
                        let name = value(flag, &mut it)?;
                        let known = WORKLOADS
                            .iter()
                            .find(|w| w.0 == name)
                            .ok_or_else(|| format!("unknown workload '{name}'"))?;
                        run.workloads = vec![known.0];
                    }
                    "--seed" => run.seed = number(flag, value(flag, &mut it)?)?,
                    "--seconds" => run.seconds = seconds(value(flag, &mut it)?)?,
                    "--trace" => {
                        run.trace = match value(flag, &mut it)? {
                            "0" => false,
                            "1" => true,
                            other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                        }
                    }
                    "--smoke" => run.smoke = true,
                    "--out" => run.out = Some(value(flag, &mut it)?.to_string()),
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            Ok(Command::Run(run))
        }
        "aa" => {
            let mut aa = AaArgs { sets: 2, runs: 1, seconds: 10.0, smoke: false, out: None };
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--sets" => aa.sets = number(flag, value(flag, &mut it)?)?,
                    "--runs" => aa.runs = number(flag, value(flag, &mut it)?)?,
                    "--seconds" => aa.seconds = seconds(value(flag, &mut it)?)?,
                    "--smoke" => aa.smoke = true,
                    "--out" => aa.out = Some(value(flag, &mut it)?.to_string()),
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            if aa.sets < 2 || aa.runs < 1 {
                return Err("aa needs --sets >= 2 and --runs >= 1".into());
            }
            Ok(Command::Aa(aa))
        }
        other => Err(format!("unknown sub-command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_invocation_parses() {
        let cmd =
            parse(&args("run --workload data_stencil --seed 7 --seconds 10 --trace 0")).unwrap();
        let Command::Run(run) = cmd else { panic!("not a run") };
        assert_eq!(run.workloads, vec!["data_stencil"]);
        assert_eq!((run.seed, run.seconds, run.trace, run.smoke), (7, 10.0, false, false));
    }

    #[test]
    fn defaults_cover_all_workloads_and_trace_is_run_with_tracing() {
        let Command::Run(run) = parse(&args("run")).unwrap() else { panic!() };
        assert_eq!(run.workloads.len(), 5);
        assert_eq!(run.seed, 1);
        let Command::Run(traced) = parse(&args("trace --smoke")).unwrap() else { panic!() };
        assert!(traced.trace && traced.smoke);
        assert_eq!(parse(&args("run --trace 1")).unwrap(), parse(&args("trace")).unwrap());
    }

    #[test]
    fn anything_unknown_is_an_error() {
        for bad in [
            "",
            "bench",
            "run --quick",
            "run --workload nope",
            "run --workload",
            "run --seed x",
            "run --seed -1",
            "run --seed 1.5",
            "run --seconds soon",
            "run --seconds -3",
            "run --trace 2",
            "run extra",
            "aa --sets 1",
            "aa --sets two",
            "aa --workload dispatch_mpi",
        ] {
            assert!(parse(&args(bad)).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn aa_flags_parse() {
        let Command::Aa(aa) = parse(&args("aa --sets 3 --runs 10 --smoke")).unwrap() else {
            panic!()
        };
        assert_eq!((aa.sets, aa.runs, aa.smoke), (3, 10, true));
    }
}
