//! Strict command line: an unknown flag, an unknown workload or a value
//! that does not parse is an error (exit 2 with usage), never a silent
//! fall-back to a default.

use crate::spec::{WorkloadId, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;

pub const USAGE: &str = "\
usage: hwspatial-benchmark [--workload <name|all>] [--seed <u64>] [--seconds <n>]
                           [--trace [0|1]] [--out <file>]
                           [--list | --selfcheck | --smoke] [--corrupt-reference]

  --workload <name|all>  select-warm, select-small, join-hw, join-sw (default: all;
                         each workload runs in its own process)
  --seed <u64>           seed of the query stream: selection windows, join distances
                         (default 42; the dataset corpus is fixed)
  --seconds <n>          spend n seconds on set-up cycles and timed rounds (default 25)
  --trace [0|1]          1: add a traced round, write benchmark/out/trace-<workload>.jsonl,
                         and end with the per-layer metrics instead of the end-to-end ones
  --out <file>           also write the full result (header, both metric sets) as JSON
  --list                 print every workload and metric, then exit
  --selfcheck            A/A mode: two sets of three runs per workload must agree within
                         the bounds, exact counters bit for bit; plus one workload at seed 7
  --smoke                one set-up (cold + warm round) of the first tenth of each
                         sequence, gate on
  --corrupt-reference    flip one reference hash; the run must then exit non-zero";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Run,
    List,
    SelfCheck,
    Smoke,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opts {
    /// `None` is `all`.
    pub workload: Option<WorkloadId>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub mode: Mode,
    pub corrupt_reference: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            workload: None,
            seed: 42,
            seconds: RUN_SECONDS,
            trace: false,
            out: None,
            mode: Mode::Run,
            corrupt_reference: false,
        }
    }
}

pub fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut i = 0;
    fn set_mode(opts: &mut Opts, mode: Mode) -> Result<(), String> {
        if opts.mode != Mode::Run {
            return Err("--list, --selfcheck and --smoke exclude one another".to_string());
        }
        opts.mode = mode;
        Ok(())
    }
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let mut value = || {
            i += 1;
            args.get(i - 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let name = value()?;
                opts.workload = match name {
                    "all" => None,
                    _ => Some(WorkloadId::from_name(name).ok_or_else(|| {
                        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!(
                            "unknown workload {name:?} (known: {}, all)",
                            known.join(", ")
                        )
                    })?),
                };
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .map_err(|_| format!("--seconds: {v:?} is not a whole number"))?;
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand the bare flag means 1.
                opts.trace = match args.get(i).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    Some(v) if !v.starts_with("--") => {
                        return Err(format!("--trace: {v:?} is neither 0 nor 1"));
                    }
                    _ => true,
                };
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--list" => set_mode(&mut opts, Mode::List)?,
            "--selfcheck" => set_mode(&mut opts, Mode::SelfCheck)?,
            "--smoke" => set_mode(&mut opts, Mode::Smoke)?,
            "--corrupt-reference" => opts.corrupt_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Opts, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let o = parse_str("--workload join-hw --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(o.workload, Some(WorkloadId::JoinHw));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10, true));
        let o = parse_str("--workload select-warm --seed 1 --seconds 3 --trace 0").unwrap();
        assert!(!o.trace);
        assert_eq!(parse_str("").unwrap(), Opts::default());
        assert_eq!(parse_str("--workload all").unwrap().workload, None);
    }

    #[test]
    fn bare_trace_means_on_and_may_be_followed_by_a_flag() {
        let o = parse_str("--trace --seed 9").unwrap();
        assert!(o.trace);
        assert_eq!(o.seed, 9);
        assert!(parse_str("--trace").unwrap().trace);
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for bad in [
            "--sead 42",
            "--workload select-hot",
            "--seed forty-two",
            "--seed -1",
            "--seed",
            "--seconds 1.5",
            "--trace 2",
            "--trace yes",
            "--out",
            "--list --smoke",
            "join-hw",
        ] {
            assert!(parse_str(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn modes_and_switches() {
        assert_eq!(parse_str("--list").unwrap().mode, Mode::List);
        assert_eq!(parse_str("--selfcheck").unwrap().mode, Mode::SelfCheck);
        assert_eq!(parse_str("--smoke --seed 3").unwrap().mode, Mode::Smoke);
        let o = parse_str("--corrupt-reference --out x.json").unwrap();
        assert!(o.corrupt_reference);
        assert_eq!(o.out, Some(PathBuf::from("x.json")));
    }
}
