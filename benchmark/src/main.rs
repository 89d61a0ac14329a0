//! The perf ledger's runner. See `README.md` beside this crate for the
//! workloads, the metrics and how to read the output; `--list` prints the
//! same tables.

mod cli;
mod host;
mod join;
mod json;
mod layers;
mod report;
mod run;
mod select;
mod selfcheck;
mod spec;
mod stats;
mod trace;
mod workload;

use cli::{Mode, Opts};
use spec::{WorkloadId, WORKLOADS};
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Traces and child results land here, relative to the directory the
/// benchmark is started from (the repository root).
const OUT_DIR: &str = "benchmark/out";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = match (opts.mode, opts.workload) {
        (Mode::List, _) => emit(&report::list()).map(|()| true),
        (Mode::SelfCheck, _) => selfcheck::run(&opts),
        (_, Some(id)) => run_one(id, &opts),
        (_, None) => run_all(&opts),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes to standard output; a closed pipe is an error, not a panic.
pub fn emit(text: &str) -> io::Result<()> {
    io::stdout().lock().write_all(text.as_bytes())
}

fn write_file(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(fs::File::create(path)?);
    write(&mut w)?;
    w.flush()
}

/// Runs one workload in this process. `Ok(false)` when the gate failed.
fn run_one(id: WorkloadId, opts: &Opts) -> io::Result<bool> {
    let r = run::run(
        id,
        run::RunOpts {
            seed: opts.seed,
            seconds: opts.seconds,
            trace: opts.trace,
            smoke: opts.mode == Mode::Smoke,
            corrupt_reference: opts.corrupt_reference,
        },
    );
    let host = host::Host::probe();
    let mut text = report::human(&r, &host);
    if let Some(tr) = &r.spans {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", id.name()));
        write_file(&path, |w| tr.write_jsonl(w))?;
        text.push_str(&format!(
            "## trace: {} spans in {}\n",
            tr.spans().len(),
            path.display()
        ));
    }
    if let Some(path) = &opts.out {
        write_file(path, |w| {
            w.write_all(report::full_json(&r, &host).as_bytes())
        })?;
    }
    text.push_str(&report::driver_line(&r));
    text.push('\n');
    emit(&text)?;
    Ok(r.correct())
}

/// What a child process (one workload) produced.
pub struct ChildRun {
    pub ok: bool,
    /// The `--out` document it wrote.
    pub doc: String,
    pub last_line: String,
}

/// Runs one workload in its own process, so `peak_rss_mb` and allocator
/// state are the workload's alone. The child's report is echoed.
pub fn run_child(id: WorkloadId, opts: &Opts) -> io::Result<ChildRun> {
    let out = PathBuf::from(OUT_DIR).join(format!("result-{}.json", id.name()));
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", id.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out);
    if opts.mode == Mode::Smoke {
        cmd.arg("--smoke");
    }
    if opts.corrupt_reference {
        cmd.arg("--corrupt-reference");
    }
    let output = cmd.output()?;
    io::stderr().write_all(&output.stderr)?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    emit(&stdout)?;
    Ok(ChildRun {
        ok: output.status.success(),
        doc: fs::read_to_string(&out).unwrap_or_default(),
        last_line: stdout.lines().last().unwrap_or_default().to_string(),
    })
}

fn run_all(opts: &Opts) -> io::Result<bool> {
    let mut ok = true;
    let mut docs = Vec::new();
    let mut lines = Vec::new();
    for w in &WORKLOADS {
        let child = run_child(w.id, opts)?;
        ok &= child.ok;
        docs.push(child.doc.trim_end().to_string());
        lines.push(format!("{}: {}", json::quote(w.name), child.last_line));
    }
    if let Some(path) = &opts.out {
        write_file(path, |w| {
            writeln!(w, "{{\"workloads\": [{}]}}", docs.join(", "))
        })?;
    }
    emit(&format!("{{{}}}\n", lines.join(", ")))?;
    Ok(ok)
}
