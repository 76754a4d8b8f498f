//! Spec→report benchmark of gcsids (see `README.md` next to this
//! package's manifest).
//!
//! ```text
//! perfbench --workload <mission|sweep|stochastic|drain> --seed <n>
//!           --seconds <s> --trace <0|1> [--write-reference]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! instrumentation; with `--trace 1` it times the calls into each layer's
//! public functions from this package's own code and prints the per-layer
//! metrics. The last line of standard output is the JSON result; the exit
//! code is non-zero when any operation failed or any output was wrong.

mod inputs;
mod measure;
mod reference;
mod trace;
mod workloads;

use measure::Outcome;
use reference::Reference;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--write-reference" => args.write_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut refs = Reference::load(&args.workload, args.write_reference)?;
    if args.trace {
        trace::run(args, &mut out, &mut refs)?;
    } else {
        // The timed run measures one worker thread: keep it, the service
        // worker it may start and the calibration kernel on one CPU.
        match measure::pin_to_current_cpu() {
            Some(cpu) => println!("pinned to CPU {cpu}"),
            None => println!("not pinned: the kernel refused the CPU affinity"),
        }
        let samples = match args.workload.as_str() {
            "mission" => workloads::mission(args, &mut out, &mut refs),
            "sweep" => workloads::sweep(args, &mut out, &mut refs),
            "stochastic" => workloads::stochastic(args, &mut out, &mut refs),
            "drain" => workloads::drain(args, &mut out),
            other => return Err(format!("unknown workload `{other}`")),
        };
        samples.report(&mut out);
    }
    refs.save()?;
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            out.print();
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
