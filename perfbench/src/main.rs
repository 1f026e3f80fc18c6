//! The repository benchmark: runs one workload against the public API of
//! the rnn-monitor crates and prints its metrics, then one JSON result
//! line. See README.md in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Exits 1 when an answer is wrong or a submission was lost, 2 on bad
//! arguments.

#![forbid(unsafe_code)]

mod referee;
mod report;
mod stats;
mod workload;

use workload::{Spec, WORKLOADS};

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut traced) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                spec = Some(Spec::named(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|s| s.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => traced = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let spec = spec.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = workload::run(args.spec, args.seed, args.seconds, args.traced);
    let agg = report::Agg::new(&run);
    print!("{}", report::text(&agg));
    println!("{}", report::json_line(&agg, report::metrics(args.traced)));
    if agg.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload paper-eng2 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.spec.name, a.seed, a.seconds, a.traced),
            ("paper-eng2", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload paper-gma --seed 1 --trace 0").is_err());
        assert!(args("--workload paper-gma --seed x --seconds 1").is_err());
    }

    /// Every workload at a tiny scale: runs, checks its answers, and
    /// emits every metric with a finite value.
    #[test]
    fn tiny_smoke_of_every_workload() {
        for spec in WORKLOADS {
            for traced in [false, true] {
                let run = workload::run(spec.at_scale(0.01), 3, 0.3, traced);
                let agg = report::Agg::new(&run);
                assert!(
                    run.ticks.len() > 10,
                    "{}: {} ticks",
                    spec.name,
                    run.ticks.len()
                );
                assert!(
                    run.checked > 0,
                    "{}: the referee checked nothing",
                    spec.name
                );
                assert_eq!(agg.failed, 0, "{}: {:?}", spec.name, run.first_mismatch);
                let line = report::json_line(&agg, report::metrics(traced));
                for m in report::metrics(traced) {
                    assert!((m.value)(&agg).is_finite(), "{}: {}", spec.name, m.name);
                    assert!(line.contains(&format!("\"{}\":", m.name)));
                }
                assert!(report::text(&agg).contains("error_rate"));
            }
        }
    }
}
