//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use perfbench::{parse_args, result_json, run, workloads::Size};

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let o = run(&args, Size::Full);
    println!(
        "workload={} seed={} trace={} reps={} digest={:#018x} reference_kernel_ms={:.3}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        o.reps,
        o.digest,
        o.calibration_ms
    );
    for (name, v, unit) in &o.metrics {
        println!("  {name:<34} {v:>16.6e} {unit}");
    }
    println!(
        "  {:<34} {:>16.6e} ratio",
        "failed_frac",
        o.failed as f64 / o.attempted as f64
    );
    let per_rep: Vec<String> = o
        .host_per_rep
        .iter()
        .map(|h| format!("{:.1}", h / 1e3))
        .collect();
    println!(
        "host ktxn/s per repetition (wall, unscaled): {}",
        per_rep.join(" ")
    );
    if let Some(p) = &o.trace_path {
        println!("chrome trace: {p}");
    }
    for e in &o.errors {
        println!("CHECK FAILED: {e}");
    }
    println!("{}", result_json(&o));
}
