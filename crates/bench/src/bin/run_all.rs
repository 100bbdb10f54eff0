//! Runs the complete evaluation (Table I, Figures 1-6, ablations, §IV
//! claims, `BENCH_*.json`) and writes every artifact under `results/`.
//!
//! With arguments, runs only the artifacts whose name contains one of them:
//! `run_all fig2_trace` regenerates just `results/fig2_trace.txt`. An
//! argument that matches no artifact is an error.
use asgd_bench::experiments as ex;
use asgd_bench::Env;

fn main() {
    let filters: Vec<String> = std::env::args().skip(1).collect();
    let selected = ex::select(&filters).unwrap_or_else(|e| {
        eprintln!("run_all: {e}");
        std::process::exit(2);
    });
    let env = Env::from_env();
    println!("experiment environment: {env:?}\n");
    let t0 = std::time::Instant::now();
    for (name, run) in selected {
        let csv = run(&env);
        let path = env.write_artifact(name, &csv);
        println!(
            "== {name} ({path:?}, {:.1}s elapsed) ==",
            t0.elapsed().as_secs_f64()
        );
        if name.starts_with("fig4") || name.starts_with("fig5") {
            print!("{}", ex::summarize_curves(&csv));
        } else {
            print!("{csv}");
        }
        println!();
    }
    println!("total: {:.1}s", t0.elapsed().as_secs_f64());
}
