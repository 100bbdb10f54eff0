//! `probe <scenario>` — renders one determinism probe (see
//! [`asgd_bench::probe`] for the scenarios and their knobs), prints the
//! report and writes it under `ASGD_OUT_DIR` (default `results/`, where the
//! goldens live — set it for ad-hoc runs).
use asgd_bench::{env_text, probe, Env, Knobs};

fn main() {
    let scenario = std::env::args().nth(1).unwrap_or_default();
    let env = Env::from_env();
    let (artifact, report) = probe::run(&scenario, &env, Knobs(&env_text)).unwrap_or_else(|e| {
        eprintln!("probe: {e}");
        std::process::exit(2);
    });
    print!("{report}");
    let path = env.write_artifact(&artifact, &report);
    eprintln!("wrote {path:?}");
}
