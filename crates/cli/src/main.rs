//! `aimts-cli` — command-line workflows for the AimTS reproduction.
//!
//! ```text
//! aimts-cli generate  --archive ucr --n 4 --seed 42 --out ./data
//! aimts-cli pretrain  --pool-per-source 8 --epochs 2 --out ./ckpt.json
//! aimts-cli finetune  --ckpt ./ckpt.json --data-dir ./data --name ucr_like_000_sensor
//! aimts-cli demo      --dataset ecg200
//! aimts-cli render    --dataset starlight --index 0 --out ./sample.ppm
//! ```
//!
//! Argument parsing is deliberately dependency-free (`--key value` pairs).

#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::let_underscore_must_use
    )
)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let args = match args::Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => commands::generate(&args),
        "pretrain" => commands::pretrain(&args),
        "finetune" => commands::finetune(&args),
        "demo" => commands::demo(&args),
        "render" => commands::render(&args),
        "info" => commands::info(&args),
        "export-json" => commands::export_json(&args),
        "serve" => commands::serve(&args),
        "loadgen" => commands::loadgen(&args),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
