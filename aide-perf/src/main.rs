use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match aide_perf::dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("aide-perf: {msg}\n{}", aide_perf::USAGE);
            ExitCode::from(2)
        }
    }
}
