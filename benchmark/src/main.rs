fn main() -> std::process::ExitCode {
    clickinc_benchmark::cli::main(std::env::args().skip(1).collect())
}
