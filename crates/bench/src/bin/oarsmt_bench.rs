//! `oarsmt_bench <lane> [flags…]`: the throughput runner (see
//! `oarsmt_bench::runner` for the lanes and their flags).

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(oarsmt_bench::runner::main(&args));
}
