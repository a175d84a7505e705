//! Records the compiler flags the benchmark was built with, so every
//! result names the code generation it measured (the repository's
//! `.cargo/config.toml` sets `-C target-cpu=native`).

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!("cargo:rustc-env=BENCH_RUSTFLAGS={}", flags.replace('\x1f', " "));
    println!("cargo:rustc-env=BENCH_PROFILE={}", std::env::var("PROFILE").unwrap_or_default());
    println!("cargo:rerun-if-changed=build.rs");
}
