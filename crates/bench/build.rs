//! Records the compiler version for the benchmark artifacts' host
//! fingerprint.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    println!("cargo:rustc-env=WITRACK_BENCH_RUSTC={}", version.trim());
    println!("cargo:rerun-if-env-changed=RUSTC");
}
