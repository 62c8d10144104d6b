//! Every gate binary refuses a bad command line with exit status 2 and
//! its usage text, before it builds or times anything.

use std::process::Command;

/// Each gate binary with command lines it must refuse.
const CASES: [(&str, &[&[&str]]); 5] = [
    (
        env!("CARGO_BIN_EXE_host_throughput"),
        &[
            &["--check", "--repeats", "0"],
            &["--threads"],
            &["--heavy", "x"],
        ],
    ),
    (
        env!("CARGO_BIN_EXE_simd_wavefront"),
        &[
            &["--check", "--repeats", "0"],
            &["--repeats", "x"],
            &["--len", "0"],
        ],
    ),
    (
        env!("CARGO_BIN_EXE_serve_throughput"),
        &[&["--repeats"], &["--requests", "0"], &["--check"]],
    ),
    (
        env!("CARGO_BIN_EXE_index_build"),
        &[&["--repeats", "0"], &["--shards", "many"]],
    ),
    (
        env!("CARGO_BIN_EXE_overhead"),
        &[
            &["--scale", "huge"],
            &["--max-anchors", "x"],
            &["--repeats", "0"],
        ],
    ),
];

#[test]
fn bad_flags_exit_2_with_usage() {
    // A binary that wrongly accepts a command line writes its report to
    // the working directory, so keep that out of the source tree.
    let scratch = std::env::temp_dir();
    for (bin, bad) in CASES {
        for args in bad {
            let out = Command::new(bin)
                .args(*args)
                .current_dir(&scratch)
                .output()
                .expect("spawn gate binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
            assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        }
    }
}
