//! CLI output bytes, pinned.
//!
//! Runs the built `fafnir` binary on a fixed list of valid invocations and
//! compares an FNV-1a digest of each one's stdout with the recorded value.
//! Any change to parsing, defaults or report formatting that alters a
//! single byte of a valid run's output fails here.

use std::process::Command;

/// Recorded stdout digests, one per invocation.
const EXPECTED: &[(&str, u64)] = &[
    ("serve --json --duration-queries 48", 0x22c0_b8cb_13ad_ccc1),
    ("serve --json --sweep-windows 1000,4000 --duration-queries 48", 0xe07a_9d5b_dbc3_da0b),
    (
        "serve --json --workers 2 --faults slow:8:1 --hedge-ns 3000 --duration-queries 48",
        0x9b85_14fc_577c_ad21,
    ),
    ("serve --duration-queries 48", 0x2a6e_6815_3c26_1ebc),
    (
        "serve --process onoff --policy size --shed drop-oldest --queue-capacity 64 \
         --batch 8 --rate 5e5 --skew 0 --universe 5000 --query-len 8 --seed 3 \
         --duration-queries 48",
        0x039f_b877_81f3_cf78,
    ),
    (
        "serve --json --workers 2 --faults crash:20000:10000 --retries 3 --timeout-ns 50000 \
         --backoff-ns 500 --policy deadline --max-wait-ns 20000 --op mean --no-dedup \
         --memory-model fast --duration-queries 48",
        0x0a4d_7c6d_b324_61eb,
    ),
    ("cluster --json --memory-model fast --duration-queries 48", 0xeddd_dc1e_f3a8_931a),
    (
        "cluster --json --strategy rowhash --replicate-hot 0.02 --duration-queries 48",
        0x6f0a_a3fc_251a_3ff2,
    ),
    (
        "cluster --shards 2 --strategy tablewise --rows-per-table 100 --router leastloaded \
         --rate 2e6 --workers 2 --skew 0.8 --query-len 8 --seed 5 --op max --no-dedup \
         --memory-model fast --duration-queries 48",
        0x7973_040a_b1aa_03bd,
    ),
    ("spmv --gen rmat --partition nnz --ranks 4 --json --rows 256", 0x458b_7d94_b945_dd09),
    ("spmv --gen banded --rows 256", 0x99be_478e_783a_aaa7),
    (
        "spmv --gen uniform --density 0.02 --rows 256 --seed 3 --vector-size 64",
        0xa9aa_0b1a_1800_0ef3,
    ),
    ("spmv --gen spd --bandwidth 2 --rows 256", 0x379d_8741_6d74_8bbc),
    (
        "spmv --gen rmat --nnz 1000 --rows 256 --partition grid --ranks 4 --stream",
        0x84fd_da28_08b9_6e6a,
    ),
    ("lookup --batch 8", 0xbcda_3f13_20a1_97bf),
    ("lookup --op topk:4 --memory-model fast", 0xe979_da04_c78d_6c22),
    ("lookup --engine fafnir --interactive", 0x3d76_d5a5_9c0a_1d89),
    (
        "lookup --batch 4 --query-len 8 --skew 0 --universe 5000 --ranks 16 --seed 2 \
         --engine recnmp --no-dedup --refresh",
        0x20bf_67cd_adaa_c0d5,
    ),
    ("report", 0x380d_8608_fbf5_e33d),
    ("report --ranks 16 --ratio 4 --cores 8", 0xea6d_9bde_5c7d_bfb9),
    ("anatomy --batch 3", 0xb35b_1e59_a5de_a56c),
    (
        "anatomy --batch 2 --query-len 4 --ranks 4 --skew 0.9 --universe 500 --seed 9",
        0xd4d3_ce7a_4cad_5673,
    ),
    ("energy --batch 8", 0x048b_c159_835f_6ed9),
    ("energy --batch 4 --query-len 8 --skew 0 --universe 300 --seed 4", 0xbb84_53ef_f04a_8eb2),
    ("selftest --ranks 16 --batches 2", 0x830f_f033_6877_4b0f),
    ("selftest --ranks 8 --ratio 1 --batches 1 --seed 3", 0x34ef_adaa_959f_f886),
    ("trace --record 10", 0x3ea6_2169_2510_b23a),
    ("trace --record 6 --query-len 4 --skew 0 --universe 100 --seed 3", 0x9208_d40d_b9ad_24d0),
];

/// FNV-1a over the output bytes.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_pinned_invocation_prints_the_recorded_bytes() {
    let mut failures = Vec::new();
    for &(line, expected) in EXPECTED {
        let output = Command::new(env!("CARGO_BIN_EXE_fafnir"))
            .args(line.split_whitespace())
            .output()
            .expect("run the fafnir binary");
        if !output.status.success() {
            failures.push(format!(
                "`{line}` failed: {}",
                String::from_utf8_lossy(&output.stderr).trim()
            ));
            continue;
        }
        let got = digest(&output.stdout);
        if got != expected {
            failures.push(format!("`{line}`: {got:#018x}"));
        }
    }
    assert!(failures.is_empty(), "output bytes moved:\n{}", failures.join("\n"));
}
