//! Never-panic properties for the decoders of outside input: Matrix Market
//! text (`fafnir spmv --mtx`) and query-trace text.
//! Arbitrary bytes, and arbitrary text decoded through
//! `String::from_utf8_lossy`, must come back as a value or the decoder's
//! typed error, never as a panic or an aborted allocation. Besides raw
//! noise, the Matrix Market properties start from a valid header (and a
//! size line of arbitrary counts), so the noise reaches the size and entry
//! parsers instead of stopping at the first line.

use fafnir_sparse::mtx;
use fafnir_workloads::QueryTrace;
use proptest::collection::vec;
use proptest::prelude::*;

const MTX_HEADERS: [&str; 3] = [
    "%%MatrixMarket matrix coordinate real general\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n",
    "%%MatrixMarket matrix coordinate integer skew-symmetric\n",
];

/// Characters that numeric line formats are built from, so drawn text
/// looks like entry lines often enough to get past the tokenizers.
const NUMERIC_TEXT: &[u8] = b"0123456789 \n-.e%#x";

fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn numeric_text(picks: &[usize]) -> String {
    picks.iter().map(|&pick| char::from(NUMERIC_TEXT[pick % NUMERIC_TEXT.len()])).collect()
}

/// A parse either yields a matrix whose entries lie inside its declared
/// shape, a shape small enough to hold, or an error that names a line of
/// the input (0 for the whole).
fn check_mtx(text: &str) -> Result<(), TestCaseError> {
    match mtx::parse(text) {
        Ok(matrix) => {
            prop_assert!(matrix.rows() <= mtx::MAX_DIMENSION);
            prop_assert!(matrix.cols() <= mtx::MAX_DIMENSION);
            for &(row, col, _) in matrix.entries() {
                prop_assert!(row < matrix.rows() && col < matrix.cols());
            }
        }
        Err(error) => prop_assert!(error.line <= text.lines().count()),
    }
    Ok(())
}

/// A parsed trace survives its own text round trip; an error names a line.
fn check_trace(text: &str) -> Result<(), TestCaseError> {
    match QueryTrace::from_text(text) {
        Ok(trace) => prop_assert_eq!(QueryTrace::from_text(&trace.to_text()), Ok(trace)),
        Err(error) => prop_assert!(error.line >= 1 && error.line <= text.lines().count()),
    }
    Ok(())
}

/// A few bytes declaring a 10^12 x 10^12 shape used to parse, then abort
/// the process allocating 8 TB of per-row degree counts.
#[test]
fn mtx_parse_rejects_a_shape_too_large_to_hold() {
    let text = "%%MatrixMarket matrix coordinate real general\n\
                1000000000000 1000000000000 1\n1 1 1.0\n";
    let error = mtx::parse(text).expect_err("a 10^12 x 10^12 shape must be refused");
    assert_eq!(error.line, 2, "{error}");
    assert!(error.message.contains("1000000000000 x 1000000000000"), "{error}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mtx_parse_never_panics_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..512)) {
        check_mtx(&lossy(&bytes))?;
    }

    #[test]
    fn mtx_parse_never_panics_after_a_valid_header(
        header in 0..MTX_HEADERS.len(),
        bytes in vec(any::<u8>(), 0..256),
        picks in vec(0..NUMERIC_TEXT.len(), 0..256),
    ) {
        check_mtx(&format!("{}{}", MTX_HEADERS[header], lossy(&bytes)))?;
        check_mtx(&format!("{}{}", MTX_HEADERS[header], numeric_text(&picks)))?;
    }

    #[test]
    fn mtx_parse_never_panics_on_arbitrary_declared_counts(
        header in 0..MTX_HEADERS.len(),
        rows in prop_oneof![0u64..6, any::<u64>()],
        cols in prop_oneof![0u64..6, any::<u64>()],
        nnz in prop_oneof![0u64..6, any::<u64>()],
        picks in vec(0..NUMERIC_TEXT.len(), 0..256),
    ) {
        let size_line = format!("{rows} {cols} {nnz}\n");
        check_mtx(&format!("{}{size_line}{}", MTX_HEADERS[header], numeric_text(&picks)))?;
    }

    #[test]
    fn trace_from_text_never_panics(
        bytes in vec(any::<u8>(), 0..512),
        picks in vec(0..NUMERIC_TEXT.len(), 0..256),
    ) {
        check_trace(&lossy(&bytes))?;
        check_trace(&numeric_text(&picks))?;
    }
}
