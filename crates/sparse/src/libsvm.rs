//! Reader/writer for the Extreme Classification repository's multi-label
//! libSVM text format.
//!
//! The format (used by Amazon-670k, Delicious-200k, …):
//!
//! ```text
//! num_points num_features num_labels      <- header line
//! l1,l2,l3 f1:v1 f2:v2 ...                <- one line per sample
//! ```
//!
//! A sample may have zero labels (the line then starts with a space) and
//! zero features. Feature ids are 0-based, sorted output is guaranteed by
//! the writer and *not* assumed by the reader (rows are sorted on ingest).

use crate::csr::CsrMatrix;
use std::io::{BufRead, Write};

/// A loaded multi-label sparse dataset.
#[derive(Debug, Clone)]
pub struct LibsvmDataset {
    /// `samples × num_features` sparse feature matrix.
    pub features: CsrMatrix,
    /// Per-sample label sets (sorted, de-duplicated).
    pub labels: Vec<Vec<u32>>,
    /// Size of the label space.
    pub num_labels: usize,
}

impl LibsvmDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Mean number of labels per sample.
    pub fn avg_labels_per_sample(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            self.labels.iter().map(|l| l.len()).sum::<usize>() as f64 / self.labels.len() as f64
        }
    }
}

/// Parse error with 1-based line number context.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number (0 = header missing entirely).
    pub line: usize,
    /// Human-readable cause.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "libsvm parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Samples the reader reserves room for on the header's word alone.
const MAX_RESERVED_SAMPLES: usize = 1 << 16;

/// Reads an XC-format dataset from a buffered reader.
///
/// Streaming, single pass: one reusable line buffer, each sample appended
/// directly to the CSR arrays as its line is consumed (per-row sort plus
/// duplicate merge by summation — the same semantics [`crate::CooBuilder`]
/// provides, explicit zeros kept). Peak memory is the final dataset plus
/// one line of text; there is no COO intermediate, no whole-file buffer and
/// no global sort, which is what lets full-label-scale XC files
/// (Amazon-670k, Delicious-200k — tens of millions of non-zeros) load
/// without a multiple-of-dataset-size allocation spike. [`read_file`] wraps
/// this in a wide-buffered file reader for the chunked on-disk path.
///
/// Untrusted input: whatever the bytes, the result is `Ok` or a
/// [`ParseError`] naming the line — a header whose sample count is absurd
/// costs nothing up front, feature/label counts beyond the `u32` id space
/// and non-finite values are refused.
pub fn read<R: BufRead>(mut reader: R) -> Result<LibsvmDataset, ParseError> {
    let mut line = String::new();
    if reader
        .read_line(&mut line)
        .map_err(|e| err(1, e.to_string()))?
        == 0
    {
        return Err(err(0, "missing header line"));
    }
    let mut parts = line.split_whitespace();
    let n: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(1, "bad sample count"))?;
    let d: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(1, "bad feature count"))?;
    let l: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(1, "bad label count"))?;

    // Column and label ids are stored as `u32`; a count beyond that index
    // space would let an id pass its `< count` check and then truncate.
    for (count, what) in [(d, "feature"), (l, "label")] {
        if u32::try_from(count).is_err() {
            return Err(err(
                1,
                format!("{what} count {count} exceeds the u32 index space"),
            ));
        }
    }

    // The header is a claim, not a fact: reserve for what a small file could
    // hold and let the vectors grow as lines actually arrive.
    let reserve = n.min(MAX_RESERVED_SAMPLES);
    let mut indptr: Vec<usize> = Vec::with_capacity(reserve + 1);
    indptr.push(0);
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
    let mut labels: Vec<Vec<u32>> = Vec::with_capacity(reserve);
    let mut row_scratch: Vec<(u32, f32)> = Vec::new();
    let mut lineno = 1usize;
    while labels.len() < n {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| err(lineno + 1, e.to_string()))?;
        if read == 0 {
            break;
        }
        lineno += 1;
        let line = line.trim_end_matches(['\n', '\r']);
        let (label_part, feat_part) = match line.find(' ') {
            Some(pos) => (&line[..pos], &line[pos + 1..]),
            None => (line, ""),
        };
        let mut sample_labels: Vec<u32> = Vec::new();
        if !label_part.is_empty() {
            for tok in label_part.split(',') {
                if tok.is_empty() {
                    continue;
                }
                let lab: u32 = tok
                    .trim()
                    .parse()
                    .map_err(|_| err(lineno, format!("bad label '{tok}'")))?;
                if lab as usize >= l {
                    return Err(err(lineno, format!("label {lab} >= label count {l}")));
                }
                sample_labels.push(lab);
            }
        }
        sample_labels.sort_unstable();
        sample_labels.dedup();
        labels.push(sample_labels);

        row_scratch.clear();
        for tok in feat_part.split_whitespace() {
            let (f, v) = tok
                .split_once(':')
                .ok_or_else(|| err(lineno, format!("bad feature token '{tok}'")))?;
            let f: usize = f
                .parse()
                .map_err(|_| err(lineno, format!("bad feature id '{f}'")))?;
            let v: f32 = v
                .parse()
                .map_err(|_| err(lineno, format!("bad feature value '{v}'")))?;
            if f >= d {
                return Err(err(lineno, format!("feature {f} >= feature count {d}")));
            }
            if !v.is_finite() {
                return Err(err(lineno, format!("non-finite feature value '{tok}'")));
            }
            row_scratch.push((f as u32, v));
        }
        row_scratch.sort_by_key(|&(c, _)| c);
        for &(c, v) in &row_scratch {
            if indices.len() > *indptr.last().unwrap() && *indices.last().unwrap() == c {
                let sum = values.last_mut().expect("as long as `indices`");
                *sum += v;
                // Finite terms can still overflow: the same refusal as for
                // a non-finite token.
                if !sum.is_finite() {
                    return Err(err(lineno, format!("non-finite sum for feature {c}")));
                }
            } else {
                indices.push(c);
                values.push(v);
            }
        }
        indptr.push(indices.len());
    }
    if labels.len() != n {
        return Err(err(
            labels.len() + 1,
            format!("expected {n} samples, found {}", labels.len()),
        ));
    }
    let features = CsrMatrix::try_new(n, d, indptr, indices, values)
        .expect("streamed rows are sorted and bounds-checked");
    Ok(LibsvmDataset {
        features,
        labels,
        num_labels: l,
    })
}

/// Opens `path` through a wide buffered reader (1 MiB chunks) and parses it
/// with [`read`] — the entry point for full-scale on-disk XC datasets.
pub fn read_file(path: impl AsRef<std::path::Path>) -> Result<LibsvmDataset, ParseError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)
        .map_err(|e| err(0, format!("cannot open {}: {e}", path.display())))?;
    read(std::io::BufReader::with_capacity(1 << 20, file))
}

/// Writes a dataset in XC libSVM format.
pub fn write<W: Write>(w: &mut W, ds: &LibsvmDataset) -> std::io::Result<()> {
    writeln!(
        w,
        "{} {} {}",
        ds.features.rows(),
        ds.features.cols(),
        ds.num_labels
    )?;
    for r in 0..ds.features.rows() {
        let labs: Vec<String> = ds.labels[r].iter().map(|l| l.to_string()).collect();
        write!(w, "{}", labs.join(","))?;
        let (idx, val) = ds.features.row(r);
        for (&f, &v) in idx.iter().zip(val) {
            write!(w, " {f}:{v}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    const SAMPLE: &str = "3 5 4\n0,2 1:0.5 3:1.5\n1 0:2\n 4:1\n";

    #[test]
    fn reads_sample() {
        let ds = read(BufReader::new(SAMPLE.as_bytes())).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.num_labels, 4);
        assert_eq!(ds.features.cols(), 5);
        assert_eq!(ds.labels[0], vec![0, 2]);
        assert_eq!(ds.labels[1], vec![1]);
        assert!(ds.labels[2].is_empty());
        assert_eq!(ds.features.row(0), (&[1u32, 3][..], &[0.5f32, 1.5][..]));
        assert_eq!(ds.features.row(2), (&[4u32][..], &[1.0f32][..]));
        assert!((ds.avg_labels_per_sample() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn roundtrip() {
        let ds = read(BufReader::new(SAMPLE.as_bytes())).unwrap();
        let mut buf = Vec::new();
        write(&mut buf, &ds).unwrap();
        let again = read(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(again.features, ds.features);
        assert_eq!(again.labels, ds.labels);
        assert_eq!(again.num_labels, ds.num_labels);
    }

    #[test]
    fn rejects_missing_header() {
        let e = read(BufReader::new("".as_bytes())).unwrap_err();
        assert_eq!(e.line, 0);
    }

    #[test]
    fn rejects_label_out_of_range() {
        let e = read(BufReader::new("1 5 2\n7 0:1\n".as_bytes())).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("label 7"));
    }

    #[test]
    fn rejects_feature_out_of_range() {
        let e = read(BufReader::new("1 3 2\n0 9:1\n".as_bytes())).unwrap_err();
        assert!(e.message.contains("feature 9"));
    }

    #[test]
    fn rejects_truncated_file() {
        let e = read(BufReader::new("3 5 4\n0 1:1\n".as_bytes())).unwrap_err();
        assert!(e.message.contains("expected 3 samples"));
    }

    #[test]
    fn rejects_malformed_feature_token() {
        let e = read(BufReader::new("1 3 2\n0 nonsense\n".as_bytes())).unwrap_err();
        assert!(e.message.contains("bad feature token"));
    }

    #[test]
    fn hostile_sample_counts_cost_nothing_up_front() {
        // 2^62 and usize::MAX samples claimed, one line present: the reader
        // must get as far as noticing the file is short.
        for n in ["4611686018427387904", "18446744073709551615"] {
            let text = format!("{n} 3 3\n0 1:1\n");
            let e = read(BufReader::new(text.as_bytes())).unwrap_err();
            assert!(e.message.contains("samples, found 1"), "{e}");
        }
    }

    #[test]
    fn counts_beyond_the_u32_index_space_are_rejected() {
        // Feature 2^32 would pass `f < d` and be stored as column 0.
        let e = read(BufReader::new(
            "1 4294967297 3\n0 4294967296:1\n".as_bytes(),
        ))
        .unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("feature count 4294967297"), "{e}");
        let e = read(BufReader::new("1 3 4294967297\n0 1:1\n".as_bytes())).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("label count 4294967297"), "{e}");
        // The largest counts that still index as u32 are fine.
        let ds = read(BufReader::new(
            "1 4294967295 4294967295\n4294967294 4294967294:1\n".as_bytes(),
        ))
        .unwrap();
        assert_eq!(ds.features.row(0).0, &[u32::MAX - 1]);
        assert_eq!(ds.labels[0], vec![u32::MAX - 1]);
    }

    #[test]
    fn non_finite_values_are_rejected() {
        for tok in ["1:nan", "2:inf", "0:-inf", "1:NaN", "2:infinity", "1:1e39"] {
            let text = format!("2 3 2\n0 0:1\n1 {tok}\n");
            let e = read(BufReader::new(text.as_bytes())).unwrap_err();
            assert_eq!(e.line, 3, "{tok}");
            assert!(e.message.contains("non-finite"), "{tok}: {e}");
        }
    }

    /// Found while writing `overwritten_files_read_or_fail_cleanly`:
    /// duplicate feature ids are summed, and two finite values can sum to
    /// infinity — which then sat in a dataset whose reader promises none.
    #[test]
    fn duplicate_features_overflowing_to_infinity_are_rejected() {
        let e = read(BufReader::new("1 3 2\n0 1:3e38 2:1 1:3e38\n".as_bytes())).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("non-finite sum for feature 1"), "{e}");
    }

    #[test]
    fn every_prefix_of_a_valid_file_is_ok_or_an_error() {
        let text = "3 7 3\n0 6:1 2:4 2:1 0:0\n1,2 3:2.5e-1\n 5:9 5:-9 1:1\n";
        assert_eq!(read(BufReader::new(text.as_bytes())).unwrap().len(), 3);
        // Any panic fails the test; the outcomes themselves only need to be
        // well-formed. A cut at a token boundary of the last line is a valid
        // (shorter) third sample, every other cut an error.
        let last_line = text.trim_end().rfind('\n').unwrap() + 1;
        for cut in 0..text.len() {
            match read(BufReader::new(&text.as_bytes()[..cut])) {
                Ok(ds) => assert!(cut >= last_line && ds.len() == 3, "cut {cut}"),
                Err(e) => assert!(e.line <= 4, "cut {cut}: {e}"),
            }
        }
    }

    #[test]
    fn duplicate_labels_are_deduped() {
        let ds = read(BufReader::new("1 3 5\n2,2,1 0:1\n".as_bytes())).unwrap();
        assert_eq!(ds.labels[0], vec![1, 2]);
    }

    #[test]
    fn unsorted_features_are_sorted_per_row() {
        let ds = read(BufReader::new(
            "2 6 2\n0 5:5 1:1 3:3\n1 2:2 0:0.5\n".as_bytes(),
        ))
        .unwrap();
        assert_eq!(
            ds.features.row(0),
            (&[1u32, 3, 5][..], &[1.0f32, 3.0, 5.0][..])
        );
        assert_eq!(ds.features.row(1), (&[0u32, 2][..], &[0.5f32, 2.0][..]));
    }

    #[test]
    fn duplicate_features_are_summed_and_zeros_kept() {
        let ds = read(BufReader::new("1 4 2\n0 1:2 3:0 1:0.5\n".as_bytes())).unwrap();
        // Duplicate column 1 merges by summation; the explicit zero at
        // column 3 stays, matching CooBuilder semantics.
        assert_eq!(ds.features.row(0), (&[1u32, 3][..], &[2.5f32, 0.0][..]));
    }

    #[test]
    fn streaming_matches_coo_builder_reference() {
        let text = "3 7 3\n0 6:1 2:4 2:1 0:0\n1,2 3:2\n 5:9 5:-9 1:1\n";
        let ds = read(BufReader::new(text.as_bytes())).unwrap();
        let mut coo = crate::CooBuilder::new(3, 7);
        for (row, v) in [
            (
                0usize,
                [(6u32, 1.0f32), (2, 4.0), (2, 1.0), (0, 0.0)].as_slice(),
            ),
            (1, [(3, 2.0)].as_slice()),
            (2, [(5, 9.0), (5, -9.0), (1, 1.0)].as_slice()),
        ] {
            for &(c, x) in v {
                coo.push(row, c as usize, x);
            }
        }
        assert_eq!(ds.features, coo.into_csr());
    }

    #[test]
    fn empty_line_is_an_empty_sample() {
        // A fully empty line is the degenerate form of the documented
        // "zero labels, zero features" sample (which normally starts with
        // a space): it must consume one sample slot, not desync the stream.
        let ds = read(BufReader::new("3 3 2\n\n0 1:1\n \n".as_bytes())).unwrap();
        assert_eq!(ds.len(), 3);
        assert!(ds.labels[0].is_empty());
        assert_eq!(ds.features.row(0), (&[][..], &[][..]));
        assert_eq!(ds.labels[1], vec![0]);
        assert!(ds.labels[2].is_empty());
    }

    #[test]
    fn trailing_whitespace_is_ignored() {
        // Real XC dumps carry trailing spaces and tabs; they must not turn
        // into phantom feature tokens.
        let ds = read(BufReader::new("2 4 2\n0 1:1   \n1 2:1\t\r\n".as_bytes())).unwrap();
        assert_eq!(ds.features.row(0), (&[1u32][..], &[1.0f32][..]));
        assert_eq!(ds.features.row(1), (&[2u32][..], &[1.0f32][..]));
    }

    #[test]
    fn final_line_without_newline_still_parses() {
        let ds = read(BufReader::new("2 4 2\n0 1:1\n1 2:0.5".as_bytes())).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.features.row(1), (&[2u32][..], &[0.5f32][..]));
    }

    #[test]
    fn truncated_final_token_is_rejected() {
        // A file cut mid-token ("1:" with the value sheared off) must fail
        // with line context, not silently coerce.
        let e = read(BufReader::new("1 3 2\n0 1:".as_bytes())).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bad feature value"));
    }

    #[test]
    fn feature_id_at_exact_bound_is_rejected() {
        // Ids are 0-based: id == num_features is the first out-of-range id.
        let e = read(BufReader::new("1 3 2\n0 3:1\n".as_bytes())).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("feature 3 >= feature count 3"));
    }

    #[test]
    fn handles_crlf_line_endings() {
        let ds = read(BufReader::new("1 3 2\n0 1:1\r\n".as_bytes())).unwrap();
        assert_eq!(ds.features.row(0), (&[1u32][..], &[1.0f32][..]));
    }

    #[test]
    fn read_file_loads_from_disk() {
        let path = std::env::temp_dir().join("asgd_libsvm_read_file_test.txt");
        std::fs::write(&path, SAMPLE).unwrap();
        let ds = read_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.features.row(0), (&[1u32, 3][..], &[0.5f32, 1.5][..]));
    }

    #[test]
    fn read_file_reports_missing_path() {
        let e = read_file("/nonexistent/asgd-no-such-file.txt").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("cannot open"));
    }
    /// A dataset the reader accepts holds no more samples or nonzeros than
    /// the input has bytes, and nothing non-finite.
    fn assert_reads_cleanly(raw: &[u8]) -> Result<(), TestCaseError> {
        if let Ok(ds) = read(BufReader::new(raw)) {
            prop_assert!(ds.len() <= raw.len() && ds.features.nnz() <= raw.len());
            prop_assert_eq!(ds.features.rows(), ds.len());
            for r in 0..ds.len() {
                prop_assert!(ds.features.row(r).1.iter().all(|v| v.is_finite()));
                prop_assert!(ds.labels[r].iter().all(|&l| (l as usize) < ds.num_labels));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A valid file with 1–8 bytes overwritten — by the format's own
        /// punctuation and digits as often as by arbitrary (possibly
        /// non-UTF-8) bytes — reads or is an error, never a panic.
        #[test]
        fn overwritten_files_read_or_fail_cleanly(
            hits in proptest::collection::vec((0usize..1 << 20, 0usize..64, 0u8..=255), 1..=8),
        ) {
            let mut raw = b"4 9 5\n0,2 1:0.5 3:1.5 3:2\n1 0:1e38 0:1e38\n 4:1\n3,4 8:-7 2:1e-3\n".to_vec();
            let alphabet = b" ,:\n.-e0123456789";
            for (at, pick, byte) in hits {
                let n = raw.len();
                raw[at % n] = *alphabet.get(pick).unwrap_or(&byte);
            }
            assert_reads_cleanly(&raw)?;
        }

        /// Random bytes — bare, or after a plausible header line — read or
        /// are an error.
        #[test]
        fn random_bytes_read_or_fail_cleanly(
            header in 0u8..2,
            raw in proptest::collection::vec(0u8..=255, 0..=4096),
        ) {
            let mut text = if header == 1 { b"3 200 200\n".to_vec() } else { Vec::new() };
            text.extend(raw);
            assert_reads_cleanly(&text)?;
        }
    }
}
