//! Byte-identity oracle for `Store::commit`.
//!
//! Scripted commit sequences pin the FNV-1a hash and the length
//! of the store file after every commit. The pins were captured from
//! the gather-then-write commit that preceded the streaming one, so any
//! change to how a commit assembles the next file generation must
//! reproduce the same bytes: same layout, same offsets, same CRCs.

use cm_events::{EventId, RunRecord, SampleMode, TimeSeries};
use cm_store::{SeriesKey, Store};
use std::path::{Path, PathBuf};

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cm_commit_golden_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("golden.cmstore")
}

/// 64-bit FNV-1a of the file, with its length.
fn fingerprint(path: &Path) -> (u64, u64) {
    let bytes = std::fs::read(path).unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h, bytes.len() as u64)
}

fn key(program: &str, run: u32, event: usize) -> SeriesKey {
    SeriesKey::new(program, run, SampleMode::Mlpx, EventId::new(event))
}

/// Integral counter-like values (delta+varint) for even events,
/// fractional ones (raw f64) for odd events.
fn values(run: u32, event: usize, start: usize, n: usize) -> Vec<f64> {
    (start..start + n)
        .map(|i| {
            let base = (1000 + (i * 37 + run as usize * 101 + event * 13) % 4096) as f64;
            if event.is_multiple_of(2) {
                base
            } else {
                base / 8.0 + 0.1
            }
        })
        .collect()
}

/// Sequence 1: a fresh store with two programs, three runs of five
/// events, an empty series, a run-table entry per run and two metadata
/// entries, made durable by one commit.
fn fresh_store(path: &Path) -> Store {
    let _ = std::fs::remove_file(path);
    let mut store = Store::open(path).unwrap();
    for run in 0..3u32 {
        let mut record = RunRecord::new("wordcount", run, SampleMode::Mlpx);
        record.set_exec_time_secs(10.0 + f64::from(run) * 0.25);
        for event in 0..5 {
            record.insert_series(
                EventId::new(event),
                TimeSeries::from_values(values(run, event, 0, 40 + 10 * event)),
            );
        }
        store.append_run(&record).unwrap();
    }
    store
        .append_series(key("sort", 0, 2), &values(0, 2, 0, 300))
        .unwrap();
    store
        .append_series(key("sort", 0, 3), &[0.5, f64::NAN, -7.25, 1e-3])
        .unwrap();
    // An empty series is a zero-length chunk inside a copy run.
    store.append_series(key("sort", 0, 4), &[]).unwrap();
    store
        .append_series(key("sort", 0, 5), &values(0, 5, 0, 20))
        .unwrap();
    store.set_meta("snapshot.wordcount.fingerprint", "00c0ffee");
    store.set_meta("stream/wordcount/rows", "40");
    store.commit().unwrap();
    store
}

const FRESH: (u64, u64) = (4646787847473098786, 5192);

/// After each of the ten extend commits of sequence 2.
const EXTENDS: [(u64, u64); 10] = [
    (17550955421800694739, 5410),
    (4637162066426333231, 5628),
    (13860592570230277866, 5846),
    (6831847494322269975, 6064),
    (793404732234681710, 6282),
    (11143047878765756633, 6500),
    (4001612163311437012, 6718),
    (962645304361188512, 5512),
    (14589495397400759275, 5730),
    (15622717978817666443, 5948),
];

/// After the metadata-only commit of sequence 3.
const META_ONLY: (u64, u64) = (13740120482485712986, 5231);

#[test]
fn fresh_multi_series_commit_is_byte_identical() {
    let path = temp_store("fresh");
    let _store = fresh_store(&path);
    assert_eq!(fingerprint(&path), FRESH);
}

#[test]
fn extend_commits_through_compaction_are_byte_identical() {
    let path = temp_store("extend");
    let mut store = fresh_store(&path);
    // The serve append shape: 2-row tails on a subset of committed
    // series (runs 0 and 2 of wordcount, both codecs), leaving the
    // neighbours to be copied. Ten commits push the extended chains
    // past MAX_CHUNK_CHAIN, so the sequence includes a compaction.
    let mut got = Vec::new();
    for step in 0..10 {
        for run in [0u32, 2] {
            for event in [0usize, 1, 4] {
                let start = 40 + 10 * event + 2 * step;
                store
                    .extend_series(key("wordcount", run, event), &values(run, event, start, 2))
                    .unwrap();
            }
        }
        store.set_meta("stream/wordcount/rows", (42 + 2 * step).to_string());
        store.commit().unwrap();
        got.push(fingerprint(&path));
    }
    assert_eq!(got, EXTENDS);
    assert!(store.info().chained_series > 0);
}

/// After the two commits of the multi-fill recommit: the fresh store,
/// then a 2-row tail on its middle series.
const LARGE: [(u64, u64); 2] = [(650292922998863139, 760213), (8719642268429132143, 760258)];

#[test]
fn recommit_larger_than_the_staging_buffer_is_byte_identical() {
    // Raw-f64 series of 240, 240 and 280 KB: the file spans several
    // fills of a commit's staging buffer, chunks straddle fill
    // boundaries, and the last chunk is larger than the buffer.
    let path = temp_store("large");
    let mut store = Store::open(&path).unwrap();
    for (event, n) in [(0, 30_000), (1, 30_000), (2, 35_000)] {
        store
            .append_series(key("big", 0, event), &values(0, 2 * event + 1, 0, n))
            .unwrap();
    }
    store.commit().unwrap();
    let mut got = vec![fingerprint(&path)];
    store
        .extend_series(key("big", 0, 1), &values(0, 3, 30_000, 2))
        .unwrap();
    store.commit().unwrap();
    got.push(fingerprint(&path));
    assert_eq!(got, LARGE);
    assert_eq!(store.read_series(&key("big", 0, 1)).unwrap().len(), 30_002);
}

#[test]
fn metadata_only_commit_is_byte_identical() {
    let path = temp_store("meta");
    let mut store = fresh_store(&path);
    store.set_meta("snapshot.sort.fingerprint", "0badf00d");
    assert!(!store.has_staged());
    store.commit().unwrap();
    assert_eq!(fingerprint(&path), META_ONLY);
}
