//! I/O shape of the commit's copy path.
//!
//! Recommitting a store whose committed chunks all sit back to back
//! must copy them with one positioned read per fill of the staging
//! buffer, not one per chunk, and `store.commit.copied_bytes` must
//! account for every copied byte.
//!
//! This file deliberately holds a single `#[test]`: the [`cm_obs`]
//! registry is process-global, so counter arithmetic would race against
//! sibling tests running in the same binary.

use cm_events::{EventId, SampleMode};
use cm_store::{SeriesKey, Store, COMMIT_STAGING_BYTES};
use std::path::PathBuf;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cm_commit_ctr_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("ctr.cmstore")
}

fn key(event: usize) -> SeriesKey {
    SeriesKey::new("ctr", 0, SampleMode::Mlpx, EventId::new(event))
}

/// Commits `series` series of `n` fractional (raw f64) values each,
/// then recommits with only a metadata change — nothing staged, so
/// every chunk is copied — and returns the recommit's counters.
fn recommit_counters(tag: &str, series: usize, n: usize) -> (u64, u64, u64) {
    let path = temp_store(tag);
    let mut store = Store::open(&path).unwrap();
    for event in 0..series {
        let values: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
        store.append_series(key(event), &values).unwrap();
    }
    store.commit().unwrap();
    let before = std::fs::read(&path).unwrap();

    cm_obs::Registry::global().drain();
    store.set_meta("touched", "yes");
    store.commit().unwrap();
    let snap = cm_obs::Registry::global().drain();

    // The copied chunk region is byte-identical to the first commit's.
    let chunk_bytes = (series * n * 8) as u64;
    let after = std::fs::read(&path).unwrap();
    assert_eq!(
        before[32..32 + chunk_bytes as usize],
        after[32..32 + chunk_bytes as usize]
    );
    (
        snap.counters["store.commit.copy_reads"],
        snap.counters["store.commit.copied_bytes"],
        chunk_bytes,
    )
}

#[test]
fn recommit_reads_once_per_staging_fill_not_once_per_chunk() {
    cm_obs::set_mode(cm_obs::Mode::Summary);

    // 64 contiguous small chunks fit one fill: one read, not 64.
    let (reads, copied, chunk_bytes) = recommit_counters("small", 64, 16);
    assert_eq!(copied, chunk_bytes);
    assert_eq!(reads, 1, "64 contiguous chunks copied with {reads} reads");

    // Three chunks of 240 KB span several fills and straddle their
    // boundaries; the superblock shares the first fill.
    let (reads, copied, chunk_bytes) = recommit_counters("large", 3, 30_000);
    assert_eq!(copied, chunk_bytes);
    let fills = (32 + chunk_bytes).div_ceil(COMMIT_STAGING_BYTES as u64);
    assert_eq!(reads, fills, "one read per staging-buffer fill");
    assert!(reads < 4);

    cm_obs::set_mode(cm_obs::Mode::Off);
}
