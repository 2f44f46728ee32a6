//! A commit that fails after creating its temporary file must remove
//! it again.
//!
//! A failed write or `fsync` while streaming the next file generation
//! returns a typed error, leaves no `<path>.tmp` behind, leaves the
//! committed file byte-for-byte unchanged, and keeps the store handle
//! fully readable — committed series from the old file, staged tails
//! from memory.

use cm_chaos::{FaultFs, FaultKind};
use cm_events::{EventId, SampleMode};
use cm_store::{CacheConfig, SeriesKey, Store, StoreError};
use std::path::PathBuf;
use std::sync::Arc;

const SEEDS: u64 = 256;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cm_commit_cleanup_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn key(event: usize) -> SeriesKey {
    SeriesKey::new("cleanup", 0, SampleMode::Mlpx, EventId::new(event))
}

fn committed(event: usize) -> Vec<f64> {
    (0..50).map(|i| (i * 3 + event) as f64).collect()
}

const TAIL: [f64; 2] = [0.25, 0.75];

#[test]
fn failed_commit_write_or_fsync_leaves_no_tmp() {
    let dir = temp_dir();
    let mut write_failures = 0u32;
    let mut sync_failures = 0u32;

    for seed in 0..SEEDS {
        let path = dir.join(format!("c{seed}.cmstore"));
        let tmp = dir.join(format!("c{seed}.cmstore.tmp"));
        {
            let mut store = Store::open(&path).unwrap();
            for event in 0..4 {
                store.append_series(key(event), &committed(event)).unwrap();
            }
            store.commit().unwrap();
        }
        let before = std::fs::read(&path).unwrap();

        let fs = Arc::new(FaultFs::new(seed));
        let Ok(mut store) = Store::open_with_vfs(&path, CacheConfig::default(), fs.clone()) else {
            continue; // the fault hit the open, not the commit
        };
        store.extend_series(key(1), &TAIL).unwrap();
        let result = store.commit();
        // Only seeds whose sole fault is a failed write or fsync during
        // this commit exercise the cleanup path.
        let kinds = fs.injected_kinds();
        let counted = match kinds.as_slice() {
            [FaultKind::FailWrite | FaultKind::ShortWrite] => &mut write_failures,
            [FaultKind::FailSync] => &mut sync_failures,
            _ => continue,
        };
        *counted += 1;
        fs.disarm();

        assert!(
            matches!(result, Err(StoreError::Io(_))),
            "seed {seed}: {kinds:?} must fail the commit with a typed I/O error, got {result:?}"
        );
        assert!(
            !tmp.exists(),
            "seed {seed}: failed commit left {}",
            tmp.display()
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "seed {seed}: failed commit changed the committed file"
        );
        for event in 0..4 {
            let mut expect = committed(event);
            if event == 1 {
                expect.extend_from_slice(&TAIL);
            }
            assert_eq!(
                *store.read_series(&key(event)).unwrap(),
                expect,
                "seed {seed}: handle lost series {event}"
            );
        }
    }
    assert!(write_failures > 0, "no seed failed a commit write");
    assert!(sync_failures > 0, "no seed failed a commit fsync");
}
