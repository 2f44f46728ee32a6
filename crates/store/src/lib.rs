//! Two-level performance-data store for CounterMiner.
//!
//! The paper stores collected counter time series in a DBMS (SQLite) with
//! a **two-level table organization** (Section III-A):
//!
//! * the *first-level* table holds, per program: the program name, the
//!   measured event names, the execution times of each run, and the names
//!   of the second-level tables;
//! * each *second-level* table holds the time series of every measured
//!   event for one run of one program.
//!
//! This crate reproduces that organization in [`Store`], a **persistent
//! chunked columnar store**: one binary file per store with a versioned
//! superblock, a run table (the first level: program, run, mode and
//! execution time), per-series column chunks (the second level;
//! delta+varint encoded when integral, raw `f64` bits otherwise), CRC-32
//! checksums on every region, an append-only writer committed by atomic
//! rename, and a sharded LRU block cache ([`CacheConfig`],
//! `CM_STORE_CACHE`). This is what lets the pipeline collect once and
//! analyze many times — see `docs/STORAGE_FORMAT.md` for the byte-level
//! layout.
//!
//! Series lengths are allowed to differ between events and runs — the
//! property that motivates the paper's use of dynamic time warping.
//!
//! # Examples
//!
//! ```
//! use cm_events::{EventId, SampleMode};
//! use cm_store::{SeriesKey, Store};
//!
//! let dir = std::env::temp_dir().join(format!("cm_lib_doc_{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("lib.cmstore");
//! # let _ = std::fs::remove_file(&path);
//!
//! let mut store = Store::open(&path)?;
//! let key = SeriesKey::new("wordcount", 0, SampleMode::Mlpx, EventId::new(3));
//! store.append_series(key.clone(), &[880.0, 912.0, 905.0])?;
//! store.commit()?; // atomic: write temp file, fsync, rename
//!
//! assert_eq!(*store.read_series(&key)?, vec![880.0, 912.0, 905.0]);
//! # std::fs::remove_file(&path)?;
//! # Ok::<(), cm_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cache;
mod codec;
mod columnar;
mod error;
mod format;
mod vfs;

pub use cache::{BlockCache, CacheConfig, CacheStats};
pub use codec::Encoding;
pub use columnar::{RunId, SeriesKey, Store, StoreInfo, COMMIT_STAGING_BYTES, MAX_CHUNK_CHAIN};
pub use error::StoreError;
pub use vfs::{RealFs, Vfs, VfsFile};

/// Tests of the first-level table (§III-A): runs keyed by program, run
/// index and sampling mode, as [`Store`] keeps them in its run table.
#[cfg(test)]
mod database {
    mod tests {
        use crate::{RunId, SeriesKey, Store, StoreError};
        use cm_events::{EventId, RunRecord, SampleMode, TimeSeries};
        use std::path::PathBuf;

        fn sample_run(program: &str, idx: u32, mode: SampleMode) -> RunRecord {
            let mut run = RunRecord::new(program, idx, mode);
            run.set_exec_time_secs(10.0 + idx as f64);
            run.insert_series(
                EventId::new(1),
                TimeSeries::from_values(vec![1.0, 2.0, 3.0]),
            );
            run.insert_series(EventId::new(4), TimeSeries::from_values(vec![4.0]));
            run
        }

        /// Opens a fresh store at a per-test temp path, appends `runs`,
        /// commits and reopens it.
        fn committed(tag: &str, runs: &[RunRecord]) -> (Store, PathBuf) {
            let dir =
                std::env::temp_dir().join(format!("cm_database_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("test.cmstore");
            let mut store = Store::open(&path).unwrap();
            for run in runs {
                store.append_run(run).unwrap();
            }
            store.commit().unwrap();
            (Store::open(&path).unwrap(), dir)
        }

        #[test]
        fn insert_and_fetch() {
            let (store, dir) = committed("fetch", &[sample_run("sort", 0, SampleMode::Ocoe)]);
            let run = store
                .read_run(&RunId::new("sort", 0, SampleMode::Ocoe))
                .unwrap();
            assert_eq!(run.event_count(), 2);
            assert_eq!(run.exec_time_secs(), 10.0);
            for absent in [
                RunId::new("sort", 0, SampleMode::Mlpx),
                RunId::new("sort", 1, SampleMode::Ocoe),
            ] {
                assert!(matches!(
                    store.read_run(&absent),
                    Err(StoreError::SeriesNotFound { .. })
                ));
                assert_eq!(store.exec_time_secs(&absent), None);
            }
            std::fs::remove_dir_all(dir).unwrap();
        }

        #[test]
        fn duplicate_key_rejected() {
            let (mut store, dir) = committed("dup", &[sample_run("sort", 0, SampleMode::Ocoe)]);
            let err = store
                .append_run(&sample_run("sort", 0, SampleMode::Ocoe))
                .unwrap_err();
            assert!(matches!(err, StoreError::DuplicateSeries { .. }));
            // Same index under a different mode is a different run.
            assert!(store
                .append_run(&sample_run("sort", 0, SampleMode::Mlpx))
                .is_ok());
            std::fs::remove_dir_all(dir).unwrap();
        }

        #[test]
        fn mode_filtered_queries() {
            let mut runs: Vec<RunRecord> = (0..3)
                .rev()
                .map(|i| sample_run("join", i, SampleMode::Ocoe))
                .collect();
            runs.push(sample_run("join", 0, SampleMode::Mlpx));
            runs.push(sample_run("scan", 0, SampleMode::Ocoe));
            let (store, dir) = committed("modes", &runs);
            let count = |mode: Option<SampleMode>| {
                store
                    .run_ids()
                    .filter(|id| id.program == "join" && mode.is_none_or(|m| id.mode == m))
                    .count()
            };
            assert_eq!(count(None), 4);
            assert_eq!(count(Some(SampleMode::Ocoe)), 3);
            assert_eq!(count(Some(SampleMode::Mlpx)), 1);
            // The run table lists runs in key order, not append order.
            let ocoe: Vec<u32> = store
                .run_ids()
                .filter(|id| id.program == "join" && id.mode == SampleMode::Ocoe)
                .map(|id| id.run_index)
                .collect();
            assert_eq!(ocoe, vec![0, 1, 2]);
            std::fs::remove_dir_all(dir).unwrap();
        }

        #[test]
        fn series_lookup() {
            let (store, dir) = committed("series", &[sample_run("scan", 0, SampleMode::Ocoe)]);
            let ts = store
                .read_series_ts(&SeriesKey::new(
                    "scan",
                    0,
                    SampleMode::Ocoe,
                    EventId::new(1),
                ))
                .unwrap();
            assert_eq!(ts.len(), 3);
            assert!(matches!(
                store.read_series(&SeriesKey::new(
                    "scan",
                    0,
                    SampleMode::Ocoe,
                    EventId::new(99)
                )),
                Err(StoreError::SeriesNotFound { .. })
            ));
            std::fs::remove_dir_all(dir).unwrap();
        }

        #[test]
        fn programs_are_sorted_and_distinct() {
            let (store, dir) = committed(
                "programs",
                &[
                    sample_run("b", 0, SampleMode::Ocoe),
                    sample_run("a", 0, SampleMode::Ocoe),
                    sample_run("a", 1, SampleMode::Ocoe),
                ],
            );
            assert_eq!(store.programs(), vec!["a".to_string(), "b".to_string()]);
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
}
