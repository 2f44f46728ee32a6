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
//! This crate reproduces that organization twice over:
//!
//! * [`Database`] — the in-memory two-level store with a plain-text
//!   persistence format, filling SQLite's role without an external
//!   dependency; the collector's working set.
//! * [`Store`] — the **persistent chunked columnar store**: one binary
//!   file per store with a versioned superblock, per-series column
//!   chunks (delta+varint encoded when integral, raw `f64` bits
//!   otherwise), CRC-32 checksums on every region, an append-only
//!   writer committed by atomic rename, and a sharded LRU block cache
//!   ([`CacheConfig`], `CM_STORE_CACHE`). This is what lets the
//!   pipeline collect once and analyze many times — see
//!   `docs/STORAGE_FORMAT.md` for the byte-level layout.
//!
//! Series lengths are allowed to differ between events and runs — the
//! property that motivates the paper's use of dynamic time warping.
//!
//! # Examples
//!
//! The in-memory two-level database:
//!
//! ```
//! use cm_events::{EventId, RunRecord, SampleMode, TimeSeries};
//! use cm_store::Database;
//!
//! let mut db = Database::new();
//! let mut run = RunRecord::new("wordcount", 0, SampleMode::Ocoe);
//! run.insert_series(EventId::new(3), TimeSeries::from_values(vec![1.0, 2.0]));
//! db.insert_run(run)?;
//!
//! let fetched = db.run("wordcount", 0, SampleMode::Ocoe).unwrap();
//! assert_eq!(fetched.event_count(), 1);
//! # Ok::<(), cm_store::StoreError>(())
//! ```
//!
//! The persistent columnar store:
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
mod database;
mod error;
mod format;
mod persist;
mod query;
mod vfs;

pub use cache::{BlockCache, CacheConfig, CacheStats};
pub use codec::Encoding;
pub use columnar::{RunId, SeriesKey, Store, StoreInfo, COMMIT_STAGING_BYTES, MAX_CHUNK_CHAIN};
pub use database::{Database, ProgramSummary, RunKey};
pub use error::StoreError;
pub use query::ExecTimeStats;
pub use vfs::{RealFs, Vfs, VfsFile};
