//! Property tests for the run store: arbitrary finite data must survive
//! an `append_run` → `commit` → reopen → `read_run` round trip exactly.
//! Each property is checked on `CASES` inputs drawn from a [`Rng`]
//! seeded with the case number, so a failing case replays from its seed.

use cm_events::{EventId, RunRecord, SampleMode, TimeSeries};
use cm_rng::Rng;
use cm_store::{RunId, Store, StoreError};

const CASES: u64 = 24;

/// Up to 39 values, each equally likely to be a wide finite value, a
/// signed zero, or a tiny positive value.
fn series(rng: &mut Rng) -> Vec<f64> {
    let n = rng.below(40);
    (0..n)
        .map(|_| match rng.below(4) {
            0 => rng.gen_range(-1.0e12..1.0e12),
            1 => 0.0,
            2 => -0.0,
            _ => rng.gen_range(1.0e-12..1.0e-6),
        })
        .collect()
}

/// A string of `lo_len..=hi_len` characters drawn from `alphabet`.
fn word(rng: &mut Rng, alphabet: &[u8], lo_len: usize, hi_len: usize) -> String {
    let n = lo_len + rng.below(hi_len - lo_len + 1);
    (0..n)
        .map(|_| char::from(alphabet[rng.below(alphabet.len())]))
        .collect()
}

const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_+-";

#[test]
fn roundtrip_preserves_arbitrary_runs() {
    for case in 0..CASES {
        let rng = &mut Rng::seed_from_u64(case);
        // A letter, then up to 16 name characters.
        let program = word(rng, LETTERS, 1, 1) + &word(rng, NAME_CHARS, 0, 16);
        let exec_time = rng.gen_range(0.0..1.0e6);
        let (series_a, series_b) = (series(rng), series(rng));
        let run_index = rng.below(8) as u32;
        let mode = if rng.next_f64() < 0.5 {
            SampleMode::Mlpx
        } else {
            SampleMode::Ocoe
        };
        let mut run = RunRecord::new(program.clone(), run_index, mode);
        run.set_exec_time_secs(exec_time);
        run.insert_series(EventId::new(0), TimeSeries::from_values(series_a));
        run.insert_series(EventId::new(228), TimeSeries::from_values(series_b));

        let path = std::env::temp_dir().join(format!(
            "cm_store_prop_{}_{run_index}.cmstore",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut store = Store::open(&path).unwrap();
        store.append_run(&run).unwrap();
        store.commit().unwrap();
        let loaded = Store::open(&path).unwrap();
        let got = loaded
            .read_run(&RunId::new(program.clone(), run_index, mode))
            .expect("run present");
        std::fs::remove_file(&path).ok();

        assert_eq!(got.exec_time_secs(), exec_time, "case {case}");
        for event in [EventId::new(0), EventId::new(228)] {
            let (want, have) = (run.series(event).unwrap(), got.series(event).unwrap());
            let bits = |ts: &TimeSeries| ts.iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(have), bits(want), "case {case}");
        }
    }
}

#[test]
fn duplicate_keys_always_rejected() {
    for case in 0..CASES {
        let rng = &mut Rng::seed_from_u64(case);
        let program = word(rng, &LETTERS[..26], 1, 8);
        let run_index = rng.below(4) as u32;
        let mut run = RunRecord::new(program.clone(), run_index, SampleMode::Ocoe);
        run.insert_series(EventId::new(0), TimeSeries::from_values(series(rng)));
        let path = std::env::temp_dir().join(format!(
            "cm_store_dup_{}_{case}.cmstore",
            std::process::id()
        ));
        let mut store = Store::open(&path).unwrap();
        store.append_run(&run).unwrap();
        assert!(
            matches!(
                store.append_run(&run),
                Err(StoreError::DuplicateSeries { .. })
            ),
            "case {case}"
        );
        assert_eq!(store.run_ids().count(), 1, "case {case}");
    }
}
