//! Journal torture: random truncation and bit-flip damage over a real
//! journal image. The replay contract under arbitrary damage is
//!
//! * never panic — damage is data, not a programming error;
//! * recover a *prefix* of the original records (framing damage ends the
//!   prefix), or fail with a typed [`JournalError`];
//! * never fabricate — a recovered record is byte-for-byte one of the
//!   records that was written, in its original position.
//!
//! Together with fsync-before-ack (a crash image ≡ a journal prefix, and
//! prefixes are exactly what truncation generates), this is the
//! service-level crash model tested end to end in `daemon.rs`.

use proptest::prelude::*;

use locmps_serve::journal::{decode_records, CacheRecord, Record, SubmitRecord, TerminalRecord};
use locmps_serve::Journal;

/// A representative record mix (submission, cache entry, both terminal
/// flavours), rendered to journal bytes through the real encoder.
/// Built once — the file round-trip is not what the properties probe.
fn journal_image() -> &'static (Vec<Record>, Vec<u8>) {
    static IMAGE: std::sync::OnceLock<(Vec<Record>, Vec<u8>)> = std::sync::OnceLock::new();
    IMAGE.get_or_init(build_image)
}

fn build_image() -> (Vec<Record>, Vec<u8>) {
    let records = vec![
        Record::Submit(SubmitRecord {
            id: 0,
            fingerprint: 0xdead_beef_0123_4567,
            tenant: "alice".into(),
            graph_json: "{\"tasks\":[{\"name\":\"t0\",\"profile\":{\"kind\":\"linear\",\
                         \"work\":10.0}}],\"edges\":[]}"
                .into(),
            procs: 4,
            bandwidth: 125.0,
            algo: "locmps".into(),
            degraded: false,
            deadline_ms: Some(5_000),
            run: None,
        }),
        Record::Cache(CacheRecord {
            fingerprint: 0xdead_beef_0123_4567,
            makespan: 12.5,
            result_json: "{\"makespan\":12.5}".into(),
            trace_json: None,
        }),
        Record::Terminal(TerminalRecord {
            id: 0,
            ok: true,
            degraded: false,
            error: None,
            error_kind: None,
            makespan: None,
            result_json: None,
            trace_json: None,
        }),
        Record::Submit(SubmitRecord {
            id: 1,
            fingerprint: 0x0123_4567_89ab_cdef,
            tenant: "bob".into(),
            graph_json: "{\"tasks\":[],\"edges\":[]}".into(),
            procs: 8,
            bandwidth: 12.5,
            algo: "psonline".into(),
            degraded: true,
            deadline_ms: None,
            run: None,
        }),
        Record::Terminal(TerminalRecord {
            id: 1,
            ok: false,
            degraded: true,
            error: Some("scheduler panicked: chaos".into()),
            error_kind: Some("retries_exhausted".into()),
            makespan: None,
            result_json: None,
            trace_json: None,
        }),
    ];
    let dir = std::env::temp_dir().join(format!("locmps-torture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("image.log");
    Journal::rewrite(&path, &records).expect("encode image");
    let bytes = std::fs::read(&path).expect("read image back");
    let _ = std::fs::remove_file(&path);
    (records, bytes)
}

/// `got` must be a strict positional prefix of `want` — same records, same
/// order, nothing invented.
fn assert_prefix(got: &[Record], want: &[Record]) {
    assert!(got.len() <= want.len(), "more records out than in");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "replayed record differs from what was written");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every truncation point — a crash image — yields a prefix.
    #[test]
    fn truncation_at_any_offset_recovers_a_prefix(frac in 0.0..1.0f64) {
        let (records, bytes) = journal_image();
        let cut = (frac * bytes.len() as f64) as usize;
        let replay = decode_records(&bytes[..cut]).expect("truncation is never Corrupt");
        assert_prefix(&replay.records, records);
        prop_assert!(replay.valid_len <= cut as u64);
        // Whatever survived is re-decodable from its own valid prefix.
        let again = decode_records(&bytes[..replay.valid_len as usize]).unwrap();
        prop_assert_eq!(again.records.len(), replay.records.len());
        prop_assert!(!again.truncated, "a valid prefix replays clean");
    }

    /// A flipped bit anywhere — header, checksum or payload — either
    /// leaves a decodable prefix or fails typed; never a panic, never a
    /// record that was not written.
    #[test]
    fn bit_flips_never_panic_and_never_fabricate(frac in 0.0..1.0f64, bit in 0u8..8) {
        let (records, bytes) = journal_image();
        let mut mutated = bytes.clone();
        let pos = ((frac * mutated.len() as f64) as usize).min(mutated.len() - 1);
        mutated[pos] ^= 1 << bit;
        match decode_records(&mutated) {
            Ok(replay) => {
                assert_prefix(&replay.records, records);
                prop_assert!(replay.valid_len <= mutated.len() as u64);
            }
            Err(e) => {
                // Typed corruption (a checksum-valid payload that no
                // longer decodes) — allowed, as long as it is typed.
                let msg = e.to_string();
                prop_assert!(!msg.is_empty());
            }
        }
    }

    /// Damage plus truncation together (a crash *during* corruption —
    /// e.g. a torn sector rewrite) still honours the same contract.
    #[test]
    fn combined_damage_still_yields_prefix_or_typed_error(
        cut_frac in 0.0..1.0f64,
        flip_frac in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let (records, bytes) = journal_image();
        let cut = ((cut_frac * bytes.len() as f64) as usize).max(1);
        let mut mutated = bytes[..cut].to_vec();
        let pos = ((flip_frac * mutated.len() as f64) as usize).min(mutated.len() - 1);
        mutated[pos] ^= 1 << bit;
        if let Ok(replay) = decode_records(&mutated) {
            assert_prefix(&replay.records, records);
        }
    }
}

/// The non-random anchor: an undamaged image replays in full.
#[test]
fn the_pristine_image_replays_every_record() {
    let (records, bytes) = journal_image();
    let replay = decode_records(bytes).unwrap();
    assert_eq!(&replay.records, records);
    assert!(!replay.truncated);
    assert_eq!(replay.valid_len, bytes.len() as u64);
}
