//! Durability test suite for the segmented [`LogBackend`] chain: crash
//! recovery at every truncation point of the active segment *and* the
//! manifest, corruption detection across sealed segments, group-commit
//! durability under [`FsyncPolicy::Always`], the refusal of legacy
//! (version-1) directories, the pinned golden on-disk format, and
//! delegation-lifecycle durability.

use siot_core::error::TrustError;
use siot_core::log_backend::{
    segment_file_name, FsyncPolicy, LogOptions, FORMAT_VERSION, LOG_FILE, MANIFEST_FILE, SNAP_FILE,
};
use siot_core::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

mod common;
use common::tmpdir;

const HEADER: usize = 8;

fn rec(i: u32) -> TrustRecord {
    // dyadic components: every value is exactly representable, so equality
    // below is bit-exact, not approximate
    TrustRecord::with_priors(i as f64 / 8.0, 0.5, 0.25, 0.125)
}

/// `seg-*.log` files in `dir`, sorted by name (= by sequence number; the
/// last one is the active segment).
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = fs::read_dir(dir)
        .expect("dir readable")
        .map(|e| e.expect("entry readable").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".log"))
        })
        .collect();
    v.sort();
    v
}

fn active_segment(dir: &Path) -> PathBuf {
    segment_files(dir).pop().expect("chain has an active segment")
}

/// Copies every file of a template chain directory into a fresh scratch
/// dir, so each sweep iteration opens an untouched copy.
fn copy_chain(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("dir creatable");
    for entry in fs::read_dir(src).expect("template readable") {
        let entry = entry.expect("entry readable");
        fs::copy(entry.path(), dst.join(entry.file_name())).expect("file copies");
    }
}

/// A template chain of `n` single-record frames, written with `options`.
fn seeded_chain(n: u32, options: LogOptions) -> PathBuf {
    let dir = tmpdir("seed");
    let mut engine: DurableTrustStore<u32> = TrustEngine::open_with(&dir, options).expect("fresh");
    for i in 0..n {
        engine.seed_record(i, TaskId(0), rec(i));
    }
    engine.flush().expect("flush succeeds");
    drop(engine);
    dir
}

fn no_compaction() -> LogOptions {
    LogOptions { compact_every: 0, ..LogOptions::default() }
}

// ---------------------------------------------------------------------------
// Crash recovery: the truncation sweeps
// ---------------------------------------------------------------------------

/// Simulates a crash at *every byte boundary* of the active segment.
/// Reopen must never panic and recover exactly the frames wholly contained
/// in the surviving prefix (the longest checksum-valid prefix). Cuts inside
/// the 8-byte header are real corruption: segment files are fsynced before
/// the manifest ever lists them, so a listed segment cannot lack one.
#[test]
fn truncation_sweep_recovers_longest_valid_prefix() {
    const N: u32 = 6;
    let template = seeded_chain(N, no_compaction());
    let seg = active_segment(&template);
    let seg_name = seg.file_name().expect("file name").to_owned();
    let bytes = fs::read(&seg).expect("active segment readable");
    let frame = (bytes.len() - HEADER) / N as usize;
    assert_eq!(HEADER + frame * N as usize, bytes.len(), "fixed-width record frames");

    for cut in 0..=bytes.len() {
        let dir = tmpdir("cut");
        copy_chain(&template, &dir);
        fs::write(dir.join(&seg_name), &bytes[..cut]).expect("truncated segment writable");
        if cut < HEADER {
            let err = DurableTrustStore::<u32>::open(&dir)
                .expect_err("a listed segment without its header is corruption");
            assert!(
                matches!(err, TrustError::Corrupt { what: "segment header", .. }),
                "cut at byte {cut}: got {err:?}"
            );
            fs::remove_dir_all(&dir).expect("scratch removable");
            continue;
        }
        let engine: DurableTrustStore<u32> = TrustEngine::open(&dir)
            .unwrap_or_else(|e| panic!("cut at byte {cut} must recover, got {e}"));
        let complete = (cut - HEADER) / frame;
        assert_eq!(engine.record_count(), complete, "cut at byte {cut}");
        for i in 0..complete as u32 {
            assert_eq!(engine.record(i, TaskId(0)), Some(rec(i)), "cut at byte {cut}, record {i}");
        }
        // recovery truncated the torn tail: appends continue from a valid
        // frame, and a second open sees the same state plus the append
        drop(engine);
        let mut engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopen");
        engine.seed_record(99, TaskId(7), rec(7));
        drop(engine);
        let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("third open");
        assert_eq!(engine.record_count(), complete + 1, "cut at byte {cut}");
        assert_eq!(engine.record(99, TaskId(7)), Some(rec(7)));
        drop(engine);
        fs::remove_dir_all(&dir).expect("scratch removable");
    }
    fs::remove_dir_all(&template).expect("template removable");
}

/// The same sweep against a *multi-segment* chain (tiny `segment_bytes`
/// forces rotations): sealed segments replay in full no matter where the
/// active segment was cut — a crash tears at most the chain's tail.
#[test]
fn truncation_sweep_across_segment_boundaries() {
    const N: u32 = 23;
    let options = LogOptions { segment_bytes: 256, compact_every: 0, ..LogOptions::default() };
    let template = seeded_chain(N, options);
    assert!(segment_files(&template).len() >= 3, "tiny segment_bytes forces rotations");

    // frame width, derived rather than assumed
    let single = seeded_chain(1, no_compaction());
    let frame = fs::read(active_segment(&single)).expect("readable").len() - HEADER;
    fs::remove_dir_all(&single).expect("scratch removable");

    let seg = active_segment(&template);
    let seg_name = seg.file_name().expect("file name").to_owned();
    let bytes = fs::read(&seg).expect("active segment readable");
    let active_frames = (bytes.len() - HEADER) / frame;
    assert_eq!(HEADER + active_frames * frame, bytes.len(), "whole frames in the active segment");
    assert!(active_frames >= 2, "the sweep needs a multi-frame active segment");
    let sealed = N as usize - active_frames;

    for cut in 0..=bytes.len() {
        let dir = tmpdir("segcut");
        copy_chain(&template, &dir);
        fs::write(dir.join(&seg_name), &bytes[..cut]).expect("truncated segment writable");
        if cut < HEADER {
            assert!(
                DurableTrustStore::<u32>::open(&dir).is_err(),
                "cut at byte {cut}: headerless active segment is corruption"
            );
            fs::remove_dir_all(&dir).expect("scratch removable");
            continue;
        }
        let engine: DurableTrustStore<u32> = TrustEngine::open(&dir)
            .unwrap_or_else(|e| panic!("cut at byte {cut} must recover, got {e}"));
        let recovered = sealed + (cut - HEADER) / frame;
        assert_eq!(engine.record_count(), recovered, "cut at byte {cut}");
        for i in 0..recovered as u32 {
            assert_eq!(engine.record(i, TaskId(0)), Some(rec(i)), "cut at byte {cut}, record {i}");
        }
        drop(engine);
        fs::remove_dir_all(&dir).expect("scratch removable");
    }
    fs::remove_dir_all(&template).expect("template removable");
}

/// The manifest is swapped atomically (temp file + fsync + rename), so a
/// truncated manifest is real corruption at *every* cut — recovery must
/// report it as such rather than guess at a chain.
#[test]
fn manifest_truncation_sweep_reports_corrupt() {
    let options = LogOptions { segment_bytes: 256, compact_every: 0, ..LogOptions::default() };
    let template = seeded_chain(23, options);
    let bytes = fs::read(template.join(MANIFEST_FILE)).expect("manifest readable");
    for cut in 0..bytes.len() {
        let dir = tmpdir("mancut");
        copy_chain(&template, &dir);
        fs::write(dir.join(MANIFEST_FILE), &bytes[..cut]).expect("truncated manifest writable");
        let err = DurableTrustStore::<u32>::open(&dir)
            .expect_err("a truncated manifest must never parse");
        assert!(matches!(err, TrustError::Corrupt { .. }), "cut at byte {cut}: got {err:?}");
        fs::remove_dir_all(&dir).expect("scratch removable");
    }
    fs::remove_dir_all(&template).expect("template removable");
}

/// Flipping any single manifest byte (outside the two reserved header
/// bytes, which carry no meaning) must fail the header check or the chain
/// frame's checksum — never parse into a different chain.
#[test]
fn manifest_byte_flips_never_parse() {
    let options = LogOptions { segment_bytes: 256, compact_every: 0, ..LogOptions::default() };
    let template = seeded_chain(23, options);
    let bytes = fs::read(template.join(MANIFEST_FILE)).expect("manifest readable");
    for at in (0..bytes.len()).filter(|&at| at != 6 && at != 7) {
        let dir = tmpdir("manflip");
        copy_chain(&template, &dir);
        let mut damaged = bytes.clone();
        damaged[at] ^= 0xFF;
        fs::write(dir.join(MANIFEST_FILE), &damaged).expect("damaged manifest writable");
        let err =
            DurableTrustStore::<u32>::open(&dir).expect_err("a damaged manifest must never parse");
        assert!(
            matches!(err, TrustError::Corrupt { .. } | TrustError::UnsupportedFormat { .. }),
            "flip at byte {at}: got {err:?}"
        );
        fs::remove_dir_all(&dir).expect("scratch removable");
    }
    fs::remove_dir_all(&template).expect("template removable");
}

/// A complete final frame whose checksum fails (crash garbage at the tail
/// of the active segment) is recovered from silently — only the tail frame
/// is dropped.
#[test]
fn corrupt_tail_frame_is_recovered() {
    const N: u32 = 6;
    let dir = seeded_chain(N, no_compaction());
    let seg = active_segment(&dir);
    let mut bytes = fs::read(&seg).expect("active segment readable");
    let frame = (bytes.len() - HEADER) / N as usize;
    let last_payload = bytes.len() - frame + 8 + 2; // inside the last frame's payload
    bytes[last_payload] ^= 0xFF;
    fs::write(&seg, &bytes).expect("segment writable");
    let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("tail damage recovers");
    assert_eq!(engine.record_count(), (N - 1) as usize);
    drop(engine);
    fs::remove_dir_all(&dir).expect("scratch removable");
}

/// A checksum failure on a frame *followed by valid frames* cannot be a
/// torn append: it must surface as `TrustError::Corrupt` with the frame's
/// offset, never silently drop data.
#[test]
fn corrupt_mid_log_frame_reports_corrupt() {
    const N: u32 = 6;
    let dir = seeded_chain(N, no_compaction());
    let seg = active_segment(&dir);
    let mut bytes = fs::read(&seg).expect("active segment readable");
    let frame = (bytes.len() - HEADER) / N as usize;
    let second_frame_start = HEADER + frame;
    bytes[second_frame_start + 8 + 3] ^= 0x55; // payload of frame #1 (non-tail)
    fs::write(&seg, &bytes).expect("segment writable");
    let err = DurableTrustStore::<u32>::open(&dir).expect_err("mid-log corruption is fatal");
    match err {
        TrustError::Corrupt { what, offset } => {
            assert_eq!(what, "log frame checksum");
            assert_eq!(offset, second_frame_start as u64);
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    fs::remove_dir_all(&dir).expect("scratch removable");
}

/// Corrupting a mid-log frame's *length prefix* (not just its payload)
/// must still surface as `Corrupt`: the recovery scan looks for valid
/// frames at every alignment, so a damaged length field cannot disguise
/// the valid frames behind it as a torn tail.
#[test]
fn corrupt_mid_log_length_field_reports_corrupt() {
    const N: u32 = 6;
    let dir = seeded_chain(N, no_compaction());
    let seg = active_segment(&dir);
    let bytes = fs::read(&seg).expect("active segment readable");
    let frame = (bytes.len() - HEADER) / N as usize;
    let second_frame_start = HEADER + frame;
    for flip in [0x01u8, 0x40, 0xFF] {
        let mut damaged = bytes.clone();
        damaged[second_frame_start] ^= flip; // low byte of the len field
        fs::write(&seg, &damaged).expect("segment writable");
        let err = DurableTrustStore::<u32>::open(&dir)
            .expect_err("len-field damage before valid frames is corruption, not a tear");
        assert!(matches!(err, TrustError::Corrupt { .. }), "flip {flip:#x}: got {err:?}");
    }
    fs::remove_dir_all(&dir).expect("scratch removable");
}

/// Sealed (non-active) segments were fsynced before the manifest listed
/// them, so they get no tail tolerance: any damage inside one is fatal.
#[test]
fn corrupt_sealed_segment_reports_corrupt() {
    let options = LogOptions { segment_bytes: 256, compact_every: 0, ..LogOptions::default() };
    let dir = seeded_chain(23, options);
    let sealed = &segment_files(&dir)[0];
    let mut bytes = fs::read(sealed).expect("sealed segment readable");
    let mid = HEADER + 10;
    bytes[mid] ^= 0xFF;
    fs::write(sealed, &bytes).expect("segment writable");
    let err = DurableTrustStore::<u32>::open(&dir).expect_err("sealed-segment damage is fatal");
    assert!(matches!(err, TrustError::Corrupt { what: "segment frame", .. }), "got {err:?}");
    fs::remove_dir_all(&dir).expect("scratch removable");
}

/// A manifest-listed segment cannot vanish by crash — deletions happen
/// only after the superseding manifest is durable — so its absence is
/// corruption, never a fresh store.
#[test]
fn missing_listed_segment_reports_corrupt() {
    let options = LogOptions { segment_bytes: 256, compact_every: 0, ..LogOptions::default() };
    let dir = seeded_chain(23, options);
    fs::remove_file(&segment_files(&dir)[0]).expect("sealed segment removable");
    let err = DurableTrustStore::<u32>::open(&dir).expect_err("a missing listed segment is fatal");
    assert!(
        matches!(err, TrustError::Corrupt { what: "segment listed in manifest", .. }),
        "got {err:?}"
    );
    fs::remove_dir_all(&dir).expect("scratch removable");
}

/// Files a crashed chain mutation leaves behind — an unlisted segment from
/// an interrupted rotation, a manifest temp file — are swept on open and
/// never replayed.
#[test]
fn orphan_files_are_swept_on_open() {
    const N: u32 = 23;
    let options = LogOptions { segment_bytes: 256, compact_every: 0, ..LogOptions::default() };
    let dir = seeded_chain(N, options);
    let orphan = dir.join(segment_file_name(42));
    fs::write(&orphan, b"half-written rotation garbage").expect("orphan writable");
    fs::write(dir.join("trust.manifest.tmp"), b"torn manifest swap").expect("tmp writable");
    let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("orphans never block open");
    assert_eq!(engine.record_count(), N as usize, "orphan contents are not state");
    drop(engine);
    assert!(!orphan.exists(), "unlisted segment swept");
    assert!(!dir.join("trust.manifest.tmp").exists(), "manifest temp file swept");
    fs::remove_dir_all(&dir).expect("scratch removable");
}

// ---------------------------------------------------------------------------
// Format versioning
// ---------------------------------------------------------------------------

#[test]
fn version_mismatch_is_a_typed_error() {
    // a manifest written by a hypothetical future format version
    let dir = tmpdir("version");
    fs::create_dir_all(&dir).expect("dir creatable");
    fs::write(dir.join(MANIFEST_FILE), [b'S', b'I', b'O', b'T', b'M', FORMAT_VERSION + 1, 0, 0])
        .expect("writable");
    let err = DurableTrustStore::<u32>::open(&dir).expect_err("future manifest must not parse");
    assert_eq!(
        err,
        TrustError::UnsupportedFormat { found: FORMAT_VERSION + 1, expected: FORMAT_VERSION }
    );
    fs::remove_dir_all(&dir).expect("scratch removable");

    // same for a listed segment
    let dir = seeded_chain(3, no_compaction());
    let seg = active_segment(&dir);
    let mut bytes = fs::read(&seg).expect("segment readable");
    bytes[5] = FORMAT_VERSION + 1;
    fs::write(&seg, &bytes).expect("segment writable");
    let err = DurableTrustStore::<u32>::open(&dir).expect_err("future segment must not parse");
    assert_eq!(
        err,
        TrustError::UnsupportedFormat { found: FORMAT_VERSION + 1, expected: FORMAT_VERSION }
    );
    fs::remove_dir_all(&dir).expect("scratch removable");
}

/// A version-1 directory (`trust.log` / `trust.snap`, no manifest) is
/// refused with the typed version error — never migrated, never mistaken
/// for a fresh directory: no manifest or segment appears beside the old
/// files, and their bytes are untouched.
#[test]
fn legacy_v1_directory_is_refused_untouched() {
    let log = [b'S', b'I', b'O', b'T', b'L', 1, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF];
    let snap = [b'S', b'I', b'O', b'T', b'S', 1, 0, 0];
    for files in [
        &[(LOG_FILE, &log[..])][..],
        &[(SNAP_FILE, &snap[..])],
        &[(LOG_FILE, &log[..]), (SNAP_FILE, &snap[..])],
    ] {
        let dir = tmpdir("legacy-refused");
        fs::create_dir_all(&dir).expect("dir creatable");
        for (name, bytes) in files {
            fs::write(dir.join(name), bytes).expect("writable");
        }
        let err = DurableTrustStore::<u32>::open(&dir).expect_err("v1 is not read");
        assert_eq!(err, TrustError::UnsupportedFormat { found: 1, expected: FORMAT_VERSION });
        assert!(!dir.join(MANIFEST_FILE).exists(), "not treated as a fresh directory");
        assert!(segment_files(&dir).is_empty(), "no chain started beside the v1 files");
        for (name, bytes) in files {
            assert_eq!(&fs::read(dir.join(name)).expect("still there"), bytes, "{name} untouched");
        }
        fs::remove_dir_all(&dir).expect("scratch removable");
    }
}

// ---------------------------------------------------------------------------
// Golden files: the on-disk formats are pinned
// ---------------------------------------------------------------------------

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden")
}

/// Builds the golden state. Dyadic values throughout, so the pinned
/// assertions below are exact.
fn write_golden_state(dir: &Path) {
    let mut engine: DurableTrustStore<u32> = TrustEngine::open(dir).expect("dir opens");
    let betas = ForgettingFactors::uniform(0.5);
    engine.seed_record(1, TaskId(0), TrustRecord::with_priors(0.5, 0.25, 0.125, 0.0625));
    engine
        .observe_batch(
            &[(
                2,
                TaskId(1),
                Observation { success_rate: 0.75, gain: 0.5, damage: 0.25, cost: 0.0 },
            )],
            &betas,
        )
        .expect("in-range");
    engine.seed_usage_log(3, || UsageLog { responsive: 6, abusive: 2 });
    // the compacted segment holds everything above…
    engine.compact().expect("compaction succeeds");
    // …and the active segment holds what follows
    engine.observe(
        2,
        TaskId(1),
        &Observation { success_rate: 0.25, gain: 0.0, damage: 0.75, cost: 1.0 },
        &betas,
    );
    engine.seed_usage_log(4, || UsageLog { responsive: 1, abusive: 0 });
    engine.flush().expect("flush succeeds");
}

fn assert_golden_state(engine: &DurableTrustStore<u32>) {
    assert_eq!(engine.record_count(), 2);
    assert_eq!(engine.known_peers(), vec![1, 2]);
    let r1 = engine.record(1, TaskId(0)).expect("seeded record");
    assert_eq!((r1.s_hat, r1.g_hat, r1.d_hat, r1.c_hat), (0.5, 0.25, 0.125, 0.0625));
    assert_eq!(r1.interactions, 0);
    // two β=0.5 folds: 0.75 then blend(0.75, 0.25) etc — all dyadic
    let r2 = engine.record(2, TaskId(1)).expect("observed record");
    assert_eq!((r2.s_hat, r2.g_hat, r2.d_hat, r2.c_hat), (0.5, 0.25, 0.5, 0.5));
    assert_eq!(r2.interactions, 2);
    assert_eq!(engine.usage_log(3), UsageLog { responsive: 6, abusive: 2 });
    assert_eq!(engine.usage_log(4), UsageLog { responsive: 1, abusive: 0 });
}

/// Replays the *committed* fixture bytes and asserts the pinned state: a
/// format change either keeps reading version-2 chains exactly like this,
/// or bumps [`FORMAT_VERSION`] (and regenerates the fixture via the
/// ignored test below).
#[test]
fn golden_fixture_replays_to_pinned_state() {
    let fixtures = fixture_dir();
    // fixtures are committed; work on a copy so opening never touches them
    let dir = tmpdir("golden");
    fs::create_dir_all(&dir).expect("dir creatable");
    let entries = fs::read_dir(&fixtures)
        .unwrap_or_else(|e| panic!("fixture dir must exist (see generate_golden_fixture): {e}"));
    for entry in entries {
        let entry = entry.expect("entry readable");
        fs::copy(entry.path(), dir.join(entry.file_name())).expect("fixture copies");
    }
    assert!(dir.join(MANIFEST_FILE).exists(), "a v2 fixture pins a manifest");
    let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("fixture opens");
    assert_golden_state(&engine);
    drop(engine);
    fs::remove_dir_all(&dir).expect("scratch removable");
}

/// The fixture's generator — run `cargo test -p siot-core --test
/// persistence -- --ignored generate_golden_fixture` after an *intentional*
/// format-version bump to re-record the files, and commit them.
#[test]
#[ignore = "regenerates the committed golden fixture"]
fn generate_golden_fixture() {
    let dir = fixture_dir();
    let _ = fs::remove_dir_all(&dir);
    write_golden_state(&dir);
    // sanity: the freshly recorded fixture replays to the pinned state
    let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("fixture reopens");
    assert_golden_state(&engine);
}

/// The generator and the pinned assertions agree on today's code, with the
/// round trip running through a scratch dir (so this holds even when the
/// committed fixture is stale in a working tree).
#[test]
fn golden_state_round_trips_today() {
    let dir = tmpdir("golden-today");
    write_golden_state(&dir);
    let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopens");
    assert_golden_state(&engine);
    drop(engine);
    fs::remove_dir_all(&dir).expect("scratch removable");
}

// ---------------------------------------------------------------------------
// Group commit: acked means durable
// ---------------------------------------------------------------------------

/// Under [`FsyncPolicy::Always`] every write API returns only after its
/// group-commit barrier's fsync, so a hard crash — simulated by leaking
/// the engine, skipping `Drop`'s flush entirely — loses nothing that was
/// acked. (Also pins the `sync_all` fix: `sync_data` once let the file's
/// size metadata lag, turning acked frames into a torn tail.)
#[test]
fn always_acked_writes_survive_crash_without_flush() {
    let dir = tmpdir("always-crash");
    let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).expect("non-empty");
    let betas = ForgettingFactors::figures();
    let options =
        LogOptions { fsync: FsyncPolicy::Always, compact_every: 0, ..LogOptions::default() };
    {
        let mut engine: DurableTrustStore<u32> =
            TrustEngine::open_with(&dir, options).expect("fresh dir");
        engine.register_task(task.clone());
        for i in 0..40u32 {
            let active = engine
                .delegate(i % 5, &task, Goal::ANY, Context::amicable(task.id()))
                .activate(&engine);
            active
                .execute(&mut engine, DelegationOutcome::succeeded(0.75, 0.125), &betas)
                .expect("in-range outcome");
        }
        std::mem::forget(engine); // crash: no flush, no Drop
    }
    let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopen");
    let total: u64 =
        (0..5u32).filter_map(|p| engine.record(p, TaskId(0))).map(|r| r.interactions).sum();
    assert_eq!(total, 40, "every acked session is on disk");
    let logged: u64 = (0..5u32).map(|p| engine.usage_log(p).total()).sum();
    assert_eq!(logged, 40);
    drop(engine);
    fs::remove_dir_all(&dir).expect("scratch removable");
}

/// `commit_batch` returns its receipts only after the one fsync covering
/// the whole drained batch — so returned receipts survive the same
/// no-flush crash.
#[test]
fn batch_receipts_are_durable_once_returned_under_always() {
    let dir = tmpdir("batch-always");
    let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).expect("non-empty");
    let betas = ForgettingFactors::figures();
    let options =
        LogOptions { fsync: FsyncPolicy::Always, compact_every: 0, ..LogOptions::default() };
    {
        let mut engine: DurableTrustStore<u32> =
            TrustEngine::open_with(&dir, options).expect("fresh dir");
        let mut pending = Vec::new();
        for i in 0..12u32 {
            let active = engine
                .delegate(i % 4, &task, Goal::ANY, Context::amicable(task.id()))
                .activate(&engine);
            pending.push(active.finish(DelegationOutcome::succeeded(0.5, 0.25)).expect("in-range"));
        }
        engine.commit_batch(pending, &betas); // one barrier for the slate
        std::mem::forget(engine); // crash: no flush, no Drop
    }
    let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopen");
    for p in 0..4u32 {
        assert_eq!(engine.record(p, task.id()).expect("committed").interactions, 3);
        assert_eq!(engine.usage_log(p).responsive, 3);
    }
    drop(engine);
    fs::remove_dir_all(&dir).expect("scratch removable");
}

// ---------------------------------------------------------------------------
// Churn-proportional compaction, end to end
// ---------------------------------------------------------------------------

/// Incremental compaction folds the raw segments into one compacted
/// segment appended to the chain, the folded state survives reopen, and
/// repeated rounds keep the chain bounded.
#[test]
fn churn_compaction_preserves_state_across_reopen() {
    let dir = tmpdir("churn");
    let options = LogOptions { segment_bytes: 256, compact_every: 0, ..LogOptions::default() };
    let mut engine: DurableTrustStore<u32> =
        TrustEngine::open_with(&dir, options).expect("fresh dir");
    for i in 0..30u32 {
        engine.seed_record(i, TaskId(0), rec(i % 8));
    }
    engine.flush().expect("flush succeeds");
    assert!(engine.segments() >= 3, "tiny segment_bytes forced rotations");
    // churn a small hot set, then fold it
    for _ in 0..4 {
        for k in 0..3u32 {
            engine.seed_record(k, TaskId(0), rec(7));
        }
    }
    engine.compact_churned().expect("incremental compaction succeeds");
    assert_eq!(engine.compacted_segments(), 1, "one compacted segment leads the chain");
    assert_eq!(engine.segments(), 2, "raw segments folded away: [compacted, active]");
    drop(engine);
    let mut engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopen");
    assert_eq!(engine.record_count(), 30);
    for i in 0..30u32 {
        let want = if i < 3 { rec(7) } else { rec(i % 8) };
        assert_eq!(engine.record(i, TaskId(0)), Some(want), "record {i}");
    }
    // a second round on the already-compacted chain appends one more
    // compacted segment and still round-trips
    engine.seed_record(31, TaskId(0), rec(1));
    engine.compact_churned().expect("second incremental compaction succeeds");
    drop(engine);
    let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("second reopen");
    assert_eq!(engine.record_count(), 31);
    assert_eq!(engine.record(31, TaskId(0)), Some(rec(1)));
    drop(engine);
    fs::remove_dir_all(&dir).expect("scratch removable");
}

// ---------------------------------------------------------------------------
// Delegation-lifecycle durability
// ---------------------------------------------------------------------------

/// Execute sessions, drop the engine *without* an explicit flush, reopen:
/// interaction counts and mutuality logs must match exactly — and keep
/// matching as more sessions run, so double-counting on replay is
/// unrepresentable.
#[test]
fn executed_sessions_survive_drop_without_flush() {
    let dir = tmpdir("lifecycle");
    let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).expect("non-empty");
    let betas = ForgettingFactors::figures();
    let run_sessions = |engine: &mut DurableTrustStore<u32>, n: u32, offset: u32| {
        for i in 0..n {
            let peer = (offset + i) % 3;
            let active = engine
                .delegate(peer, &task, Goal::ANY, Context::amicable(task.id()))
                .activate(engine);
            let outcome = if i % 4 == 0 {
                DelegationOutcome::failed(0.5, 0.25).abusive()
            } else {
                DelegationOutcome::succeeded(0.75, 0.125)
            };
            active.execute(engine, outcome, &betas).expect("in-range outcome");
        }
    };

    let (expected_records, expected_logs);
    {
        let mut engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("fresh dir");
        engine.register_task(task.clone());
        run_sessions(&mut engine, 20, 0);
        expected_records = (0..3u32).map(|p| engine.record(p, task.id())).collect::<Vec<_>>();
        expected_logs = (0..3u32).map(|p| engine.usage_log(p)).collect::<Vec<_>>();
        // dropped without flush
    }

    let mut engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopen");
    engine.register_task(task.clone());
    for p in 0..3u32 {
        assert_eq!(engine.record(p, task.id()), expected_records[p as usize], "peer {p}");
        assert_eq!(engine.usage_log(p), expected_logs[p as usize], "peer {p}");
    }
    let total: u64 =
        (0..3u32).filter_map(|p| engine.record(p, task.id())).map(|r| r.interactions).sum();
    assert_eq!(total, 20, "one fold per executed session, nothing replayed twice");
    let logged: u64 = (0..3u32).map(|p| engine.usage_log(p).total()).sum();
    assert_eq!(logged, 20);

    // sessions after recovery continue the same histories
    run_sessions(&mut engine, 5, 1);
    drop(engine);
    let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("second reopen");
    let total: u64 =
        (0..3u32).filter_map(|p| engine.record(p, task.id())).map(|r| r.interactions).sum();
    assert_eq!(total, 25);
    let logged: u64 = (0..3u32).map(|p| engine.usage_log(p).total()).sum();
    assert_eq!(logged, 25);
    drop(engine);
    fs::remove_dir_all(&dir).expect("scratch removable");
}

/// `commit_batch` — the coordinator's slate shape — is just as durable.
#[test]
fn committed_batches_survive_reopen() {
    let dir = tmpdir("batch");
    let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).expect("non-empty");
    let betas = ForgettingFactors::figures();
    {
        let mut engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("fresh dir");
        let mut pending = Vec::new();
        for i in 0..12u32 {
            let active = engine
                .delegate(i % 4, &task, Goal::ANY, Context::amicable(task.id()))
                .activate(&engine);
            pending.push(active.finish(DelegationOutcome::succeeded(0.5, 0.25)).expect("in-range"));
        }
        engine.commit_batch(pending, &betas);
    }
    let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopen");
    for p in 0..4u32 {
        assert_eq!(engine.record(p, task.id()).expect("committed").interactions, 3);
        assert_eq!(engine.usage_log(p).responsive, 3);
    }
    drop(engine);
    fs::remove_dir_all(&dir).expect("scratch removable");
}

/// Raw `usage_log_mut` edits bypass the journal by design; `flush`
/// re-journals them. Both halves of that contract, pinned.
#[test]
fn raw_usage_log_edits_need_flush() {
    let dir = tmpdir("rawlog");
    {
        let mut engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("fresh dir");
        engine.usage_log_mut(9).record_abusive();
        // dropped without flush: the raw edit is lost (documented)
    }
    {
        let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopen");
        assert_eq!(engine.usage_log(9), UsageLog::default());
    }
    {
        let mut engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopen");
        engine.usage_log_mut(9).record_abusive();
        engine.flush().expect("flush succeeds");
    }
    let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("final reopen");
    assert_eq!(engine.usage_log(9).abusive, 1);
    drop(engine);
    fs::remove_dir_all(&dir).expect("scratch removable");
}

#[test]
fn clear_records_is_durable_and_keeps_usage_logs() {
    let dir = tmpdir("clear");
    {
        let mut engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("fresh dir");
        engine.seed_record(1, TaskId(0), rec(1));
        engine.seed_usage_log(1, || UsageLog { responsive: 2, abusive: 0 });
        engine.clear_records();
        engine.seed_record(2, TaskId(0), rec(2));
    }
    let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopen");
    assert_eq!(engine.record_count(), 1);
    assert!(engine.record(1, TaskId(0)).is_none(), "cleared record stays cleared");
    assert_eq!(engine.record(2, TaskId(0)), Some(rec(2)));
    assert_eq!(engine.usage_log(1).responsive, 2, "clear_records keeps usage logs");
    drop(engine);
    fs::remove_dir_all(&dir).expect("scratch removable");
}

// ---------------------------------------------------------------------------
// Reopen smoke (the CI `persistence` step's fast path)
// ---------------------------------------------------------------------------

#[test]
fn reopen_smoke_tmpdir() {
    let dir = tmpdir("smoke");
    let betas = ForgettingFactors::figures();
    {
        let mut engine: DurableTrustStore<u32> = TrustEngine::open_with(
            &dir,
            LogOptions { fsync: FsyncPolicy::Always, compact_every: 64, ..LogOptions::default() },
        )
        .expect("fresh dir");
        for i in 0..200u32 {
            engine.observe(i % 10, TaskId((i / 10) % 2), &Observation::success(0.5, 0.25), &betas);
        }
    }
    let engine: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopen");
    assert_eq!(engine.record_count(), 20);
    assert_eq!(engine.known_peers().len(), 10);
    assert_eq!(engine.record(0, TaskId(0)).expect("warm").interactions, 10);
    assert!(engine.trustworthiness(0, TaskId(0)).expect("warm").value() > 0.5);
    drop(engine);
    fs::remove_dir_all(&dir).expect("scratch removable");
}
