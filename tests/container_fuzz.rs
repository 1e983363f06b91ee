//! Decoder fuzz harness over all five container formats: ALSV wire frames,
//! ALJL journal records, ALCK checkpoints, ALFR flight dumps and ALPR
//! program containers.
//!
//! Every case starts from a committed golden fixture (or from random bytes
//! behind the format's magic) and is damaged with a fixed-seed mutation:
//! a byte flip, a truncation, or a length/count overwrite (`u64::MAX`,
//! `u32::MAX`, value + 1). Each case is then **re-sealed with a valid
//! CRC-32**, so the damage reaches payload decoding instead of stopping
//! at the trailer check. Every decode must return `Ok` or a typed error:
//! it must not panic, and its largest single allocation must stay within a
//! fixed multiple of the input size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use alrescha::SolverCheckpoint;
use alrescha_asm::container::read_container;
use alrescha_obs::{codec, FlightDump};
use alrescha_serve::{Frame, Journal};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Records the largest single allocation request made on this thread.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Largest single allocation a decode may make for an input of `len`
/// bytes. Every container field is at least one byte per element the
/// decoder allocates for, so anything past this is an unchecked count.
fn allocation_bound(len: usize) -> usize {
    64 * len + (1 << 20)
}

/// Where each format's header keeps a length the rest of the bytes must
/// agree with; a truncation rewrites it so decoding gets past the header.
#[derive(Clone, Copy)]
enum LengthField {
    /// None: the CRC covers the whole buffer and no header length exists.
    None,
    /// A `u32` payload length at `at`, counting bytes from `from`.
    Payload { at: usize, from: usize },
    /// The ALFR record count: `(len - 24) / 56` at byte 12.
    FlightRecords,
}

struct Format {
    name: &'static str,
    magic: &'static [u8; 4],
    fixtures: Vec<PathBuf>,
    length: LengthField,
    /// Whether the trailer sits at the very end of the buffer, so a
    /// re-sealed case can never fail on its CRC.
    crc_at_end: bool,
    decode: fn(&[u8]) -> Result<(), String>,
}

fn golden(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(rel)
}

fn decode_alsv(bytes: &[u8]) -> Result<(), String> {
    Frame::decode(bytes).map(drop).map_err(|e| e.to_string())
}

fn decode_alck(bytes: &[u8]) -> Result<(), String> {
    SolverCheckpoint::from_bytes(bytes)
        .map(drop)
        .map_err(|e| e.to_string())
}

fn decode_alfr(bytes: &[u8]) -> Result<(), String> {
    FlightDump::decode(bytes)
        .map(drop)
        .map_err(|e| e.to_string())
}

fn decode_alpr(bytes: &[u8]) -> Result<(), String> {
    read_container(bytes).map(drop).map_err(|e| e.to_string())
}

thread_local! {
    /// Scratch directory for journal replays, one per test thread so
    /// parallel tests never share a file.
    static JOURNAL_DIR: PathBuf = std::env::temp_dir().join(format!(
        "alrescha-container-fuzz-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
}

/// Journal records are decoded by replay: write the bytes as a journal
/// file and open it.
fn decode_aljl(bytes: &[u8]) -> Result<(), String> {
    let path = JOURNAL_DIR.with(|d| std::fs::create_dir_all(d).map(|()| d.join("jobs.wal")));
    let path = path.map_err(|e| e.to_string())?;
    std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
    Journal::open(&path)
        .map(|j| drop(j.recover()))
        .map_err(|e| e.to_string())
}

fn formats() -> Vec<Format> {
    let mut alpr: Vec<PathBuf> = std::fs::read_dir(golden("alpr"))
        .expect("alpr fixtures")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "alpr"))
        .collect();
    alpr.sort();
    vec![
        Format {
            name: "ALSV",
            magic: b"ALSV",
            fixtures: vec![golden("containers/submit.alsv")],
            length: LengthField::Payload { at: 9, from: 13 },
            crc_at_end: true,
            decode: decode_alsv,
        },
        Format {
            name: "ALJL",
            magic: b"ALJL",
            fixtures: vec![golden("containers/accepted.aljl")],
            length: LengthField::Payload { at: 4, from: 8 },
            crc_at_end: false,
            decode: decode_aljl,
        },
        Format {
            name: "ALCK",
            magic: b"ALCK",
            fixtures: vec![golden("containers/pcg.alck")],
            length: LengthField::None,
            crc_at_end: true,
            decode: decode_alck,
        },
        Format {
            name: "ALFR",
            magic: b"ALFR",
            fixtures: vec![golden("containers/ring.alfr")],
            length: LengthField::FlightRecords,
            crc_at_end: false,
            decode: decode_alfr,
        },
        Format {
            name: "ALPR",
            magic: b"ALPR",
            fixtures: alpr,
            length: LengthField::None,
            crc_at_end: true,
            decode: decode_alpr,
        },
    ]
}

/// Offsets whose `u64` or `u32` reads as a plausible length, count or
/// dimension: the fields an overwrite should hit.
fn count_like_offsets(body: &[u8]) -> Vec<usize> {
    let small = |v: u64| (1..1 << 24).contains(&v);
    (0..body.len())
        .filter(|&i| {
            let word = |n: usize| {
                body.get(i..i + n).map(|b| {
                    let mut w = [0u8; 8];
                    w[..n].copy_from_slice(b);
                    u64::from_le_bytes(w)
                })
            };
            word(8).is_some_and(small) || word(4).is_some_and(small)
        })
        .collect()
}

/// The damaged, unsealed bodies derived from one fixture body.
fn mutations(body: &[u8], length: LengthField, rng: &mut SmallRng) -> Vec<(String, Vec<u8>)> {
    let mut cases = Vec::new();
    for _ in 0..64 {
        let at = rng.gen_range(0..body.len());
        let mask = (rng.gen::<u32>() % 255 + 1) as u8;
        let mut b = body.to_vec();
        b[at] ^= mask;
        cases.push((format!("flip {mask:#04x} at {at}"), b));
    }
    let cuts: Vec<usize> = (0..body.len().min(48))
        .chain((0..64).map(|_| rng.gen_range(0..body.len())))
        .collect();
    for cut in cuts {
        let mut b = body[..cut].to_vec();
        fix_length(&mut b, length);
        cases.push((format!("truncate to {cut}"), b));
    }
    let mut offsets = count_like_offsets(body);
    // Every header field, plus a fixed-seed sample of the deeper ones.
    let deep = offsets.split_off(offsets.partition_point(|&i| i < 64));
    offsets.extend((0..96.min(deep.len())).map(|_| deep[rng.gen_range(0..deep.len())]));
    for at in offsets {
        let mut word8 = [0u8; 8];
        let n8 = body.len().saturating_sub(at).min(8);
        word8[..n8].copy_from_slice(&body[at..at + n8]);
        let v64 = u64::from_le_bytes(word8);
        let v32 = v64 as u32;
        for (label, bytes) in [
            ("u64::MAX", u64::MAX.to_le_bytes().to_vec()),
            (
                "u32::MAX as u64",
                u64::from(u32::MAX).to_le_bytes().to_vec(),
            ),
            ("u64 len+1", v64.wrapping_add(1).to_le_bytes().to_vec()),
            ("u32::MAX", u32::MAX.to_le_bytes().to_vec()),
            ("u32 len+1", v32.wrapping_add(1).to_le_bytes().to_vec()),
        ] {
            let mut b = body.to_vec();
            let end = (at + bytes.len()).min(b.len());
            b[at..end].copy_from_slice(&bytes[..end - at]);
            cases.push((format!("{label} at {at}"), b));
        }
    }
    cases
}

fn fix_length(body: &mut [u8], length: LengthField) {
    let (at, value) = match length {
        LengthField::None => return,
        LengthField::Payload { at, from } => (at, body.len().saturating_sub(from)),
        LengthField::FlightRecords => (12, body.len().saturating_sub(24) / 56),
    };
    if let Some(field) = body.get_mut(at..at + 4) {
        field.copy_from_slice(&(value as u32).to_le_bytes());
    }
}

/// Runs one decode, turning a panic, an oversized allocation or a CRC
/// failure of a re-sealed case into a failure line. Returns whether the
/// decode succeeded.
fn check(
    format: &Format,
    case: &str,
    bytes: &[u8],
    resealed: bool,
    failures: &mut Vec<String>,
) -> bool {
    PEAK.with(|p| p.set(0));
    let outcome = catch_unwind(AssertUnwindSafe(|| (format.decode)(bytes)));
    let peak = PEAK.with(Cell::get);
    if peak > allocation_bound(bytes.len()) {
        failures.push(format!(
            "{} {case}: allocated {peak} bytes for a {}-byte input",
            format.name,
            bytes.len()
        ));
    }
    match outcome {
        Ok(Ok(())) => true,
        Ok(Err(e)) => {
            if resealed && format.crc_at_end && e.contains("CRC mismatch") {
                failures.push(format!(
                    "{} {case}: re-sealed case failed its CRC",
                    format.name
                ));
            }
            false
        }
        Err(_) => {
            failures.push(format!("{} {case}: decoder panicked", format.name));
            false
        }
    }
}

fn sealed(mut body: Vec<u8>) -> Vec<u8> {
    codec::seal(&mut body);
    body
}

#[test]
fn resealed_mutations_of_every_golden_fixture_decode_or_fail_typed() {
    let mut rng = SmallRng::seed_from_u64(0x00C0_DEC5);
    let mut failures = Vec::new();
    let mut cases = 0usize;
    for format in formats() {
        assert!(!format.fixtures.is_empty(), "{}: no fixtures", format.name);
        for path in &format.fixtures {
            let fixture = std::fs::read(path).expect("golden fixture");
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let name = name.unwrap_or_default();
            assert!(
                check(&format, &name, &fixture, true, &mut failures),
                "{}: golden fixture {name} does not decode",
                format.name
            );
            let body = codec::unseal(&fixture).expect("golden trailer");
            for (what, damaged) in mutations(body, format.length, &mut rng) {
                check(
                    &format,
                    &format!("{name}: {what}"),
                    &sealed(damaged),
                    true,
                    &mut failures,
                );
                cases += 1;
            }
        }
    }
    assert!(cases > 2000, "only {cases} cases");
    JOURNAL_DIR.with(|d| drop(std::fs::remove_dir_all(d)));
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn random_bytes_behind_each_magic_decode_or_fail_typed() {
    let mut rng = SmallRng::seed_from_u64(0x0BAD_B17E);
    let mut failures = Vec::new();
    for format in formats() {
        for case in 0..256 {
            let len = rng.gen_range(0..512usize);
            let mut body = format.magic.to_vec();
            body.extend((0..len).map(|_| rng.gen::<u32>() as u8));
            // Small headers make the bytes reach deeper fields.
            for b in body.iter_mut().skip(4).take(16) {
                *b %= 4;
            }
            check(
                &format,
                &format!("random {case} raw"),
                &body,
                false,
                &mut failures,
            );
            let resealed = sealed(body);
            check(
                &format,
                &format!("random {case} re-sealed"),
                &resealed,
                true,
                &mut failures,
            );
        }
    }
    JOURNAL_DIR.with(|d| drop(std::fs::remove_dir_all(d)));
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
