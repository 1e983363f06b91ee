//! Criterion bench: the CRC-32 every container trailer carries, at the
//! sizes one served n = 216 PCG job checksums — a checkpoint (5.3 KB), a
//! `Submit` frame or journal `Accepted` record (47 KB), and a dump of the
//! full 1024-slot flight ring (57 KB).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use alrescha::util::splitmix64;
use alrescha_obs::crc32;

fn bench_crc32(c: &mut Criterion) {
    let mut state = 0x5eed;
    let bytes: Vec<u8> = (0..57_372).map(|_| splitmix64(&mut state) as u8).collect();
    let mut group = c.benchmark_group("crc32");
    for (label, len) in [("5k", 5_300), ("47k", 47_000), ("57k", 57_372)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &bytes[..len],
            |b, bytes| {
                b.iter(|| crc32(bytes));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_crc32);
criterion_main!(benches);
