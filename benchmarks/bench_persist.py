"""Durable storage engine: chunk codec and WAL record (EXPERIMENTS.md E20).

Measures the Gorilla chunk codec on workloads shaped like the stack's
own scrapes — steady 15 s cadence, slowly drifting gauges and
monotone counters — and reports:

* encode throughput (samples/s, pure-Python bit writer),
* decode throughput (samples/s, numpy-assisted bit reader),
* compression ratio vs raw float64 pairs (16 bytes/sample).

The ratio assertion is the load-bearing one: the whole point of the
chunk format is that persisted blocks are several times smaller than
the arrays they encode.  Throughput numbers are printed for the CI
log rather than asserted — wall-clock bounds are too noisy across
runners.

The head WAL's SAMPLES record gets the same treatment: the framed
bytes per sample of one scrape-shaped batch (an exact count), a
lossless roundtrip of the awkward floats, and encode/decode µs per
sample (logged).  Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_persist.py -q -s``.
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.tsdb.persist import decode_chunk, encode_chunk
from repro.tsdb.persist.head import decode_samples, encode_samples

SAMPLES = 24 * 240  # one day at 15 s cadence
RAW_BYTES_PER_SAMPLE = 16  # float64 timestamp + float64 value

#: Steady-cadence gauge data must beat raw float64 by at least this
#: much; noisy decimals leave XOR residue, so the floor is modest.
MIN_GAUGE_RATIO = 2.0
#: Monotone counters compress far better (small value deltas); the
#: observed ratio is ~7-8x.
MIN_COUNTER_RATIO = 5.0


def _gauge_workload() -> tuple[list[float], list[float]]:
    rng = random.Random(7)
    ts = [1.7e9 + 15.0 * i for i in range(SAMPLES)]
    value = 40.0
    vs = []
    for _ in range(SAMPLES):
        value = max(0.0, value + rng.uniform(-0.5, 0.5))
        vs.append(round(value, 1))
    return ts, vs


def _counter_workload() -> tuple[list[float], list[float]]:
    rng = random.Random(8)
    ts = [1.7e9 + 15.0 * i for i in range(SAMPLES)]
    total = 0.0
    vs = []
    for _ in range(SAMPLES):
        total += rng.randint(0, 50)
        vs.append(total)
    return ts, vs


def _chunked(ts, vs, size=120):
    for i in range(0, len(ts), size):
        yield ts[i : i + size], vs[i : i + size]


def _measure(name: str, ts: list[float], vs: list[float]) -> float:
    encoded = [encode_chunk(cts, cvs) for cts, cvs in _chunked(ts, vs)]  # warm

    started = time.perf_counter()
    encoded = [encode_chunk(cts, cvs) for cts, cvs in _chunked(ts, vs)]
    encode_s = time.perf_counter() - started

    started = time.perf_counter()
    for chunk in encoded:
        decode_chunk(chunk)
    decode_s = time.perf_counter() - started

    raw = len(ts) * RAW_BYTES_PER_SAMPLE
    packed = sum(len(c) for c in encoded)
    ratio = raw / packed
    print(
        f"\n[persist] {name}: encode {len(ts) / encode_s:,.0f} samples/s, "
        f"decode {len(ts) / decode_s:,.0f} samples/s, "
        f"{packed / len(ts):.2f} B/sample ({ratio:.2f}x vs raw float64)"
    )
    return ratio


def test_gauge_compression_beats_raw():
    ts, vs = _gauge_workload()
    assert _measure("gauge", ts, vs) >= MIN_GAUGE_RATIO


def test_counter_compression_beats_raw():
    ts, vs = _counter_workload()
    assert _measure("counter", ts, vs) >= MIN_COUNTER_RATIO


def test_encode_throughput(benchmark):
    ts, vs = _gauge_workload()
    chunks = list(_chunked(ts, vs))
    benchmark(lambda: [encode_chunk(cts, cvs) for cts, cvs in chunks])


def test_decode_throughput(benchmark):
    ts, vs = _gauge_workload()
    encoded = [encode_chunk(cts, cvs) for cts, cvs in _chunked(ts, vs)]
    benchmark(lambda: [decode_chunk(c) for c in encoded])


def test_roundtrip_lossless_at_scale():
    ts, vs = _counter_workload()
    got_ts = []
    got_vs = []
    for cts, cvs in _chunked(ts, vs):
        dts, dvs = decode_chunk(encode_chunk(cts, cvs))
        got_ts.extend(dts.tolist())
        got_vs.extend(dvs.tolist())
    assert (
        np.asarray(ts).view(np.uint64).tolist()
        == np.asarray(got_ts).view(np.uint64).tolist()
    )
    assert (
        np.asarray(vs).view(np.uint64).tolist()
        == np.asarray(got_vs).view(np.uint64).tolist()
    )


#: One node's scrape: this many series committed at one timestamp.
SCRAPE_BATCH = 64
#: The WAL frame around every record: u32 length + u32 CRC.
FRAME_BYTES = 8


def _scrape_batch() -> tuple[list[int], list[float], list[float]]:
    rng = random.Random(9)
    refs = list(range(1, SCRAPE_BATCH + 1))
    return refs, [1.7e9], [round(rng.uniform(0.0, 500.0), 3) for _ in refs]


def test_wal_record_bytes_per_sample():
    """[kind][n][nt] + one timestamp + 64 x (u32 ref + f64 value),
    framed: 12.39 B/sample, against the per-sample layout's
    (5 + 64 x 20 + 8) / 64 = 20.20."""
    framed = FRAME_BYTES + len(encode_samples(*_scrape_batch()))
    assert framed == FRAME_BYTES + 9 + 8 + SCRAPE_BATCH * 12
    print(f"\n[persist] WAL record: {framed} B framed for {SCRAPE_BATCH} samples, {framed / SCRAPE_BATCH:.2f} B/sample")


def test_wal_record_roundtrip_lossless():
    nan = np.array([0x7FF8000000000123, 0xFFF0000000000001], dtype=np.uint64).view(np.float64).tolist()
    values = [*nan, float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -1.7976931348623157e308]
    refs = list(range(1, len(values) + 1))
    for stamps in ([1.7e9], [1.7e9 + i for i in range(len(values))]):
        got_refs, got_stamps, got_values = decode_samples(encode_samples(refs, stamps, values))
        assert list(got_refs) == refs
        expected = stamps * len(values) if len(stamps) == 1 else stamps
        assert np.array(got_stamps).view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()
        assert np.array(got_values).view(np.uint64).tolist() == np.array(values).view(np.uint64).tolist()


def test_wal_record_codec_speed():
    batch = _scrape_batch()
    rounds = 2000
    started = time.perf_counter()
    records = [encode_samples(*batch) for _ in range(rounds)]
    encode_s = time.perf_counter() - started
    started = time.perf_counter()
    for record in records:
        decode_samples(record)
    decode_s = time.perf_counter() - started
    samples = rounds * SCRAPE_BATCH
    print(
        f"\n[persist] WAL record: encode {encode_s / samples * 1e6:.3f} us/sample, "
        f"decode {decode_s / samples * 1e6:.3f} us/sample ({SCRAPE_BATCH}-sample batches)"
    )
