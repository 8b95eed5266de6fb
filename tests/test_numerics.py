import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from lle import canonical as canon
from lle import diffusion as dif
from lle import harness
from lle import operators as ops
from lle.errors import FormatError
from lle.numerics import (
    TAPE_CHUNK,
    RngStream,
    RowStreams,
    StreamTape,
    load_array,
    mse,
    psnr,
    save_array,
)


class TestRngStream:
    def test_same_stream_replays(self):
        a = RngStream(42, stream_id=7).standard_normal(16)
        b = RngStream(42, stream_id=7).standard_normal(16)
        assert np.array_equal(a, b)

    def test_counter_advances_between_calls(self):
        s = RngStream(1)
        assert not np.array_equal(s.standard_normal(8), s.standard_normal(8))

    def test_stream_ids_are_independent(self):
        a = RngStream(9, stream_id=0).standard_normal(64)
        b = RngStream(9, stream_id=1).standard_normal(64)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_explicit_counter_resumes_sequence(self):
        s = RngStream(5, stream_id=2)
        s.standard_normal(4)
        expected = s.standard_normal(4)
        resumed = RngStream(5, stream_id=2, counter=1).standard_normal(4)
        assert np.array_equal(expected, resumed)

    def test_child_starts_fresh(self):
        parent = RngStream(3)
        parent.standard_normal(10)
        c1 = parent.child(8).standard_normal(6)
        c2 = RngStream(3, stream_id=8).standard_normal(6)
        assert np.array_equal(c1, c2)

    def test_normal_moments(self):
        x = RngStream(123).standard_normal(1_000_000)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.01

    def test_uniform_range(self):
        u = RngStream(4).uniform(1000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_permutation_is_a_permutation(self):
        p = RngStream(11).permutation(50)
        assert sorted(p.tolist()) == list(range(50))

    def test_draws_match_checked_in_hash(self):
        # Pins the byte stream of every draw kind over several keys, counters
        # and shapes, so a change to how the generator is built or rewound
        # cannot silently change any seeded result.
        h = hashlib.sha256()
        for seed, sid, counter in [(0, 0, 0), (7, 3, 5), (2**63 + 11, 2**40, 1000),
                                   (-1, 1, 2**20)]:
            s = RngStream(seed, sid, counter)
            draws = [
                s.standard_normal(1), s.standard_normal((4, 5)), s.uniform(7),
                s.integers(0, 10, (6,)), s.standard_normal(257), s.permutation(13),
                s.uniform((2, 3)), s.integers(-5, 2**40, 3), s.standard_normal(0),
                s.permutation(1), s.uniform(1), s.standard_normal((3, 1)),
            ]
            for d in draws:
                h.update(str(d.shape).encode())
                h.update(np.ascontiguousarray(d).tobytes())
            h.update(str(s.counter).encode())
        assert h.hexdigest() == (
            "2c70cc75f39ed5f7fef29622bed120b0b6684a6268ee7f26163799f4fa7b7185"
        )

    def test_reassigned_fields_take_effect(self):
        s = RngStream(1, stream_id=2)
        s.standard_normal(3)
        s.base_seed, s.stream_id, s.counter = 8, 9, 4
        assert np.array_equal(s.standard_normal(5),
                              RngStream(8, stream_id=9, counter=4).standard_normal(5))

    def test_generator_is_not_part_of_identity(self):
        used = RngStream(6, stream_id=1)
        used.standard_normal(2)
        assert used == RngStream(6, stream_id=1, counter=1)
        assert repr(used) == "RngStream(base_seed=6, stream_id=1, counter=1)"

    def test_interleaved_streams_and_threads_replay(self):
        # every stream rewinds its thread's one generator before each draw, so
        # interleaving streams, or drawing from other threads at the same
        # time, changes nothing
        alone = [np.stack([RngStream(4, i, c).standard_normal(9) for c in range(300)])
                 for i in range(4)]
        a, b = RngStream(4, 0), RngStream(4, 1)
        mixed = [(a.standard_normal(9), b.standard_normal(9)) for _ in range(300)]
        assert np.array_equal(np.stack([m[0] for m in mixed]), alone[0])
        assert np.array_equal(np.stack([m[1] for m in mixed]), alone[1])
        out = {}

        def draw(i):
            s = RngStream(4, i)
            out[i] = np.stack([s.standard_normal(9) for _ in range(300)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in range(4):
            assert np.array_equal(out[i], alone[i])

    @pytest.mark.parametrize("bad", [-1, 2**190, 2**256 + 3])
    def test_out_of_range_counter_raises_on_every_draw(self, bad):
        with pytest.raises(ValueError, match="counter"):
            RngStream(1, stream_id=2, counter=bad).standard_normal(3)
        s = RngStream(1, stream_id=2)
        s.standard_normal(3)
        s.counter = bad
        for _ in range(2):
            with pytest.raises(ValueError, match="counter"):
                s.uniform(3)
        assert s.counter == bad

    def test_largest_counter_does_not_wrap(self):
        top = 2**190 - 1
        philox = np.random.Philox(key=5 ^ (3 << 64), counter=top << 66)
        expected = np.random.Generator(philox).standard_normal(4)
        s = RngStream(5, stream_id=3)
        s.standard_normal(1)
        s.counter = top
        assert np.array_equal(s.standard_normal(4), expected)
        assert np.array_equal(RngStream(5, 3, top).standard_normal(4), expected)

    def test_sample_helper_empty(self):
        # an empty draw needs no helper: the stream itself returns an empty array
        assert RngStream(0).standard_normal(0).size == 0


class TestArrayFile:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "a.bin"
        data = RngStream(7).standard_normal((5, 3))
        save_array(path, 5, 3, data)
        rows, cols, back = load_array(path)
        assert (rows, cols) == (5, 3)
        assert np.array_equal(back, data)

    def test_single_element(self, tmp_path):
        path = tmp_path / "one.bin"
        save_array(path, 1, 1, np.array([[math.pi]]))
        assert load_array(path)[2][0, 0] == math.pi

    def test_header_bytes(self, tmp_path):
        path = tmp_path / "h.bin"
        save_array(path, 2, 2, np.zeros((2, 2)))
        blob = path.read_bytes()
        assert blob.startswith(b"LLEF64\n2 2\n")
        assert len(blob) == 11 + 4 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError, match="byte offset 0"):
            load_array(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        save_array(path, 3, 3, np.ones((3, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_array(path)

    def test_garbled_header_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(b"LLEF64\nnot numbers\n" + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_array(path)

    @pytest.mark.parametrize("rows, cols", [(-1, -2), (-2, -2), (0, -1), (-1, 0)])
    def test_negative_size_rejected(self, tmp_path, rows, cols):
        # the payload holds rows * cols values, so only the sign gives the header away
        path = tmp_path / "neg.bin"
        path.write_bytes(f"LLEF64\n{rows} {cols}\n".encode() + bytes(8 * rows * cols))
        with pytest.raises(FormatError, match=f"byte offset 7: negative size {rows} x {cols}"):
            load_array(path)

    def test_size_mismatch_on_save(self, tmp_path):
        with pytest.raises(ValueError):
            save_array(tmp_path / "x.bin", 2, 3, np.zeros(5))


class TestMetrics:
    def test_mse_zero_for_equal(self):
        x = np.arange(4.0)
        assert mse(x, x) == 0.0

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))

    def test_psnr_infinite_at_zero_error(self):
        assert psnr(np.ones(5), np.ones(5)) == math.inf

    def test_psnr_known_values(self):
        # peak 2, mse 4 -> 0 dB; mse 0.04 -> 20 dB
        x = np.zeros(10)
        assert abs(psnr(x + 2.0, x, peak=2.0)) < 1e-12
        assert abs(psnr(x + 0.2, x, peak=2.0) - 20.0) < 1e-12

    def test_psnr_decreases_with_error(self):
        ref = np.zeros(8)
        vals = [psnr(ref + e, ref) for e in (0.1, 0.2, 0.5, 1.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_psnr_rejects_bad_peak(self):
        with pytest.raises(ValueError):
            psnr(np.zeros(2), np.ones(2), peak=0.0)


class TestRowStreams:
    def test_row_draws_are_each_streams_own(self):
        # row i of a RowStreams tape reads what a one-row tape of its stream reads
        tapes = [StreamTape(RngStream(3, 1000 + i)) for i in range(4)]
        rows = RowStreams(RngStream(3, 1000 + i) for i in range(4))
        for shape in [(4, 1, 5), (4, 6), (4, 2, 3), (4, 300), (4, 1, 700)]:
            got = rows.standard_normal(shape)
            assert got.shape == shape
            for i, tape in enumerate(tapes):
                assert np.array_equal(got[i], tape.standard_normal(shape[1:]))
        assert [s.counter for s in rows.streams] == [t.streams[0].counter for t in tapes]

    def test_row_count_must_match(self):
        with pytest.raises(ValueError):
            RowStreams([RngStream(1), RngStream(2)]).standard_normal((3, 1, 4))

    def test_failed_draw_advances_no_row(self):
        streams = [RngStream(5, 1000), RngStream(5, 1001), RngStream(5, 1002, counter=2**190)]
        rows = RowStreams(streams)
        with pytest.raises(ValueError):
            rows.standard_normal((3, 1, 4))
        assert [s.counter for s in streams] == [0, 0, 2**190]

    def test_block_draw_is_the_plain_draw_it_is_defined_by(self):
        # RngStream: one (count,) + shape draw; RowStreams: each row's one
        # (count,) + trailing draw, moved to axis 1
        for count, shape in [(10, (4, 1, 5)), (3, (2, 6)), (1, (3, 2, 2))]:
            single, ref = RngStream(7, 2, counter=5), RngStream(7, 2, counter=5)
            got = single.standard_normal_block(count, shape)
            assert got.shape == (count,) + shape
            assert np.array_equal(got, ref.standard_normal((count,) + shape))
            assert single.counter == 6
            streams = [RngStream(7, 1000 + i, counter=i) for i in range(shape[0])]
            refs = [RngStream(7, 1000 + i, counter=i) for i in range(shape[0])]
            got = RowStreams(streams).standard_normal_block(count, shape)
            assert got.shape == (count,) + shape
            plain = RowStreams(refs).standard_normal((shape[0], count) + shape[1:])
            assert np.array_equal(got, np.moveaxis(plain, 1, 0))
            for i in range(shape[0]):
                row = RngStream(7, 1000 + i, counter=i).standard_normal((count,) + shape[1:])
                assert np.array_equal(got[:, i], row)
            assert [s.counter for s in streams] == [i + 1 for i in range(shape[0])]

    def test_failed_block_draw_advances_no_row(self):
        streams = [RngStream(5, 1000), RngStream(5, 1001, counter=2**190), RngStream(5, 1002)]
        with pytest.raises(ValueError):
            RowStreams(streams).standard_normal_block(10, (3, 1, 4))
        assert [s.counter for s in streams] == [0, 2**190, 0]
        with pytest.raises(ValueError):
            RowStreams(streams[:2]).standard_normal_block(10, (3, 1, 4))
        assert [s.counter for s in streams] == [0, 2**190, 0]

    def test_zero_size_draw_reads_nothing(self):
        streams = [RngStream(5, 1000 + i, counter=i) for i in range(3)]
        rows = RowStreams(streams)
        got = rows.standard_normal((3, 0, 4))
        assert got.shape == (3, 0, 4)
        assert [s.counter for s in streams] == [0, 1, 2]
        expected = RngStream(5, 1000, counter=0).standard_normal(TAPE_CHUNK)[:4]
        assert np.array_equal(rows.standard_normal((3, 4))[0], expected)
        assert [s.counter for s in streams] == [1, 2, 3]


def _chunks(seed, stream_id, first, count):
    """Chunks first .. first + count - 1 of a stream's tape, end to end."""
    return np.concatenate([RngStream(seed, stream_id, c).standard_normal(TAPE_CHUNK)
                           for c in range(first, first + count)])


class TestTape:
    # reads that straddle chunk ends, read nothing, or span several chunks
    SIZES = [7, 500, 0, 1, 600, 4, 1030, TAPE_CHUNK - 4]

    def test_rows_read_their_chunks_in_order_each_value_once(self):
        streams = [RngStream(3, 1000 + i, counter=5 + i) for i in range(3)]
        rows = RowStreams(streams)
        got = np.concatenate([rows.standard_normal((3, n)) for n in self.SIZES], axis=1)
        total = sum(self.SIZES)
        fills = -(-total // TAPE_CHUNK)
        for i, stream in enumerate(streams):
            assert np.array_equal(got[i], _chunks(3, 1000 + i, 5 + i, fills)[:total])
            assert stream.counter == 5 + i + fills

    def test_one_row_tape_reads_its_chunks_in_order_each_value_once(self):
        stream = RngStream(2**63 + 11, 2**40, counter=1000)
        tape = StreamTape(stream)
        shapes = [(7,), (5, 100), (), (1,), (3, 2, 100), 4, (2, 515), (TAPE_CHUNK - 4,)]
        got = [tape.standard_normal(shape) for shape in shapes]
        assert [g.shape for g in got] == [s if isinstance(s, tuple) else (s,) for s in shapes]
        flat = np.concatenate([g.reshape(-1) for g in got])
        fills = -(-flat.size // TAPE_CHUNK)
        assert np.array_equal(flat, _chunks(2**63 + 11, 2**40, 1000, fills)[:flat.size])
        assert stream.counter == 1000 + fills

    @pytest.mark.parametrize("count, shape", [(10, (4, 1, 5)), (3, (2, 600)), (1, (3, 2, 2))])
    def test_block_is_count_single_draws_and_one_joined_draw(self, count, shape):
        def rows():
            return RowStreams(RngStream(7, 1000 + i, counter=i) for i in range(shape[0]))

        def one():
            return StreamTape(RngStream(7, 2, counter=5))

        head = (3, 1, 5)  # an earlier read, so the block starts inside a chunk
        tapes = [rows() for _ in range(3)]
        for tape in tapes:
            tape.standard_normal((shape[0],) + head[1:])
        block = tapes[0].standard_normal_block(count, shape)
        singles = np.stack([tapes[1].standard_normal(shape) for _ in range(count)])
        joined = np.moveaxis(tapes[2].standard_normal((shape[0], count) + shape[1:]), 1, 0)
        assert block.shape == (count,) + shape
        assert np.array_equal(block, singles) and np.array_equal(block, joined)
        tapes = [one() for _ in range(3)]
        for tape in tapes:
            tape.standard_normal(head)
        block = tapes[0].standard_normal_block(count, shape)
        singles = np.stack([tapes[1].standard_normal(shape) for _ in range(count)])
        joined = tapes[2].standard_normal((count,) + shape)
        assert np.array_equal(block, singles) and np.array_equal(block, joined)

    def test_a_counter_past_the_limit_raises_and_moves_nothing(self):
        limit = 2**190
        streams = [RngStream(5, 1000), RngStream(5, 1001, counter=limit - 1)]
        rows = RowStreams(streams)
        first = rows.standard_normal((2, 10))  # row 1 fills its last valid chunk
        assert [s.counter for s in streams] == [1, limit]
        for n in (TAPE_CHUNK, 3 * TAPE_CHUNK):  # each needs another fill
            with pytest.raises(ValueError):
                rows.standard_normal((2, n))
            assert [s.counter for s in streams] == [1, limit]
        # the tape is where the failed reads found it
        rest = rows.standard_normal((2, TAPE_CHUNK - 10))
        assert np.array_equal(np.hstack([first, rest])[0], _chunks(5, 1000, 0, 1))
        assert np.array_equal(np.hstack([first, rest])[1], _chunks(5, 1001, limit - 1, 1))
        one = RngStream(5, 7, counter=limit - 1)
        with pytest.raises(ValueError):
            StreamTape(one).standard_normal(TAPE_CHUNK + 1)  # two fills, the second past it
        assert one.counter == limit - 1


class _Recording(RowStreams):
    """A `RowStreams` tape that keeps a copy of every draw it hands out."""

    def __init__(self, streams):
        super().__init__(streams)
        self.draws = []

    def standard_normal(self, shape):
        out = super().standard_normal(shape)
        self.draws.append(out.copy())
        return out


@pytest.mark.parametrize("algorithm", ["DDRM", "ReSample", "DAPS"])
def test_each_steps_noise_slice_has_the_moments_of_a_standard_normal(algorithm):
    # every slice a driver call draws from the tape, 4,000 rows of d = 6 at S = 5:
    # each mean within 4 standard errors of 0, each covariance entry of I
    n, d = 4000, 6
    prior, schedule = harness.random_prior(d, 1, 3), dif.linear_beta_schedule()
    op = ops.mask_operator(d, [0, 2, 3])
    y = RngStream(71, 1).standard_normal((n, 1, op.m))
    tape = _Recording(RngStream(71, 1000 + i) for i in range(n))
    canon.run_with_combiner(canon.default_params(algorithm), prior, schedule,
                            ops.Observation(y=y, op=op, sigma_y=0.05),
                            dif.make_time_grid(schedule, 5), tape)
    assert len(tape.draws) >= 6  # x_T and a noiser draw per step at least
    se_cov = np.sqrt((1.0 + np.eye(d)) / n)  # the standard error of x_i x_j's mean
    for k, draw in enumerate(tape.draws):
        x = draw.reshape(n, d)
        assert np.all(np.abs(x.mean(axis=0)) <= 4.0 / np.sqrt(n)), k
        assert np.all(np.abs(x.T @ x / n - np.eye(d)) <= 4.0 * se_cov), k
