import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from lle.errors import FormatError
from lle.numerics import (
    RngStream,
    RowStreams,
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
        streams = [RngStream(3, 1000 + i) for i in range(4)]
        rows = RowStreams(RngStream(3, 1000 + i) for i in range(4))
        for shape in [(4, 1, 5), (4, 6), (4, 2, 3)]:
            got = rows.standard_normal(shape)
            assert got.shape == shape
            for i, s in enumerate(streams):
                assert np.array_equal(got[i], s.standard_normal(shape[1:]))

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

    def test_zero_size_draw_advances_every_row(self):
        streams = [RngStream(5, 1000 + i, counter=i) for i in range(3)]
        got = RowStreams(streams).standard_normal((3, 0, 4))
        assert got.shape == (3, 0, 4)
        assert [s.counter for s in streams] == [1, 2, 3]
        expected = RngStream(5, 1000, counter=1).standard_normal(4)
        assert np.array_equal(RowStreams(streams[:1]).standard_normal((1, 4))[0], expected)
