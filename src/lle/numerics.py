"""Deterministic randomness, flat-array persistence, and scalar metrics.

Everything downstream draws noise through :class:`RngStream`, so a run is
reproducible from (base_seed, stream_id) alone.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

ARRAY_MAGIC = b"LLEF64\n"
_MASK64 = 0xFFFFFFFFFFFFFFFF
_COUNTER_LIMIT = 2**190  # counter << 66 must fit Philox's 256-bit counter


# per thread, from its first draw on: (generator, its bit generator, the
# Philox state dict rewound before every draw, that dict's key and counter
# lists); building a Philox costs several draws, rewinding one a fraction of a
# draw, and NumPy loads numpy.random only when the first one is built
_THREAD = threading.local()


def _new_philox() -> tuple:
    gen = np.random.Generator(np.random.Philox(key=0))
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    words = state["state"]
    return gen, gen.bit_generator, state, words["key"], words["counter"]


def _philox() -> tuple:
    parts = getattr(_THREAD, "philox", None)
    if parts is None:
        parts = _THREAD.philox = _new_philox()
    return parts


def _check_counter(c: int) -> None:
    if not 0 <= c < _COUNTER_LIMIT:
        raise ValueError(f"counter must lie in [0, 2**190), got {c}")


def _rewind(parts: tuple, stream: "RngStream") -> np.random.Generator:
    """The thread's generator (from `_philox`), set to draw what
    ``Philox(key, counter << 66)`` would, with key = base_seed + 2**64 *
    stream_id (each taken mod 2**64) and the stream's current counter.

    It writes the key and counter words into the thread's state dict in place
    and sets it (which also empties the output buffer), so a reassigned field
    takes effect on the next draw. The caller checks and advances the counter.
    """
    gen, bit_generator, state, key, ctr = parts
    key[0] = stream.base_seed & _MASK64
    key[1] = stream.stream_id & _MASK64
    # counter << 66 as four little-endian 64-bit words; the lowest is 0
    c = stream.counter
    ctr[1] = (c << 2) & _MASK64
    ctr[2] = (c >> 62) & _MASK64
    ctr[3] = c >> 126
    bit_generator.state = state
    return gen


@dataclass
class RngStream:
    """Counter-based random stream, splittable by (base_seed, stream_id).

    Backed by the Philox 4x64 counter-based generator. Streams with the
    same (base_seed, stream_id) replay the same sequence; different
    stream_ids are independent. The counter advances once per draw call,
    so the sequence depends only on the order of calls.
    """

    base_seed: int
    stream_id: int = 0
    counter: int = 0

    def child(self, stream_id: int) -> "RngStream":
        """Fresh stream sharing base_seed, with its own id and zero counter."""
        return RngStream(self.base_seed, stream_id, 0)

    def _generator(self) -> np.random.Generator:
        """The thread's generator, rewound to this stream's next draw; the
        counter advances past it."""
        _check_counter(self.counter)
        gen = _rewind(_philox(), self)
        self.counter += 1
        return gen

    def standard_normal(self, shape) -> np.ndarray:
        """Draw i.i.d. N(0,1) deviates and advance the counter by one block."""
        return self._generator().standard_normal(shape)

    def standard_normal_block(self, count: int, shape) -> np.ndarray:
        """`count` draws shaped like `shape`, stacked on a new leading axis,
        from one advance of the counter: ``standard_normal((count,) + shape)``."""
        return self.standard_normal((count,) + tuple(shape))

    def uniform(self, shape) -> np.ndarray:
        return self._generator().random(shape)

    def integers(self, low: int, high: int, shape) -> np.ndarray:
        return self._generator().integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._generator().permutation(n)


class RowStreams:
    """One `RngStream` per row of a batch, drawn as one stream.

    A draw of shape (N, ...) stacks each row's own draw of the trailing
    shape, so row i of a batched run sees exactly the numbers its stream
    gives a one-row run. A draw fills its shape in C order, so each row is
    one rewind of the thread's generator and one draw straight into its
    slice of the batch.
    """

    def __init__(self, streams):
        self.streams = list(streams)

    def standard_normal(self, shape) -> np.ndarray:
        streams = self.streams
        if shape[0] != len(streams):
            raise ValueError(f"{len(streams)} row streams, draw of shape {shape}")
        # every counter is checked before any advances, so a failed draw moves none
        for stream in streams:
            _check_counter(stream.counter)
        parts = _philox()
        out = np.empty((shape[0], math.prod(shape[1:])))
        for row, stream in zip(out, streams):
            _rewind(parts, stream).standard_normal(out=row)
            stream.counter += 1
        return out.reshape(shape)

    def standard_normal_block(self, count: int, shape) -> np.ndarray:
        """`count` draws shaped like `shape` (N, ...), stacked on a new leading
        axis, from one advance of each row's counter. Row i reads its own one
        draw of (count, ...) in C order, as `RngStream.standard_normal_block`
        does for a one-row run."""
        shape = tuple(shape)
        return np.moveaxis(self.standard_normal((shape[0], count) + shape[1:]), 1, 0)


def save_array(path, rows: int, cols: int, data: np.ndarray) -> None:
    """Write a rows x cols float64 matrix in the LLEF64 container.

    Layout: ASCII magic ``LLEF64\\n``, ASCII ``"<rows> <cols>\\n"``, then
    rows*cols little-endian IEEE-754 float64. Round-trips bit-exactly.
    """
    flat = np.ascontiguousarray(data, dtype="<f8").reshape(-1)
    if flat.size != rows * cols:
        raise ValueError(f"data has {flat.size} entries, expected {rows}x{cols}={rows * cols}")
    with open(path, "wb") as f:
        f.write(ARRAY_MAGIC)
        f.write(f"{rows} {cols}\n".encode("ascii"))
        f.write(flat.tobytes())


def load_array(path):
    """Read an LLEF64 file; returns (rows, cols, data) with data shaped (rows, cols).
    A file that cannot be read is a FormatError naming it."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise FormatError(f"{path} cannot be read: {exc.strerror or exc}") from exc
    if blob[: len(ARRAY_MAGIC)] != ARRAY_MAGIC:
        raise FormatError(f"bad magic at byte offset 0: {blob[:7]!r}")
    offset = len(ARRAY_MAGIC)
    end = blob.find(b"\n", offset)
    if end < 0:
        raise FormatError(f"missing header line terminator after byte offset {offset}")
    try:
        rows_s, cols_s = blob[offset:end].decode("ascii").split()
        rows, cols = int(rows_s), int(cols_s)
    except ValueError as exc:
        raise FormatError(f"bad header at byte offset {offset}") from exc
    if rows < 0 or cols < 0:
        raise FormatError(f"bad header at byte offset {offset}: negative size {rows} x {cols}")
    payload = blob[end + 1 :]
    expected = rows * cols * 8
    if len(payload) != expected:
        raise FormatError(
            f"payload truncated at byte offset {end + 1 + len(payload)}: "
            f"have {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    return rows, cols, data


def mse(x: np.ndarray, ref: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {ref.shape}")
    return float(np.mean((x - ref) ** 2))


def psnr(x: np.ndarray, ref: np.ndarray, peak: float = 2.0) -> float:
    """Peak signal-to-noise ratio in dB; +inf when x == ref.

    peak defaults to 2.0 for signals living in [-1, 1].
    """
    if peak <= 0:
        raise ValueError("peak must be positive")
    return psnr_of_mse(mse(x, ref), peak)


def psnr_of_mse(err: float, peak: float) -> float:
    """10 log10(peak^2 / err) dB, +inf at err 0: the one formula, in Python floats
    (math.log10, not np.log10, whose SIMD path may round differently)."""
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / err)
