"""Per-lane gathers as one flat take: same values, errors and counts.

``NumpyGatherSource.fetch`` checks bounds on the float indices and then
reads through the row-major flattening; ``ClampingGatherSource.fetch``
clamps the floored indices and reads the same way.  Both must behave as
the 2-D fancy index over the floored int64 indices that the checks
below use as an oracle: the same values (vector element types and
sliced sources included), the same fetch counts and, on the CPU, the
same ``GatherBoundsError`` text.  The sharded halo source reads its band
the same way (the band's ``StreamError`` included), and the sanitizer's
checked source records the same out-of-bounds ranges.
"""

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions
from repro.core.exec.gather import ClampingGatherSource, NumpyGatherSource
from repro.errors import GatherBoundsError, StreamError
from repro.runtime import BrookRuntime
from repro.runtime.sanitizer import _CheckedGatherSource
from repro.runtime.sharding import HaloGatherSource

INTERP = CompilerOptions(enable_fast_path=False)
VECTOR = CompilerOptions()


def floored(indices):
    with np.errstate(invalid="ignore"):
        return np.asarray(np.floor(indices), dtype=np.int64)


def oracle_message(rows, cols, shape):
    """The CPU bounds error text, built from the floored int64 indices."""
    rows, cols = floored(rows), floored(cols)
    return ("gather access out of bounds on the CPU backend: "
            f"rows in [{rows.min()}, {rows.max()}], cols in "
            f"[{cols.min()}, {cols.max()}] for array of shape {shape}")


def clamped_oracle(data, rows, cols):
    height, width = data.shape[:2]
    return data[np.clip(floored(rows), 0, height - 1),
                np.clip(floored(cols), 0, width - 1)]


def lanes(*values):
    return np.array(values, dtype=np.float32)


DATA = np.arange(12, dtype=np.float32).reshape(3, 4)


class TestCheckedFetch:
    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", ["row", "col"])
    def test_out_of_bounds_message(self, bad, axis):
        rows = lanes(0.0, 1.0, bad if axis == "row" else 2.0)
        cols = lanes(1.0, bad if axis == "col" else 2.0, 3.0)
        source = NumpyGatherSource(DATA)
        with pytest.raises(GatherBoundsError) as info:
            with np.errstate(invalid="ignore"):
                source.fetch(rows, cols)
        assert str(info.value) == oracle_message(rows, cols, (3, 4))
        assert source.fetch_count == 0

    def test_minus_half_floors_to_minus_one(self):
        # Truncation would give 0; the float-side check catches it.
        with pytest.raises(GatherBoundsError) as info:
            NumpyGatherSource(DATA).fetch(lanes(-0.5), lanes(1.0))
        assert str(info.value) == (
            "gather access out of bounds on the CPU backend: rows in "
            "[-1, -1], cols in [1, 1] for array of shape (3, 4)")

    @pytest.mark.parametrize("rows, cols, text", [
        (lanes(3.0), lanes(0.0), "rows in [3, 3], cols in [0, 0]"),
        (lanes(0.0), lanes(4.0), "rows in [0, 0], cols in [4, 4]"),
        (lanes(2.0, 0.0), lanes(3.9999, 4.0), "rows in [0, 2], cols in [3, 4]"),
    ])
    def test_exactly_the_extent_is_out(self, rows, cols, text):
        with pytest.raises(GatherBoundsError) as info:
            NumpyGatherSource(DATA).fetch(rows, cols)
        assert text in str(info.value)

    def test_negative_zero_reads_index_zero(self):
        source = NumpyGatherSource(DATA)
        got = source.fetch(lanes(-0.0, 2.0), lanes(-0.0, -0.0))
        np.testing.assert_array_equal(got, [0.0, 8.0])
        assert source.fetch_count == 2

    def test_values_and_counts_match_the_fancy_index(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((37, 53)).astype(np.float32)
        rows = (rng.random(4096) * 37).astype(np.float32)
        cols = (rng.random(4096) * 53).astype(np.float32)
        source = NumpyGatherSource(data)
        for _ in range(3):
            got = source.fetch(rows, cols)
            np.testing.assert_array_equal(got, data[floored(rows),
                                                    floored(cols)])
        assert source.fetch_count == 3 * 4096

    def test_vector_element_type(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((9, 11, 4)).astype(np.float32)
        rows = (rng.random(500) * 9).astype(np.float32)
        cols = (rng.random(500) * 11).astype(np.float32)
        got = NumpyGatherSource(data).fetch(rows, cols)
        assert got.shape == (500, 4)
        np.testing.assert_array_equal(got, data[floored(rows), floored(cols)])

    def test_sliced_source(self):
        base = np.arange(20 * 30, dtype=np.float32).reshape(20, 30)
        data = base[2:17:3, 25:1:-2]
        assert not data.flags.c_contiguous
        rng = np.random.default_rng(6)
        rows = (rng.random(300) * data.shape[0]).astype(np.float32)
        cols = (rng.random(300) * data.shape[1]).astype(np.float32)
        source = NumpyGatherSource(data)
        expected = data[floored(rows), floored(cols)]
        np.testing.assert_array_equal(source.fetch(rows, cols), expected)
        np.testing.assert_array_equal(source.fetch(rows, cols), expected)
        assert source.dense() is data

    def test_one_dimensional_array_and_empty_fetch(self):
        source = NumpyGatherSource(np.arange(6, dtype=np.float32))
        np.testing.assert_array_equal(
            source.fetch(lanes(0.0, 0.0), lanes(5.5, 0.2)), [5.0, 0.0])
        empty = source.fetch(lanes(), lanes())
        assert empty.shape == (0,) and empty.dtype == np.float32
        assert source.fetch_count == 2


class TestClampedFetch:
    ROWS = lanes(-0.5, np.nan, np.inf, -np.inf, 3.0, 2.9, -0.0, 1.5, 99.0)
    COLS = lanes(4.0, 1.0, -7.0, np.nan, 3.5, 0.0, -0.0, 2.2, -1.0)

    def test_edges_match_the_clamped_fancy_index(self):
        source = ClampingGatherSource(DATA)
        with np.errstate(invalid="ignore"):
            got = source.fetch(self.ROWS, self.COLS)
            want = clamped_oracle(DATA, self.ROWS, self.COLS)
        np.testing.assert_array_equal(got, want)
        assert source.fetch_count == self.ROWS.size

    def test_transform_vector_and_sliced_sources(self):
        base = np.arange(8 * 10 * 2, dtype=np.float32).reshape(8, 10, 2)
        data = base[::2, ::-3]
        source = ClampingGatherSource(data, transform=lambda v: v * 2)
        with np.errstate(invalid="ignore"):
            got = source.fetch(self.ROWS, self.COLS)
            want = clamped_oracle(data, self.ROWS, self.COLS) * 2
        np.testing.assert_array_equal(got, want)
        assert source.dense() is None


GATHER_KERNEL = """
kernel void look(float r<>, float c<>, float4 t[][], float s[][],
                 out float o<>) {
    float4 v = t[r][c];
    o = v.x + v.y * 10.0 + v.w * 100.0 + s[c][r];
}
"""


def _run_gather(backend, options, rows, cols, table, plane):
    with BrookRuntime(backend=backend, compiler_options=options) as rt:
        module = rt.compile(GATHER_KERNEL)
        out = rt.stream(rows.shape)
        module.look(rt.stream_from(rows), rt.stream_from(cols),
                    rt.stream_from(table, element_width=4),
                    rt.stream_from(plane), out)
        return out.read(), [record.texture_fetches
                            for record in rt.statistics.launches]


class TestRuntimeGathers:
    def _inputs(self, low, high):
        rng = np.random.default_rng(8)
        rows = rng.uniform(low, high, (8, 8)).astype(np.float32)
        cols = rng.uniform(low, high, (8, 8)).astype(np.float32)
        table = rng.integers(0, 9, (6, 6, 4)).astype(np.float32)
        plane = rng.integers(0, 9, (6, 6)).astype(np.float32)
        return rows, cols, table, plane

    def test_cpu_tiers_read_the_fancy_index(self):
        rows, cols, table, plane = self._inputs(0.0, 6.0)
        want_v = table[floored(rows), floored(cols)]
        want = (want_v[..., 0] + want_v[..., 1] * 10 + want_v[..., 3] * 100
                + plane[floored(cols), floored(rows)])
        results = [_run_gather("cpu", options, rows, cols, table, plane)
                   for options in (INTERP, VECTOR)]
        for got, fetches in results:
            np.testing.assert_array_equal(got, want)
            assert sum(fetches) == 2 * rows.size
        assert np.array_equal(results[0][0].view(np.uint32),
                              results[1][0].view(np.uint32))

    @pytest.mark.parametrize("options", [INTERP, VECTOR])
    def test_cpu_out_of_bounds_lane_raises(self, options):
        rows, cols, table, plane = self._inputs(0.0, 6.0)
        rows[3, 5] = -0.5
        with pytest.raises(GatherBoundsError, match=r"rows in \[-1, 5\]"):
            _run_gather("cpu", options, rows, cols, table, plane)

    def test_cal_clamps_like_the_fancy_index(self):
        rows, cols, table, plane = self._inputs(-3.0, 9.0)
        want_v = clamped_oracle(table, rows, cols)
        want = (want_v[..., 0] + want_v[..., 1] * 10 + want_v[..., 3] * 100
                + clamped_oracle(plane, cols, rows))
        results = [_run_gather("cal", options, rows, cols, table, plane)
                   for options in (INTERP, VECTOR)]
        for got, _ in results:
            np.testing.assert_array_equal(got, want)
        assert results[0][1] == results[1][1]

    def test_gles2_clamps_like_the_fancy_index(self):
        rows, cols, _, plane = self._inputs(-3.0, 9.0)
        want = (clamped_oracle(plane, cols, rows)
                + clamped_oracle(plane, rows, cols) * 10)
        results = []
        for options in (INTERP, VECTOR):
            with BrookRuntime(backend="gles2", compiler_options=options) as rt:
                module = rt.compile(SCALAR_GATHER_KERNEL)
                out = rt.stream(rows.shape)
                module.look2(rt.stream_from(rows), rt.stream_from(cols),
                             rt.stream_from(plane), out)
                results.append((out.read(), [
                    record.texture_fetches
                    for record in rt.statistics.launches]))
        for got, _ in results:
            np.testing.assert_array_equal(got, want)
        assert results[0][1] == results[1][1]


SCALAR_GATHER_KERNEL = """
kernel void look2(float r<>, float c<>, float s[][], out float o<>) {
    o = s[c][r] + s[r][c] * 10.0;
}
"""


# --------------------------------------------------------------------------- #
# The sharded halo source and the sanitizer's checked source
# --------------------------------------------------------------------------- #
def halo_oracle(band, shape, row0, col0, clamping, rows, cols):
    """A halo band's fetch as the 2-D fancy index over floored int64
    indices: the values, or the backend's error as ``(type, text)``."""
    rows, cols = floored(rows), floored(cols)
    height, width = shape
    if clamping:
        rows, cols = np.clip(rows, 0, height - 1), np.clip(cols, 0, width - 1)
    elif rows.size and (rows.min() < 0 or rows.max() >= height
                        or cols.min() < 0 or cols.max() >= width):
        return GatherBoundsError, (
            "gather access out of bounds on the CPU backend: "
            f"rows in [{rows.min()}, {rows.max()}], cols in "
            f"[{cols.min()}, {cols.max()}] for array of shape {shape}")
    band_rows, band_cols = rows - row0, cols - col0
    if clamping:
        band_rows = np.clip(band_rows, 0, band.shape[0] - 1)
        band_cols = np.clip(band_cols, 0, band.shape[1] - 1)
    elif band_rows.size and (band_rows.min() < 0
                             or band_rows.max() >= band.shape[0]
                             or band_cols.min() < 0
                             or band_cols.max() >= band.shape[1]):
        return StreamError, (
            f"gather access escaped its shard halo band ({band.shape} at "
            f"offset ({row0}, {col0}) of {shape}); the stencil analysis "
            "mis-classified this kernel - please report it (the launch "
            "would have been wrong on a real device group)")
    return band[band_rows, band_cols]


#: ``(rows, cols)`` lane pairs of a 10 x 6 array served from rows 3-6.
HALO_CASES = {
    "in-band": (lanes(3.0, 6.9, 4.5, 5.0), lanes(0.0, 5.9, -0.0, 2.5)),
    "empty": (lanes(), lanes()),
    "off-band": (lanes(3.0, 7.0), lanes(1.0, 1.0)),
    "above-band": (lanes(2.5, 4.0), lanes(1.0, 1.0)),
    "off-array": (lanes(4.0, 10.0), lanes(1.0, 1.0)),
    "negative": (lanes(4.0, 5.0), lanes(-0.5, 1.0)),
    "non-finite": (lanes(np.nan, 4.0, np.inf), lanes(1.0, -np.inf, 2.0)),
}


class TestHaloFetch:
    FULL = np.arange(10 * 6 * 2, dtype=np.float32).reshape(10, 6, 2)

    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("clamping", [False, True])
    @pytest.mark.parametrize("case", sorted(HALO_CASES))
    def test_matches_the_band_fancy_index(self, case, clamping, vector):
        rows, cols = HALO_CASES[case]
        band = self.FULL[3:7] if vector else self.FULL[3:7, :, 0]
        source = HaloGatherSource(band, (10, 6), 3, 0, clamping)
        with np.errstate(invalid="ignore"):
            want = halo_oracle(np.asarray(band), (10, 6), 3, 0, clamping,
                               rows, cols)
            if isinstance(want, tuple):
                with pytest.raises(want[0]) as error:
                    source.fetch(rows, cols)
                assert str(error.value) == want[1]
                assert source.fetch_count == 0
                return
            got = source.fetch(rows, cols)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        assert source.fetch_count == rows.size


class _Findings:
    """Stands in for the sanitizer: records what the source notes."""

    def __init__(self):
        self.noted = []

    def note_gather_oob(self, *args):
        self.noted.append(args)


class TestSanitizedFetch:
    @pytest.mark.parametrize("case", sorted(HALO_CASES))
    def test_finding_ranges_and_values(self, case):
        rows, cols = HALO_CASES[case]
        findings = _Findings()
        inner = ClampingGatherSource(DATA)
        source = _CheckedGatherSource("a", inner, findings, "k")
        with np.errstate(invalid="ignore"):
            got = source.fetch(rows, cols)
            want = clamped_oracle(DATA, rows, cols)
            int_rows, int_cols = floored(rows), floored(cols)
        np.testing.assert_array_equal(got, want)
        assert source.fetch_count == rows.size
        out = rows.size and (int_rows.min() < 0 or int_rows.max() >= 3
                             or int_cols.min() < 0 or int_cols.max() >= 4)
        assert findings.noted == ([(
            "a", "k", (int(int_rows.min()), int(int_rows.max())),
            (int(int_cols.min()), int(int_cols.max())), (3, 4))]
            if out else [])


SHARD_KERNELS = """
kernel void blur(float src[][], float h, out float o<>) {
    float2 p = indexof(o);
    o = src[max(p.y - 1.0, 0.0)][p.x] + src[min(p.y + 1.0, h - 1.0)][p.x];
}
kernel void shifted(float src[][], out float o<>) {
    float2 p = indexof(o);
    o = src[p.y + 2.0][p.x];
}
"""


def _sharded_gathers(backend, device, devices, options, kernel, frame):
    """Output (or error), fetches and sanitizer findings of one launch."""
    with BrookRuntime(backend=backend, device=device, devices=devices,
                      compiler_options=options) as rt:
        module = rt.compile(SHARD_KERNELS, strict=False)
        out = rt.stream(frame.shape)
        args = [rt.stream_from(frame)]
        if kernel == "blur":
            args.append(float(frame.shape[0]))
        try:
            getattr(module, kernel)(*args, out)
            result = out.read().tobytes()
        except Exception as error:      # compared, not hidden
            result = (type(error), str(error))
        return (result,
                sum(record.texture_fetches
                    for record in rt.statistics.launches),
                [finding.kind for finding in rt.sanitizer.findings])


@pytest.mark.parametrize("options", [INTERP, VECTOR])
@pytest.mark.parametrize("kernel", ["blur", "shifted"])
@pytest.mark.parametrize("backend,device", [("cpu", None),
                                            ("gles2", "videocore-iv")])
def test_sharded_sanitized_gathers_match_one_device(backend, device, kernel,
                                                    options, monkeypatch):
    monkeypatch.setenv("BROOKSAN", "1")
    frame = np.random.default_rng(4).integers(0, 50, (12, 8)) \
        .astype(np.float32)
    single = _sharded_gathers(backend, device, 1, options, kernel, frame)
    sharded = _sharded_gathers(backend, device, 2, options, kernel, frame)
    # Every shard's sources carry the bounds shadow-check.
    assert sharded[2] == single[2]
    if backend == "cpu" and kernel == "shifted":
        # Each band reports its own lanes; both raise the CPU error.
        assert single[0][0] is sharded[0][0] is GatherBoundsError
        return
    assert sharded[0] == single[0]
    assert sharded[1] == single[1]
    assert bool(single[2]) == (kernel == "shifted")
