"""GL ES 2 fragment passes read stream textures texel by texel.

A Brook pass samples each input stream at the fragment centre scaled to
that texture's own (possibly padded) extent.  That lands on the
fragment's own texel, clamped to the texture edge, so the backend reads
a ``[:rows, :cols]`` region (or one edge-clamped index when the viewport
is larger than the texture) instead of sampling per fragment.  These
scenarios pin everything observable about such passes - outputs, every
launch and transfer record, the contexts' draw and traffic totals and
each texture's sample count - to the values the per-fragment sampler
produced, on untiled, padded, tiled, sharded, reduction and stretched
launches.
"""

import hashlib
import struct
from dataclasses import astuple

import numpy as np
import pytest

from repro.backends.gles2_backend import GLES2Backend
from repro.gles2.device import GPUDeviceProfile
from repro.gles2.limits import GLES2Limits
from repro.gles2.shader import FragmentJob
from repro.gles2.texture import Texture2D
from repro.runtime import BrookRuntime

BLEND = ("kernel void blend(float a<>, float b<>, float k, out float r<>) {"
         " r = a * k + b; }")
INDEXED = ("kernel void indexed(float x<>, out float r<>) {"
           " float2 p = indexof(r); r = x + p.x * 10.0 + p.y; }")
PICK = ("kernel void pick(float a<>, float t[][], out float r<>) {"
        " float2 p = indexof(r); r = a - t[p.y][max(p.x - 1.0, 0.0)]; }")
SMEAR = ("kernel void smear(float a<>, float lut[], out float o<>) {"
         " o = a + lut[indexof(a).x]; }")
COPY = "kernel void copy(float a<>, out float o<>) { o = a; }"
TOTAL = "reduce void total(float v<>, reduce float acc) { acc += v; }"


def tiny_gles2_runtime(max_texture_size=16):
    """A GL ES 2 runtime whose device tiles at a toy texture limit."""
    profile = GPUDeviceProfile(
        name=f"tiny-{max_texture_size}",
        limits=GLES2Limits(name=f"tiny-{max_texture_size}",
                           max_texture_size=max_texture_size),
        effective_gflops=1.0,
        transfer_gib_per_s=1.0,
        pass_overhead_us=100.0,
        texture_fetch_ns=2.0,
        fill_rate_mpixels=100.0,
    )
    return BrookRuntime(backend=GLES2Backend(profile))


def data(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-4.0, 4.0, shape).astype(np.float32)


def digest(values):
    """Short hash of a result's float32 bit patterns (and its shape)."""
    array = np.ascontiguousarray(values, dtype=np.float32)
    blob = repr(array.shape).encode() + array.tobytes()
    return hashlib.sha256(blob).hexdigest()[:16]


def observe(rt, results):
    """Everything a pass leaves behind, as plain tuples."""
    backends = getattr(rt.backend, "devices", [rt.backend])
    contexts = [backend.context for backend in backends]
    return {
        "outputs": [digest(r) if isinstance(r, np.ndarray)
                    else struct.pack("<f", r).hex() for r in results],
        "launches": [astuple(r) for r in rt.statistics.launches],
        "transfers": [astuple(r) for r in rt.statistics.transfers],
        "draws": [astuple(c.draws) for c in contexts],
        "traffic": [astuple(c.transfers) for c in contexts],
        "samples": [sorted((t.name, t.sample_count) for t in c.textures)
                    for c in contexts],
    }


def untiled_padded():
    # (5, 7) lives in an 8x8 texture on the power-of-two VideoCore IV.
    with BrookRuntime(backend="gles2", device="videocore-iv") as rt:
        m = rt.compile(BLEND + INDEXED + PICK)
        a = rt.stream_from(data((5, 7), 1), name="a")
        b = rt.stream_from(data((5, 7), 2), name="b")
        mid = rt.stream((5, 7), name="mid")
        pos = rt.stream((5, 7), name="pos")
        out = rt.stream((5, 7), name="out")
        m.blend(a, b, 0.75, mid)
        m.indexed(mid, pos)
        m.pick(pos, a, out)
        return observe(rt, [mid.read(), pos.read(), out.read()])


def untiled_exact():
    # 8x8 fills its texture: no padding at all.
    with BrookRuntime(backend="gles2", device="mali-400") as rt:
        m = rt.compile(BLEND + INDEXED)
        a = rt.stream_from(data((8, 8), 3), name="a")
        out = rt.stream((8, 8), name="out")
        m.blend(a, a, -1.5, out)
        m.indexed(out, a)
        return observe(rt, [out.read(), a.read()])


def tiled():
    # A 16-texel device: (20, 37) is 2 x 3 tiles, the prime 41 three.
    rt = tiny_gles2_runtime()
    m = rt.compile(BLEND + INDEXED + SMEAR)
    x = rt.stream_from(data((20, 37), 4), name="x")
    y = rt.stream_from(data((20, 37), 5), name="y")
    out = rt.stream((20, 37), name="out")
    idx = rt.stream((20, 37), name="idx")
    m.blend(x, y, 2.0, out)
    m.indexed(out, idx)
    a = rt.stream_from(data((41,), 6), name="a1")
    lut = rt.stream_from(data((41,), 7), name="lut")
    smeared = rt.stream((41,), name="smeared")
    m.smear(a, lut, smeared)
    result = observe(rt, [out.read(), idx.read(), smeared.read()])
    rt.close()
    return result


def sharded():
    with BrookRuntime(backend="gles2", device="videocore-iv",
                      devices=2) as rt:
        m = rt.compile(BLEND + INDEXED + PICK)
        a = rt.stream_from(data((12, 10), 8), name="a")
        b = rt.stream_from(data((12, 10), 9), name="b")
        mid = rt.stream((12, 10), name="mid")
        out = rt.stream((12, 10), name="out")
        m.blend(a, b, 0.5, mid)
        m.indexed(mid, out)
        m.pick(out, a, mid)
        return observe(rt, [mid.read(), out.read()])


def reduction():
    with BrookRuntime(backend="gles2", device="videocore-iv") as rt:
        m = rt.compile(TOTAL)
        values = rt.stream_from(data((13, 9), 10), name="v")
        whole = m.total(values)
        blocks = rt.stream_from(data((12, 8), 11), name="blocks")
        acc = rt.stream((3, 2), name="acc")
        m.total(blocks, acc)
        return observe(rt, [whole, acc.read()])


def tiled_reduction():
    rt = tiny_gles2_runtime()
    m = rt.compile(TOTAL)
    values = rt.stream_from(data((32, 32), 12), name="v")
    whole = m.total(values)
    acc = rt.stream((2, 2), name="acc")
    m.total(values, acc)
    result = observe(rt, [whole, acc.read()])
    rt.close()
    return result


def stretch_smaller():
    # Inputs smaller than the viewport: (2, 2) in a 2x2 texture and (3, 3)
    # in a 4x4 one clamp to the edge; (3, 3) over (4, 4) reads the zero
    # padding texels of its own texture.
    with BrookRuntime(backend="gles2", device="videocore-iv") as rt:
        m = rt.compile(COPY + BLEND)
        small = rt.stream_from(data((2, 2), 13), name="small")
        three = rt.stream_from(data((3, 3), 14), name="three")
        four = rt.stream((4, 4), name="four")
        five = rt.stream((5, 5), name="five")
        m.copy(small, four)
        first = four.read()
        m.copy(three, four)
        second = four.read()
        m.blend(three, small, 3.0, five)
        return observe(rt, [first, second, five.read()])


def stretch_larger():
    # Inputs larger than the viewport read their top-left region.
    with BrookRuntime(backend="gles2", device="videocore-iv") as rt:
        m = rt.compile(COPY + BLEND)
        big = rt.stream_from(data((8, 8), 15), name="big")
        odd = rt.stream_from(data((5, 7), 16), name="odd")
        out = rt.stream((4, 4), name="out")
        three = rt.stream((3, 3), name="three")
        m.copy(big, out)
        first = out.read()
        m.blend(odd, big, -0.25, three)
        return observe(rt, [first, three.read()])


SCENARIOS = {
    "untiled_padded": untiled_padded,
    "untiled_exact": untiled_exact,
    "tiled": tiled,
    "sharded": sharded,
    "reduction": reduction,
    "tiled_reduction": tiled_reduction,
    "stretch_smaller": stretch_smaller,
    "stretch_larger": stretch_larger,
}

# Recorded with the per-fragment sampler (Texture2D.sample_normalized at
# each fragment centre over the texture's own extent).
PINNED = {
    'reduction': {
        'outputs': ['176162c1', 'ba75a2b235105b02'],
        'launches': [
            ('total', 168, 156, 208, 4, True, 1, 0, 1, 1, 0),
            ('total', 96, 90, 96, 4, True, 1, 0, 1, 1, 0),
        ],
        'transfers': [
            ('v', 'upload', 468, 117, 1), ('blocks', 'upload', 384, 96, 1),
            ('acc', 'download', 24, 6, 1), ('acc', 'download', 24, 6, 1),
        ],
        'draws': [(0, 0, 0, 0)],
        'traffic': [(1536, 64, 2, 2)],
        'samples': [[('acc', 0), ('blocks', 0), ('v', 0)]],
    },
    'sharded': {
        'outputs': ['565cc116d23a0aea', 'acc169bc558bd38c'],
        'launches': [
            ('blend', 120, 240, 240, 2, False, 1, 0, 1, 2, 0),
            ('indexed', 120, 360, 120, 2, False, 1, 0, 1, 2, 0),
            ('pick', 120, 360, 240, 2, False, 1, 0, 1, 2, 0),
        ],
        'transfers': [
            ('a', 'upload', 480, 120, 2), ('b', 'upload', 480, 120, 2),
            ('mid', 'download', 480, 120, 2),
            ('out', 'download', 480, 120, 2),
        ],
        'draws': [(3, 180, 240, 480), (3, 180, 240, 480)],
        'traffic': [(1024, 1024, 2, 2), (1024, 1024, 2, 2)],
        'samples': [
            [('a/shard0', 60), ('b/shard0', 60), ('mid/shard0', 60),
            ('out/shard0', 60)],
            [('a/shard1', 60), ('b/shard1', 60), ('mid/shard1', 60),
            ('out/shard1', 60)],
        ],
    },
    'stretch_larger': {
        'outputs': ['e4228449fe894935', '39c7f0629f245026'],
        'launches': [
            ('copy', 16, 0, 16, 1, False, 1, 0, 1, 1, 0),
            ('blend', 9, 18, 18, 1, False, 1, 0, 1, 1, 0),
        ],
        'transfers': [
            ('big', 'upload', 256, 64, 1), ('odd', 'upload', 140, 35, 1),
            ('out', 'download', 64, 16, 1), ('three', 'download', 36, 9, 1),
        ],
        'draws': [(2, 25, 34, 18)],
        'traffic': [(512, 128, 2, 2)],
        'samples': [[('big', 25), ('odd', 9), ('out', 0), ('three', 0)]],
    },
    'stretch_smaller': {
        'outputs': [
            'f7ff1230490e4a62', 'fa6742dd6370f4a4', 'c5eebaac07c06056',
        ],
        'launches': [
            ('copy', 16, 0, 16, 1, False, 1, 0, 1, 1, 0),
            ('copy', 16, 0, 16, 1, False, 1, 0, 1, 1, 0),
            ('blend', 25, 50, 50, 1, False, 1, 0, 1, 1, 0),
        ],
        'transfers': [
            ('small', 'upload', 16, 4, 1), ('three', 'upload', 36, 9, 1),
            ('four', 'download', 64, 16, 1), ('four', 'download', 64, 16, 1),
            ('five', 'download', 100, 25, 1),
        ],
        'draws': [(3, 57, 82, 50)],
        'traffic': [(80, 384, 2, 3)],
        'samples': [[('five', 0), ('four', 0), ('small', 41), ('three', 41)]],
    },
    'tiled': {
        'outputs': [
            '6d09dc5d6171742a', '38b30c3adda24337', '6a5c32e7a641bf31',
        ],
        'launches': [
            ('blend', 740, 1480, 1480, 6, False, 1, 0, 6, 1, 0),
            ('indexed', 740, 2220, 740, 6, False, 1, 0, 6, 1, 0),
            ('smear', 41, 41, 82, 3, False, 1, 0, 3, 1, 0),
        ],
        'transfers': [
            ('x', 'upload', 2960, 740, 6), ('y', 'upload', 2960, 740, 6),
            ('a1', 'upload', 164, 41, 3), ('lut', 'upload', 164, 41, 3),
            ('out', 'download', 2960, 740, 6),
            ('idx', 'download', 2960, 740, 6),
            ('smeared', 'download', 164, 41, 3),
        ],
        'draws': [(15, 1521, 2261, 3741)],
        'traffic': [(6784, 6592, 18, 15)],
        'samples': [
            [('a1/tile0', 16), ('a1/tile1', 16), ('a1/tile2', 9),
            ('idx/tile0', 0), ('idx/tile1', 0), ('idx/tile2', 0),
            ('idx/tile3', 0), ('idx/tile4', 0), ('idx/tile5', 0),
            ('lut/tile0', 0), ('lut/tile1', 0), ('lut/tile2', 0),
            ('out/tile0', 256), ('out/tile1', 256), ('out/tile2', 80),
            ('out/tile3', 64), ('out/tile4', 64), ('out/tile5', 20),
            ('smeared/tile0', 0), ('smeared/tile1', 0),
            ('smeared/tile2', 0), ('x/tile0', 256), ('x/tile1', 256),
            ('x/tile2', 80), ('x/tile3', 64), ('x/tile4', 64),
            ('x/tile5', 20), ('y/tile0', 256), ('y/tile1', 256),
            ('y/tile2', 80), ('y/tile3', 64), ('y/tile4', 64),
            ('y/tile5', 20)],
        ],
    },
    'tiled_reduction': {
        'outputs': ['06377e41', 'd1d7629275596d77'],
        'launches': [
            ('total', 1366, 1023, 1372, 18, True, 1, 0, 4, 1, 0),
            ('total', 1024, 1020, 1024, 8, True, 1, 0, 1, 1, 0),
        ],
        'transfers': [
            ('v', 'upload', 4096, 1024, 4), ('acc', 'download', 16, 4, 1),
            ('acc', 'download', 16, 4, 1),
        ],
        'draws': [(0, 0, 0, 0)],
        'traffic': [(4096, 32, 4, 2)],
        'samples': [
            [('acc', 0), ('v/tile0', 0), ('v/tile1', 0), ('v/tile2', 0),
            ('v/tile3', 0)],
        ],
    },
    'untiled_exact': {
        'outputs': ['519fb7f8888e558a', 'e252a5168ae317dc'],
        'launches': [
            ('blend', 64, 128, 256, 1, False, 1, 0, 1, 1, 0),
            ('indexed', 64, 192, 64, 1, False, 1, 0, 1, 1, 0),
        ],
        'transfers': [
            ('a', 'upload', 256, 64, 1), ('out', 'download', 256, 64, 1),
            ('a', 'download', 256, 64, 1),
        ],
        'draws': [(2, 128, 320, 320)],
        'traffic': [(256, 512, 1, 2)],
        'samples': [[('a', 128), ('out', 64)]],
    },
    'untiled_padded': {
        'outputs': [
            '907b54801d663a5f', '2c10b01fdd1fbc32', 'beb1f319fb9f1ec5',
        ],
        'launches': [
            ('blend', 35, 70, 70, 1, False, 1, 0, 1, 1, 0),
            ('indexed', 35, 105, 35, 1, False, 1, 0, 1, 1, 0),
            ('pick', 35, 105, 70, 1, False, 1, 0, 1, 1, 0),
        ],
        'transfers': [
            ('a', 'upload', 140, 35, 1), ('b', 'upload', 140, 35, 1),
            ('mid', 'download', 140, 35, 1), ('pos', 'download', 140, 35, 1),
            ('out', 'download', 140, 35, 1),
        ],
        'draws': [(3, 105, 140, 280)],
        'traffic': [(512, 768, 2, 3)],
        'samples': [
            [('a', 35), ('b', 35), ('mid', 35), ('out', 0), ('pos', 35)],
        ],
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_pass_matches_per_fragment_sampling(name):
    assert SCENARIOS[name]() == PINNED[name]


@pytest.mark.parametrize("texture_size, viewport", [
    ((8, 8), (5, 7)),     # inside a padded texture: a region view
    ((4, 4), (4, 4)),     # the whole texture
    ((2, 2), (4, 4)),     # larger both ways: clamped to the edge
    ((4, 8), (6, 3)),     # wider than the texture, shorter than it
    ((16, 2), (3, 9)),
])
def test_sample_viewport_is_sampling_at_fragment_centres(texture_size,
                                                         viewport):
    width, height = viewport
    texture = Texture2D(*texture_size, GLES2Limits())
    texture.data[...] = np.random.default_rng(0).integers(
        0, 256, texture.data.shape, dtype=np.uint8)
    job = FragmentJob(width=width, height=height)
    want = texture.sample_normalized(job.frag_coord[:, 0] / texture.width,
                                     job.frag_coord[:, 1] / texture.height)
    got = texture.sample_viewport(width, height)
    assert got.shape == (height, width, 4)
    assert np.array_equal(got.reshape(-1, 4), want)
    assert texture.sample_count == 2 * width * height
