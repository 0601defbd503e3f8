"""Unit tests for the simulated OpenGL ES 2.0 substrate."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.apps.handwritten_sgemm import HandwrittenSgemm
from repro.backends.gles2_backend import BrookKernelShader
from repro.core.exec.evaluator import layout_positions
from repro.errors import GLES2Error
from repro.gles2 import (
    DEVICE_PROFILES,
    Framebuffer,
    FragmentShader,
    GLES2Context,
    GLES2Limits,
    ShaderProgram,
    Texture2D,
    get_device_profile,
)
from repro.gles2 import context as gles2_context
from repro.gles2.shader import FragmentJob
from repro.runtime import BrookRuntime
from repro.runtime.numerics import decode_float_rgba8, encode_float_rgba8


class TestLimits:
    def test_default_limits_are_minimal_es2(self):
        limits = GLES2Limits()
        assert limits.max_color_attachments == 1
        assert not limits.float_textures_supported
        assert not limits.npot_textures_supported

    def test_to_target_limits(self):
        target = GLES2Limits(max_texture_size=1024).to_target_limits()
        assert target.max_texture_size == 1024
        assert target.max_kernel_outputs == 1
        assert target.requires_power_of_two

    def test_device_profiles_available(self):
        assert "videocore-iv" in DEVICE_PROFILES
        assert "mali-400" in DEVICE_PROFILES
        profile = get_device_profile("videocore-iv")
        assert profile.limits.max_texture_size == 2048

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            get_device_profile("geforce-rtx")


class TestTexture:
    def make(self, width=64, height=32, **limit_overrides):
        limits = GLES2Limits(**limit_overrides) if limit_overrides else GLES2Limits()
        return Texture2D(width, height, limits)

    def test_creation_and_size(self):
        texture = self.make(64, 32)
        assert texture.shape == (32, 64)
        assert texture.size_bytes == 64 * 32 * 4

    def test_non_power_of_two_rejected(self):
        with pytest.raises(GLES2Error):
            self.make(100, 64)

    def test_npot_allowed_when_supported(self):
        texture = self.make(100, 60, npot_textures_supported=True)
        assert texture.width == 100

    def test_square_only_constraint(self):
        with pytest.raises(GLES2Error):
            self.make(64, 32, square_textures_only=True)

    def test_oversized_texture_rejected(self):
        with pytest.raises(GLES2Error):
            self.make(4096, 4096, max_texture_size=2048)

    def test_upload_download_roundtrip(self):
        texture = self.make(8, 8)
        rgba = np.random.default_rng(0).integers(0, 255, (8, 8, 4)).astype(np.uint8)
        texture.tex_image_2d(rgba)
        np.testing.assert_array_equal(texture.read_pixels(), rgba)

    def test_upload_wrong_shape_rejected(self):
        texture = self.make(8, 8)
        with pytest.raises(GLES2Error):
            texture.tex_image_2d(np.zeros((4, 4, 4), dtype=np.uint8))

    def test_sub_image_update(self):
        texture = self.make(8, 8)
        patch = np.full((2, 2, 4), 255, dtype=np.uint8)
        texture.tex_sub_image_2d(2, 3, patch)
        np.testing.assert_array_equal(texture.data[3:5, 2:4], patch)
        assert texture.data[0, 0, 0] == 0

    def test_sub_image_out_of_bounds_rejected(self):
        texture = self.make(8, 8)
        with pytest.raises(GLES2Error):
            texture.tex_sub_image_2d(7, 7, np.zeros((4, 4, 4), dtype=np.uint8))

    def test_normalized_sampling_nearest(self):
        texture = self.make(4, 4)
        data = np.arange(4 * 4 * 4, dtype=np.uint8).reshape(4, 4, 4)
        texture.tex_image_2d(data)
        # Centre of texel (2, 1): u = (2+0.5)/4, v = (1+0.5)/4.
        sample = texture.sample_normalized(np.array([0.625]), np.array([0.375]))
        np.testing.assert_array_equal(sample[0], data[1, 2])

    def test_out_of_range_coordinates_clamp_instead_of_crashing(self):
        texture = self.make(4, 4)
        data = np.arange(4 * 4 * 4, dtype=np.uint8).reshape(4, 4, 4)
        texture.tex_image_2d(data)
        sample = texture.sample_normalized(np.array([-5.0, 9.0]), np.array([0.1, 2.0]))
        np.testing.assert_array_equal(sample[0], data[0, 0])
        np.testing.assert_array_equal(sample[1], data[3, 3])

    def test_sample_count_tracked(self):
        texture = self.make(4, 4)
        texture.sample_normalized(np.zeros(10), np.zeros(10))
        assert texture.sample_count == 10


class TestFramebuffer:
    def test_incomplete_without_attachment(self):
        framebuffer = Framebuffer("fbo")
        assert not framebuffer.is_complete
        with pytest.raises(GLES2Error):
            _ = framebuffer.width

    def test_complete_with_attachment(self):
        limits = GLES2Limits()
        framebuffer = Framebuffer("fbo")
        framebuffer.attach_color(Texture2D(16, 8, limits))
        assert framebuffer.is_complete
        assert framebuffer.width == 16
        assert framebuffer.height == 8

    def test_detach(self):
        framebuffer = Framebuffer("fbo")
        framebuffer.attach_color(Texture2D(16, 16, GLES2Limits()))
        framebuffer.detach_color()
        assert not framebuffer.is_complete


class _ConstantShader(FragmentShader):
    """Writes a constant float into every fragment (encoded as RGBA8)."""

    def __init__(self, value):
        self.value = value

    def run(self, job: FragmentJob):
        values = np.full(job.fragment_count, self.value, dtype=np.float32)
        return encode_float_rgba8(values)


class _CopyShader(FragmentShader):
    """Copies the bound "source" texture through the RGBA8 codec."""

    def run(self, job: FragmentJob):
        texture = job.sampler("source")
        texels = texture.sample_normalized(job.texcoord[:, 0], job.texcoord[:, 1])
        return encode_float_rgba8(decode_float_rgba8(texels) * 2.0)


class TestContext:
    def test_draw_requires_program_and_framebuffer(self):
        context = GLES2Context()
        with pytest.raises(GLES2Error):
            context.draw_fullscreen_quad()
        context.use_program(ShaderProgram(_ConstantShader(1.0), name="c"))
        with pytest.raises(GLES2Error):
            context.draw_fullscreen_quad()

    def test_constant_fill_draw(self):
        context = GLES2Context()
        target = context.create_texture(8, 8, name="target")
        framebuffer = context.create_framebuffer()
        framebuffer.attach_color(target)
        context.use_program(ShaderProgram(_ConstantShader(3.5), name="fill"))
        context.bind_framebuffer(framebuffer)
        stats = context.draw_fullscreen_quad()
        assert stats.fragments == 64
        np.testing.assert_allclose(decode_float_rgba8(target.data), 3.5)

    def test_copy_shader_reads_bound_texture(self):
        context = GLES2Context()
        source = context.create_texture(4, 4, name="source")
        target = context.create_texture(4, 4, name="target")
        values = np.arange(16, dtype=np.float32).reshape(4, 4)
        context.upload(source, encode_float_rgba8(values))
        program = ShaderProgram(_CopyShader(), name="copy")
        program.bind_texture("source", source)
        framebuffer = context.create_framebuffer()
        framebuffer.attach_color(target)
        context.use_program(program)
        context.bind_framebuffer(framebuffer)
        stats = context.draw_fullscreen_quad()
        np.testing.assert_allclose(decode_float_rgba8(target.data), values * 2.0)
        assert stats.texture_fetches == 16

    def test_viewport_restricts_fragments(self):
        context = GLES2Context()
        target = context.create_texture(8, 8)
        framebuffer = context.create_framebuffer()
        framebuffer.attach_color(target)
        context.use_program(ShaderProgram(_ConstantShader(1.0), name="fill"))
        context.bind_framebuffer(framebuffer)
        stats = context.draw_fullscreen_quad(viewport=(4, 2))
        assert stats.fragments == 8

    def test_transfer_statistics(self):
        context = GLES2Context()
        texture = context.create_texture(16, 16)
        context.upload(texture, np.zeros((16, 16, 4), dtype=np.uint8))
        context.download(texture)
        assert context.transfers.bytes_uploaded == 16 * 16 * 4
        assert context.transfers.bytes_downloaded == 16 * 16 * 4
        context.reset_statistics()
        assert context.transfers.bytes_uploaded == 0

    def test_device_memory_accounting(self):
        context = GLES2Context()
        texture = context.create_texture(32, 32)
        assert context.device_memory_in_use() == 32 * 32 * 4
        context.delete_texture(texture)
        assert context.device_memory_in_use() == 0


def _draw_setup(width=8, height=8, shader=None):
    context = GLES2Context()
    target = context.create_texture(width, height)
    framebuffer = context.create_framebuffer()
    framebuffer.attach_color(target)
    context.use_program(ShaderProgram(shader or _ConstantShader(1.0),
                                      name="draw"))
    context.bind_framebuffer(framebuffer)
    return context


class _GridRecorder(FragmentShader):
    """Keeps every job's fragment grid."""

    def __init__(self):
        self.grids = []

    def run(self, job: FragmentJob):
        self.grids.append((job.texcoord, job.frag_coord))
        return np.zeros((job.fragment_count, 4), dtype=np.uint8)


class _TexcoordWriter(FragmentShader):
    def run(self, job: FragmentJob):
        job.texcoord[0, 0] = 0.0
        return np.zeros((job.fragment_count, 4), dtype=np.uint8)


def _fresh_grid(width, height):
    ys, xs = np.mgrid[0:height, 0:width]
    xs = xs.reshape(-1).astype(np.float64)
    ys = ys.reshape(-1).astype(np.float64)
    return (np.stack([(xs + 0.5) / width, (ys + 0.5) / height], axis=1),
            np.stack([xs + 0.5, ys + 0.5], axis=1))


class TestFragmentPositions:
    def test_texcoord_positions_are_the_layout_grid(self):
        # A Brook fragment pass derives indexof as floor(texcoord * size);
        # with the viewport equal to the output size that is exactly the
        # row-major layout grid, for every extent any device allows.
        # This identity is what lets an untiled pass hand evaluate() its
        # layout instead of explicit positions.
        limit = max(profile.limits.max_texture_size
                    for profile in DEVICE_PROFILES.values())
        for w in range(1, limit + 1):
            xs = np.arange(w, dtype=np.float64)
            along = np.floor(((xs + 0.5) / w) * float(w)).astype(np.float32)
            across = np.zeros(w, dtype=np.float32)   # extent 1: always 0
            for shader, layout in (
                    (np.stack([along, across], axis=1), (1, w)),
                    (np.stack([across, along], axis=1), (w, 1))):
                want = layout_positions(*layout)
                assert np.array_equal(shader.view(np.uint32),
                                      want.view(np.uint32)), (w, layout)


class TestFragmentGrid:
    def test_brook_pass_builds_no_grid(self, monkeypatch):
        # A Brook pass reads its streams by texel, so the per-fragment
        # coordinate grids are never built.
        jobs = []
        run = BrookKernelShader.run

        def recording_run(shader, job):
            jobs.append(job)
            return run(shader, job)

        monkeypatch.setattr(BrookKernelShader, "run", recording_run)
        with BrookRuntime(backend="gles2", device="videocore-iv") as rt:
            module = rt.compile(
                "kernel void k(float a<>, out float r<>) {"
                " float2 p = indexof(r); r = a + p.x; }")
            out = rt.stream((5, 7))
            module.k(rt.stream_from(np.ones((5, 7), dtype=np.float32)), out)
        assert len(jobs) == 1
        assert "texcoord" not in vars(jobs[0])
        assert "frag_coord" not in vars(jobs[0])

    def test_each_draw_builds_its_own_grid(self):
        width, height = 9, 4
        recorder = _GridRecorder()
        context = _draw_setup(16, 16, shader=recorder)
        context.draw_fullscreen_quad(viewport=(width, height))
        context.draw_fullscreen_quad(viewport=(width, height))
        (tex_a, frag_a), (tex_b, frag_b) = recorder.grids
        assert tex_a is not tex_b and frag_a is not frag_b
        assert not tex_a.flags.writeable and not frag_a.flags.writeable
        want_tex, want_frag = _fresh_grid(width, height)
        assert np.array_equal(tex_a.view(np.uint64), want_tex.view(np.uint64))
        assert np.array_equal(frag_a.view(np.uint64),
                              want_frag.view(np.uint64))

    def test_grid_is_read_only(self):
        context = _draw_setup(shader=_TexcoordWriter())
        with pytest.raises(ValueError):
            context.draw_fullscreen_quad()

    def test_alternating_viewports_match_a_fresh_build(self):
        recorder = _GridRecorder()
        context = _draw_setup(shader=recorder)
        viewports = [(4, 2), (8, 8), (4, 2), (8, 8), (3, 5)]
        for viewport in viewports:
            context.draw_fullscreen_quad(viewport=viewport)
        for (width, height), (texcoord, frag_coord) in zip(viewports,
                                                           recorder.grids):
            want_tex, want_frag = _fresh_grid(width, height)
            assert np.array_equal(texcoord.view(np.uint64),
                                  want_tex.view(np.uint64))
            assert np.array_equal(frag_coord.view(np.uint64),
                                  want_frag.view(np.uint64))

    def test_handwritten_sgemm_is_unchanged(self):
        # Values recorded when every draw shared a cached grid.
        sgemm = HandwrittenSgemm()
        result = sgemm.run(16, seed=3)
        digest = hashlib.sha256(
            np.ascontiguousarray(result.c, dtype=np.float32).tobytes())
        assert digest.hexdigest()[:16] == "26a78179f3c61a96"
        assert (result.fragments, result.texture_fetches) == (256, 8192)
        np.testing.assert_allclose(result.c, sgemm.reference(16, seed=3),
                                   rtol=1e-2, atol=1e-2)


class TestDrawStatistics:
    def test_running_totals_and_reset(self):
        context = _draw_setup(shader=_CopyShader())
        source = context.create_texture(8, 8, name="source")
        context.bound_program.bind_texture("source", source)
        for viewport in ((8, 8), (4, 2), (8, 8)):
            context.draw_fullscreen_quad(viewport=viewport)
        assert context.total_draw_calls == 3
        assert context.total_fragments == 64 + 8 + 64
        assert context.draws.texture_fetches == 64 + 8 + 64
        context.reset_statistics()
        assert context.total_draw_calls == 0
        assert context.total_fragments == 0
        assert context.draws.texture_fetches == 0

    def test_draws_retain_no_memory(self):
        # A long-lived context must keep no per-draw record: 1000 draws
        # leave the memory allocated by the context module flat.
        context = _draw_setup(4, 4)
        for _ in range(10):
            context.draw_fullscreen_quad()
        only_context = [tracemalloc.Filter(True, gles2_context.__file__)]

        def retained():
            snapshot = tracemalloc.take_snapshot().filter_traces(only_context)
            return sum(stat.size for stat in snapshot.statistics("filename"))

        tracemalloc.start()
        try:
            before = retained()
            for _ in range(1000):
                context.draw_fullscreen_quad()
            after = retained()
        finally:
            tracemalloc.stop()
        assert after - before < 1000
        assert context.total_draw_calls == 1010
