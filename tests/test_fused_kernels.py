"""Stage-fused kernel execution: bit-identity against the seed-style loops.

The contract of the fusion refactor: every application kernel run with
``fused=True`` (the default) must produce records *bit-identical* to the
seed-style per-constant loops (``fused=False``), with exactly the same
operation counts, on the ``"direct"`` backend.
"""
import numpy as np
import pytest

from repro.core import ApproxContext
from repro.apps.dct import FixedPointDCT
from repro.apps.fft import FixedPointFFT, random_q15_signal
from repro.apps.hevc_mc import MotionCompensationFilter
from repro.apps.kmeans import FixedPointKMeans

#: Operator pairings: the exact baseline, a data-sized adder, and
#: functionally approximate adders and multipliers.
OPERATOR_PAIRINGS = [
    (None, None),
    ("ADDt(16,10)", None),
    ("ACA(16,8)", "AAM(16)"),
    ("ETAIV(16,4)", "ABM(16)"),
]

BACKENDS = ["direct"]


def make_context(backend, adder, multiplier):
    return ApproxContext(adder=adder, multiplier=multiplier, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("adder,multiplier", OPERATOR_PAIRINGS)
class TestFusedEqualsSeedStyle(object):
    def test_fft(self, backend, adder, multiplier):
        signal = random_q15_signal(64, seed=11)
        fused_ctx = make_context(backend, adder, multiplier)
        seed_ctx = make_context(backend, adder, multiplier)
        fused = FixedPointFFT(64, context=fused_ctx, fused=True).forward(signal)
        seed = FixedPointFFT(64, context=seed_ctx, fused=False).forward(signal)
        assert np.array_equal(fused.real, seed.real)
        assert np.array_equal(fused.imag, seed.imag)
        assert fused.counts == seed.counts
        assert fused_ctx.counts == seed_ctx.counts

    def test_dct(self, backend, adder, multiplier):
        rng = np.random.default_rng(4)
        blocks = rng.integers(-128, 128, size=(6, 8, 8), dtype=np.int64)
        fused_ctx = make_context(backend, adder, multiplier)
        seed_ctx = make_context(backend, adder, multiplier)
        fused = FixedPointDCT(context=fused_ctx, fused=True).forward(blocks)
        seed = FixedPointDCT(context=seed_ctx, fused=False).forward(blocks)
        assert np.array_equal(fused, seed)
        assert fused_ctx.counts == seed_ctx.counts

    def test_hevc(self, backend, adder, multiplier, small_image):
        fused_ctx = make_context(backend, adder, multiplier)
        seed_ctx = make_context(backend, adder, multiplier)
        fused = MotionCompensationFilter(context=fused_ctx, fused=True) \
            .interpolate(small_image, horizontal_phase=1, vertical_phase=2)
        seed = MotionCompensationFilter(context=seed_ctx, fused=False) \
            .interpolate(small_image, horizontal_phase=1, vertical_phase=2)
        assert np.array_equal(fused.interpolated, seed.interpolated)
        assert fused.counts == seed.counts

    def test_kmeans(self, backend, adder, multiplier, point_cloud):
        fused_ctx = make_context(backend, adder, multiplier)
        seed_ctx = make_context(backend, adder, multiplier)
        fused = FixedPointKMeans(clusters=6, context=fused_ctx, iterations=3,
                                 fused=True)
        seed = FixedPointKMeans(clusters=6, context=seed_ctx, iterations=3,
                                fused=False)
        fused_labels, fused_centers, fused_counts = fused.fit(
            point_cloud.points, point_cloud.centers)
        seed_labels, seed_centers, seed_counts = seed.fit(
            point_cloud.points, point_cloud.centers)
        assert np.array_equal(fused_labels, seed_labels)
        assert np.array_equal(fused_centers, seed_centers)
        assert fused_counts == seed_counts


class TestFusedCountFormulas(object):
    """Fused execution still charges the analytic operation inventories."""

    def test_fft_counts_match_radix2_formula(self):
        context = ApproxContext(adder="ADDt(16,10)")
        fft = FixedPointFFT(128, context=context, fused=True)
        result = fft.forward(random_q15_signal(128, seed=2))
        assert result.counts == fft.operation_counts()

    def test_dct_counts_match_matrix_formula(self):
        context = ApproxContext()
        dct = FixedPointDCT(context=context, fused=True)
        dct.forward(np.zeros((3, 8, 8), dtype=np.int64))
        assert context.counts == dct.operation_counts(blocks=3)

    def test_hevc_zero_taps_are_skipped(self, small_image):
        """Zero taps charge nothing, exactly as the seed-style loop skips them."""
        fused_ctx = ApproxContext()
        seed_ctx = ApproxContext()
        # Phase 1 luma filter has one zero tap; phases 1x0 exercise the
        # single-axis path too.
        fused = MotionCompensationFilter(context=fused_ctx, fused=True) \
            .interpolate(small_image, horizontal_phase=1, vertical_phase=0)
        seed = MotionCompensationFilter(context=seed_ctx, fused=False) \
            .interpolate(small_image, horizontal_phase=1, vertical_phase=0)
        assert fused.counts == seed.counts
        assert np.array_equal(fused.interpolated, seed.interpolated)


class TestStudyLevelFusion(object):
    """The workload plugins expose ``fused`` and stay record-identical."""

    def _rows(self, workload, axis, operators, backend, fused):
        from repro.core import Study

        study = Study().workload(workload).seed(5).backend(backend)
        getattr(study, axis)(operators)
        if not fused:
            study.config(fused=False)
        return study.run().rows

    @pytest.mark.parametrize("workload,axis,operators", [
        ("fft(64, frames=2)", "adders", ["ADDt(16,10)", "ACA(16,8)"]),
        ("jpeg(size=32)", "multipliers", ["MULt(16,16)", "AAM(16)"]),
        ("hevc(size=48)", "adders", ["ADDt(16,10)", "ETAII(16,4)"]),
        ("kmeans(runs=1, points_per_run=300, iterations=2)", "multipliers",
         ["MULt(16,16)", "MULt(16,8)"]),
    ])
    def test_records_identical_across_modes_and_backends(
            self, workload, axis, operators):
        reference = self._rows(workload, axis, operators, "direct", False)
        for backend in BACKENDS:
            for fused in (True, False):
                assert self._rows(workload, axis, operators, backend,
                                  fused) == reference, (backend, fused)
