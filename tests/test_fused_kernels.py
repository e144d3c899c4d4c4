"""Stage-fused kernel execution: bit-identity against the seed-style loops.

Every application kernel runs stage-fused.  Its outputs and operation
counts must be *bit-identical* to the seed-style per-constant loops kept as
references in ``tests/oracles.py``.  At study level, the records of four
small studies are pinned by digest.
"""
import hashlib
import json

import numpy as np
import pytest

from oracles import (
    seed_dct_forward,
    seed_fft_forward,
    seed_hevc_interpolate,
    seed_kmeans_fit,
)
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
        fft = FixedPointFFT(64, context=fused_ctx)
        fused = fft.forward(signal)
        seed = seed_fft_forward(fft, seed_ctx, signal)
        assert np.array_equal(fused.real, seed.real)
        assert np.array_equal(fused.imag, seed.imag)
        assert fused.counts == seed.counts
        assert fused_ctx.counts == seed_ctx.counts

    def test_dct(self, backend, adder, multiplier):
        rng = np.random.default_rng(4)
        blocks = rng.integers(-128, 128, size=(6, 8, 8), dtype=np.int64)
        fused_ctx = make_context(backend, adder, multiplier)
        seed_ctx = make_context(backend, adder, multiplier)
        dct = FixedPointDCT(context=fused_ctx)
        fused = dct.forward(blocks)
        seed = seed_dct_forward(dct, seed_ctx, blocks)
        assert np.array_equal(fused, seed)
        assert fused_ctx.counts == seed_ctx.counts

    def test_hevc(self, backend, adder, multiplier, small_image):
        fused_ctx = make_context(backend, adder, multiplier)
        seed_ctx = make_context(backend, adder, multiplier)
        mc = MotionCompensationFilter(context=fused_ctx)
        fused = mc.interpolate(small_image, horizontal_phase=1,
                               vertical_phase=2)
        seed = seed_hevc_interpolate(mc, seed_ctx, small_image,
                                     horizontal_phase=1, vertical_phase=2)
        assert np.array_equal(fused.interpolated, seed.interpolated)
        assert fused.counts == seed.counts

    def test_kmeans(self, backend, adder, multiplier, point_cloud):
        self._assert_kmeans_fit_matches(backend, adder, multiplier,
                                        point_cloud.points,
                                        point_cloud.centers)

    def test_kmeans_empty_cluster(self, backend, adder, multiplier,
                                  point_cloud):
        # A duplicated centre loses every tie to its twin, so the first
        # update leaves its cluster empty and the centre must stay put.
        centers = point_cloud.centers.copy()
        centers[-1] = centers[0]
        probe = FixedPointKMeans(
            clusters=6, context=make_context(backend, adder, multiplier))
        assert not np.any(probe.assign(point_cloud.points, centers) == 5)
        self._assert_kmeans_fit_matches(backend, adder, multiplier,
                                        point_cloud.points, centers)

    @staticmethod
    def _assert_kmeans_fit_matches(backend, adder, multiplier, points,
                                   centers):
        fused_ctx = make_context(backend, adder, multiplier)
        seed_ctx = make_context(backend, adder, multiplier)
        kmeans = FixedPointKMeans(clusters=6, context=fused_ctx, iterations=3)
        fused_labels, fused_centers, fused_counts = kmeans.fit(points, centers)
        seed_labels, seed_centers, seed_counts = seed_kmeans_fit(
            kmeans, seed_ctx, points, centers)
        assert np.array_equal(fused_labels, seed_labels)
        assert np.array_equal(fused_centers, seed_centers)
        assert fused_counts == seed_counts


class TestFusedCountFormulas(object):
    """Fused execution still charges the analytic operation inventories."""

    def test_fft_counts_match_radix2_formula(self):
        context = ApproxContext(adder="ADDt(16,10)")
        fft = FixedPointFFT(128, context=context)
        result = fft.forward(random_q15_signal(128, seed=2))
        assert result.counts == fft.operation_counts()

    def test_dct_counts_match_matrix_formula(self):
        context = ApproxContext()
        dct = FixedPointDCT(context=context)
        dct.forward(np.zeros((3, 8, 8), dtype=np.int64))
        assert context.counts == dct.operation_counts(blocks=3)

    def test_hevc_zero_taps_are_skipped(self, small_image):
        """Zero taps charge nothing, exactly as the seed-style loop skips them."""
        mc = MotionCompensationFilter(context=ApproxContext())
        # Phase 1 luma filter has one zero tap; phases 1x0 exercise the
        # single-axis path too.
        fused = mc.interpolate(small_image, horizontal_phase=1,
                               vertical_phase=0)
        seed = seed_hevc_interpolate(mc, ApproxContext(), small_image,
                                     horizontal_phase=1, vertical_phase=0)
        assert fused.counts == seed.counts
        assert np.array_equal(fused.interpolated, seed.interpolated)


def rows_digest(rows):
    """SHA-256 of a study's rows in canonical JSON."""
    text = json.dumps(rows, sort_keys=True,
                      default=lambda value: value.tolist())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: SHA-256 of each study's rows, recorded when the seed-style loops were
#: still selectable per study and both modes produced these rows.  The
#: design-point columns default rows gained later (``design``, ``axis``,
#: ``word_length``) are left out of the digest.
STUDY_DIGESTS = {
    "fft(64, frames=2)":
        "c77d731ae53d9f1ec93a0d2f1ca0bd2546bb74d65c937170cb096c235f418ffb",
    "jpeg(size=32)":
        "eab970543d89ee77409a6442d0c0cdc40da204e00d3c3ae918b6e2292b83d69a",
    "hevc(size=48)":
        "127c8b3d84ea6e0322f34a008e25e611db9259953705446c05746091098ae42a",
    "kmeans(runs=1, points_per_run=300, iterations=2)":
        "cd4ba237e8d28dd883f2dd8a5029f536518e90ea43fbaeb562235f861186c743",
}


class TestStudyLevelFusion(object):
    """Workload-plugin records of the fused kernels are pinned by digest."""

    @pytest.mark.parametrize("workload,axis,operators", [
        ("fft(64, frames=2)", "adders", ["ADDt(16,10)", "ACA(16,8)"]),
        ("jpeg(size=32)", "multipliers", ["MULt(16,16)", "AAM(16)"]),
        ("hevc(size=48)", "adders", ["ADDt(16,10)", "ETAII(16,4)"]),
        ("kmeans(runs=1, points_per_run=300, iterations=2)", "multipliers",
         ["MULt(16,16)", "MULt(16,8)"]),
    ])
    def test_records_match_pinned_digest(self, workload, axis, operators):
        from repro.core import Study

        study = Study().workload(workload).seed(5)
        getattr(study, axis)(operators)
        rows = [{column: value for column, value in row.items()
                 if column not in ("design", "axis", "word_length")}
                for row in study.run().rows]
        assert rows_digest(rows) == STUDY_DIGESTS[workload]
