"""Tests for the ApproxContext / ExecutionBackend layer.

Bit-exactness of the operator models (and of every backend) against the
bit-serial oracle lives in ``tests/test_oracles.py``.  This module covers
the backend registry and its plug-in seam, the result shapes and dtypes of
:class:`DirectBackend`, the stimuli the former table tiers were checked on,
the operation counts an :class:`ApproxContext` charges, and the names the
repository benchmark (``perfbench/``) relies on.
"""
import numpy as np
import pytest
from oracles import oracle_aligned

from repro.cli import build_parser
from repro.core import (
    ApproxContext,
    DirectBackend,
    ExecutionBackend,
    Study,
    cache_stats,
    clear_table_cache,
    create_backend,
    describe_backends,
    parse_backend,
    parse_operator,
    registered_backends,
    registered_mnemonics,
)
from repro.core import backends as backends_module
from repro.core.datapath import OperationCounts
from repro.operators.adders import TruncatedAdder
from repro.operators.base import MAX_EXHAUSTIVE_WIDTH
from repro.operators.multipliers import TruncatedMultiplier

#: One 8-bit configuration per registered operator mnemonic.  The test below
#: asserts the mapping stays complete, so adding an operator to the registry
#: without adding it to the exhaustive sweeps fails here.
EIGHT_BIT_SPECS = {
    "add": "ADD(8)",
    "addt": "ADDt(8,5)",
    "addr": "ADDr(8,5)",
    "addrne": "ADDrne(8,5)",
    "aca": "ACA(8,3)",
    "etaii": "ETAII(8,2)",
    "etaiv": "ETAIV(8,2)",
    "rcaapx": "RCAApx(8,3,2)",
    "mul": "MUL(8)",
    "mult": "MULt(8,8)",
    "mulr": "MULr(8,8)",
    "booth": "BOOTH(8)",
    "aam": "AAM(8)",
    "abm": "ABM(8)",
}


class PluginBackend(ExecutionBackend):
    """A downstream plug-in: evaluates each call in flat chunks."""

    name = "plugin"

    def __init__(self, chunk: int = 64) -> None:
        self.chunk = int(chunk)

    def execute(self, operator, a, b):
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                                   np.asarray(b, dtype=np.int64))
        flat_a, flat_b = a.ravel(), b.ravel()
        out = np.empty(flat_a.shape, dtype=np.int64)
        for start in range(0, flat_a.size, self.chunk):
            stop = start + self.chunk
            out[start:stop] = operator.aligned(flat_a[start:stop],
                                               flat_b[start:stop])
        return out.reshape(a.shape)


@pytest.fixture
def plugin(monkeypatch):
    """Register :class:`PluginBackend` for one test only."""
    monkeypatch.setitem(backends_module._REGISTRY, "plugin", PluginBackend)
    return "plugin"


class TestBackendRegistry(object):
    def test_builtins_registered(self):
        assert registered_backends() == ["direct"]
        assert [entry["name"] for entry in describe_backends()] == ["direct"]

    def test_parse_backend_specs(self, plugin):
        assert isinstance(parse_backend("direct"), DirectBackend)
        assert isinstance(parse_backend("DIRECT"), DirectBackend)
        backend = parse_backend("plugin(chunk=8)")
        assert isinstance(backend, PluginBackend)
        assert backend.chunk == 8
        entries = {entry["name"]: entry for entry in describe_backends()}
        assert entries["plugin"]["description"] == "plug-in backend"

    def test_parse_backend_passthrough_and_default(self):
        instance = DirectBackend()
        assert parse_backend(instance) is instance
        assert isinstance(parse_backend(None), DirectBackend)

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="no_such_backend"):
            create_backend("no_such_backend")
        # The deleted table tiers are unknown names, not silent aliases.
        for name in ("lut", "compiled"):
            with pytest.raises(KeyError, match="known: direct"):
                parse_backend(name)

    def test_bad_backend_arguments(self):
        with pytest.raises(ValueError, match="direct"):
            parse_backend("direct(no_such_parameter=3)")


class TestDirectBackend(object):
    """Result shapes and dtypes of every call shape the kernels issue."""

    @pytest.mark.parametrize("spec", ["ADDt(16,10)", "ACA(16,8)",
                                      "MULt(16,16)", "AAM(16)"])
    def test_call_shapes_and_dtypes(self, spec):
        operator = parse_operator(spec)
        backend = DirectBackend()
        column = np.arange(-40, 40, 5, dtype=np.int64).reshape(-1, 1)
        bank = np.array([[3, -1200, 777]], dtype=np.int64)
        cases = [
            (np.int64(123), np.int64(-45), ()),        # scalar x scalar
            (7, -3, ()),                               # plain Python ints
            (column[:, 0], np.int64(99), (16,)),       # array x constant
            (np.int64(99), column[:, 0], (16,)),       # constant x array
            (column[:, 0], column[::-1, 0], (16,)),    # array x array
            (column, bank, (16, 3)),                   # coefficient bank
            (np.zeros(0, dtype=np.int64), 5, (0,)),    # empty
            (column[:2, 0].astype(np.int32), np.int32(-7), (2,)),  # int32
        ]
        for a, b, shape in cases:
            got = backend.execute(operator, a, b)
            assert isinstance(got, np.ndarray)
            assert got.dtype == np.int64
            assert got.shape == shape, (spec, shape)
            assert np.array_equal(
                got, np.asarray(operator.aligned(a, b), dtype=np.int64))


class TestLutEquivalence(object):
    """Stimuli that the deleted ``lut`` table tier special-cased.

    Each case once exercised a table path (pair grids, per-constant value
    tables, squares, sum tables, off-grid fallbacks).  The closed-form
    execution path that replaced the tables must stay oracle-exact on every
    one of them.
    """

    def test_every_registered_operator_is_swept(self):
        assert set(registered_mnemonics()) == set(EIGHT_BIT_SPECS)

    @pytest.mark.parametrize("spec", sorted(EIGHT_BIT_SPECS.values()))
    def test_exhaustive_8bit_equivalence(self, spec):
        """Every operand pair of every registered 8-bit operator agrees."""
        operator = parse_operator(spec)
        a, b = operator.exhaustive_inputs()
        assert np.array_equal(oracle_aligned(operator, a, b),
                              DirectBackend().execute(operator, a, b)), spec

    @pytest.mark.parametrize("spec", ["MULt(16,16)", "AAM(16)", "BOOTH(16)"])
    def test_constant_operand_path_16bit(self, spec):
        """Scalar operands (DCT coefficients, twiddles) on either side."""
        operator = parse_operator(spec)
        rng = np.random.default_rng(3)
        a = rng.integers(-32768, 32768, size=(7, 11), dtype=np.int64)
        backend = DirectBackend()
        for constant in (0, 1, -1, 77, -12345):
            assert np.array_equal(oracle_aligned(operator, a, constant),
                                  backend.execute(operator, a, constant))
        assert np.array_equal(oracle_aligned(operator, np.int64(77), a),
                              backend.execute(operator, np.int64(77), a))

    def test_square_path_16bit(self):
        """Passing the same array twice (K-means squaring)."""
        operator = parse_operator("AAM(16)")
        rng = np.random.default_rng(4)
        values = rng.integers(-32768, 32768, size=500, dtype=np.int64)
        assert np.array_equal(oracle_aligned(operator, values, values),
                              DirectBackend().execute(operator, values, values))

    def test_sum_table_path_16bit(self):
        """Data-sized 16-bit adders on general operand arrays."""
        rng = np.random.default_rng(5)
        a = rng.integers(-32768, 32768, size=4096, dtype=np.int64)
        b = rng.integers(-32768, 32768, size=4096, dtype=np.int64)
        for spec in ("ADD(16)", "ADDt(16,10)", "ADDr(16,9)", "ADDrne(16,12)"):
            operator = parse_operator(spec)
            assert np.array_equal(oracle_aligned(operator, a, b),
                                  DirectBackend().execute(operator, a, b)), spec

    def test_wide_general_operands_fall_back_to_direct(self):
        """16-bit approximate adders on general arrays."""
        operator = parse_operator("ACA(16,8)")
        rng = np.random.default_rng(6)
        a = rng.integers(-32768, 32768, size=1000, dtype=np.int64)
        b = rng.integers(-32768, 32768, size=1000, dtype=np.int64)
        assert np.array_equal(oracle_aligned(operator, a, b),
                              DirectBackend().execute(operator, a, b))

    def test_bank_lookup_matches_direct(self):
        """A coefficient bank broadcast over data is served bit-exactly."""
        operator = parse_operator("MULt(16,16)")
        rng = np.random.default_rng(11)
        a = rng.integers(-32768, 32768, size=(2000, 1), dtype=np.int64)
        bank = np.array([[5, -77, 1234]], dtype=np.int64)
        got = DirectBackend().execute(operator, a, bank)
        assert got.shape == (2000, 3)
        assert np.array_equal(oracle_aligned(operator, a, bank), got)

    def test_pair_lookup_bounds_checked_per_operand(self):
        """An operand one past the 8-bit grid is not aliased into the grid."""
        operator = parse_operator("MUL(8)")
        a = np.full(50, -128, dtype=np.int64)
        b = np.full(50, 128, dtype=np.int64)  # one past the 8-bit grid
        assert np.array_equal(oracle_aligned(operator, a, b),
                              DirectBackend().execute(operator, a, b))

    def test_out_of_range_operands_still_fall_back(self):
        """Stimulus beyond the operator's width keeps the oracle's values."""
        operator = parse_operator("MULt(8,8)")
        values = np.array([1000, -4000, 3], dtype=np.int64)  # beyond 8-bit
        assert np.array_equal(oracle_aligned(operator, values, 5),
                              DirectBackend().execute(operator, values, 5))


class TestCompiledEquivalence(object):
    """Stimuli that the deleted ``compiled`` tier's kernels were checked on.

    The closed-form kernels of the operators serve every call now; they must
    reproduce the oracle on the same exhaustive grids, call shapes and
    random 16-bit arrays.
    """

    @pytest.mark.parametrize("spec", sorted(EIGHT_BIT_SPECS.values()))
    def test_exhaustive_8bit_equivalence(self, spec):
        """Every operand pair of every registered 8-bit operator agrees."""
        operator = parse_operator(spec)
        a, b = operator.exhaustive_inputs()
        assert np.array_equal(oracle_aligned(operator, a, b),
                              operator.aligned(a, b)), spec

    @pytest.mark.parametrize("spec", sorted(EIGHT_BIT_SPECS.values()))
    def test_exhaustive_8bit_without_pair_tables(self, spec):
        """The exhaustive grid as an outer broadcast, not flattened pairs."""
        operator = parse_operator(spec)
        lo, hi = operator.input_range()
        column = np.arange(lo, hi + 1, dtype=np.int64)[:, np.newaxis]
        row = column.T
        got = DirectBackend().execute(operator, column, row)
        assert got.shape == (column.size, column.size)
        assert np.array_equal(oracle_aligned(operator, column, row), got), spec

    @pytest.mark.parametrize("spec", sorted(EIGHT_BIT_SPECS.values()))
    def test_scalar_array_and_bank_shapes_8bit(self, spec):
        """Scalar-constant, array and bank call shapes all stay bit-exact."""
        operator = parse_operator(spec)
        a, b = operator.exhaustive_inputs()
        backend = DirectBackend()
        # scalar x scalar
        assert np.array_equal(
            oracle_aligned(operator, a[7], b[7]),
            backend.execute(operator, a[7], b[7])), spec
        # array x scalar constant
        values, constant = a[:300], int(b[17])
        assert np.array_equal(
            oracle_aligned(operator, values, constant),
            backend.execute(operator, values, constant)), spec
        # bank of constants broadcast over data
        column = values[:, np.newaxis]
        bank = np.array([[int(b[3]), int(b[200]), int(b[77])]],
                        dtype=np.int64)
        assert np.array_equal(
            oracle_aligned(operator, column, bank),
            backend.execute(operator, column, bank)), spec

    @pytest.mark.parametrize("spec", [
        "AAM(16)", "AAM(16, compensation=false)", "ABM(16)", "ABM(16,3)",
        "BOOTH(16)", "ACA(16,8)", "RCAApx(16,6,1)", "RCAApx(16,6,2)",
        "RCAApx(16,6,3)", "ETAII(16,4)", "ETAIV(16,4)",
    ])
    def test_16bit_kernels_match_direct_on_random_stimulus(self, spec):
        """The closed-form kernels agree with the oracle on 16-bit arrays."""
        operator = parse_operator(spec)
        a, b = operator.random_inputs(4096, rng=np.random.default_rng(21))
        assert np.array_equal(oracle_aligned(operator, a, b),
                              DirectBackend().execute(operator, a, b)), spec

    def test_out_of_range_stimulus_stays_exact(self):
        """Off-grid operands keep the oracle's values."""
        rng = np.random.default_rng(22)
        wild = rng.integers(-(1 << 20), 1 << 20, size=600, dtype=np.int64)
        partner = rng.integers(-(1 << 20), 1 << 20, size=600, dtype=np.int64)
        backend = DirectBackend()
        for spec in ("AAM(16)", "ABM(16)", "BOOTH(16)", "MULt(16,16)",
                     "ACA(16,8)", "ETAIV(16,4)"):
            operator = parse_operator(spec)
            assert np.array_equal(
                oracle_aligned(operator, wild, partner),
                backend.execute(operator, wild, partner)), spec


class TestHarnessContract(object):
    def test_serve_default_and_cache_stats_keys(self):
        """``perfbench/`` reads these names; they must keep working."""
        assert build_parser().parse_args(["serve"]).backend == "direct"
        assert clear_table_cache(purge_arena=True) is None
        stats = cache_stats()
        assert stats["hits"] == stats["misses"] == 0
        assert stats["arena"]["builds"] == stats["arena"]["attaches"] == 0


class TestApproxContext(object):
    def test_defaults_are_the_exact_baseline(self):
        context = ApproxContext()
        assert context.adder.name == "ADD(16)"
        assert context.multiplier.name == "MULt(16,16)"
        assert context.backend.name == "direct"
        assert context.data_width == 16 and context.frac_bits == 15

    def test_spec_strings_resolve(self):
        context = ApproxContext(adder="ADDt(16,10)", multiplier="AAM(16)",
                                backend="direct")
        assert context.adder.name == "ADDt(16,10)"
        assert context.multiplier.name == "AAM(16)"
        assert context.backend.name == "direct"

    def test_family_mismatch_rejected(self):
        with pytest.raises(TypeError, match="not an adder"):
            ApproxContext(adder=TruncatedMultiplier(16, 16))
        with pytest.raises(TypeError, match="not a multiplier"):
            ApproxContext(multiplier=TruncatedAdder(16, 10))

    def test_counts_match_the_seed_kernel_inventory(self):
        """Scalar broadcasting charges exactly what the seed kernels counted."""
        context = ApproxContext(adder=TruncatedAdder(16, 10))
        values = np.arange(-64, 64, dtype=np.int64)
        context.add(values, values[::-1].copy())
        context.sub(values, 3)               # scalar still counts per element
        context.mul(values, 5)
        counts = context.counts
        assert counts == OperationCounts(additions=2 * values.size,
                                         multiplications=values.size)

    def test_counts_since_extracts_deltas(self):
        context = ApproxContext()
        values = np.arange(16, dtype=np.int64)
        context.add(values, values)
        snapshot = context.counts
        context.mul(values, 2)
        delta = context.counts_since(snapshot)
        assert delta == OperationCounts(additions=0, multiplications=16)

    def test_fft_counts_match_radix2_formula(self):
        from repro.apps import FixedPointFFT, random_q15_signal

        context = ApproxContext(adder="ADDt(16,10)")
        fft = FixedPointFFT(32, context=context)
        result = fft.forward(random_q15_signal(32, seed=2))
        expected = fft.operation_counts()
        assert result.counts.additions == expected.additions == 480
        assert result.counts.multiplications == expected.multiplications == 320

    def test_dct_counts_match_matrix_formula(self):
        from repro.apps import FixedPointDCT

        context = ApproxContext()
        dct = FixedPointDCT(context=context)
        blocks = np.zeros((3, 8, 8), dtype=np.int64)
        dct.forward(blocks)
        assert context.counts == dct.operation_counts(blocks=3)

    def test_kmeans_counts_match_distance_formula(self):
        from repro.apps import FixedPointKMeans, generate_point_cloud

        cloud = generate_point_cloud(100, 4, seed=2)
        context = ApproxContext()
        km = FixedPointKMeans(clusters=4, context=context, iterations=1)
        km.assign(cloud.points, cloud.centers)
        # Per centroid and dimension: one difference, one squaring, one
        # accumulation — over 100 points, 4 centroids, 2 dimensions.
        assert context.counts == OperationCounts(additions=4 * 2 * 2 * 100,
                                                 multiplications=4 * 2 * 100)

    def test_energy_breakdown_charges_accumulated_counts(self):
        from repro.core import DatapathEnergyModel

        context = ApproxContext(adder="ADDt(16,10)")
        values = np.arange(32, dtype=np.int64)
        context.add(values, values)
        breakdown = context.energy_breakdown(
            DatapathEnergyModel(hardware_samples=200))
        assert breakdown.additions == 32
        assert breakdown.total_energy_pj > 0.0

    def test_data_width_mismatch_rejected_by_kernels(self):
        from repro.apps import FixedPointFFT

        with pytest.raises(ValueError, match="word length"):
            FixedPointFFT(32, data_width=16,
                          context=ApproxContext(data_width=8))


class TestStudyBackendThreading(object):
    def _study(self, backend):
        return (Study()
                .workload("fft(32, frames=2)")
                .adders(["ADDt(16,10)", "ACA(16,8)"])
                .seed(7)
                .backend(backend))

    def test_backend_instance_accepted(self):
        result = self._study(DirectBackend()).run()
        assert result.rows == self._study("direct").run().rows
        assert result.metadata["backend"] == "direct"

    def test_jpeg_workload_identical_across_backends(self, plugin):
        def run(backend):
            return (Study()
                    .workload("jpeg(size=32)")
                    .adders(["ADDt(16,10)", "ADDr(16,12)"])
                    .seed(3)
                    .backend(backend)
                    .run())

        through_plugin = run(plugin)
        assert through_plugin.metadata["backend"] == "plugin"
        assert run("direct").rows == through_plugin.rows

    def test_kmeans_workload_identical_across_backends(self, plugin):
        def run(backend):
            return (Study()
                    .workload("kmeans(runs=1, points_per_run=300, iterations=2)")
                    .multipliers(["MULt(16,16)", "MULt(16,8)"])
                    .seed(5)
                    .backend(backend)
                    .run())

        assert run("direct").rows == run(plugin).rows

    def test_run_all_accepts_backend(self):
        import inspect

        from repro.experiments import run_all

        assert "backend" in inspect.signature(run_all).parameters


class TestStimulusSatellites(object):
    def test_random_inputs_default_is_deterministic(self):
        operator = parse_operator("ADDt(16,10)")
        first = operator.random_inputs(32)
        second = operator.random_inputs(32)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_random_inputs_accepts_integer_seed(self):
        operator = parse_operator("MULt(16,16)")
        a1, b1 = operator.random_inputs(16, rng=123)
        a2, b2 = operator.random_inputs(16, rng=123)
        a3, _ = operator.random_inputs(16, rng=124)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        assert not np.array_equal(a1, a3)

    def test_exhaustive_inputs_guard_names_the_pair_count(self):
        for spec in ("MULt(16,16)", f"ADD({MAX_EXHAUSTIVE_WIDTH + 1})"):
            with pytest.raises(ValueError, match="operand pairs"):
                parse_operator(spec).exhaustive_inputs()
        # Small widths still enumerate completely.
        a, b = parse_operator("ADD(8)").exhaustive_inputs()
        assert a.size == b.size == 4 ** 8
