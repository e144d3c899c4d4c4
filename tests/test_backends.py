"""Tests for the ApproxContext / ExecutionBackend layer.

The central contract: every backend reproduces the bit-serial oracle
(``tests/oracles.py``) for every registered operator — verified exhaustively
at 8 bits — and an :class:`ApproxContext` charges exactly the operation
counts the seed kernels recorded.
"""
import numpy as np
import pytest
from oracles import oracle_aligned

from repro.core import (
    ApproxContext,
    DirectBackend,
    LutBackend,
    Study,
    clear_table_cache,
    create_backend,
    parse_backend,
    parse_operator,
    registered_backends,
    registered_mnemonics,
    table_cache_size,
)
from repro.core.datapath import OperationCounts
from repro.operators.adders import TruncatedAdder
from repro.operators.base import MAX_EXHAUSTIVE_WIDTH
from repro.operators.multipliers import TruncatedMultiplier

#: One 8-bit configuration per registered operator mnemonic.  The test below
#: asserts the mapping stays complete, so adding an operator to the registry
#: without adding it to the exhaustive backend-equivalence sweep fails here.
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


class TestBackendRegistry(object):
    def test_builtins_registered(self):
        assert "direct" in registered_backends()
        assert "lut" in registered_backends()

    def test_parse_backend_specs(self):
        assert isinstance(parse_backend("direct"), DirectBackend)
        backend = parse_backend("lut(max_pair_width=8)")
        assert isinstance(backend, LutBackend)
        assert backend.max_pair_width == 8

    def test_parse_backend_passthrough_and_default(self):
        instance = LutBackend()
        assert parse_backend(instance) is instance
        assert isinstance(parse_backend(None), DirectBackend)

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="no_such_backend"):
            create_backend("no_such_backend")

    def test_bad_backend_arguments(self):
        with pytest.raises(ValueError, match="lut"):
            parse_backend("lut(no_such_parameter=3)")


class TestLutEquivalence(object):
    def test_every_registered_operator_is_swept(self):
        assert set(registered_mnemonics()) == set(EIGHT_BIT_SPECS)

    @pytest.mark.parametrize("spec", sorted(EIGHT_BIT_SPECS.values()))
    def test_exhaustive_8bit_equivalence(self, spec):
        """Every operand pair of every registered 8-bit operator agrees."""
        clear_table_cache()
        operator = parse_operator(spec)
        a, b = operator.exhaustive_inputs()
        expected = oracle_aligned(operator, a, b)
        assert np.array_equal(expected,
                              DirectBackend().execute(operator, a, b)), spec
        assert np.array_equal(expected,
                              LutBackend().execute(operator, a, b)), spec

    @pytest.mark.parametrize("spec", ["MULt(16,16)", "AAM(16)", "BOOTH(16)"])
    def test_constant_operand_path_16bit(self, spec):
        """Scalar operands (DCT coefficients, twiddles) hit the value tables."""
        clear_table_cache()
        operator = parse_operator(spec)
        rng = np.random.default_rng(3)
        a = rng.integers(-32768, 32768, size=(7, 11), dtype=np.int64)
        backend = LutBackend(min_value_size=1)
        for constant in (0, 1, -1, 77, -12345):
            direct = DirectBackend().execute(operator, a, constant)
            # First call: functional fallback (one-shot constant); second
            # call: the table path.  Both must match the direct reference.
            assert np.array_equal(direct, backend.execute(operator, a, constant))
            assert np.array_equal(direct, backend.execute(operator, a, constant))
        # Scalar on the left resolves through the other table side.
        direct = DirectBackend().execute(operator, np.int64(77), a)
        backend.execute(operator, np.int64(77), a)
        assert np.array_equal(direct, backend.execute(operator, np.int64(77), a))

    def test_square_path_16bit(self):
        """Passing the same array twice (K-means squaring) uses the diagonal."""
        clear_table_cache()
        operator = parse_operator("AAM(16)")
        rng = np.random.default_rng(4)
        values = rng.integers(-32768, 32768, size=500, dtype=np.int64)
        direct = DirectBackend().execute(operator, values, values)
        backend = LutBackend()
        assert np.array_equal(direct, backend.execute(operator, values, values))
        assert np.array_equal(direct, backend.execute(operator, values, values))
        assert table_cache_size() == 1  # diagonal table opened on recurrence

    def test_sum_table_path_16bit(self):
        """Data-sized 16-bit adders resolve through the sum-indexed table."""
        clear_table_cache()
        rng = np.random.default_rng(5)
        a = rng.integers(-32768, 32768, size=4096, dtype=np.int64)
        b = rng.integers(-32768, 32768, size=4096, dtype=np.int64)
        for spec in ("ADD(16)", "ADDt(16,10)", "ADDr(16,9)", "ADDrne(16,12)"):
            operator = parse_operator(spec)
            assert operator.sum_addressable
            direct = DirectBackend().execute(operator, a, b)
            lut = LutBackend().execute(operator, a, b)
            assert np.array_equal(direct, lut), spec

    def test_wide_general_operands_fall_back_to_direct(self):
        """16-bit approximate adders on general arrays use the functional model."""
        clear_table_cache()
        operator = parse_operator("ACA(16,8)")
        assert not operator.sum_addressable
        rng = np.random.default_rng(6)
        a = rng.integers(-32768, 32768, size=1000, dtype=np.int64)
        b = rng.integers(-32768, 32768, size=1000, dtype=np.int64)
        direct = DirectBackend().execute(operator, a, b)
        lut = LutBackend().execute(operator, a, b)
        assert np.array_equal(direct, lut)
        assert table_cache_size() == 0  # nothing tabulated for this shape

    def test_lazy_value_tables_grow_with_observed_values(self):
        clear_table_cache()
        operator = parse_operator("MULt(16,16)")
        backend = LutBackend(min_value_size=1)
        first = backend.execute(operator, np.array([1, 2, 3], dtype=np.int64), 7)
        assert table_cache_size() == 0  # one-shot constant: no table yet
        again = backend.execute(operator, np.array([3, 2, 1], dtype=np.int64), 7)
        assert np.array_equal(first[::-1], again)
        assert table_cache_size() == 1  # recurring constant earned its table

    def test_one_shot_constants_never_open_tables(self):
        """K-means centroids change every iteration; they stay on the model."""
        clear_table_cache()
        operator = parse_operator("ETAIV(16,4)")
        backend = LutBackend(min_value_size=1)
        rng = np.random.default_rng(8)
        points = rng.integers(-32768, 32768, size=400, dtype=np.int64)
        for constant in range(40):  # 40 distinct one-shot centroids
            direct = DirectBackend().execute(operator, points, constant)
            assert np.array_equal(direct,
                                  backend.execute(operator, points, constant))
        assert table_cache_size() == 0

    def test_small_calls_without_a_table_use_the_functional_model(self):
        clear_table_cache()
        operator = parse_operator("MULt(16,16)")
        backend = LutBackend(min_value_size=256)
        values = np.array([5, -3], dtype=np.int64)
        direct = DirectBackend().execute(operator, values, 9)
        assert np.array_equal(backend.execute(operator, values, 9), direct)
        assert table_cache_size() == 0  # tiny calls do not open tables

    def test_bank_lookup_matches_direct(self):
        """A coefficient bank broadcast over data is served bit-exactly."""
        clear_table_cache()
        operator = parse_operator("MULt(16,16)")
        rng = np.random.default_rng(11)
        a = rng.integers(-32768, 32768, size=(2000, 1), dtype=np.int64)
        bank = np.array([[5, -77, 1234]], dtype=np.int64)
        direct = DirectBackend().execute(operator, a, bank, bank=True)
        lut = LutBackend()
        # First call: functional (constants unseen); second call: the bank
        # groups gather from the tables the first call earned.
        assert np.array_equal(direct, lut.execute(operator, a, bank, bank=True))
        assert np.array_equal(direct, lut.execute(operator, a, bank, bank=True))
        assert table_cache_size() == 3  # one value table per bank constant

    def test_bank_tables_shared_with_scalar_constant_path(self):
        """Bank groups hit the very tables seed-style scalar calls warmed."""
        clear_table_cache()
        operator = parse_operator("AAM(16)")
        rng = np.random.default_rng(12)
        values = rng.integers(-32768, 32768, size=600, dtype=np.int64)
        backend = LutBackend(min_value_size=1)
        for _ in range(2):  # scalar path: warm the per-constant tables
            backend.execute(operator, values, 99)
            backend.execute(operator, values, -3)
        warmed = table_cache_size()
        a = values[:, np.newaxis]
        bank = np.array([[99, -3]], dtype=np.int64)
        direct = DirectBackend().execute(operator, a, bank, bank=True)
        assert np.array_equal(direct, backend.execute(operator, a, bank,
                                                      bank=True))
        assert table_cache_size() == warmed  # no new tables: reused

    def test_bank_with_many_constants_falls_back(self):
        """A fragmented bank (one constant per element) is not grouped."""
        clear_table_cache()
        operator = parse_operator("MULt(16,16)")
        rng = np.random.default_rng(13)
        a = rng.integers(-32768, 32768, size=512, dtype=np.int64)
        bank = np.arange(512, dtype=np.int64)  # > max_bank_constants
        backend = LutBackend(max_bank_constants=128)
        direct = DirectBackend().execute(operator, a, bank, bank=True)
        assert np.array_equal(direct, backend.execute(operator, a, bank,
                                                      bank=True))
        assert table_cache_size() == 0

    def test_bank_hint_never_changes_results_for_adders(self):
        """Approximate adders under a bank hint stay bit-exact (no sum table)."""
        clear_table_cache()
        operator = parse_operator("ETAII(16,4)")
        rng = np.random.default_rng(14)
        a = rng.integers(-32768, 32768, size=(400, 1), dtype=np.int64)
        bank = np.array([[100, -200, 300, -400]], dtype=np.int64)
        direct = DirectBackend().execute(operator, a, bank, bank=True)
        backend = LutBackend(min_value_size=1)
        for _ in range(3):
            assert np.array_equal(direct,
                                  backend.execute(operator, a, bank, bank=True))

    def test_in_range_hint_preserves_results(self):
        """The in_range scan skip returns the same values as the scanning path."""
        clear_table_cache()
        operator = parse_operator("BOOTH(16)")
        rng = np.random.default_rng(15)
        a = rng.integers(-32768, 32768, size=1000, dtype=np.int64)
        backend = LutBackend(min_value_size=1)
        checked = [backend.execute(operator, a, 321, in_range=False)
                   for _ in range(2)]
        clear_table_cache()
        trusted = [backend.execute(operator, a, 321, in_range=True)
                   for _ in range(2)]
        for lhs, rhs in zip(checked, trusted):
            assert np.array_equal(lhs, rhs)

    def test_wrong_in_range_claim_fails_closed(self):
        """Off-grid operands under a false in_range claim never poison tables.

        The documented contract: a violating call may itself receive values
        for aliased operands, but the shared tables are never written
        through aliased indices — compliant callers stay bit-exact — and
        positive overshoots fail closed onto the functional model.
        """
        clear_table_cache()
        operator = parse_operator("MULt(16,16)")
        backend = LutBackend(min_value_size=1)
        good = np.full(400, 25536, dtype=np.int64)
        for _ in range(2):  # open and fill the constant-7 table
            backend.execute(operator, good, 7, in_range=True)
        bad_positive = np.full(400, 40000, dtype=np.int64)
        assert np.array_equal(
            DirectBackend().execute(operator, bad_positive, 7),
            backend.execute(operator, bad_positive, 7, in_range=True))
        # A negative overshoot (fill-guarded) must not write into the table:
        backend.execute(operator, np.full(400, -40000, dtype=np.int64), 7,
                        in_range=True)
        # ... so the compliant path still serves bit-exactly afterwards.
        assert np.array_equal(
            DirectBackend().execute(operator, good, 7),
            backend.execute(operator, good, 7, in_range=True))

    def test_pair_lookup_bounds_checked_per_operand(self):
        """An off-grid pair operand cannot flatten-alias into another row."""
        clear_table_cache()
        operator = parse_operator("MUL(8)")
        a = np.full(50, -128, dtype=np.int64)
        b = np.full(50, 128, dtype=np.int64)  # one past the 8-bit grid
        direct = DirectBackend().execute(operator, a, b)
        assert np.array_equal(
            direct, LutBackend().execute(operator, a, b, in_range=True))

    def test_out_of_range_operands_still_fall_back(self):
        """Without the hint, out-of-range stimulus uses the functional model."""
        clear_table_cache()
        operator = parse_operator("MULt(8,8)")
        values = np.array([1000, -4000, 3], dtype=np.int64)  # beyond 8-bit
        direct = DirectBackend().execute(operator, values, 5)
        lut = LutBackend(min_value_size=1).execute(operator, values, 5)
        assert np.array_equal(direct, lut)
        assert table_cache_size() == 0

    def test_cache_shared_across_backend_instances(self):
        clear_table_cache()
        operator = parse_operator("ADDt(16,10)")
        a = np.arange(-50, 50, dtype=np.int64)
        LutBackend().execute(operator, a, a[::-1].copy())
        assert table_cache_size() == 1
        LutBackend().execute(operator, a, a.copy())
        assert table_cache_size() == 1  # same sum table, no rebuild


class TestCompiledEquivalence(object):
    """The ``"compiled"`` tier reproduces the oracle everywhere."""

    def test_registered_and_parameterised(self):
        from repro.core import CompiledBackend

        assert "compiled" in registered_backends()
        backend = parse_backend("compiled(max_pair_width=8)")
        assert isinstance(backend, CompiledBackend)
        assert backend.max_pair_width == 8

    @pytest.mark.parametrize("spec", sorted(EIGHT_BIT_SPECS.values()))
    def test_exhaustive_8bit_equivalence(self, spec):
        """Every operand pair of every registered 8-bit operator agrees."""
        from repro.core import CompiledBackend

        clear_table_cache()
        operator = parse_operator(spec)
        a, b = operator.exhaustive_inputs()
        compiled = CompiledBackend().execute(operator, a, b)
        assert np.array_equal(oracle_aligned(operator, a, b), compiled), spec

    @pytest.mark.parametrize("spec", sorted(EIGHT_BIT_SPECS.values()))
    def test_exhaustive_8bit_without_pair_tables(self, spec):
        """With pair tables disabled the kernels / value strategies serve."""
        from repro.core import CompiledBackend

        clear_table_cache()
        operator = parse_operator(spec)
        a, b = operator.exhaustive_inputs()
        backend = CompiledBackend(max_pair_width=2, min_value_size=1)
        assert np.array_equal(oracle_aligned(operator, a, b),
                              backend.execute(operator, a, b)), spec

    @pytest.mark.parametrize("spec", sorted(EIGHT_BIT_SPECS.values()))
    def test_scalar_array_and_bank_shapes_8bit(self, spec):
        """Scalar-constant, array and bank call shapes all stay bit-exact."""
        from repro.core import CompiledBackend

        clear_table_cache()
        operator = parse_operator(spec)
        a, b = operator.exhaustive_inputs()
        backend = CompiledBackend(max_pair_width=2, min_value_size=1)
        # scalar x scalar
        assert np.array_equal(
            oracle_aligned(operator, a[7], b[7]),
            backend.execute(operator, a[7], b[7])), spec
        # array x scalar constant — twice, so the second call is table-served
        values, constant = a[:300], int(b[17])
        reference = oracle_aligned(operator, values, constant)
        for _ in range(2):
            assert np.array_equal(
                reference, backend.execute(operator, values, constant)), spec
        # bank of constants broadcast over data — twice (stack admission)
        column = values[:, np.newaxis]
        bank = np.array([[int(b[3]), int(b[200]), int(b[77])]],
                        dtype=np.int64)
        reference = oracle_aligned(operator, column, bank)
        for _ in range(2):
            assert np.array_equal(
                reference,
                backend.execute(operator, column, bank, bank=True)), spec

    @pytest.mark.parametrize("spec", [
        "AAM(16)", "AAM(16, compensation=false)", "ABM(16)", "ABM(16,3)",
        "BOOTH(16)", "ACA(16,8)", "RCAApx(16,6,1)", "RCAApx(16,6,2)",
        "RCAApx(16,6,3)", "ETAII(16,4)", "ETAIV(16,4)",
    ])
    def test_16bit_kernels_match_direct_on_random_stimulus(self, spec):
        """Direct and compiled agree with the oracle on random 16-bit arrays."""
        from repro.core import CompiledBackend

        clear_table_cache()
        operator = parse_operator(spec)
        a, b = operator.random_inputs(4096, rng=np.random.default_rng(21))
        expected = oracle_aligned(operator, a, b)
        assert np.array_equal(expected,
                              DirectBackend().execute(operator, a, b)), spec
        assert np.array_equal(expected,
                              CompiledBackend().execute(operator, a, b)), spec

    def test_out_of_range_stimulus_stays_exact(self):
        """Off-grid operands (no in_range claim) never change results."""
        from repro.core import CompiledBackend

        clear_table_cache()
        rng = np.random.default_rng(22)
        wild = rng.integers(-(1 << 20), 1 << 20, size=600, dtype=np.int64)
        partner = rng.integers(-(1 << 20), 1 << 20, size=600, dtype=np.int64)
        backend = CompiledBackend()
        for spec in ("AAM(16)", "ABM(16)", "BOOTH(16)", "MULt(16,16)",
                     "ACA(16,8)", "ETAIV(16,4)"):
            operator = parse_operator(spec)
            assert np.array_equal(
                oracle_aligned(operator, wild, partner),
                backend.execute(operator, wild, partner)), spec

    def test_wrong_in_range_claim_fails_closed(self):
        """Off-grid operands under a false claim never poison the tables."""
        from repro.core import CompiledBackend

        clear_table_cache()
        operator = parse_operator("MULt(16,16)")
        backend = CompiledBackend(min_value_size=1)
        good = np.full(400, 25536, dtype=np.int64)
        for _ in range(2):  # open and (eagerly) fill the constant-7 table
            backend.execute(operator, good, 7, in_range=True)
        bad_positive = np.full(400, 40000, dtype=np.int64)
        assert np.array_equal(
            DirectBackend().execute(operator, bad_positive, 7),
            backend.execute(operator, bad_positive, 7, in_range=True))
        backend.execute(operator, np.full(400, -40000, dtype=np.int64), 7,
                        in_range=True)
        # ... the compliant path still serves bit-exactly afterwards.
        assert np.array_equal(
            DirectBackend().execute(operator, good, 7),
            backend.execute(operator, good, 7, in_range=True))

    def test_bank_opens_one_stacked_table(self):
        """A recurring bank earns a single stacked table, not one per tap."""
        from repro.core import CompiledBackend

        clear_table_cache()
        operator = parse_operator("MULt(16,16)")
        rng = np.random.default_rng(23)
        a = rng.integers(-32768, 32768, size=(2000, 1), dtype=np.int64)
        bank = np.array([[5, -77, 1234]], dtype=np.int64)
        direct = DirectBackend().execute(operator, a, bank, bank=True)
        backend = CompiledBackend()
        assert np.array_equal(direct,
                              backend.execute(operator, a, bank, bank=True))
        assert table_cache_size() == 0  # first sighting: no table yet
        assert np.array_equal(direct,
                              backend.execute(operator, a, bank, bank=True))
        assert table_cache_size() == 1  # one stack for the whole bank

    def test_one_shot_banks_never_open_stacks(self):
        """Drifting banks (K-means centroids) stay on the kernels."""
        from repro.core import CompiledBackend

        clear_table_cache()
        operator = parse_operator("AAM(16)")
        rng = np.random.default_rng(24)
        points = rng.integers(-32768, 32768, size=(400, 1), dtype=np.int64)
        backend = CompiledBackend(min_value_size=1)
        direct = DirectBackend()
        for step in range(6):  # six distinct one-shot centroid banks
            bank = rng.integers(-32768, 32768, size=(1, 4), dtype=np.int64)
            assert np.array_equal(
                direct.execute(operator, points, bank, bank=True),
                backend.execute(operator, points, bank, bank=True)), step
        assert table_cache_size() == 0

    def test_describe_backends_lists_compiled_details(self):
        from repro.core import describe_backends

        entries = {entry["name"]: entry for entry in describe_backends()}
        assert {"direct", "lut", "compiled"} <= set(entries)
        compiled = entries["compiled"]
        assert compiled["engine"] in {"numba", "vector"}
        assert isinstance(compiled["numba"], bool)
        assert "AAMMultiplier" in compiled["kernel_families"]
        assert isinstance(compiled["arena"], bool)


class TestApproxContext(object):
    def test_defaults_are_the_exact_baseline(self):
        context = ApproxContext()
        assert context.adder.name == "ADD(16)"
        assert context.multiplier.name == "MULt(16,16)"
        assert context.backend.name == "direct"
        assert context.data_width == 16 and context.frac_bits == 15

    def test_spec_strings_resolve(self):
        context = ApproxContext(adder="ADDt(16,10)", multiplier="AAM(16)",
                                backend="lut")
        assert context.adder.name == "ADDt(16,10)"
        assert context.multiplier.name == "AAM(16)"
        assert context.backend.name == "lut"

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

        context = ApproxContext(adder="ADDt(16,10)", backend="lut")
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

    def test_lut_study_records_are_bit_identical(self):
        direct = self._study("direct").run()
        lut = self._study("lut").run()
        assert direct.rows == lut.rows
        assert lut.metadata["backend"] == "lut"

    def test_compiled_study_records_are_bit_identical(self):
        direct = self._study("direct").run()
        compiled = self._study("compiled").run()
        assert direct.rows == compiled.rows
        assert compiled.metadata["backend"] == "compiled"

    def test_backend_instance_accepted(self):
        result = self._study(LutBackend(max_pair_width=8)).run()
        assert result.metadata["backend"] == "lut"

    def test_jpeg_workload_identical_across_backends(self):
        def run(backend):
            return (Study()
                    .workload("jpeg(size=32)")
                    .adders(["ADDt(16,10)", "ADDr(16,12)"])
                    .seed(3)
                    .backend(backend)
                    .run())

        assert run("direct").rows == run("lut").rows

    def test_kmeans_workload_identical_across_backends(self):
        def run(backend):
            return (Study()
                    .workload("kmeans(runs=1, points_per_run=300, iterations=2)")
                    .multipliers(["MULt(16,16)", "MULt(16,8)"])
                    .seed(5)
                    .backend(backend)
                    .run())

        assert run("direct").rows == run("lut").rows

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


class TestTableCacheLimit(object):
    """The LRU cap and introspection counters of the process-wide cache."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self, monkeypatch):
        from repro.core import set_table_cache_limit

        monkeypatch.delenv("REPRO_TABLE_CACHE_LIMIT", raising=False)
        clear_table_cache()
        yield
        clear_table_cache()
        set_table_cache_limit(None)  # restore the default cap

    @staticmethod
    def _open_value_table(backend, constant):
        """Two calls with a recurring constant earn one value table."""
        operator = parse_operator("MULt(16,16)")
        values = np.arange(1, 64, dtype=np.int64)
        backend.execute(operator, values, constant)
        backend.execute(operator, values, constant)

    def test_cache_stats_shape_and_reset(self):
        from repro.core import cache_stats

        stats = cache_stats()
        assert set(stats) == {"tables", "limit", "hits", "misses",
                              "evictions", "arena", "compiled"}
        assert stats["tables"] == 0
        assert stats["hits"] == stats["misses"] == stats["evictions"] == 0
        assert set(stats["arena"]) >= {"enabled", "builds", "attaches",
                                       "rehits", "open_segments",
                                       "registry_segments"}
        assert set(stats["compiled"]) >= {"numba", "engine",
                                          "kernel_families"}
        assert stats["compiled"]["engine"] in {"numba", "vector"}

    def test_hits_and_misses_are_counted(self):
        from repro.core import cache_stats

        backend = LutBackend(min_value_size=1)
        self._open_value_table(backend, 7)
        warm_before = cache_stats()
        backend.execute(parse_operator("MULt(16,16)"),
                        np.arange(1, 64, dtype=np.int64), 7)
        warm_after = cache_stats()
        assert warm_after["hits"] > warm_before["hits"]
        assert warm_after["misses"] == warm_before["misses"]
        assert warm_after["tables"] == 1

    def test_limit_is_enforced_with_evictions(self):
        from repro.core import cache_stats, set_table_cache_limit

        assert set_table_cache_limit(2) == 2
        backend = LutBackend(min_value_size=1)
        for constant in (11, 22, 33, 44):
            self._open_value_table(backend, constant)
        stats = cache_stats()
        assert stats["tables"] <= 2
        assert stats["evictions"] >= 2
        # Evicted tables are rebuilt transparently and stay bit-exact.
        operator = parse_operator("MULt(16,16)")
        values = np.arange(1, 64, dtype=np.int64)
        direct = DirectBackend().execute(operator, values, 11)
        assert np.array_equal(direct, backend.execute(operator, values, 11))

    def test_shrinking_the_limit_evicts_immediately(self):
        from repro.core import set_table_cache_limit

        set_table_cache_limit(8)
        backend = LutBackend(min_value_size=1)
        for constant in (1, 2, 3):
            self._open_value_table(backend, constant)
        assert table_cache_size() == 3
        set_table_cache_limit(1)
        assert table_cache_size() == 1

    def test_limit_validation_and_env_default(self, monkeypatch):
        from repro.core import set_table_cache_limit, table_cache_limit

        with pytest.raises(ValueError):
            set_table_cache_limit(0)
        monkeypatch.setenv("REPRO_TABLE_CACHE_LIMIT", "5")
        assert set_table_cache_limit(None) == 5
        assert table_cache_limit() == 5
        monkeypatch.delenv("REPRO_TABLE_CACHE_LIMIT")
        assert set_table_cache_limit(None) >= 5  # the built-in default
