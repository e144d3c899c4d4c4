"""Bit-serial reference models of the functionally approximate operators.

The operators in ``repro.operators`` evaluate closed forms: a handful of
whole-word shift/mask passes per call.  The models here are the structural
descriptions those closed forms were derived from — one window sum per ACA
output bit, one truth-table cell per RCAApx bit, one speculated carry per ETA
block, one AND cell per AAM partial product, one windowed bit per ABM
conversion output.  They are slow and obviously faithful to each operator's
definition, which makes them the oracle the differential tests compare the
production models against.

Operators without an entry (the exact and data-sized operators, BOOTH) are
already written as their definition; :func:`oracle_compute` returns their
own ``compute``.

:func:`limited_carry_add` is the bit-serial oracle of ``bitops.windowed_sum``
on its own, and :func:`seed_bit_error_metrics` the bit-matrix form of the
BER metrics that ``bit_error_metrics`` computes from per-position counts.

The ``seed_*`` functions play the same role one level up, for the
application kernels.  The apps run *stage-fused*: one batched context call
per FFT stage, DCT dot-product step, HEVC tap group or K-means dimension.
The seed functions are the per-constant loops those kernels were fused
from: one round of scalar-coefficient context calls per twiddle offset,
matrix entry, filter tap or centroid.  The fused kernels must match them
bit for bit, operation counts included.  :func:`seed_fft_workload_run` is
the FFT workload as it ran before candidates were stacked: one forward per
frame and per candidate.  :func:`seed_kmeans_workload_run` is the K-means
workload as it ran before points shared their exact reference fits.

:func:`seed_netlist_evaluate` and :func:`seed_monte_carlo_estimate` do the
same for the hardware layer: the per-gate simulator (one NumPy op per gate
on a samples x wires int8 matrix, toggles from ``|diff|`` down each column)
that the bit-parallel ``Netlist.evaluate`` and
``MonteCarloPowerEstimator.estimate`` replaced.  Output codes and power
breakdowns must match exactly.

:func:`pairwise_non_dominated_sort` is the search ranking's oracle: the
classic fast non-dominated sort, one ``dominates`` call per candidate
pair, that the broadcast dominance matrix of
``search.rank.non_dominated_sort`` replaced.  Fronts must match exactly.
"""
import numpy as np

from repro.apps.fft import FftResult, FixedPointFFT, random_q15_signal
from repro.core.context import ApproxContext
from repro.core.datapath import OperationCounts
from repro.apps.hevc_mc import FILTER_SHIFT, LUMA_FILTERS, McFilterResult
from repro.apps.kmeans import FixedPointKMeans, PointCloud, generate_point_cloud
from repro.fxp.quantize import restore_lsbs, wrap_to_width
from repro.hardware import GateKind, PowerBreakdown
from repro.hardware.power import _DFF_CLOCK_FRACTION, _DFF_DATA_ACTIVITY
from repro.metrics.clustering import success_rate
from repro.metrics.signal import psnr_db
from repro.operators import (
    AAMMultiplier,
    ABMMultiplier,
    ACAAdder,
    RCAApxAdder,
)
from repro.operators.adders.etaiv import _BlockCarrySpeculationAdder
from repro.operators.bitops import (bit_matrix, get_bit, mask, to_signed,
                                    to_unsigned)
from repro.operators.multipliers.booth import booth_partial_products
from repro.search.rank import dominates
from repro.workloads.base import WorkloadResult


def aca_compute(op, a, b):
    """Each output bit ``i`` is bit ``i - low`` of its own window sum."""
    n, p = op.input_width, op.prediction_bits
    ua, ub = to_unsigned(a, n), to_unsigned(b, n)
    result = np.zeros_like(ua)
    for i in range(n):
        low = max(0, i - p)
        wa = (ua >> low) & mask(i - low + 1)
        wb = (ub >> low) & mask(i - low + 1)
        result |= (((wa + wb) >> (i - low)) & 1) << i
    return to_signed(result, n)


def rcaapx_compute(op, a, b):
    """Ripple through the approximate cells' truth tables, then exact FAs."""
    n = op.input_width
    cell = op.approximate_cell
    ua, ub = to_unsigned(a, n), to_unsigned(b, n)
    result = np.zeros_like(ua)
    carry = np.zeros_like(ua)
    for i in range(n):
        bit_a, bit_b = get_bit(ua, i), get_bit(ub, i)
        if i < op.approximate_bits:
            s, carry = cell.evaluate(bit_a, bit_b, carry)
        else:
            total = bit_a + bit_b + carry
            s, carry = total & 1, total >> 1
        result |= s << i
    return to_signed(result, n)


def eta_compute(op, a, b):
    """Each masked block adds the carry out of its masked speculation window."""
    n, x = op.input_width, op.block_size
    ua, ub = to_unsigned(a, n), to_unsigned(b, n)
    result = np.zeros_like(ua)
    for k in range(op.block_count):
        carry_in = np.zeros_like(ua)
        if k:
            first = max(0, k - op.speculation_blocks)
            width = (k - first) * x
            wa = (ua >> (first * x)) & mask(width)
            wb = (ub >> (first * x)) & mask(width)
            carry_in = ((wa + wb) >> width) & 1
        block_sum = ((ua >> (k * x)) & mask(x)) + ((ub >> (k * x)) & mask(x)) \
            + carry_in
        result |= (block_sum & mask(x)) << (k * x)
    return to_signed(result, n)


def aam_compute(op, a, b):
    """Remove every cell of columns ``i + j <= N - 1`` one AND at a time,
    then add ``ceil(count / 2)`` for the asserted diagonal cells."""
    n = op.input_width
    ua, ub = to_unsigned(a, n), to_unsigned(b, n)
    dropped = np.zeros_like(ua)
    for i in range(n):
        for j in range(n - i):
            # Baugh-Wooley: cross terms with exactly one sign bit are negative.
            sign = -1 if (i == n - 1) ^ (j == n - 1) else 1
            cell = get_bit(ua, i) & get_bit(ub, j)
            dropped = dropped + cell * (sign * (1 << (i + j)))
    kept = op.reference(a, b) - dropped
    if op.compensation:
        diagonal = np.zeros_like(ua)
        for i in range(n):
            diagonal = diagonal + (get_bit(ua, i) & get_bit(ub, n - 1 - i))
        kept = kept + (((diagonal + 1) >> 1) << n)
    return np.asarray(wrap_to_width(kept >> n, n), dtype=np.int64)


def limited_carry_add(x, y, width, window):
    """Conversion add whose bit ``i`` sums only bits ``i - window .. i``.

    The bit-serial oracle of ``bitops.windowed_sum`` (``window=None`` is the
    full add)."""
    if window is None:
        return (x + y) & mask(width)
    ux, uy = to_unsigned(x, width), to_unsigned(y, width)
    result = np.zeros_like(ux)
    for i in range(width):
        low = max(0, i - window)
        wa = (ux >> low) & mask(i - low + 1)
        wb = (uy >> low) & mask(i - low + 1)
        result |= (((wa + wb) >> (i - low)) & 1) << i
    return result


def abm_compute(op, a, b):
    """Prune the Booth rows, compensate, and convert bit by bit."""
    n = op.input_width
    rows = booth_partial_products(a, b, n)
    kept_rows = [row >> n for row in rows]
    comp_bits = np.zeros_like(np.asarray(a, dtype=np.int64))
    for row in rows:
        comp_bits = comp_bits + ((row >> (n - 1)) & 1)
    partial = kept_rows[0]
    for row in kept_rows[1:-1]:
        partial = partial + row
    last = kept_rows[-1] if len(kept_rows) > 1 else np.zeros_like(partial)
    if op.compensation:
        partial = partial + ((comp_bits + 1) >> 1)
    combined = limited_carry_add(partial, last, n, op.carry_window)
    return np.asarray(wrap_to_width(combined, n), dtype=np.int64)


_ORACLES = (
    (ACAAdder, aca_compute),
    (RCAApxAdder, rcaapx_compute),
    (_BlockCarrySpeculationAdder, eta_compute),
    (AAMMultiplier, aam_compute),
    (ABMMultiplier, abm_compute),
)

#: Operator classes whose production model has a bit-serial oracle here.
ORACLE_FAMILIES = tuple(klass for klass, _ in _ORACLES)


def oracle_compute(op, a, b):
    """Bit-serial ``compute`` of ``op`` over the broadcast of ``a`` and ``b``."""
    # The cell-wise models allocate their result from one operand's shape.
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                               np.asarray(b, dtype=np.int64))
    for klass, model in _ORACLES:
        if isinstance(op, klass):
            return np.asarray(model(op, a, b), dtype=np.int64)
    return np.asarray(op.compute(a, b), dtype=np.int64)


def oracle_aligned(op, a, b):
    """Oracle counterpart of :meth:`Operator.aligned`."""
    out = oracle_compute(op, a, b)
    return np.asarray(restore_lsbs(out, op.output_shift), dtype=np.int64)


def seed_bit_error_metrics(reference, approximate, width):
    """BER and positional BER as the means of the ``samples x width`` bit
    matrix of the XOR diff: the form ``metrics.error.bit_error_metrics``
    replaced with per-position counts."""
    diff = to_unsigned(reference, width) ^ to_unsigned(approximate, width)
    bits = bit_matrix(diff, width)
    return float(np.mean(bits)), np.asarray(np.mean(bits, axis=0),
                                            dtype=np.float64)


# ---------------------------------------------------------------------- #
# Seed-style application kernels
# ---------------------------------------------------------------------- #
def seed_fft_forward(fft, ctx, real):
    """``fft.forward(real)`` through ``ctx``, one twiddle offset at a time.

    ``ctx`` is one context or a per-stage list of them; the counts sum over
    the distinct contexts.
    """
    stage_contexts = ctx if isinstance(ctx, (list, tuple)) \
        else [ctx] * fft.stages
    distinct = {id(c): c for c in stage_contexts}.values()
    start = [(c, c.counts) for c in distinct]
    x_re = np.asarray(real, dtype=np.int64)[
        fft._bit_reverse_permutation(fft.size)]
    x_im = np.zeros_like(x_re)
    tw_re, tw_im = fft._twiddles

    def product(c, a, twiddle):
        return c.wrap(c.mul(a, twiddle) >> fft.frac_bits)

    half = 1
    for c in stage_contexts:
        step = fft.size // (2 * half)
        for offset in range(half):
            tops = np.arange(offset, fft.size, 2 * half, dtype=np.int64)
            bottoms = tops + half
            w_re, w_im = int(tw_re[offset * step]), int(tw_im[offset * step])
            a_re, a_im = fft._halve(x_re[tops]), fft._halve(x_im[tops])
            b_re, b_im = fft._halve(x_re[bottoms]), fft._halve(x_im[bottoms])
            prod_re = c.sub(product(c, b_re, w_re), product(c, b_im, w_im))
            prod_im = c.add(product(c, b_re, w_im), product(c, b_im, w_re))
            x_re[tops] = c.add(a_re, prod_re)
            x_im[tops] = c.add(a_im, prod_im)
            x_re[bottoms] = c.sub(a_re, prod_re)
            x_im[bottoms] = c.sub(a_im, prod_im)
        half *= 2
    counts = OperationCounts()
    for c, snapshot in start:
        counts = counts + c.counts_since(snapshot)
    return FftResult(real=x_re, imag=x_im, counts=counts)


def seed_fft_workload_run(operators, config):
    """``FftWorkload.run`` one frame and one candidate at a time.

    The evaluation the stacked ``run_many`` replaced: per frame, one
    :func:`seed_fft_forward` through the point's datapath (per-stage
    contexts for a ``stage_adders`` genome), then the output PSNR over
    every frame's real and imaginary parts.
    """
    size, width = int(config["size"]), int(config["data_width"])
    seed = int(config.get("seed", 0))
    fft = FixedPointFFT(size, width)
    stage_adders = config.get("stage_adders")
    if stage_adders:
        datapath = [ApproxContext(adder=str(name), data_width=width,
                                  backend=operators.backend)
                    for name in stage_adders]
    else:
        datapath = operators.context(data_width=width)
    references, outputs = [], []
    for frame in range(int(config["frames"])):
        signal = random_q15_signal(size, amplitude=float(config["amplitude"]),
                                   seed=seed + frame, frac_bits=width - 1)
        spectrum = seed_fft_forward(fft, datapath, signal).as_complex(
            frac_bits=fft.frac_bits)
        reference = fft.reference_spectrum(signal)
        references.append(np.concatenate([reference.real, reference.imag]))
        outputs.append(np.concatenate([spectrum.real, spectrum.imag]))
    details = {}
    if stage_adders:
        details = {"stage_adders": [str(name) for name in stage_adders],
                   "stage_counts": [[c.additions, c.multiplications]
                                    for c in fft.stage_operation_counts()]}
    return WorkloadResult(
        metrics={"psnr_db": psnr_db(np.concatenate(references),
                                    np.concatenate(outputs))},
        counts=fft.operation_counts(), details=details)


def seed_dct_matmul(dct, ctx, data):
    """``dct._coeffs @ data`` per block, one matrix entry at a time."""
    blocks, n, columns = data.shape
    result = np.zeros_like(data)
    for r in range(n):
        accumulator = np.zeros((blocks, columns), dtype=np.int64)
        for k in range(n):
            product = ctx.mul(data[:, k, :], int(dct._coeffs[r, k]))
            term = ctx.wrap(product >> dct.coeff_frac_bits)
            accumulator = ctx.add(accumulator, term)
        result[:, r, :] = accumulator
    return result


def seed_dct_forward(dct, ctx, blocks):
    """``dct.forward(blocks)`` for a ``(count, 8, 8)`` batch through ``ctx``."""
    codes = np.asarray(blocks, dtype=np.int64) << dct.pixel_frac_bits
    temp = seed_dct_matmul(dct, ctx, codes)
    return np.transpose(
        seed_dct_matmul(dct, ctx, np.transpose(temp, (0, 2, 1))), (0, 2, 1))


def seed_hevc_filter_axis(mc, ctx, image, taps, axis):
    """One 1-D filter along ``axis``, one multiply-accumulate per tap."""
    radius_before = len(taps) // 2 - 1
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius_before, len(taps) - 1 - radius_before)
    padded = np.pad(image, pad, mode="edge").astype(np.int64)
    rows, columns = image.shape
    accumulator = np.zeros(image.shape, dtype=np.int64)
    for index, coefficient in enumerate(taps):
        if coefficient == 0:
            continue
        window = padded[index:index + rows, :] if axis == 0 \
            else padded[:, index:index + columns]
        product = ctx.mul(window << mc._pixel_shift,
                          int(coefficient) << mc._coeff_shift)
        term = ctx.wrap(product >> (mc._pixel_shift + mc._coeff_shift))
        accumulator = ctx.add(accumulator, term)
    return accumulator >> FILTER_SHIFT


def seed_hevc_interpolate(mc, ctx, image, horizontal_phase, vertical_phase):
    """``mc.interpolate(...)`` through ``ctx`` with the per-tap filter."""
    start = ctx.counts
    result = np.asarray(image, dtype=np.int64) >> mc._input_shift
    if horizontal_phase != 0:
        result = seed_hevc_filter_axis(mc, ctx, result,
                                       LUMA_FILTERS[horizontal_phase], axis=1)
    if vertical_phase != 0:
        result = seed_hevc_filter_axis(mc, ctx, result,
                                       LUMA_FILTERS[vertical_phase], axis=0)
    return McFilterResult(
        interpolated=np.clip(result << mc._input_shift, 0, 255),
        counts=ctx.counts_since(start))


def seed_kmeans_assign(kmeans, ctx, points, centers):
    """Nearest-centroid labels, one squared distance per centroid."""
    distances = np.zeros((points.shape[0], centers.shape[0]), dtype=np.int64)
    for index, center in enumerate(centers):
        total = np.zeros(points.shape[0], dtype=np.int64)
        for dim in range(points.shape[1]):
            delta = ctx.sub(points[:, dim], int(center[dim]))
            square = ctx.mul(delta, delta)
            term = ctx.wrap(square >> (kmeans.frac_bits + 1))
            total = ctx.add(total, term)
        distances[:, index] = total
    return np.argmin(distances, axis=1).astype(np.int64)


def seed_kmeans_fit(kmeans, ctx, points, initial_centers):
    """``kmeans.fit(...)`` through ``ctx`` with the per-centroid distances."""
    start = ctx.counts
    centers = np.asarray(initial_centers, dtype=np.int64).copy()
    labels = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(kmeans.iterations):
        labels = seed_kmeans_assign(kmeans, ctx, points, centers)
        for index in range(kmeans.clusters):
            members = points[labels == index]
            if members.shape[0] > 0:
                centers[index] = np.round(members.mean(axis=0)).astype(np.int64)
    return labels, centers, ctx.counts_since(start)


def seed_kmeans_workload_run(operators, config):
    """``KmeansWorkload.run`` one point at a time, with its own references.

    The evaluation before points shared their exact runs: per cloud, the
    exact fit and the candidate fit (both :func:`seed_kmeans_fit`, from the
    generating centres), then the success rate.  The counts are the last
    cloud's candidate fit, as the workload reports them.
    """
    width = int(config["data_width"])
    clouds = config.get("clouds")
    if clouds is None:
        seed = int(config.get("seed", 0))
        clouds = [generate_point_cloud(int(config["points_per_run"]),
                                       int(config["clusters"]),
                                       seed=seed + run, frac_bits=width - 1)
                  for run in range(int(config["runs"]))]
    else:
        # Requantise the Q1.15 clouds onto the datapath grid.
        def shifted(codes):
            return codes >> (16 - width) if width <= 16 \
                else codes << (width - 16)

        clouds = [PointCloud(points=shifted(cloud.points), labels=cloud.labels,
                             centers=shifted(cloud.centers))
                  for cloud in clouds]
    rates = []
    for cloud in clouds:
        clusters = cloud.centers.shape[0]
        kmeans = FixedPointKMeans(clusters=clusters, data_width=width,
                                  iterations=int(config["iterations"]))
        exact = ApproxContext(data_width=width, backend=operators.backend)
        reference, _, _ = seed_kmeans_fit(kmeans, exact, cloud.points,
                                          cloud.centers)
        labels, _, counts = seed_kmeans_fit(
            kmeans, operators.context(data_width=width), cloud.points,
            cloud.centers)
        rates.append(success_rate(reference, labels, clusters=clusters))
    return WorkloadResult(
        metrics={"success_rate": float(np.mean(rates))}, counts=counts,
        details={"runs": len(clouds),
                 "points_per_run": int(cloud.points.shape[0])})


# ---------------------------------------------------------------------- #
# Per-gate netlist simulator
# ---------------------------------------------------------------------- #
_PSEUDO = (GateKind.INPUT, GateKind.CONST0, GateKind.CONST1)


def seed_netlist_evaluate(netlist, inputs, return_wires=False):
    """``netlist.evaluate(inputs)`` with one NumPy column op per gate.

    Wire values live in a (samples x wires) int8 matrix; with
    ``return_wires`` the matrix is returned alongside the output codes.
    """
    sizes = {np.asarray(v).size for v in inputs.values()}
    if len(sizes) != 1:
        raise ValueError("all input ports must have the same number of samples")
    samples = sizes.pop()

    values = np.zeros((samples, netlist._wire_count), dtype=np.int8)
    for port, wires in netlist.input_ports.items():
        if port not in inputs:
            raise ValueError(f"missing stimulus for input port {port!r}")
        codes = np.asarray(inputs[port], dtype=np.int64)
        for bit, wire in enumerate(wires):
            values[:, wire] = (codes >> bit) & 1

    for gate in netlist.gates:
        kind, ins, out = gate.kind, gate.inputs, gate.output
        if kind is GateKind.INPUT:
            continue
        if kind is GateKind.CONST0:
            values[:, out] = 0
        elif kind is GateKind.CONST1:
            values[:, out] = 1
        elif kind is GateKind.BUF:
            values[:, out] = values[:, ins[0]]
        elif kind is GateKind.NOT:
            values[:, out] = 1 - values[:, ins[0]]
        elif kind is GateKind.AND2:
            values[:, out] = values[:, ins[0]] & values[:, ins[1]]
        elif kind is GateKind.OR2:
            values[:, out] = values[:, ins[0]] | values[:, ins[1]]
        elif kind is GateKind.NAND2:
            values[:, out] = 1 - (values[:, ins[0]] & values[:, ins[1]])
        elif kind is GateKind.NOR2:
            values[:, out] = 1 - (values[:, ins[0]] | values[:, ins[1]])
        elif kind is GateKind.XOR2:
            values[:, out] = values[:, ins[0]] ^ values[:, ins[1]]
        elif kind is GateKind.XNOR2:
            values[:, out] = 1 - (values[:, ins[0]] ^ values[:, ins[1]])
        elif kind is GateKind.MUX2:
            sel = values[:, ins[0]]
            values[:, out] = np.where(sel == 1, values[:, ins[2]], values[:, ins[1]])
        elif kind is GateKind.MAJ3:
            total = (values[:, ins[0]].astype(np.int16)
                     + values[:, ins[1]] + values[:, ins[2]])
            values[:, out] = (total >= 2).astype(np.int8)
        elif kind is GateKind.AOI21:
            a, b, c = ins
            values[:, out] = 1 - ((values[:, a] & values[:, b]) | values[:, c])
        else:
            raise ValueError(f"unsupported gate kind {kind}")

    outputs = {}
    for port, wires in netlist.output_ports.items():
        codes = np.zeros(samples, dtype=np.int64)
        for bit, wire in enumerate(wires):
            codes |= values[:, wire].astype(np.int64) << bit
        outputs[port] = codes
    if return_wires:
        return outputs, values
    return outputs


def _seed_input_skews(netlist):
    """Logic-depth spread between each gate's latest and earliest input."""
    depths = np.zeros(netlist._wire_count, dtype=np.int64)
    for gate in netlist.gates:
        if gate.kind in _PSEUDO:
            continue
        depths[gate.output] = max((depths[w] for w in gate.inputs), default=0) + 1
    skews = np.zeros(len(depths), dtype=np.float64)
    for gate in netlist.gates:
        if gate.kind in _PSEUDO or not gate.inputs:
            continue
        input_depths = [depths[w] for w in gate.inputs]
        skews[gate.output] = float(max(input_depths) - min(input_depths))
    return skews


def seed_monte_carlo_estimate(estimator, netlist, stimulus=None):
    """``estimator.estimate(netlist, stimulus)`` from the int8 wire matrix:
    toggles are ``|diff|`` down each column, energies a per-gate loop."""
    if stimulus is None:
        stimulus = estimator._random_stimulus(netlist)
    _, wire_values = seed_netlist_evaluate(netlist, stimulus, return_wires=True)
    toggles = np.abs(np.diff(wire_values.astype(np.int8), axis=0)).sum(axis=0)
    cycles = wire_values.shape[0] - 1
    activity = toggles.astype(np.float64) / max(cycles, 1)

    skews = _seed_input_skews(netlist)
    tech = netlist.technology

    dynamic_fj_per_cycle = 0.0
    for gate in netlist.gates:
        if gate.kind in _PSEUDO:
            continue
        glitch = 1.0 + estimator.glitch_factor * skews[gate.output]
        dynamic_fj_per_cycle += (activity[gate.output] * glitch
                                 * tech.switch_energy(gate.kind))

    register_fj_per_cycle = netlist.register_bits * tech.switch_energy(GateKind.DFF) \
        * (_DFF_CLOCK_FRACTION + _DFF_DATA_ACTIVITY * 0.5)
    leakage_nw = 0.0
    for gate in netlist.gates:
        leakage_nw += tech.leakage(gate.kind)
    leakage_nw += netlist.register_bits * tech.leakage(GateKind.DFF)

    frequency = estimator.frequency_hz
    return PowerBreakdown(dynamic_mw=dynamic_fj_per_cycle * 1e-15 * frequency * 1e3,
                          leakage_mw=leakage_nw * 1e-6,
                          register_mw=register_fj_per_cycle * 1e-15 * frequency * 1e3)


# ---------------------------------------------------------------------- #
# Pairwise non-dominated sort
# ---------------------------------------------------------------------- #
def pairwise_non_dominated_sort(objectives):
    """Fronts of ``objectives`` from one ``dominates`` test per pair."""
    count = len(objectives)
    dominated_by = [[] for _ in range(count)]
    domination_count = [0] * count
    for i in range(count):
        for j in range(i + 1, count):
            if dominates(objectives[i], objectives[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(objectives[j], objectives[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts = []
    current = [i for i in range(count) if domination_count[i] == 0]
    while current:
        fronts.append(sorted(current))
        upcoming = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    upcoming.append(j)
        current = upcoming
    return fronts
