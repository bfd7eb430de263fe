"""Trade-off verification: uncertainty relation, counting bound, corollaries.

The counting bound says that the number of messages Bob can cheaply
reconstruct in the Z basis plus the number Eve can cheaply reconstruct
in the X basis is capped by 2^n (1 + 2^((l+m-n+3)/2)).  It follows
from the Landau-Pollak uncertainty relation applied to the program
projectors, whose pairwise norms are controlled by the conjugate-basis
overlap 2^-n.  Everything here is checked numerically on one protocol
instance and reported per (l, m) grid point.
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .channels import kron_power
from .complexity import (
    ComplexityProfile,
    DecoderCatalogue,
    build_catalogue,
    program_projector,
    proxy_complexity,
)
from .distinguishability import distinguishable_partition
from .errors import DimensionError, ValidationError
from .operators import PROBABILITY_TOL, VERDICT_TOL, as_matrix, operator_norm
from .protocol import FAMILY_BASIS, ProtocolInstance, basis_table, theta_matrix


class LPCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def _lp_tables(
    projectors: Sequence[np.ndarray], rho: np.ndarray
) -> tuple[list[float], dict[tuple[int, int], float]]:
    """Each member's trace tr(rho A_i) and each ordered pair's norm ||A_i A_j||, i != j.

    Every matrix is checked (finite, one shared dimension) once here, so
    a caller that sums many subfamilies pays for each entry once.
    """
    mats = [as_matrix(p) for p in projectors]
    rho_mat = as_matrix(rho)
    dim = rho_mat.shape[0]
    if any(m.shape != (dim, dim) for m in mats):
        raise DimensionError("projectors and state must share one dimension")
    traces = [float((rho_mat @ m).trace().real) for m in mats]
    norms = {
        (i, j): operator_norm(a @ b)
        for (i, a), (j, b) in product(enumerate(mats), repeat=2)
        if i != j
    }
    return traces, norms


def _lp_sum(
    traces: Sequence[float], norms: dict[tuple[int, int], float], members: Sequence[int]
) -> LPCheck:
    """The Landau-Pollak relation for the subfamily ``members`` (in order) of tabulated entries."""
    lhs = sum(traces[i] for i in members)
    cross = 0.0
    for i in members:
        for j in members:
            if i != j:
                cross += norms[i, j] ** 2
    rhs = 1.0 + math.sqrt(cross)
    return LPCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + VERDICT_TOL)


def landau_pollak_check(projectors: Sequence[np.ndarray], rho: np.ndarray) -> LPCheck:
    """Evaluate sum_i tr(rho A_i) <= 1 + sqrt(sum_{i!=j} ||A_i A_j||^2)."""
    traces, norms = _lp_tables(projectors, rho)
    return _lp_sum(traces, norms, range(len(traces)))


def tradeoff_bound(l: int, m: int, n: int) -> float:
    """Counting bound 2^n (1 + 2^((l+m-n+3)/2))."""
    if l < 0 or m < 0:
        raise ValidationError("l and m must be nonnegative")
    return 2.0**n * (1.0 + 2.0 ** ((l + m - n + 3) / 2.0))


# A report record is a NamedTuple whose fields are its keys in the CLI's
# JSON report, and the function that builds it stores its verdict once.
class GridPoint(NamedTuple):
    l: int
    m: int
    count_b: int
    count_e: int
    bound: float
    holds: bool


class LPRecord(NamedTuple):
    l: int
    m: int
    lhs: float
    rhs: float
    holds: bool


class CrossNormRecord(NamedTuple):
    entry_b: int
    entry_e: int
    norm: float
    limit: float
    holds: bool


class CorollaryCheck(NamedTuple):
    max_b: int
    max_e: int
    sum: int
    threshold: int
    holds: bool


class ShannonCheck(NamedTuple):
    i_bz: float
    i_ex: float
    sum: float
    limit: float
    holds: bool


class AverageCheck(NamedTuple):
    """Average proxy complexity sum, reported against n (not asserted)."""

    avg_sum: float
    reference: float


class TradeoffReport(NamedTuple):
    n: int
    profile_b: ComplexityProfile
    profile_e: ComplexityProfile
    grid: tuple[GridPoint, ...]
    lp_records: tuple[LPRecord, ...]
    cross_norms: tuple[CrossNormRecord, ...]
    corollary1: CorollaryCheck
    shannon: ShannonCheck
    average: AverageCheck

    @property
    def all_hold(self) -> bool:
        return (
            all(g.holds for g in self.grid)
            and all(r.holds for r in self.lp_records)
            and all(r.holds for r in self.cross_norms)
            and self.corollary1.holds
            and self.shannon.holds
        )


def outcome_distribution(states: np.ndarray, dims: tuple[int, ...], measured: str) -> np.ndarray:
    """Joint table P(msg, k) = <k|rho_msg|k> / #messages for uniform messages.

    The outcomes |k> are the rows of ``basis_table(measured, n)`` for the
    states' register, whose subsystem ``dims`` must all be qubits.  One
    product rho @ basis^T gives every rho|k>, and a row-wise
    contraction with <k| reads the diagonal.
    """
    if set(dims) != {2}:
        raise DimensionError(f"a basis read needs a qubit register, got dims {dims}")
    n = len(dims)
    basis = basis_table(measured, n)
    images = states @ basis.T
    table = np.einsum("ka,mak->mk", basis.conj(), images)
    return table.real / len(states)


def mutual_information(joint: np.ndarray) -> float:
    """Shannon mutual information (bits) of a joint probability table."""
    p = np.asarray(joint, dtype=np.float64)
    if p.ndim != 2:
        raise DimensionError("joint table must be 2-D")
    if p.min() < -PROBABILITY_TOL:
        raise ValidationError(f"negative probability {p.min():.3e}")
    if abs(p.sum() - 1.0) > PROBABILITY_TOL:
        raise ValidationError(f"table sums to {p.sum()!r}, not 1")
    p = np.clip(p, 0.0, None)
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    outer = np.outer(pa, pb)
    mask = p > 0.0
    val = float(np.sum(p[mask] * np.log2(p[mask] / outer[mask])))
    # rounding on independent tables can leave a ~1e-16 negative residue
    return 0.0 if -PROBABILITY_TOL < val < 0.0 else val


def shannon_tradeoff_check(inst: ProtocolInstance, eve_basis: str) -> ShannonCheck:
    """I(msg : Bob | Z) + I(msg : Eve | X) <= n, with Bob read in Z and Eve in ``eve_basis``.

    Messages, receiver states and outcomes of the product are Kronecker
    products of the factor's, first factor slowest, so each side's joint
    table is the Kronecker power of its factor's table, whose 1/#messages
    weights multiply to 2^-n.  No N-qubit state is read.
    """
    factor, copies = inst.channel.factor, inst.channel.n

    def information(side: str, measured: str) -> float:
        dims = factor.out_dims_b if side == "B" else factor.out_dims_e
        table = outcome_distribution(inst.factor_family(side), dims, measured)
        return mutual_information(kron_power(table, copies))

    i_bz, i_ex = information("B", FAMILY_BASIS["B"]), information("E", eve_basis)
    total, limit = i_bz + i_ex, float(inst.n)
    return ShannonCheck(i_bz, i_ex, total, limit, total <= limit + VERDICT_TOL)


def corollary_threshold(n: int) -> int:
    """Least max-complexity sum the corollary allows: n - 3."""
    return n - 3


def max_complexity_corollary(
    profile_b: ComplexityProfile, profile_e: ComplexityProfile
) -> CorollaryCheck:
    """max_z len_B(z) + max_x len_E(x) >= n - 3, with n from the profiles."""
    max_b, max_e = profile_b.max_length(), profile_e.max_length()
    threshold = corollary_threshold(profile_b.n)
    return CorollaryCheck(max_b, max_e, max_b + max_e, threshold, max_b + max_e >= threshold)


def average_complexity_check(
    profile_b: ComplexityProfile, profile_e: ComplexityProfile
) -> AverageCheck:
    return AverageCheck(
        avg_sum=profile_b.average() + profile_e.average(),
        reference=float(profile_b.n),
    )


def catalogues_for(inst: ProtocolInstance) -> tuple[DecoderCatalogue, DecoderCatalogue]:
    """Bob/Z and Eve/X decoder catalogues for one protocol instance.

    Within the dense limit the N-qubit states are partitioned, so each
    class carries the PVM the dense records need; above it the factor
    marginals decide every pair, over the instance's copies.
    """
    cat_b, cat_e = (
        build_catalogue(
            distinguishable_partition(inst.family(side))
            if inst.dense
            else distinguishable_partition(inst.factor_family(side), copies=inst.channel.n),
            inst.n,
            side,
        )
        for side in FAMILY_BASIS
    )
    return cat_b, cat_e


def verify_tradeoff(inst: ProtocolInstance, eve_basis: str) -> TradeoffReport:
    """Full verification sweep for one attack at one n.

    Populates the (l, m) counting grid over [0, n+1]^2, the dense
    Landau-Pollak and cross-norm records when the instance is ``dense``,
    the one corollary check (max lengths), the Shannon cross-check, which
    reads Eve's side in ``eve_basis``, and the ``average`` block, which is
    reported but is no verdict.
    """
    n = inst.n
    cat_b, cat_e = catalogues_for(inst)
    prof_b = proxy_complexity(cat_b)
    prof_e = proxy_complexity(cat_e)
    grid = []
    for l, m in product(range(n + 2), repeat=2):
        count_b, count_e = prof_b.count(l), prof_e.count(m)
        bound = tradeoff_bound(l, m, n)
        holds = count_b + count_e <= bound + VERDICT_TOL
        grid.append(GridPoint(l, m, count_b, count_e, bound, holds))
    lp_records: list[LPRecord] = []
    cross_norms: list[CrossNormRecord] = []
    if inst.dense:
        # One table of traces and pairwise norms over Bob's entries, then
        # Eve's, serves every cross-norm record and every grid point.
        theta = theta_matrix(inst)
        db, de = inst.channel.dim_b, inst.channel.dim_e
        projectors = [
            program_projector(cat, i, db, de).dense()
            for cat in (cat_b, cat_e)
            for i in range(len(cat.lengths))
        ]
        traces, norms = _lp_tables(projectors, theta)
        weights = cat_b.lengths + cat_e.lengths
        nb = len(cat_b.lengths)
        side_b, side_e = range(nb), range(nb, len(weights))
        limit = 2.0 ** (-n / 2.0)
        for i, j in product(side_b, side_e):
            norm = norms[i, j]
            cross_norms.append(CrossNormRecord(i, j - nb, norm, limit, norm <= limit + VERDICT_TOL))
        for l, m in product(range(n + 2), repeat=2):
            family = [i for i in side_b if weights[i] <= l] + [j for j in side_e if weights[j] <= m]
            lp_records.append(LPRecord(l, m, *_lp_sum(traces, norms, family)))
    shannon = shannon_tradeoff_check(inst, eve_basis)
    return TradeoffReport(
        n=n,
        profile_b=prof_b,
        profile_e=prof_e,
        grid=tuple(grid),
        lp_records=tuple(lp_records),
        cross_norms=tuple(cross_norms),
        corollary1=max_complexity_corollary(prof_b, prof_e),
        shannon=shannon,
        average=average_complexity_check(prof_b, prof_e),
    )

