"""Trade-off verification: uncertainty relation, counting bound, corollaries.

The counting bound says that the number of messages Bob can cheaply
reconstruct in the Z basis plus the number Eve can cheaply reconstruct
in the X basis is capped by 2^n (1 + 2^((l+m-n+3)/2)).  It follows
from the Landau-Pollak uncertainty relation applied to the program
projectors, whose pairwise norms are controlled by the conjugate-basis
overlap 2^-n.  Everything here is checked numerically on the attack
library and reported per (l, m) grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from .attacks import AttackSpec, natural_bases, product_attack, standard_attacks
from .complexity import (
    ComplexityProfile,
    DecoderCatalogue,
    build_catalogue,
    program_projector,
    proxy_complexity,
)
from .distinguishability import distinguishable_partition
from .errors import DimensionError, ValidationError
from .operators import (
    DECISION_TOL,
    PROBABILITY_TOL,
    VERDICT_TOL,
    DensityOperator,
    as_matrix,
    ket_bra,
    operator_norm,
)
from .protocol import DENSE_THETA_LIMIT, FAMILY_BASIS, ProtocolInstance, encode, theta_matrix


@dataclass(frozen=True)
class LPCheck:
    lhs: float
    rhs: float
    holds: bool


def landau_pollak_check(projectors: Sequence[np.ndarray], rho: np.ndarray) -> LPCheck:
    """Evaluate sum_i tr(rho A_i) <= 1 + sqrt(sum_{i!=j} ||A_i A_j||^2)."""
    mats = [as_matrix(p) for p in projectors]
    rho_mat = as_matrix(rho)
    dim = rho_mat.shape[0]
    if any(m.shape != (dim, dim) for m in mats):
        raise DimensionError("projectors and state must share one dimension")
    lhs = sum(float(np.trace(rho_mat @ m).real) for m in mats)
    cross = 0.0
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            if i != j:
                cross += operator_norm(a @ b) ** 2
    rhs = 1.0 + math.sqrt(cross)
    return LPCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + VERDICT_TOL)


def conjugate_overlap_norm(x: int, z: int, n: int) -> float:
    """Operator norm of X_x Z_z X_x, computed densely; equals 2^-n."""
    xx = ket_bra(encode(x, "X", n))
    zz = ket_bra(encode(z, "Z", n))
    return operator_norm(xx @ zz @ xx)


def cross_norm_bound(p, q) -> float:
    """Dense ||P_t Q_s|| for two structured projectors on the same space."""
    pd = p.dense()
    qd = q.dense()
    if pd.shape != qd.shape:
        raise DimensionError("projectors live on different total spaces")
    return operator_norm(pd @ qd)


def tradeoff_bound(l: int, m: int, n: int, c_offset: int = 0) -> float:
    """Counting bound 2^n (1 + 2^((l+m-n+3)/2 + c))."""
    if l < 0 or m < 0:
        raise ValidationError("l and m must be nonnegative")
    return 2.0**n * (1.0 + 2.0 ** ((l + m - n + 3) / 2.0 + c_offset))


def theorem_form_bound(l: int, m: int, n: int, c: int = 0) -> Fraction | float:
    """Counting bound in its final form 2^n (1 + 2^((l+m-n)/2 + c)).

    Exact rational when the exponent is integral (the regime used by
    the synthetic separation example), float otherwise.
    """
    num = l + m - n
    if num % 2 == 0:
        return Fraction(2) ** n * (1 + Fraction(2) ** (num // 2 + c))
    return 2.0**n * (1.0 + 2.0 ** (num / 2.0 + c))


@dataclass(frozen=True)
class GridPoint:
    l: int
    m: int
    count_b: int
    count_e: int
    bound: float

    @property
    def holds(self) -> bool:
        return self.count_b + self.count_e <= self.bound + VERDICT_TOL


@dataclass(frozen=True)
class LPRecord:
    l: int
    m: int
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class CrossNormRecord:
    entry_b: int
    entry_e: int
    norm: float
    limit: float

    @property
    def holds(self) -> bool:
        return self.norm <= self.limit + VERDICT_TOL


@dataclass(frozen=True)
class CorollaryCheck:
    max_b: int
    max_e: int
    threshold: int

    @property
    def total(self) -> int:
        return self.max_b + self.max_e

    @property
    def holds(self) -> bool:
        return self.total >= self.threshold


@dataclass(frozen=True)
class ShannonCheck:
    i_bz: float
    i_ex: float
    limit: float

    @property
    def total(self) -> float:
        return self.i_bz + self.i_ex

    @property
    def holds(self) -> bool:
        return self.total <= self.limit + VERDICT_TOL


@dataclass(frozen=True)
class AverageCheck:
    """Average proxy complexity sum, reported against n - c (not asserted)."""

    avg_sum: float
    reference: float


@dataclass(frozen=True)
class TradeoffReport:
    n: int
    attack: AttackSpec
    c_offset: int
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


def outcome_distribution(states: Sequence[DensityOperator], measured: str) -> np.ndarray:
    """Joint table P(msg, k) = <k|rho_msg|k> / #messages for uniform messages.

    The outcomes |k> are the ``encode`` basis ``measured`` of the
    states' qubit register.  One product rho @ basis^T gives every
    rho|k>, and a row-wise contraction with <k| reads the diagonal.
    """
    dims = states[0].dims
    if set(dims) != {2}:
        raise DimensionError(f"a basis read needs a qubit register, got dims {dims}")
    n = len(dims)
    basis = np.stack([encode(k, measured, n) for k in range(2**n)])
    images = np.stack([s.mat for s in states]) @ basis.T
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


def shannon_tradeoff_check(inst: ProtocolInstance, bob_basis: str, eve_basis: str) -> ShannonCheck:
    """I(msg : Bob | Z) + I(msg : Eve | X) <= n, each side read in the given basis."""
    i_bz = mutual_information(outcome_distribution(inst.rho_b, bob_basis))
    i_ex = mutual_information(outcome_distribution(inst.sigma_e, eve_basis))
    return ShannonCheck(i_bz=i_bz, i_ex=i_ex, limit=float(inst.n))


def corollary_threshold(n: int, c_offset: int = 0) -> int:
    """Least max-complexity sum the corollary allows: n - 3 - 2c."""
    return n - 3 - 2 * c_offset


def max_complexity_corollary(
    profile_b: ComplexityProfile,
    profile_e: ComplexityProfile,
    *,
    c_offset: int = 0,
) -> CorollaryCheck:
    """max_z len_B(z) + max_x len_E(x) >= n - 3 - 2c, with n from the profiles."""
    return CorollaryCheck(
        max_b=profile_b.max_length(),
        max_e=profile_e.max_length(),
        threshold=corollary_threshold(profile_b.n, c_offset),
    )


def average_complexity_check(
    profile_b: ComplexityProfile,
    profile_e: ComplexityProfile,
    *,
    c_offset: int = 0,
) -> AverageCheck:
    return AverageCheck(
        avg_sum=profile_b.average() + profile_e.average(),
        reference=float(profile_b.n - c_offset),
    )


def catalogues_for(
    inst: ProtocolInstance,
    decision_tol: float = DECISION_TOL,
) -> tuple[DecoderCatalogue, DecoderCatalogue]:
    """Bob/Z and Eve/X decoder catalogues for one protocol instance."""
    cat_b, cat_e = (
        build_catalogue(distinguishable_partition(inst.family(side), decision_tol), inst.n, side)
        for side in FAMILY_BASIS
    )
    return cat_b, cat_e


def verify_tradeoff(
    inst: ProtocolInstance,
    attack: AttackSpec,
    c_offset: int = 0,
    decision_tol: float = DECISION_TOL,
    dense: bool | None = None,
) -> TradeoffReport:
    """Full verification sweep for one attack at one n.

    Populates the (l, m) counting grid over [0, n+1]^2, the dense
    Landau-Pollak and cross-norm records when the global state fits in
    memory, both corollary checks and the Shannon cross-check.
    """
    n = inst.n
    cat_b, cat_e = catalogues_for(inst, decision_tol)
    prof_b = proxy_complexity(cat_b)
    prof_e = proxy_complexity(cat_e)
    grid = tuple(
        GridPoint(
            l=l,
            m=m,
            count_b=prof_b.count(l),
            count_e=prof_e.count(m),
            bound=tradeoff_bound(l, m, n, c_offset),
        )
        for l, m in product(range(n + 2), repeat=2)
    )
    if dense is None:
        dense = n <= DENSE_THETA_LIMIT
    lp_records: list[LPRecord] = []
    cross_norms: list[CrossNormRecord] = []
    if dense:
        theta = theta_matrix(inst)
        db, de = inst.channel.dim_b, inst.channel.dim_e
        dense_b, dense_e = (
            [
                (len(e.codeword), program_projector(cat, i, db, de).dense())
                for i, e in enumerate(cat.entries)
            ]
            for cat in (cat_b, cat_e)
        )
        limit = 2.0 ** (-n / 2.0)
        cross_norms = [
            CrossNormRecord(entry_b=i, entry_e=j, norm=operator_norm(p @ q), limit=limit)
            for (i, (_, p)), (j, (_, q)) in product(enumerate(dense_b), enumerate(dense_e))
        ]
        for l, m in product(range(n + 2), repeat=2):
            family = [p for w, p in dense_b if w <= l]
            family += [q for w, q in dense_e if w <= m]
            lp = landau_pollak_check(family, theta)
            lp_records.append(LPRecord(l=l, m=m, lhs=lp.lhs, rhs=lp.rhs, holds=lp.holds))
    shannon = shannon_tradeoff_check(inst, *natural_bases(attack))
    return TradeoffReport(
        n=n,
        attack=attack,
        c_offset=c_offset,
        profile_b=prof_b,
        profile_e=prof_e,
        grid=grid,
        lp_records=tuple(lp_records),
        cross_norms=tuple(cross_norms),
        corollary1=max_complexity_corollary(prof_b, prof_e, c_offset=c_offset),
        shannon=shannon,
        average=average_complexity_check(prof_b, prof_e, c_offset=c_offset),
    )


@dataclass(frozen=True)
class NoCloningReport:
    """Numerical instantiation of the no-cloning corollary.

    Every library attack respects the max-complexity threshold, the
    best symmetric cloner hits the literal ceiling on both sides, and a
    hypothetical perfect cloner (both maxima 1) is an arithmetic
    contradiction once n - 3 - 2c exceeds 2, i.e. from n = 6 + 2c on.
    Each record pairs an attack label with its corollary check.
    """

    n: int
    c_offset: int
    records: tuple[tuple[str, CorollaryCheck], ...]
    cloner_at_literal_ceiling: bool
    perfect_cloner_contradiction: bool
    min_contradiction_n: int

    @property
    def all_hold(self) -> bool:
        return all(check.holds for _, check in self.records)


def no_cloning_check(
    n: int,
    specs: Sequence[AttackSpec] | None = None,
    c_offset: int = 0,
    decision_tol: float = DECISION_TOL,
) -> NoCloningReport:
    if specs is None:
        specs = standard_attacks(n)
    records = []
    cloner_literal = True
    for spec in specs:
        inst = ProtocolInstance.from_channel(product_attack(spec))
        cat_b, cat_e = catalogues_for(inst, decision_tol)
        check = max_complexity_corollary(
            proxy_complexity(cat_b), proxy_complexity(cat_e), c_offset=c_offset
        )
        records.append((spec.label(), check))
        if spec.kind == "universal_cloner":
            cloner_literal = check.max_b == n + 1 and check.max_e == n + 1
    return NoCloningReport(
        n=n,
        c_offset=c_offset,
        records=tuple(records),
        cloner_at_literal_ceiling=cloner_literal,
        perfect_cloner_contradiction=2 < corollary_threshold(n, c_offset),
        min_contradiction_n=6 + 2 * c_offset,
    )


@dataclass(frozen=True)
class SeparationExample:
    """Synthetic profile separating the average-complexity inequality
    from the counting theorem.

    A length distribution with 3/4 of the messages at n/2 (Bob side)
    and n/3 (Eve side) and the rest at n satisfies the average bound
    with sum 9n/8, yet at l = n/2, m = n/3 the counts break the
    theorem-form bound with c = 0 for every n > 12.
    """

    n: int
    c: int
    avg_sum: Fraction
    avg_reference: int
    l: int
    m: int
    count_sum: int
    theorem_bound: Fraction | float
    preconstant_bound: float

    @property
    def avg_holds(self) -> bool:
        return self.avg_sum >= self.avg_reference - self.c

    @property
    def violates_theorem(self) -> bool:
        return self.count_sum > self.theorem_bound

    @property
    def violates_preconstant(self) -> bool:
        return self.count_sum > self.preconstant_bound


def discussion_counterexample(n: int = 24, c: int = 0) -> SeparationExample:
    """Evaluate the synthetic separation profile with exact arithmetic."""
    if n % 12 != 0:
        raise ValidationError("the synthetic profile needs n divisible by 12")
    l, m = n // 2, n // 3
    three_quarters = 3 * 2**n // 4
    quarter = 2**n // 4
    avg_sum = (
        Fraction(three_quarters * l + quarter * n, 2**n)
        + Fraction(three_quarters * m + quarter * n, 2**n)
    )
    count_sum = 2 * three_quarters
    return SeparationExample(
        n=n,
        c=c,
        avg_sum=avg_sum,
        avg_reference=n,
        l=l,
        m=m,
        count_sum=count_sum,
        theorem_bound=theorem_form_bound(l, m, n, c),
        preconstant_bound=tradeoff_bound(l, m, n, c),
    )
