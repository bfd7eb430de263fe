"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every criterion carries its tolerance inline.
"""

import json
import math
from fractions import Fraction

import numpy as np

from qid.attacks import ATTACKS, product_attack, standard_attacks
from qid.cli import main as cli_main
from qid.complexity import expectation_identity_check, program_projector, proxy_complexity
from qid.operators import ket_bra, operator_norm
from qid.protocol import ProtocolInstance, basis_table, equivalence_check, theta_matrix
from qid.tradeoff import (
    catalogues_for,
    corollary_threshold,
    landau_pollak_check,
    max_complexity_corollary,
    shannon_tradeoff_check,
    tradeoff_bound,
)

from conftest import _instance
from helpers import random_density, random_projector


def verdict(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} - {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_01_conjugate_overlap():
    worst = 0.0
    for n in range(1, 5):
        expected = 2.0**-n
        for x in range(2**n):
            xx = ket_bra(basis_table("X", n)[x])
            for z in range(2**n):
                norm = operator_norm(xx @ ket_bra(basis_table("Z", n)[z]) @ xx)
                worst = max(worst, abs(norm - expected))
    verdict(
        1,
        "conjugate overlap norm equals 2^-N within 1e-10 for N=1..4",
        worst <= 1e-10,
        f"max deviation {worst:.3e}",
    )


def test_criterion_02_protocol_equivalence():
    worst_prob = 0.0
    worst_state = 0.0
    ok = True
    for n in (1, 2):
        for spec in standard_attacks(n):
            report = equivalence_check(_instance(spec.kind, n))
            worst_prob = max(worst_prob, report.max_probability_deviation)
            worst_state = max(worst_state, report.max_state_deviation)
            ok = ok and report.passed
    verdict(
        2,
        "dense protocol equivalence within 1e-10, all attacks, N<=2",
        ok,
        f"prob dev {worst_prob:.3e}, state dev {worst_state:.3e}",
    )


def test_criterion_03_expectation_identities():
    worst = 0.0
    ok = True
    for n in (1, 2):
        for spec in standard_attacks(n):
            inst = _instance(spec.kind, n)
            theta = theta_matrix(inst)
            for cat in catalogues_for(inst):
                for chk in expectation_identity_check(inst, cat, theta):
                    worst = max(
                        worst, abs(chk.lhs - chk.rhs), abs(chk.lhs_dense - chk.rhs)
                    )
                    ok = ok and chk.agree
    verdict(
        3,
        "structured and dense expectations match counts within 1e-9, N<=2",
        ok,
        f"max deviation {worst:.3e}",
    )


def test_criterion_04_landau_pollak_suite():
    ok = True
    for n in (1, 2):
        for spec in standard_attacks(n):
            inst = _instance(spec.kind, n)
            theta = theta_matrix(inst)
            cat_b, cat_e = catalogues_for(inst)
            db, de = inst.channel.dim_b, inst.channel.dim_e
            family = [
                program_projector(cat_b, i, db, de).dense()
                for i in range(len(cat_b.classes))
            ] + [
                program_projector(cat_e, j, db, de).dense()
                for j in range(len(cat_e.classes))
            ]
            ok = ok and landau_pollak_check(family, theta).holds

    rng = np.random.default_rng(20240917)
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        count = int(rng.integers(1, 5))
        family = [
            random_projector(rng, dim, int(rng.integers(1, dim + 1)))
            for _ in range(count)
        ]
        ok = ok and landau_pollak_check(family, random_density(rng, dim)).holds

    psi = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)], dtype=complex)
    lp = landau_pollak_check(
        [ket_bra(basis_table("Z", 1)[0]), ket_bra(basis_table("X", 1)[0])], ket_bra(psi)
    )
    bisect_ok = abs(lp.lhs - 1.7071) < 1e-4 and abs(lp.rhs - 2.0) < 1e-6
    bisect_ok = bisect_ok and abs(lp.lhs - (1.0 + math.sqrt(0.5))) < 1e-6
    verdict(
        4,
        "Landau-Pollak holds for program projectors, 100 random families, "
        "and the bisecting-angle oracle",
        ok and bisect_ok,
        f"bisect lhs {lp.lhs:.6f}, rhs {lp.rhs:.6f}",
    )


def test_criterion_05_cross_norm_bound():
    checked = 0
    worst_margin = -math.inf
    ok = True
    for n in (1, 2):
        bob_projs, eve_projs = [], []
        for spec in standard_attacks(n):
            inst = _instance(spec.kind, n)
            cat_b, cat_e = catalogues_for(inst)
            db, de = inst.channel.dim_b, inst.channel.dim_e
            bob_projs += [
                program_projector(cat_b, i, db, de) for i in range(len(cat_b.classes))
            ]
            eve_projs += [
                program_projector(cat_e, j, db, de) for j in range(len(cat_e.classes))
            ]
        limit = 2.0 ** (-n / 2.0)
        for p in bob_projs:
            for q in eve_projs:
                norm = operator_norm(p.dense() @ q.dense())
                checked += 1
                worst_margin = max(worst_margin, norm - limit)
                ok = ok and norm <= limit + 1e-9
    verdict(
        5,
        "||P_t Q_s|| <= 2^(-N/2) + 1e-9 for all entry pairs, N<=2",
        ok and checked > 0,
        f"{checked} pairs, worst margin {worst_margin:.3e}",
    )


def test_criterion_06_main_theorem_grid():
    violations = 0
    points = 0
    for n in (1, 2, 3, 4):
        for spec in standard_attacks(n):
            inst = _instance(spec.kind, n)
            cat_b, cat_e = catalogues_for(inst)
            prof_b, prof_e = proxy_complexity(cat_b), proxy_complexity(cat_e)
            for l in range(n + 2):
                for m in range(n + 2):
                    points += 1
                    total = prof_b.count(l) + prof_e.count(m)
                    if total > tradeoff_bound(l, m, n) + 1e-9:
                        violations += 1
    verdict(
        6,
        "counting bound holds at every (l, m), every attack, N=1..4",
        violations == 0,
        f"{points} grid points, {violations} violations",
    )


def test_criterion_07_max_complexity_corollary():
    ok = True
    for n in (1, 2, 3, 4):
        for spec in standard_attacks(n):
            cat_b, cat_e = catalogues_for(_instance(spec.kind, n))
            check = max_complexity_corollary(proxy_complexity(cat_b), proxy_complexity(cat_e))
            ok = ok and check.holds
    verdict(7, "max-complexity sum >= N - 3 for every attack, N<=4", ok)


def test_criterion_08_no_cloning_scenario():
    n = 3
    # brute-force density-matrix oracles behind the profile values
    cnot = _instance("cnot_probe", n)
    oracle_ok = all(
        np.max(np.abs(cnot.rho_b[z] - ket_bra(basis_table("Z", n)[z]))) < 1e-10
        for z in range(2**n)
    )
    oracle_ok = oracle_ok and all(
        np.max(np.abs(cnot.sigma_e[x] - np.eye(2**n) / 2**n)) < 1e-10
        for x in range(2**n)
    )
    mx = _instance("measure_x", n)
    oracle_ok = oracle_ok and all(
        np.max(np.abs(mx.rho_b[z] - np.eye(2**n) / 2**n)) < 1e-10
        for z in range(2**n)
    )

    def maxima(kind, nn):
        cat_b, cat_e = catalogues_for(_instance(kind, nn))
        return proxy_complexity(cat_b).max_length(), proxy_complexity(cat_e).max_length()

    ok = maxima("cnot_probe", n) == (1, n + 1)
    ok = ok and maxima("measure_x", n) == (n + 1, 1)
    cloner_ok = all(maxima("universal_cloner", nn) == (nn + 1, nn + 1) for nn in (1, 2, 3))
    verdict(
        8,
        "perfect one-side copying forces the literal ceiling on the other; "
        "the symmetric cloner is literal on both sides",
        ok and cloner_ok and oracle_ok,
        f"cnot {maxima('cnot_probe', n)}, measure_x {maxima('measure_x', n)}",
    )


def test_criterion_08_no_cloning_at_six_qubits():
    # N = 6 is the first n at which a perfect cloner (both maxima 1, sum 2)
    # contradicts the corollary; the product path reaches it without any
    # N-qubit Kraus stack.
    n = 6
    by_kind = {}
    ok = True
    for spec in standard_attacks(n):
        cat_b, cat_e = catalogues_for(ProtocolInstance.from_channel(product_attack(spec)))
        check = max_complexity_corollary(proxy_complexity(cat_b), proxy_complexity(cat_e))
        by_kind[spec.kind] = (check.max_b, check.max_e)
        ok = ok and check.holds
    ok = ok and len(by_kind) == 7 and by_kind["universal_cloner"] == (n + 1, n + 1)
    ok = ok and corollary_threshold(n) > 2 >= corollary_threshold(n - 1)
    verdict(
        8,
        "at N=6 every attack meets the threshold, the cloner sits at the literal "
        "ceiling and a perfect cloner is a contradiction",
        ok,
        f"{by_kind}",
    )


def test_criterion_09_shannon_cross_check():
    ok = True
    for n in (1, 2, 3):
        for spec in standard_attacks(n):
            check = shannon_tradeoff_check(_instance(spec.kind, n), ATTACKS[spec.kind].eve_basis)
            ok = ok and check.holds
            if spec.kind in ("identity", "measure_x"):
                ok = ok and abs(check.sum - n) <= 1e-9
    verdict(
        9,
        "I(A:B|Z) + I(A:E|X) <= N + 1e-9 with natural measurements, "
        "saturated by identity and measure_x",
        ok,
    )


def test_criterion_10_separation_example():
    # 3/4 of the messages cost N/2 on Bob's side and N/3 on Eve's, the rest
    # cost N; at l = N/2, m = N/3 both sides count the 3/4 share.
    n, c = 24, 0
    l, m = n // 2, n // 3
    cheap, rest = 3 * 2**n // 4, 2**n // 4
    avg_sum = Fraction(cheap * l + rest * n, 2**n) + Fraction(cheap * m + rest * n, 2**n)
    count_sum = 2 * cheap
    # the theorem's final form 2^N (1 + 2^((l+m-N)/2 + c)), exact at even l+m-N
    theorem_bound = Fraction(2) ** n * (1 + Fraction(2) ** ((l + m - n) // 2 + c))
    ok = avg_sum == 27  # 9N/8 at N=24
    ok = ok and avg_sum >= n - c
    ok = ok and count_sum > theorem_bound
    verdict(
        10,
        "synthetic profile meets the average bound (9N/8) yet breaks the "
        "counting bound at l=N/2, m=N/3",
        ok,
        f"counts {count_sum} > bound {theorem_bound}",
    )


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "n": 2,
                "attacks": [
                    {"kind": "cnot_probe"},
                    {"kind": "depolarize", "params": {"p": 0.5}},
                ],
            }
        )
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["simulate", "--config", str(cfg), "--out", str(out_a)])
    code_b = cli_main(["simulate", "--config", str(cfg), "--out", str(out_b)])
    identical = code_a == code_b == 0
    for name in sorted(p.name for p in out_a.iterdir()):
        identical = identical and (out_a / name).read_bytes() == (out_b / name).read_bytes()
    verdict(11, "identical configs give byte-identical reports", identical)
