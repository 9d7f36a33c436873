"""Acceptance gate: every criterion at its stated tolerance, one line per result."""

import time

from oracles import (
    bounded_cleaving_checks,
    bounded_coaction_axioms,
    bounded_hopf_axioms,
    random_decomposition_roundtrips,
)
from pcomod import builtin
from pcomod.comodule import StrongConnection, verify_strong_connection
from pcomod.hopf import check_hopf_axioms
from pcomod.numgeom import (
    GridConfig,
    decomposition_report,
    equivariant_parity_probe,
    mattprop_report,
    peter_weyl_report,
    phi_identities_report,
    splitting_identities_report,
)
from pcomod.pullback import reducibility_check
from pcomod.scalars import S_ONE, Scalar

CFG = GridConfig()  # defaults: 720-point circle, 257-node interval, tol 1e-9


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_axiom_suites_exact():
    t0 = time.monotonic()
    failures = []
    for name in builtin.HOPF_NAMES:
        H = builtin.build(name)
        failures += check_hopf_axioms(H)
        failures += bounded_hopf_axioms(H, 4)
        conf = H.system.check_local_confluence(6)
        failures += conf.conflicts
    for name in builtin.COMODULE_NAMES:
        P = builtin.build(name)
        failures += P.check_axioms()
        failures += bounded_coaction_axioms(P, 4)
    dt = time.monotonic() - t0
    report(
        "1. Hopf/comodule axiom suites exact in every degree, and on every basis word"
        " of degree <= 4, for all builtins, < 120 s",
        not failures and dt < 120,
        f"{dt:.1f}s, {len(failures)} failures",
    )


def test_criterion_2_strong_connection_degree_4():
    failures = []
    for sm in (builtin.toeplitz_z2_smash(), builtin.toeplitz_u1_smash()):
        cl = sm.cleaving()
        failures += cl.verify()
        failures += bounded_cleaving_checks(cl, 4)
        failures += verify_strong_connection(StrongConnection.from_cleaving(cl), 4)
    report(
        "2. smash cleavings in every degree and on basis words of degree <= 4; strong connections:"
        " all axioms + translation on basis words of degree <= 4, exactly",
        not failures,
        f"{len(failures)} failures",
    )


def test_criterion_3_reduction_theorem_instance():
    pro = builtin.sphere_prolonged()
    J = builtin.u1_mod_z2_ideal()
    witnesses = reducibility_check(pro.trivialisation, J)
    tij_zero = True
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for g in J.gens:
                if not pro.trivialisation.transition_poly(i, j, g).is_zero():
                    tij_zero = False
    report(
        "3. prolonged sphere reduces along the parity ideal; T_ij(u^2 - 1) = 0 exactly for all pairs",
        pro.report == [] and witnesses == [] and tij_zero,
    )


def test_criterion_4_frame_obstruction():
    t0 = time.monotonic()
    formal = builtin.frame_bundle_obstruction("formal")
    ok = formal.obstruction == Scalar.q_power(3) - S_ONE
    ok &= builtin.frame_bundle_obstruction(1).consistent is True
    ok &= builtin.frame_bundle_obstruction("cbrt1").consistent is True
    q2 = builtin.frame_bundle_obstruction(2)
    ok &= q2.consistent is False and q2.obstruction == Scalar.of(7) and "7*x" in q2.witness
    dt = time.monotonic() - t0
    report(
        "4. frame-bundle obstruction is exactly q^3 - 1; cube roots consistent; q = 2 witnessed by 7*mu*x, < 10 s",
        ok and dt < 10,
        f"{dt:.1f}s",
    )


def test_criterion_5_numeric_gluing_suite():
    t0 = time.monotonic()
    chart = phi_identities_report(CFG)
    ok = max(chart.values()) < 1e-12
    split = splitting_identities_report(CFG)
    ok &= max(split.values()) < 1e-9
    mp = mattprop_report(CFG, n_random=1000)
    ok &= max(
        mp["condition1_splitting"],
        mp["condition1_kernel_image"],
        mp["corner_identity"],
        mp["condition2_residual"],
    ) < 1e-9
    dt = time.monotonic() - t0
    report(
        "5. chart identities < 1e-12 on the 720-grid; splittings and both criterion conditions < 1e-9 "
        "over 10^3 random degree-<= 3 elements, < 60 s",
        ok and dt < 60,
        f"{dt:.1f}s, chart {max(chart.values()):.1e}, split {max(split.values()):.1e}, "
        f"cond2 {mp['condition2_residual']:.1e}",
    )


def test_criterion_6_decomposition_roundtrips():
    cert = decomposition_report()
    sampled = random_decomposition_roundtrips(CFG, n_random=1000)
    worst = max(
        rep[key]
        for rep in (cert, sampled)
        for key in ("forward_roundtrip", "backward_roundtrip", "eigenspace")
    )
    report(
        "6. disc-restriction isomorphism round trips: exact on every basis word, slot and (n, sign), "
        "and on 10^3 random elements, residual < 1e-9",
        cert["pass"] and sampled["pass"] and worst < 1e-9,
        f"{cert['cases']} exact cases, worst {worst:.1e}",
    )


def test_criterion_7_parity_probe():
    t0 = time.monotonic()
    rep = equivariant_parity_probe(2, 100, CFG)
    odd = sum(1 for w in rep.windings if w % 2 == 1)
    dt = time.monotonic() - t0
    report(
        "7. 100/100 equivariant 2x2 loops have odd winding; control shows both parities, < 30 s",
        odd == 100 and rep.control_has_both and dt < 30,
        f"{odd}/100 odd, {dt:.1f}s, {rep.resamples} resamples",
    )


def test_criterion_8_peter_weyl():
    rep = peter_weyl_report(10_000, CFG, degrees=(-2, -1, 0, 1, 2))
    worst = max(rep["zero_identity"], rep["cleaving_multiplicative"], rep["line_bundle_equivariance"])
    report(
        "8. patch identity, cleaving multiplicativity and section equivariance < 1e-9 over 10^4 points",
        worst < 1e-9,
        f"worst {worst:.1e}",
    )


def test_criterion_9_negative_controls():
    from pcomod.mutants import MUTANTS

    missed = []
    for m in MUTANTS:
        witnesses = m.detect()
        if not witnesses:
            missed.append(m.name)
    report(
        "9. every shipped corrupted table is detected with a localized witness (zero false passes)",
        not missed,
        f"{len(MUTANTS)} mutants" + (f"; MISSED {missed}" if missed else ""),
    )
