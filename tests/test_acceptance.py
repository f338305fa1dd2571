"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
comparisons are exact (integers and rationals); the only tolerances are the
stated wall-clock budgets.
"""

import contextlib
import io
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import starconfig as sc
from starconfig import cli, config, exponents as ex, hilbert, resolution, star
from starconfig.config import StarConfig

GOLDEN = Path(__file__).parent / "golden"


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS")


def test_criterion_01_worked_example():
    with criterion(1, "worked example s=7 c=3"):
        start = time.monotonic()
        assert sc.h_vector(sc.skeleton_ideal(StarConfig(7, 2)), 2).entries == (1, 2, 3, 4, 5, 6)
        assert sc.h_vector(sc.skeleton_ideal(StarConfig(7, 3)), 3).entries == (1, 3, 6, 10, 15)
        square = sc.symbolic_power(StarConfig(7, 3), 2)
        assert sc.h_vector(square, 3).entries == (1, 3, 6, 10, 15, 21, 21, 21, 21, 21)
        shape = sc.ss_resolution(7, 3)
        listed = {(t, r) for module in shape.modules for (t, r) in module}
        assert listed == {(-6, 7), (-10, 21), (-7, 6), (-11, 42), (-12, 21)}
        assert time.monotonic() - start < 60


def test_criterion_02_generic_h_vector():
    with criterion(2, "generic h-vectors, s <= 7"):
        for s in range(2, 8):
            for c in range(1, s):
                hv = sc.h_vector(sc.skeleton_ideal(StarConfig(s, c)), c)
                assert hv.entries == tuple(comb(t + c - 1, c - 1) for t in range(s - c + 1))
                assert hv.total() == comb(s, c)


def test_criterion_03_initial_and_terminal_degrees():
    with criterion(3, "alpha/omega formulas, s <= 6, ell <= 6"):
        for s in range(2, 7):
            for c in range(1, s):
                cfg = StarConfig(s, c)
                for ell in range(1, 7):
                    ideal = sc.symbolic_power(cfg, ell)
                    assert ex.alpha(ideal) == config.alpha_symbolic_formula(cfg, ell)
                    assert ex.omega(ideal) == ell * (s - c + 1)
                    assert ex.alpha(ex.power(sc.skeleton_ideal(cfg), ell)) == ell * (s - c + 1)


def test_criterion_04_containment_lemma():
    with criterion(4, "skeleton inside the next symbolic square, s <= 7"):
        for s in range(3, 8):
            for c in range(2, s):
                assert star.check_lemma_contain(StarConfig(s, c)), (s, c)


def test_criterion_05_power_decomposition_and_saturation():
    with criterion(5, "power decomposition and saturation"):
        for s in (3, 4, 5):
            for c in range(2, s):
                for ell in (1, 2, 3):
                    assert sc.verify_power_decomposition(s, c, ell), (s, c, ell)
                    assert sc.verify_saturation(s, c, ell), (s, c, ell)
        assert sc.verify_power_decomposition(4, 2, 4, l_cap=4)
        assert sc.verify_saturation(4, 2, 4, l_cap=4)


def test_criterion_06_hilbert_burch():
    with criterion(6, "determinantal presentation of symbolic powers"):
        start = time.monotonic()
        for s, m in [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3)]:
            minors = resolution.maximal_minors(resolution.hb_matrix(s, m))
            observed = set()
            for sign, exp in minors:
                assert abs(sign) == 1, (s, m)
                observed.add(exp)
            assert observed == resolution.expected_minor_monomials(s, m), (s, m)
            assert resolution.verify_hb(s, m), (s, m)
        assert time.monotonic() - start < 180


def test_criterion_07_resurgence():
    with criterion(7, "resurgence criterion and exact values"):
        assert sc.rho_exact(4, 2) == Fraction(3, 2)
        assert sc.rho_exact(5, 3) == Fraction(9, 5)
        # the witness pair from the scaling family, outside the default caps
        assert not sc.symbolic_in_power(4, 2, 12, 10, r_cap=10)
        # full-grid agreement of brute containment with the rational criterion
        mismatches = {}
        for n_dim, s, c in [(3, 4, 2), (4, 5, 3)]:
            cells = []
            for m in range(1, 21):
                for r in range(1, 9):
                    contained = sc.symbolic_in_power(s, c, m, r, r_cap=8)
                    if contained == sc.criterion(n_dim, m, r):
                        cells.append((m, r))
            if cells:
                mismatches[n_dim] = cells
        assert not mismatches, (
            "the rational criterion disagrees with brute-force containment at "
            f"{mismatches}; at each such cell 3r = alpha(I^(m)) + 1, the symbolic "
            "power contains a generator of degree 3r - 1 < alpha(I^r), so it is NOT "
            "contained, while the criterion's rational relaxation of the floor "
            "inequality alpha(I^(m)) < 3r reports containment; see the ledger"
        )


def test_criterion_08_euler_consistency():
    with criterion(8, "resolution shapes match series numerators, s <= 6"):
        for s in range(3, 7):
            for c in range(2, s):
                shape = sc.ss_resolution(s, c)
                ideal = sc.symbolic_power(StarConfig(s, c), 2)
                assert sc.euler_check(shape, ideal), (s, c)


def test_criterion_09_matroid():
    with criterion(9, "skeleton complexes are matroids, s <= 8"):
        for s in range(2, 9):
            for c in range(1, s):
                cfg = StarConfig(s, c)
                complex_ = star.skeleton_complex(cfg)
                assert star.is_matroid(complex_), (s, c)
                assert ex.equals(star.stanley_reisner_ideal(complex_), sc.skeleton_ideal(cfg)), (s, c)


def test_criterion_10_basic_double_link_chain():
    with criterion(10, "W_k chain identities and Hilbert functions"):
        for s in (4, 5):
            for ell in (1, 2):
                for k in range(s):
                    assert star.wk_step_check(s, ell, k), (s, ell, k)
                    link = ex.MonomialIdeal(s, (star.wk_link_monomial(s, ell, k),))
                    assert hilbert.bdg_hf_check(
                        link, star.wk_ideal(s, ell, k), 1, star.wk_ideal(s, ell, k + 1)
                    ), (s, ell, k)


def test_criterion_11_cli_determinism():
    from cli_cases import GOLDEN_COMMANDS

    with criterion(11, "CLI byte determinism against golden files"):
        for name, argv in sorted(GOLDEN_COMMANDS.items()):
            expected = (GOLDEN / name).read_text()
            for jobs in ("1", "3"):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv + ["--jobs", jobs])
                assert code == 0, name
                assert buf.getvalue() == expected, name
