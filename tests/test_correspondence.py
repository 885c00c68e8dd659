from __future__ import annotations

import math

import pytest

from braceflows import (
    InputError,
    PGroup,
    PreLieRing,
    ScalarRing,
    ShiftSeries,
    derive,
    flows_brace,
    identity_recovery_coefficients,
    reconstruct_brace,
    reconstruction_report,
    circle_power_section,
    section_bijection_report,
    section_permutation,
    star_recovery_coefficients,
    verify_brace,
    verify_derived_ring,
    verify_flows_roundtrip,
    verify_identity_recovery,
    verify_prelie,
    verify_star_recovery,
)
from braceflows import correspondence
from braceflows.correspondence import (
    _chain_series,
    _compare_braces,
    _divides_huge_factorial,
    _section_coefficients,
)


def seven_chain_ring() -> PreLieRing:
    # single generator e with e.e = 7e on Z/7^5
    return PreLieRing.from_structure_constants(PGroup(7, (5,)), {(0, 0): (7,)})


class TestDerive:
    def test_shift_brace_derives_to_zero_ring(self, z125_brace):
        # star is 5ab, so (5a)*b = 25ab and the exact fifth lands in 5A:
        # every transported product vanishes on the order-5 quotient
        d = derive(z125_brace)
        qg = d.qgroup
        assert qg.order == 5
        for x in qg.elements():
            for y in qg.elements():
                assert d.transported_star(x, y) == qg.zero
                assert d.prelie_product(x, y) == qg.zero

    def test_representative_independence(self, z125_brace):
        from braceflows import divide_by_p

        d = derive(z125_brace)
        g = z125_brace.group
        kernel = list(g.annihilator(2).elements())[:4]
        qg = d.qgroup
        for x in qg.elements():
            for y in qg.elements():
                base = d.transported_star(x, y)
                for da in kernel:
                    for db in kernel:
                        u = z125_brace.star(
                            g.smul(g.p, g.add(d.space.lift(x), da)),
                            g.add(d.space.lift(y), db))
                        assert d.space.project(divide_by_p(g, u)) == base

    def test_tables_match_direct_products(self):
        d = derive(flows_brace(seven_chain_ring(), verify=False))
        qg = d.qgroup
        direct = {(x, y): (d.transported_star(x, y), d.prelie_product(x, y))
                  for x in qg.elements() for y in qg.elements()}
        d.build_tables()
        for (x, y), (odot, bullet) in direct.items():
            assert d.transported_star(x, y) == odot
            assert d.prelie_product(x, y) == bullet

    def test_seven_chain_derived_values(self):
        # flows of e.e = 7e give a circle b = a + b + 7ab, so the transported
        # product of classes is 7ab on Z/343 and the average multiplies by
        # p - 1 = 6
        d = derive(flows_brace(seven_chain_ring(), verify=False))
        assert d.qgroup.factors == (3,)
        assert d.transported_star((1,), (1,)) == (7,)
        assert d.prelie_product((1,), (1,)) == (42,)
        assert d.prelie_product((2,), (3,)) == (252,)

    def test_verify_derived_ring(self, z125_brace):
        report = verify_derived_ring(derive(z125_brace))
        assert report.passed, str(report)

    def test_derived_ring_passes_prelie_axioms(self):
        d = derive(flows_brace(seven_chain_ring(), verify=False))
        report = verify_prelie(d.ring(), samples=2_000)
        assert report.passed, str(report)


class TestSectionCoefficients:
    def test_frozen_values(self):
        assert _section_coefficients(5) == [1, 2, 2, 1]
        assert _section_coefficients(7) == [1, 3, 5, 5, 3, 1]

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_binomial_over_p_oracle(self, p):
        # c_i = C(p, i) / p is the same integer
        got = _section_coefficients(p)
        assert got == [math.comb(p, i) // p for i in range(1, p)]

    def test_section_postcondition(self, z125_brace):
        g = z125_brace.group
        for a in g.elements():
            f = circle_power_section(z125_brace, a)
            assert g.smul(g.p, f) == z125_brace.circ_pow(a, g.p)

    def test_section_postcondition_small(self, z25_brace):
        g = z25_brace.group
        for a in g.elements():
            f = circle_power_section(z25_brace, a)
            assert g.smul(g.p, f) == z25_brace.circ_pow(a, g.p)


class TestShiftSeries:
    def test_length_guard(self):
        ring = ScalarRing(5, 3)
        with pytest.raises(InputError, match="p-1=4"):
            ShiftSeries(ring, (1, 2, 3))

    def test_mul_truncates(self):
        ring = ScalarRing(5, 3)
        ell = ShiftSeries(ring, (0, 1, 0, 0))
        sq = ell.mul(ell)
        assert sq.coeffs == (0, 0, 1, 0)
        cube = sq.mul(ell)
        assert cube.coeffs == (0, 0, 0, 1)
        assert cube.mul(sq).coeffs == (0, 0, 0, 0)

    def test_add_and_smul_reduce(self):
        ring = ScalarRing(5, 2)
        a = ShiftSeries(ring, (24, 1, 0, 3))
        b = ShiftSeries(ring, (1, 24, 0, 24))
        assert a.add(b).coeffs == (0, 0, 0, 2)
        assert a.smul(5).coeffs == (120 % 25, 5, 0, 15)

    def test_chain_series_shift(self):
        ring = ScalarRing(5, 3)
        F, T = _chain_series(ring)
        assert F.coeffs == (1, 2, 2, 1)
        assert T.coeffs == (0, 1, 2, 2)


class TestRecoveryCoefficients:
    def test_frozen_alpha(self):
        assert identity_recovery_coefficients(5, 3) == (1, 123, 6, 104)

    def test_frozen_gamma(self):
        assert star_recovery_coefficients(5, 3) == (1, 123, 6, 0)

    @pytest.mark.parametrize("p,n", [(5, 3), (7, 5), (5, 2), (7, 3)])
    def test_alpha_solves_identity_series(self, p, n):
        ring = ScalarRing(p, n)
        F, T = _chain_series(ring)
        alphas = identity_recovery_coefficients(p, n)
        acc = ShiftSeries(ring, (0,) * (p - 1))
        basis = F
        for a in alphas:
            acc = acc.add(basis.smul(a))
            basis = T.mul(basis)
        assert acc.coeffs == (1,) + (0,) * (p - 2)
        assert alphas[0] == 1

    @pytest.mark.parametrize("p,n", [(5, 3), (7, 5), (5, 2), (7, 3)])
    def test_gamma_solves_shift_series(self, p, n):
        ring = ScalarRing(p, n)
        _, T = _chain_series(ring)
        gammas = star_recovery_coefficients(p, n)
        acc = ShiftSeries(ring, (0,) * (p - 1))
        basis = T
        for c in gammas:
            acc = acc.add(basis.smul(c))
            basis = T.mul(basis)
        assert acc.coeffs == (0, 1) + (0,) * (p - 3)
        assert gammas[0] == 1
        assert gammas[-1] == 0

    def test_identity_recovery_elementwise(self, z125_brace):
        report = verify_identity_recovery(z125_brace, exhaustive=True)
        assert report.passed, str(report)

    def test_star_recovery_elementwise(self, z125_brace):
        report = verify_star_recovery(z125_brace, exhaustive=True)
        assert report.passed, str(report)

    def test_recovery_on_seven_chain(self):
        brace = flows_brace(seven_chain_ring(), verify=False)
        d = derive(brace)
        assert verify_identity_recovery(brace, d, samples=300).passed
        assert verify_star_recovery(brace, d, samples=300).passed


class TestSectionPermutation:
    def test_shift_brace_section_is_identity_on_classes(self, z125_brace):
        # f(a) = a + 10a^2 + 50a^3 reduces to a mod 5
        perm = section_permutation(z125_brace)
        assert perm.order == 1
        assert all(v == k for k, v in perm.forward.items())

    def test_seven_chain_round_trip(self):
        brace = flows_brace(seven_chain_ring(), verify=False)
        perm = section_permutation(brace)
        inv = perm.inverse_map()
        for x, fx in perm.forward.items():
            assert inv[fx] == x
            assert perm.forward[inv[x]] == x

    def test_bijection_report(self, z125_brace):
        report = section_bijection_report(z125_brace)
        assert report.passed, str(report)
        names = {r.name for r in report.results}
        assert names == {"section-bijective", "cycle-lengths-divide-factorial",
                         "section-round-trip"}

    @pytest.mark.parametrize("length,base", [(1, 4), (6, 4), (24, 4), (16, 4),
                                             (5, 4), (120, 5), (7, 5)])
    def test_factorial_divisibility_oracle(self, length, base):
        assert _divides_huge_factorial(length, base) == (
            math.factorial(base) % length == 0)


class TestRoundtrip:
    def test_shift_ring_roundtrip(self):
        ring = PreLieRing.from_structure_constants(PGroup(5, (3,)), {(0, 0): (5,)})
        report = verify_flows_roundtrip(ring, exhaustive=True)
        assert report.passed, str(report)

    def test_seven_chain_roundtrip(self):
        report = verify_flows_roundtrip(seven_chain_ring(), samples=200)
        assert report.passed, str(report)


class TestPairChecks:
    """Negative controls for the batched pair checks; the witnesses are those
    of the pointwise per-pair loops they replaced, at the same seeds."""

    def test_star_recovery_against_another_brace_fails(self):
        e1 = flows_brace(seven_chain_ring(), verify=False)
        e2 = flows_brace(PreLieRing.from_structure_constants(
            PGroup(7, (5,)), {(0, 0): (49,)}), verify=False)
        d2 = derive(e2)
        assert verify_star_recovery(e1, d2).lines() == [
            "CHECK star-recovery FAIL witness x=(1,) y=(1,) got=(49,) want=(7,)"]
        assert verify_star_recovery(e1, d2, exhaustive=False, samples=300, seed=2).lines() == [
            "CHECK star-recovery FAIL witness x=(28,) y=(46,) got=(0,) want=(98,)"]

    def test_sampled_brace_comparison(self):
        e1 = flows_brace(seven_chain_ring(), verify=False)
        e2 = flows_brace(PreLieRing.from_structure_constants(
            PGroup(7, (5,)), {(0, 0): (49,)}), verify=False)
        assert _compare_braces(e1, e2, samples=300, seed=4) == "a=(7734,) b=(9938,)"
        assert _compare_braces(e1, e1, samples=300, seed=4) is None

    def test_reconstruction_report_passes_its_sampling_on(self, monkeypatch, z125_brace):
        seen = []
        compare = correspondence._compare_braces

        def spy(b1, b2, **kw):
            seen.append(kw)
            return compare(b1, b2, **kw)

        monkeypatch.setattr(correspondence, "_compare_braces", spy)
        assert reconstruction_report(z125_brace, samples=321, seed=4).passed
        assert seen == [{"samples": 321, "seed": 4}] * 2


class TestReconstruction:
    def test_reconstructed_brace_verifies(self, z125_brace):
        rebuilt = reconstruct_brace(derive(z125_brace))
        assert verify_brace(rebuilt, exhaustive=True).passed

    def test_report_passes(self, z125_brace):
        report = reconstruction_report(z125_brace, samples=2_000)
        assert report.passed, str(report)
        names = [r.name for r in report.results]
        assert names == ["derived-ring-axioms", "reconstructed-brace-axioms",
                         "reconstruction-matches-mod-inner-ideal",
                         "isomorphic-to-mod-ann-p4"]

    def test_report_nontrivial_quotient(self):
        # Z/7^5 keeps a Z/7 quotient after both reductions, so the match is
        # checked on 49 genuinely distinct pairs
        brace = flows_brace(seven_chain_ring(), verify=False)
        report = reconstruction_report(brace, samples=1_500)
        assert report.passed, str(report)
        for r in report.results:
            if r.name == "isomorphic-to-mod-ann-p4":
                assert "order 7" in (r.info or "")
