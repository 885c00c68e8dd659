from __future__ import annotations

import pytest

from braceflows import (
    Brace,
    InputError,
    PGroup,
    PreLieRing,
    Subgroup,
    factor_brace,
    flows_brace,
    ideal_quotient,
    left_chain,
    quoted_identity_report,
    trivial_brace,
    verify_brace,
)


class TestBraceOperations:
    def test_star_value(self, z25_brace):
        # direct formula oracle: (1+1+5) - (1+1) = 5
        assert z25_brace.star((1,), (1,)) == (5,)

    def test_star_trivial(self):
        b = trivial_brace(PGroup(5, (2,)))
        for a in b.group.elements():
            assert b.star(a, (3,)) == (0,)

    def test_star_at_zero(self, z25_brace):
        for b in z25_brace.group.elements():
            assert z25_brace.star((0,), b) == (0,)

    def test_lambda_value(self, z25_brace):
        # circ(1,2) = 1+2+10 = 13; lambda subtracts the left argument
        assert z25_brace.lambda_map((1,), (2,)) == (12,)

    def test_lambda_multiplicative(self, z25_brace):
        # lambda_{a circ c} = lambda_a after lambda_c, exhaustively
        br = z25_brace
        g = br.group
        for a in g.elements():
            for c in g.elements():
                ac = br.circ(a, c)
                for b in g.elements():
                    assert br.lambda_map(ac, b) == br.lambda_map(a, br.lambda_map(c, b))

    def test_lambda_additive(self, z25_brace):
        br = z25_brace
        g = br.group
        for a in g.elements():
            for b in g.elements():
                for c in g.elements():
                    assert br.lambda_map(a, g.add(b, c)) == g.add(
                        br.lambda_map(a, b), br.lambda_map(a, c))

    def test_circ_pow_matches_iteration(self, z25_brace):
        br = z25_brace
        for a in br.group.elements():
            acc = br.group.zero
            for k in range(8):
                assert br.circ_pow(a, k) == acc
                acc = br.circ(acc, a)

    def test_circ_pow_known_value(self, z25_brace):
        assert z25_brace.circ_pow((1,), 5) == (5,)

    def test_circ_pow_negative_rejected(self, z25_brace):
        with pytest.raises(InputError):
            z25_brace.circ_pow((1,), -1)

    def test_circ_inverse(self, z25_brace):
        br = z25_brace
        for a in br.group.elements():
            inv = br.circ_inverse(a)
            assert br.circ(a, inv) == (0,)
            assert br.circ(inv, a) == (0,)

    def test_circ_order_divides_group_order(self, z125_brace):
        br = z125_brace
        for i in range(125):
            assert 125 % br.circ_order(br.group.decode(i)) == 0


class TestVerifyBrace:
    def test_good_brace_passes(self, z25_brace):
        rep = verify_brace(z25_brace)
        assert rep.passed
        assert all("exhaustive" in (r.info or "") for r in rep.results)

    def test_corrupted_table_detected(self, z25_brace):
        table = [list(row) for row in z25_brace.index_table().tolist()]
        table[7][11] = (table[7][11] + 1) % 25
        bad = Brace.from_table(z25_brace.group, table)
        rep = verify_brace(bad)
        assert not rep.passed
        failing = [r for r in rep.results if not r.passed]
        assert failing and failing[0].witness

    def test_small_carrier_forces_exhaustive(self, z125_brace):
        # order <= 125 ignores the sampling request
        rep = verify_brace(z125_brace, exhaustive=False, samples=2_000, seed=1)
        assert rep.passed
        assert all("exhaustive" in (r.info or "") for r in rep.results)

    def test_sampled_mode(self):
        g = PGroup(7, (3,))
        mod = 343
        brace = Brace.from_callable(
            g, lambda a, b: ((a[0] + b[0] + 7 * a[0] * b[0]) % mod,))
        rep = verify_brace(brace, exhaustive=False, samples=2_000, seed=1)
        assert rep.passed
        assert any("sampled" in (r.info or "") for r in rep.results)

    def test_non_associative_table_rejected(self):
        g = PGroup(5, (1,))
        table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        table[2][3] = (table[2][3] + 1) % 5
        rep = verify_brace(Brace.from_table(g, table))
        assert not rep.passed


class TestLeftChain:
    def test_shift_brace_chain(self, z25_brace):
        sizes = [span.size for span in left_chain(z25_brace)]
        assert sizes == [25, 5, 1]

    def test_trivial_chain(self):
        b = trivial_brace(PGroup(5, (3,)))
        sizes = [span.size for span in left_chain(b)]
        assert sizes == [125, 1]


class TestFactorBrace:
    def test_quotient_by_annihilator(self, z125_brace):
        fq = ideal_quotient(z125_brace, 2, "ann")
        assert fq.group.order == 5
        rep = verify_brace(fq)
        assert rep.passed

    def test_quotient_circ_formula(self, z125_brace):
        # on classes mod 5 the shift term vanishes: quotient circ is addition
        fq = ideal_quotient(z125_brace, 2, "ann")
        g = fq.group
        for x in g.elements():
            for y in g.elements():
                assert fq.circ(x, y) == g.add(x, y)

    def test_power_image_quotient(self, z125_brace):
        fq = ideal_quotient(z125_brace, 1, "pk")
        assert fq.group.order == 5

    def test_non_ideal_rejected(self):
        # in the 5ab brace on Z/25 the subgroup generated by nothing but a
        # wrong-size coordinate slice cannot arise; check the error path with
        # a subgroup of a different carrier instead
        g1 = PGroup(5, (2,))
        g2 = PGroup(5, (3,))
        br = trivial_brace(g1)
        with pytest.raises(InputError):
            factor_brace(br, g2.annihilator(1))

    # Negative controls for the ideal check, on the group of flows of a
    # two-generator ring with one product p g1 (p^2 g1 = 0 keeps it pre-Lie):
    # g1.g2 = p g1 moves <g2> under lambda_g1; g2.g1 = p g1 leaves <g2>
    # lambda-invariant, but g1 conjugates it out.  Z/7^2 x Z/7 (343
    # elements) is checked on every pair, Z/11^2 x Z/11^2 (14641) on
    # samples; the texts were produced by the pointwise per-pair check.
    @pytest.mark.parametrize("p, factors, sc, text", [
        (7, (2, 1), {(0, 1): (7, 0)},
         "subgroup is not lambda-invariant: lambda_(1, 0)((0, 1)) escapes"),
        (11, (2, 2), {(0, 1): (11, 0)},
         "subgroup is not lambda-invariant: lambda_(30, 75)((0, 47)) escapes"),
        (7, (2, 1), {(1, 0): (7, 0)},
         "subgroup is not circle-normal: (1, 0) conjugates (0, 1) out"),
        (11, (2, 2), {(1, 0): (11, 0)},
         "subgroup is not circle-normal: (30, 75) conjugates (0, 47) out"),
    ])
    def test_non_ideal_subgroup_rejected(self, p, factors, sc, text):
        g = PGroup(p, factors)
        brace = flows_brace(PreLieRing.from_structure_constants(g, sc), verify=False)
        sub = Subgroup(g, (factors[0], 0))  # <g2>
        with pytest.raises(InputError) as exc:
            factor_brace(brace, sub, samples=200, seed=3)
        assert str(exc.value) == text

    def test_ideal_passes_both_modes(self):
        # ann(p) is an ideal of every brace; checked on all pairs and sampled
        for p, factors in ((7, (2, 1)), (11, (2, 2))):
            g = PGroup(p, factors)
            ring = PreLieRing.from_structure_constants(g, {(1, 0): (p, 0)})
            quotient = factor_brace(flows_brace(ring, verify=False), g.annihilator(1),
                                    samples=200, seed=3)
            assert quotient.group.order == g.order // p ** 2

    def test_unknown_kind_rejected(self, z125_brace):
        with pytest.raises(InputError, match="'ann' or 'pk'"):
            ideal_quotient(z125_brace, 1, "weird")


class TestQuotedIdentities:
    def test_shift_brace_all_pass(self, z25_brace):
        rep = quoted_identity_report(z25_brace, samples=3_000, seed=0)
        assert rep.passed, str(rep)

    def test_z125_all_pass(self, z125_brace):
        rep = quoted_identity_report(z125_brace, samples=2_000, seed=0)
        assert rep.passed, str(rep)

    def test_report_names(self, z25_brace):
        rep = quoted_identity_report(z25_brace, samples=500, seed=0)
        names = {r.name for r in rep.results}
        assert names == {
            "star-additivity-chain",
            "circ-power-binomial",
            "circ-powers-generate-image",
            "pA-products-vanish",
            "scalar-star-defect-span",
        }
