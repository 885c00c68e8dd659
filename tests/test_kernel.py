"""The batched kernel against the pointwise reference.

Every batched evaluation (PreLieRing.dot_many, FlowContext.circ_many, the
factor-brace and transported-star tables) must equal the pointwise path
exactly, including at the int64/object boundary of the coordinate dtype.
The generator-based check kernels must agree with all-triples oracles on
mutated tables and return witnesses that really fail their law.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from braceflows import (
    Brace,
    FlowContext,
    InputError,
    PGroup,
    PreLieRing,
    StructureError,
    derive,
    factor_brace,
    flows_brace,
    parse_file,
    build,
    scalar_twist,
    trivial_brace,
    verify_brace,
    verify_prelie,
)
from braceflows import _tables
from braceflows import flows as flows_module
from braceflows.braces import _circ_inverses
from braceflows._tables import (
    TABLE_THRESHOLD,
    IndexContext,
    build_table,
    check_associativity,
    check_left_brace_law,
    check_prelie_symmetry,
    coord_dtype,
    element_coords,
    exhaustive_for,
    pointwise_many,
)
from braceflows.groups import divide_by_p

FIXTURE = Path(__file__).parent / "fixtures" / "m1.prelie"


def ring_5ab() -> PreLieRing:
    return PreLieRing.from_structure_constants(PGroup(5, (3,)), {(0, 0): (5,)})


def ring_5ab_z25() -> PreLieRing:
    return PreLieRing.from_structure_constants(PGroup(5, (2,)), {(0, 0): (5,)})


def two_generator_ring() -> PreLieRing:
    # g1.g1 = g2.g1 = 5 g1 on Z/25 x Z/5
    return PreLieRing.from_structure_constants(
        PGroup(5, (2, 1)), {(0, 0): (5, 0), (1, 0): (5, 0)})


def m1_ring() -> PreLieRing:
    return build(parse_file(str(FIXTURE)), verify=False)


def as_tuples(arr: np.ndarray) -> list:
    return [tuple(int(c) for c in row) for row in arr.reshape(-1, arr.shape[-1])]


def all_pairs_table(brace: Brace) -> np.ndarray:
    g = brace.group
    return np.array([[g.encode(brace.circ(g.decode(i), g.decode(j)))
                      for j in range(g.order)] for i in range(g.order)])


class TestCircMany:
    @pytest.mark.parametrize("make", [ring_5ab, two_generator_ring])
    def test_all_pairs_match_pointwise(self, make):
        ring = make()
        ctx = FlowContext(ring)
        g = ring.group
        coords = element_coords(g)
        got = ctx.circ_many(coords[:, None, :], coords[None, :, :])
        elems = [g.decode(i) for i in range(g.order)]
        want = [ctx.circ(a, b) for a in elems for b in elems]
        assert as_tuples(got) == want

    def test_flows_table_matches_pointwise(self):
        ring = two_generator_ring()
        brace = flows_brace(ring, verify=False)
        ctx = brace.flow_context
        pointwise = Brace.from_callable(ring.group, ctx.circ)
        assert np.array_equal(brace.index_table(), all_pairs_table(pointwise))

    def test_entries_stop_at_their_first_zero_term(self):
        # not biadditive: x.0 = 5, so an entry whose term reaches 0 must stop
        # there, as the pointwise series does, while the batch goes on
        g = PGroup(5, (2,))
        ring = PreLieRing.from_callable(
            g, lambda a, b: ((5 * a[0] * b[0]) % 25 if b[0] else 5,))
        ctx = FlowContext(ring)
        coords = element_coords(g)
        got = ctx.apply_exp_many(coords[:, None, :], coords[None, :, :])
        elems = list(g.elements())
        assert as_tuples(got) == [ctx.apply_exp(a, b) for a in elems for b in elems]

    def test_m1_fixture_grid(self):
        # order 16807: all 2.8e8 pairs are out of reach pointwise, so a
        # random 40 x 60 grid exercises the same (N, 1) x (1, M) broadcast
        ring = m1_ring()
        ctx = FlowContext(ring)
        g = ring.group
        rng = random.Random(5)
        left = [g.random_element(rng) for _ in range(40)]
        right = [g.random_element(rng) for _ in range(60)]
        got = ctx.circ_many(np.array(left)[:, None, :], np.array(right)[None, :, :])
        assert as_tuples(got) == [ctx.circ(a, b) for a in left for b in right]

    def test_log_many_matches_log_map(self):
        ctx = FlowContext(m1_ring())
        rng = random.Random(6)
        elems = [ctx.group.random_element(rng) for _ in range(500)]
        assert as_tuples(ctx.log_many(np.array(elems))) == [ctx.log_map(a) for a in elems]


class TestLogFailure:
    def test_unstable_iteration_raises(self):
        # an index below the true one (4) stops the fixed-point iteration
        # before it reaches Omega(1)
        ctx = FlowContext(ring_5ab())
        ctx.index = 1
        with pytest.raises(StructureError, match="did not stabilize") as point:
            ctx.log_map((1,))
        with pytest.raises(StructureError, match="did not stabilize") as batch:
            ctx.log_many(np.array([[0], [1], [2]]))
        assert str(point.value) == str(batch.value)


class TestTables:
    def test_factor_brace_matches_qcirc(self):
        # parent above the table threshold: the quotient table comes from
        # the parent's batched flows
        source = flows_brace(PreLieRing.from_structure_constants(
            PGroup(7, (5,)), {(0, 0): (7,)}), verify=False)
        assert source.group.order > TABLE_THRESHOLD
        fb = factor_brace(source, source.group.annihilator(3), check=False)
        space = fb.space
        qg = fb.group
        for x in qg.elements():
            for y in qg.elements():
                want = space.project(source.circ(space.lift(x), space.lift(y)))
                assert fb.circ(x, y) == want

    def test_factor_of_table_brace_matches_qcirc(self):
        source = flows_brace(two_generator_ring(), verify=False)
        fb = factor_brace(source, source.group.power_image(1), check=False)
        space = fb.space
        for x in fb.group.elements():
            for y in fb.group.elements():
                assert fb.circ(x, y) == space.project(
                    source.circ(space.lift(x), space.lift(y)))

    @pytest.mark.parametrize("source", [
        lambda: flows_brace(PreLieRing.from_structure_constants(
            PGroup(7, (4,)), {(0, 0): (7,)}), verify=False),
        lambda: flows_brace(m1_ring(), verify=False),
        # g2.g1 = 11 g1 on Z/11^3 x Z/11^3: quotient Z/11 x Z/11
        lambda: flows_brace(PreLieRing.from_structure_constants(
            PGroup(11, (3, 3)), {(1, 0): (11, 0)}), verify=False),
    ])
    def test_transported_star_table_matches_direct(self, source):
        d = derive(source())
        d.build_tables()
        qg = d.qgroup
        for x in qg.elements():
            for y in qg.elements():
                assert d.transported_star(x, y) == d._odot_direct(x, y)

    def test_division_failure_matches_pointwise(self):
        # not a brace: star(a, b) = 1 whenever a, b are nonzero, so the
        # scaled star of the first nonzero pair of classes is not in p*A
        g = PGroup(5, (3,))

        def circ(a, b):
            return ((a[0] + b[0] + (1 if a[0] and b[0] else 0)) % 125,)

        d = derive(Brace.from_callable(g, circ))
        with pytest.raises(StructureError) as direct:
            d._odot_direct((1,), (1,))
        with pytest.raises(StructureError) as batched:
            d.build_tables()
        assert str(batched.value) == str(direct.value)
        with pytest.raises(StructureError) as expected:
            divide_by_p(g, (1,))
        assert str(batched.value) == str(expected.value)

    def test_derived_ring_keeps_its_table(self):
        d = derive(flows_brace(PreLieRing.from_structure_constants(
            PGroup(7, (4,)), {(0, 0): (7,)}), verify=False))
        assert d.qgroup.order == 49
        ring = d.ring()
        assert ring.index_table() is d._bullet_tab
        qg = d.qgroup
        coords = element_coords(qg)
        got = ring.dot_many(coords[:, None, :], coords[None, :, :])
        assert as_tuples(got) == [d.prelie_product(x, y)
                                  for x in qg.elements() for y in qg.elements()]
        twisted = scalar_twist(ring, 3)
        pointwise = build_table(qg, pointwise_many(twisted.dot))
        assert np.array_equal(twisted.index_table(), pointwise)


class TestCircInverse:
    @pytest.mark.parametrize("make", [ring_5ab, two_generator_ring, m1_ring])
    def test_closed_form_matches_power(self, make):
        brace = flows_brace(make(), verify=False)
        reference = Brace.from_callable(brace.group, brace.flow_context.circ,
                                        materialize=False)
        rng = random.Random(7)
        for _ in range(100):
            a = brace.group.random_element(rng)
            assert brace.circ_inverse(a) == reference.circ_inverse(a)

    def test_tampered_closure_is_caught(self):
        brace = flows_brace(m1_ring(), verify=False)
        g = brace.group
        ctx = brace.flow_context

        def tampered(a, b):
            return g.add(ctx.circ(a, b), (1, 0))

        bad = Brace.from_callable(g, tampered, materialize=False)
        bad.flow_context = ctx
        with pytest.raises(StructureError, match="inverse computation failed"):
            bad.circ_inverse((3, 4))

    def test_batched_inverses_match_pointwise(self):
        """_circ_inverses takes circ_inverse's three branches (flows closed
        form, first zero of a table row, mapped closure) and marks exactly
        the entries that circ_inverse rejects."""
        brace = flows_brace(two_generator_ring(), verify=False)
        g, ctx = brace.group, brace.flow_context
        table = brace.index_table().tolist()
        table[5][1] = 0                                 # a wrong right inverse
        table[9] = [v or 1 for v in table[9]]           # no right inverse at all
        tampered = Brace.from_callable(g, lambda a, b: g.add(ctx.circ(a, b), (a[1], 0)),
                                       materialize=False)
        variants = [brace, Brace.from_table(g, table),
                    Brace.from_callable(g, ctx.circ, materialize=False), tampered]
        elems = list(g.elements())
        for variant in variants:
            inv, bad = _circ_inverses(variant, batch(elems)[:, None, :])
            for a, row, failed in zip(elems, inv[:, 0], bad[:, 0]):
                try:
                    expect = variant.circ_inverse(a)
                except StructureError:
                    assert failed
                else:
                    assert not failed and tuple(int(c) for c in row) == expect
        assert _circ_inverses(variants[1], batch(elems))[1].sum() >= 2
        assert 0 < _circ_inverses(tampered, batch(elems))[1].sum() < len(elems)

    def test_tampered_table_is_caught(self):
        brace = flows_brace(ring_5ab(), verify=False)
        g = brace.group
        a = (1,)
        inv = brace.circ_inverse(a)
        table = brace.index_table().tolist()
        table[g.encode(a)][g.encode(inv)] = 1
        bad = Brace.from_table(g, table)
        bad.flow_context = brace.flow_context
        with pytest.raises(StructureError, match="inverse computation failed"):
            bad.circ_inverse(a)


def stub_index(monkeypatch, index: int) -> None:
    """Carriers near 2**63 are far too large for the enumerating left chain,
    so these tests supply the index of their rings (checked on p = 7)."""
    monkeypatch.setattr(flows_module, "ring_left_chain",
                        lambda ring: [None] * index)


def random_pairs(g: PGroup, count: int, seed: int) -> tuple[list, list]:
    rng = random.Random(seed)
    return ([g.random_element(rng) for _ in range(count)],
            [g.random_element(rng) for _ in range(count)])


def batch(elems: list) -> np.ndarray:
    return np.array(elems, dtype=object)


# p = 4294967311: modulus p**2 >= 2**64, beyond the 2**63 cap of the flows
# scalars, so only the product is compared there.  3037000493 is the largest
# prime with p**2 < 2**63, 3037000507 the next one; for rank 2 the int64
# switch lies between the primes 1518500213 and 1518500279.
BIG = 4294967311
LOW, HIGH = 3037000493, 3037000507
LOW2, HIGH2 = 1518500213, 1518500279


class TestOverflowBoundary:
    def test_dtype_switch(self):
        assert coord_dtype(LOW, 1) is np.int64
        assert coord_dtype(HIGH, 1) is object
        assert coord_dtype(LOW2, 2) is np.int64
        assert coord_dtype(HIGH2, 2) is object
        assert coord_dtype(BIG ** 2, 1) is object
        assert LOW ** 2 < 2 ** 63 < HIGH ** 2

    @pytest.mark.parametrize("p, factors", [
        (BIG, (2,)), (LOW, (1,)), (HIGH, (1,)), (LOW2, (1, 1)), (HIGH2, (1, 1)),
    ])
    def test_dot_many_matches_dot(self, p, factors):
        g = PGroup(p, factors)
        top = [m - 1 for m in g.moduli]
        # full-size constants, so every einsum term is near modulus**2
        sc = {(j, k): tuple((t - j - k) % m for t, m in zip(top, g.moduli))
              for j in range(g.rank) for k in range(g.rank)}
        if factors == (2,):
            sc = {(0, 0): (p * (p - 3),)}  # torsion: p**2 kills it
        ring = PreLieRing.from_structure_constants(g, sc)
        left, right = random_pairs(g, 300, p % 97)
        left[0], right[0] = tuple(top), tuple(top)
        got = ring.dot_many(batch(left), batch(right))
        assert as_tuples(got) == [ring.dot(a, b) for a, b in zip(left, right)]

    def test_stub_indices_are_right(self):
        assert FlowContext(PreLieRing.from_structure_constants(
            PGroup(7, (1,)), {})).index == 2
        assert FlowContext(PreLieRing.from_structure_constants(
            PGroup(7, (1, 1)), {(0, 0): (0, 6)})).index == 3

    @pytest.mark.parametrize("p, factors, sc", [
        (LOW, (1,), {}),
        (HIGH, (1,), {}),
        (LOW2, (1, 1), {(0, 0): (0, LOW2 - 1)}),
        (HIGH2, (1, 1), {(0, 0): (0, HIGH2 - 1)}),
    ])
    def test_circ_many_matches_circ(self, monkeypatch, p, factors, sc):
        stub_index(monkeypatch, 3 if sc else 2)
        ring = PreLieRing.from_structure_constants(PGroup(p, factors), sc)
        ctx = FlowContext(ring)
        assert ctx.dtype is coord_dtype(p, len(factors))
        g = ring.group
        left, right = random_pairs(g, 200, 11)
        left[0] = tuple(m - 1 for m in g.moduli)
        got = ctx.circ_many(batch(left), batch(right))
        assert as_tuples(got) == [ctx.circ(a, b) for a, b in zip(left, right)]
        got = ctx.circ_many(batch(left)[:, None, :], batch(right[:7])[None, :, :])
        assert as_tuples(got) == [ctx.circ(a, b) for a in left for b in right[:7]]

    def test_flows_refuse_moduli_beyond_the_scalar_cap(self, monkeypatch):
        stub_index(monkeypatch, 3)
        ring = PreLieRing.from_structure_constants(PGroup(BIG, (2,)), {(0, 0): (BIG,)})
        with pytest.raises(InputError, match="exceeds the supported cap"):
            FlowContext(ring)


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "braceflows", "coeffs", "alpha", "-p", "5", "-n", "2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("alpha_1 = 1\n")
    assert "CHECK alpha-leading-coefficient-is-1 PASS" in proc.stdout


# ---------------------------------------------------------------------------
# check kernels against all-triples oracles


def associative_oracle(t: np.ndarray) -> bool:
    """(a o b) o c == a o (b o c) on every triple."""
    n = len(t)
    return bool((t[t] == t[np.arange(n)[:, None, None], t[None, :, :]]).all())


def brace_law_oracle(ctx: IndexContext, t: np.ndarray) -> bool:
    """a o (b + c) == a o b - a + a o c on every triple."""
    coords, moduli = ctx.coords, ctx.moduli
    bpc = ctx.encode((coords[:, None, :] + coords[None, :, :]) % moduli)
    lhs = t[:, bpc]
    rhs = (coords[t][:, :, None, :] - coords[:, None, None, :]
           + coords[t][:, None, :, :]) % moduli
    return bool((lhs == ctx.encode(rhs)).all())


def prelie_oracle(ctx: IndexContext, d: np.ndarray) -> bool:
    """(a.b).c - a.(b.c) symmetric in (a, b) on every triple."""
    n = len(d)
    coords = ctx.coords
    assoc = (coords[d[d]] - coords[d[np.arange(n)[:, None, None], d[None, :, :]]]) % ctx.moduli
    return bool((assoc == assoc.swapaxes(0, 1)).all())


def fails_associativity(t, w) -> bool:
    a, b, c = w
    return t[t[a, b], c] != t[a, t[b, c]]


def fails_brace_law(ctx, t, w) -> bool:
    a, b, c = w
    coords, moduli = ctx.coords, ctx.moduli
    rhs = ctx.encode((coords[t[a, b]] - coords[a] + coords[t[a, c]]) % moduli)
    return t[a, ctx.add_index(np.array(b), np.array(c))] != rhs


def fails_prelie(ctx, d, w) -> bool:
    a, b, c = w
    coords = ctx.coords

    def assoc(x, y):
        return (coords[d[d[x, y], c]] - coords[d[x, d[y, c]]]) % ctx.moduli

    return bool((assoc(a, b) != assoc(b, a)).any())


def agree_on(brace_t: np.ndarray, ctx: IndexContext, dot_t: np.ndarray | None = None) -> None:
    """Kernels and oracles agree on PASS/FAIL; every witness fails its law."""
    w = check_associativity(brace_t)
    assert (w is None) == associative_oracle(brace_t)
    assert w is None or fails_associativity(brace_t, w)
    w = check_left_brace_law(ctx, brace_t)
    assert (w is None) == brace_law_oracle(ctx, brace_t)
    assert w is None or fails_brace_law(ctx, brace_t, w)
    if dot_t is not None:
        w = check_prelie_symmetry(ctx, dot_t)
        assert (w is None) == prelie_oracle(ctx, dot_t)
        assert w is None or fails_prelie(ctx, dot_t, w)


def bumped(t: np.ndarray, i: int, j: int) -> np.ndarray:
    out = t.copy()
    out[i, j] = (out[i, j] + 1) % len(t)
    return out


def order_49_brace() -> Brace:
    # g1.g1 = g2 on Z/7 x Z/7: two additive generators
    return flows_brace(PreLieRing.from_structure_constants(
        PGroup(7, (1, 1)), {(0, 0): (0, 1)}), verify=False)


class TestCheckKernels:
    def test_every_single_entry_mutation_of_z25(self, z25_brace):
        ctx = IndexContext(z25_brace.group)
        circ = z25_brace.index_table()
        dot = ring_5ab_z25().index_table()
        agree_on(circ, ctx, dot)
        failed = 0
        for i in range(25):
            for j in range(25):
                agree_on(bumped(circ, i, j), ctx, bumped(dot, i, j))
                failed += check_associativity(bumped(circ, i, j)) is not None
        assert failed == 625

    def test_random_mutations_of_a_two_generator_carrier(self):
        brace = order_49_brace()
        ctx = IndexContext(brace.group)
        circ = brace.index_table()
        agree_on(circ, ctx)
        rng = random.Random(5)
        for _ in range(200):
            i, j = rng.randrange(49), rng.randrange(49)
            agree_on(bumped(circ, i, j), ctx)

    def test_biadditive_products_decided_on_generator_triples(self):
        # random structure constants are biadditive; some are pre-Lie
        g = PGroup(7, (1, 1))
        ctx = IndexContext(g)
        rng = random.Random(3)
        outcomes = set()
        for _ in range(40):
            sc = {(j, k): (rng.choice((0, 0, 1)), rng.choice((0, 0, 1)))
                  for j in range(2) for k in range(2)}
            dot = PreLieRing.from_structure_constants(g, sc).index_table()
            w = check_prelie_symmetry(ctx, dot)
            assert (w is None) == prelie_oracle(ctx, dot)
            assert w is None or fails_prelie(ctx, dot, w)
            outcomes.add(w is None)
        assert outcomes == {True, False}

    def test_zero_not_right_neutral(self, z25_brace):
        ctx = IndexContext(z25_brace.group)
        circ = bumped(z25_brace.index_table(), 6, 0)
        assert check_left_brace_law(ctx, circ) == (6, 0, 0)
        assert fails_brace_law(ctx, circ, (6, 0, 0))

    def test_circle_group_needing_two_generators(self):
        # (Z/7 x Z/7, +): index 0 reaches only itself, index 1 = (0, 1)
        # reaches its cyclic group, index 7 = (1, 0) the rest
        brace = trivial_brace(PGroup(7, (1, 1)))
        circ = brace.index_table()
        assert _tables._greedy_generators(circ) == [0, 1, 7]
        assert check_associativity(circ) is None

    def test_failure_seen_only_by_a_later_generator(self):
        # (a1 + b1 + a1^2 b1, a2 + b2) on Z/7 x Z/7: associative whenever
        # the middle argument has first coordinate 0, as every element
        # reached from generators 0 and 1 = (0, 1) has
        ctx = IndexContext(PGroup(7, (1, 1)))
        a, b = ctx.coords[:, None, :], ctx.coords[None, :, :]
        first = (a[..., 0] + b[..., 0] + a[..., 0] ** 2 * b[..., 0]) % 7
        t = ctx.encode(np.stack([first, (a[..., 1] + b[..., 1]) % 7], axis=-1))
        assert _tables._greedy_generators(t)[:3] == [0, 1, 7]
        w = check_associativity(t)
        assert w is not None and w[1] not in (0, 1)
        assert fails_associativity(t, w) and not associative_oracle(t)

    def test_brace_law_needs_every_additive_generator(self):
        # a o b = a + b + (b2^2, 0): lambda_a is additive along (1, 0) only
        ctx = IndexContext(PGroup(7, (1, 1)))
        a, b = ctx.coords[:, None, :], ctx.coords[None, :, :]
        t = ctx.encode(np.stack([(a[..., 0] + b[..., 0] + b[..., 1] ** 2) % 7,
                                 (a[..., 1] + b[..., 1]) % 7], axis=-1))
        w = check_left_brace_law(ctx, t)
        assert w is not None and w[2] == ctx.group.encode((0, 1))
        assert fails_brace_law(ctx, t, w) and not brace_law_oracle(ctx, t)

    def test_non_biadditive_product_takes_the_all_triples_scan(self, monkeypatch):
        g = PGroup(5, (2,))
        ctx = IndexContext(g)
        calls = []
        scan = _tables._prelie_symmetry_scan
        monkeypatch.setattr(_tables, "_prelie_symmetry_scan",
                            lambda *a: calls.append(1) or scan(*a))
        # a constant product: every associator vanishes, yet not biadditive
        const = np.full((25, 25), 3, dtype=np.int64)
        assert _tables.check_additivity_steps(ctx, const) is not None
        assert check_prelie_symmetry(ctx, const) is None
        bad = bumped(const, 3, 3)
        w = check_prelie_symmetry(ctx, bad)
        assert w is not None and fails_prelie(ctx, bad, w)
        assert not prelie_oracle(ctx, bad)
        assert len(calls) == 2

    def test_one_element_carrier(self):
        g = PGroup(7, (0, 0), allow_zero=True)
        ctx = IndexContext(g)
        table = np.zeros((1, 1), dtype=np.int64)
        assert g.generators() == []
        assert check_associativity(table) is None
        assert check_left_brace_law(ctx, table) is None
        assert check_prelie_symmetry(ctx, table) is None
        assert verify_brace(trivial_brace(g)).passed
        assert verify_prelie(PreLieRing.from_structure_constants(g, {})).passed


class TestExhaustiveRule:
    def test_rule(self):
        assert exhaustive_for(125, False)
        assert exhaustive_for(126, None) and not exhaustive_for(126, False)
        assert exhaustive_for(TABLE_THRESHOLD)
        assert not exhaustive_for(TABLE_THRESHOLD + 1)
        assert exhaustive_for(TABLE_THRESHOLD + 1, True)

    def test_table_sized_carrier_defaults_to_exhaustive(self):
        g = PGroup(11, (3,))
        n = g.order
        assert 1000 < n <= TABLE_THRESHOLD
        table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
        rep = verify_brace(Brace.from_table(g, table.tolist()))
        assert rep.passed
        assert all(r.info == "exhaustive" for r in rep.results)
        # row 1000 lies past the first block of BLOCK_PAIRS pairs
        assert 1000 * n > _tables.BLOCK_PAIRS
        bad = bumped(table, 1000, 5)
        ctx = IndexContext(g)
        w = check_associativity(bad)
        assert w is not None and fails_associativity(bad, w)
        w = check_left_brace_law(ctx, bad)
        assert w is not None and fails_brace_law(ctx, bad, w)


def test_tracer_kernels_exist_with_the_table_last():
    """bench/tracer.py wraps these kernels by name and reads args[-1] as the
    table; a rename or reordering would silently break its --trace output."""
    tracer = tracer_module()
    brace = order_49_brace()
    ctx = IndexContext(brace.group)
    table = brace.index_table()
    assert len(tracer.KERNELS) == 6
    for name in tracer.KERNELS:
        assert name in _tables.__all__
        kernel = getattr(_tables, name)
        params = list(inspect.signature(kernel).parameters)
        args = (table,) if len(params) == 1 else (ctx, table)
        assert len(params) == len(args)
        kernel(*args)
        cells, nbytes = tracer._kernel_cost(name, args)
        assert cells > 0 and nbytes > 0


def tracer_module():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve_as_install_looks_them_up():
    """Tracer.install reads cls.__dict__[meth] for "Class.meth" targets and
    getattr(module, name) otherwise; a traced name that is deleted, renamed
    or only inherited must fail here rather than in bench/run.py --trace 1."""
    for mod_name, attr, _, _ in tracer_module().TARGETS:
        module = importlib.import_module(f"braceflows.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr)), attr


# ---------------------------------------------------------------------------
# sampled checks above TABLE_THRESHOLD: one batch per check, witnesses in
# draw order.  The pinned lines are those of the pointwise per-sample loops
# the batched checks replaced, at the same seeds.


def perturbed_e1_brace() -> Brace:
    """The flows brace of a.b = 7ab on Z/7^5, with a o b moved by 1 whenever
    a = 1 and b = 3 mod 7, pointwise and batched alike."""
    base = flows_brace(PreLieRing.from_structure_constants(
        PGroup(7, (5,)), {(0, 0): (7,)}), verify=False)
    ctx = base.flow_context

    def circ(a, b):
        return ((ctx.circ(a, b)[0] + (a[0] % 7 == 1 and b[0] % 7 == 3)) % 7 ** 5,)

    def circ_many(a, b):
        hit = (a[..., 0] % 7 == 1) & (b[..., 0] % 7 == 3)
        return (ctx.circ_many(a, b) + hit[..., None]) % 7 ** 5

    return Brace.from_callable(base.group, circ, circ_many=circ_many)


def first_failing_triple(g: PGroup, seed: int, count: int, holds) -> str | None:
    """The pointwise reference: the first of `count` drawn triples that
    fails `holds`, as a witness."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b, c = (g.random_element(rng) for _ in range(3))
        if not holds(a, b, c):
            return f"a={a} b={b} c={c}"
    return None


class TestSampledChecks:
    def test_perturbed_circle_fails_with_the_pointwise_witnesses(self):
        brace = perturbed_e1_brace()
        assert brace.group.order > TABLE_THRESHOLD
        assert verify_brace(brace, samples=300, seed=5).lines() == [
            "CHECK abelian-add PASS [sampled n=300 seed=5]",
            "CHECK zero-neutral PASS [sampled n=300 seed=5]",
            "CHECK circ-associative FAIL witness a=(2640,) b=(15893,) c=(8572,)",
            "CHECK circ-inverses FAIL witness a=(10611,)",
            "CHECK left-brace-law FAIL witness a=(5265,) b=(9831,) c=(3816,)",
        ]

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_witness_is_the_first_failing_draw(self, seed):
        brace = perturbed_e1_brace()
        g, circ = brace.group, brace.circ
        lines = {r.name: r.witness for r in verify_brace(brace, samples=300, seed=seed).results}
        assert lines["circ-associative"] == first_failing_triple(
            g, seed + 1, 300, lambda a, b, c: circ(circ(a, b), c) == circ(a, circ(b, c)))
        assert lines["left-brace-law"] == first_failing_triple(
            g, seed + 3, 300, lambda a, b, c:
            circ(a, g.add(b, c)) == g.add(g.sub(circ(a, b), a), circ(a, c)))

    def test_non_biadditive_ring_fails_with_the_pointwise_witnesses(self):
        g = PGroup(7, (5,))
        ring = PreLieRing.from_callable(g, lambda a, b: (7 * a[0] * a[0] * b[0] % 7 ** 5,))
        assert verify_prelie(ring, samples=300, seed=2).lines() == [
            "CHECK torsion-compatible PASS",
            "CHECK biadditive FAIL witness left: a=(1853,) b=(3001,) c=(2781,)",
            "CHECK prelie-identity-generators PASS [all generator triples]",
            "CHECK prelie-identity FAIL witness a=(15171,) b=(12232,) c=(8753,)",
            "CHECK left-nilpotent PASS [index 6, chain sizes [16807, 2401, 343, 49, 7, 1]]",
        ]

    @pytest.mark.parametrize("p, dtype", [(LOW, np.int64), (HIGH, object)])
    def test_both_sides_of_the_int64_switch(self, p, dtype):
        # a o b = a + b + a b^2 on Z/p: associativity and the brace law fail
        g = PGroup(p, (1,))
        brace = Brace.from_callable(
            g, lambda a, b: ((a[0] + b[0] + a[0] * b[0] % p * b[0]) % p,),
            circ_many=lambda a, b: (a + b + a * b % p * b) % p)
        assert brace.dtype is dtype
        assert [line.removeprefix("CHECK ") for line in
                verify_brace(brace, samples=200, seed=9).lines()] == [
            "abelian-add PASS [sampled n=200 seed=9]",
            "zero-neutral PASS [sampled n=200 seed=9]",
            "circ-associative FAIL witness a=(2454155475,) b=(139951793,) c=(1842064464,)",
            "circ-inverses FAIL witness a=(1942955373,)",
            "left-brace-law FAIL witness a=(2038265566,) b=(1155324522,) c=(2823822892,)",
        ]

    def test_sample_count_below_one_is_rejected(self):
        ring = m1_ring()
        for samples in (0, -5):
            with pytest.raises(InputError, match="sample count must be at least 1"):
                verify_prelie(ring, samples=samples)
            with pytest.raises(InputError, match="sample count must be at least 1"):
                verify_brace(flows_brace(ring, verify=False), samples=samples)
