"""The batched kernel against the pointwise reference.

Every batched evaluation (PreLieRing.dot_many, FlowContext.circ_many, the
factor-brace and transported-star tables) must equal the pointwise path
exactly, including at the int64/object boundary of the coordinate dtype.
"""

from __future__ import annotations

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
)
from braceflows import flows as flows_module
from braceflows._tables import (
    TABLE_THRESHOLD,
    build_table,
    coord_dtype,
    element_coords,
    pointwise_many,
)
from braceflows.groups import divide_by_p

FIXTURE = Path(__file__).parent / "fixtures" / "m1.prelie"


def ring_5ab() -> PreLieRing:
    return PreLieRing.from_structure_constants(PGroup(5, (3,)), {(0, 0): (5,)})


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
