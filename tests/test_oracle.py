"""The smoothness test, exponent vectors and the mean closure, checked
against the independent `Fraction` oracle in diapbench/oracle.py.

The oracle imports nothing from `diapason`, so these tests still hold
when `is_smooth` is wrong; the full-rescan reference closure in
test_generator.py calls `is_smooth` itself and would agree with it.
"""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from diapason.exact import (
    MAGNITUDE_LIMIT,
    TWO,
    Ratio,
    Restriction,
    _smooth_modulus,
    exponents,
    is_smooth,
)
from diapason.generator import GeneratorConfig, mean_closure
from diapason.means import MeanKind
from diapason.scales import Scale

_spec = importlib.util.spec_from_file_location(
    "oracle", Path(__file__).resolve().parent.parent / "diapbench" / "oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
MERSENNE_127 = 2**127 - 1  # prime


@st.composite
def prime_products(draw):
    """Products of primes <= 31 up to the guard: smooth under some sets, not others."""
    n = 1
    for p in draw(st.lists(st.sampled_from(PRIMES), max_size=130)):
        if n * p > MAGNITUDE_LIMIT:
            break
        n *= p
    return n


parts = st.one_of(prime_products(), st.integers(1, MAGNITUDE_LIMIT))
prime_sets = st.sets(st.sampled_from(PRIMES[1:])).map(lambda rest: frozenset({2, *rest}))


def _fraction(r: Ratio) -> Fraction:
    return Fraction(r.num, r.den)


def _oracle_smooth(r: Ratio, primes) -> bool:
    return oracle.smooth(_fraction(r), sorted(primes))


class TestSmoothness:
    @given(parts, parts, prime_sets)
    def test_matches_the_oracle(self, num, den, primes):
        r = Ratio(num, den)
        assert is_smooth(r, Restriction(primes)) is _oracle_smooth(r, primes)

    @pytest.mark.parametrize(
        "r,primes,smooth",
        [
            # A prime exponent one below the part's bit length, the
            # largest there is: 2^e has e + 1 bits.
            (Ratio(2**128), {2}, True),
            (Ratio(1, 2**128), {2}, True),
            (Ratio(3**80), {2, 3}, True),
            (Ratio(3**80), {2}, False),
            (Ratio(2**127, 3), {2, 3}, True),
            (Ratio(2**127, 3), {2, 5}, False),
            # 2^127 * 3 is past the guard; 2^126 * 3 is the largest 2^e * 3 within it.
            (Ratio(2**126 * 3), {2, 3}, True),
            (Ratio(2**126 * 3), {2, 5}, False),
            (Ratio(1), {2}, True),
            # A smooth part times one prime outside the set.
            (Ratio(7 * 2**20 * 3**10, 5**4), {2, 3, 5}, False),
            (Ratio(5**4, 7 * 2**20 * 3**10), {2, 3, 5}, False),
            (Ratio(31 * 2**123), set(PRIMES[:-1]), False),
            (Ratio(37 * 3**40 * 5**10), set(PRIMES), False),
            (Ratio(MERSENNE_127), {2, 3}, False),
            (Ratio(2 * MERSENNE_127, 3), set(PRIMES), False),
            (Ratio(3, 2 * MERSENNE_127), set(PRIMES), False),
        ],
    )
    def test_exponent_edges_and_one_outside_prime(self, r, primes, smooth):
        assert is_smooth(r, Restriction(primes)) is smooth
        assert _oracle_smooth(r, primes) is smooth

    @pytest.mark.parametrize(
        "primes",
        [(2,), (2, 3), (2, 3, 5, 7), (2, 3, 5, 7, 11, 13), (2, 2**61 - 1)],
        ids=["2", "3", "7", "13", "2,M61"],
    )
    def test_the_modulus_of_each_width(self, primes):
        # Every n below 2^16 judged once by the oracle, then by the
        # modulus of each width from 1 to 16 for the n below 2^width.
        smooth = [None] + [oracle.smooth(Fraction(n), primes) for n in range(1, 2**16)]
        for width in range(1, 17):
            modulus = _smooth_modulus(primes, width)
            for n in range(1, 2**width):
                assert (modulus % n == 0) is smooth[n], (width, n)


def _check_exponents(r: Ratio, primes) -> None:
    vector = exponents(r, Restriction(primes))
    if not _oracle_smooth(r, primes):
        assert vector is None
        return
    assert len(vector) == len(primes)
    value = math.prod(
        (Fraction(p) ** e for p, e in zip(sorted(primes), vector)), start=Fraction(1)
    )
    assert value == _fraction(r)


class TestExponents:
    @given(parts, parts, prime_sets)
    def test_matches_the_oracle(self, num, den, primes):
        _check_exponents(Ratio(num, den), primes)

    @pytest.mark.parametrize(
        "r,primes,vector",
        [
            (Ratio(1), set(PRIMES), (0,) * len(PRIMES)),
            (Ratio(2**128), {2}, (128,)),
            (Ratio(1, 2**128), {2}, (-128,)),
            (Ratio(3**80), {2, 3}, (0, 80)),
            (Ratio(3**80), {2}, None),
            (Ratio(2**127, 3), {2}, None),
            (Ratio(2**127, 3), {2, 3}, (127, -1)),
        ],
    )
    def test_edges(self, r, primes, vector):
        assert exponents(r, Restriction(primes)) == vector
        _check_exponents(r, primes)


SEED_POOL = sorted({*oracle.SCALES["SN2"], Fraction(7, 4), Fraction(7, 6), Fraction(8, 7)})
MAX_GENERATIONS = 6
seeds = st.sets(st.sampled_from(SEED_POOL), min_size=2, max_size=5).map(sorted)
limits = st.sampled_from([(2, 3), (2, 3, 5), (2, 3, 7), (2, 5, 7), (2, 3, 5, 7)])
# Every prime set within the table path's {2, ..., 13} that holds 2.
table_limits = st.sets(st.sampled_from((3, 5, 7, 11, 13))).map(lambda rest: (2, *sorted(rest)))
kind_sets = st.sets(st.sampled_from(MeanKind), min_size=1)


def _as_fractions(value):
    """Trace JSON with every tone a Fraction: Ratio prints 1/1 where Fraction prints 1."""
    if isinstance(value, dict):
        return {k: v if k == "kind" else _as_fractions(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_fractions(v) for v in value]
    if isinstance(value, str):
        return Fraction(value)
    return value


@settings(max_examples=50, deadline=None)
@given(seeds, table_limits, kind_sets)
def test_closure_matches_the_oracle(seed, primes, kinds):
    # Past the 7-limit a closure can grow sevenfold per generation; three
    # keep the oracle's pair scans small.
    cap = MAX_GENERATIONS if max(primes) <= 7 else 3
    config = GeneratorConfig(kinds=kinds, restriction=Restriction(primes), max_generations=cap)
    trace = mean_closure(
        Scale("seed", [Ratio(t.numerator, t.denominator) for t in seed]), config
    )
    letters = "".join(kind.value for kind in kinds)
    current = set(seed)
    for generation in trace.generations:
        found = oracle.admissible(current, primes, letters)
        added = sorted(set(found) - current)
        assert [_fraction(t) for t in generation.added] == added
        assert [
            (_fraction(w.tone), _fraction(w.a), _fraction(w.b), w.kind.value)
            for w in generation.witnesses
        ] == [(t, *found[t]) for t in added]
        current.update(added)
    if trace.fixpoint_reached:
        assert _as_fractions(trace.to_json_dict()) == _as_fractions(
            oracle.closure(seed, primes, letters)
        )
    else:
        assert len(trace.generations) == cap


# iota(t) = 2/t maps [1, 2] onto itself and keeps a tone inside or outside
# any limit that holds 2; it swaps the arithmetic and harmonic means and
# keeps the geometric one.
_SWAP = {
    MeanKind.ARITHMETIC: MeanKind.HARMONIC,
    MeanKind.GEOMETRIC: MeanKind.GEOMETRIC,
    MeanKind.HARMONIC: MeanKind.ARITHMETIC,
}


def mirror(tones) -> list[Ratio]:
    """iota of each tone, sorted."""
    return sorted(TWO / t for t in tones)


def assert_dual_closures(seed: Scale, primes, kinds, max_generations: int) -> None:
    """The closure of the seed under `kinds` is, generation by generation,
    iota of the closure of its mirror under the kinds with A and H swapped."""
    restriction = Restriction(primes)
    trace = mean_closure(seed, GeneratorConfig(kinds, restriction, max_generations))
    dual = mean_closure(
        Scale("mirror", mirror(seed.tones)),
        GeneratorConfig({_SWAP[k] for k in kinds}, restriction, max_generations),
    )
    assert [list(g.added) for g in trace.generations] == [mirror(g.added) for g in dual.generations]
    assert trace.fixpoint_reached is dual.fixpoint_reached


@settings(max_examples=50, deadline=None)
@given(seeds, limits, kind_sets)
def test_closure_is_dual_under_iota(seed, primes, kinds):
    # Seeds with wide parts are left out: pythagorean:steps=40 under H
    # overflows in mean_harmonic's a*b while its A dual reaches a
    # fixpoint.  That case joins when mean_harmonic is mended (ROADMAP
    # item 15).
    tones = [Ratio(t.numerator, t.denominator) for t in seed]
    assert_dual_closures(Scale("seed", tones), primes, kinds, MAX_GENERATIONS)
