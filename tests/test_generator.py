"""Mean-generator closure: single passes, fixpoints, traces, confluence."""

import bisect
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from diapason import generator
from diapason.exact import (
    FIVE_LIMIT,
    ONE,
    THREE_LIMIT,
    Ratio,
    RatioOverflowError,
    Restriction,
    is_smooth,
)
from diapason.generator import (
    ClosureTrace,
    Generation,
    GeneratorConfig,
    Witness,
    closure_order_independence,
    generate_means,
    mean_closure,
)
from diapason.means import MeanKind, mean_of_kind
from diapason.scales import Scale, canonical, pythagorean_by_diapente, reduce_to_diapason
from test_oracle import (
    MAX_GENERATIONS,
    SEED_POOL,
    assert_dual_closures,
    mirror,
    oracle,
    prime_sets,
)

AH = frozenset({MeanKind.ARITHMETIC, MeanKind.HARMONIC})


class TestConfig:
    def test_defaults(self):
        cfg = GeneratorConfig()
        assert cfg.kinds == frozenset({MeanKind.ARITHMETIC})
        assert cfg.restriction == FIVE_LIMIT
        assert cfg.max_generations == 64

    def test_keyword_and_positional_construction_agree(self):
        by_keyword = GeneratorConfig(kinds=AH, restriction=THREE_LIMIT, max_generations=5)
        by_position = GeneratorConfig(AH, THREE_LIMIT, 5)
        assert by_keyword == by_position and hash(by_keyword) == hash(by_position)
        assert (by_position.kinds, by_position.restriction, by_position.max_generations) == (
            AH, THREE_LIMIT, 5)
        assert GeneratorConfig(AH) == GeneratorConfig(kinds=AH, restriction=FIVE_LIMIT, max_generations=64)
        assert GeneratorConfig() != GeneratorConfig(max_generations=63)

    def test_too_many_arguments(self):
        with pytest.raises(TypeError):
            GeneratorConfig(AH, THREE_LIMIT, 5, 6)
        with pytest.raises(TypeError):
            GeneratorConfig(kinds=AH, cap=3)

    @pytest.mark.parametrize(
        "args,error",
        [
            ((frozenset(),), ValueError),
            (("AH",), TypeError),
            ((AH, (2, 3, 5)), TypeError),
            ((AH, FIVE_LIMIT, 0), ValueError),
            ((AH, FIVE_LIMIT, True), TypeError),
        ],
    )
    def test_positional_arguments_are_checked(self, args, error):
        with pytest.raises(error):
            GeneratorConfig(*args)

    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            GeneratorConfig(kinds=frozenset())

    def test_cap_validated(self):
        with pytest.raises(ValueError):
            GeneratorConfig(max_generations=0)

    def test_kinds_frozen(self):
        cfg = GeneratorConfig(kinds={MeanKind.HARMONIC})
        assert isinstance(cfg.kinds, frozenset)

    def test_kinds_must_be_mean_kinds(self):
        # a string is not converted: "AH" would be the kinds 'A' and 'H'
        with pytest.raises(TypeError, match="'[AH]'"):
            GeneratorConfig(kinds="AH")
        with pytest.raises(TypeError, match="'G'"):
            GeneratorConfig(kinds={MeanKind.ARITHMETIC, "G"})

    def test_restriction_must_be_a_restriction(self):
        # a tuple of primes is not converted
        with pytest.raises(TypeError, match=r"\(2, 3, 5\)"):
            GeneratorConfig(restriction=(2, 3, 5))

    @pytest.mark.parametrize("cap", [True, 2.5, "3"])
    def test_cap_must_be_an_int(self, cap):
        # True is no cap of 1; 2.5 and "3" are no counts at all
        with pytest.raises(TypeError, match="max_generations"):
            GeneratorConfig(max_generations=cap)


@st.composite
def _products(draw):
    """A tone of the 13-limit: a product of odd primes up to 13, folded into [1, 2]."""
    exps = draw(st.lists(st.integers(-4, 4), min_size=5, max_size=5))
    product = ONE
    for prime, exp in zip((3, 5, 7, 11, 13), exps):
        product = product * Ratio(prime) ** exp
    return reduce_to_diapason(product)


def _wide_parts(low, high):
    """A power of 2, a power of 3 or an odd number in [low, high), if any."""
    powers = [n ** k for n in (2, 3) for k in range(high.bit_length())
              if low <= n ** k < high]
    odd = st.integers(low // 2, (high - 2) // 2).map(lambda k: 2 * k + 1)
    return st.one_of(st.sampled_from(powers), odd) if powers else odd


@st.composite
def _wide(draw):
    """A tone whose parts have 60-70 bits: it lies around 2pr = 2^128 for
    the pair p/q, r/s, where the kernel's harmonic mean changes path."""
    den = draw(_wide_parts(2**59, 2**69))
    return Ratio(draw(_wide_parts(den, 2 * den + 1)), den)


# Tones inside and outside the drawn prime limits, and wide ones.
_TONES = st.one_of(
    _products(), st.sampled_from([Ratio(7, 4), Ratio(11, 8), Ratio(8, 7), Ratio(3, 2)]), _wide()
)


class TestGenerateMeans:
    def test_tavoletta_single_pass(self):
        got = generate_means(canonical("T"), GeneratorConfig())
        assert got == {Ratio(5, 4), Ratio(3, 2), Ratio(5, 3)}

    def test_members_already_present_still_reported(self):
        # 3/2 is in the seed and is also the arithmetic mean of (1, 2)
        got = generate_means(canonical("T"), GeneratorConfig())
        assert Ratio(3, 2) in got

    def test_tavoletta_both_kinds_three_limit(self):
        cfg = GeneratorConfig(kinds=AH, restriction=THREE_LIMIT)
        assert generate_means(canonical("T"), cfg) == {Ratio(4, 3), Ratio(3, 2)}

    def test_limit_filters(self):
        cfg = GeneratorConfig(restriction=THREE_LIMIT)
        # under {2,3} the tavoletta contributes only its own 3/2
        assert generate_means(canonical("T"), cfg) == {Ratio(3, 2)}

    def test_needs_two_tones(self):
        with pytest.raises(ValueError):
            generate_means(Scale("solo", [Ratio(3, 2)]), GeneratorConfig())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_TONES, min_size=2, max_size=2, unique=True), prime_sets,
           st.sets(st.sampled_from(MeanKind), min_size=1))
    # 8/7 and 13/7 lie outside {2, 3}, yet their mean 147/98 reduces to 3/2
    @example([Ratio(8, 7), Ratio(13, 7)], frozenset({2, 3}), {MeanKind.ARITHMETIC})
    # pythagorean:steps=40's 3^40/2^63 and 3^41/2^64: their harmonic mean
    # has 65-bit parts, but mean_harmonic's a*b passes the guard
    @example([Ratio(3**40, 2**63), Ratio(3**41, 2**64)], frozenset({2, 3}), {MeanKind.HARMONIC})
    def test_a_pair_yields_its_means_in_the_limit(self, pair, primes, kinds):
        # Each mean built as a Ratio, then tested by is_smooth: the kernel's
        # decision on integer parts must agree with it, and it must raise
        # exactly what building the means in the kernel's kind order raises.
        config = GeneratorConfig(kinds=kinds, restriction=Restriction(primes))
        a, b = sorted(pair)
        seed = Scale("pair", [a, b])
        try:
            means = {mean_of_kind(a, b, kind) for kind in sorted(kinds, key=lambda k: k.value)}
        except RatioOverflowError as error:
            with pytest.raises(RatioOverflowError) as raised:
                generate_means(seed, config)
            assert str(raised.value) == str(error)
            return
        means.discard(None)
        expected = {m for m in means if is_smooth(m, config.restriction)}
        assert generate_means(seed, config) == expected

    def test_a_mean_past_the_guard_still_raises(self):
        # Coprime odd denominators of 127 bits: the reduced mean's
        # denominator has about 254 bits.  It lies outside every limit,
        # and the guard raises before the limit is tested.
        q, s = 2**127 - 1, 2**127 - 3
        pair = Scale("pair", [Ratio(q + 2, q), Ratio(s + 2, s)])
        for primes in ((2,), (2, 3, 5), (2, 3, 5, 7, 11, 13)):
            config = GeneratorConfig(restriction=Restriction(primes))
            with pytest.raises(RatioOverflowError):
                generate_means(pair, config)
            with pytest.raises(RatioOverflowError):
                mean_closure(pair, config)


class TestOneTestDecidesAPair:
    """For a = p/q < b = r/s in the limit, A = (ps + rq)/2qs and
    H = 2pr/(ps + rq) both lie in it exactly when ps + rq does."""

    @settings(max_examples=300, deadline=None)
    # pairs of SN2's tones often have their means in the limit
    @given(st.lists(_products(), min_size=2, max_size=2, unique=True)
           | st.lists(st.sampled_from(canonical("SN2").tones), min_size=2, max_size=2, unique=True),
           prime_sets)
    @example([ONE, Ratio(2)], frozenset({2}))
    @example([ONE, Ratio(5, 4)], frozenset({2}))  # ps + rq = 9
    @example([Ratio(5, 4), Ratio(3, 2)], frozenset({2}))  # ps + rq = 22
    def test_arithmetic_and_harmonic_agree_with_ps_plus_rq(self, pair, primes):
        a, b = sorted(pair)
        # the drawn set, widened by the primes of a and b
        parts = a.num * a.den * b.num * b.den
        primes = primes | {p for p in (3, 5, 7, 11, 13) if parts % p == 0}
        restriction = Restriction(primes)
        smooth = oracle.smooth(Fraction(a.num * b.den + b.num * a.den), sorted(primes))
        assert is_smooth(mean_of_kind(a, b, MeanKind.ARITHMETIC), restriction) is smooth
        assert is_smooth(mean_of_kind(a, b, MeanKind.HARMONIC), restriction) is smooth

    def test_a_tone_outside_the_limit_breaks_it(self):
        # 8/7 and 13/7 lie outside {2, 3}: ps + rq = 147 = 3 * 7^2 is not
        # 3-smooth, yet A = 147/98 reduces to 3/2, so the kernel decides
        # such a pair on each mean's reduced parts.
        a, b = Ratio(8, 7), Ratio(13, 7)
        assert a.num * b.den + b.num * a.den == 147 == 3 * 7**2
        assert not oracle.smooth(Fraction(147), [2, 3])
        assert mean_of_kind(a, b, MeanKind.ARITHMETIC) == Ratio(3, 2)
        assert not is_smooth(mean_of_kind(a, b, MeanKind.HARMONIC), THREE_LIMIT)
        config = GeneratorConfig(kinds=AH, restriction=THREE_LIMIT)
        assert generate_means(Scale("pair", [a, b]), config) == {Ratio(3, 2)}


def _smooth_numbers(primes, bound):
    """Every n <= bound that factors over `primes`, sorted."""
    numbers = [1]
    for p in primes:
        numbers = [n * p**k for n in numbers for k in range(bound.bit_length()) if n * p**k <= bound]
    return sorted(numbers)


class TestSUnitTable:
    """The table path's literal holds the coprime x < y <= 2x with x, y
    and x + y all 13-smooth: the S-unit equation x + y = z over
    {2, ..., 13} with y/x in (1, 2].  A search up to 2^17 re-enumerates
    it; that no solution lies past the bound is de Weger's theorem
    (J. Number Theory 26, 1987), not this test's."""

    def test_the_literal_is_every_solution_below_2_17(self):
        bound = 2**17
        smooth = _smooth_numbers((2, 3, 5, 7, 11, 13), 3 * bound)  # x + y <= 3x
        members = set(smooth)
        parts = smooth[: bisect.bisect_right(smooth, bound)]
        found = [
            (x, y)
            for i, x in enumerate(parts)
            for y in parts[i + 1 : bisect.bisect_right(parts, 2 * x)]
            if math.gcd(x, y) == 1 and x + y in members
        ]
        assert tuple(found) == generator._S_UNIT_PAIRS

    @pytest.mark.parametrize(
        "primes,count",
        [((2, 3), 1), ((2, 3, 5), 5), ((2, 3, 7), 4), ((2, 3, 5, 7), 13),
         ((2, 3, 5, 7, 11), 39), ((2, 3, 5, 7, 11, 13), 107)],
    )
    def test_entries_per_prime_set(self, primes, count):
        smooth = [all(oracle.smooth(Fraction(n), primes) for n in (x, y, x + y))
                  for x, y in generator._S_UNIT_PAIRS]
        assert sum(smooth) == count
        bounds, ups, means = generator._table_steps(Restriction(primes))
        assert len(bounds) == len(ups) == len(means) == count
        # the steps y/x in increasing order, each under floor(y/x·2^256)
        assert all(low < high for low, high in zip(bounds, bounds[1:]))
        keys = [(y << 256) // x for (x, y), ok in zip(generator._S_UNIT_PAIRS, smooth) if ok]
        assert bounds == tuple(sorted(keys))


# 3^38/2^60 times 1, 4/3 and 3/2: a narrow seed in the 5-limit (parts of
# up to 62 bits) whose means pass 2pr = 2^128 within two or three
# generations, and then, under A,H, overflow on the pair kernel's guard.
_C = Ratio(3**38, 2**60)
_WIDENING = Scale("widening", [_C, _C * Ratio(4, 3), _C * Ratio(3, 2)])


def _outcome(seed, config):
    """The closure's JSON trace, or its overflow message."""
    try:
        return mean_closure(seed, config).to_json_dict()
    except RatioOverflowError as error:
        return str(error)


class TestHandOff:
    """From its first wide pass a closure takes the pair kernel alone, so
    a narrow seed that turns wide gives the pair kernel's trace or
    overflow message, byte for byte."""

    @pytest.mark.parametrize(
        "primes,kinds,table_passes,pair_passes,overflow",
        [((2, 3, 5), "AH", 2, 1, 3), ((2, 3, 5, 7), "A", 3, 3, None), ((2, 3, 5, 7), "AH", 2, 1, 3)],
        ids=["5-AH", "7-A", "7-AH"],
    )
    def test_a_seed_that_turns_wide(self, primes, kinds, table_passes, pair_passes, overflow):
        config = _grid_config(primes, kinds, max_generations=10)
        assert not generator._wide(_WIDENING.tones)
        got, probed, paired = _probed(lambda: _outcome(_WIDENING, config))
        assert (len(probed), len(paired)) == (table_passes, pair_passes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(generator, "_table_probes", lambda seed, config: None)
            assert got == _outcome(_WIDENING, config)
        if overflow is None:
            assert got["fixpoint"] is True
            assert table_passes + pair_passes == len(got["generations"]) + 1  # the silent pass
        else:
            assert got.startswith(f"generation {overflow}: ratio part exceeds 128 bits")
            assert table_passes + pair_passes == overflow  # the pass that raises

    def test_the_cap_stops_the_pair_engine(self):
        # three table passes, the third wide, then one pair pass: the cap
        # of four stops the closure with no silent pass
        config = _grid_config((2, 3, 5, 7), "A", max_generations=4)
        got, probed, paired = _probed(lambda: _outcome(_WIDENING, config))
        assert (len(probed), len(paired)) == (3, 1)
        assert got["fixpoint"] is False and len(got["generations"]) == 4
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(generator, "_table_probes", lambda seed, config: None)
            assert got == _outcome(_WIDENING, config)


def _fibonacci_below(bound):
    fibs = [1, 2]
    while fibs[-1] + fibs[-2] <= bound:
        fibs.append(fibs[-1] + fibs[-2])
    return fibs


_PARTS = st.integers(1, 2**128)
_FIBS = _fibonacci_below(2**128)


class TestOrderKey:
    """`_order_key` orders Ratios with parts up to 2^128 exactly: the
    table path sorts and picks least witnesses on it alone."""

    @settings(max_examples=300)
    @given(_PARTS, _PARTS, _PARTS, _PARTS)
    @example(2**128, 2**128 - 1, 2**128 - 1, 2**128 - 2)  # 1/((2^128 - 1)(2^128 - 2)) apart
    @example(_FIBS[-1], _FIBS[-2], _FIBS[-2], _FIBS[-3])  # neighbouring convergents of the golden ratio
    @example(_FIBS[-2], _FIBS[-3], _FIBS[-3], _FIBS[-4])
    @example(2**128, 1, 2**128, 1)
    def test_keys_order_as_ratios(self, p, q, r, s):
        a, b = Ratio(p, q), Ratio(r, s)
        key_a, key_b = generator._order_key(a), generator._order_key(b)
        assert (key_a < key_b) is (Fraction(p, q) < Fraction(r, s))
        assert (key_a == key_b) is (Fraction(p, q) == Fraction(r, s))

    @pytest.mark.parametrize(
        "low,high",
        [
            (Ratio(2**128, 2**128 - 1), Ratio(2**128 - 1, 2**128 - 2)),
            # Farey neighbours whose keys would coincide at a 255-bit shift
            (Ratio(340282366920938463463374607431768210673, 340282366920938463463374607431768144500),
             Ratio(328830432882389055727093416451299623709, 328830432882389055727093416451299559763)),
        ],
        ids=["2^128", "farey"],
    )
    def test_the_closest_tones_are_one_key_apart(self, low, high):
        # qs <= 2^256 apart by 1/qs: a shift of 256 bits is just wide enough
        assert high.num * low.den - low.num * high.den == 1
        assert generator._order_key(high) - generator._order_key(low) == 1


def _step_probes(run):
    """What `run()` returns, and how many neighbours f·y/x and f·x/y the
    table path probed: each probe adds or subtracts a step's b/a key."""
    probes = 0

    class Counted(int):
        def __radd__(self, other):
            nonlocal probes
            probes += 1
            return other + int(self)

        def __rsub__(self, other):
            nonlocal probes
            probes += 1
            return other - int(self)

    table_steps = generator._table_steps

    def counted(restriction):
        bounds, ups, means = table_steps(restriction)
        return bounds, tuple(map(Counted, ups)), means

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generator, "_table_steps", counted)
        result = run()
    return result, probes


def _steps(primes):
    """The table's steps y/x over `primes`, as Fractions."""
    return [Fraction(y, x) for x, y in generator._S_UNIT_PAIRS
            if all(oracle.smooth(Fraction(n), primes) for n in (x, y, x + y))]


def _window_probes(tone, steps):
    """How many steps a fresh `tone` needs: those leading up to at most
    2, and those leading down to at least 1."""
    f = Fraction(tone.num, tone.den)
    return sum(f * s <= 2 for s in steps) + sum(s <= f for s in steps)


class TestProbeWindows:
    """A fresh tone f probes up only through the steps y/x <= 2/f and
    down only through those y/x <= f: every other probe lands outside
    [1, 2].  The windows are two `bisect_right` counts over the steps'
    order keys, and they are exact: a step y/x past a bound whose
    denominator n is at most 2^128 exceeds it by at least 1/xn > 2^-256,
    so its key lies past the bound's."""

    @pytest.mark.parametrize(
        "tones,primes,kinds,cap",
        [
            ((Ratio(7, 5), Ratio(10, 7)), (2, 3, 5, 7), "AH", 64),
            ((Ratio(140, 99), Ratio(99, 70)), (2, 3, 5, 7, 11), "A", 12),
            # T: 4/3 · 3/2 = 2 and 3/2 ÷ 3/2 = 1 sit on the bounds
            ((Ratio(4, 3), Ratio(3, 2)), (2, 3, 5), "AH", 64),
        ],
        ids=["straddling-7-AH", "straddling-11-A-capped", "T-5-AH"],
    )
    def test_each_fresh_tone_probes_its_windows(self, tones, primes, kinds, cap):
        seed = Scale("seed", [ONE, *tones, Ratio(2)])
        config = _grid_config(primes, kinds, max_generations=cap)
        (got, probes), probed, _ = _probed(lambda: _step_probes(lambda: _outcome(seed, config)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(generator, "_table_probes", lambda seed, config: None)
            assert got == _outcome(seed, config)
        assert len(probed) == len(got["generations"]) + got["fixpoint"]  # the silent pass
        steps = _steps(primes)
        assert probes == sum(_window_probes(tone, steps) for fresh in probed for tone in fresh)

    @pytest.mark.parametrize(
        "name,primes,kinds,count",
        [("T", (2, 3, 5, 7, 11), "A", 6986), ("T5", (2, 3, 5, 7), "AH", 1660),
         ("T", (2, 3, 5, 7), "A", 261), ("T", (2, 3, 5), "AH", 72)],
        ids=["T-11-A", "T5-7-AH", "T-7-A", "T-5-AH"],
    )
    def test_ladder_probe_counts(self, name, primes, kinds, count):
        # the octave split at √2 probed 10,738, 2,850, 437 and 144
        config = _grid_config(primes, kinds)
        (trace, probes), probed, _ = _probed(lambda: _step_probes(lambda: mean_closure(canonical(name), config)))
        assert trace.fixpoint_reached
        steps = _steps(primes)
        assert probes == sum(_window_probes(tone, steps) for fresh in probed for tone in fresh) == count

    @settings(max_examples=300)
    @given(st.integers(1, 2**64).flatmap(
        lambda den: st.integers(den, min(2 * den, 2**64)).map(lambda num: Ratio(num, den))))
    @example(Ratio(1))
    @example(Ratio(2))
    @example(Ratio(4, 3))  # 4/3 · 3/2 = 2
    @example(Ratio(3, 2))  # 3/2 ÷ 3/2 = 1
    @example(Ratio(2**64, 2**64 - 1))
    @example(Ratio(2**64 - 1, 2**63))
    def test_windows_hold_exactly_the_steps_inside_the_octave(self, tone):
        config = _grid_config((2, 3, 5, 7, 11, 13), "AH")
        probes = generator._Probes([], config)
        probes.add(0, tone)
        (_, above, below), = probes.fresh
        steps = sorted(_steps((2, 3, 5, 7, 11, 13)))
        f = Fraction(tone.num, tone.den)
        assert all(1 <= f * s <= 2 for s in steps[:above])
        assert all(f * s > 2 for s in steps[above:])
        assert all(1 <= f / s <= 2 for s in steps[:below])
        assert all(f / s < 1 for s in steps[below:])


# (q + 1)/q and (2q - 1)/q, q = 2^127 - 1: their arithmetic mean 3q^2/2q^2
# reduces to 3/2 in generation 1; in generation 2 the mean (5q + 2)/4q of
# (q + 1)/q and 3/2 has a 130-bit numerator.
_Q = 2**127 - 1
_OVERFLOWS_IN_GENERATION_2 = Scale("wide", [Ratio(_Q + 1, _Q), Ratio(2 * _Q - 1, _Q)])


class TestOverflowContext:
    def test_closure_names_the_generation_pair_and_kind(self):
        with pytest.raises(RatioOverflowError) as raised:
            mean_closure(_OVERFLOWS_IN_GENERATION_2)
        assert str(raised.value) == (
            f"generation 2: ratio part exceeds 128 bits, "
            f"at the arithmetic mean of {_Q + 1}/{_Q} and 3/2"
        )

    def test_a_harmonic_overflow_names_its_kind(self):
        # mean_harmonic forms a*b before it divides; this seed pair's
        # product passes the guard
        seed = pythagorean_by_diapente(40)
        cfg = GeneratorConfig(kinds=frozenset({MeanKind.HARMONIC}), restriction=THREE_LIMIT)
        with pytest.raises(RatioOverflowError) as raised:
            mean_closure(seed, cfg)
        assert str(raised.value) == (
            "generation 1: ratio part exceeds 128 bits, at the harmonic mean of "
            f"{3**40}/{2**63} and {3**41}/{2**64}"
        )

    def test_one_pass_names_the_pair_and_kind(self):
        seed = Scale("pair", [Ratio(_Q + 1, _Q), Ratio(3, 2)])
        with pytest.raises(RatioOverflowError) as raised:
            generate_means(seed, GeneratorConfig())
        assert str(raised.value) == (
            f"ratio part exceeds 128 bits, at the arithmetic mean of {_Q + 1}/{_Q} and 3/2"
        )


class TestTraceDigests:
    """SHA-256 of the JSON trace of closures that no golden covers:
    every tone, generation split and witness stays as it was."""

    @pytest.mark.parametrize(
        "name,primes,kinds,tones,digest",
        [
            ("T5", (2, 3, 5, 7), "AH", 150,
             "cf730fe5c59826149589b553c8c1f7aad5d22fe869512938a6a69cf5bb88d247"),
            ("T", (2, 3, 5, 7, 11), "A", 182,
             "11deb6deb70402e0722cfae318b567543134ce2ad4b63f13d3c9382763b744e5"),
            # G adds nothing to T under the 5-limit: A,H and A,G,H agree
            ("T", (2, 3, 5), "AH", 24,
             "ee711e4090aaa893f1aa745ac9fc9bc6dcb58e571dbc125bc765cfdb6557d564"),
            ("T", (2, 3, 5), "AGH", 24,
             "ee711e4090aaa893f1aa745ac9fc9bc6dcb58e571dbc125bc765cfdb6557d564"),
            ("NATURAL", (2, 3, 5, 7), "AG", 23,
             "abecbbdc368758efb4da60c20b4e727ae577c2a5fa467c74d124b27bc90358d9"),
        ],
        ids=["T5-7-AH", "T-11-A", "T-5-AH", "T-5-AGH", "NATURAL-7-AG"],
    )
    def test_digest(self, name, primes, kinds, tones, digest):
        trace = mean_closure(canonical(name), _grid_config(primes, kinds))
        assert trace.fixpoint_reached
        assert len(trace.final) == tones
        assert hashlib.sha256(json.dumps(trace.to_json_dict()).encode()).hexdigest() == digest

    def test_grid_digest(self):
        # 105 capped closures: seeds in and outside the limit (8/7 and
        # 13/7 have the in-limit mean 3/2 under 2,3) and a wide seed whose
        # harmonic means overflow; an overflow counts by its message.
        seeds = [
            canonical("T"),
            canonical("NATURAL"),
            pythagorean_by_diapente(40),
            Scale("7/4", [ONE, Ratio(7, 4), Ratio(2)]),
            Scale("8/7,13/7", [ONE, Ratio(8, 7), Ratio(13, 7), Ratio(2)]),
        ]
        outcomes = []
        for seed in seeds:
            for primes in _DUALITY_PRIMES:
                for kinds in _ALL_KIND_SETS:
                    config = _grid_config(primes, kinds, max_generations=6)
                    try:
                        outcomes.append(mean_closure(seed, config).to_json_dict())
                    except RatioOverflowError as error:
                        outcomes.append(str(error))
        assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == (
            "194d0a9602ef308bd2e1c145fc301db849789a57cdbdebf29d159c6def2cf029"
        )


class TestClosureFromTavoletta:
    def test_reaches_first_natural_sound_set(self):
        trace = mean_closure(canonical("T"))
        assert trace.fixpoint_reached
        assert list(trace.final) == list(canonical("SN1"))
        assert trace.final.name == "T-closure"

    def test_generation_structure(self):
        trace = mean_closure(canonical("T"))
        assert [[str(t) for t in g.added] for g in trace.generations] == [
            ["5/4", "5/3"],
            ["9/8"],
            ["25/16"],
            ["45/32"],
            ["81/64"],
        ]

    def test_witnesses_are_smallest_parents(self):
        trace = mean_closure(canonical("T"))
        flat = [
            (str(w.tone), str(w.a), str(w.b), w.kind.value)
            for g in trace.generations
            for w in g.witnesses
        ]
        assert flat == [
            ("5/4", "1/1", "3/2", "A"),
            ("5/3", "4/3", "2/1", "A"),
            ("9/8", "1/1", "5/4", "A"),
            ("25/16", "9/8", "2/1", "A"),
            ("45/32", "5/4", "25/16", "A"),
            ("81/64", "9/8", "45/32", "A"),
        ]

    def test_added_tones_follow_generation_order(self):
        trace = mean_closure(canonical("T"))
        added = trace.added_tones()
        assert [str(t) for t in added] == ["5/4", "5/3", "9/8", "25/16", "45/32", "81/64"]
        assert sorted(str(t) for t in set(canonical("SN1")) - set(canonical("T"))) == sorted(
            str(t) for t in added
        )


class TestClosureFromNatural:
    def test_reaches_second_natural_sound_set(self):
        trace = mean_closure(canonical("NATURAL"))
        assert trace.fixpoint_reached
        assert list(trace.final) == list(canonical("SN2"))
        assert [[str(t) for t in g.added] for g in trace.generations] == [
            ["25/16", "27/16"],
            ["45/32"],
            ["81/64"],
        ]

    def test_first_generation_witnesses(self):
        trace = mean_closure(canonical("NATURAL"))
        got = [
            (str(w.tone), str(w.a), str(w.b)) for w in trace.generations[0].witnesses
        ]
        assert got == [("25/16", "9/8", "2/1"), ("27/16", "3/2", "15/8")]


class TestOtherSeeds:
    def test_pythagorean_is_closed_in_its_own_limit(self):
        cfg = GeneratorConfig(restriction=THREE_LIMIT)
        trace = mean_closure(canonical("PYTHAGOREAN"), cfg)
        assert trace.fixpoint_reached
        assert trace.generations == ()
        assert list(trace.final) == list(canonical("PYTHAGOREAN"))

    def test_pythagorean_grows_in_five_limit(self):
        trace = mean_closure(canonical("PYTHAGOREAN"))
        assert trace.fixpoint_reached
        assert len(trace.final) == 14
        assert [[str(t) for t in g.added] for g in trace.generations] == [
            ["5/4", "45/32", "25/16", "405/256", "5/3"],
            ["729/512"],
        ]

    def test_five_part_division_closes_to_sn1(self):
        trace = mean_closure(canonical("T5"))
        assert list(trace.final) == list(canonical("SN1"))
        assert len(trace.generations) == 4

    def test_both_sound_sets_are_fixpoints(self):
        for name in ("SN1", "SN2"):
            trace = mean_closure(canonical(name))
            assert trace.fixpoint_reached
            assert trace.generations == ()
            assert list(trace.final) == list(canonical(name))

    def test_modal_sets_are_fixpoints(self):
        for name in ("FINALES", "HEXACHORD_NATURAL"):
            trace = mean_closure(canonical(name))
            assert trace.fixpoint_reached
            assert trace.generations == ()

    def test_two_kinds_terminate_at_twenty_four(self):
        trace = mean_closure(canonical("T"), GeneratorConfig(kinds=AH))
        assert trace.fixpoint_reached
        assert len(trace.final) == 24
        assert [len(g.added) for g in trace.generations] == [4, 6, 4, 4, 2]
        # the Senario thirds and sixths show up only under the harmonic kind
        assert Ratio(6, 5) in trace.final
        assert Ratio(8, 5) in trace.final

    def test_geometric_closure_past_the_magnitude_guard(self):
        # One seed pair's product needs more than 128 bits; every rational
        # root is already a seed tone, so the seed is its own closure.
        seed = pythagorean_by_diapente(40)
        cfg = GeneratorConfig(kinds=frozenset({MeanKind.GEOMETRIC}), restriction=THREE_LIMIT)
        trace = mean_closure(seed, cfg)
        assert trace.fixpoint_reached
        assert trace.generations == ()
        assert list(trace.final) == list(seed)


class TestCap:
    def test_cap_stops_early(self):
        trace = mean_closure(canonical("T"), GeneratorConfig(max_generations=1))
        assert not trace.fixpoint_reached
        assert len(trace.generations) == 1
        assert len(trace.final) == 6

    def test_capped_final_is_partial(self):
        trace = mean_closure(canonical("T"), GeneratorConfig(max_generations=2))
        assert [str(t) for t in trace.final] == [
            "1/1", "9/8", "5/4", "4/3", "3/2", "5/3", "2/1",
        ]


class TestTrace:
    def test_json_shape(self):
        trace = mean_closure(canonical("T"))
        data = trace.to_json_dict()
        assert sorted(data.keys()) == ["final", "fixpoint", "generations", "seed"]
        assert data["seed"] == ["1/1", "4/3", "3/2", "2/1"]
        assert data["fixpoint"] is True
        assert data["final"] == [str(t) for t in canonical("SN1")]
        first = data["generations"][0]
        assert first["added"] == ["5/4", "5/3"]
        assert first["witnesses"][0] == {
            "tone": "5/4", "a": "1/1", "b": "3/2", "kind": "A",
        }

    def test_json_serializable(self):
        trace = mean_closure(canonical("NATURAL"))
        text = json.dumps(trace.to_json_dict())
        assert json.loads(text)["fixpoint"] is True

    def test_deterministic(self):
        a = mean_closure(canonical("T")).to_json_dict()
        b = mean_closure(canonical("T")).to_json_dict()
        assert json.dumps(a) == json.dumps(b)


class TestConfluence:
    def test_insertion_order_does_not_matter(self):
        assert closure_order_independence(canonical("T"), GeneratorConfig(), trials=20)
        assert closure_order_independence(
            canonical("NATURAL"), GeneratorConfig(), trials=20
        )

    def test_requires_a_terminating_config(self):
        with pytest.raises(ValueError):
            closure_order_independence(
                canonical("T"), GeneratorConfig(max_generations=1), trials=3
            )

    def test_seeded_runs_repeat(self):
        cfg = GeneratorConfig(kinds=AH)
        a = closure_order_independence(canonical("T"), cfg, trials=10, rng_seed=7)
        b = closure_order_independence(canonical("T"), cfg, trials=10, rng_seed=7)
        assert a is True and b is True

    def test_zero_trials_certify_nothing(self):
        assert closure_order_independence(canonical("T"), GeneratorConfig(), trials=0) is True

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            closure_order_independence(canonical("T"), GeneratorConfig(), trials=-3)

    @staticmethod
    def _certify_against(edit):
        """Certify T against a batch closure whose trace `edit` changed:
        the certifier's answer, then the reference's."""
        return certify_edited(canonical("T"), GeneratorConfig(), 3, 0, edit)

    def test_a_set_that_is_not_closed_fails(self):
        # 81/64, the arithmetic mean of 9/8 and 45/32, is left out; every
        # other tone of SN1 is still reached without it
        got = self._certify_against(lambda t: with_final(t, set(t.final) - {Ratio(81, 64)}))
        assert got == (False, False)

    def test_an_unreachable_tone_fails(self):
        # 135/128 is 5-limit, and its arithmetic mean with every tone of
        # SN1 is either in SN1 or outside the limit: the set stays closed,
        # but no insertion order reaches it
        got = self._certify_against(lambda t: with_final(t, set(t.final) | {Ratio(135, 128)}))
        assert got == (False, False)

    def test_a_trace_cut_short_fails(self):
        # without its last generation (81/64) the trace still accounts for
        # its final set and witnesses every tone, but that set is not closed
        def cut(trace):
            *kept, last = trace.generations
            trace = ClosureTrace(trace.seed, tuple(kept), trace.fixpoint_reached, trace.final)
            return with_final(trace, set(trace.final) - set(last.added))

        assert self._certify_against(cut) == (False, False)

    def test_a_wrong_generation_split_fails(self):
        # The certificate is the trace, so a wrong generation split
        # certifies nothing, even around the right final set.  Merged into
        # generation 1, 9/8 is born with 5/4, and A(1, 5/4) is the only
        # pair that yields it; the reference reads only the final set.
        def merge_first_two(trace):
            first, second, *rest = trace.generations
            assert second.added == (Ratio(9, 8),)
            merged = Generation(
                tuple(sorted(first.added + second.added)),
                tuple(sorted(first.witnesses + second.witnesses)),
            )
            return ClosureTrace(trace.seed, (merged, *rest), trace.fixpoint_reached, trace.final)

        assert self._certify_against(merge_first_two) == (False, True)


class TestClosureInvariants:
    def test_seed_always_included(self):
        for name in ("T", "T5", "NATURAL", "PYTHAGOREAN"):
            trace = mean_closure(canonical(name))
            assert set(canonical(name)) <= set(trace.final)

    def test_fixpoint_really_is_closed(self):
        for name in ("T", "NATURAL"):
            trace = mean_closure(canonical(name))
            assert trace.fixpoint_reached
            assert generate_means(trace.final, GeneratorConfig()) <= set(trace.final)

    def test_smoothness_preserved(self):
        from diapason.exact import is_smooth

        trace = mean_closure(canonical("T"), GeneratorConfig(kinds=AH))
        for tone in trace.final:
            assert is_smooth(tone, FIVE_LIMIT)

    def test_generations_grow_the_set(self):
        trace = mean_closure(canonical("T"))
        seen = set(canonical("T"))
        for generation in trace.generations:
            assert generation.added  # productive generations only
            assert not (set(generation.added) & seen)
            seen |= set(generation.added)


def full_rescan_closure(seed, config):
    """Reference closure: every pass rescans every pair of the whole set.

    Returns (generations, fixpoint, final) in the trace's own terms; the
    least witness is the first one met in sorted (a, b, kind) order.
    """
    kinds = sorted(config.kinds, key=lambda k: k.value)
    current, generations = set(seed.tones), []
    for _ in range(config.max_generations):
        found = {}
        for a, b in itertools.combinations(sorted(current), 2):
            for kind in kinds:
                mean = mean_of_kind(a, b, kind)
                if mean is not None and is_smooth(mean, config.restriction):
                    found.setdefault(mean, Witness(mean, a, b, kind))
        added = tuple(sorted(set(found) - current))
        if not added:
            return tuple(generations), True, sorted(current)
        generations.append((added, tuple(found[t] for t in added)))
        current.update(added)
    return tuple(generations), False, sorted(current)


_KIND_SETS = ("A", "AH", "AGH")
_GRID = [
    pytest.param(name, primes, kinds, id=f"{name}-{primes[-1]}-{kinds}")
    for name in ("T", "NATURAL", "T5")
    for primes in ((2, 3, 5), (2, 3, 5, 7))
    for kinds in _KIND_SETS
]
_SEVEN_FOUR = Scale("T+7/4", [ONE, Ratio(4, 3), Ratio(3, 2), Ratio(7, 4), Ratio(2)])


def _grid_config(primes, kinds, **extra):
    return GeneratorConfig(kinds=map(MeanKind, kinds), restriction=Restriction(primes), **extra)


def _assert_same_as_full_rescan(seed, config):
    trace = mean_closure(seed, config)
    generations, fixpoint, final = full_rescan_closure(seed, config)
    assert tuple(tuple(g) for g in trace.generations) == generations
    assert trace.fixpoint_reached is fixpoint
    assert list(trace.final) == final


class TestSemiNaiveMatchesFullRescan:
    @pytest.mark.parametrize("name,primes,kinds", _GRID)
    def test_grid(self, name, primes, kinds):
        _assert_same_as_full_rescan(canonical(name), _grid_config(primes, kinds))

    def test_seed_tone_outside_the_limit(self):
        # 7/4 is no 5-limit tone, yet it still pairs with the others
        for kinds in _KIND_SETS:
            _assert_same_as_full_rescan(_SEVEN_FOUR, _grid_config((2, 3, 5), kinds))

    def test_generation_cap(self):
        config = _grid_config((2, 3, 5, 7), "AH", max_generations=2)
        assert not mean_closure(canonical("T"), config).fixpoint_reached
        _assert_same_as_full_rescan(canonical("T"), config)

    @pytest.mark.parametrize("name,primes,kinds", _GRID)
    def test_witnesses_touch_the_previous_generation(self, name, primes, kinds):
        trace = mean_closure(canonical(name), _grid_config(primes, kinds))
        for previous, generation in zip(trace.generations, trace.generations[1:]):
            fresh = set(previous.added)
            for w in generation.witnesses:
                assert w.a in fresh or w.b in fresh


_OCTAVE = Scale("octave", [ONE, Ratio(2)])
_ALL_KIND_SETS = ("A", "G", "H", "AG", "AH", "GH", "AGH")
_DUALITY_PRIMES = [(2, 3), (2, 3, 5), (2, 3, 5, 7)]


class TestDuality:
    """iota(t) = 2/t swaps the arithmetic and harmonic closures.  The
    wide seed pythagorean:steps=40 is left out: under H it overflows in
    mean_harmonic's a*b while its A dual reaches a fixpoint, so it joins
    when mean_harmonic is mended (ROADMAP item 15)."""

    @pytest.mark.parametrize("kinds", _ALL_KIND_SETS)
    @pytest.mark.parametrize("primes", _DUALITY_PRIMES, ids=["3", "5", "7"])
    @pytest.mark.parametrize("name", ["octave", "T", "NATURAL", "SN2"])
    def test_closures_mirror_each_other(self, name, primes, kinds):
        seed = _OCTAVE if name == "octave" else canonical(name)
        assert_dual_closures(seed, primes, {MeanKind(k) for k in kinds}, 8)

    @pytest.mark.parametrize("kinds", ["AH", "G"])
    @pytest.mark.parametrize("primes", _DUALITY_PRIMES, ids=["3", "5", "7"])
    @pytest.mark.parametrize("seed", [_OCTAVE, canonical("T")], ids=["octave", "T"])
    def test_a_symmetric_seed_has_a_symmetric_fixpoint(self, seed, primes, kinds):
        trace = mean_closure(seed, _grid_config(primes, kinds))
        assert trace.fixpoint_reached
        assert mirror(trace.final.tones) == list(trace.final.tones)


def _mean_calls(run):
    """What `run()` returns, and how many means it had the pair kernel compute.

    The kernel calls `mean_geometric` for each pair's geometric mean.  It
    builds an arithmetic or harmonic mean with one `_from_parts` call
    only when it keeps it, or when the pair holds a tone outside the
    limit; a pair of in-limit tones keeps both or neither, on one
    divisibility test of ps + rq that calls none of these.  Past the
    128-bit guard it calls `mean_of_kind`.  So the calls count the pairs
    scanned, once per kind that computes a mean there.  The table path
    calls `_from_parts` once per new arithmetic or harmonic tone, and
    `mean_geometric` once per new geometric tone.
    """
    calls = 0

    def counting(function):
        def counted(*args):
            nonlocal calls
            calls += 1
            return function(*args)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_from_parts", "mean_geometric", "mean_of_kind"):
            mp.setattr(generator, name, counting(getattr(generator, name)))
        result = run()
    return result, calls


def _pair_means(tones, config):
    """The means a scan of every pair of `tones` computes: C(n, 2)
    geometric ones, and an arithmetic and a harmonic one for each pair
    that holds a tone outside the limit or whose arithmetic mean lies in
    the limit (for in-limit tones, then its harmonic one does)."""
    restriction = config.restriction
    pairs = list(itertools.combinations(tones, 2))
    computed = sum(
        not (is_smooth(a, restriction) and is_smooth(b, restriction))
        or is_smooth(mean_of_kind(a, b, MeanKind.ARITHMETIC), restriction)
        for a, b in pairs
    )
    paired = len(config.kinds - {MeanKind.GEOMETRIC})
    return len(pairs) * (MeanKind.GEOMETRIC in config.kinds) + paired * computed


def _probed(run):
    """What `run()` returns, then the tones each table-path pass and each
    pair-kernel pass took as fresh: two lists, one entry per pass."""
    probed, paired = [], []
    probe_witnesses, pair_witnesses = generator._Probes.witnesses, generator._Pairs.witnesses

    def probe_spied(probes):
        probed.append([probes.tones[key][1] for key, _, _ in probes.fresh])
        return probe_witnesses(probes)

    def pair_spied(pairs):
        paired.append(list(pairs.fresh))
        return pair_witnesses(pairs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generator._Probes, "witnesses", probe_spied)
        mp.setattr(generator._Pairs, "witnesses", pair_spied)
        result = run()
    return result, probed, paired


# T under {2, 3, 7, 17} closes to 7, 24 and 66 tones under A, AH and AGH:
# 17 lies past the table, so it takes the pair kernel, as _SEVEN_FOUR
# does under the 5-limit for its tone 7/4.
_PAIR_KERNEL_CLOSURES = [
    pytest.param(seed, primes, kinds, id=f"{name}-{primes[-1]}-{kinds}")
    for name, seed, primes in (("T", canonical("T"), (2, 3, 7, 17)), ("T+7/4", _SEVEN_FOUR, (2, 3, 5)))
    for kinds in _KIND_SETS
]


class TestEachPairOnce:
    """Each pass takes only the last generation as fresh: a closure that
    went back to full rescans keeps its traces, not its cost.  The table
    path probes each tone of the fixpoint as fresh exactly once, and the
    pair kernel computes each pair's means exactly once."""

    @pytest.mark.parametrize("name,primes,kinds", _GRID)
    def test_closure(self, name, primes, kinds):
        config = _grid_config(primes, kinds)
        trace, probed, _ = _probed(lambda: mean_closure(canonical(name), config))
        assert trace.fixpoint_reached
        assert len(probed) == len(trace.generations) + 1
        assert sorted(tone for fresh in probed for tone in fresh) == list(trace.final.tones)

    @pytest.mark.parametrize("seed,primes,kinds", _PAIR_KERNEL_CLOSURES)
    def test_pair_kernel(self, seed, primes, kinds):
        config = _grid_config(primes, kinds)
        (trace, calls), probed, paired = _probed(lambda: _mean_calls(lambda: mean_closure(seed, config)))
        assert trace.fixpoint_reached and probed == []
        assert len(paired) == len(trace.generations) + 1
        assert calls == _pair_means(trace.final.tones, config)

    @pytest.mark.parametrize(
        "name,primes,kinds",
        [("NATURAL", (2, 3, 5), "A"), ("T", (2, 3, 5), "AH"), ("T", (2, 3, 5, 7), "A")],
        ids=["NATURAL-5-A", "T-5-AH", "T-7-A"],
    )
    def test_certifier(self, name, primes, kinds):
        # the batch closure takes the table path and builds each new A
        # or H tone once; the certifier scans the pairs of the fixpoint once
        config = _grid_config(primes, kinds)
        certified, calls = _mean_calls(
            lambda: closure_order_independence(canonical(name), config, trials=5)
        )
        assert certified is True
        batch = mean_closure(canonical(name), config)
        built = sum(w.kind is not MeanKind.GEOMETRIC for g in batch.generations for w in g.witnesses)
        assert calls == _pair_means(batch.final.tones, config) + built


def _comparisons(run, names=("__lt__",)):
    """What `run()` returns, and how many times it called the Ratio
    comparisons `names`."""
    calls = 0

    def counting(compare):
        def counted(self, other):
            nonlocal calls
            calls += 1
            return compare(self, other)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            mp.setattr(Ratio, name, counting(getattr(Ratio, name)))
        result = run()
    return result, calls


class TestMergeNotResort:
    """Each pair-kernel pass merges its sorted new tones into the sorted
    set.  With n tones after a generation of m, sorting the m and
    merging them costs at most 2n + m·ceil(log2 n) comparisons; the
    bound allows n - 1 more for the final Scale's neighbours.  A full
    re-sort every pass took 5,359 comparisons for T5-7-AH and 17,215 for
    T-11-A, where this bound is 2,525 and 6,888.  Those two take the
    table path, which compares no Ratio at all; T under {2, 3, 7, 17}
    takes the pair kernel, whose merges must compare."""

    @pytest.mark.parametrize(
        "name,primes,kinds",
        [("T5", (2, 3, 5, 7), "AH"), ("T", (2, 3, 5, 7, 11), "A"), ("T", (2, 3, 7, 17), "AH")],
        ids=["T5-7-AH", "T-11-A", "T-17-AH"],
    )
    def test_closure(self, name, primes, kinds):
        seed, config = canonical(name), _grid_config(primes, kinds)
        trace, calls = _comparisons(lambda: mean_closure(seed, config))
        n, bound = len(seed), len(trace.final) - 1
        for generation in trace.generations:
            m = len(generation.added)
            n += m
            bound += 2 * n + m * math.ceil(math.log2(n))
        assert calls <= bound
        if primes[-1] > 13:  # the pair kernel's merges compare Ratios
            assert calls > 0


class TestTablePathComparesNoRatios:
    """The table path decides every order on integer keys, and the final
    Scale checks its tones on integer parts: a closure calls no Ratio
    comparison at all."""

    @pytest.mark.parametrize(
        "name,primes,kinds",
        [("T5", (2, 3, 5, 7), "AH"), ("T", (2, 3, 5, 7, 11), "A"),
         ("T", (2, 3, 5), "AGH"), ("NATURAL", (2, 3, 5, 7), "AG")],
        ids=["T5-7-AH", "T-11-A", "T-5-AGH", "NATURAL-7-AG"],
    )
    def test_closure(self, name, primes, kinds):
        seed, config = canonical(name), _grid_config(primes, kinds)
        (trace, calls), probed, _ = _probed(
            lambda: _comparisons(lambda: mean_closure(seed, config), ("__lt__", "__le__", "__eq__"))
        )
        assert trace.fixpoint_reached and len(probed) == len(trace.generations) + 1
        assert calls == 0


def full_rescan_certify(seed, config, trials, rng_seed):
    """Reference certifier: `trials` random insertion orders, recomputing
    all candidates after every insertion.  True iff every trial ends on
    the batch fixpoint's tones."""
    final = set(generator.mean_closure(seed, config).final.tones)
    rng = random.Random(rng_seed)
    for _ in range(trials):
        current = set(seed.tones)
        while True:
            candidates = sorted(generate_means(Scale("s", sorted(current)), config) - current)
            if not candidates:
                break
            current.add(rng.choice(candidates))
        if current != final:
            return False
    return True


@pytest.mark.parametrize("rng_seed", [0, 7])
@pytest.mark.parametrize(
    "seed,config,trials",
    [
        (canonical("NATURAL"), GeneratorConfig(), 20),
        (canonical("T"), GeneratorConfig(kinds=AH), 3),
        (canonical("T"), _grid_config((2, 3, 5, 7), "A"), 3),
        (_SEVEN_FOUR, _grid_config((2, 3, 5), "AGH"), 3),
    ],
    ids=["NATURAL-5-A", "T-5-AH", "T-7-A", "T+7/4-5-AGH"],
)
def test_certifier_answers_as_full_rescan(seed, config, trials, rng_seed):
    certified = closure_order_independence(seed, config, trials, rng_seed)
    assert certified is full_rescan_certify(seed, config, trials, rng_seed) is True


def with_final(trace, tones):
    """`trace` with the final scale's tones replaced by `tones`."""
    final = Scale(trace.final.name, sorted(tones))
    return ClosureTrace(trace.seed, trace.generations, trace.fixpoint_reached, final)


def certify_edited(seed, config, trials, rng_seed, edit):
    """The certifier's answer, then the reference's, when the batch
    closure returns `edit(trace)` instead of its trace."""
    real = generator.mean_closure
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generator, "mean_closure", lambda seed, config: edit(real(seed, config)))
        return (
            closure_order_independence(seed, config, trials, rng_seed),
            full_rescan_certify(seed, config, trials, rng_seed),
        )


_FOREIGN = [Ratio(135, 128), Ratio(81, 80), Ratio(7, 5), Ratio(25, 24), Ratio(16, 15)]


@settings(max_examples=50, deadline=None)
@given(
    st.sets(st.sampled_from(SEED_POOL), min_size=2, max_size=5).map(sorted),
    st.sampled_from([(2, 3, 5), (2, 3, 5, 7)]),
    st.sets(st.sampled_from(MeanKind), min_size=1),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_certifier_answers_as_full_rescan_on_any_config(
    seed, primes, kinds, trials, rng_seed, data
):
    # seed tones may lie outside the limit (7/4, 7/6, 8/7 under 5); the
    # cap keeps the cubic full rescan to small fixpoints.  The final set
    # is kept, loses one added tone or gains one foreign tone, so both
    # answers come up.
    config = GeneratorConfig(
        kinds=kinds, restriction=Restriction(primes), max_generations=MAX_GENERATIONS
    )
    scale = Scale("seed", [Ratio(t.numerator, t.denominator) for t in seed])
    trace = mean_closure(scale, config)
    assume(trace.fixpoint_reached)
    tones = set(trace.final)
    edit = data.draw(st.sampled_from(["keep", "drop", "add"]))
    if edit == "drop" and trace.generations:
        tones.remove(data.draw(st.sampled_from(trace.added_tones())))
    elif edit == "add":
        tones.add(data.draw(st.sampled_from(_FOREIGN)))
    certified, reference = certify_edited(
        scale, config, trials, rng_seed, lambda t: with_final(t, tones)
    )
    assert certified is reference
