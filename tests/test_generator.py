"""Mean-generator closure: single passes, fixpoints, traces, confluence."""

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from diapason import generator
from diapason.exact import FIVE_LIMIT, ONE, THREE_LIMIT, Ratio, Restriction, is_smooth
from diapason.generator import (
    ClosureTrace,
    GeneratorConfig,
    Witness,
    closure_order_independence,
    generate_means,
    mean_closure,
)
from diapason.means import MeanKind, mean_of_kind
from diapason.scales import Scale, canonical, pythagorean_by_diapente
from test_oracle import MAX_GENERATIONS, SEED_POOL

AH = frozenset({MeanKind.ARITHMETIC, MeanKind.HARMONIC})


class TestConfig:
    def test_defaults(self):
        cfg = GeneratorConfig()
        assert cfg.kinds == frozenset({MeanKind.ARITHMETIC})
        assert cfg.restriction == FIVE_LIMIT
        assert cfg.max_generations == 64

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
    def _certify_against(monkeypatch, edit_final):
        """Certify T against a batch closure whose final scale `edit_final`
        changed: the certifier's answer, then the reference's."""
        real = generator.mean_closure

        def edited_closure(seed, config):
            trace = real(seed, config)
            final = Scale(trace.final.name, sorted(edit_final(set(trace.final))))
            return dataclasses.replace(trace, final=final)

        monkeypatch.setattr(generator, "mean_closure", edited_closure)
        seed, config = canonical("T"), GeneratorConfig()
        return (
            closure_order_independence(seed, config, trials=3),
            full_rescan_certify(seed, config, trials=3, rng_seed=0),
        )

    def test_a_set_that_is_not_closed_fails(self, monkeypatch):
        # 81/64, the arithmetic mean of 9/8 and 45/32, is left out; every
        # other tone of SN1 is still reached without it
        got = self._certify_against(monkeypatch, lambda tones: tones - {Ratio(81, 64)})
        assert got == (False, False)

    def test_an_unreachable_tone_fails(self, monkeypatch):
        # 135/128 is 5-limit, and its arithmetic mean with every tone of
        # SN1 is either in SN1 or outside the limit: the set stays closed,
        # but no insertion order reaches it
        got = self._certify_against(monkeypatch, lambda tones: tones | {Ratio(135, 128)})
        assert got == (False, False)


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


_KIND_SETS = {
    "A": {MeanKind.ARITHMETIC},
    "AH": {MeanKind.ARITHMETIC, MeanKind.HARMONIC},
    "AGH": set(MeanKind),
}
_GRID = [
    pytest.param(name, primes, kinds, id=f"{name}-{primes[-1]}-{kinds}")
    for name in ("T", "NATURAL", "T5")
    for primes in ((2, 3, 5), (2, 3, 5, 7))
    for kinds in _KIND_SETS
]
_SEVEN_FOUR = Scale("T+7/4", [ONE, Ratio(4, 3), Ratio(3, 2), Ratio(7, 4), Ratio(2)])


def _grid_config(primes, kinds, **extra):
    return GeneratorConfig(kinds=_KIND_SETS[kinds], restriction=Restriction(primes), **extra)


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


def _mean_calls(run):
    """What `run()` returns, and how many means it had the generator compute."""
    calls = 0

    def counting_mean_of_kind(a, b, kind):
        nonlocal calls
        calls += 1
        return mean_of_kind(a, b, kind)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generator, "mean_of_kind", counting_mean_of_kind)
        result = run()
    return result, calls


def _pair_means(n, config):
    """C(n, 2) pairs, each with one mean per kind."""
    return n * (n - 1) // 2 * len(config.kinds)


class TestEachPairOnce:
    """The semi-naive scan computes each pair's means exactly once: a
    closure that went back to full rescans keeps its traces, not its cost."""

    @pytest.mark.parametrize("name,primes,kinds", _GRID)
    def test_closure(self, name, primes, kinds):
        config = _grid_config(primes, kinds)
        trace, calls = _mean_calls(lambda: mean_closure(canonical(name), config))
        assert trace.fixpoint_reached
        assert calls == _pair_means(len(trace.final), config)

    @pytest.mark.parametrize(
        "name,primes,kinds",
        [("NATURAL", (2, 3, 5), "A"), ("T", (2, 3, 5), "AH"), ("T", (2, 3, 5, 7), "A")],
        ids=["NATURAL-5-A", "T-5-AH", "T-7-A"],
    )
    def test_certifier(self, name, primes, kinds):
        # once in the batch closure, once for the table; the reachability pass computes none
        config = _grid_config(primes, kinds)
        certified, calls = _mean_calls(
            lambda: closure_order_independence(canonical(name), config, trials=5)
        )
        assert certified is True
        assert calls == 2 * _pair_means(len(mean_closure(canonical(name), config).final), config)


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


@settings(max_examples=50, deadline=None)
@given(
    st.sets(st.sampled_from(SEED_POOL), min_size=2, max_size=5).map(sorted),
    st.sampled_from([(2, 3, 5), (2, 3, 5, 7)]),
    st.sets(st.sampled_from(MeanKind), min_size=1),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_certifier_answers_as_full_rescan_on_any_config(seed, primes, kinds, trials, rng_seed):
    # seed tones may lie outside the limit (7/4, 7/6, 8/7 under 5); the
    # cap keeps the cubic full rescan to small fixpoints
    config = GeneratorConfig(
        kinds=kinds, restriction=Restriction(primes), max_generations=MAX_GENERATIONS
    )
    scale = Scale("seed", [Ratio(t.numerator, t.denominator) for t in seed])
    assume(mean_closure(scale, config).fixpoint_reached)
    certified = closure_order_independence(scale, config, trials, rng_seed)
    assert certified is full_rescan_certify(scale, config, trials, rng_seed)
