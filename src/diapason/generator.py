"""Mean-generator closure: saturate a scale with its own proportional means.

One pass collects every pairwise mean of the current tones that stays
inside the prime limit; passes repeat until nothing new appears (the
fixpoint) or a generation cap intervenes.  The whole run is recorded as
a ClosureTrace: per-generation additions, each with one witnessing pair,
plus the final scale.  Batch passes are an implementation choice — the
one-tone-at-a-time variant provably lands on the same fixpoint, and
`closure_order_independence` checks the trace as the proof of that.

Passes are semi-naive (Bancilhon & Ramakrishnan, 1986): each scans
only the pairs that hold a fresh tone, where the first pass takes every
seed tone as fresh and each later pass the previous generation.  The
fresh-pair lemma makes that exact.  Pass g-1 scanned every pair of the
set S it started from and added every admissible mean missing from S,
so a tone first found in pass g has no witness inside S; each of its
witnesses holds a tone added in generation g-1.  The fresh pairs are
visited in sorted (a, b) order, and a pair's means differ from each
other, so the witness stored is the same least one a full rescan would
store, and the generations come out identical for any seed, including
seed tones outside the prime limit.

One divisibility test decides most pairs.  For tones a = p/q < b = r/s
inside the limit S, with b/a = y/x in lowest terms, A = a(x + y)/2x and
H = a·2y/(x + y): both lie in S exactly when x + y is S-smooth (an
S-unit equation x + y = z; de Weger, J. Number Theory 26, 1987), that
is, on integer parts, exactly when ps + rq is.  Smoothness is tested as
divisibility of one modulus per pass, `exact._smooth_modulus`, wide
enough for every part the pass can form.

Over primes up to 13 the lemma becomes a table lookup.  The pairs whose
A and H lie in the limit are exactly the a < b = a·y/x for the coprime
x < y <= 2x with x, y and x + y S-smooth: finitely many, all listed in
`_S_UNIT_PAIRS`.  `mean_closure` takes this table path while every seed
tone lies in the limit and the set stays narrow, with no pair past
2pr = 2^128, so that no mean reaches the guard.  Each tone is a packed
exponent vector; a fresh tone probes its table neighbours above and
below, A and H are one addition each, and G pairs the tones whose
exponent parities agree.  A pass costs about fresh tones × table entries
instead of fresh tones × tones.

Elsewhere the pair kernel, `_in_limit_means`, yields each in-limit mean
of the pairs of a sorted tone list that hold a fresh tone, with its pair
and kind.  `mean_closure` hands off to it for good from the first wide
pass, with the last generation as fresh, and takes it from the start
for a prime above 13, a seed tone outside the limit or a wide seed.
Both paths keep for each mean not yet in the set its least witness
(least (a, b), then G < A < H), so they give the same trace.
`generate_means` collects the means of a full pair scan, and
`closure_order_independence` checks a trace's closedness and each
tone's generation against one full pair scan of its fixpoint, so the
pair kernel cross-checks the table path.  A RatioOverflowError is named
by `means.mean_of_kind`, with its pair and kind; a closure adds its
generation.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import cache
from math import gcd
from operator import itemgetter

from .exact import (
    FIVE_LIMIT,
    MAGNITUDE_LIMIT,
    Ratio,
    RatioOverflowError,
    Restriction,
    _from_parts,
    _Record,
    _smooth_modulus,
    exponents,
)
from .means import MeanKind, mean_geometric, mean_of_kind
from .scales import Scale

__all__ = [
    "ClosureTrace",
    "Generation",
    "GeneratorConfig",
    "Witness",
    "closure_order_independence",
    "generate_means",
    "mean_closure",
]


class GeneratorConfig(_Record):
    """Knobs for one closure run: mean `kinds`, `restriction`, `max_generations`.

    kinds defaults to arithmetic alone: that single kind under the
    5-limit already reproduces both published natural closures, and
    admitting harmonic means changes the fixpoint.  No mean leaves the
    diapason: all three kinds lie between their arguments.
    """

    __slots__ = _fields = ("kinds", "restriction", "max_generations")

    def __init__(self, kinds: Iterable[MeanKind] = frozenset({MeanKind.ARITHMETIC}),
                 restriction: Restriction = FIVE_LIMIT, max_generations: int = 64) -> None:
        _Record.__init__(self, frozenset(kinds), restriction, max_generations)
        if not self.kinds:
            raise ValueError("at least one mean kind is required")
        for kind in self.kinds:
            if not isinstance(kind, MeanKind):
                raise TypeError(f"not a MeanKind: {kind!r}")
        if not isinstance(self.restriction, Restriction):
            raise TypeError(f"not a Restriction: {self.restriction!r}")
        if not isinstance(self.max_generations, int) or isinstance(self.max_generations, bool):
            raise TypeError(f"max_generations must be an int, got {self.max_generations!r}")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")


class Witness(namedtuple("Witness", "tone a b kind")):
    """One pair `a` < `b` (and `kind`) that produces `tone` as its mean."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "tone": str(self.tone),
            "a": str(self.a),
            "b": str(self.b),
            "kind": self.kind.value,
        }


class Generation(namedtuple("Generation", "added witnesses")):
    """Tones `added` by one closure pass, sorted, each with one of the `witnesses`."""

    __slots__ = ()


class ClosureTrace(_Record):
    """Complete record of a closure run from the `seed` Scale to the `final` one.

    `generations` lists only productive passes; the silent confirming
    pass shows up as `fixpoint_reached` instead.  When the generation cap
    is exhausted before a silent pass, fixpoint_reached stays False.
    """

    __slots__ = _fields = ("seed", "generations", "fixpoint_reached", "final")

    def added_tones(self) -> list[Ratio]:
        return [tone for generation in self.generations for tone in generation.added]

    def to_json_dict(self) -> dict:
        return {
            "seed": [str(t) for t in self.seed.tones],
            "generations": [
                {
                    "added": [str(t) for t in generation.added],
                    "witnesses": [w.to_json_dict() for w in generation.witnesses],
                }
                for generation in self.generations
            ],
            "fixpoint": self.fixpoint_reached,
            "final": [str(t) for t in self.final.tones],
        }


# Every coprime pair x < y <= 2x whose x, y and x + y are all 13-smooth:
# the solutions of the S-unit equation x + y = z over S = {2, ..., 13}
# with y/x in (1, 2].  de Weger (J. Number Theory 26, 1987) proves the
# list complete; the widest entry has 15 bits.  Over a set of primes up
# to 13, the entries whose three parts factor over it are its solutions.
_S_UNIT_PAIRS = (
    (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 7), (5, 6), (5, 7), (5, 8),
    (5, 9), (6, 7), (7, 8), (7, 9), (7, 11), (7, 13), (8, 13), (9, 11), (9, 13),
    (9, 16), (10, 11), (11, 13), (11, 14), (11, 15), (11, 16), (11, 21),
    (12, 13), (13, 14), (13, 15), (13, 20), (13, 22), (14, 25), (22, 27),
    (24, 25), (25, 27), (25, 39), (26, 49), (27, 28), (27, 50), (32, 33),
    (32, 45), (32, 49), (33, 65), (35, 64), (36, 55), (39, 49), (40, 77),
    (44, 81), (48, 77), (49, 50), (49, 55), (49, 72), (49, 81), (56, 65),
    (63, 65), (63, 80), (64, 105), (64, 125), (70, 99), (75, 121), (81, 88),
    (81, 143), (91, 125), (91, 165), (99, 125), (100, 143), (104, 121),
    (117, 125), (117, 128), (121, 135), (125, 169), (128, 147), (128, 169),
    (135, 208), (143, 200), (169, 216), (169, 231), (169, 315), (175, 176),
    (242, 325), (242, 343), (245, 484), (273, 352), (297, 343), (325, 539),
    (343, 625), (363, 512), (363, 637), (448, 605), (486, 845), (512, 819),
    (539, 676), (625, 896), (729, 896), (825, 1372), (847, 1350), (880, 1521),
    (972, 1225), (1001, 1024), (1323, 2197), (1331, 2197), (2048, 2187),
    (2178, 2197), (2401, 4160), (5824, 9801), (8019, 8788), (12936, 15625),
    (15625, 17303),
)
_TABLE_PRIMES = frozenset({2, 3, 5, 7, 11, 13})

# A packed key holds a tone's exponent vector, _FIELD bits per prime,
# smallest prime lowest, each exponent stored plus _BIAS.  Multiplying
# tones adds their vectors, so it adds keys once one bias is taken off;
# _BIAS is even, so a field's low bit is its exponent's parity, and a
# sum of two keys whose parities agree halves field by field.  The table
# path keeps a set narrow (no pair has 2pr > 2^128): its parts lie below
# 2^64 and its means' parts below 2^129, so every exponent lies within
# +-128, every field and every sum of two fields inside _FIELD bits.
_FIELD = 10
_BIAS = 1 << 8
_KINDS = (MeanKind.GEOMETRIC, MeanKind.ARITHMETIC, MeanKind.HARMONIC)  # a pair's yield order


def _pack(vector: Sequence[int], bias: int) -> int:
    return sum([(e + bias) << (_FIELD * i) for i, e in enumerate(vector)])


@cache
def _table_steps(restriction: Restriction) -> tuple[tuple[int, int, int], ...]:
    """(b/a, A/a, H/a) as unbiased packed keys, for each table entry whose
    x, y and x + y factor over `restriction`: b/a = y/x,
    A/a = (x + y)/2x and H/a = 2y/(x + y)."""
    steps = []
    for x, y in _S_UNIT_PAIRS:
        vectors = [exponents(r, restriction) for r in (Ratio(y, x), Ratio(x + y, 2 * x), Ratio(2 * y, x + y))]
        if None not in vectors:
            steps.append(tuple([_pack(vector, 0) for vector in vectors]))
    return tuple(steps)


class _Probes:
    """The table path's tone set: each tone under its packed key, with
    the keys of the last generation as `fresh`.

    A pass probes, for each fresh key f and table step, f·y/x and f·x/y
    in the set (a downward probe that meets a fresh tone skips it: that
    pair is probed upward), and a pair found adds the keys of its A and
    H.  G pairs f with the tones whose exponent parities match its own
    (`buckets`), each pair of fresh tones once.  Each new mean keeps its
    least witness (a, b, then G < A < H), and one Ratio is built for it.
    """

    __slots__ = ("tones", "fresh", "steps", "kinds", "mask", "buckets")

    def __init__(self, tones: dict[int, Ratio], config: GeneratorConfig) -> None:
        self.tones = tones
        self.fresh = list(tones)  # the first pass takes every seed tone as fresh
        self.steps = _table_steps(config.restriction) if config.kinds - {MeanKind.GEOMETRIC} else ()
        self.kinds = config.kinds
        self.mask = _pack([1] * len(config.restriction.primes), 0)  # each field's low bit
        self.buckets = {}
        if MeanKind.GEOMETRIC in config.kinds:
            for key in tones:
                self.buckets.setdefault(key & self.mask, []).append(key)

    def witnesses(self) -> list[Witness]:
        """One pass: a Witness for each new mean, added to the set, whose
        new tones become the next pass's fresh ones."""
        tones, fresh = self.tones, self.fresh
        recent = set(fresh)
        arithmetic = MeanKind.ARITHMETIC in self.kinds
        harmonic = MeanKind.HARMONIC in self.kinds
        offers = []  # (mean key, a key, b key, index in _KINDS) for each mean not in the set
        for up, to_a, to_h in self.steps:
            for f in fresh:
                if (b := f + up) in tones:
                    if arithmetic and (m := f + to_a) not in tones:
                        offers.append((m, f, b, 1))
                    if harmonic and (m := f + to_h) not in tones:
                        offers.append((m, f, b, 2))
                if (a := f - up) in tones and a not in recent:
                    if arithmetic and (m := a + to_a) not in tones:
                        offers.append((m, a, f, 1))
                    if harmonic and (m := a + to_h) not in tones:
                        offers.append((m, a, f, 2))
        buckets, mask = self.buckets, self.mask
        if buckets:
            for f in fresh:
                for t in buckets[f & mask]:
                    if (t > f or t not in recent) and (m := (f + t) >> 1) not in tones:
                        offers.append((m, f, t, 0) if tones[f] < tones[t] else (m, t, f, 0))
        least = {}
        for m, a, b, kind in offers:
            witness = (tones[a], tones[b], kind)
            if m not in least or witness < least[m]:
                least[m] = witness
        found = []
        for m, (a, b, kind) in least.items():
            p, q, r, s = a.num, a.den, b.num, b.den
            if kind == 1:  # arithmetic
                mean = _from_parts(p * s + r * q, 2 * q * s)
            elif kind == 2:  # harmonic
                mean = _from_parts(2 * p * r, p * s + r * q)
            else:
                mean = mean_geometric(a, b)
            tones[m] = mean
            if buckets:
                buckets.setdefault(m & mask, []).append(m)
            found.append(Witness(mean, a, b, _KINDS[kind]))
        self.fresh = list(least)
        return found


def _wide(tones: Sequence[Ratio]) -> bool:
    """Can a pair of these tones in [1, 2] pass the guard, 2pr > 2^128?"""
    widest = max([t.num for t in tones])
    return 2 * widest * widest > MAGNITUDE_LIMIT


def _table_probes(seed: Scale, config: GeneratorConfig) -> _Probes | None:
    """The table path over `seed`, or None where it does not apply: a
    prime above 13, a seed tone outside the limit, or a wide seed."""
    restriction = config.restriction
    if not restriction.primes <= _TABLE_PRIMES or _wide(seed.tones):
        return None
    tones = {}
    for tone in seed.tones:
        vector = exponents(tone, restriction)
        if vector is None:
            return None
        tones[_pack(vector, _BIAS)] = tone
    return _Probes(tones, config)


def _in_limit_means(
    ordered: Sequence[Ratio],
    config: GeneratorConfig,
    fresh: Sequence[Ratio],
) -> Iterator[tuple[Ratio, Ratio, MeanKind, Ratio]]:
    """(a, b, kind, mean) for each in-limit mean of the pairs a < b of
    sorted `ordered` that hold a tone of `fresh`.

    `fresh` is a sorted sub-sequence of `ordered` holding the same
    objects: the walk matches it by identity, with no hashing.  Pairs
    come in lexicographic order, so the first pair to yield a mean is
    its least witness.  A full scan passes `ordered` itself as fresh.

    Means A = (ps + rq)/2qs and H = 2pr/(ps + rq) of p/q and r/s are
    decided on integer parts, and a Ratio is built only for a kept mean.
    Tones lie in [1, 2], so q <= p and s <= r: 2pr bounds ps + rq, 2qs,
    every reduced part and every intermediate of `means.mean_harmonic`.
    A part below 2^width, width = 2·bits(widest part) + 2, is smooth
    exactly when it divides the call's modulus `smooth`.

    Every pair passes the guards first: past 2pr > 2^128 the kernel
    calls `mean_of_kind` for A and H, which raises, naming the pair and
    kind, exactly where that mean's Ratio arithmetic overflows.  Then a
    pair of in-limit tones keeps A and H both or neither, on one test of
    ps + rq (the module's lemma), and reduces by gcd only a kept mean.
    A seed tone outside the limit breaks the lemma, since a prime that
    both parts hold cancels: 8/7 and 13/7 have A = 147/98 = 3/2 under
    {2, 3}.  A pair holding one decides each mean on its reduced parts.
    """
    arithmetic = MeanKind.ARITHMETIC in config.kinds
    geometric = MeanKind.GEOMETRIC in config.kinds
    harmonic = MeanKind.HARMONIC in config.kinds
    # tones lie in [1, 2], so a numerator is a tone's widest part
    widest = max([t.num for t in ordered])
    wide = 2 * widest * widest > MAGNITUDE_LIMIT  # 2pr can pass the guard
    width = 2 * widest.bit_length() + 2
    smooth = _smooth_modulus(config.restriction.primes, width)
    rough = {id(t) for t in ordered if smooth % t.num or smooth % t.den}  # seed tones only
    fresh_seen = 0  # fresh[:fresh_seen] lie at or below a
    fresh_count = len(fresh)
    for i, a in enumerate(ordered):
        if fresh_seen < fresh_count and a is fresh[fresh_seen]:
            fresh_seen += 1
            partners = ordered[i + 1 :]
        else:
            partners = fresh[fresh_seen:]  # the fresh tones above a
        p, q = a.num, a.den
        a_rough = rough and id(a) in rough
        for b in partners:
            r, s = b.num, b.den
            total = p * s + r * q  # ps + rq: A's numerator, H's denominator
            if wide and 2 * p * r > MAGNITUDE_LIMIT:
                for kind in (MeanKind.ARITHMETIC, MeanKind.HARMONIC):
                    if kind in config.kinds:
                        mean_of_kind(a, b, kind)  # raises, naming the pair, if the mean overflows
            if geometric and (mean := mean_geometric(a, b)) is not None:
                # never overflows: the root's parts are no larger than a's and b's
                if smooth % mean.num == 0 and smooth % mean.den == 0:
                    yield a, b, MeanKind.GEOMETRIC, mean
            # with a tone outside the limit the lemma fails: test each mean
            rough_pair = a_rough or (rough and id(b) in rough)
            if rough_pair or smooth % total == 0:
                if arithmetic:
                    den = 2 * q * s
                    g = gcd(total, den)
                    num, den = total // g, den // g
                    if not rough_pair or (smooth % num == 0 and smooth % den == 0):
                        yield a, b, MeanKind.ARITHMETIC, Ratio(num, den)
                if harmonic:
                    num = 2 * p * r
                    g = gcd(num, total)
                    num, den = num // g, total // g
                    if not rough_pair or (smooth % num == 0 and smooth % den == 0):
                        yield a, b, MeanKind.HARMONIC, Ratio(num, den)


def generate_means(tones: Scale, config: GeneratorConfig) -> set[Ratio]:
    """One generator pass: all admissible pairwise means of the scale.

    Means that coincide with input tones are reported too; novelty is
    the closure loop's concern, not this operation's.
    """
    if len(tones.tones) < 2:
        raise ValueError("need at least two tones to take means")
    return {mean for *_, mean in _in_limit_means(tones.tones, config, tones.tones)}


def mean_closure(seed: Scale, config: GeneratorConfig = GeneratorConfig()) -> ClosureTrace:
    """Iterate generator passes from `seed` until saturation or the cap."""
    if len(seed.tones) < 2:
        raise ValueError("need at least two tones to take means")
    ordered = list(seed.tones)  # a Scale's tones strictly increase
    probes = _table_probes(seed, config)  # None: the pair kernel takes every pass
    current = set(ordered)  # the pair kernel's novelty set
    generations: list[Generation] = []
    fixpoint = False
    fresh: Sequence[Ratio] = ordered  # the first pass scans every pair
    for _ in range(config.max_generations):
        if probes is not None:
            found = probes.witnesses()
        else:
            found = []  # novelty is decided by current
            try:
                for a, b, kind, mean in _in_limit_means(ordered, config, fresh):
                    if mean not in current:
                        current.add(mean)
                        found.append(Witness(mean, a, b, kind))
            except RatioOverflowError as error:
                raise RatioOverflowError(f"generation {len(generations) + 1}: {error}") from error
        if not found:
            fixpoint = True
            break
        found.sort(key=itemgetter(0))
        added = tuple([witness.tone for witness in found])
        generations.append(Generation(added, tuple(found)))
        fresh = added
        ordered += added
        if probes is not None and _wide(added):
            probes = None  # from the first wide pass on, the pair kernel and its guard
            current = set(ordered)
        if probes is None:
            ordered.sort()  # Timsort merges the sorted runs
    if probes is not None:
        ordered.sort()  # the table path needs its tones in order only here
    final = Scale(f"{seed.name}-closure", ordered)
    return ClosureTrace(seed, tuple(generations), fixpoint, final)


def closure_order_independence(
    seed: Scale,
    config: GeneratorConfig,
    trials: int,
    rng_seed: int = 0,
) -> bool:
    """Certify that insertion order cannot change the fixpoint.

    Let L be the least set that holds the seed tones and is closed under
    in-limit means.  A closure that inserts one mean at a time never
    leaves L and stops only on a closed set, so every insertion order
    ends on L.  The batch trace certifies that its final set F is L; in
    it a seed tone is born in generation 0, a tone added by pass g in
    generation g.  One full scan of F's pairs checks that F is
    - closed: every in-limit mean lies in F (else False at once), so F holds L;
    - witnessed: each added tone is the mean of a scanned pair born
      strictly earlier, so by induction on birth each lies in L;
    - accounted for: F is the seed plus the added tones, so F lies in L.
    The stored witnesses are not trusted, and a wrong generation split
    certifies nothing.  The batch closure must terminate; `trials` must
    be >= 0, and 0 checks closedness alone.  `rng_seed` does not affect
    the answer.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    batch = mean_closure(seed, config)
    if not batch.fixpoint_reached:
        raise ValueError("batch closure hit the generation cap; no fixpoint to certify")
    tones = batch.final.tones
    final = set(tones)
    birth = dict.fromkeys(seed.tones, 0)
    for g, generation in enumerate(batch.generations, 1):
        birth.update(dict.fromkeys(generation.added, g))
    unwitnessed = set(batch.added_tones())
    for a, b, _, mean in _in_limit_means(tones, config, tones):
        if mean not in final:
            return False
        if mean in unwitnessed:
            born = birth[mean]  # a tone outside the trace witnesses nothing
            if birth.get(a, born) < born and birth.get(b, born) < born:
                unwitnessed.discard(mean)
    return trials == 0 or (not unwitnessed and birth.keys() == final)
