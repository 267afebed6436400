"""Mean-generator closure: saturate a scale with its own proportional means.

One pass collects every pairwise mean of the current tones that stays
inside the prime limit; passes repeat until nothing new appears (the
fixpoint) or a generation cap intervenes.  The whole run is recorded as
a ClosureTrace: per-generation additions, each with one witnessing pair,
plus the final scale.  Batch passes are an implementation choice — the
one-tone-at-a-time variant provably lands on the same fixpoint, and
`closure_order_independence` checks the two conditions of that proof.

Passes are semi-naive (Bancilhon & Ramakrishnan, 1986): each scans
only the pairs that hold a fresh tone, where the first pass takes every
seed tone as fresh and each later pass the previous generation.  The
fresh-pair lemma makes that exact.  Pass g-1 scanned every pair of the
set S it started from and added every admissible mean missing from S,
so a tone first found in pass g has no witness inside S; each of its
witnesses holds a tone added in generation g-1.  The fresh pairs are
visited in sorted (a, b) order and kinds in sorted order, so the witness
stored is the same least one a full rescan would store, and the
generations come out identical for any seed, including seed tones
outside the prime limit.

One kernel, `_in_limit_means`, yields each in-limit mean of the pairs
of a sorted tone list that hold a fresh tone, with its pair and kind.
It has three callers.  `mean_closure` sorts once per pass and keeps,
for each mean not yet in the set, the first pair and kind that yield
it: the least witness.  `generate_means` collects the means of a full
scan.  `closure_order_independence` needs only values: it fills its
table of ranks from one full scan of the fixpoint's tones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterator, NamedTuple, Sequence

from .exact import FIVE_LIMIT, Ratio, Restriction, is_smooth
from .means import MeanKind, mean_of_kind
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


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for one closure run.

    kinds defaults to arithmetic alone: that single kind under the
    5-limit already reproduces both published natural closures, and
    admitting harmonic means changes the fixpoint.  No mean leaves the
    diapason: all three kinds lie between their arguments.
    """

    kinds: frozenset[MeanKind] = frozenset({MeanKind.ARITHMETIC})
    restriction: Restriction = FIVE_LIMIT
    max_generations: int = 64

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", frozenset(self.kinds))
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


class Witness(NamedTuple):
    """One pair (and kind) that produces `tone` as its mean."""

    tone: Ratio
    a: Ratio
    b: Ratio
    kind: MeanKind

    def to_json_dict(self) -> dict:
        return {
            "tone": str(self.tone),
            "a": str(self.a),
            "b": str(self.b),
            "kind": self.kind.value,
        }


class Generation(NamedTuple):
    """Tones added by one closure pass, sorted, each with its witness."""

    added: tuple[Ratio, ...]
    witnesses: tuple[Witness, ...]


@dataclass(frozen=True)
class ClosureTrace:
    """Complete record of a closure run.

    `generations` lists only productive passes; the silent confirming
    pass shows up as fixpoint_reached instead.  When the generation cap
    is exhausted before a silent pass, fixpoint_reached stays False.
    """

    seed: Scale
    generations: tuple[Generation, ...]
    fixpoint_reached: bool
    final: Scale

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


def _in_limit_means(
    ordered: Sequence[Ratio],
    config: GeneratorConfig,
    fresh: AbstractSet[Ratio],
) -> Iterator[tuple[Ratio, Ratio, MeanKind, Ratio]]:
    """(a, b, kind, mean) for each in-limit mean of the pairs a < b of
    sorted `ordered` that hold a tone of `fresh` (a subset of `ordered`).

    Pairs come in lexicographic order and kinds alphabetically, so the
    first pair and kind to yield a mean are its least witness.  A full
    scan passes every tone as fresh.
    """
    kinds = sorted(config.kinds, key=lambda k: k.value)
    fresh_ordered = [t for t in ordered if t in fresh]
    fresh_seen = 0
    for i, a in enumerate(ordered):
        if a in fresh:
            fresh_seen += 1
            partners = ordered[i + 1 :]
        else:
            partners = fresh_ordered[fresh_seen:]  # the fresh tones above a
        for b in partners:
            for kind in kinds:
                mean = mean_of_kind(a, b, kind)  # None: an irrational geometric mean
                if mean is not None and is_smooth(mean, config.restriction):
                    yield a, b, kind, mean


def generate_means(tones: Scale, config: GeneratorConfig) -> set[Ratio]:
    """One generator pass: all admissible pairwise means of the scale.

    Means that coincide with input tones are reported too; novelty is
    the closure loop's concern, not this operation's.
    """
    if len(tones.tones) < 2:
        raise ValueError("need at least two tones to take means")
    return {mean for *_, mean in _in_limit_means(tones.tones, config, set(tones.tones))}


def mean_closure(seed: Scale, config: GeneratorConfig = GeneratorConfig()) -> ClosureTrace:
    """Iterate generator passes from `seed` until saturation or the cap."""
    if len(seed.tones) < 2:
        raise ValueError("need at least two tones to take means")
    current = set(seed.tones)
    generations: list[Generation] = []
    fixpoint = False
    fresh: AbstractSet[Ratio] = current  # the first pass scans every pair
    for _ in range(config.max_generations):
        found: dict[Ratio, Witness] = {}
        for a, b, kind, mean in _in_limit_means(sorted(current), config, fresh):
            if mean not in current and mean not in found:
                found[mean] = Witness(mean, a, b, kind)
        if not found:
            fixpoint = True
            break
        added = tuple(sorted(found))
        generations.append(Generation(added, tuple(found[t] for t in added)))
        current.update(added)
        fresh = found.keys()
    final = Scale(f"{seed.name}-closure", sorted(current))
    return ClosureTrace(seed, tuple(generations), fixpoint, final)


def closure_order_independence(
    seed: Scale,
    config: GeneratorConfig,
    trials: int,
    rng_seed: int = 0,
) -> bool:
    """Certify that insertion order cannot change the fixpoint.

    Let L be the least set that holds the seed tones and is closed under
    in-limit means.  A closure that inserts one mean at a time inserts
    only means of tones it holds, so it never leaves L; it stops only
    when its set is closed, so it stops exactly at L.  Every insertion
    order thus ends on L, and the batch fixpoint is certified when it is
    closed and one insertion pass from the seed reaches all of it.  The
    batch closure must terminate; `trials` must be >= 0, and 0 checks
    closedness alone.  `rng_seed` does not affect the answer.

    Each Ratio mean is computed at most once per call: one full scan of
    the pair kernel fills table[i][j] with the ranks of the in-limit
    means of the fixpoint's tones i and j, and the first mean missing
    from the fixpoint returns False at once.  The pass runs on ranks:
    inserting rank r adds table[r][k] for each rank k already reached.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    batch = mean_closure(seed, config)
    if not batch.fixpoint_reached:
        raise ValueError("batch closure hit the generation cap; no fixpoint to certify")
    tones = batch.final.tones
    rank = {tone: i for i, tone in enumerate(tones)}
    table: list[list[tuple[int, ...]]] = [[()] * len(tones) for _ in tones]
    for a, b, _, mean in _in_limit_means(tones, config, rank.keys()):
        if mean not in rank:
            return False
        i, j = rank[a], rank[b]
        table[i][j] = table[j][i] = table[i][j] + (rank[mean],)
    reached: set[int] = set()
    pending = {rank[tone] for tone in seed.tones}
    while pending:
        r = pending.pop()
        row = table[r]
        pending.update(m for k in reached for m in row[k] if m not in reached)
        reached.add(r)
    return trials == 0 or len(reached) == len(tones)
