"""Mean-generator closure: saturate a scale with its own proportional means.

One pass collects every pairwise mean of the current tones that stays
inside the prime limit; passes repeat until nothing new appears (the
fixpoint) or a generation cap intervenes.  The whole run is recorded as
a ClosureTrace: per-generation additions, each with one witnessing pair,
plus the final scale.  Batch passes are an implementation choice — the
one-tone-at-a-time variant provably lands on the same fixpoint, and
`closure_order_independence` re-derives that on demand.

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

The pair kernel takes the tones as a sorted list, never a set to sort:
`mean_closure` sorts once per pass.  The certifier needs only the values
of the means, never a witness, so it never runs the kernel.  It numbers
the fixpoint's tones by sorted position and computes, once per call, a
table of the ranks of each pair's in-limit means; its trials then insert
small integers, and ranks sort as the tones they stand for.  A mean
missing from the fixpoint means the fixpoint is not closed, and since a
trial's set only grows, no trial could end on it: the answer is False
before any trial runs.
"""

from __future__ import annotations

import random
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


def _pairs(ordered: Sequence[Ratio], fresh: AbstractSet[Ratio]) -> Iterator[tuple[Ratio, Ratio]]:
    """The pairs (a, b), a < b, of sorted `ordered` that hold a tone of
    `fresh` (a subset of `ordered`), in lexicographic order.

    A full scan passes every tone as fresh.
    """
    fresh_ordered = [t for t in ordered if t in fresh]
    fresh_seen = 0
    for i, a in enumerate(ordered):
        if a in fresh:
            fresh_seen += 1
            partners = ordered[i + 1 :]
        else:
            partners = fresh_ordered[fresh_seen:]  # the fresh tones above a
        for b in partners:
            yield a, b


def _admissible_means(
    ordered: Sequence[Ratio],
    config: GeneratorConfig,
    fresh: AbstractSet[Ratio],
) -> dict[Ratio, Witness]:
    """Every in-limit mean of the pairs of sorted `ordered` that hold a
    fresh tone, keyed by value.

    Pairs are scanned in sorted order and kinds alphabetically, so the
    witness stored for each mean is the lexicographically least one —
    that is what makes traces reproducible.
    """
    kinds = sorted(config.kinds, key=lambda k: k.value)
    found: dict[Ratio, Witness] = {}
    for a, b in _pairs(ordered, fresh):
        for kind in kinds:
            mean = mean_of_kind(a, b, kind)
            if mean is None:
                continue  # irrational geometric mean
            if not is_smooth(mean, config.restriction):
                continue
            if mean not in found:
                found[mean] = Witness(mean, a, b, kind)
    return found


def generate_means(tones: Scale, config: GeneratorConfig) -> set[Ratio]:
    """One generator pass: all admissible pairwise means of the scale.

    Means that coincide with input tones are reported too; novelty is
    the closure loop's concern, not this operation's.
    """
    if len(tones.tones) < 2:
        raise ValueError("need at least two tones to take means")
    return set(_admissible_means(tones.tones, config, set(tones.tones)))


def mean_closure(seed: Scale, config: GeneratorConfig = GeneratorConfig()) -> ClosureTrace:
    """Iterate generator passes from `seed` until saturation or the cap."""
    if len(seed.tones) < 2:
        raise ValueError("need at least two tones to take means")
    current = set(seed.tones)
    generations: list[Generation] = []
    fixpoint = False
    new = current  # the first pass scans every pair
    for _ in range(config.max_generations):
        found = _admissible_means(sorted(current), config, new)
        new = set(found) - current
        if not new:
            fixpoint = True
            break
        added = tuple(sorted(new))
        generations.append(Generation(added, tuple(found[t] for t in added)))
        current |= new
    final = Scale(f"{seed.name}-closure", sorted(current))
    return ClosureTrace(seed, tuple(generations), fixpoint, final)


def closure_order_independence(
    seed: Scale,
    config: GeneratorConfig,
    trials: int,
    rng_seed: int = 0,
) -> bool:
    """Certify that insertion order cannot change the fixpoint.

    Runs `trials` sequential closures, each inserting one randomly
    chosen admissible mean at a time, and compares every outcome with
    the batch fixpoint.  The batch closure must terminate, otherwise
    there is nothing to compare against; `trials` must be >= 0.

    Each Ratio mean is computed at most once per call.  The fixpoint's
    tones are numbered by position, so ranks sort as their tones, and
    table[i][j] holds the ranks of the in-limit means of tones i and j.
    If one of those means is missing from the fixpoint, the fixpoint is
    not closed and no trial can end there, since a trial's set only
    grows: the answer is False at once.  The trials then run on ranks.
    Inserting rank r removes it from the candidates and adds table[r][k]
    for each rank k already present, which leaves exactly the set a full
    rescan of the grown set would give.  Each draw is made from the
    sorted candidate tones.  A trial never leaves the fixpoint, so it
    succeeds when it holds as many tones.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    batch = mean_closure(seed, config)
    if not batch.fixpoint_reached:
        raise ValueError("batch closure hit the generation cap; no fixpoint to certify")
    tones = batch.final.tones
    rank = {tone: i for i, tone in enumerate(tones)}
    table: list[list[tuple[int, ...]]] = [[()] * len(tones) for _ in tones]
    for i, a in enumerate(tones):
        for j in range(i + 1, len(tones)):
            means = {mean_of_kind(a, tones[j], kind) for kind in config.kinds}
            means = {m for m in means if m is not None and is_smooth(m, config.restriction)}
            if not means <= rank.keys():
                return False
            table[i][j] = table[j][i] = tuple(rank[m] for m in means)
    seeds = {rank[tone] for tone in seed.tones}
    first = {m for i in seeds for j in seeds for m in table[i][j]} - seeds
    rng = random.Random(rng_seed)
    for _ in range(trials):
        current, pending = set(seeds), set(first)
        while pending:
            r = rank[rng.choice([tones[k] for k in sorted(pending)])]
            pending.discard(r)
            row = table[r]
            pending.update(m for k in current for m in row[k] if m not in current)
            current.add(r)
        if len(current) != len(tones):
            return False
    return True
