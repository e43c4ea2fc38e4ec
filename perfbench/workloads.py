"""The seeded round of CLI invocations for each benchmark workload.

A workload's round is drawn from `--seed`, and a run repeats that round.
Every round has the same shape (the same commands in the same proportions)
whatever the seed. Every invocation asks for `--format json` and carries
the oracle check for its report.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from checkers import CIRCLE, Oracle

# Seeded moduli stay below 2*5**6 = 31250, whose period 6m is the largest any
# m <= 31250 can have (pi(m) <= 6m, with equality exactly at m = 2*5**k).
# The fixed moduli 2*5**k (k = 3..6) reach that bound, and 4*5**6 = 62500 and
# 6*5**6 = 93750 (periods 187500 and 375000) are at least as long. So the largest
# periods of every round, and with them peak RSS and the slowest invocation,
# do not depend on the seed.
SIX_M_MODULI = tuple(2 * 5**e for e in range(3, 7))
ANCHOR_MODULI = (4 * 5**6, 6 * 5**6)
SEEDED_MODULI = 5
SEEDED_MODULUS_CAP = 2 * 5**6


@dataclass(frozen=True)
class Call:
    """One CLI invocation: arguments after `python -m pisano_lab.cli`."""

    argv: tuple[str, ...]
    check: Callable[[dict], int]


Round = list[Call]


def _units() -> list[int]:
    return [r for r in range(1, CIRCLE) if math.gcd(r, CIRCLE) == 1]


def _non_units() -> list[int]:
    return [r for r in range(1, CIRCLE) if math.gcd(r, CIRCLE) != 1]


def _order_15() -> list[int]:
    return [r for r in range(1, CIRCLE) if math.gcd(r, CIRCLE) == CIRCLE // 15]


def verify_battery(rng: random.Random, oracle: Oracle, out: Path) -> Round:
    return [Call(("verify", "--format", "json"), oracle.verify)]


def grid_classify(rng: random.Random, oracle: Oracle, out: Path) -> Round:
    # three coprime jumps (closed-form shift computed) and three others
    pairs = [(rng.randrange(CIRCLE), rng.choice(pool)) for pool in (_units(), _non_units()) for _ in range(3)]
    rng.shuffle(pairs)
    calls = [
        Call(("classify", "--k", str(k), "--r", str(r), "--format", "json"), partial(oracle.classify, k=k, r=r))
        for k, r in pairs
    ]
    sweep = Call(("sweep", "--format", "json"), oracle.sweep)
    return calls[:3] + [sweep] + calls[3:] + [sweep]


def draw_frames(rng: random.Random, oracle: Oracle, out: Path) -> Round:
    pairs = [(3, 25), (9, 13)]
    pairs += [(rng.randrange(CIRCLE), rng.choice(_units())) for _ in range(3)]
    # the other jump always has order 15, so every round draws the same
    # number of documents and items per second do not depend on the seed
    pairs.append((rng.randrange(CIRCLE), rng.choice(_order_15())))
    calls = []
    for k, r in pairs:
        full, frames = out / "full.svg", out / "frame.svg"
        common = ("diagram", "--k", str(k), "--r", str(r), "--format", "json", "--out")
        # the full diagram first: the frames check compares its last frame to it
        calls.append(Call((*common, str(full)), partial(oracle.diagram, k=k, r=r, out=full)))
        calls.append(Call((*common, str(frames), "--frames"), partial(oracle.frames, k=k, r=r, out=frames)))
    return calls


def period_moduli(rng: random.Random, oracle: Oracle, out: Path) -> Round:
    # one log-uniform draw from each of SEEDED_MODULI equal log-width strata
    low, high = math.log(2), math.log(SEEDED_MODULUS_CAP - 1)
    width = (high - low) / SEEDED_MODULI
    seeded = [
        min(SEEDED_MODULUS_CAP - 1, max(2, round(math.exp(low + width * (i + rng.random())))))
        for i in range(SEEDED_MODULI)
    ]
    moduli = seeded + list(SIX_M_MODULI) + list(ANCHOR_MODULI)
    rng.shuffle(moduli)
    return [Call(("period", "--m", str(m), "--format", "json"), partial(oracle.period, m=m)) for m in moduli]


# layers each workload bypasses: the traced run fails if any of them is called
PREDICTED_ZERO_CALLS = {
    "grid-classify": ("core.fib_mod", "complete.brute_force_shift", "render.render_svg"),
    "draw-frames": ("core.fib_mod", "complete.brute_force_shift", "quasi.verify_quasi"),
    "period-moduli": ("core.fib_mod", "complete.brute_force_shift", "render.render_svg", "subseq.subsequence_period"),
}

WORKLOADS: dict[str, Callable[[random.Random, Oracle, Path], Round]] = {
    "verify-battery": verify_battery,
    "grid-classify": grid_classify,
    "draw-frames": draw_frames,
    "period-moduli": period_moduli,
}


def make_round(workload: str, seed: int, oracle: Oracle, out: Path) -> Round:
    """The seed-determined round of one workload."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"), oracle, out)
