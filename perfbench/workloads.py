"""The three workloads: seeded inputs, the operation each one times, its CLI commands.

Inputs are generated here with numpy alone, so the program under test
receives only entries and suite seeds.  An operation ("op") is the same
bundle of work in every op of a workload, and every run attempts whole
rounds of ops, so counts and failure shares repeat exactly.

The program is imported lazily (inside functions) because the set-up probe
times ``import extenso`` itself.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

# JointMatrix rejects columns whose marginal falls below this; draws under it
# are redrawn, as extenso's own random_joint does.
MIN_MARGINAL = 1e-9

SANDWICH_SHAPE = (4, 4)
SANDWICH_CONCENTRATION = 0.05
SANDWICH_Q = 0.1  # the tsallis exponent checked beside remark5
# The sandwich marginals come from one fixed stream, independent of --seed;
# see sandwich_inputs for why.  tsallis(0.1) is falsely flagged divergent
# when a column marginal r has r^(0.1 - 2) above 1e12, that is r < 4.83e-7;
# the two classes of marginals stay clear of that line on either side.
SANDWICH_MARGINAL_STREAM = 0
FAULT_BELOW = 3e-7
CLEAR_ABOVE = 1e-6
FAULTY_PER_ROUND = 2
RESIDUAL_SHAPE = (32, 32)
RESIDUAL_CONCENTRATION = 1.0
AXIOM_SIZES = tuple(range(2, 9))
AXIOM_TRIALS = 10


def _normalized_gamma(rng: np.random.Generator, alpha: float, shape: tuple, axis) -> np.ndarray:
    """Gamma(alpha) draws normalized to sum 1 along axis; all-zero slices redrawn."""
    g = rng.gamma(alpha, 1.0, size=shape)
    while True:
        total = g.sum(axis=axis, keepdims=True)
        bad = total == 0.0
        if not bad.any():
            return g / total
        redraw = np.broadcast_to(bad, g.shape)
        g[redraw] = rng.gamma(alpha, 1.0, size=int(redraw.sum()))


def fixed_sandwich_marginals(count: int, round_size: int) -> np.ndarray:
    """count distinct column-marginal vectors of Dirichlet(0.05) 4x4 joints.

    Each is the column-sum vector of a 4x4 grid of Gamma(0.05) cells, the way
    a Dirichlet joint's marginal is distributed, drawn from one fixed stream.
    The draws are sorted into two classes: a smallest column below
    FAULT_BELOW, or all columns above CLEAR_ABOVE; draws in between are
    skipped.  The first FAULTY_PER_ROUND ops of every round take the next
    vector of the first class, the others the next of the second.
    """
    faulty = np.arange(count) % round_size < FAULTY_PER_ROUND
    n_low = int(faulty.sum())
    rng = np.random.default_rng(SANDWICH_MARGINAL_STREAM)
    low, high = [], []
    while len(low) < n_low or len(high) < count - n_low:
        g = rng.gamma(SANDWICH_CONCENTRATION, 1.0, size=(4096, *SANDWICH_SHAPE))
        cols = g.sum(axis=1) / g.sum(axis=(1, 2))[:, None]
        smallest = cols.min(axis=1)
        low.extend(cols[(smallest >= MIN_MARGINAL) & (smallest < FAULT_BELOW)])
        high.extend(cols[smallest > CLEAR_ABOVE])
    out = np.empty((count, SANDWICH_SHAPE[1]))
    out[faulty] = low[:n_low]
    out[~faulty] = high[: count - n_low]
    return out


def sandwich_inputs(seed: int, n_ops: int, round_size: int) -> dict:
    """4x4 joints distributed as Dirichlet(0.05) cells.

    A Dirichlet joint factors into independent parts: its column-marginal
    vector, and its conditional columns, each Dirichlet(0.05).  The
    conditionals come from --seed.  The marginals, one per op, come from a
    fixed stream (fixed_sandwich_marginals), because the false tsallis(0.1)
    divergence depends on the marginals alone: it fires when a column is
    below about 4.8e-7.  So every round holds the same number of ops that
    hit that fault, whatever the seed, and no marginal repeats in the pool.
    """
    m, n = SANDWICH_SHAPE
    marg = fixed_sandwich_marginals(n_ops, round_size)
    rng = np.random.default_rng([seed, 1])
    cond = _normalized_gamma(rng, SANDWICH_CONCENTRATION, (n_ops, m, n), axis=1)
    return {"entries": cond * marg[:, None, :]}


def residual_inputs(seed: int, n_ops: int, round_size: int) -> dict:
    """32x32 joints with Gamma(1) cells normalized over the whole grid."""
    m, n = RESIDUAL_SHAPE
    rng = np.random.default_rng([seed, 2])
    entries = _normalized_gamma(rng, RESIDUAL_CONCENTRATION, (n_ops, m, n), axis=(1, 2))
    for i in np.flatnonzero(entries.sum(axis=1).min(axis=1) < MIN_MARGINAL):
        while True:
            g = rng.gamma(RESIDUAL_CONCENTRATION, 1.0, size=(m, n))
            g /= g.sum()
            if g.sum(axis=0).min() >= MIN_MARGINAL:
                entries[i] = g
                break
    return {"entries": entries}


def axioms_inputs(seed: int, n_ops: int, round_size: int) -> dict:
    """One axiom-suite seed per op."""
    rng = np.random.default_rng([seed, 3])
    return {"suite_seeds": rng.integers(0, 2**32, size=n_ops, dtype=np.uint64)}


# ---------------------------------------------------------------------------
# densities and ops (run in the workload process)
# ---------------------------------------------------------------------------


def sandwich_densities():
    import extenso

    return [extenso.remark5_density(), extenso.tsallis_density(SANDWICH_Q)]


def integral_densities():
    import extenso

    return [extenso.remark5_density(), extenso.remark2_density()]


def sandwich_op(functionals, inputs, i):
    from extenso import extensivity, simplex

    P = simplex.JointMatrix(inputs["entries"][i])
    return [extensivity.sandwich_check(F, P) for F in functionals]


def residual_op(functionals, inputs, i):
    from extenso import extensivity, simplex

    P = simplex.JointMatrix(inputs["entries"][i])
    f = extensivity.power_coefficient(1.0)
    return [extensivity.extensivity_residual(F, P, f) for F in functionals]


def axioms_op(functionals, inputs, i):
    from extenso import extensivity

    seed = int(inputs["suite_seeds"][i])
    return [
        extensivity.axiom_suite(F, sizes=AXIOM_SIZES, seed=seed, trials=AXIOM_TRIALS)
        for F in functionals
    ]


def encode_sandwich(reports) -> list:
    return [r.to_dict() for r in reports]


def encode_residual(values) -> list:
    return [float(v) for v in values]


def encode_axioms(reports) -> list:
    return [r.to_dict() for r in reports]


# ---------------------------------------------------------------------------
# CLI commands: fixed arguments, seed from the run
# ---------------------------------------------------------------------------

SANDWICH_CLI_INSTANCES = 100
RESIDUAL_CLI_INSTANCES = 200
AXIOMS_CLI_INSTANCES = 200


def sandwich_cli(seed: int) -> list[list[str]]:
    common = ["--m", "4", "--n", "4", "--concentration", "0.05",
              "--instances", str(SANDWICH_CLI_INSTANCES), "--seed", str(seed)]
    return [
        ["verify-sandwich", "--density", "remark5", *common],
        ["verify-sandwich", "--density", "tsallis", "--q", str(SANDWICH_Q), *common],
    ]


def residual_cli(seed: int) -> list[list[str]]:
    common = ["--power", "1", "--m", "32", "--n", "32", "--concentration", "1",
              "--instances", str(RESIDUAL_CLI_INSTANCES), "--seed", str(seed)]
    return [
        ["residual", "--density", "remark5", *common],
        ["residual", "--density", "remark2", *common],
    ]


def axioms_cli(seed: int) -> list[list[str]]:
    common = ["--max-size", "8", "--instances", str(AXIOMS_CLI_INSTANCES), "--seed", str(seed)]
    return [
        ["axioms", "--density", "remark5", *common],
        ["axioms", "--density", "remark2", *common],
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    round_size: int  # ops per round; runs attempt whole rounds
    pool_rounds: int  # distinct inputs; the loop cycles through them
    trace_rounds: int  # rounds a traced run times, untraced and traced by turns
    make_inputs: Callable[[int, int, int], dict]
    densities: Callable[[], list]
    op: Callable
    encode: Callable
    cli: Callable[[int], list[list[str]]]

    @property
    def pool_size(self) -> int:
        return self.round_size * self.pool_rounds

    def inputs(self, seed: int) -> dict:
        return self.make_inputs(seed, self.pool_size, self.round_size)


WORKLOADS = {
    "sandwich": Workload(
        "sandwich", 20, 400, 3, sandwich_inputs, sandwich_densities,
        sandwich_op, encode_sandwich, sandwich_cli,
    ),
    "residual": Workload(
        "residual", 10, 100, 10, residual_inputs, integral_densities,
        residual_op, encode_residual, residual_cli,
    ),
    "axioms": Workload(
        "axioms", 10, 100, 5, axioms_inputs, integral_densities,
        axioms_op, encode_axioms, axioms_cli,
    ),
}


def save_inputs(path, inputs: dict) -> None:
    np.savez(path, **inputs)


def load_inputs(path) -> dict:
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def dump_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
