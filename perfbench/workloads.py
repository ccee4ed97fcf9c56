"""The benchmark's workloads: seeded lists of supermod CLI invocations.

A workload is a list of groups; each group is a list of variants, and each
variant is a list of items.  A seed picks one variant per group and then
shuffles the chosen items, so the same seed always gives the same item list
and every seed gives the same number of items.  The union of all variants is
the workload's pool; ``expected.json`` records the exit code and report
digest of every pooled item, so any seed's items can be checked.

An item is one ``supermod.cli.main(argv)`` call.  ``env_seed`` is the value
of SUPERMOD_SEED while it runs (it seeds the rank cross-check of symbolic
probes); it is part of the item's identity.
"""

from __future__ import annotations

import json
import random
import shlex
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["Item", "WORKLOADS", "TIMED", "EXTRA_WORKLOADS", "build", "pool"]


@dataclass(frozen=True)
class Item:
    argv: tuple[str, ...]
    env_seed: int = 0

    @property
    def key(self) -> str:
        return f"SUPERMOD_SEED={self.env_seed} supermod {shlex.join(self.argv)}"


def _item(*argv: str, env_seed: int = 0) -> Item:
    return Item(tuple(argv), env_seed)


def _spec(family: str, **fields) -> str:
    return json.dumps({"family": family, **fields}, separators=(",", ":"))


def laurent(alpha: str) -> str:
    return _spec("laurent", alpha=alpha)


def omega(lam: str) -> str:
    return _spec("omega", **{"lambda": lam})


def fraction(alphas: tuple[str, str], betas: tuple[str, str]) -> str:
    return _spec("fraction", alphas=list(alphas), betas=list(betas))


def degree(n: int) -> str:
    return _spec("degree", n=n)


# ----------------------------------------------------------------------
# window tokens, rendered as the CLI parses them

def _pole_text(beta: str, k: int) -> str:
    value = Fraction(beta)
    if value == 0:
        return f"t^-{k}"
    if value > 0:
        return f"(t-{value})^-{k}"
    return f"(t+{-value})^-{k}"


def window_tokens(family: str, bound: int) -> list[str]:
    """Both parities of every window token (fraction poles 0 and 1, degree 2)."""
    if family == "laurent":
        base = [f"t^{i}" for i in range(-bound, bound + 1)]
    elif family == "omega":
        base = [f"D^{i}" for i in range(bound + 1)]
    elif family == "fraction":
        base = [f"t^{i}" for i in range(bound + 1)]
        base += [_pole_text(beta, k) for beta in ("0", "1") for k in range(1, bound + 1)]
    else:
        base = [f"t^{i}*d^{m}" for i in range(-bound, bound + 1) for m in range(2)]
    return base + [tok + "~" for tok in base]


# ----------------------------------------------------------------------
# parameter names: a seed picks one set; the cost does not depend on it

#: (laurent alpha, omega lambda, fraction alphas)
NAME_SETS = [("a", "l", ("a0", "a1")), ("c", "k", ("p", "q")), ("x", "m", ("u", "v"))]


# ----------------------------------------------------------------------
# axiom-symbolic: check-module with every parameter and b symbolic

def _axiom_symbolic(smoke: bool):
    window = "1,1"
    shapes = [("0", ()), ("0", ("--sigma",)), ("1/2", ()), ("1/2", ("--sigma",))]
    if smoke:
        shapes = shapes[:1]

    def checks(alpha: str, lam: str, fr_alphas: tuple[str, str]) -> list[Item]:
        specs = [laurent(alpha), omega(lam), fraction(fr_alphas, ("0", "1")), degree(2)]
        return [_item("check-module", "--module", spec, "--b", "b",
                      "--sector", sector, "--window", window, *flags)
                for spec in specs for sector, flags in shapes]

    return [[checks(*names) for names in NAME_SETS]]


# ----------------------------------------------------------------------
# probe-generic: probes from every window token at a generic rational point

#: the acceptance suite's point for the fraction family and b, which carry
#: most of the cost, and a pool of (laurent alpha, omega lambda) for the
#: seed to pick from; expected.json pins full rank from every token.
GENERIC_FRACTION = ("1/3", "1/3")
GENERIC_B = "1/3"
GENERIC_POINTS = [("1/3", "2"), ("2/5", "3"), ("1/4", "2"), ("3/7", "3"),
                  ("2/3", "2"), ("1/5", "3")]


def generic_sweep(alpha: str, lam: str, window: str, bound: int) -> list[Item]:
    """Probes from every token of the window, at one generic point."""
    specs = [
        (laurent(alpha), window_tokens("laurent", bound)),
        (omega(lam), window_tokens("omega", bound)),
        (fraction(GENERIC_FRACTION, ("0", "1")), window_tokens("fraction", bound)),
        (degree(2), window_tokens("degree", bound)),
    ]
    return [_item("probe", "--module", spec, "--b", GENERIC_B, "--seed", tok,
                  "--window", window)
            for spec, tokens in specs for tok in tokens]


def _probe_generic(smoke: bool):
    window, bound = ("1,1,1", 1) if smoke else ("2,2,2", 2)
    points = GENERIC_POINTS[:1] if smoke else GENERIC_POINTS
    return [[generic_sweep(alpha, lam, window, bound) for alpha, lam in points]]


# ----------------------------------------------------------------------
# probe-symbolic: probes over QQ(params), with the seeded cross-check

def _probe_symbolic(smoke: bool):
    env_seeds = (0, 1, 2)
    if smoke:
        return [[[_item("probe", "--module", laurent("a"), "--b", "b",
                        "--seed", "t^0", "--window", "1,1,1")]],
                [[_item("probe", "--module", omega("2"), "--b", "1/2",
                        "--seed", "D^0", "--window", "1,2,2")]]]

    def probes(spec: str, seeds: list[str], window: str):
        return [[_item("probe", "--module", spec, "--b", "b", "--seed", seed,
                       "--window", window, env_seed=s)
                 for seed in seeds] for s in env_seeds]

    lau = ["t^0", "t^1", "t^-2", "t^0~", "t^2~"]
    om = ["D^0", "D^2", "D^1~", "D^3~"]
    return [
        probes(laurent("a"), lau, "2,4,4"),
        probes(omega("l"), om, "2,4,4"),
        probes(fraction(("a0", "a1"), ("0", "1")), ["t^0", "t^0~"], "1,2,2"),
        probes(degree(2), ["t^0*d^0", "t^1*d^1~"], "1,2,2"),
        # the b = 1/2 gap: rank 9 of 10, missing D^0~, exit 1
        [[_item("probe", "--module", omega("2"), "--b", "1/2",
                "--seed", "D^0", "--window", "2,4,4")]],
        [[_item("probe", "--module", laurent("a"), "--b", "b", "--seed", "t^0",
                "--window", "2,3,4", "--specialize", spec)]
         for spec in ("a=1/3,b=1/3", "a=2/5,b=1/5")],
    ]


# ----------------------------------------------------------------------
# catalog: short calls over every subcommand and family

def _catalog(smoke: bool):
    if smoke:
        lau = laurent("a")
        return [[[_item("verify-algebra", "--sector", "0", "--window", "1")]],
                [[_item("act", "--module", lau, "--b", "b",
                        "--generator", "L[1]", "--vector", "t^0")]],
                [[_item("check-lemma", "--which", "T", "--module", lau,
                        "--b", "1/2", "--k", "1", "--d", "1", "--vector", "t^0")]]]

    def symbolic(alpha: str, lam: str, fr_alphas: tuple[str, str]) -> list[Item]:
        lau, om, deg = laurent(alpha), omega(lam), degree(2)
        fr = fraction(fr_alphas, ("0", "1"))
        return [
            _item("act", "--module", lau, "--b", "b", "--generator", "L[1]",
                  "--vector", "2*t^1 + t^0~"),
            _item("act", "--module", om, "--b", "b", "--generator", "G-[1]",
                  "--vector", "D^0~"),
            _item("act", "--module", fr, "--b", "b", "--generator", "L[1]",
                  "--vector", "(t-1)^-1~"),
            _item("act", "--module", deg, "--b", "b", "--generator", "G+[1]",
                  "--vector", "t^0*d^1"),
            _item("act", "--module", lau, "--b", "b", "--sector", "1/2",
                  "--generator", "G+[3/2]", "--vector", "t^0"),
            _item("action-table", "--module", lau, "--b", "b", "--window", "2"),
            _item("action-table", "--module", om, "--b", "b", "--window", "2"),
            _item("action-table", "--module", fr, "--b", "b", "--sector", "1/2",
                  "--window", "1"),
            _item("check-lemma", "--which", "T", "--module", lau, "--b", "b",
                  "--k", "1", "--d", "1", "--vector", "t^0"),
            _item("check-lemma", "--which", "T", "--module", om, "--b", "b",
                  "--k", "-1", "--d", "1", "--vector", "D^1"),
            _item("check-lemma", "--which", "Q", "--module", lau, "--b", "0",
                  "--m", "2", "--d", "2", "--vector", "t^1~"),
            # the singular normalizer b(1-2b) = 0: a usage error, exit 2
            _item("check-lemma", "--which", "T", "--module", lau, "--b", "1/2",
                  "--k", "1", "--d", "1", "--vector", "t^0"),
            _item("check-iso", "--witness", "identity", "--window", "1,2",
                  "--module", deg, "--b", "b"),
            _item("check-module", "--module", om, "--b", "b", "--window", "1,1"),
            # usage errors that already exit 2 without a traceback
            _item("probe", "--module", lau, "--b", "b", "--seed", "t^0",
                  "--window", "2,3,4", "--specialize", "zz=1"),
            _item("check-module", "--module", lau, "--b", "b", "--window", "1"),
        ]

    fixed = [
        _item("verify-algebra", "--sector", "0", "--window", "2"),
        _item("verify-algebra", "--sector", "1/2", "--window", "2"),
        *[_item("verify-morphism", "--map", kind, "--window", "2")
          for kind in ("delta", "varpi", "sigma-aut", "sigma-b")],
        _item("verify-morphism", "--map", "delta-roundtrip", "--window", "4"),
        _item("check-iso", "--witness", "phi", "--window", "2,3", "--alpha", "1/3"),
        _item("check-iso", "--witness", "psi", "--window", "2,3"),
        # the invariant half of the b = 1/2 Laurent module (passes), and a
        # seed that a generic action moves out of its span (exit 1)
        _item("check-submodule", "--module", laurent("0"), "--b", "1/2",
              "--window", "1,2",
              *[arg for n in range(-3, 4) for arg in ("--vector", f"t^{n}")],
              *[arg for n in range(-3, 4) if n for arg in ("--vector", f"t^{n}~")]),
        _item("check-submodule", "--module", laurent("1/3"), "--b", "1/3",
              "--window", "1,2", "--vector", "t^0"),
        _item("probe", "--module", omega("2"), "--b", "1/3", "--seed", "D^1~",
              "--window", "1,2,2"),
        _item("act", "--module", _spec("nope"), "--b", "b",
              "--generator", "L[0]", "--vector", "t^0"),
    ]
    return [[symbolic(*names) for names in NAME_SETS]] + [[[item]] for item in fixed]


# ----------------------------------------------------------------------
# contract: inputs that break the README exit-code contract at this commit

#: key -> what the program did when expected.json was recorded
CONTRACT_VIOLATIONS = {
    _item("probe", "--module", laurent("a"), "--b", "b", "--seed", "t^0",
          "--window", "2,3,4", "--specialize", "a=1/0").key:
        "exits 1 with a ZeroDivisionError traceback",
    _item("verify-morphism", "--map", "varpi", "--window", "-2").key:
        "passes with checked: 1",
    _item("verify-algebra", "--window", "0").key:
        "passes on an empty window",
    _item("action-table", "--module", laurent("a"), "--b", "b",
          "--window", "-1").key:
        "passes and emits only C",
}


def _contract(smoke: bool):
    items = [
        _item("probe", "--module", laurent("a"), "--b", "b", "--seed", "t^0",
              "--window", "2,3,4", "--specialize", "a=1/0"),
        _item("verify-morphism", "--map", "varpi", "--window", "-2"),
        _item("verify-algebra", "--window", "0"),
        _item("action-table", "--module", laurent("a"), "--b", "b",
              "--window", "-1"),
        _item("probe", "--module", laurent("a"), "--b", "b", "--seed", "t^0",
              "--window", "2,3,4", "--specialize", "zz=1"),
        _item("check-module", "--module", laurent("a"), "--b", "b",
              "--window", "0,2"),
    ]
    return [[[item]] for item in items]


WORKLOADS = {
    "axiom-symbolic": _axiom_symbolic,
    "probe-generic": _probe_generic,
    "probe-symbolic": _probe_symbolic,
    "catalog": _catalog,
}

#: the workloads BENCHMARK.json times.  On a shared two-vCPU VM the CPU's
#: speed drifts by about 20% over minutes, and only runs near a minute long
#: average that out; the run budget allows such runs for two workloads.
#: These two are the
#: contrast ROADMAP item 2 turns on (mixed-ring scalars under a memoized
#: g_act, parameter-free scalars under an unmemoized one) and between them
#: they run every layer.  probe-symbolic and catalog stay runnable by name.
TIMED = ("axiom-symbolic", "probe-generic")

#: runnable by name but never timed: its items fail on purpose
EXTRA_WORKLOADS = {"contract": _contract}


def _groups(name: str, smoke: bool):
    maker = WORKLOADS.get(name) or EXTRA_WORKLOADS.get(name)
    if maker is None:
        raise KeyError(name)
    return maker(smoke)


def build(name: str, seed: int, smoke: bool = False) -> list[Item]:
    """The seeded item list of one workload."""
    rng = random.Random(f"{name}:{seed}")
    items = [item for group in _groups(name, smoke)
             for item in rng.choice(group)]
    rng.shuffle(items)
    return items


def pool(name: str, smoke: bool = False) -> list[Item]:
    """Every item any seed can draw, in a fixed order, without repeats."""
    seen: dict[str, Item] = {}
    for group in _groups(name, smoke):
        for variant in group:
            for item in variant:
                seen.setdefault(item.key, item)
    return list(seen.values())
