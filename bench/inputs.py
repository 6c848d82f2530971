"""Seeded input generation for the benchmark workloads.

Everything here is plain data (ints, floats, lists, tuples, strings) made
from ``random.Random(seed)``; it imports nothing from ``superrep``, so it
runs before the set-up clock starts.  Each op builds its program objects from
this data inside the timed region.

Rationals are ``(num, den)`` pairs and Gaussian rationals are
``(re_num, re_den, im_num, im_den)``.  A Gaussian-polynomial term is
``(rate, center, ((re, im), ...))``.
"""

from __future__ import annotations

import itertools
import random

# Ops generated before timing starts; the timed loop runs this pool round
# after round (see ``worker.run_ops``), 1.5-5 s a round at the program's
# speed when the benchmark was defined.  A pool of 100 ops or more puts ten
# beyond the p90 (cli cycles its 15 commands 7 times); finite_xp's ops are
# the slowest, and it keeps 60 so that a 20 s run still has six rounds to
# take each op's median over.
POOL_SIZES = {"pbw": 100, "finite_xp": 60, "line_cert": 100, "cli": 105}

WORKLOADS = ("pbw", "finite_xp", "line_cert", "cli")

# cli: every subcommand on the shipped catalogs, plus one malformed file.
MALFORMED_FILE = "bench/fixtures/malformed.sexp"
CLI_COMMANDS = (
    ("--catalog", "hc", "validate", "--pair", "hcline"),
    ("--catalog", "hc", "nf", "--algebra", "hc", "--word", "x,x,x"),
    ("--catalog", "hc", "bound", "--elem", "axz"),
    ("--catalog", "hc", "seminorm", "--elem", "ax", "--family", "hc-grid"),
    ("--catalog", "hc", "--seed", "7", "roundtrip", "--rep", "hc-rep-2", "--probe", "a0"),
    ("--catalog", "podd", "xp-mul", "--left", "bx", "--right", "bs"),
    ("--catalog", "hc", "dagger", "--algebra", "hc", "--word", "x,z"),
    ("--catalog", "podd", "xp-star", "--elem", "bmix"),
    ("--catalog", "hc", "gamma-check", "--pair", "hcline", "--f", "gauss1", "--h", "gauss2"),
    ("--catalog", "hc", "rep-check", "--rep", "hc-rep-2"),
    ("--catalog", "hc", "hat", "--rep", "hc-rep-2", "--elem", "ax"),
    ("--catalog", "hc", "ccr-report", "--family", "hc-grid", "--elem", "a0"),
    ("--catalog", "hc", "orbit-deriv", "--pair", "hcline", "--elem", "a0"),
    ("--catalog", "hc", "taylor", "--pair", "hcline", "--elem", "a0", "--family", "hc-grid"),
    ("--file", MALFORMED_FILE, "validate", "--pair", "hcbadline"),
)


def _rational(rng: random.Random, lo=-5, hi=5, max_den=4):
    num = 0
    while num == 0:
        num = rng.randint(lo, hi)
    return (num, rng.randint(1, max_den))


def _gaussian_rational(rng: random.Random):
    re, im = _rational(rng), _rational(rng)
    if rng.random() < 0.5:
        im = (0, 1)
    return re + im


def _gaussian_integer(rng: random.Random):
    re = im = 0
    while re == 0 and im == 0:
        re, im = rng.randint(-3, 3), rng.randint(-3, 3)
    return (re, 1, im, 1)


# ---------------------------------------------------------------------------
# pbw: fresh members of two one-parameter families
# ---------------------------------------------------------------------------

# dimensions of gl(1|1) on (N, E, psi+, psi-) and of hc2 on (z, x1, x2)
PBW_FAMILIES = {"gl11": 4, "hc2": 3}
PBW_CONFLUENCE_WORDS = 3
PBW_WORD_LENGTH = 6
PBW_ELEMENT_TERMS = 2


def _ue_element(rng: random.Random, dim: int, terms: int, max_len: int):
    return [
        (tuple(rng.randrange(dim) for _ in range(rng.randint(1, max_len))),
         _gaussian_rational(rng))
        for _ in range(terms)
    ]


def pbw_op(rng: random.Random) -> dict:
    op = {"q": _rational(rng), "a": _rational(rng), "b": _rational(rng)}
    for family, dim in PBW_FAMILIES.items():
        op[family] = {
            "words": [tuple(rng.randrange(dim) for _ in range(PBW_WORD_LENGTH))
                      for _ in range(PBW_CONFLUENCE_WORDS)],
            "elements": [_ue_element(rng, dim, PBW_ELEMENT_TERMS, 2) for _ in range(3)],
            "scalar": _gaussian_rational(rng),
        }
    return op


# ---------------------------------------------------------------------------
# finite_xp: the bench-owned S3 pair (6 group elements, 3 odd generators)
# ---------------------------------------------------------------------------

S3_SIZE = 6
# PBW monomials of degree <= 2 over three odd generators with zero brackets
S3_WORDS = ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2))
# One size class: every element has one term of each of these degrees (a
# unit word costs more than the others, and products of words that share a
# letter vanish, so free degrees would split the ops into modes).
FINITE_DEGREES = (1, 2)
FINITE_SUPPORT = 3


def _finite_function(rng: random.Random):
    points = rng.sample([(g, eps) for eps in (False, True) for g in range(S3_SIZE)],
                        FINITE_SUPPORT)
    return [(point, _gaussian_integer(rng)) for point in sorted(points)]


def _finite_element(rng: random.Random):
    return [(rng.choice([w for w in S3_WORDS if len(w) == degree]), _finite_function(rng))
            for degree in FINITE_DEGREES]


def finite_xp_op(rng: random.Random) -> dict:
    return {
        "elements": [_finite_element(rng) for _ in range(3)],
        "point": (rng.randrange(S3_SIZE), rng.random() < 0.5),
        "f": _finite_function(rng),
        "h": _finite_function(rng),
        "D": rng.choice(S3_WORDS[1:4]),
    }


# ---------------------------------------------------------------------------
# line_cert: hcline (shipped) and hc2line (bench-owned)
# ---------------------------------------------------------------------------

LINE_PAIRS = {"hcline": 2, "hc2line": 3}  # pair -> algebra dimension
# One size class: every element has a term of each word degree below, each
# component LINE_GAUSS_TERMS Gaussian terms of LINE_COEFFS coefficients.
LINE_DEGREES = (1, 3)
LINE_GAUSS_TERMS = 2
LINE_COEFFS = 1


def _gauss_term(rng: random.Random):
    coeffs = tuple((round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3))
                   for _ in range(LINE_COEFFS))
    return (round(rng.uniform(0.5, 2.5), 2), round(rng.uniform(-1, 1), 2), coeffs)


def _line_function(rng: random.Random):
    return {side: [_gauss_term(rng) for _ in range(LINE_GAUSS_TERMS)]
            for side in ("plus", "eps")}


def _line_element(rng: random.Random, dim: int):
    return [(tuple(rng.randrange(dim) for _ in range(degree)), _line_function(rng))
            for degree in LINE_DEGREES]


def line_cert_op(rng: random.Random) -> dict:
    return {pair: [_line_element(rng, dim) for _ in range(2)]
            for pair, dim in LINE_PAIRS.items()}


def stream(workload: str, seed: int):
    """Endless seeded stream of op inputs; cli ops are indices into
    CLI_COMMANDS, cycled from a seeded starting offset."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        start = rng.randrange(len(CLI_COMMANDS))
        return ((start + k) % len(CLI_COMMANDS) for k in itertools.count())
    make = {"pbw": pbw_op, "finite_xp": finite_xp_op, "line_cert": line_cert_op}[workload]
    return (make(rng) for _ in itertools.count())


def generate(workload: str, seed: int, count: int | None = None) -> list:
    count = POOL_SIZES[workload] if count is None else count
    return list(itertools.islice(stream(workload, seed), count))
