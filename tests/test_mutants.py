"""Every verdict can fail: one table of mutants, each monkeypatched in process,
with the check that must fail under it.

A check returns True when the program passes it.  Each check of a row must
pass on the program as it is and fail once the row's mutant is patched in.
A CLI check runs ``superrep`` on fresh catalog snapshots: the twist memo of
a warm snapshot would hide a twist mutant, and the memo entries a mutant
fills would leak into later calls.  Convolution, dagger and breve have no
CLI verdict that fails under a mutant (``gamma-check`` compares two sides
that share the convolution), so their rows check *-algebra identities.
The L1 bound's upward step past the float range of the gamma value is
checked against an mpmath value of the norm.  A seminorm interval that clamps
its lower end to the bound is caught by ``seminorm`` on representations whose
image beats the bound, which must exit 1 with both numbers.  A line
representation's group layer taken at its first frequency only is caught by
``taylor`` on a family that holds the reducible hc-rep-1 (+) hc-rep-2, read
with ``--file``: the shipped line representations have one frequency each.
"""

import contextlib
import io
import itertools
import json
import os
import tempfile

import mpmath
import numpy as np
import pytest

from superrep import cli, crossed, functions, reps
from superrep.catalog import load_catalog
from superrep.crossed import xp_multiply, xp_star
from superrep.functions import FiniteFunction, GaussianPoly, l1_bound

from test_cli import BEATEN_BOUNDS
from test_reps import SUM12


def cli_run(*argv) -> tuple[int, dict]:
    """Exit code and JSON document of ``superrep argv`` on fresh snapshots."""
    cli._snapshot.cache_clear()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(list(argv))
    finally:
        cli._snapshot.cache_clear()
    return code, json.loads(out.getvalue())


def cli_verdict(*argv):
    """A check: ``superrep argv`` exits 0 with ok true, not 1 with ok false;
    any other outcome fails the test."""
    def check():
        code, doc = cli_run(*argv)
        verdict = (code, doc.get("ok"))
        assert verdict in {(0, True), (1, False)}, (argv, verdict)
        return verdict == (0, True)

    check.__name__ = " ".join(argv)
    return check


def file_verdict(source, *argv):
    """cli_verdict of ``superrep --catalog hc --file F argv``, with ``source``
    written to F."""
    def check():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "extra.sexp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source)
            return cli_verdict("--catalog", "hc", "--file", path, *argv)()

    check.__name__ = " ".join(("--file", *argv))
    return check


def seminorm_refused(name):
    """A check: ``seminorm`` on the BEATEN_BOUNDS input ``name`` exits 1 and
    names both numbers, not 0 with an interval; any other outcome fails the
    test."""
    catalog, source, elem, family, *_, numbers = BEATEN_BOUNDS[name]

    def check():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "beaten.sexp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source)
            code, doc = cli_run("--catalog", catalog, "--file", path,
                                "seminorm", "--elem", elem, "--family", family)
        if code == 0:
            return False
        assert (code, doc) == (1, {"error": "seminorm interval must satisfy lower <= upper, "
                                            f"got {numbers}"}), name
        return True

    check.__name__ = f"seminorm on {name}"
    return check


def interval_clamped(clamp):
    """The mutant of SeminormInterval whose lower end is ``clamp(lower, upper)``."""
    return lambda original: lambda lower, upper, empty_family=False: original(
        clamp(lower, upper), upper, empty_family)


LINE_ROUNDTRIP = cli_verdict("--catalog", "hc", "--seed", "7", "roundtrip",
                             "--rep", "hc-rep-2", "--probe", "a0")
FINITE_ROUNDTRIP = cli_verdict("--catalog", "podd", "roundtrip", "--rep", "reg4", "--probe", "b0")
TAYLOR = cli_verdict("--catalog", "hc", "taylor", "--pair", "hcline", "--elem", "a0",
                     "--family", "hc-grid")
SUM12_TAYLOR = file_verdict(SUM12 + "(family sum12-only sum12)\n", "taylor", "--pair", "hcline",
                            "--elem", "a0", "--family", "sum12-only")


def hat_is_multiplicative():
    """rep_hat(ab) = rep_hat(a) rep_hat(b) on ax and axz, on hc-rep-2."""
    ws = load_catalog("hc")
    rep, elements = ws.reps["hc-rep-2"], [ws.elements["ax"], ws.elements["axz"]]
    return all(
        np.allclose(reps.rep_hat(rep, xp_multiply(a, b)),
                    reps.rep_hat(rep, a) @ reps.rep_hat(rep, b), atol=1e-9)
        for a, b in itertools.product(elements, repeat=2))


def star_reverses_products():
    """(ab)* = b* a* on bx and bmix, exactly."""
    ws = load_catalog("podd")
    elements = [ws.elements["bx"], ws.elements["bmix"]]
    return all(xp_star(xp_multiply(a, b)) == xp_multiply(xp_star(b), xp_star(a))
               for a, b in itertools.product(elements, repeat=2))


def star_is_involutive():
    """a** = a on every catalog element, exactly."""
    return all(xp_star(xp_star(a)) == a for a in load_catalog().elements.values())


def l1_bound_covers_the_moment():
    """l1_bound of t^342 exp(-1000 t^2) is no smaller than its L1 norm,
    Gamma(171.5) / 1000^171.5 (mpmath, 300 bits).  The gamma value is out
    of the float range there, and the nearest float to the norm lies below
    it."""
    f = GaussianPoly.gaussian(1e3, 0.0, (0.0,) * 342 + (1.0,))
    with mpmath.workprec(300):
        e = mpmath.mpf(343) / 2
        return mpmath.mpf(l1_bound(f)) >= mpmath.gamma(e) / mpmath.mpf(1000) ** e


def pieces_at_first_frequency(original):
    """The mutant of MatrixRep._pieces that evaluates every block at the first
    frequency: one piece (nu_1, 1, grading)."""
    return property(lambda rep: ((original.func(rep)[0][0], np.eye(rep.dim), rep.grading),))


def translation_skipped_on(kind):
    """The mutant of left_translate that returns a function of ``kind``
    unchanged."""
    return lambda original: lambda g, f: f if isinstance(f, kind) else original(g, f)


KILLED = [
    pytest.param(crossed, "left_translate", translation_skipped_on(GaussianPoly),
                 [LINE_ROUNDTRIP, TAYLOR], id="line-translation-skipped"),
    pytest.param(crossed, "left_translate", translation_skipped_on(FiniteFunction),
                 [FINITE_ROUNDTRIP], id="finite-translation-skipped"),
    pytest.param(crossed, "apply_auto",
                 lambda original: lambda algebra, phi, a: original(algebra, phi, a).scale(-1),
                 [LINE_ROUNDTRIP, FINITE_ROUNDTRIP, TAYLOR], id="twist-sign"),
    pytest.param(reps, "fourier_at",
                 lambda original: lambda f, freq, component="plus": original(f, -freq, component),
                 [LINE_ROUNDTRIP, TAYLOR], id="fourier-sign"),
    pytest.param(reps.MatrixRep, "_pieces", pieces_at_first_frequency, [SUM12_TAYLOR],
                 id="pieces-at-first-frequency"),
    pytest.param(crossed, "convolve", lambda original: lambda f, h: original(f, h).scale(2),
                 [hat_is_multiplicative], id="convolution-doubled"),
    pytest.param(crossed, "dagger", lambda original: lambda a: -original(a),
                 [star_reverses_products], id="dagger-sign"),
    pytest.param(crossed, "breve", lambda original: lambda f: f,
                 [star_is_involutive], id="breve-skipped"),
    pytest.param(functions, "_abs_moment",
                 lambda original: lambda k, rate, up=True: original(k, rate, up=False),
                 [l1_bound_covers_the_moment], id="moment-fallback-not-rounded-up"),
    pytest.param(reps, "SeminormInterval", interval_clamped(min),
                 [seminorm_refused("finite"), seminorm_refused("zero-bound")],
                 id="interval-clamped-to-bound"),
    pytest.param(reps, "SeminormInterval",
                 interval_clamped(lambda lower, upper: 0.0 if upper == 0.0 else lower),
                 [seminorm_refused("zero-bound")], id="interval-zeroed-at-zero-bound"),
]


@pytest.mark.parametrize("module, name, mutate, checks", KILLED)
def test_each_check_fails_under_its_mutant(monkeypatch, module, name, mutate, checks):
    assert [check() for check in checks] == [True] * len(checks)
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    assert [check() for check in checks] == [False] * len(checks)
