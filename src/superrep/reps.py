"""Concrete unitary representations on finite-dimensional graded spaces.

A representation consists of a diagonal +-1 grading matrix (the image of the
epsilon element), a group layer (a unitary matrix per element for finite
groups; for the line, pi(t) = exp(t rho(z)) with rho(z) = i diag(nu_j) the
line generator's matrix), and one complex matrix per algebra basis element.
Its fields cannot be reassigned and its arrays are read-only copies, so the
axioms of a unitary representation are checked once per representation
(``MatrixRep.report``) with explicit witness matrices: each check is
``np.allclose(lhs, rhs, atol=TOL, rtol=1e-5)`` per matrix, and all of them
are evaluated in one fused comparison.

The bridge ``rep_hat`` sends D (x) f to rho(D) pi(f), skipping a term whose
rho(D) is the zero matrix; it is the one way into matrices, and it refuses a
representation whose report failed and an image with a NaN or an infinite
entry (OverflowError).  Its operator norm over an explicit family gives the
lower end of the seminorm interval.  The upper end, valid for every
representation at once, is a certified fold over the odd letters of each
stored word: each is peeled by Cauchy-Schwarz, which turns its square, a
multiple of the central z, into one more derivative of f.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .crossed import CrossedElement, mul_group, mul_lie
from .errors import MismatchError, StructureError, UnsupportedInstanceError
from .functions import fourier_at, l1_bound
from .groups import FINITE, LINE, GroupPoint, Supergroup
from .superalgebra import is_nilpotent, is_odd_generated
from .validation import ValidationReport

Word = tuple[int, ...]

# absolute tolerance of every witness comparison in validate_rep
TOL = 1e-9


def _finite(mat: np.ndarray) -> np.ndarray:
    """``mat`` itself; a NaN or an infinite entry raises OverflowError."""
    if not np.isfinite(mat).all():
        raise OverflowError("matrix with a non-finite entry")
    return mat


def operator_norm(mat: np.ndarray) -> float:
    """Spectral norm, the largest singular value from one SVD (the LAPACK call
    ``np.linalg.norm(mat, 2)`` makes, so the same float); 0.0 for an empty
    matrix, and a non-finite matrix is refused (OverflowError)."""
    return float(np.linalg.svd(_finite(mat), compute_uv=False)[0]) if mat.size else 0.0


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """A unitary representation given by explicit matrices, frozen and equal only to itself."""

    name: str
    pair: Supergroup
    grading: np.ndarray  # diagonal +-1 matrix, the image of epsilon
    rho: tuple[np.ndarray, ...]  # one matrix per algebra basis element
    pi_table: tuple[np.ndarray, ...] | None = None  # finite: per group element
    # rho(word) per word taken, filled by rho_word; outside repr
    words: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        """Keep read-only copies of the arrays, so that no write to them can
        leave ``report`` stale; the caller's arrays stay writeable."""
        def frozen(mat):
            mat = np.array(mat)
            mat.flags.writeable = False
            return mat

        object.__setattr__(self, "grading", frozen(self.grading))
        object.__setattr__(self, "rho", tuple(map(frozen, self.rho)))
        if self.pi_table is not None:
            object.__setattr__(self, "pi_table", tuple(map(frozen, self.pi_table)))

    @property
    def dim(self) -> int:
        return self.grading.shape[0]

    @cached_property
    def report(self) -> ValidationReport:
        """``validate_rep(self)``, computed once; ``rep_hat`` raises from it."""
        return validate_rep(self)

    @cached_property
    def _pieces(self) -> tuple[tuple[float, np.ndarray, np.ndarray], ...]:
        """A line rep's (nu, P, P grading) per distinct nu_j of rho(z) = i diag(nu_j), in
        order, P the real diagonal projection onto nu_j = nu (one empty piece if d = 0)."""
        nus = np.diag(self.rho[self.pair.generator_index]).imag
        out = []
        for nu in dict.fromkeys(nus.tolist()) or [0.0]:
            mask = nus == nu
            proj, part = np.diag(mask.astype(float)), np.where(mask[:, None], self.grading, 0)
            proj.flags.writeable = part.flags.writeable = False
            out.append((nu, proj, part))
        return tuple(out)

    def pi(self, point: GroupPoint) -> np.ndarray:
        """The group layer on the epsilon-extension (on the line, sum e^{i nu t} P)."""
        if self.pair.group.kind == FINITE:
            base = self.pi_table[point.base]
        else:
            base = reduce(np.add, (np.exp(1j * nu * float(point.base)) * proj
                                   for nu, proj, _ in self._pieces))
        return base @ self.grading if point.eps else base

    def rho_word(self, word: Word) -> np.ndarray:
        """rho(b_w1) ... rho(b_wk): the complex identity multiplied on the
        right by each letter's matrix in turn.  Formed once per word and kept
        read-only in ``words``, as rho is fixed once the representation is
        built."""
        out = self.words.get(word)
        if out is None:
            out = np.eye(self.dim, dtype=complex)
            for i in word:
                out = out @ self.rho[i]
            out.flags.writeable = False
            self.words[word] = out
        return out

    def _pi_function(self, f) -> np.ndarray:
        """pi(f): the function integrated against the group layer; f is a
        function of the pair, as ``rep_hat``, the only caller, has checked."""
        if self.pair.group.kind == FINITE:
            out = np.zeros((self.dim, self.dim), dtype=complex)
            for point, v in f.values.items():
                out += complex(v) * self.pi(point)
            return out
        return reduce(np.add, (fourier_at(f, nu, "plus") * proj + fourier_at(f, nu, "eps") * part
                               for nu, proj, part in self._pieces))


def _rho_of(coords: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """rho of the vector with each row of ``coords`` as its coordinates:
    c * rho[k] is added to zeros in index order, skipping zero coefficients,
    so that a zero coordinate never multiplies an inf or nan entry."""
    out = np.zeros((len(coords),) + rho.shape[1:], dtype=complex)
    for k in range(len(rho)):
        c = coords[:, k]
        hit = c != 0
        if hit.any():
            out[hit] += c[hit][:, None, None] * rho[k]
    return out


def _complex_matrices(matrices, d: int) -> np.ndarray:
    """Rational d x d matrices as a complex stack; each entry c becomes
    numerator / denominator + 0j, which is complex(c)."""
    return np.array(
        [c.numerator / c.denominator for m in matrices for row in m for c in row],
        dtype=complex,
    ).reshape(len(matrices), d, d)


@np.errstate(over="ignore", invalid="ignore")
def validate_rep(rep: MatrixRep) -> ValidationReport:
    """Check the unitary-representation axioms with explicit witnesses,
    afresh; ``MatrixRep.report`` keeps the first result.

    Each witnessed check is ``np.allclose(lhs, rhs, atol=TOL)`` (so rtol
    1e-5) on one matrix per label, and its detail joins the labels whose
    matrices differ into the check's format.  The witness matrices of all
    checks are stacked and compared in one fused ``np.isclose``.  A failing
    shape check ends the report, so that only n x n matrices are stacked.
    Witnesses are formed with numpy's overflow and invalid-value warnings
    off; a NaN in a witness matches nothing, so its check fails, and a
    failing label whose witness has a NaN or an infinite entry is marked
    "(non-finite witness)"."""
    report = ValidationReport(f"representation {rep.name}")
    shape = np.shape(rep.grading)
    if len(shape) != 2 or shape[0] != shape[1]:  # the only row of its report
        report.add("grading_shape", False, "grading must be a square matrix")
        return report
    pair = rep.pair
    algebra = pair.algebra
    names = algebra.basis_names
    finite = pair.group.kind == FINITE
    n, d = rep.dim, algebra.dim
    eye = np.eye(n)
    grading = rep.grading
    no_witness = np.empty((0, n, n))

    # (name, detail format, labels, lhs stack, rhs stack), one witness matrix
    # per label on each side; a check without witnesses passes
    diagonal = np.diag(grading)
    checks = [
        # diagonal, with entries of modulus 1, and real
        ("grading_diagonal_sign", "", range(3),
         [grading, np.diag(np.abs(diagonal)), grading.imag],
         [np.diag(diagonal), eye, np.zeros((n, n))]),
        ("grading_involutive", "", [0], [grading @ grading], [eye]),
    ]
    stop = None  # the failing shape check, as (name, ok, detail)
    size = pair.group.finite.size if finite else 0
    if len(rep.rho) != d:
        stop = ("rho_shape", False, "one matrix per basis element required")
    elif any(m.shape != (n, n) for m in rep.rho):
        stop = ("rho_shape", False, "")
    else:
        checks.append(("rho_shape", "", [], no_witness, no_witness))
        if finite and (rep.pi_table is None or len(rep.pi_table) != size
                       or any(m.shape != (n, n) for m in rep.pi_table)):
            stop = ("pi_table", False, "one unitary matrix per group element required")
        elif not finite and rep.pi_table is not None:
            stop = ("frequency", False, "line representation takes no pi_table")
    if stop is None:
        rho = np.array(rep.rho).reshape(d, n, n)
        if finite:
            pis = np.array(rep.pi_table)
            elements = pair.group.finite.element_names
            left, right = np.divmod(np.arange(size * size), size)
            checks += [
                ("pi_unitary", "{}", elements,
                 pis @ pis.conj().swapaxes(-1, -2), np.array([eye] * size)),
                ("pi_homomorphism", "pairs [{}]",
                 [(a, b) for a in range(size) for b in range(size)],
                 pis[left] @ pis[right], pis[np.ravel(pair.group.finite.table)]),
                ("grading_commutes_with_group", "{}", elements,
                 pis @ grading, grading @ pis),
            ]
            points = list(pair.points())
        else:
            checks += [
                ("frequency", "", [], no_witness, no_witness),
                # axiom (iii): rho(z) = i diag(nu), so that pi(t) = exp(t rho(z))
                ("derived_generator", "rho(z) must be i*diag(nu) with nu real",
                 [0], rho[[pair.generator_index]], 1j * rho[[pair.generator_index]].imag * eye),
            ]
            points = [GroupPoint(1.0, False), GroupPoint(0.5, True), GroupPoint(0.0, True)]
        pg = np.array([rep.pi(p) for p in points])
        m = len(points)
        odd = np.array(algebra.parity, dtype=bool)
        # rho of [b_i, b_j], then of Ad(g) b_i, the columns of Ad(g)
        ads = _complex_matrices([pair.ad_point(p) for p in points], d).swapaxes(-1, -2)
        targets = _rho_of(np.concatenate([_complex_matrices(algebra.constants, d), ads])
                          .reshape((d + m) * d, d), rho)
        # rho(b_i) rho(b_j) - sign rho(b_j) rho(b_i), sign -1 for two odd
        sign = np.where(odd[:, None] & odd[None, :], -1.0, 1.0)[:, :, None, None]
        prods = rho[:, None] @ rho[None, :]
        adjoints = rho.conj().swapaxes(-1, -2)
        moved = (pg[:, None] @ rho[None]) @ pg.conj().swapaxes(-1, -2)[:, None]
        checks += [
            # axiom (ii): bracket morphism on all basis pairs
            ("bracket_morphism", "{}", [f"[{a},{b}]" for a in names for b in names],
             (prods - sign * prods.swapaxes(0, 1)).reshape(d * d, n, n), targets[:d * d]),
            # axiom (iv): exp(-i pi/4) rho(x) symmetric, i.e. rho(x)^dag = -i rho(x)
            ("odd_symmetry", "{}", [names[i] for i in algebra.odd_indices()],
             adjoints[odd], -1j * rho[odd]),
            # even generators must be skew-adjoint (derived from a unitary action)
            ("even_skew_adjoint", "{}", [names[i] for i in algebra.even_indices()],
             adjoints[~odd], -rho[~odd]),
            # axiom (v): covariance, including the epsilon element (parity grading)
            ("covariance", "{}", [f"Ad{point!r} on {name}" for point in points for name in names],
             moved.reshape(m * d, n, n), targets[d * d:]),
        ]

    lhs, rhs = (np.concatenate(stacks) for stacks in zip(*(c[3:] for c in checks)))
    verdicts = iter(zip(np.isclose(lhs, rhs, atol=TOL).all(axis=(-2, -1)).tolist(),
                        (np.isfinite(lhs) & np.isfinite(rhs)).all(axis=(-2, -1)).tolist()))
    for name, fmt, labels, _, _ in checks:
        bad = [f"{label}{'' if clean else ' (non-finite witness)'}"
               for label, (ok, clean) in zip(labels, verdicts) if not ok]
        report.add(name, not bad, fmt.format(", ".join(bad)))
    if stop:
        report.add(*stop)
    return report


# an errstate instance of its own: numpy < 2 keeps the saved state on the
# instance, and rep_hat may call validate_rep through rep.report
@np.errstate(over="ignore", invalid="ignore")
def rep_hat(rep: MatrixRep, a: CrossedElement) -> np.ndarray:
    """The bridge: sum of rho(D) pi(f) over the canonical terms, formed with
    numpy's overflow and invalid-value warnings off; a term whose rho(D) is
    the zero matrix adds nothing, even where pi(f) overflows.  A rep whose
    report failed is refused, and so is a non-finite image (OverflowError)."""
    rep.report.raise_if_failed()
    if a.pair != rep.pair:
        raise MismatchError("element and representation live over different pairs")
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for word, f in a.terms.items():
        rho = rep.rho_word(word)
        if rho.any():
            out += rho @ rep._pi_function(f)
    return _finite(out)


# ---------------------------------------------------------------------------
# certified norm bound
# ---------------------------------------------------------------------------


def _peel(tail: float, pushed: float) -> float:
    """The bound on || rho(y) W v || from tail >= || W v || and pushed >=
    || rho([y, y]) W v ||: by Cauchy-Schwarz, || rho(y) W v ||^2 <= 1/2 tail *
    pushed.  A zero factor gives 0.0 even where the other overflows."""
    return 0.0 if tail == 0.0 or pushed == 0.0 else (0.5 * tail * pushed) ** 0.5


def _word_bounds(a: CrossedElement) -> tuple[dict[Word, float], float]:
    """The bound of each term D (x) f of ``a`` by word, in ``a.terms`` order,
    and their sum, ``prop33_bound(a)``.  Each word is read as it stands: its
    odd letters y_1 ... y_r and m = len(word) - r letters z, as on every pair
    the bound accepts z is central and each [y, y] is c_y z or 0.  The row
    L1(f^(m)), ..., L1(f^(m+r)) of z-derivatives (an L1 norm drops the sign
    of R_z f = -f') is peeled by y_r, ..., y_1: peeling y sets row[k] to
    _peel(row[k], |c_y| row[k+1]) for each k but the last."""
    a.pair.require_trivial_line_ad()
    algebra = a.pair.algebra
    bounds = {}
    for word, f in a.terms.items():
        squares = [algebra.bracket_terms[y][y] for y in word if algebra.parity[y]]
        if not all(squares):
            bounds[word] = 0.0  # a vanishing [y, y] forces rho(y) = 0 in every representation
            continue
        for _ in range(len(word) - len(squares)):
            f = f.derivative()
        row = [l1_bound(f)]
        for _ in squares:
            f = f.derivative()
            row.append(l1_bound(f))
        for i in reversed(range(len(squares))):
            [(_, cy)] = squares[i]
            weight = abs(float(cy))
            for k in range(i + 1):
                row[k] = _peel(row[k], weight * row[k + 1])
        bounds[word] = row[0]
    return bounds, sum(bounds.values(), 0.0)


def prop33_bound(a: CrossedElement) -> float:
    """Certified M >= || rep_hat(R, a) || for every validated representation R."""
    return _word_bounds(a)[1]


# ---------------------------------------------------------------------------
# seminorm intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeminormInterval:
    lower: float
    upper: float
    empty_family: bool = False

    def __post_init__(self):
        if self.lower > self.upper:
            raise StructureError("seminorm interval must satisfy lower <= upper, "
                                 f"got {self.lower!r} > {self.upper!r}")

    @property
    def kernel_flag(self) -> bool:
        """The certified bound forces the value to 0."""
        return self.upper == 0.0

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "kernel_flag": self.kernel_flag,
            "empty_family": self.empty_family,
        }


def seminorm_interval(a: CrossedElement, family: list[MatrixRep]) -> SeminormInterval:
    """Interval estimate of the universal seminorm: the family maximum from
    below, the certified recursion from above, both as computed; a family
    maximum above the bound is refused (StructureError)."""
    upper = prop33_bound(a)
    if not family:
        return SeminormInterval(0.0, upper, empty_family=True)
    return SeminormInterval(max(operator_norm(rep_hat(rep, a)) for rep in family), upper)


# ---------------------------------------------------------------------------
# reconstruction (group and algebra action recovered from the bridge)
# ---------------------------------------------------------------------------


def reconstruct_pi(
    rep: MatrixRep, g: GroupPoint, probe: CrossedElement, v: np.ndarray
) -> np.ndarray:
    """Recover pi(g) on the vector rep_hat(probe) v as rep_hat of the left
    multiplier action on the probe, applied to v; the identity holds for
    every v, so a vanishing probe image gives pi(g) 0 = 0."""
    return rep_hat(rep, mul_group(rep.pair, g).lam(probe)) @ v


def reconstruct_rho(
    rep: MatrixRep, x, probe: CrossedElement, v: np.ndarray
) -> np.ndarray:
    """Recover rho(x) on the vector rep_hat(probe) v via the Lie multiplier;
    like ``reconstruct_pi``, it holds for every v."""
    return rep_hat(rep, mul_lie(rep.pair, x).lam(probe)) @ v


# ---------------------------------------------------------------------------
# Taylor bound and structural reports
# ---------------------------------------------------------------------------


def taylor_norm_check(
    pair: Supergroup,
    a: CrossedElement,
    family: list[MatrixRep],
) -> dict:
    """Check that the first-order Taylor defect of the one-parameter orbit
    stays below half the certified bound on the twice-differentiated element.
    """
    if a.pair != pair:
        raise MismatchError("element and pair live over different pairs")
    if pair.group.kind != LINE:
        raise UnsupportedInstanceError("Taylor check requires a line instance")
    z = pair.generator_index
    lam_z = mul_lie(pair, z)
    z_a = lam_z.lam(a)
    # the constant M bounds rho(z^2 D) pi(f) uniformly over representations
    m_const = prop33_bound(lam_z.lam(z_a))
    rows = []
    for t in (1e-1, 1e-2, 1e-3):
        moved = mul_group(pair, GroupPoint(t, False)).lam(a)
        defect = (moved - a).scale(1.0 / t) - z_a
        family_max = max(
            (operator_norm(rep_hat(rep, defect)) for rep in family), default=0.0
        )
        bound = 0.5 * m_const * abs(t)
        rows.append({"t": t, "family_max": family_max, "bound": bound, "ok": family_max <= bound})
    ratios = [
        rows[i + 1]["family_max"] / rows[i]["family_max"]
        for i in range(len(rows) - 1)
        if rows[i]["family_max"] > 0
    ]
    return {"m_const": m_const, "steps": rows, "decay_ratios": ratios,
            "ok": all(r["ok"] for r in rows)}


def ccr_report(family: list[MatrixRep], generators: list[CrossedElement]) -> dict:
    """Desk-scale compactness report: every shipped representation is finite
    dimensional, so images are finite rank; the structural hypotheses are
    recorded alongside."""
    out = {"representations": [], "flags": {}}
    for rep in family:
        images = [rep_hat(rep, a).reshape(-1) for a in generators]
        rank = int(np.linalg.matrix_rank(np.array(images), tol=1e-10)) if images else 0
        out["representations"].append(
            {
                "name": rep.name,
                "dim": rep.dim,
                "finite_rank": True,
                "image_span_dim": rank,
            }
        )
    if family:
        algebra = family[0].pair.algebra
        out["flags"] = {
            "nilpotent": is_nilpotent(algebra),
            "odd_generated": is_odd_generated(algebra),
        }
    return out
