"""Finite-dimensional real Lie superalgebras given by structure constants.

An algebra is a graded basis b_0, ..., b_{n-1} with parities in {0, 1} and
rational structure constants c[i][j][k] such that [b_i, b_j] = sum_k
c[i][j][k] b_k.  Validation checks super-skew-symmetry, parity
compatibility and the graded Jacobi identity on all basis triples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import MismatchError, StructureError
from .validation import ValidationReport

EVEN = 0
ODD = 1

# structure constants: c[i][j] is the coordinate vector of [b_i, b_j]
Constants = tuple[tuple[tuple[Fraction, ...], ...], ...]


@dataclass(frozen=True)
class SuperAlgebra:
    name: str
    basis_names: tuple[str, ...]
    parity: tuple[int, ...]
    constants: Constants
    # PBW normal forms keyed by (word, order, strategy), filled by
    # enveloping._straighten; outside equality, hashing and repr
    straighten_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.dim
        if len(self.parity) != n:
            raise StructureError(f"{self.name}: parity list does not match basis size")
        if len(set(self.basis_names)) != n:
            raise StructureError(f"{self.name}: basis names must be distinct")
        if any(p not in (EVEN, ODD) for p in self.parity):
            raise StructureError(f"{self.name}: parity values must be 0 or 1")
        if len(self.constants) != n or any(
            len(row) != n or any(len(vec) != n for vec in row) for row in self.constants
        ):
            raise StructureError(
                f"{self.name}: structure constants must form an {n}x{n} table of "
                f"{n}-vectors"
            )

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    def index(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise StructureError(f"{self.name}: unknown basis element {name!r}") from None

    def even_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parity) if p == EVEN]

    def odd_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parity) if p == ODD]

    @cached_property
    def bracket_terms(self):
        """bracket_terms[i][j] holds the (k, c) with c != 0 in [b_i, b_j] =
        sum_k c b_k, in increasing k; cached outside equality, hash and repr."""
        return tuple(tuple(tuple((k, c) for k, c in enumerate(vec) if c) for vec in row)
                     for row in self.constants)

    @cached_property
    def report(self) -> ValidationReport:
        """``validate_superalgebra(self)``, computed once per algebra and
        cached outside equality, hash and repr; ``build_superalgebra`` raises
        from it, and the CLI's ``validate`` prints it."""
        return validate_superalgebra(self)

    def bracket(self, u, v):
        """Bilinear extension of the structure constants to coordinate
        vectors.  The result keeps the scalar type of the inputs: Fraction
        coordinates give Fractions, GaussianRational ones (also mixed with
        Fractions) give GaussianRationals."""
        n = self.dim
        if len(u) != n or len(v) != n:
            raise MismatchError(
                f"{self.name}: coordinate vectors must have length {n}"
            )
        # zeros of the product's scalar type
        out = [u[0] * v[0] * 0] * n if n else []
        for i, a in enumerate(u):
            if not a:
                continue
            row = self.bracket_terms[i]
            for j, b in enumerate(v):
                if not b:
                    continue
                coeff = a * b
                for k, c in row[j]:
                    out[k] += coeff * c
        return out


def _sign(p: int, q: int) -> int:
    return -1 if (p and q) else 1


def validate_superalgebra(algebra: SuperAlgebra) -> ValidationReport:
    """Check the axioms afresh; ``SuperAlgebra.report`` keeps the first result."""
    report = ValidationReport(f"superalgebra {algebra.name}")
    n = algebra.dim
    names = algebra.basis_names
    par = algebra.parity

    terms = algebra.bracket_terms
    skew_bad = [
        f"[{names[i]},{names[j]}]" for i in range(n) for j in range(n)
        if terms[i][j] != tuple((k, -_sign(par[i], par[j]) * c) for k, c in terms[j][i])
    ]
    report.add("super_skew_symmetry", not skew_bad, "violated for " + ", ".join(skew_bad))

    parity_bad = [
        f"[{names[i]},{names[j]}] -> {names[k]}" for i in range(n) for j in range(n)
        for k, _ in terms[i][j] if par[k] != (par[i] + par[j]) % 2
    ]
    report.add("parity_compatibility", not parity_bad, "violated for " + ", ".join(parity_bad))

    # the sum of s(a, c) [b_a, [b_b, b_c]] over the cyclic rotations (a, b, c)
    # of (i, j, k), where [b_a, [b_b, b_c]] = sum_m d_m [b_a, b_m]
    jacobi_bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total: dict[int, Fraction] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    s = _sign(par[a], par[c])
                    for m, d in terms[b][c]:
                        for l, e in terms[a][m]:
                            total[l] = total.get(l, 0) + s * d * e
                if any(total.values()):
                    jacobi_bad.append(f"({names[i]},{names[j]},{names[k]})")
    report.add("graded_jacobi", not jacobi_bad, "violated on triples " + ", ".join(jacobi_bad))
    return report


def build_superalgebra(name, basis_names, parity, constants) -> SuperAlgebra:
    """Construct and eagerly validate; downstream code assumes valid input."""
    algebra = SuperAlgebra(
        name,
        tuple(basis_names),
        tuple(parity),
        tuple(tuple(tuple(c if type(c) is Fraction else Fraction(c) for c in vec)
                    for vec in row) for row in constants),
    )
    algebra.report.raise_if_failed()
    return algebra


def lower_central_series(algebra: SuperAlgebra) -> list[int]:
    """Dimensions of the lower central series g >= [g,g] >= [g,[g,g]] >= ...
    computed until it stabilizes or reaches zero."""
    n = algebra.dim
    basis_vec = linalg.identity_matrix(n)
    dims = [n]
    current = basis_vec
    while True:
        produced = [
            algebra.bracket(basis_vec[i], w) for i in range(n) for w in current
        ]
        current = linalg.row_reduce(produced)
        d = len(current)
        if d == dims[-1]:
            return dims
        dims.append(d)
        if d == 0:
            return dims


def is_nilpotent(algebra: SuperAlgebra) -> bool:
    return lower_central_series(algebra)[-1] == 0


def is_odd_generated(algebra: SuperAlgebra) -> bool:
    """True iff the brackets of odd basis pairs span the whole even part."""
    odd = algebra.odd_indices()
    rows = [list(algebra.constants[i][j]) for i in odd for j in odd]
    # parity compatibility puts every such bracket inside the even part, so
    # span equality reduces to a rank count
    return linalg.rank(rows) == len(algebra.even_indices())
