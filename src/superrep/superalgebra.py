"""Finite-dimensional real Lie superalgebras given by structure constants.

An algebra is a graded basis b_0, ..., b_{n-1} with parities in {0, 1} and
rational structure constants c[i][j][k] such that [b_i, b_j] = sum_k
c[i][j][k] b_k.  Validation checks super-skew-symmetry, parity
compatibility and the graded Jacobi identity on all basis triples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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

    def bracket_basis(self, i: int, j: int) -> tuple[Fraction, ...]:
        return self.constants[i][j]

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
            row = self.constants[i]
            for j, b in enumerate(v):
                if not b:
                    continue
                coeff = a * b
                for k, c in enumerate(row[j]):
                    if c:
                        out[k] += coeff * c
        return out


def _sign(p: int, q: int) -> int:
    return -1 if (p and q) else 1


def validate_superalgebra(algebra: SuperAlgebra) -> ValidationReport:
    report = ValidationReport(f"superalgebra {algebra.name}")
    n = algebra.dim
    names = algebra.basis_names
    par = algebra.parity

    skew_bad = []
    for i in range(n):
        for j in range(n):
            lhs = algebra.constants[i][j]
            rhs = algebra.constants[j][i]
            s = _sign(par[i], par[j])
            if any(a + s * b != 0 for a, b in zip(lhs, rhs)):
                skew_bad.append(f"[{names[i]},{names[j]}]")
    report.add("super_skew_symmetry", not skew_bad, "violated for " + ", ".join(skew_bad))

    parity_bad = []
    for i in range(n):
        for j in range(n):
            target = (par[i] + par[j]) % 2
            for k in range(n):
                if algebra.constants[i][j][k] != 0 and par[k] != target:
                    parity_bad.append(f"[{names[i]},{names[j]}] -> {names[k]}")
    report.add("parity_compatibility", not parity_bad, "violated for " + ", ".join(parity_bad))

    jacobi_bad = []
    basis_vec = linalg.identity_matrix(n)
    const = algebra.constants  # const[j][k] is [b_j, b_k]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t1 = algebra.bracket(basis_vec[i], const[j][k])
                t2 = algebra.bracket(basis_vec[j], const[k][i])
                t3 = algebra.bracket(basis_vec[k], const[i][j])
                s1 = _sign(par[i], par[k])
                s2 = _sign(par[j], par[i])
                s3 = _sign(par[k], par[j])
                total = [s1 * a + s2 * b + s3 * c for a, b, c in zip(t1, t2, t3)]
                if any(v != 0 for v in total):
                    jacobi_bad.append(f"({names[i]},{names[j]},{names[k]})")
    report.add("graded_jacobi", not jacobi_bad, "violated on triples " + ", ".join(jacobi_bad))
    return report


def build_superalgebra(name, basis_names, parity, constants) -> SuperAlgebra:
    """Construct and eagerly validate; downstream code assumes valid input."""
    algebra = SuperAlgebra(
        name,
        tuple(basis_names),
        tuple(parity),
        tuple(tuple(tuple(Fraction(c) for c in vec) for vec in row) for row in constants),
    )
    validate_superalgebra(algebra).raise_if_failed()
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
