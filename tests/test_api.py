"""The settable values of the public API.  Every parameter of every callable
in ``superrep.__all__`` is pinned here, so that a new one, or one dropped,
shows up as a diff of this file."""

import inspect

import pytest

import superrep
from superrep.enveloping import apply_auto
from superrep.groups import LINE

# each callable's parameters written as in a def: "x=" has a default, "*x"
# collects positionals, and a bare "*" starts the keyword-only ones; None
# marks a builtin exception, which has no signature
SIGNATURES = {
    "CrossedElement": ("pair", "terms="),
    "DslError": ("message", "line=", "col="),
    "FiniteFunction": ("pair", "values="),
    "FiniteGroup": ("name", "element_names", "table"),
    "GaussianPoly": ("plus=", "eps="),
    "GaussianRational": ("re=", "im="),
    "GroupData": ("*", "finite=", "ad_matrices=", "generator_name="),
    "GroupPoint": ("base", "eps="),
    "MatrixRep": ("name", "pair", "grading", "rho", "pi_table="),
    "MismatchError": None,
    "Multiplier": ("name", "lam", "rho"),
    "SeminormInterval": ("lower", "upper", "empty_family="),
    "StructureError": None,
    "SuperAlgebra": ("name", "basis_names", "parity", "constants"),
    "Supergroup": ("name", "group", "algebra"),
    "SuperrepError": None,
    "UEElement": ("algebra", "terms=", "order="),
    "UnsupportedInstanceError": None,
    "Workspace": (),
    "build_pair": ("name", "group", "algebra"),
    "build_superalgebra": ("name", "basis_names", "parity", "constants"),
    "ccr_report": ("family", "generators"),
    "convolve": ("f", "h"),
    "dagger": ("a",),
    "fourier_at": ("f", "freq", "component="),
    "gamma_integral": ("pair", "f", "D", "h"),
    "is_nilpotent": ("algebra",),
    "is_odd_generated": ("algebra",),
    "l1_bound": ("f", "center_slack="),
    "load_catalog": ("*names",),
    "lower_central_series": ("algebra",),
    "mul_compose": ("m1", "m2"),
    "mul_group": ("pair", "g"),
    "mul_lie": ("pair", "coords"),
    "mul_star": ("m",),
    "normal_form": ("algebra", "word", "coeff=", "order=", "strategy="),
    "orbit_derivative_check": ("pair", "a", "h"),
    "parse": ("source", "workspace="),
    "parse_file": ("path", "workspace="),
    "print_workspace": ("ws",),
    "prop33_bound": ("a",),
    "reconstruct_pi": ("rep", "g", "probe", "v"),
    "reconstruct_rho": ("rep", "x", "probe", "v"),
    "rep_hat": ("rep", "a"),
    "seminorm_interval": ("a", "family"),
    "taylor_norm_check": ("pair", "a", "family"),
    "validate_pair": ("pair",),
    "validate_rep": ("rep",),
    "validate_superalgebra": ("algebra",),
    "xp_multiply": ("a", "b"),
    "xp_star": ("a",),
}


def _written(obj):
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:
        return None
    out = []
    for p in params:
        if p.kind is p.KEYWORD_ONLY and "*" not in out:
            out.append("*")
        prefix = {p.VAR_POSITIONAL: "*", p.VAR_KEYWORD: "**"}.get(p.kind, "")
        out.append(prefix + p.name + ("=" if p.default is not p.empty else ""))
    return tuple(out)


def test_public_signatures_are_pinned():
    callables = {name: getattr(superrep, name) for name in superrep.__all__}
    assert {name: _written(obj) for name, obj in callables.items() if callable(obj)} == SIGNATURES


@pytest.mark.parametrize("call", [
    # no argument marks a representation validated; only validate_rep does
    lambda ws: superrep.MatrixRep("r", ws.pairs["hcline"], None, (), validated=True),
    lambda ws: superrep.MatrixRep("r", ws.pairs["hcline"], None, (),
                                  report=ws.reps["hc-rep-2"].report),
    # the line's frequency is read off rho(z)
    lambda ws: superrep.MatrixRep("r", ws.pairs["hcline"], None, (), freq=1.0),
    lambda ws: apply_auto(ws.algebras["hc"], [[1, 0], [0, 1]],
                          superrep.UEElement.unit(ws.algebras["hc"]), checked=True),
    # the second positional field was a group name
    lambda ws: superrep.GroupData(LINE, "R", generator_name="z"),
    # the group kind is read off the fields
    lambda ws: superrep.GroupData(LINE, generator_name="z"),
    lambda ws: superrep.load_catalog("hc", workspace=superrep.Workspace()),
    lambda ws: superrep.GaussianRational("1/2"),
    # the kernel flag is read off the upper bound
    lambda ws: superrep.SeminormInterval(0.0, 1.0, kernel_flag=True),
], ids=["rep-validated", "rep-report", "rep-freq", "apply-auto-checked", "group-data-name",
        "group-data-kind", "load-catalog-workspace", "gaussian-rational-string",
        "seminorm-kernel-flag"])
def test_removed_settable_values_are_refused(workspace, call):
    with pytest.raises(TypeError):
        call(workspace)

