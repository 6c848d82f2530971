"""Shipped instance catalog, stored as DSL sources under ``data/``."""

from __future__ import annotations

from importlib import resources

from .dsl import Workspace, parse
from .errors import DslError

CATALOG_NAMES = ("hc", "podd", "toys")


def catalog_source(name: str) -> str:
    if name not in CATALOG_NAMES:
        raise DslError(f"unknown catalog {name!r}; shipped: {', '.join(CATALOG_NAMES)}")
    return (resources.files(__package__) / "data" / f"{name}.sexp").read_text("utf-8")


def load_catalog(*names: str) -> Workspace:
    ws = Workspace()
    for name in names or CATALOG_NAMES:
        parse(catalog_source(name), ws)
    return ws
