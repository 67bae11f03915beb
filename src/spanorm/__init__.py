"""spanorm: graph spanners measured by the lp norm of the degree vector.

Library layout:

- ``graph_core``     immutable graphs, BFS layers, girth, lp norms
- ``greedy``         greedy t-spanner and stretch verification
- ``decomposition``  vertex classes of high-girth graphs and inequality checks
- ``simplex``        small dense-tableau LP solver (float or exact rational)
- ``lb_lp``          the universal-lower-bound LP, closed forms, dual certificates
- ``extremal``       layered extremal instances, tightness families, named graphs
- ``oracle``         brute-force minimum-norm spanner oracle
- ``cli``            the ``spanorm`` command-line tool

``import spanorm`` loads no submodule: the names in ``__all__`` and the
submodules themselves resolve on first access (PEP 562 module
``__getattr__``), so a caller pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

_OWNERS = {
    "Graph": "graph_core",
    "GraphError": "graph_core",
    "INFINITY": "graph_core",
    "LayerProfile": "graph_core",
    "Spanner": "greedy",
    "UNBOUNDED": "graph_core",
    "girth": "graph_core",
    "girth_at_least": "graph_core",
    "greedy_spanner": "greedy",
    "layer_profile": "graph_core",
    "lp_norm": "graph_core",
    "parse_edge_list": "graph_core",
    "format_edge_list": "graph_core",
    "subset_norm": "graph_core",
    "upper_bound_exponent": "greedy",
    "verify_stretch": "greedy",
}

_SUBMODULES = frozenset(
    ("graph_core", "greedy", "decomposition", "simplex", "lb_lp", "extremal",
     "oracle", "cli")
)

__all__ = list(_OWNERS)


def __getattr__(name: str):
    if name in _OWNERS:
        value = getattr(importlib.import_module(f".{_OWNERS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
