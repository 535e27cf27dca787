"""Quantitative bipolar argumentation graphs and dialogue analysis.

Build acyclic argumentation graphs with initial strengths, attacks, and
supports; evaluate them under the DF-QuAD gradual semantics; and analyze
sequences of graphs (dialogue chains) for safety, liveness, and fairness
of a set of topic arguments against a justification threshold, including
Gini-based and Shannon-based gradual fairness scores.

Importing the package loads none of its modules: each public name, and
each module below, is imported on first use (PEP 562), so a program
compiles only the modules it uses.
"""

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "graph": (
        "QBAG",
        "build_qbag",
        "attackers",
        "supporters",
        "reaches",
        "is_acyclic",
        "restrict",
        "is_sub_qbag",
        "topological_order",
    ),
    "semantics": (
        "SemanticsDescriptor",
        "StrengthAssignment",
        "DFQUAD",
        "dfquad_aggregation",
        "dfquad_influence",
        "evaluate",
        "semantics_by_name",
    ),
    "chain": (
        "Chain",
        "StrengthMatrix",
        "build_chain",
        "common_arguments",
        "evaluate_chain",
        "is_expansion_chain",
        "is_normal_expansion_chain",
        "is_weak_expansion_chain",
        "sweep_chain",
    ),
    "analysis": (
        "SLFQuery",
        "FairnessLine",
        "FairnessReport",
        "is_strongly_safe",
        "is_weakly_safe",
        "fluctuation_count",
        "is_live",
        "is_ideally_fair",
        "is_lively_fair",
        "is_cautiously_fair",
        "exceed_count",
        "safety_curve",
        "fairness_line",
        "gini_unnormalized",
        "gini_fairness",
        "exceed_distribution",
        "shannon_base",
        "shannon_fairness",
        "fairness_report",
        "area_between_piecewise",
    ),
    "serialize": ("parse_qbag", "serialize_qbag", "parse_chain", "serialize_chain"),
    "export": ("export_strengths_csv", "export_curve_csv", "report_to_dict"),
    "errors": (
        "QbagError",
        "InvalidArgumentId",
        "DuplicateArgument",
        "DanglingEndpoint",
        "RelationOverlap",
        "StrengthOutOfRange",
        "UnknownArgument",
        "CyclicGraph",
        "UnknownSemantics",
        "EmptyChain",
        "EmptyTopicSet",
        "TopicNotInChain",
        "DocumentError",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    """A public name or a module of the package, imported on first use."""
    from importlib import import_module

    if name in _EXPORTS:  # importing a module binds it here
        return import_module(f"{__name__}.{name}")
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
