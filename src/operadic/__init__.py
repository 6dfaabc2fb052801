"""Typed-operad engine for composing, analyzing and synthesizing designs.

The package splits into layers:

* :mod:`operadic.monoid` and :mod:`operadic.core` define edge-label monoids
  and the operation calculus (identity, parallel, overlay, permute, compose).
* :mod:`operadic.template` turns color/interaction declarations into operad
  generators and tasking templates for the planner.
* :mod:`operadic.wiring` handles port-level wiring diagrams, requirement
  grids, and soundness checks.
* :mod:`operadic.algebra` interprets operations: fleet KPI scoring and
  failure distributions.
* :mod:`operadic.planner` compiles tasking templates plus scenarios into
  constraint systems at three abstraction levels, solves them, and moves
  solutions between levels; :mod:`operadic.lp` renders and parses the LP
  format.
* :mod:`operadic.synthesis` searches the space of carry forests for designs
  that maximize expected detections under a budget.
* :mod:`operadic.dialect` holds the typed JSON reads the dialect parsers share,
  and ``InputError``, the base of every layer's input error.
* :mod:`operadic.options` holds the planner levels, the default node cap and
  the synthesis methods, which the command line lists without loading the
  layers that use them.
* :mod:`operadic.cli` is the ``operadic`` command line tool.

Importing the package loads no submodule.  ``from operadic import X`` loads
the module that defines ``X`` on first access (PEP 562), so a caller pays
only for the layers it uses.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": (
        "AssetSpec", "FleetDesign", "KpiReport", "SearchScenario", "composite_distribution",
        "kpi_evaluate", "load_catalog", "parse_catalog", "parse_failure_bundle", "parse_scenario",
    ),
    "core": (
        "EdgeKey", "Interaction", "NetOperation", "NetType", "OperadError", "Signature",
        "canonical_form", "compose", "identity", "overlay", "parallel", "permute", "slot_permute",
    ),
    "lp": ("LpConstraint", "LpModel", "parse_lp", "write_lp"),
    "monoid": ("MonoidKind",),
    "options": ("Level",),
    "planner": (
        "Agent", "ConstraintSystem", "CountsSolution", "FuelSpec", "Infeasible", "LiftResult",
        "PlanScenario", "RiskSpec", "Solution", "TaskBinding", "Undecided", "compile_scenario",
        "enumerate_bindings", "export_lp", "lift", "parse_plan_scenario", "project", "solve",
        "solve_all",
    ),
    "synthesis": (
        "CandidateDesign", "DesignEvaluator", "SearchConfig", "SearchResult", "enumerate_designs",
        "parse_synthesis_task", "search",
    ),
    "template": (
        "NetworkTemplate", "TaskingTemplate", "generators", "induced_operad",
        "load_network_template", "load_tasking_template", "merge_templates",
        "parse_network_template", "parse_tasking_template",
    ),
    "wiring": (
        "WiringOp", "diagrams_equal", "joint_validity", "load_requirements_bundle",
        "load_wiring_bundle", "nest", "parse_requirements_bundle", "parse_wiring_bundle",
        "soundness_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
