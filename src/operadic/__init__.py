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
* :mod:`operadic.dialect` holds the typed JSON reads the dialect parsers share.
* :mod:`operadic.cli` is the ``operadic`` command line tool.
"""

__version__ = "0.1.0"

from .algebra import (
    AssetSpec,
    FleetDesign,
    KpiReport,
    SearchScenario,
    composite_distribution,
    kpi_evaluate,
    load_catalog,
    parse_catalog,
    parse_failure_bundle,
    parse_scenario,
)
from .core import (
    EdgeKey,
    Interaction,
    NetOperation,
    NetType,
    OperadError,
    Signature,
    canonical_form,
    compose,
    identity,
    overlay,
    parallel,
    permute,
    slot_permute,
)
from .lp import LpConstraint, LpModel, parse_lp, write_lp
from .monoid import MonoidKind
from .planner import (
    Agent,
    ConstraintSystem,
    CountsSolution,
    FuelSpec,
    Infeasible,
    Level,
    LiftResult,
    PlanScenario,
    RiskSpec,
    Solution,
    TaskBinding,
    Undecided,
    compile_scenario,
    enumerate_bindings,
    export_lp,
    lift,
    parse_plan_scenario,
    project,
    solve,
    solve_all,
)
from .synthesis import (
    CandidateDesign,
    DesignEvaluator,
    SearchConfig,
    SearchResult,
    enumerate_designs,
    parse_synthesis_task,
    search,
)
from .template import (
    NetworkTemplate,
    TaskingTemplate,
    generators,
    induced_operad,
    load_network_template,
    load_tasking_template,
    merge_templates,
    parse_network_template,
    parse_tasking_template,
)
from .wiring import (
    WiringOp,
    diagrams_equal,
    joint_validity,
    load_requirements_bundle,
    load_wiring_bundle,
    nest,
    parse_requirements_bundle,
    parse_wiring_bundle,
    soundness_check,
)
