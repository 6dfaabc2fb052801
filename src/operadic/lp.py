"""Reading and writing CPLEX LP text.

Only the slice of the format the planner emits is supported: Minimize or
Maximize, one named objective row, Subject To, Bounds (including fixed and
free variables), Binary, General, End.  ``write_lp`` is deterministic, and
``parse_lp(write_lp(m))`` reproduces the model exactly, so a second write is
byte-identical; numbers are rendered as integers when possible and via
``repr`` otherwise, which floats survive round-trip.  The writer renders each
distinct number once per call, and a coefficient of exactly +-1 formats no
number; its text is the same as formatting every number where it is used.
Numbers must be finite: ``parse_lp`` reads no ``inf`` or ``nan``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .dialect import InputError


class LpError(InputError):
    pass


@dataclass(frozen=True)
class LpConstraint:
    name: str
    terms: tuple[tuple[str, float], ...]
    sense: str  # "<=", ">=", "="
    rhs: float

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "="):
            raise LpError(f"bad constraint sense {self.sense!r}")


@dataclass(frozen=True)
class LpModel:
    sense: str  # "min" | "max"
    objective: tuple[tuple[str, float], ...]
    constraints: tuple[LpConstraint, ...]
    bounds: tuple[tuple[str, float | None, float | None], ...]
    binaries: tuple[str, ...]
    generals: tuple[str, ...] = ()
    objective_name: str = "obj"

    def constraint(self, name: str) -> LpConstraint:
        for c in self.constraints:
            if c.name == name:
                return c
        raise LpError(f"no constraint named {name!r}")

    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for v, _ in self.objective:
            seen.setdefault(v)
        for c in self.constraints:
            for v, _ in c.terms:
                seen.setdefault(v)
        for v, _, _ in self.bounds:
            seen.setdefault(v)
        for v in self.binaries + self.generals:
            seen.setdefault(v)
        return tuple(seen)


def _num(x: float) -> str:
    f = float(x)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def write_lp(model: LpModel) -> str:
    # each distinct number is rendered once per call; ``prefix`` maps a
    # coefficient to the text before its variable, sign and magnitude, so a
    # coefficient of exactly +-1 formats no number
    rendered: dict[float, str] = {}
    prefix: dict[float, str] = {1.0: "+ ", -1.0: "- "}

    def num(x: float) -> str:
        text = rendered.get(x)
        if text is None:
            text = rendered[x] = _num(x)
        return text

    def new_prefix(coef: float) -> str:
        text = prefix[coef] = f"{'-' if coef < 0 else '+'} {num(abs(coef))} "
        return text

    def expr(terms: Sequence[tuple[str, float]]) -> str:
        if not terms:
            return ""
        get = prefix.get
        text = " ".join([(get(coef) or new_prefix(coef)) + var for var, coef in terms])
        # a positive first term carries no sign
        return text[2:] if text[0] == "+" else text

    lines: list[str] = []
    lines.append("Minimize" if model.sense == "min" else "Maximize")
    lines.append(f" {model.objective_name}: {expr(model.objective)}".rstrip())
    lines.append("Subject To")
    for c in model.constraints:
        lines.append(f" {c.name}: {expr(c.terms)} {c.sense} {num(c.rhs)}")
    if model.bounds:
        lines.append("Bounds")
        for name, lo, hi in model.bounds:
            if lo is None and hi is None:
                lines.append(f" {name} free")
            elif lo is not None and hi is not None and lo == hi:
                lines.append(f" {name} = {num(lo)}")
            elif lo is None:
                lines.append(f" {name} <= {num(hi)}")
            elif hi is None:
                lines.append(f" {name} >= {num(lo)}")
            else:
                lines.append(f" {num(lo)} <= {name} <= {num(hi)}")
    if model.binaries:
        lines.append("Binary")
        lines.extend(f" {v}" for v in model.binaries)
    if model.generals:
        lines.append("General")
        lines.extend(f" {v}" for v in model.generals)
    lines.append("End")
    return "\n".join(lines) + "\n"


_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")
# one token after optional whitespace; a character that starts no token
# matches the bare ``\S`` branch and yields an empty string
_TOKEN = re.compile(
    r"\s*(?:(<=|>=|=|\+|-|[A-Za-z_][A-Za-z0-9_.]*|" + _NUMBER.pattern + r")|\S)"
)
_SENSES = frozenset(("<=", ">=", "="))
_SECTIONS = {
    "minimize": "min",
    "maximize": "max",
    "subject to": None,
    "such that": None,
    "bounds": None,
    "binary": None,
    "binaries": None,
    "general": None,
    "generals": None,
    "end": None,
}


def _tokens(text: str) -> list[str]:
    out = _TOKEN.findall(text)
    if "" in out:
        for m in _TOKEN.finditer(text):
            if m.group(1) is None:
                raise LpError(f"cannot tokenize {text[m.start():m.start() + 20]!r}")
    return out


def _is_number(tok: str) -> bool:
    return _NUMBER.fullmatch(tok) is not None


def _parse_terms(tokens: Sequence[str]) -> tuple[tuple[str, float], ...]:
    terms: list[tuple[str, float]] = []
    sign = 1.0
    coef: float | None = None
    for tok in tokens:
        if tok == "+":
            pass
        elif tok == "-":
            sign = -sign
        elif _is_number(tok):
            if coef is not None:
                raise LpError("two coefficients in a row")
            coef = float(tok)
        else:
            terms.append((tok, sign * (1.0 if coef is None else coef)))
            sign, coef = 1.0, None
    if coef is not None:
        raise LpError("dangling coefficient")
    return tuple(terms)


def _parse_signed(tokens: Sequence[str]) -> float:
    sign = 1.0
    for tok in tokens:
        if tok == "-":
            sign = -sign
        elif tok == "+":
            pass
        elif _is_number(tok):
            return sign * float(tok)
        else:
            break
    raise LpError(f"expected a number, got {list(tokens)!r}")


def _section_of(line: str) -> str | None:
    label = line.strip().lower()
    return label if label in _SECTIONS else None


def parse_lp(text: str) -> LpModel:
    sense = "min"
    objective: tuple[tuple[str, float], ...] = ()
    objective_name = "obj"
    constraints: list[LpConstraint] = []
    bounds: list[tuple[str, float | None, float | None]] = []
    binaries: list[str] = []
    generals: list[str] = []

    section = None
    # a constraint row may span lines; only its first line can carry the
    # name, and a row whose first line has no name has no tokens
    row_buffer: list[str] = []
    row_tokens: list[str] = []

    def flush_row() -> None:
        if not row_buffer:
            return
        name, colon, _ = row_buffer[0].partition(":")
        tokens = list(row_tokens) if colon else []
        joined = " ".join(row_buffer)
        row_buffer.clear()
        row_tokens.clear()
        # split at the sense token
        for i, tok in enumerate(tokens):
            if tok in _SENSES:
                constraints.append(
                    LpConstraint(
                        name.strip(),
                        _parse_terms(tokens[:i]),
                        tok,
                        _parse_signed(tokens[i + 1 :]),
                    )
                )
                return
        raise LpError(f"constraint without a sense: {joined!r}")

    for raw in text.splitlines():
        if raw.lstrip().startswith("\\") or not raw.strip():
            continue
        label = _section_of(raw)
        if label is not None:
            flush_row()
            if label in ("minimize", "maximize"):
                sense = _SECTIONS[label]
                section = "objective"
            elif label in ("subject to", "such that"):
                section = "constraints"
            elif label == "bounds":
                section = "bounds"
            elif label in ("binary", "binaries"):
                section = "binary"
            elif label in ("general", "generals"):
                section = "general"
            else:
                section = "end"
            continue
        line = raw.strip()
        if section == "objective":
            name, colon, rest = line.partition(":")
            if colon:
                objective_name = name.strip() or "obj"
                objective = objective + _parse_terms(_tokens(rest))
            else:
                objective = objective + _parse_terms(_tokens(line))
        elif section == "constraints":
            if ":" in line and row_buffer:
                flush_row()
            tokens = _tokens(line.partition(":")[2] if ":" in line else line)
            row_buffer.append(line)
            row_tokens.extend(tokens)
            if not _SENSES.isdisjoint(tokens):
                flush_row()
        elif section == "bounds":
            bounds.append(_parse_bound(line))
        elif section == "binary":
            binaries.extend(line.split())
        elif section == "general":
            generals.extend(line.split())
        elif section is None:
            raise LpError(f"content before the objective section: {line!r}")
    flush_row()
    return LpModel(
        sense=sense,
        objective=objective,
        constraints=tuple(constraints),
        bounds=tuple(bounds),
        binaries=tuple(binaries),
        generals=tuple(generals),
        objective_name=objective_name,
    )


def _parse_bound(line: str) -> tuple[str, float | None, float | None]:
    tokens = _tokens(line)
    if len(tokens) == 2 and tokens[1].lower() == "free":
        return (tokens[0], None, None)
    senses = [i for i, t in enumerate(tokens) if t in ("<=", ">=", "=")]
    if len(senses) == 2 and tokens[senses[0]] == "<=" and tokens[senses[1]] == "<=":
        lo = _parse_signed(tokens[: senses[0]])
        name = tokens[senses[0] + 1]
        hi = _parse_signed(tokens[senses[1] + 1 :])
        return (name, lo, hi)
    if len(senses) == 1:
        i = senses[0]
        sense = tokens[i]
        if _is_number(tokens[0]) or tokens[0] in ("+", "-"):
            # number sense name
            value = _parse_signed(tokens[:i])
            name = tokens[i + 1]
            return (name, value, None) if sense == "<=" else (name, None, value)
        name = tokens[0]
        value = _parse_signed(tokens[i + 1 :])
        if sense == "=":
            return (name, value, value)
        return (name, None, value) if sense == "<=" else (name, value, None)
    raise LpError(f"cannot parse bound line {line!r}")
