"""ILP instances in standard form Ax = b over non-negative integer variables.

Parsing of the ILP-v1 text format, slack-variable conversion and exact
residual evaluation.  All arithmetic uses plain Python integers, so results
are exact for arbitrarily large coefficients.  Instances and solutions are
immutable and safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

#: Alphabet symbol reserved for the right-hand side; no variable may use it.
RESERVED_SYMBOL = "b"

#: Step code for a counter reduction in a `decomposition.ScheduleTrace`;
#: positive codes are increments.
REDUCE = 0

RELATIONS = ("=", "<=", ">=")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class IlpError(Exception):
    """Invalid input or violated operation precondition."""


class ParseError(IlpError):
    """Syntax or structural error in a parsed document."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        prefix = ""
        if line is not None:
            prefix = f"line {line}"
            if column is not None:
                prefix += f", column {column}"
            prefix += ": "
        super().__init__(prefix + message)


def _long_literal_error(line: str, line_no: int) -> ParseError:
    """The error for the first integer literal in ``line`` that ``int()``
    refuses, as it does past ``sys.get_int_max_str_digits()`` digits; call
    it once ``int()`` has refused a literal of ``line``."""
    for match in re.finditer(r"\d+", line):
        try:
            int(match.group())
        except ValueError:
            break
    digits = len(match.group())
    return ParseError(f"integer literal of {digits} digits is too long", line_no, match.start() + 1)


def _check_int(value, what: str):
    if isinstance(value, bool) or not isinstance(value, int):
        raise IlpError(f"{what} must be a plain integer, got {value!r}")


@dataclass(frozen=True)
class Constraint:
    """One linear constraint before standard-form conversion.

    ``coeffs`` is dense over a variable ordering owned by the caller.
    """

    coeffs: tuple[int, ...]
    relation: str
    rhs: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        for c in self.coeffs:
            _check_int(c, "coefficient")
        _check_int(self.rhs, "right-hand side")
        if self.relation not in RELATIONS:
            raise IlpError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class IlpInstance:
    """The system A x = b with named non-negative integer variables.

    ``slack_mask[i]`` is True for variables introduced by inequality
    conversion; reporting may project them away.  The extended column table
    `columns` is computed on first read and cached on the instance; it is
    not a field, so equality, hashing and ``repr`` ignore it.
    """

    coeffs: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    var_names: tuple[str, ...]
    slack_mask: tuple[bool, ...] = ()

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.coeffs)
        object.__setattr__(self, "coeffs", rows)
        object.__setattr__(self, "rhs", tuple(self.rhs))
        object.__setattr__(self, "var_names", tuple(self.var_names))
        if not self.slack_mask:
            object.__setattr__(self, "slack_mask", (False,) * len(self.var_names))
        else:
            object.__setattr__(self, "slack_mask", tuple(bool(f) for f in self.slack_mask))

        if not rows:
            raise IlpError("instance needs at least one constraint")
        n = len(self.var_names)
        if n == 0:
            raise IlpError("instance needs at least one variable")
        if len(self.rhs) != len(rows):
            raise IlpError("rhs length does not match the number of constraints")
        for row in rows:
            if len(row) != n:
                raise IlpError("coefficient rows must all have one entry per variable")
            for c in row:
                _check_int(c, "coefficient")
        for b in self.rhs:
            _check_int(b, "right-hand side")
        if len(self.slack_mask) != n:
            raise IlpError("slack mask length does not match the number of variables")

        seen = set()
        for name in self.var_names:
            if not isinstance(name, str) or not _IDENT_RE.match(name):
                raise IlpError(f"invalid variable name {name!r}")
            if name == RESERVED_SYMBOL:
                raise IlpError(f"variable name {RESERVED_SYMBOL!r} is reserved")
            if name in seen:
                raise IlpError(f"duplicate variable name {name!r}")
            seen.add(name)

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_constraints(self) -> int:
        return len(self.rhs)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Columns ``0..n`` of ``[-b | A]``: ``columns[0]`` is ``-b`` and
        ``columns[i][j-1]`` the coefficient of variable ``i`` in constraint
        ``j``.  Column 0 is the right-hand side taken as one more column, the
        label-0 vertex of a solution graph and the 'b' step of the automaton."""
        return (tuple(-b for b in self.rhs),) + tuple(zip(*self.coeffs))

    def coefficient_range(self) -> tuple[int, int, int, int]:
        """(min A, max A, min b, max b), handy for report summaries."""
        flat = [c for row in self.coeffs for c in row]
        return (min(flat), max(flat), min(self.rhs), max(self.rhs))


@dataclass(frozen=True)
class Solution:
    """A vector of non-negative integers, one per instance variable."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise IlpError("a solution needs at least one entry")
        for v in self.values:
            _check_int(v, "solution entry")
            if v < 0:
                raise IlpError(f"solution entries must be non-negative, got {v}")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def max_value(self) -> int:
        return max(self.values)


def _as_values(assignment) -> tuple[int, ...]:
    if isinstance(assignment, Solution):
        return assignment.values
    values = tuple(assignment)
    for v in values:
        _check_int(v, "assignment entry")
        if v < 0:
            raise IlpError(f"assignment entries must be non-negative, got {v}")
    return values


def evaluate(inst: IlpInstance, assignment) -> tuple[int, ...]:
    """Exact residual ``A s - b`` of an assignment, one entry per constraint."""
    values = _as_values(assignment)
    if len(values) != inst.num_vars:
        raise IlpError(
            f"assignment has {len(values)} entries, instance has {inst.num_vars} variables"
        )
    return tuple(
        sum(row[i] * values[i] for i in range(inst.num_vars)) - b
        for row, b in zip(inst.coeffs, inst.rhs)
    )


def strip_slack(inst: IlpInstance, assignment) -> tuple[tuple[str, int], ...]:
    """Project an assignment onto the user-declared (non-slack) variables."""
    values = _as_values(assignment)
    if len(values) != inst.num_vars:
        raise IlpError("assignment length does not match the instance")
    return tuple(
        (name, value)
        for name, value, is_slack in zip(inst.var_names, values, inst.slack_mask)
        if not is_slack
    )


# --------------------------------------------------------------------------
# ILP-v1 parsing
#
# A document is a sequence of lines.  Lines starting with '#' are comments,
# blank lines are ignored, every other line holds one or more constraints
# separated by ';'.  A constraint is
#
#     term (('+'|'-') term)* REL integer        REL in {=, <=, >=}
#
# where term is `integer identifier` (multiplication implicit, coefficient
# mandatory).  Signs may also be written attached to the coefficient, so
# "+ -2 x" and "- 2 x" both mean a -2 coefficient.  Variable order is
# first-appearance order across the document.

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<rel><=|>=|=)"
    r"|(?P<plus>\+)"
    r"|(?P<minus>-)"
    r"|(?P<semi>;)"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), line_no, match.start() + 1))
        pos = match.end()
    return tokens


class _ConstraintParser:
    def __init__(self, tokens: list[_Token], line_no: int):
        self.tokens = tokens
        self.line = line_no
        self.pos = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token | None:
        tok = self._peek()
        if tok is not None:
            self.pos += 1
        return tok

    def _error(self, message: str, tok: _Token | None = None):
        column = tok.column if tok is not None else None
        raise ParseError(message, self.line, column)

    def _signed_int(self, what: str) -> int:
        sign = 1
        while (tok := self._peek()) is not None and tok.kind in ("plus", "minus"):
            if tok.kind == "minus":
                sign = -sign
            self._next()
        tok = self._next()
        if tok is None or tok.kind != "int":
            self._error(f"expected {what}", tok)
        return sign * int(tok.text)

    def _term(self, leading_sign: int) -> tuple[str, int, _Token]:
        sign = leading_sign
        while (tok := self._peek()) is not None and tok.kind in ("plus", "minus"):
            if tok.kind == "minus":
                sign = -sign
            self._next()
        tok = self._next()
        if tok is None or tok.kind != "int":
            self._error("expected integer coefficient before variable name", tok)
        coeff = sign * int(tok.text)
        name_tok = self._next()
        if name_tok is None or name_tok.kind != "ident":
            self._error("expected variable name after coefficient", name_tok)
        return name_tok.text, coeff, name_tok

    def parse(self) -> tuple[list[tuple[str, int]], str, int]:
        terms = []
        seen_names = set()

        def add(name, coeff, tok):
            if name == RESERVED_SYMBOL:
                self._error(f"variable name {RESERVED_SYMBOL!r} is reserved", tok)
            if name in seen_names:
                self._error(f"duplicate variable {name!r} in constraint", tok)
            seen_names.add(name)
            terms.append((name, coeff))

        add(*self._term(1))
        while (tok := self._peek()) is not None and tok.kind in ("plus", "minus"):
            self._next()
            add(*self._term(-1 if tok.kind == "minus" else 1))

        rel_tok = self._next()
        if rel_tok is None or rel_tok.kind != "rel":
            self._error("expected relation (=, <= or >=)", rel_tok)
        rhs = self._signed_int("right-hand-side integer")
        if (tok := self._peek()) is not None:
            self._error(f"unexpected trailing input {tok.text!r}", tok)
        return terms, rel_tok.text, rhs


def _split_on_semicolons(tokens: list[_Token]) -> list[list[_Token]]:
    groups: list[list[_Token]] = [[]]
    for tok in tokens:
        if tok.kind == "semi":
            groups.append([])
        else:
            groups[-1].append(tok)
    return [g for g in groups if g]


def parse_instance(text: str) -> IlpInstance:
    """Parse an ILP-v1 document into a standard-form instance.

    Inequalities are converted eagerly, so the result always satisfies
    ``A x = b``; slack columns are appended after the user variables and
    flagged in ``slack_mask``.
    """
    raw: list[tuple[list[tuple[str, int]], str, int]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            for group in _split_on_semicolons(_tokenize_line(line, line_no)):
                raw.append(_ConstraintParser(group, line_no).parse())
        except ValueError:
            raise _long_literal_error(line, line_no) from None

    if not raw:
        raise ParseError("document contains no constraints")

    var_names: list[str] = []
    index = {}
    for terms, _rel, _rhs in raw:
        for name, _coeff in terms:
            if name not in index:
                index[name] = len(var_names)
                var_names.append(name)

    constraints = []
    for terms, rel, rhs in raw:
        row = [0] * len(var_names)
        for name, coeff in terms:
            row[index[name]] = coeff
        constraints.append(Constraint(tuple(row), rel, rhs))

    return to_standard_form(constraints, tuple(var_names))


def _fresh_slack_names(count: int, taken: Sequence[str]) -> list[str]:
    names = []
    used = set(taken)
    k = 1
    while len(names) < count:
        candidate = f"_s{k}"
        k += 1
        if candidate not in used:
            used.add(candidate)
            names.append(candidate)
    return names


def to_standard_form(constraints: Sequence[Constraint], var_names: Sequence[str]) -> IlpInstance:
    """Convert mixed-relation constraints to ``A x = b``.

    Each ``<=`` row gains one fresh slack variable with coefficient +1 and
    each ``>=`` row one with coefficient -1; an all-equality system is
    returned unchanged (zero slack variables).
    """
    var_names = tuple(var_names)
    n0 = len(var_names)
    for c in constraints:
        if len(c.coeffs) != n0:
            raise IlpError("constraint width does not match the variable list")

    needs_slack = [c.relation != "=" for c in constraints]
    slack_names = _fresh_slack_names(sum(needs_slack), var_names)
    total = n0 + len(slack_names)

    rows = []
    slack_at = 0
    for c in constraints:
        row = list(c.coeffs) + [0] * len(slack_names)
        if c.relation != "=":
            row[n0 + slack_at] = 1 if c.relation == "<=" else -1
            slack_at += 1
        rows.append(tuple(row))

    return IlpInstance(
        coeffs=tuple(rows),
        rhs=tuple(c.rhs for c in constraints),
        var_names=var_names + tuple(slack_names),
        slack_mask=(False,) * n0 + (True,) * len(slack_names),
    )
