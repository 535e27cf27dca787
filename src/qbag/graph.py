"""Quantitative bipolar argumentation graphs (QBAGs) and structural queries.

A QBAG is a set of arguments, an initial strength for each argument in
[0, 1], and two disjoint binary relations over the arguments: attacks and
supports.  Everything in this module is a pure function of its inputs.
A graph is an immutable, hashable value: its argument set and relations
are frozensets and may be shared, as the steps of a sweep chain share
them, and ``tau`` is a read-only mapping over a private copy of the
strengths it was given.
"""

from __future__ import annotations

import re
from bisect import insort
from itertools import chain
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, NamedTuple

from .errors import (
    CyclicGraph,
    DanglingEndpoint,
    DuplicateArgument,
    InvalidArgumentId,
    RelationOverlap,
    StrengthOutOfRange,
    UnknownArgument,
)

Edge = tuple[str, str]


class _Record:
    """A frozen record, as ``@dataclass(frozen=True)`` makes one.

    Its fields are the class annotations, bound from the constructor's
    values in annotation order, positionally or by keyword; a missing,
    unknown or repeated field raises TypeError.  A field named in
    ``_views`` holds a mapping, stored as a read-only view of a copy of
    the one given, or None.  Only a record that checks a value writes its
    own ``__init__``, which passes the values on to this one.  Assigning
    or deleting an attribute raises AttributeError.  Records are equal
    when their types and field values are, hash as the tuple of their
    field values with each view as the frozenset of its items, and have
    the dataclass ``repr``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _views: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *values: object, **named: object) -> None:
        fields = self.__match_args__
        set_field = object.__setattr__  # past the frozen __setattr__
        if len(values) > len(fields):
            self._refuse(f"takes {len(fields)} values, got {len(values)}")
        for name, value in zip(fields, values):
            set_field(self, name, value)
        for name in fields[len(values):]:
            if name not in named:
                self._refuse(f"missing field {name!r}")
            set_field(self, name, named.pop(name))
        for name in named:
            self._refuse(f"field {name!r} given twice" if name in fields else f"unknown field {name!r}")
        for name in self._views:
            value = getattr(self, name)
            if value is not None:
                set_field(self, name, MappingProxyType(dict(value)))

    @classmethod
    def _owning(cls, *values: object) -> _Record:
        """The record of every field's value, in annotation order, keeping each mapping given.

        For the library's own builders: a mapping field's value must be a
        dict that the caller has just made and keeps no reference to, as
        it is wrapped in the read-only view, not copied.  No ``__init__``
        of the record's runs, so neither do its checks.
        """
        record = object.__new__(cls)
        fields = vars(record)  # past the frozen __setattr__; only _Record has __slots__
        fields.update(zip(cls.__match_args__, values))
        for name in cls._views:
            fields[name] = MappingProxyType(fields[name])
        return record

    def _refuse(self, problem: str) -> None:
        fields = ", ".join(self.__match_args__)
        raise TypeError(f"{type(self).__qualname__}({fields}): {problem}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(
            tuple([frozenset(v.items()) if type(v) is MappingProxyType else v for v in self._values()])
        )

    def __reduce__(self) -> tuple:
        # a view does not pickle; the constructor makes a new one from a dict
        return type(self), tuple([dict(v) if type(v) is MappingProxyType else v for v in self._values()])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class QBAG(_Record):
    """Arguments with initial strengths plus attack and support relations.

    Immutable: the fields are not reassignable, and ``tau`` is stored as
    a read-only view of a copy of the mapping passed in, so assigning to
    it raises TypeError.  Equal graphs hash equal; the hash covers the
    structure, ``(args, att, supp)``.  Use :func:`build_qbag` rather than
    the raw constructor so the invariants (valid unique ids, disjoint
    relations, declared endpoints, strengths in range) are enforced.
    """

    args: frozenset[str]
    tau: Mapping[str, float]
    att: frozenset[Edge]
    supp: frozenset[Edge]
    _views = ("tau",)

    def __hash__(self) -> int:
        return hash((self.args, self.att, self.supp))

    def __repr__(self) -> str:
        return (
            f"QBAG(args={sorted(self.args)}, "
            f"att={sorted(self.att)}, supp={sorted(self.supp)})"
        )


def _repr(value: object) -> str:
    """repr(value) for an error message, or a short one where an int past the digit limit has none."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"


def validate_strength(value: float, owner: str = "strength") -> float:
    """Coerce to float and check membership in the closed unit interval."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise StrengthOutOfRange(f"{owner}: {_repr(value)} is not a number") from None
    except OverflowError:  # an int or a Fraction whose repr may be too long to make
        raise StrengthOutOfRange(f"{owner}: beyond the float range, outside [0, 1]") from None
    if not 0.0 <= value <= 1.0:
        raise StrengthOutOfRange(f"{owner}: {value!r} outside [0, 1]")
    return value


# \s in a str pattern matches exactly the characters str.isspace() accepts;
# a lone surrogate cannot be written as UTF-8, so no output could name it
_FORBIDDEN_IN_ID = re.compile(r"[\s,\ud800-\udfff]")


def _valid_ids(ids: Collection) -> bool:
    """Whether :func:`validate_argument_id` passes every id, in one pass over all of them."""
    return set(map(type, ids)) <= {str} and "" not in ids and not _FORBIDDEN_IN_ID.search("".join(ids))


def validate_argument_id(arg: object) -> str:
    if not isinstance(arg, str) or not arg:
        raise InvalidArgumentId(f"argument id must be a non-empty string, got {_repr(arg)}")
    found = _FORBIDDEN_IN_ID.search(arg)
    if found:
        what = "a lone surrogate" if "\ud800" <= found[0] <= "\udfff" else "whitespace or a comma"
        raise InvalidArgumentId(f"argument id {arg!r} contains {what}")
    return arg


def build_qbag(
    args: Iterable[tuple[str, float]],
    attacks: Iterable[Edge] = (),
    supports: Iterable[Edge] = (),
) -> QBAG:
    """Validate and build a QBAG.

    Raises DuplicateArgument, DanglingEndpoint, RelationOverlap,
    StrengthOutOfRange, or InvalidArgumentId on bad input.  Arguments are
    checked in declaration order (id, then uniqueness, then strength);
    then endpoints, attacks before supports, reporting the least
    offending pair; then overlap.  Self-loops are structurally allowed
    here; they are cycles and get rejected at evaluation time.  These
    rules live only in this module.  Lists and tuples of argument and
    pair tuples are checked in a few passes over the whole graph, and a
    graph they pass is built by :func:`_extend_qbag`, as every valid
    document step is.  Any other input, and any graph those passes cannot
    vouch for, goes to :func:`_build_each`, which words the error.
    """
    if {type(args), type(attacks), type(supports)} <= {list, tuple}:
        g = _build_at_once(args, attacks, supports)
        if g is not None:
            return g
    return _build_each(args, attacks, supports)


def _twos(items: Collection) -> bool:
    return set(map(type, items)) <= {tuple} and set(map(len, items)) <= {2}


def _build_at_once(args: Collection, attacks: Collection, supports: Collection) -> QBAG | None:
    """build_qbag of sequences, or None where it raises or where these passes cannot tell.

    The caller's pair tuples are kept.
    """
    if not _twos(args):
        return None
    ids, values = zip(*args) if args else ((), ())
    try:
        strengths = list(map(float, values))
    except Exception:  # _build_each raises it, or an error it finds first
        return None
    # a NaN makes the sum NaN; without one, min and max are exact
    total = sum(strengths)
    if strengths and (total != total or min(strengths) < 0.0 or max(strengths) > 1.0):
        return None
    for pairs in (attacks, supports):
        if not (_twos(pairs) and set(map(type, chain.from_iterable(pairs))) <= {str}):
            return None
    return _extend_qbag(_EMPTY, ids, strengths, attacks, supports)


def _build_each(
    args: Iterable[tuple[str, float]], attacks: Iterable[Edge], supports: Iterable[Edge]
) -> QBAG:
    """build_qbag, checking one argument and one pair at a time.

    The one place that words a build error, and the reference that
    build_qbag's passes are tested against.
    """
    tau: dict[str, float] = {}
    for arg, strength in args:
        arg = validate_argument_id(arg)
        if arg in tau:
            raise DuplicateArgument(f"argument {arg!r} declared twice")
        tau[arg] = validate_strength(strength, owner=f"initial strength of {arg!r}")
    declared = frozenset(tau)

    att = frozenset(_id_pairs("attacks", attacks))
    supp = frozenset(_id_pairs("supports", supports))
    for name, relation in (("attacks", att), ("supports", supp)):
        if not declared.issuperset(chain.from_iterable(relation)):
            for pair in sorted(relation):
                for endpoint in pair:
                    if endpoint not in declared:
                        raise DanglingEndpoint(
                            f"{name} pair {pair!r} references undeclared argument {endpoint!r}"
                        )
    overlap = att & supp
    if overlap:
        raise RelationOverlap(f"pairs in both attacks and supports: {sorted(overlap)}")

    return QBAG(args=declared, tau=tau, att=att, supp=supp)


def _id_pairs(name: str, pairs: Iterable[Edge]) -> Iterable[Edge]:
    """Each pair with its endpoints made strings, as build_qbag takes them."""
    for s, t in pairs:
        try:
            yield str(s), str(t)
        except ValueError:  # an int past the digit limit has no str
            raise InvalidArgumentId(f"{name} pair ({_repr(s)}, {_repr(t)}): an endpoint has no str") from None


# the graph every step contains, so the one that any other step extends
_EMPTY = QBAG(args=frozenset(), tau={}, att=frozenset(), supp=frozenset())


def _extend_qbag(
    prev: QBAG, ids: Collection, values: Iterable, attacks: list[Edge], supports: list[Edge]
) -> QBAG | None:
    """``build_qbag(zip(ids, values), attacks, supports)``, or None where that raises.

    The step extends the base :func:`_extension` gives, prev or
    ``_EMPTY``.  Only what it adds to that base is checked, and an id only
    where prev lacks it, all in one pass: prev passed every rule.  An
    extension keeps prev's pair tuples.  The values must be ints or floats
    in [0, 1] and the pairs tuples of strings.  ``_build_each`` words the
    error of a step this returns None for.
    """
    try:
        tau = dict(zip(ids, map(float, values)))
    except TypeError:  # an unhashable id
        return None
    if len(tau) != len(ids):  # a duplicate id
        return None
    args = frozenset(tau)  # sized once from a dict: half the table of frozenset(ids)
    att, supp = frozenset(attacks), frozenset(supports)
    base, (new_args, new_att, new_supp) = _extension(prev, args, att, supp)
    if base is not prev:  # every pair is new; an id prev has passed the id rule
        new_args = args - prev.args
    elif base.args:  # keep prev's pair tuples
        att, supp = base.att | new_att, base.supp | new_supp
    if not (
        _valid_ids(new_args)
        and args.issuperset(chain.from_iterable(new_att))
        and args.issuperset(chain.from_iterable(new_supp))
        and new_att.isdisjoint(supp)
        and new_supp.isdisjoint(att)
    ):
        return None
    return QBAG._owning(args, tau, att, supp)


_NOTHING = frozenset(), frozenset(), frozenset()  # what a step that shares prev's sets adds


def _extension(
    prev: QBAG, args: frozenset[str], att: frozenset[Edge], supp: frozenset[Edge]
) -> tuple[QBAG, tuple[frozenset[str], frozenset[Edge], frozenset[Edge]]]:
    """The graph a step extends, and the arguments, attacks and supports it adds to it.

    A step extends prev when it keeps every argument and edge of prev's,
    and the empty graph ``_EMPTY`` otherwise, to which it adds its own
    sets.  This is the one place that compares a step's structure with
    its predecessor's.  A step that shares prev's sets adds nothing.  A
    rewired step seldom keeps an arbitrary edge of prev's, so one probe
    per relation rejects most of them before any difference is taken;
    otherwise the sizes of the differences decide containment, in one
    pass over each set.
    """
    if args is prev.args and att is prev.att and supp is prev.supp:
        return prev, _NOTHING
    own = _EMPTY, (args, att, supp)
    if prev is _EMPTY:
        return own
    for old, given in ((prev.att, att), (prev.supp, supp)):
        if old and next(iter(old)) not in given:
            return own
    new_args, new_att, new_supp = args - prev.args, att - prev.att, supp - prev.supp
    if (
        len(args) - len(new_args) != len(prev.args)
        or len(att) - len(new_att) != len(prev.att)
        or len(supp) - len(new_supp) != len(prev.supp)
    ):
        return own
    return prev, (new_args, new_att, new_supp)


def _require_argument(g: QBAG, x: str) -> None:
    if x not in g.args:
        raise UnknownArgument(f"argument {_repr(x)} not in graph")


def attackers(g: QBAG, x: str) -> set[str]:
    """The set of arguments attacking x."""
    _require_argument(g, x)
    return {a for (a, b) in g.att if b == x}


def supporters(g: QBAG, x: str) -> set[str]:
    """The set of arguments supporting x."""
    _require_argument(g, x)
    return {a for (a, b) in g.supp if b == x}


class _Index(NamedTuple):
    """Per-argument neighbour lists, each sorted by ascending id."""

    successors: dict[str, list[str]]
    attackers: dict[str, list[str]]
    supporters: dict[str, list[str]]


def _index(g: QBAG) -> _Index:
    """The index of g, equal to the empty index extended by all of g; O(V + E log E).

    Each list is built by appending and then sorted once.  Built per
    call and never stored on the graph: keeping it on every step of a
    long chain would cost more memory than rebuilding it costs time.
    """
    index = _Index({x: [] for x in g.args}, {x: [] for x in g.args}, {x: [] for x in g.args})
    successors = index.successors
    for relation, in_lists in ((g.att, index.attackers), (g.supp, index.supporters)):
        for s, t in relation:
            successors[s].append(t)
            in_lists[t].append(s)
    for lists in index:
        for neighbours in lists.values():
            neighbours.sort()
    return index


def _extend_index(
    index: _Index, new_args: Iterable[str], new_att: Iterable[Edge], new_supp: Iterable[Edge]
) -> set[str]:
    """Add arguments and edges, as :func:`_extension` gives them, to an index in place.

    New arguments get empty lists, and ``bisect.insort`` puts each new
    edge into the sorted lists.  Returns the arguments whose in-edges
    changed: the new arguments and the targets of new edges.  Any new
    cycle passes through one of them.
    """
    successors, attacker_lists, supporter_lists = index
    for x in new_args:
        successors[x], attacker_lists[x], supporter_lists[x] = [], [], []
    changed = set(new_args)
    for relation, in_lists in ((new_att, attacker_lists), (new_supp, supporter_lists)):
        for s, t in relation:
            insort(successors[s], t)
            insort(in_lists[t], s)
            changed.add(t)
    return changed


def reaches(g: QBAG, x: str, y: str) -> bool:
    """True iff a directed path of length >= 1 leads from x to y."""
    _require_argument(g, x)
    _require_argument(g, y)
    successors = _index(g).successors
    stack = list(successors[x])
    seen = set(stack)
    while stack and y not in seen:
        for z in successors[stack.pop()]:
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return y in seen


def is_acyclic(g: QBAG) -> bool:
    """True iff no argument can reach itself."""
    try:
        topological_order(g)
    except CyclicGraph:
        return False
    return True


def restrict(g: QBAG, keep: Iterable[str]) -> QBAG:
    """The restriction of g to the given argument subset, its strengths in g's key order."""
    if isinstance(keep, str):  # set("ab") is {"a", "b"}
        raise TypeError(f"keep must be a collection of ids, not the str {keep!r}")
    keep = dict.fromkeys(keep)  # in the given order, so the first unknown id is named
    for x in keep:
        _require_argument(g, x)
    tau = {x: v for x, v in g.tau.items() if x in keep}
    return QBAG._owning(
        frozenset(tau),
        tau,
        frozenset(p for p in g.att if p[0] in keep and p[1] in keep),
        frozenset(p for p in g.supp if p[0] in keep and p[1] in keep),
    )


def is_sub_qbag(small: QBAG, large: QBAG) -> bool:
    """Containment: arguments, relations, and initial strengths all carry over."""
    return (
        small.args <= large.args
        and small.att <= large.att
        and small.supp <= large.supp
        and small.tau.items() <= large.tau.items()
    )


def topological_order(g: QBAG) -> list[str]:
    """A deterministic topological order of the arguments.

    Reverse post-order of a depth-first traversal that visits roots and
    successors in ascending id order.  Every edge source precedes its
    target.  Raises CyclicGraph when the graph contains a cycle
    (including self-loops).
    """
    return _ordered(g.args, _index(g).successors)


def _ordered(seeds: Collection[str], adj: dict[str, list[str]]) -> list[str]:
    """A topological order of the seeds and every argument they reach, over a prebuilt index.

    The traversal behind :func:`topological_order`, started from the
    seeds alone.  Raises CyclicGraph at the first cycle it meets.
    """
    on_path: dict[str, bool] = {}
    finished: list[str] = []
    for root in sorted(seeds):
        if root in on_path:
            continue
        stack = [(root, iter(adj[root]))]
        on_path[root] = True
        while stack:
            node, children = stack[-1]
            for child in children:
                if child not in on_path:
                    on_path[child] = True
                    stack.append((child, iter(adj[child])))
                    break
                if on_path[child]:
                    raise CyclicGraph(f"cycle through argument {child!r}")
            else:  # every child is finished
                on_path[node] = False
                finished.append(node)
                stack.pop()
    finished.reverse()
    return finished
