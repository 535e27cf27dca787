"""Hypothesis strategies for random graphs, chains, and analysis queries."""

import json
import re

from hypothesis import strategies as st

from qbag import (
    Chain,
    QBAG,
    build_chain,
    build_qbag,
    common_arguments,
    restrict,
    sweep_chain,
    topological_order,
)

CORE_NAMES = "abcd"
EXTRA_NAMES = "efgh"

strengths = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
thresholds = st.one_of(
    strengths, st.sampled_from([0.0, 0.1, 0.175, 0.2, 0.5, 0.9, 1.0])
)


def _forward_edges(draw, order: list[str], max_edges: int = 12):
    possible = [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
    ]
    if not possible:
        return [], []
    chosen = draw(
        st.lists(
            st.sampled_from(possible),
            unique=True,
            max_size=min(max_edges, len(possible)),
        )
    )
    att, supp = [], []
    for edge in chosen:
        (att if draw(st.booleans()) else supp).append(edge)
    return att, supp


@st.composite
def acyclic_qbags(draw, min_args: int = 0, max_args: int = 8) -> QBAG:
    n = draw(st.integers(min_args, max_args))
    args = list("abcdefgh"[:n])
    order = draw(st.permutations(args))
    att, supp = _forward_edges(draw, list(order))
    return build_qbag(
        [(x, draw(strengths)) for x in args], attacks=att, supports=supp
    )


@st.composite
def arbitrary_qbags(draw, min_args: int = 0, max_args: int = 8) -> QBAG:
    """Graphs that may contain cycles (including self-loops)."""
    n = draw(st.integers(min_args, max_args))
    args = list("abcdefgh"[:n])
    pairs = [(x, y) for x in args for y in args]
    edges = (
        draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    )
    att, supp = [], []
    for edge in edges:
        (att if draw(st.booleans()) else supp).append(edge)
    return build_qbag([(x, draw(strengths)) for x in args], attacks=att, supports=supp)


@st.composite
def chains(draw, max_steps: int = 6) -> Chain:
    """Arbitrary acyclic chains sharing a non-empty core of arguments.

    Steps are unrelated redraws (strengths, relations, and the extra
    argument set all change freely), which exercises the fully general
    chain notion rather than just expansions.
    """
    core = list(CORE_NAMES[: draw(st.integers(1, 4))])
    steps = []
    for _ in range(draw(st.integers(1, max_steps))):
        extras = list(EXTRA_NAMES[: draw(st.integers(0, 4))])
        args = core + extras
        order = draw(st.permutations(args))
        att, supp = _forward_edges(draw, list(order))
        steps.append(
            build_qbag([(x, draw(strengths)) for x in args], attacks=att, supports=supp)
        )
    return build_chain(steps)


@st.composite
def chain_queries(draw, max_steps: int = 6):
    """(chain, topics, threshold) triples with topics drawn from the core."""
    chain = draw(chains(max_steps=max_steps))
    common = sorted(common_arguments(chain))
    topics = draw(
        st.sets(st.sampled_from(common), min_size=1, max_size=len(common))
    )
    return chain, frozenset(topics), draw(thresholds)


@st.composite
def weak_expansion_chains(draw, max_expansions: int = 3) -> Chain:
    """Expansion chains where every step adds arguments that reach nothing old.

    New relations always point at the newly added arguments, so the new
    material is downstream of everything that existed before.
    """
    base_args = list(CORE_NAMES[: draw(st.integers(1, 4))])
    order = list(draw(st.permutations(base_args)))
    att, supp = _forward_edges(draw, order)
    taus = {x: draw(strengths) for x in base_args}
    steps = [build_qbag([(x, taus[x]) for x in base_args], attacks=att, supports=supp)]

    att, supp = list(att), list(supp)
    pool = list(EXTRA_NAMES)
    for _ in range(draw(st.integers(1, max_expansions))):
        if not pool:
            break
        fresh = [pool.pop(0) for _ in range(draw(st.integers(1, min(2, len(pool)))))]
        for new in fresh:
            taus[new] = draw(strengths)
            sources = draw(
                st.sets(st.sampled_from(order), max_size=min(3, len(order)))
            )
            for src in sources:
                (att if draw(st.booleans()) else supp).append((src, new))
            order.append(new)
        steps.append(
            build_qbag([(x, taus[x]) for x in order], attacks=att, supports=supp)
        )
    return build_chain(steps)


@st.composite
def retuned_expansion_chains(draw) -> Chain:
    """Weak expansion chains whose steps also retune some kept strengths.

    Each step still contains the step before it, so every block of its
    document keeps, inserts or changes entries and deletes none.
    """
    c = draw(weak_expansion_chains())
    steps = [c[0]]
    for g in c.steps[1:]:
        kept = sorted(steps[-1].args)
        retuned = draw(st.sets(st.sampled_from(kept))) if kept else set()
        tau = {x: draw(strengths) if x in retuned else v for x, v in g.tau.items()}
        steps.append(build_qbag(tau.items(), g.att, g.supp))
    return build_chain(steps)


# any character an id may hold: everything but whitespace and the comma,
# so quotes, backslashes, control characters and non-ASCII text included
id_texts = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs", "Zs", "Zl", "Zp"), blacklist_characters=","
    ).filter(lambda ch: not ch.isspace()),
    min_size=1,
    max_size=6,
)
exotic_ids = st.one_of(id_texts, st.sampled_from(['"', "\\", '\\"', "é", "日本", "\x7f", "\U0001f600"]))


@st.composite
def exotic_qbags(draw, max_args: int = 6) -> QBAG:
    """Acyclic graphs over ids that exercise string escaping."""
    args = draw(st.lists(exotic_ids, unique=True, max_size=max_args))
    att, supp = _forward_edges(draw, args)
    return build_qbag([(x, draw(strengths)) for x in args], attacks=att, supports=supp)


@st.composite
def shared_chains(draw) -> Chain:
    """Sweep chains: every step shares one argument set and both relations."""
    g = draw(st.one_of(acyclic_qbags(min_args=1), exotic_qbags().filter(lambda g: g.args)))
    x = draw(st.sampled_from(sorted(g.args)))
    return sweep_chain(g, x, draw(st.lists(strengths, min_size=1, max_size=5)))


# both signed zeros, which compare equal but a semantics may tell apart
signed_strengths = st.one_of(strengths, st.sampled_from([0.0, -0.0, 1.0]))


def shared_step(g: QBAG, tau: dict) -> QBAG:
    """A raw step that shares g's argument set and relations by identity."""
    return QBAG(g.args, tau, g.att, g.supp)


@st.composite
def spliced_chains(draw) -> Chain:
    """Chains whose steps share the argument set by identity, in many ways.

    Sweeps over values with both signed zeros and repeats; raw steps that
    change no, one or every strength, some of them to an int or to the
    other zero, or that list the strengths in another key order; and
    shared steps after a rebuilt one.
    """
    g = draw(st.one_of(acyclic_qbags(min_args=1), exotic_qbags().filter(lambda g: g.args)))
    values = st.one_of(signed_strengths, st.sampled_from([0, 1]))
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["sweep", "none", "one", "every", "reorder", "rebuild"]))
        last = steps[-1] if steps else g
        tau = dict(last.tau)
        if kind == "sweep":
            swept = draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]), min_size=1, max_size=4))
            steps += sweep_chain(last, draw(st.sampled_from(sorted(g.args))), swept)
            continue
        if kind == "one":
            tau[draw(st.sampled_from(sorted(g.args)))] = draw(values)
        elif kind == "every":
            tau = {x: draw(values) for x in tau}
        elif kind == "reorder":
            tau = dict(reversed(tau.items()))
        elif kind == "rebuild":  # equal sets, but not the same objects
            steps.append(build_qbag(tau.items(), last.att, last.supp))
            continue
        steps.append(shared_step(last, tau))
    return build_chain(steps)


@st.composite
def rewired_chains(draw, max_steps: int = 5) -> Chain:
    """Chains over one id set, every step with fresh strengths and fresh edges."""
    args = list("abcdefgh"[: draw(st.integers(1, 8))])
    steps = []
    for _ in range(draw(st.integers(1, max_steps))):
        att, supp = _forward_edges(draw, list(draw(st.permutations(args))))
        taus = [(x, draw(signed_strengths)) for x in args]
        steps.append(build_qbag(taus, attacks=att, supports=supp))
    return build_chain(steps)


EDITS = ("sweep", "retune", "grow", "link", "unlink", "drop", "rewire")


def _edit(draw, g: QBAG, fresh: list[str]) -> QBAG:
    """One edit of g: a new step that a chain may follow g with."""
    order = topological_order(g)
    edit = draw(st.sampled_from(EDITS if order else ("grow",)))
    edges = {p: p in g.att for p in g.att | g.supp}  # pair -> is an attack
    taus = dict(g.tau)
    if edit == "sweep":  # same structure by identity, as sweep_chain shares it
        x = draw(st.sampled_from(order))
        return sweep_chain(g, x, [draw(signed_strengths)]).steps[0]
    if edit == "retune":  # equal but rebuilt structure, one strength changed
        taus[draw(st.sampled_from(order))] = draw(signed_strengths)
    elif edit == "grow" and fresh:  # a new argument anywhere in the order
        new = fresh.pop(0)
        cut = draw(st.integers(0, len(order)))
        taus[new] = draw(signed_strengths)
        order.insert(cut, new)
        for x in sorted(draw(st.sets(st.sampled_from(order), max_size=3))):
            pair = (x, new) if order.index(x) < cut else (new, x)
            if x != new:
                edges[pair] = draw(st.booleans())
    elif edit == "link":  # a new edge between two old arguments
        i, j = sorted(draw(st.lists(st.integers(0, len(order) - 1), min_size=2, max_size=2)))
        if i != j:
            edges.setdefault((order[i], order[j]), draw(st.booleans()))
    elif edit == "unlink" and edges:
        del edges[draw(st.sampled_from(sorted(edges)))]
    elif edit == "drop":
        return restrict(g, g.args - {draw(st.sampled_from(order))})
    elif edit == "rewire":
        att, supp = _forward_edges(draw, list(draw(st.permutations(order))))
        edges = {p: True for p in att} | {p: False for p in supp}
    return build_qbag(
        [(x, taus[x]) for x in order],
        attacks=[p for p, is_attack in edges.items() if is_attack],
        supports=[p for p, is_attack in edges.items() if not is_attack],
    )


@st.composite
def evolving_chains(draw, max_steps: int = 6) -> Chain:
    """Chains whose every step is one edit of the step before it.

    Edits sweep one initial strength (sharing the structure), change one
    strength on a rebuilt structure, add an argument anywhere in the
    order, add or remove an edge, drop an argument, or rewire every edge.
    Initial strengths include both signed zeros.
    """
    steps = [draw(acyclic_qbags(min_args=1))]
    fresh = list("ijklmnop")
    for _ in range(draw(st.integers(0, max_steps - 1))):
        steps.append(_edit(draw, steps[-1], fresh))
    return build_chain(steps)


# arbitrary JSON trees, keys biased towards the document schema's
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["id", "initial", "arguments", "attacks", "supports", "x"])
        | st.text(max_size=3),
        inner,
        max_size=4,
    ),
    max_leaves=20,
)
_ARGUMENTS = st.lists(
    st.fixed_dictionaries(
        {"id": st.sampled_from(["a", "b", "a b", ""]) | json_values,
         "initial": strengths | json_values},
        optional={"x": json_values},
    )
    | json_values,
    max_size=4,
)
_EDGES = st.lists(
    st.lists(st.sampled_from(["a", "b", "z"]), min_size=2, max_size=2) | json_values,
    max_size=4,
)
_PAYLOADS = st.fixed_dictionaries(
    {"arguments": _ARGUMENTS, "attacks": _EDGES, "supports": _EDGES},
    optional={"x": json_values},
) | json_values


@st.composite
def near_documents(draw):
    """Envelopes that pass the top-level checks, holding random payloads."""
    if draw(st.booleans()):
        payload = draw(_PAYLOADS.filter(lambda p: isinstance(p, dict)))
        doc = {"format_version": "1", "kind": "qbag", **payload}
    else:
        steps = draw(st.lists(_PAYLOADS, max_size=3))
        if steps and draw(st.booleans()):
            steps.append(steps[-1])  # a repeated step takes the shared-structure path
        doc = {"format_version": "1", "kind": "chain", "steps": steps}
    return json.dumps(doc)


@st.composite
def matrix_queries(draw, max_topics: int = 7, max_steps: int = 9):
    """(rows, topics, threshold): strength rows drawn directly, no graph behind them.

    Values are often the threshold itself or a near neighbour of a common
    one, so ties at the boundary and many distinct exceedance counts occur.
    """
    threshold = draw(thresholds)
    topics = [f"t{k}" for k in range(draw(st.integers(1, max_topics)))]
    values = strengths | st.sampled_from([threshold, 0.0, 1.0, 0.19999999999999998, 0.2])
    rows = draw(
        st.lists(st.fixed_dictionaries({x: values for x in topics}), min_size=1, max_size=max_steps)
    )
    return rows, frozenset(topics), threshold


@st.composite
def closing_chains(draw) -> Chain:
    """evolving_chains() followed by steps that may close a cycle and go on.

    Each added step links two arguments of the step before (a self-loop
    included), adds an argument with edges both ways, sweeps one strength
    on the shared structure, or returns to an earlier step.  The first
    two extend the step before, so a cycle they close lies downstream of
    a new edge; a step that extends a cyclic step stays cyclic.
    """
    steps = list(draw(evolving_chains(max_steps=4)).steps)
    fresh = list("qrstuvwx")
    for _ in range(draw(st.integers(1, 4))):
        g = steps[-1]
        order = sorted(g.args)
        taus, att, supp = dict(g.tau), set(g.att), set(g.supp)
        edits = ("link", "link", "grow", "sweep", "return") if order else ("grow",)
        edit = draw(st.sampled_from(edits))
        if edit == "sweep":
            x = draw(st.sampled_from(order))
            steps.append(sweep_chain(g, x, [draw(strengths)]).steps[0])
            continue
        if edit == "return":
            steps.append(draw(st.sampled_from(steps)))
            continue
        ends = [(x, y) for x in order for y in order]
        if edit == "grow":
            new = fresh.pop(0)
            taus[new] = draw(strengths)
            ends = [(x, new) for x in order] + [(new, x) for x in order] + [(new, new)]
        for pair in draw(st.lists(st.sampled_from(ends), max_size=3, unique=True)):
            if pair not in att and pair not in supp:
                (att if draw(st.booleans()) else supp).add(pair)
        steps.append(build_qbag(taus.items(), attacks=att, supports=supp))
    return build_chain(steps)


# the mutations of a canonical chain document, byte level unless noted
MUTATIONS = (
    "space",
    "swap_keys",
    "duplicate_key",
    "digit",
    "truncate",
    "escape",
    "pair_to_string",
    "repeat_id",
    "close_cycle",  # on the decoded document, written back canonically
)
_KEY = re.compile(r'"(id|initial|attacks|supports)": ')
_PAIR = re.compile(r'\[\n *("(?:[^"\\]|\\.)*"),\n *("(?:[^"\\]|\\.)*")\n *\]')
_ARGUMENT = re.compile(r'\{\n *"id": [^\n]*,\n *"initial": [^\n]*\n *\}')
_PATTERNS = {
    "swap_keys": _KEY,
    "duplicate_key": _KEY,
    "pair_to_string": _PAIR,
    "repeat_id": _ARGUMENT,
}
_PARTNER = {"id": "initial", "initial": "id", "attacks": "supports", "supports": "attacks"}


def _close_cycle(draw, text: str) -> str:
    """An edge between two ids of a step, kept in every later step."""
    try:  # only a document that earlier mutations left well formed
        doc = json.loads(text)
        steps = doc["steps"]
        ids = [[a["id"] for a in step["arguments"]] for step in steps]
        if not all(type(step[k]) is list for step in steps for k in ("attacks", "supports")):
            return text
    except (ValueError, LookupError, TypeError):
        return text
    i = draw(st.integers(0, len(steps) - 1))
    if ids[i]:
        pair = [draw(st.sampled_from(ids[i])), draw(st.sampled_from(ids[i]))]
        for step in steps[i:]:
            step[draw(st.sampled_from(["attacks", "supports"]))].append(pair)
    return json.dumps(doc, indent=2) + "\n"


def _mutate(draw, text: str) -> str:
    """One mutation of a document's text."""
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "close_cycle":
        return _close_cycle(draw, text)
    if mutation == "space":
        at = draw(st.integers(0, len(text)))
        return text[:at] + " " + text[at:]
    if mutation == "truncate":
        return text[: draw(st.integers(0, max(len(text) - 1, 0)))]
    if mutation in ("digit", "escape"):
        test = str.isdigit if mutation == "digit" else str.isalpha
        places = [i for i, ch in enumerate(text) if test(ch)]
        if not places:
            return text
        at = draw(st.sampled_from(places))
        if mutation == "digit":
            replacement = draw(st.sampled_from("0123456789"))
        else:  # the same character, or the next one, as a \u escape
            replacement = f"\\u{ord(text[at]) + draw(st.sampled_from([0, 0, 1])):04x}"
        return text[:at] + replacement + text[at + 1 :]
    matches = list(_PATTERNS[mutation].finditer(text))
    if not matches:
        return text
    m = draw(st.sampled_from(matches))
    if mutation == "swap_keys":
        return text[: m.start(1)] + _PARTNER[m.group(1)] + text[m.end(1) :]
    if mutation == "duplicate_key":  # the key again: first, or last so that it wins
        value = draw(st.sampled_from(['"a"', "0.5", "[]", '[["a", "b"]]', "1", "null"]))
        copy = f'"{m.group(1)}": {value}'
        line_end = text.find("\n", m.end())
        if draw(st.booleans()) and line_end > 0 and text[line_end - 1] == ",":
            return text[:line_end] + f" {copy}," + text[line_end:]
        return text[: m.start()] + f"{copy}, " + text[m.start() :]
    if mutation == "pair_to_string":  # ["a", "b"] becomes "ab"
        return text[: m.start()] + m.group(1)[:-1] + m.group(2)[1:] + text[m.end() :]
    # repeat_id: an argument object again, later in its step or in a later step
    later = [n.end() for n in matches if n.start() > m.start()]
    at = draw(st.sampled_from(later)) if later else m.end()
    return text[:at] + ",\n" + m.group(0) + text[at:]


@st.composite
def mutated_documents(draw, texts) -> str:
    """Documents drawn from texts, with one or two mutations, or none."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 2))):
        text = _mutate(draw, text)
    return text
