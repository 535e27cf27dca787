"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from qbag import (
    SLFQuery,
    common_arguments,
    evaluate,
    evaluate_chain,
    exceed_distribution,
    fairness_line,
    fairness_report,
    fluctuation_count,
    gini_fairness,
    gini_unnormalized,
    is_cautiously_fair,
    is_ideally_fair,
    is_live,
    is_lively_fair,
    is_strongly_safe,
    is_weak_expansion_chain,
    is_weakly_safe,
    parse_chain,
    parse_qbag,
    serialize_chain,
    serialize_qbag,
    shannon_fairness,
)
from qbag.cli import main as cli_main

from .cases import dialogue, sweep_dialogue
from .oracles import alternation_oracle, oracle_evaluate, trapezoid_area_oracle
from .randgen import NAMES, random_acyclic_qbag, random_chain, random_query, random_weak_chain
from .runner import CliRunner


def _ok(number: int, label: str) -> None:
    print(f"criterion {number} ({label}): PASS")


def _query(topics, threshold) -> SLFQuery:
    return SLFQuery(topics=frozenset(topics), threshold=threshold)


def test_criterion_1_dialogue_strength_regression():
    started = time.perf_counter()
    matrix = evaluate_chain(dialogue())
    expected_rows = [
        {"a": 0.6, "b": 0.7, "c": 0.2},
        {"a": 0.1, "b": 0.0, "c": 0.2, "d": 1.0},
        {"a": 0.5, "b": 0.56, "c": 0.2, "d": 0.2, "e": 0.8},
    ]
    for row, expected in zip(matrix.rows, expected_rows):
        assert row.domain() == set(expected)
        for x, value in expected.items():
            assert abs(row[x] - value) <= 1e-9, (x, row[x], value)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"evaluation took {elapsed:.3f}s"
    _ok(1, "dialogue strength regression")


def test_criterion_2_gini_reproduction():
    matrix = evaluate_chain(dialogue())
    q = _query("abc", 0.2)
    assert gini_unnormalized(matrix, q) == Fraction(1)
    assert abs(gini_fairness(matrix, q) - 0.46212) <= 1e-5
    line = fairness_line(matrix, q)
    assert line.endpoints == ((0, 0), (3, 7))
    assert line.slope == Fraction(7, 3)
    _ok(2, "gini reproduction")


def test_criterion_3_shannon_reproduction():
    matrix = evaluate_chain(dialogue())
    q = _query("abc", 0.2)
    report = fairness_report(matrix, q)
    assert report.p == {"a": Fraction(2, 7), "b": Fraction(2, 7), "c": Fraction(3, 7)}
    assert report.base_b == 7
    assert abs(report.shannon_score - 0.55449) <= 1e-5
    _ok(3, "shannon reproduction")


def test_criterion_4_classification_regression():
    matrix = evaluate_chain(dialogue())
    assert is_strongly_safe(matrix, _query("c", 0.1))
    assert is_weakly_safe(matrix, _query("b", 0.1))
    assert is_live(matrix, _query("ab", 0.2))
    assert not is_live(matrix, _query("c", 0.2))
    core = _query("abc", 0.2)
    assert is_cautiously_fair(matrix, core)
    assert is_lively_fair(matrix, core)
    assert not is_ideally_fair(matrix, core)
    _ok(4, "classification regression")


def test_criterion_5_sweep_scenario():
    chain = sweep_dialogue()
    matrix = evaluate_chain(chain)

    # trajectories, against both the closed forms and an independent evaluator
    sweep_values = [0.1, 0.5, 0.9]
    expected_a = (0.182, 0.15, 0.182)
    expected_b = (0.09, 0.25, 0.09)
    for i, s in enumerate(sweep_values):
        assert abs(matrix.trajectory("a")[i] - expected_a[i]) <= 1e-9
        assert abs(matrix.trajectory("b")[i] - expected_b[i]) <= 1e-9
        assert abs(matrix.trajectory("a")[i] - (0.2 - 0.2 * s * (1 - s))) <= 1e-9
        assert abs(matrix.trajectory("b")[i] - s * (1 - s)) <= 1e-9
        independent = oracle_evaluate(chain.steps[i])
        assert abs(independent["a"] - expected_a[i]) <= 1e-9
        assert abs(independent["b"] - expected_b[i]) <= 1e-9

    # safety: a clears 0.1 throughout, only finishes above 0.175; b clears neither
    assert is_strongly_safe(matrix, _query("a", 0.1))
    assert is_weakly_safe(matrix, _query("a", 0.175))
    assert not is_strongly_safe(matrix, _query("a", 0.175))
    for t in (0.1, 0.175):
        assert not is_strongly_safe(matrix, _query("b", t))
        assert not is_weakly_safe(matrix, _query("b", t))

    # liveness: both cross 0.175, only b crosses 0.1
    assert is_live(matrix, _query("ab", 0.175))
    assert is_live(matrix, _query("b", 0.1))
    assert not is_live(matrix, _query("a", 0.1))

    # binary fairness for the pair: everything fails at 0.1; at 0.175 the
    # lively notion fails while ideal and cautious hold vacuously, since no
    # singleton is strongly safe there
    pair_low = _query("ab", 0.1)
    assert not is_ideally_fair(matrix, pair_low)
    assert not is_lively_fair(matrix, pair_low)
    assert not is_cautiously_fair(matrix, pair_low)
    pair_high = _query("ab", 0.175)
    assert not is_lively_fair(matrix, pair_high)
    assert is_ideally_fair(matrix, pair_high)
    assert is_cautiously_fair(matrix, pair_high)

    # gradual scores at 0.1: counts (3, 1) give area exactly 1
    assert gini_unnormalized(matrix, pair_low) == Fraction(1)
    assert abs(gini_fairness(matrix, pair_low) - 0.46212) <= 1e-5
    assert abs(shannon_fairness(matrix, pair_low) - 0.40564) <= 1e-5
    _ok(5, "sweep scenario")


def test_criterion_6_theorem_property_suite():
    rng = random.Random(20260809)
    started = time.perf_counter()
    counterexamples: list[str] = []
    chains_checked = 0
    strong_hits = ideal_hits = length1_hits = weak_hits = 0

    def note(condition: bool, label: str) -> None:
        if not condition:
            counterexamples.append(label)

    def check(chain, matrix, topics, threshold, weak_chain: bool) -> None:
        nonlocal strong_hits, ideal_hits
        q = _query(topics, threshold)
        strong = is_strongly_safe(matrix, q)
        weak = is_weakly_safe(matrix, q)
        note(not strong or weak, "strong safety must imply weak safety")
        if len(chain) == 1:
            note(strong == weak, "length-1 chains must collapse the safety notions")
        if weak_chain:
            note(strong == weak, "weak chains must collapse the safety notions")
        if strong:
            strong_hits += 1
            note(not is_live(matrix, q), "strongly safe sets must not be live")
            note(
                all(fluctuation_count(matrix, x, threshold) == 0 for x in topics),
                "strongly safe sets must show zero fluctuations",
            )
        if is_lively_fair(matrix, q):
            note(is_cautiously_fair(matrix, q), "lively fairness must imply cautious")
        has_strong_singleton = any(
            is_strongly_safe(matrix, _query({x}, threshold)) for x in topics
        )
        if is_ideally_fair(matrix, q) and has_strong_singleton:
            ideal_hits += 1
            note(is_lively_fair(matrix, q), "ideal + strong singleton must be lively fair")
            note(not is_live(matrix, q), "ideal + strong singleton must not be live")
            note(
                gini_unnormalized(matrix, q) == 0 and gini_fairness(matrix, q) == 0.0,
                "ideal + strong singleton must zero the gini score exactly",
            )
            note(
                abs(shannon_fairness(matrix, q) - 1.0) <= 1e-12,
                "ideal + strong singleton must maximize the shannon score",
            )
        area = gini_unnormalized(matrix, q)
        score = gini_fairness(matrix, q)
        note(0.0 <= score < 1.0, "gini score must stay inside [0, 1)")
        note((score == 0.0) == (area == 0), "gini zero must coincide with zero area")

    for _ in range(150):
        chain = random_chain(rng, max_args=8, max_steps=6)
        chains_checked += 1
        if len(chain) == 1:
            length1_hits += 1
        matrix = evaluate_chain(chain)
        pool = [v for x in sorted(common_arguments(chain)) for v in matrix.trajectory(x)]
        topics, threshold = random_query(rng, chain, pool)
        check(chain, matrix, topics, threshold, weak_chain=False)
        check(chain, matrix, topics, 0.0, weak_chain=False)

    for _ in range(70):
        chain = random_weak_chain(rng)
        chains_checked += 1
        assert is_weak_expansion_chain(chain), "generator must produce weak chains"
        weak_hits += 1
        matrix = evaluate_chain(chain)
        pool = [v for x in sorted(common_arguments(chain)) for v in matrix.trajectory(x)]
        for x in sorted(common_arguments(chain)):
            for t in (rng.random(), rng.choice(pool)):
                note(
                    fluctuation_count(matrix, x, t) == 0,
                    "weak chains must show zero fluctuations on common arguments",
                )
        topics, threshold = random_query(rng, chain, pool)
        check(chain, matrix, topics, threshold, weak_chain=True)

    elapsed = time.perf_counter() - started
    assert chains_checked >= 200
    assert strong_hits >= 10, "suite never exercised strong safety"
    assert ideal_hits >= 10, "suite never exercised the ideal-fairness extreme"
    assert length1_hits >= 5, "suite never exercised length-1 chains"
    assert weak_hits >= 50
    assert not counterexamples, counterexamples[:5]
    assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"
    _ok(6, f"theorem property suite ({chains_checked} chains, {elapsed:.1f}s)")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(7)

    for _ in range(100):
        g = random_acyclic_qbag(rng, list(NAMES[: rng.randint(0, 8)]))
        sigma = evaluate(g)
        for x, expected in oracle_evaluate(g).items():
            assert abs(sigma[x] - expected) <= 1e-12

    for _ in range(100):
        chain = random_chain(rng)
        matrix = evaluate_chain(chain)
        pool = [v for x in sorted(common_arguments(chain)) for v in matrix.trajectory(x)]
        topics, threshold = random_query(rng, chain, pool)
        q = _query(topics, threshold)
        exact = float(gini_unnormalized(matrix, q))
        assert abs(exact - trapezoid_area_oracle(matrix, q)) <= 1e-6

    for _ in range(100):
        chain = random_chain(rng)
        matrix = evaluate_chain(chain)
        pool = [v for x in sorted(common_arguments(chain)) for v in matrix.trajectory(x)]
        topics, threshold = random_query(rng, chain, pool)
        for x in sorted(topics):
            states = [v >= threshold for v in matrix.trajectory(x)]
            assert fluctuation_count(matrix, x, threshold) == alternation_oracle(states)

    _ok(7, "oracle equivalence")


def test_criterion_8_round_trip_and_determinism(tmp_path):
    rng = random.Random(8)

    for _ in range(50):
        g = random_acyclic_qbag(rng, list(NAMES[: rng.randint(0, 8)]))
        assert parse_qbag(serialize_qbag(g)) == g
    for _ in range(50):
        chain = random_chain(rng)
        assert parse_chain(serialize_chain(chain)) == chain

    chain_path = tmp_path / "dialogue.json"
    chain_path.write_text(serialize_chain(dialogue()), encoding="utf-8")
    qbag_path = tmp_path / "graph.json"
    qbag_path.write_text(serialize_qbag(dialogue().steps[-1]), encoding="utf-8")
    runner = CliRunner()
    invocations = [
        ["analyze", str(chain_path), "--topics", "a,b,c", "--threshold", "0.2"],
        ["analyze", str(chain_path), "--topics", "a,b,c", "--threshold", "0.2",
         "--format", "structured"],
        ["curve", str(chain_path), "--topics", "a,b,c", "--threshold", "0.2"],
        ["eval", str(qbag_path)],
        ["validate", str(chain_path)],
    ]
    for argv in invocations:
        first = runner.invoke(cli_main, argv)
        second = runner.invoke(cli_main, argv)
        assert first.exit_code == second.exit_code == 0
        assert first.stdout_bytes == second.stdout_bytes
        assert first.stdout_bytes  # something was actually printed

    structured = runner.invoke(cli_main, invocations[1])
    payload = json.loads(structured.output)
    assert payload["gini_score"] == pytest.approx(0.46212, abs=1e-5)

    _ok(8, "round-trip and determinism")
