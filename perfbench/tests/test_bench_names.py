"""BENCHMARK.json agrees with what the benchmark emits, and names are valid."""

import json
import re
import sys
from pathlib import Path

import run
import tracing
from workloads import WORKLOADS, Corpus2d, Outcome

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_names_are_valid():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_names_and_units_match():
    p = run.Pass()
    p.ms = [1.0, 2.0, 3.0]
    p.outcomes = [Outcome(1, digits={i: 10.0}) for i in range(3)]
    p.wall = 1.0
    emitted = run.end_to_end(p, [0.5])
    assert {n: u for n, (_, u) in emitted.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_per_layer_names_and_units_match():
    emitted = tracing.layer_metrics([], 1, 1.0, 1.0, [])
    assert {n: u for n, (_, u) in emitted.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_corpus_matches_acceptance_instances():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import test_acceptance
    finally:
        sys.path.remove(str(ROOT / "tests"))
    assert list(Corpus2d.INSTANCES) == list(test_acceptance.INSTANCES)
