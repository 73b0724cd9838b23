"""BENCHMARK.json and run.py name the same metrics with the same units."""

import json
import os

import run

SPEC = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")


def test_benchmark_json_names_what_run_prints():
    with open(SPEC) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
