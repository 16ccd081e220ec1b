"""Tests of the benchmark itself: tracing, the brute-force reference, checks.

Run with `python -m pytest perfbench/tests` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import brute
import harness
import tracer
from harness import Family, Workload

TINY = {
    "exact": Workload(
        "tiny_exact", "exact",
        (Family("temporal", 3, 4), Family("spatial", 3, 4, e=2, k_g=2)),
        n=10, k_l=1, k_c=1, weight_exponents=(6, 2), node_cap=15,
    ),
    "fit": Workload(
        "tiny_fit", "fit",
        (Family("temporal", 3, 4), Family("spatial", 3, 4, e=2, k_g=2)),
        n=10, k_l=1, k_c=1, weight_exponents=(0, 0),
    ),
    "gridsearch": Workload(
        "tiny_gridsearch", "gridsearch", (Family("temporal", 4, 6),),
        n=12, k_l=2, k_c=2,
    ),
}


def site_attributes():
    return [
        tracer._raw_attribute(*tracer.resolve_site(module, attribute))
        for _, module, attribute in tracer.SITES
    ]


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_restores_every_wrapped_attribute(kind, tmp_path):
    harness.execute(TINY[kind], seed=0, seconds=0.01, trace=True, workdir=tmp_path)
    before = site_attributes()
    t = tracer.Tracer()
    with t.installed():
        assert all(a is not b for a, b in zip(site_attributes(), before))
    assert all(a is b for a, b in zip(site_attributes(), before))
    with pytest.raises(RuntimeError):
        with t.installed():
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(site_attributes(), before))


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_and_untraced_runs_agree(kind, tmp_path):
    plain = harness.execute(TINY[kind], seed=1, seconds=0.01, trace=False, workdir=tmp_path)
    traced = harness.execute(TINY[kind], seed=1, seconds=0.01, trace=True, workdir=tmp_path)
    again = harness.execute(TINY[kind], seed=1, seconds=0.01, trace=True, workdir=tmp_path)
    assert plain["correct"] and traced["correct"] and again["correct"]
    assert plain["failed"] == traced["failed"] == 0
    # a traced run alternates untraced and traced passes, each checked
    # against the first; the answers must also match a fully untraced run
    assert traced["instances"] == plain["instances"]
    assert [p["traced"] for p in traced["passes"][:2]] == [False, True]
    for name in tracer.COUNT_METRICS:
        assert traced["per_layer"][name] == again["per_layer"][name], name
    assert set(traced["per_layer"]) == set(tracer.LAYER_METRICS)


def test_layer_counts_match_the_answers(tmp_path):
    summary = harness.execute(TINY["exact"], seed=2, seconds=0.01, trace=True, workdir=tmp_path)
    layers = summary["per_layer"]
    assert layers["master.nodes"] > 0
    assert layers["simplex.lp.calls"] >= layers["master.nodes"]
    assert layers["simplex.lp.warm_calls"] + layers["simplex.lp.cold_calls"] == layers["simplex.lp.calls"]
    # a traced round includes one set-up: one read and one warm start per instance
    instances = len(TINY["exact"].families)
    # every cut, the warm-start cut included, takes one evaluation and one
    # gradient; on these capped solves every evaluation in the tree adds a
    # cut, and each stepwise warm start in the set-up evaluates its support once
    assert layers["oracle.eval_gradient.calls"] == layers["master.cuts"]
    assert layers["oracle.evaluate.calls"] == layers["master.cuts"] + instances
    assert layers["dataio.read_csv.calls"] == instances
    assert layers["problem.build_quadform.calls"] == instances
    assert layers["stepwise.fit.calls"] == instances


def tiny_instances(mods):
    for mode, e, k_g in (("temporal", None, None), ("spatial", 3, 3)):
        params = mods.benchmark.SynthParams(
            n=8, t=3, d=4, k_l=2, k_c=2, k_g=k_g, e=e, mode=mode, seed=5
        )
        dataset = mods.benchmark.make_synthetic_dataset(params)
        yield dataset.with_lambdas(2.0, 0.7), mods.benchmark.solver_budget(dataset)


def test_enumerator_agrees_with_the_library_cost():
    mods = harness.fresh_slowreg()
    from slowreg.oracle import beta_star, eval_cost

    for instance, budget in tiny_instances(mods):
        qf = mods.problem.build_quadform(instance)
        args = (instance.x_blocks, instance.y_blocks, instance.graph.edges,
                instance.lambda_beta, instance.lambda_delta)
        h, g, const = brute.normal_system(*args)
        supports = brute.feasible_supports(
            3, 4, instance.graph.edges,
            budget.max_per_vertex, budget.max_global, budget.max_changes,
        )
        for z in supports:
            library = qf.const_term + 2.0 * eval_cost(qf, z)
            ours = brute.support_value(h, g, const, z)
            assert ours == pytest.approx(library, rel=1e-10, abs=1e-10)
            direct = brute.direct_objective(*args, beta_star(qf, z))
            assert direct == pytest.approx(ours, rel=1e-10, abs=1e-10)


def test_enumerator_finds_exactly_the_feasible_supports():
    mods = harness.fresh_slowreg()
    for instance, budget in tiny_instances(mods):
        edges = instance.graph.edges
        ours = {
            z.tobytes()
            for z in brute.feasible_supports(
                3, 4, edges, budget.max_per_vertex, budget.max_global, budget.max_changes
            )
        }
        library = {
            np.array(bits, dtype=bool).tobytes()
            for bits in product((False, True), repeat=12)
            if mods.problem.check_feasible(np.array(bits), budget, instance.graph)
        }
        assert ours == library


def test_enumerated_optimum_certifies_the_solver():
    mods = harness.fresh_slowreg()
    for instance, budget in tiny_instances(mods):
        qf = mods.problem.build_quadform(instance)
        res = mods.master.solve_support_selection(qf, budget)
        opt, _, _ = brute.enumerated_optimum(
            instance.x_blocks, instance.y_blocks, instance.graph.edges,
            instance.lambda_beta, instance.lambda_delta,
            (budget.max_per_vertex, budget.max_global, budget.max_changes),
        )
        assert res.status == "optimal"
        assert res.objective_value == pytest.approx(opt, rel=1e-8)


def test_checks_flag_wrong_answers(tmp_path):
    workload = TINY["gridsearch"]
    mods = harness.fresh_slowreg()
    cases = harness.make_cases(mods, workload, 0, tmp_path)
    states = harness.setup(mods, workload, cases)
    ops = harness.make_ops(mods, workload, cases, states, tmp_path)
    _, out = ops[0]()
    assert harness.check_gridsearch(cases[0], states[0], out, {})[0] == []
    bad = json.loads(json.dumps(out))
    bad["report"]["best"]["holdout_r2"] += 1e-3
    assert harness.check_gridsearch(cases[0], states[0], bad, {})[0]
    recorded = {"table": [[r["lambda_beta"], r["lambda_delta"], r["holdout_r2"] + 1e-6]
                          for r in out["report"]["table"]]}
    assert harness.check_gridsearch(cases[0], states[0], out, recorded)[0]

    workload = TINY["exact"]
    cases = harness.make_cases(mods, workload, 0, tmp_path)
    states = harness.setup(mods, workload, cases)
    refs = harness.references(workload, 0, states)
    ops = harness.make_ops(mods, workload, cases, states, tmp_path)
    _, out = ops[0]()
    assert harness.check_exact(cases[0], states[0], out, refs[0])[0] == []
    bad = dict(out, objective=out["objective"] * (1 + 1e-6))
    assert harness.check_exact(cases[0], states[0], bad, refs[0])[0]
    # an incumbent better than the claimed optimum means one of them is wrong
    wrong_opt = dict(refs[0], optimum=refs[0]["optimum"] + 1.0)
    assert harness.check_exact(cases[0], states[0], out, wrong_opt)[0]


def test_run_without_sources_exits_nonzero(tmp_path):
    bench = Path(harness.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_weak",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
