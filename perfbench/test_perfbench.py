"""Tests of the benchmark itself: its gates, failure accounting, span
arithmetic and input seeding."""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest

import inputs
import oracles
import spans
import workloads
from cyclored import census, density, entangle, utils
from cyclored.density import Interval


def _registry_report(label, cyclic_delta=0):
    total, cyclic, bad, split = oracles.SEED_REGISTRY_COUNTS[label]
    return SimpleNamespace(total_primes=total, cyclic_count=cyclic + cyclic_delta,
                           bad_primes=list(bad), split_counts=dict(zip((2, 3, 5, 7), split)))


def test_tampered_registry_count_fails_the_gate():
    assert oracles.check_registry_census("serre-ex3", _registry_report("serre-ex3")) == []
    assert oracles.check_registry_census("serre-ex3", _registry_report("serre-ex3", 1))


def test_tampered_interval_fails_the_gate():
    ref = Fraction(8137519, 10**7)
    eps = Fraction(1, 10**12)
    assert oracles.check_encloses("delta", Interval(ref - eps, ref + eps), ref) == []
    assert oracles.check_encloses("delta", Interval(ref + eps, ref + 2 * eps), ref)


def test_reference_density_matches_a_small_library_report():
    # At truncation 50 the library's enclosure is wide enough to hold the
    # 10^6 reference; the registry profiles exercise charsum and superfluous.
    maximal = oracles.maximal_constant_reference()
    for label in inputs.REGISTRY_LABELS:
        profile = workloads.REGISTRY[label].profile
        rep = density.build_density_report(profile, L=50)
        naive, delta = oracles.reference_density(
            {"degrees": profile.degrees, "superfluous": profile.superfluous,
             "charsum": profile.charsum}, maximal)
        assert oracles.check_encloses("naive", rep.naive, naive) == []
        assert oracles.check_encloses("delta", rep.delta, delta) == []


def test_point_count_oracle_on_a_small_prime():
    # y^2 = x^3 + 1 over F_5 has 6 points; the cubic has the single root 4.
    assert oracles.point_count_and_roots(5, 0, 1) == (6, 1)


def test_forced_exception_counts_as_failure_with_its_base(tmp_path, monkeypatch):
    def broken_write(path, obj):
        raise OSError("disk full")

    monkeypatch.setattr(workloads, "TRUNCATION", 50)
    monkeypatch.setattr(utils, "write_json_atomic", broken_write)
    ctx = workloads.Context("density", 0, str(tmp_path))
    ops = workloads.density_round(inputs.generate("density", 0)[0], ctx)
    assert [(op.kind, op.error) for op in ops] == [("report", None), ("write", "OSError")] * 7
    assert workloads.failures(ops).startswith("7 failed of 14 ops attempted")
    assert "write 7/7 (OSError)" in workloads.failures(ops)
    named = workloads.end_to_end("density", ops)["named"]
    assert named["density_write_s_p50"] == (None, "s", 0)
    assert named["density_report_s_p50"][2] == 7


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        [0, "root", 0.0, 10.0, None],
        [1, "a", 1.0, 3.0, 0],
        [2, "b", 2.0, 5.0, 0],     # overlaps a: the union is counted once
        [3, "c", 8.0, 12.0, 0],    # clipped to the parent's end
        [4, "a.x", 1.5, 2.0, 1],
    ]
    own = spans.self_times(tree)
    assert own == {0: 4.0, 1: 1.5, 2: 3.0, 3: 4.0, 4: 0.5}
    summary = spans.summarize(tree)
    assert summary["root"]["total_s"] == 10.0 and summary["root"]["self_s"] == 4.0
    assert spans.has_ancestor(tree, tree[4], "root")
    assert not spans.has_ancestor(tree, tree[1], "a")


def test_call_p50_is_the_mean_of_per_kind_medians():
    ops = [workloads.Op("closure:full", t) for t in (3.0, 3.2, 9.0)]
    ops += [workloads.Op("closure:kernel", t) for t in (7.0, 8.0)]
    assert workloads.call_p50(ops) == pytest.approx((3.2 + 7.5) / 2)
    # One round or two of a balanced mix gives the same figure.
    assert workloads.call_p50(ops[:1] + ops[3:4]) == pytest.approx((3.0 + 7.0) / 2)


def test_traced_census_layers_add_up_and_unpatch(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CENSUS_LIMIT", 3000)
    original = census.run_census
    ctx = workloads.Context("census-cold", 0, str(tmp_path))
    counted, ops, tracer = workloads.trace_run(ctx, inputs.generate("census-cold", 0))
    assert census.run_census is original and ctx.tracer is None
    assert counted == [] and [op.error for op in ops] == [None] * 4
    layers = workloads.per_layer(ops, tracer, counted)
    assert workloads.layer_sum_errors(layers, ops) == []
    assert layers["curve.group_order_calls"] > 0 and layers["trace.overhead_s"] > 0
    # A layer left out, or counted twice, breaks the sum.
    for name, factor in (("curve.group_structure_self_s", 0), ("curve.group_order_s", 2)):
        tampered = dict(layers, **{name: layers[name] * factor})
        assert workloads.layer_sum_errors(tampered, ops)


def test_counting_pass_counts_closure_products(tmp_path):
    moduli = (3,)
    gens = (((2, 0, 0, 1),), ((1, 1, 0, 1),), ((0, 1, 1, 0),))
    ctx = workloads.Context("entangle", 0, str(tmp_path))
    tracer = workloads.spans.Tracer()
    original = entangle._mat_mul
    ops = workloads._pass(ctx, tracer, [("full", moduli, gens)], workloads.COUNTED["entangle"],
                          count_only=True)
    assert entangle._mat_mul is original and tracer.spans == []
    assert ctx.errors == [] and ops[0].work == 48
    # Breadth-first closure: every element is multiplied by every generator.
    assert ops[0].products == 48 * 3
    layers = workloads.per_layer([], tracer, ops)
    assert layers["entangle.products_formed"] == 144
    assert layers["entangle.new_per_product"] == pytest.approx(47 / 144)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    assert inputs.generate(workload, 7) == inputs.generate(workload, 7)
    assert inputs.generate(workload, 7) != inputs.generate(workload, 8)


def test_seeds_cover_every_registry_curve():
    first = {inputs.generate("census-cold", seed)[0][0][0] for seed in range(5)}
    assert first == set(inputs.REGISTRY_LABELS)
    density_labels = [value for kind, value in inputs.generate("density", 0)[0] if kind == "label"]
    assert sorted(density_labels) == sorted(inputs.REGISTRY_LABELS)
