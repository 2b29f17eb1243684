"""Ternary preflight: verdicts, restriction and no-BDD discharge."""

import pytest

import repro.core.ladder as ladder_mod
from repro.analysis.static import preflight
from repro.analysis.static.preflight import (STATUS_EQUIVALENT,
                                             STATUS_MISMATCH,
                                             STATUS_MITER, STATUS_OPEN,
                                             restrict_to_outputs)
from repro.circuit import GateType
from repro.circuit.netlist import Circuit
from repro.core.ladder import run_ladder
from repro.generators.paper_examples import ALL_FIGURES, figure1
from repro.partial.blackbox import BlackBox, PartialImplementation


def _pair_with_discharged_cone():
    """A two-output pair: output 0 is box-free and hash-equal to the
    spec (statically discharged), output 1 depends on a box (open)."""
    spec = Circuit("spec")
    spec.add_inputs(["a", "b", "c"])
    spec.add_gate("f", GateType.AND, ["a", "b"])
    spec.add_gate("g", GateType.OR, ["f", "c"])
    spec.add_outputs(["f", "g"])

    impl = Circuit("impl")
    impl.add_inputs(["a", "b", "c"])
    impl.add_gate("f", GateType.AND, ["b", "a"])   # commuted: same cone
    impl.add_gate("g", GateType.OR, ["z", "c"])    # z: box output
    impl.add_outputs(["f", "g"])
    box = BlackBox("BB", ("a", "b"), ("z",))
    return spec, PartialImplementation(impl, [box])


class TestVerdicts:
    def test_discharged_and_open(self):
        spec, partial = _pair_with_discharged_cone()
        report = preflight(spec, partial)
        statuses = [v.status for v in report.verdicts]
        assert statuses == [STATUS_EQUIVALENT, STATUS_OPEN]
        assert report.discharged == (0,)
        assert report.open_indices == (1,)
        assert not report.all_discharged
        assert report.mismatch is None

    def test_constant_mismatch_yields_counterexample(self):
        spec = Circuit("spec")
        spec.add_input("a")
        spec.add_gate("na", GateType.NOT, ["a"])
        spec.add_gate("f", GateType.OR, ["a", "na"])   # constant 1
        spec.add_output("f")
        impl = Circuit("impl")
        impl.add_input("a")
        impl.add_gate("na", GateType.NOT, ["a"])
        impl.add_gate("f", GateType.AND, ["a", "na"])  # constant 0
        impl.add_output("f")
        partial = PartialImplementation(impl, [])
        report = preflight(spec, partial)
        verdict = report.mismatch
        assert verdict is not None and verdict.status == STATUS_MISMATCH
        assert report.counterexample is not None
        # the witness really exposes the error
        assert spec.evaluate(report.counterexample)["f"] \
            != impl.evaluate(report.counterexample)["f"]

    def test_box_free_difference_routes_to_miter(self):
        spec = Circuit("spec")
        spec.add_inputs(["a", "b"])
        spec.add_gate("f", GateType.AND, ["a", "b"])
        spec.add_output("f")
        impl = Circuit("impl")
        impl.add_inputs(["a", "b"])
        impl.add_gate("f", GateType.OR, ["a", "b"])
        impl.add_output("f")
        report = preflight(spec, PartialImplementation(impl, []))
        assert [v.status for v in report.verdicts] == [STATUS_MITER]
        assert report.box_free

    def test_unobservable_box_reported(self):
        spec = Circuit("spec")
        spec.add_inputs(["a", "b"])
        spec.add_gate("f", GateType.AND, ["a", "b"])
        spec.add_output("f")
        impl = Circuit("impl")
        impl.add_inputs(["a", "b"])
        impl.add_gate("f", GateType.AND, ["a", "b"])
        impl.add_output("f")
        dead = BlackBox("DEAD", ("a",), ("unused",))
        report = preflight(spec, PartialImplementation(impl, [dead]))
        assert report.unobservable_boxes == ("DEAD",)
        assert report.all_discharged

    def test_figure_pairs_classify_without_error(self):
        for name, (factory, _expected) in ALL_FIGURES.items():
            spec, partial = factory()
            report = preflight(spec, partial)
            assert len(report.verdicts) == len(spec.outputs)
            assert report.mismatch is None, name


class TestRestriction:
    def test_keeps_full_input_interface(self):
        spec, partial = _pair_with_discharged_cone()
        report = preflight(spec, partial)
        spec_r, partial_r = restrict_to_outputs(spec, partial,
                                                report.open_indices)
        assert spec_r.inputs == spec.inputs
        assert partial_r.circuit.inputs == partial.circuit.inputs
        assert list(spec_r.outputs) == ["g"]
        assert [b.name for b in partial_r.boxes] == ["BB"]
        partial_r.validate_against(spec_r)

    def test_drops_boxes_outside_kept_cones(self):
        spec, partial = _pair_with_discharged_cone()
        # keep only the discharged box-free output: the box must go
        spec_r, partial_r = restrict_to_outputs(spec, partial, [0])
        assert partial_r.boxes == []
        assert list(spec_r.outputs) == ["f"]


class TestLadderIntegration:
    def test_full_discharge_never_builds_a_bdd(self, monkeypatch):
        spec = Circuit("s")
        spec.add_inputs(["a", "b"])
        spec.add_gate("f", GateType.AND, ["a", "b"])
        spec.add_output("f")
        impl = Circuit("i")
        impl.add_inputs(["a", "b"])
        impl.add_gate("f", GateType.AND, ["b", "a"])
        impl.add_output("f")
        partial = PartialImplementation(
            impl, [BlackBox("BB", ("a",), ("z",))])

        def boom():
            raise AssertionError("a BDD manager was constructed")

        monkeypatch.setattr(ladder_mod, "default_bdd", boom)
        results = run_ladder(spec, partial, preflight=True)
        assert len(results) == 1
        assert results[0].check == "preflight"
        assert results[0].exact and not results[0].error_found

    def test_static_mismatch_short_circuits_with_witness(self):
        spec = Circuit("s")
        spec.add_input("a")
        spec.add_gate("na", GateType.NOT, ["a"])
        spec.add_gate("f", GateType.OR, ["a", "na"])
        spec.add_output("f")
        impl = Circuit("i")
        impl.add_input("a")
        impl.add_gate("na", GateType.NOT, ["a"])
        impl.add_gate("f", GateType.AND, ["a", "na"])
        impl.add_output("f")
        results = run_ladder(spec, PartialImplementation(impl, []),
                             preflight=True)
        assert len(results) == 1
        result = results[0]
        assert result.check == "preflight" and result.error_found
        assert result.counterexample is not None
        assert result.failing_output == "f"

    def test_preflight_preserves_figure_verdicts(self):
        for name, (factory, _expected) in ALL_FIGURES.items():
            spec, partial = factory()
            base = run_ladder(spec, partial, stop_at_first_error=False)
            with_pf = run_ladder(spec, partial,
                                 stop_at_first_error=False,
                                 preflight=True)
            base_verdicts = [(r.check, r.error_found) for r in base
                             if r.check != "preflight"]
            pf_verdicts = [(r.check, r.error_found) for r in with_pf
                           if r.check != "preflight"]
            # the preflight may legitimately stop the ladder early
            # (exact miter / full discharge), never change a verdict
            assert pf_verdicts == base_verdicts[:len(pf_verdicts)], name

    def test_discharges_a_cone_on_paper_example_spec(self):
        # Acceptance: on the paper's Figure 1 specification (f1 =
        # x2·x3 + x4·x5, f2 = x4·x5 + x6), boxing only f2's cone
        # leaves f1's cone identical — the preflight discharges it
        # statically and the ladder only ever checks the f2 pair.
        spec, _ = figure1()
        impl = Circuit("fig1_partial")
        impl.add_inputs(spec.inputs)
        for gate in spec.gates:
            if gate.output != spec.outputs[1]:
                impl.add_gate(gate.output, gate.gtype, gate.inputs)
        impl.add_gate(spec.outputs[1], GateType.BUF, ["z"])
        impl.add_outputs(spec.outputs)
        t45 = spec.gate(spec.outputs[1]).inputs[0]
        partial = PartialImplementation(
            impl, [BlackBox("BB", (t45, "x6"), ("z",))])
        report = preflight(spec, partial)
        assert len(report.discharged) >= 1
        assert report.verdicts[0].status == STATUS_EQUIVALENT
        assert report.verdicts[1].status == STATUS_OPEN
        results = run_ladder(spec, partial, stop_at_first_error=False,
                             preflight=True)
        assert all(r.stats.get("static_discharged") == 1
                   for r in results)
        assert not any(r.error_found for r in results)

    def test_partial_discharge_restricts_run(self):
        spec, partial = _pair_with_discharged_cone()
        results = run_ladder(spec, partial, stop_at_first_error=False,
                             preflight=True)
        assert all(r.stats.get("static_discharged") == 1
                   for r in results)
        assert all(not r.error_found for r in results)


class TestValidation:
    def test_interface_mismatch_raises(self):
        spec, partial = _pair_with_discharged_cone()
        bad = Circuit("bad")
        bad.add_inputs(["a", "b"])
        bad.add_gate("f", GateType.AND, ["a", "b"])
        bad.add_output("f")
        with pytest.raises(Exception):
            preflight(bad, partial)
